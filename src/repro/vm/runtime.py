"""VM runtime builtins: the tiny libc the target programs link against.

Implemented natively (outside the cycle model except for a fixed charge
per call) so library behaviour never depends on instrumentation — exactly
like the real evaluations, which never instrument libc.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

from repro.errors import VMTrap

if TYPE_CHECKING:  # pragma: no cover
    from repro.vm.interpreter import VM

# Flat per-call cycle charge for builtins (plus per-byte charges below).
BUILTIN_BASE_CYCLES = 12
BUILTIN_BYTE_CYCLES = 1  # memcpy/memset/strlen per byte


class ExitProgram(Exception):
    """Raised by the exit() builtin to unwind the interpreter."""

    def __init__(self, code: int):
        self.code = code
        super().__init__(f"exit({code})")


def _signed64(value: int) -> int:
    value &= (1 << 64) - 1
    return value - (1 << 64) if value >= 1 << 63 else value


class BuiltinRuntime:
    """State and dispatch for runtime builtins.

    The calling VM is passed to each call rather than held: the VM owns
    this object, and a back reference would keep every dropped VM (and
    its memory image) alive until a cyclic garbage collection.
    """

    def __init__(self):
        self._stdout = bytearray()

    def reset(self) -> None:
        self._stdout.clear()

    def stdout_bytes(self) -> bytes:
        return bytes(self._stdout)

    # -- dispatch ------------------------------------------------------------

    def call(self, vm: "VM", name: str, args: Tuple[int, ...]) -> int:
        handler = getattr(self, f"do_{name}", None)
        if handler is None:
            raise VMTrap(f"unknown builtin {name!r}", "bad-call")
        vm.cycles += BUILTIN_BASE_CYCLES
        return handler(vm, args)

    # -- stdio ----------------------------------------------------------------

    def do_printf(self, vm: "VM", args: Tuple[int, ...]) -> int:
        if not args:
            raise VMTrap("printf with no format", "bad-call")
        fmt = vm.read_cstring(args[0])
        out = self._format(vm, fmt, args[1:])
        self._stdout.extend(out)
        vm.cycles += len(out) * BUILTIN_BYTE_CYCLES
        return len(out)

    def do_puts(self, vm: "VM", args: Tuple[int, ...]) -> int:
        text = vm.read_cstring(args[0])
        self._stdout.extend(text + b"\n")
        vm.cycles += (len(text) + 1) * BUILTIN_BYTE_CYCLES
        return len(text) + 1

    def do_putchar(self, vm: "VM", args: Tuple[int, ...]) -> int:
        self._stdout.append(args[0] & 0xFF)
        return args[0] & 0xFF

    def _format(self, vm: "VM", fmt: bytes, args: Tuple[int, ...]) -> bytes:
        out = bytearray()
        arg_index = 0
        i = 0

        def next_arg() -> int:
            nonlocal arg_index
            if arg_index >= len(args):
                raise VMTrap("printf: missing argument", "bad-call")
            value = args[arg_index]
            arg_index += 1
            return value

        while i < len(fmt):
            ch = fmt[i]
            if ch != ord("%"):
                out.append(ch)
                i += 1
                continue
            i += 1
            # Skip 'l' length modifiers (all varargs are 64-bit here).
            while i < len(fmt) and fmt[i] in b"l":
                i += 1
            if i >= len(fmt):
                out.append(ord("%"))
                break
            spec = fmt[i]
            i += 1
            if spec == ord("%"):
                out.append(ord("%"))
            elif spec == ord("d"):
                out.extend(str(_signed64(next_arg())).encode())
            elif spec == ord("u"):
                out.extend(str(next_arg() & ((1 << 64) - 1)).encode())
            elif spec == ord("x"):
                out.extend(format(next_arg() & ((1 << 64) - 1), "x").encode())
            elif spec == ord("c"):
                out.append(next_arg() & 0xFF)
            elif spec == ord("s"):
                out.extend(vm.read_cstring(next_arg()))
            elif spec == ord("p"):
                out.extend(format(next_arg(), "#x").encode())
            else:
                raise VMTrap(f"printf: unsupported %{chr(spec)}", "bad-call")
        return bytes(out)

    # -- memory -----------------------------------------------------------------

    def do_malloc(self, vm: "VM", args: Tuple[int, ...]) -> int:
        return vm.alloc(_signed64(args[0]))

    def do_free(self, vm: "VM", args: Tuple[int, ...]) -> int:
        return 0  # bump allocator: free is a no-op

    def do_memcpy(self, vm: "VM", args: Tuple[int, ...]) -> int:
        dst, src, size = args[0], args[1], _signed64(args[2])
        if size < 0:
            raise VMTrap("memcpy with negative size", "bad-memory")
        data = vm.read_bytes(src, size)
        vm.write_bytes(dst, data)
        vm.cycles += size * BUILTIN_BYTE_CYCLES
        return dst

    def do_memset(self, vm: "VM", args: Tuple[int, ...]) -> int:
        dst, byte, size = args[0], args[1] & 0xFF, _signed64(args[2])
        if size < 0:
            raise VMTrap("memset with negative size", "bad-memory")
        vm.write_bytes(dst, bytes([byte]) * size)
        vm.cycles += size * BUILTIN_BYTE_CYCLES
        return dst

    # -- strings ------------------------------------------------------------------

    def do_strlen(self, vm: "VM", args: Tuple[int, ...]) -> int:
        text = vm.read_cstring(args[0])
        vm.cycles += len(text) * BUILTIN_BYTE_CYCLES
        return len(text)

    def do_strcmp(self, vm: "VM", args: Tuple[int, ...]) -> int:
        a = vm.read_cstring(args[0])
        b = vm.read_cstring(args[1])
        vm.cycles += min(len(a), len(b)) * BUILTIN_BYTE_CYCLES
        if a == b:
            return 0
        return 1 if a > b else (1 << 64) - 1  # -1 in unsigned rep

    # -- process ----------------------------------------------------------------------

    def do_abort(self, vm: "VM", args: Tuple[int, ...]) -> int:
        raise VMTrap("abort() called", "abort")

    def do_exit(self, vm: "VM", args: Tuple[int, ...]) -> int:
        raise ExitProgram(_signed64(args[0]) if args else 0)
