"""The virtual machine: executes linked executables with cycle accounting.

This stands in for the paper's hardware: every figure that reports
"execution duration" reports :attr:`ExecutionResult.cycles` from this
interpreter.  Determinism is total — same executable, same input, same
cycle count.

Instrumentation hooks:

* ``probe`` instructions dispatch to a :class:`ProbeRuntime` (compiler-
  based instrumentation: OdinCov, SanitizerCoverage analogue, CmpLog...);
  a probe event reaches only the runtimes whose ``kinds`` include its kind
* ``bb`` markers optionally invoke a ``block_hook`` and charge
  ``block_tax`` extra cycles — that is how the DynamoRIO/DynInst-style
  *binary* instrumentation baselines are modelled: they pay per-block
  dispatch/trampoline overhead on top of the native code.
* a ``variant_selector`` routes every call through a
  :class:`~repro.linker.variants.VariantExecutable`'s per-function
  dispatch table (run-time partitioned sanitization): the selector picks
  which co-resident sanitization family of the callee executes, charging
  ``dispatch_tax`` extra cycles per dispatched call — the PartiSan-style
  indirection cost.

Execution is closure-threaded (:mod:`repro.vm.decode`): each function is
decoded at its first call into segments of specialised closures, cached
for the life of the VM.  ``steps`` and ``cycles`` are kept in locals of
:meth:`VM._call` and written back to the VM before every call-out (call,
builtin, probe callback, block hook) and on every exit, traps included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.errors import VMError, VMTrap
from repro.linker.linker import Executable
from repro.vm.decode import (
    BRANCH, BUILTIN, CALL, GOTO, HOOK, ICALL, PROBE, RET, SWITCH,
    DecodedFunction, Decoder, Fault,
)
from repro.vm.runtime import BuiltinRuntime, ExitProgram

MEM_SIZE = 1 << 22  # 4 MiB: data + heap + stack
DEFAULT_MAX_STEPS = 50_000_000


class ProbeRuntime:
    """Receives probe events; instrumentation schemes subclass this.

    ``kinds`` names the probe kinds the runtime consumes; the VM calls
    :meth:`on_probe` only for those.  None (the default) means all kinds.
    """

    kinds: Optional[FrozenSet[str]] = None

    def on_probe(self, kind: str, probe_id: int, args: Tuple[int, ...], vm: "VM") -> None:
        """Handle one probe firing.  May raise :class:`VMTrap` to abort."""


class CompositeProbeRuntime(ProbeRuntime):
    """Fan out probe events to several runtimes (e.g. coverage + CmpLog).

    The VM flattens composites at the start of each run and calls the
    leaf runtimes directly; :meth:`on_probe` serves other callers.
    """

    def __init__(self, *runtimes: ProbeRuntime):
        self.runtimes = list(runtimes)

    def on_probe(self, kind: str, probe_id: int, args: Tuple[int, ...], vm: "VM") -> None:
        for runtime in self.runtimes:
            if runtime.kinds is None or kind in runtime.kinds:
                runtime.on_probe(kind, probe_id, args, vm)


def _leaf_runtimes(runtime: Optional[ProbeRuntime]) -> List[ProbeRuntime]:
    """The runtimes *runtime* fans out to, depth first, in call order."""
    if runtime is None:
        return []
    if isinstance(runtime, CompositeProbeRuntime):
        return [leaf for child in runtime.runtimes for leaf in _leaf_runtimes(child)]
    return [runtime]


@dataclass
class ExecutionResult:
    exit_code: int = 0
    stdout: bytes = b""
    cycles: int = 0
    steps: int = 0
    trap: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.trap is None


class VM:
    """Interpreter over a linked executable."""

    def __init__(
        self,
        executable: Executable,
        *,
        probe_runtime: Optional[ProbeRuntime] = None,
        block_hook: Optional[Callable[[int, int], None]] = None,
        block_tax: int = 0,
        variant_selector=None,
        dispatch_tax: int = 0,
        max_steps: int = DEFAULT_MAX_STEPS,
        mem_size: int = MEM_SIZE,
    ):
        self.exe = executable
        self.probe_runtime = probe_runtime
        self.block_hook = block_hook
        self.block_tax = block_tax
        # Run-time partitioned sanitization: every call is remapped
        # through the executable's per-function dispatch table to the
        # family the selector picks (see repro.variants.dispatch).
        if variant_selector is not None and not hasattr(executable, "dispatch"):
            raise VMError(
                "variant_selector needs a VariantExecutable with a dispatch table"
            )
        self.variant_selector = variant_selector
        self.dispatch_tax = dispatch_tax
        self.max_steps = max_steps
        self.mem_size = mem_size
        if executable.data_end + 0x10000 > mem_size:
            raise VMError("memory too small for data image")
        self.memory = bytearray(mem_size)
        self.heap_base = (executable.data_end + 0xFFF) & ~0xFFF
        self.builtins = BuiltinRuntime()
        self._decoder = Decoder(executable, self.memory, mem_size)
        # Decoded functions by index; they depend on whether ``bb``
        # markers call a block hook, and on the block tax they charge.
        self._code: Dict[int, DecodedFunction] = {}
        self._code_key: Optional[Tuple[bool, int]] = None
        # Probe kind -> leaf runtimes consuming it, rebuilt each run.
        self._probe_leaves: List[ProbeRuntime] = []
        self._routes: Dict[str, Tuple[ProbeRuntime, ...]] = {}
        self.reset()

    # -- state management ------------------------------------------------------

    def reset(self) -> None:
        """Restore initial memory/heap state for a fresh run."""
        base = self.exe.data_base
        image = self.exe.data_image
        self.memory[base : base + len(image)] = image
        self.heap_ptr = self.heap_base
        self.stack_ptr = self.mem_size
        self.cycles = 0
        self.steps = 0
        self.builtins.reset()

    # -- memory helpers ------------------------------------------------------------

    def alloc(self, size: int) -> int:
        """Bump-allocate heap memory (used by malloc and input injection)."""
        size = max(1, (size + 7) & ~7)
        addr = self.heap_ptr
        if addr + size > self.stack_ptr - 0x10000:
            raise VMTrap("out of heap memory", "oom")
        self.heap_ptr += size
        return addr

    def write_bytes(self, addr: int, data: bytes) -> None:
        """Write *data* (input injection, memcpy/memset); const data is
        not protected here, only stores executed by the program are."""
        self._check_range(addr, len(data), write=True)
        self.memory[addr : addr + len(data)] = data

    def read_bytes(self, addr: int, size: int) -> bytes:
        self._check_range(addr, size, write=False)
        return bytes(self.memory[addr : addr + size])

    def read_cstring(self, addr: int, limit: int = 1 << 16) -> bytes:
        end = self.memory.find(b"\x00", addr, addr + limit)
        if end < 0:
            raise VMTrap(f"unterminated string at {addr:#x}", "bad-memory")
        return bytes(self.memory[addr:end])

    def _check_range(self, addr: int, size: int, write: bool) -> None:
        if addr < self.exe.data_base or addr + size > self.mem_size:
            kind = "write" if write else "read"
            raise VMTrap(f"invalid {kind} at {addr:#x} (+{size})", "bad-memory")

    # -- execution -------------------------------------------------------------------

    def run(
        self,
        entry: str = "main",
        args: Tuple[int, ...] = (),
        reset: bool = True,
    ) -> ExecutionResult:
        """Run *entry* with integer/pointer arguments; returns the result.

        Pass ``reset=False`` when state was prepared beforehand (e.g. an
        input buffer injected with :meth:`alloc`/:meth:`write_bytes`) —
        a reset would reclaim that heap allocation.
        """
        if reset:
            self.reset()
        if self.variant_selector is not None:
            # Per-execution selection modes re-draw their family here.
            self.variant_selector.begin_execution()
        key = (self.block_hook is not None, self.block_tax)
        if key != self._code_key:
            self._code = {}
            self._code_key = key
        self._probe_leaves = _leaf_runtimes(self.probe_runtime)
        self._routes = {}
        index = self.exe.function_index(entry)
        try:
            value = self._call(index, tuple(args))
            result = ExecutionResult(exit_code=value & 0xFFFFFFFF)
        except ExitProgram as exit_:
            result = ExecutionResult(exit_code=exit_.code & 0xFFFFFFFF)
        except VMTrap as trap:
            result = ExecutionResult(exit_code=-1, trap=trap.kind)
        result.stdout = self.builtins.stdout_bytes()
        result.cycles = self.cycles
        result.steps = self.steps
        return result

    def _route(self, kind: str) -> Tuple[ProbeRuntime, ...]:
        """The leaf runtimes that consume probe events of *kind*."""
        runtimes = tuple(
            rt for rt in self._probe_leaves if rt.kinds is None or kind in rt.kinds
        )
        self._routes[kind] = runtimes
        return runtimes

    def _call(self, func_index: int, args: Tuple[int, ...]) -> int:
        """Execute one function to completion; recursion implements calls."""
        selector = self.variant_selector
        if selector is not None:
            # Route through the dispatch table: direct calls, indirect
            # calls and the entry point all funnel through here, so one
            # remap covers every control transfer uniformly.
            exe = self.exe
            family = selector.select(
                exe.functions[func_index].name, exe.family_of[func_index]
            )
            func_index = exe.dispatch(func_index, family)
            self.cycles += self.dispatch_tax
        code = self._code.get(func_index)
        if code is None:
            code = self._code[func_index] = self._decoder.decode(
                self.exe.functions[func_index], *self._code_key
            )

        num_regs = code.num_regs
        regs: List[int] = [0] * max(num_regs, len(args))
        used = min(num_regs, len(args))
        regs[:used] = args[:used]
        frame_base = self.stack_ptr - code.frame_size
        if frame_base < self.heap_ptr + 0x1000:
            raise VMTrap("stack overflow", "stack-overflow")
        regs.append(frame_base)  # regs[-1], read by ``leaf``
        saved_sp = self.stack_ptr
        self.stack_ptr = frame_base

        segments = code.segments
        routes = self._routes
        max_steps = self.max_steps
        steps = self.steps
        cycles = self.cycles
        # True while self.steps/self.cycles are current: across a
        # call-out, whose exceptions must not overwrite what it charged.
        flushed = False
        pc = 0
        try:
            while True:
                ops, n, cost, term, a, b, x, nxt = segments[pc]
                steps += n
                if steps > max_steps:
                    flushed = True
                    self._exhaust(code, pc, regs, steps - n, cycles)
                cycles += cost
                for op in ops:
                    op(regs)
                if term == BRANCH:
                    pc = b if regs[a] else x
                elif term == GOTO:
                    pc = a
                elif term == PROBE:
                    runtimes = routes.get(a)
                    if runtimes is None:
                        runtimes = self._route(a)
                    if runtimes:
                        probe_args = x(regs) if x is not None else ()
                        self.steps = steps
                        self.cycles = cycles
                        flushed = True
                        for runtime in runtimes:
                            runtime.on_probe(a, b, probe_args, self)
                        steps = self.steps
                        cycles = self.cycles
                        flushed = False
                    pc = nxt
                elif term == RET:
                    self.steps = steps
                    self.cycles = cycles
                    flushed = True
                    return regs[a] if a >= 0 else 0
                elif term == CALL or term == BUILTIN or term == ICALL:
                    if term == ICALL:
                        a = self.exe.index_from_address(regs[a])
                    call_args = x(regs) if x is not None else ()
                    self.steps = steps
                    self.cycles = cycles
                    flushed = True
                    if term == BUILTIN:
                        value = self.builtins.call(self, a, call_args)
                    else:
                        value = self._call(a, call_args)
                    steps = self.steps
                    cycles = self.cycles
                    flushed = False
                    if b >= 0:
                        regs[b] = value
                    pc = nxt
                elif term == SWITCH:
                    pc = a(regs)
                elif term == HOOK:
                    self.steps = steps
                    self.cycles = cycles
                    flushed = True
                    self.block_hook(func_index, a)
                    steps = self.steps
                    cycles = self.cycles + self.block_tax
                    flushed = False
                    pc = nxt
                else:  # RAISE
                    raise a()
        except BaseException as exc:
            if not flushed:
                if type(exc) is Fault:
                    # The segment was charged whole: take back the
                    # instructions after the one that trapped.
                    done = exc.pc - pc + 1
                    steps -= n - done
                    cycles -= cost - sum(c for c, _op in code.bodies[pc][:done])
                self.steps = steps
                self.cycles = cycles
            raise
        finally:
            self.stack_ptr = saved_sp

    def _exhaust(self, code: DecodedFunction, pc: int, regs: List[int],
                 steps: int, cycles: int) -> None:
        """Run the segment at *pc* one instruction at a time up to the
        step limit, then raise :class:`VMError`; the counters are written
        back either way."""
        try:
            for cost, op in code.bodies[pc][: self.max_steps - steps]:
                steps += 1
                cycles += cost
                if op is not None:
                    op(regs)
            steps += 1
            raise VMError(f"execution exceeded {self.max_steps} steps in @{code.name}")
        finally:
            self.steps = steps
            self.cycles = cycles


def run_program(
    executable: Executable,
    entry: str = "main",
    args: Tuple[int, ...] = (),
    **vm_kwargs,
) -> ExecutionResult:
    """One-shot convenience runner."""
    return VM(executable, **vm_kwargs).run(entry, args)
