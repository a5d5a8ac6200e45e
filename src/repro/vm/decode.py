"""Pre-decoding: machine functions -> closure-threaded segments.

The VM decodes each linked function once, at its first call, and keeps
the result for as long as the VM lives.  Decoding turns every
straight-line instruction into a closure ``op(regs)`` specialised by
opcode, width and operands: register numbers, immediates, masks, sign
bits, ``lea`` results and memory bounds are baked in, so executing it is
one Python call with no string dispatch and no semantics-module call.

Instructions are grouped into *segments*: a run of straight-line
closures (the *body*) followed by at most one *terminator* -- a control
transfer, a call-out (call, builtin, probe, block hook), a return, or an
instruction that always raises.  A segment starts at every *leader*
(entry, branch target, instruction after a call-out) and is stored at its
leader's index.  The VM charges a whole segment's steps and cycles at
once, runs the body, then acts on the terminator; a ``bb`` marker with no
block hook has no closure at all and only contributes its step and
cycles (``block_tax`` included).

A body instruction that traps raises :class:`Fault`, which carries its
instruction index, so the VM can take back the charge for the rest of
the segment: counters at a trap are exactly those of executing one
instruction at a time.

Register semantics follow :mod:`repro.ir.semantics` (values in their
unsigned representation; ``and``/``or``/``xor``/``lshr``/``zext`` do not
mask).  The VM property tests compare every opcode, form and width with
that module.

Nothing here keeps a reference to the VM: closures capture the memory
image and plain values only, so a dropped VM is freed by reference
counting, and nothing is stored on the :class:`MachineInst` objects the
code caches pickle.
"""

from __future__ import annotations

import struct
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import VMError, VMTrap

# Segment terminators, in the order the VM's dispatch tests them.
BRANCH, GOTO, PROBE, RET, CALL, BUILTIN, ICALL, SWITCH, HOOK, RAISE = range(10)

# A segment: (body closures, steps, cycles, terminator, a, b, x, next pc).
# Terminator operands:
#   BRANCH  a=condition reg, b=taken pc, x=not-taken pc
#   GOTO    a=target pc
#   PROBE   a=kind, b=probe id, x=argument fetcher
#   RET     a=value reg, or -1
#   CALL    a=function index, b=dst reg or -1, x=argument fetcher
#   BUILTIN a=builtin name, b=dst, x=argument fetcher
#   ICALL   a=target-address reg, b=dst, x=argument fetcher
#   SWITCH  a=closure(regs) -> pc
#   HOOK    a=block id
#   RAISE   a=exception factory
# An argument fetcher is ``fetch(regs) -> tuple`` or None for no arguments.
Segment = Tuple[tuple, int, int, int, object, object, object, int]

# Integer widths by name; any other width raises KeyError when decoded.
_WIDTHS = {1: 1, 8: 8, 16: 16, 32: 32, 64: 64}
_M64 = (1 << 64) - 1
_SIGN64 = 1 << 63
_UNPACK = {2: struct.Struct("<H").unpack_from, 4: struct.Struct("<I").unpack_from,
           8: struct.Struct("<Q").unpack_from}
_PACK = {2: struct.Struct("<H").pack_into, 4: struct.Struct("<I").pack_into,
         8: struct.Struct("<Q").pack_into}


class Fault(VMTrap):
    """A trap raised by the body instruction at index ``pc``."""

    def __init__(self, message: str, kind: str, pc: int):
        super().__init__(message, kind)
        self.pc = pc


class DecodedFunction:
    """One function's segments, indexed by leader pc.

    ``segments[len(insts)]`` is the fell-off-the-end segment; ``bodies``
    maps each leader to its body as ``(cycles, closure or None)`` per
    instruction, for the step-limit and trap paths.
    """

    __slots__ = ("name", "num_regs", "frame_size", "segments", "bodies")

    def __init__(self, name: str, num_regs: int, frame_size: int,
                 segments: List[Optional[Segment]],
                 bodies: Dict[int, Tuple[Tuple[int, Optional[Callable]], ...]]):
        self.name = name
        self.num_regs = num_regs
        self.frame_size = frame_size
        self.segments = segments
        self.bodies = bodies


def _signbit(bits: int) -> int:
    # ((v & m) ^ s) - s reinterprets v as signed; i1 stays 0/1, as in
    # IntType.to_signed.
    return 1 << (bits - 1) if bits > 1 else 0


def _target(pc: int, n: int) -> int:
    """A branch target; out of range is *n*, the fell-off-the-end segment."""
    return pc if 0 <= pc < n else n


def _raising(exc: BaseException) -> Callable[[], BaseException]:
    """A factory for a fresh exception like *exc* at each execution."""
    cls, args = type(exc), exc.args
    if isinstance(exc, VMTrap):
        kind = exc.kind
        return lambda: cls(*args, kind)
    return lambda: cls(*args)


def _fetcher(arg_regs: Tuple[int, ...]) -> Optional[Callable[[list], tuple]]:
    if not arg_regs:
        return None
    if len(arg_regs) == 1:
        (r,) = arg_regs
        return lambda regs: (regs[r],)
    return itemgetter(*arg_regs)


# -- straight-line closures -------------------------------------------------------


def _bin_reg(opcode: str, bits: int, d: int, a: int, b: int, pc: int) -> Callable:
    m = (1 << bits) - 1
    s = _signbit(bits)
    if opcode == "add":
        def op(regs): regs[d] = (regs[a] + regs[b]) & m
    elif opcode == "sub":
        def op(regs): regs[d] = (regs[a] - regs[b]) & m
    elif opcode == "mul":
        def op(regs): regs[d] = (regs[a] * regs[b]) & m
    elif opcode == "and":
        def op(regs): regs[d] = regs[a] & regs[b]
    elif opcode == "or":
        def op(regs): regs[d] = regs[a] | regs[b]
    elif opcode == "xor":
        def op(regs): regs[d] = regs[a] ^ regs[b]
    elif opcode == "shl":
        def op(regs):
            y = regs[b]
            regs[d] = 0 if y >= bits else (regs[a] << y) & m
    elif opcode == "lshr":
        def op(regs):
            y = regs[b]
            regs[d] = 0 if y >= bits else regs[a] >> y
    elif opcode == "ashr":
        def op(regs):
            x = ((regs[a] & m) ^ s) - s
            y = regs[b]
            regs[d] = (m if x < 0 else 0) if y >= bits else (x >> y) & m
    elif opcode == "udiv":
        def op(regs):
            try:
                regs[d] = (regs[a] // regs[b]) & m
            except ZeroDivisionError:
                raise Fault("integer division by zero", "div-by-zero", pc) from None
    elif opcode == "urem":
        def op(regs):
            try:
                regs[d] = (regs[a] % regs[b]) & m
            except ZeroDivisionError:
                raise Fault("integer division by zero", "div-by-zero", pc) from None
    elif opcode in ("sdiv", "srem"):
        rem = opcode == "srem"

        def op(regs):
            x = ((regs[a] & m) ^ s) - s
            y = ((regs[b] & m) ^ s) - s
            try:
                if rem:
                    r = abs(x) % abs(y)
                    regs[d] = (-r if x < 0 else r) & m
                else:
                    q = abs(x) // abs(y)
                    regs[d] = (-q if (x < 0) != (y < 0) else q) & m
            except ZeroDivisionError:
                raise Fault("integer division by zero", "div-by-zero", pc) from None
    else:
        raise ValueError(f"unknown binary opcode {opcode!r}")
    return op


def _bin_imm(opcode: str, bits: int, d: int, a: int, k: int) -> Callable:
    """``regs[d] = regs[a] <opcode> k``."""
    m = (1 << bits) - 1
    s = _signbit(bits)
    if opcode == "add":
        def op(regs): regs[d] = (regs[a] + k) & m
    elif opcode == "sub":
        def op(regs): regs[d] = (regs[a] - k) & m
    elif opcode == "mul":
        def op(regs): regs[d] = (regs[a] * k) & m
    elif opcode == "and":
        def op(regs): regs[d] = regs[a] & k
    elif opcode == "or":
        def op(regs): regs[d] = regs[a] | k
    elif opcode == "xor":
        def op(regs): regs[d] = regs[a] ^ k
    elif opcode in ("shl", "lshr") and k >= bits:
        def op(regs): regs[d] = 0
    elif opcode == "shl":
        def op(regs): regs[d] = (regs[a] << k) & m
    elif opcode == "lshr":
        def op(regs): regs[d] = regs[a] >> k
    elif opcode == "ashr" and k >= bits:
        def op(regs): regs[d] = m if ((regs[a] & m) ^ s) - s < 0 else 0
    elif opcode == "ashr":
        def op(regs): regs[d] = ((((regs[a] & m) ^ s) - s) >> k) & m
    elif opcode in ("udiv", "urem"):
        if k == 0:
            raise VMTrap("integer division by zero", "div-by-zero")
        if opcode == "udiv":
            def op(regs): regs[d] = (regs[a] // k) & m
        else:
            def op(regs): regs[d] = (regs[a] % k) & m
    elif opcode in ("sdiv", "srem"):
        y = ((k & m) ^ s) - s
        if y == 0:
            raise VMTrap("integer division by zero", "div-by-zero")
        ay, neg = abs(y), y < 0
        if opcode == "sdiv":
            def op(regs):
                x = ((regs[a] & m) ^ s) - s
                q = abs(x) // ay
                regs[d] = (-q if (x < 0) != neg else q) & m
        else:
            def op(regs):
                x = ((regs[a] & m) ^ s) - s
                r = abs(x) % ay
                regs[d] = (-r if x < 0 else r) & m
    else:
        raise ValueError(f"unknown binary opcode {opcode!r}")
    return op


def _cmp(pred: str, bits: int, d: int, a: int, b: Optional[int], k: int) -> Callable:
    """``regs[d] = regs[a] <pred> (regs[b] if b is not None else k)``."""
    m = (1 << bits) - 1
    s = _signbit(bits)
    if pred in ("slt", "sle", "sgt", "sge"):
        if b is None:
            k = ((k & m) ^ s) - s
            if pred == "slt":
                def op(regs): regs[d] = 1 if ((regs[a] & m) ^ s) - s < k else 0
            elif pred == "sle":
                def op(regs): regs[d] = 1 if ((regs[a] & m) ^ s) - s <= k else 0
            elif pred == "sgt":
                def op(regs): regs[d] = 1 if ((regs[a] & m) ^ s) - s > k else 0
            else:
                def op(regs): regs[d] = 1 if ((regs[a] & m) ^ s) - s >= k else 0
        elif pred == "slt":
            def op(regs): regs[d] = 1 if ((regs[a] & m) ^ s) - s < ((regs[b] & m) ^ s) - s else 0
        elif pred == "sle":
            def op(regs): regs[d] = 1 if ((regs[a] & m) ^ s) - s <= ((regs[b] & m) ^ s) - s else 0
        elif pred == "sgt":
            def op(regs): regs[d] = 1 if ((regs[a] & m) ^ s) - s > ((regs[b] & m) ^ s) - s else 0
        else:
            def op(regs): regs[d] = 1 if ((regs[a] & m) ^ s) - s >= ((regs[b] & m) ^ s) - s else 0
    elif b is None:
        if pred == "eq":
            def op(regs): regs[d] = 1 if regs[a] == k else 0
        elif pred == "ne":
            def op(regs): regs[d] = 1 if regs[a] != k else 0
        elif pred == "ult":
            def op(regs): regs[d] = 1 if regs[a] < k else 0
        elif pred == "ule":
            def op(regs): regs[d] = 1 if regs[a] <= k else 0
        elif pred == "ugt":
            def op(regs): regs[d] = 1 if regs[a] > k else 0
        elif pred == "uge":
            def op(regs): regs[d] = 1 if regs[a] >= k else 0
        else:
            raise KeyError(pred)
    elif pred == "eq":
        def op(regs): regs[d] = 1 if regs[a] == regs[b] else 0
    elif pred == "ne":
        def op(regs): regs[d] = 1 if regs[a] != regs[b] else 0
    elif pred == "ult":
        def op(regs): regs[d] = 1 if regs[a] < regs[b] else 0
    elif pred == "ule":
        def op(regs): regs[d] = 1 if regs[a] <= regs[b] else 0
    elif pred == "ugt":
        def op(regs): regs[d] = 1 if regs[a] > regs[b] else 0
    elif pred == "uge":
        def op(regs): regs[d] = 1 if regs[a] >= regs[b] else 0
    else:
        raise KeyError(pred)
    return op


def _cast(opcode: str, from_bits: int, to_bits: int, d: int, a: int) -> Callable:
    tm = (1 << to_bits) - 1
    if opcode == "zext":
        return _copy(d, a)
    if opcode == "sext":
        fm = (1 << from_bits) - 1
        s = _signbit(from_bits)

        def op(regs): regs[d] = (((regs[a] & fm) ^ s) - s) & tm
    elif opcode == "trunc":
        def op(regs): regs[d] = regs[a] & tm
    else:
        raise ValueError(f"unknown cast opcode {opcode!r}")
    return op


def _copy(d: int, a: int) -> Callable:
    def op(regs): regs[d] = regs[a]
    return op


def _const(d: int, k: int) -> Callable:
    def op(regs): regs[d] = k
    return op


class Decoder:
    """Per-VM decoding context: the memory image and its bounds.

    It holds no reference to the VM, and neither do the closures it
    makes.
    """

    def __init__(self, exe, memory: bytearray, mem_size: int):
        self.exe = exe
        self.memory = memory
        self.mem_size = mem_size
        self.data_base = base = exe.data_base
        # One byte per address in [data_base, const_end): 1 inside a
        # const range.  A store traps iff it *starts* in one.
        self.const_end = max([hi for _lo, hi in exe.const_ranges] + [base])
        const_map = bytearray(self.const_end - base)
        for lo, hi in exe.const_ranges:
            lo = max(lo, base)
            if hi > lo:
                const_map[lo - base : hi - base] = b"\x01" * (hi - lo)
        self.const_map = bytes(const_map)

    # -- memory -------------------------------------------------------------------

    def _load(self, d: int, a: int, size: int, pc: int) -> Callable:
        mem, lo, hi = self.memory, self.data_base, self.mem_size - size

        def fault(x):
            return Fault(f"invalid read at {x:#x} (+{size})", "bad-memory", pc)

        if size == 1:
            def op(regs):
                x = regs[a]
                if x < lo or x > hi:
                    raise fault(x)
                regs[d] = mem[x]
        elif size in _UNPACK:
            unpack = _UNPACK[size]

            def op(regs):
                x = regs[a]
                if x < lo or x > hi:
                    raise fault(x)
                regs[d] = unpack(mem, x)[0]
        else:
            def op(regs):
                x = regs[a]
                if x < lo or x > hi:
                    raise fault(x)
                regs[d] = int.from_bytes(mem[x : x + size], "little")
        return op

    def _store(self, a: int, v: int, size: int, pc: int) -> Callable:
        mem, lo, hi = self.memory, self.data_base, self.mem_size - size
        const_map, const_end = self.const_map, self.const_end
        m = (1 << (8 * size)) - 1
        pack = _PACK.get(size)

        def fault(x):
            return Fault(f"invalid write at {x:#x} (+{size})", "bad-memory", pc)

        def const_fault(x):
            return Fault(f"write to const data at {x:#x}", "bad-memory", pc)

        if size == 1:
            def op(regs):
                x = regs[a]
                if x < lo or x > hi:
                    raise fault(x)
                if x < const_end and const_map[x - lo]:
                    raise const_fault(x)
                mem[x] = regs[v] & m
        elif pack is not None:
            def op(regs):
                x = regs[a]
                if x < lo or x > hi:
                    raise fault(x)
                if x < const_end and const_map[x - lo]:
                    raise const_fault(x)
                pack(mem, x, regs[v] & m)
        else:
            def op(regs):
                x = regs[a]
                if x < lo or x > hi:
                    raise fault(x)
                if x < const_end and const_map[x - lo]:
                    raise const_fault(x)
                mem[x : x + size] = (regs[v] & m).to_bytes(size, "little")
        return op

    # -- instructions -------------------------------------------------------------

    def _inst(self, inst, pc: int, n: int, resolution, name: str, hooked: bool):
        """Decode instruction *pc* of an *n*-instruction function.

        Returns ``(None, closure or None)`` for a straight-line
        instruction, or ``(terminator, a, b, x, targets)``.  An
        instruction that raises whenever it executes raises here instead;
        :meth:`decode` makes it a RAISE terminator.
        """
        parts = inst.op.split(".")
        head = parts[0]
        d, srcs, imm = inst.dst, inst.srcs, inst.imm
        if head == "bb":
            if hooked:
                return (HOOK, inst.imm, None, None, ())
            return (None, None)
        if head == "movi":
            return (None, _const(d, imm))
        if head in ("mov", "freeze"):
            return (None, _copy(d, srcs[0]))
        if head == "bin":
            return (None, _bin_reg(parts[1], _WIDTHS[int(parts[2])], d, srcs[0], srcs[1], pc))
        if head == "bini":
            return (None, _bin_imm(parts[1], _WIDTHS[int(parts[2])], d, srcs[0], imm))
        if head == "cmp":
            return (None, _cmp(parts[1], _WIDTHS[int(parts[2])], d, srcs[0], srcs[1], 0))
        if head == "cmpi":
            return (None, _cmp(parts[1], _WIDTHS[int(parts[2])], d, srcs[0], None, imm))
        if head == "cast":
            return (None, _cast(parts[1], _WIDTHS[int(parts[2])], _WIDTHS[int(parts[3])],
                                d, srcs[0]))
        if head == "sel":
            c, a, b = srcs

            def op(regs): regs[d] = regs[a] if regs[c] else regs[b]
            return (None, op)
        if head == "ld":
            return (None, self._load(d, srcs[0], int(parts[1]) // 8, pc))
        if head == "st":
            return (None, self._store(srcs[0], srcs[1], int(parts[1]) // 8, pc))
        if head == "addsc":
            base, index = srcs

            def op(regs):
                i = regs[index]
                if i >= _SIGN64:  # negative index in unsigned rep
                    i -= 1 << 64
                regs[d] = (regs[base] + i * imm) & _M64
            return (None, op)
        if head == "lea":
            kind, value = resolution[inst.sym]
            if kind == "data":
                return (None, _const(d, value))
            if kind == "func":
                return (None, _const(d, self.exe.function_address(value)))
            raise VMTrap(f"cannot take address of builtin {value}", "bad-call")
        if head == "leaf":
            def op(regs): regs[d] = regs[-1] + imm  # regs[-1] is the frame base
            return (None, op)
        if head == "jmp":
            t = _target(inst.targets[0], n)
            return (GOTO, t, None, None, (t,))
        if head == "brt":
            t, f = _target(inst.targets[0], n), _target(inst.targets[1], n)
            return (BRANCH, srcs[0], t, f, (t, f))
        if head == "switch":
            default = _target(inst.targets[0], n)
            table = [(value, _target(t, n)) for value, t in inst.table]
            return self._switch(srcs[0], default, table)
        if head == "call":
            kind, value = resolution[inst.sym]
            if kind == "func":
                return (CALL, value, d, _fetcher(inst.args), ())
            if kind == "builtin":
                return (BUILTIN, value, d, _fetcher(inst.args), ())
            raise VMTrap(f"call to data symbol @{inst.sym}", "bad-call")
        if head == "icall":
            return (ICALL, srcs[0], d, _fetcher(inst.args), ())
        if head == "probe":
            return (PROBE, inst.probe_kind, inst.probe_id, _fetcher(inst.args), ())
        if head == "ret":
            return (RET, srcs[0] if srcs else -1, None, None, ())
        if head == "trap":
            raise VMTrap(f"unreachable executed in @{name}", "unreachable")
        raise VMError(f"unknown machine op {inst.op!r}")

    @staticmethod
    def _switch(src: int, default: int, table):
        # First table entry matching the value as signed or as unsigned.
        first: Dict[int, Tuple[int, int]] = {}
        for index, (case_value, target) in enumerate(table):
            first.setdefault(case_value, (index, target))

        def op(regs):
            value = regs[src]
            hit = first.get(value)
            if value >= _SIGN64:
                other = first.get(value - (1 << 64))
                if other is not None and (hit is None or other[0] < hit[0]):
                    hit = other
            return default if hit is None else hit[1]

        targets = (default,) + tuple(target for _value, target in table)
        return (SWITCH, op, None, None, targets)

    # -- functions ----------------------------------------------------------------

    def decode(self, lf, hooked: bool, block_tax: int) -> DecodedFunction:
        """Decode linked function *lf*.

        *hooked* makes every ``bb`` marker a HOOK terminator; otherwise it
        only costs its cycles plus *block_tax*.  Decoding never raises: an
        instruction that cannot execute decodes to a RAISE terminator
        that raises the same error when it is reached.
        """
        mf = lf.mf
        insts = mf.insts
        n = len(insts)
        entries = []
        for pc, inst in enumerate(insts):
            try:
                entry = self._inst(inst, pc, n, lf.resolution, mf.name, hooked)
            except Exception as exc:
                entry = (RAISE, _raising(exc), None, None, ())
            entries.append(entry)

        leaders = {0}
        for pc, entry in enumerate(entries):
            if entry[0] in (PROBE, CALL, BUILTIN, ICALL, HOOK):
                leaders.add(pc + 1)
            elif entry[0] is not None:
                leaders.update(entry[4])

        segments: List[Optional[Segment]] = [None] * (n + 1)
        bodies: Dict[int, tuple] = {}
        for start in sorted(leaders):
            if start >= n:
                continue
            body = []
            pc = start
            while True:
                entry = entries[pc]
                if entry[0] is not None:  # the terminator ends the segment
                    term, a, b, x, _targets = entry
                    steps = len(body) + 1
                    cycles = insts[pc].cost
                    break
                op = entry[1]  # None: a bb marker without a hook
                body.append((insts[pc].cost + (block_tax if op is None else 0), op))
                pc += 1
                if pc == n or pc in leaders:  # falls through into the next one
                    term, a, b, x = GOTO, pc, None, None
                    steps, cycles = len(body), 0
                    break
            cycles += sum(c for c, _op in body)
            ops = tuple(op for _c, op in body if op is not None)
            segments[start] = (ops, steps, cycles, term, a, b, x, pc + 1)
            bodies[start] = tuple(body)
        segments[n] = ((), 0, 0, RAISE,
                       _raising(VMTrap(f"fell off the end of @{mf.name}", "bad-code")),
                       None, None, n)
        return DecodedFunction(mf.name, mf.num_regs, mf.frame_size, segments, bodies)
