"""Integer semantics: the reference for constant folding and the VM.

The constant folders call these functions.  The virtual machine runs
specialised restatements of them (:mod:`repro.vm.decode`), which the VM
property tests compare with this module for every opcode, operand form
and width, so the optimizer and the interpreter agree -- the property
our differential tests (O0 output vs O2 output on random inputs) rely on.

Values are carried in their *unsigned* representation within the type's
width.  Semantics notes:

* ``sdiv``/``srem`` truncate toward zero (C semantics); division by zero
  raises :class:`ZeroDivisionError` (folders refuse, the VM traps).
* Shift amounts >= bit width are well-defined here (unlike LLVM's poison):
  ``shl``/``lshr`` produce 0 and ``ashr`` produces the sign fill.  A
  deterministic simulator must not have undefined behaviour.
"""

from __future__ import annotations

from repro.ir.types import IntType


def eval_binary(opcode: str, type_: IntType, a: int, b: int) -> int:
    """Evaluate a binary opcode on unsigned representations; returns unsigned."""
    bits = type_.bits
    if opcode == "add":
        return type_.wrap(a + b)
    if opcode == "sub":
        return type_.wrap(a - b)
    if opcode == "mul":
        return type_.wrap(a * b)
    if opcode == "udiv":
        if b == 0:
            raise ZeroDivisionError("udiv by zero")
        return type_.wrap(a // b)
    if opcode == "urem":
        if b == 0:
            raise ZeroDivisionError("urem by zero")
        return type_.wrap(a % b)
    if opcode == "sdiv":
        if b == 0:
            raise ZeroDivisionError("sdiv by zero")
        sa, sb = type_.to_signed(a), type_.to_signed(b)
        q = abs(sa) // abs(sb)
        if (sa < 0) != (sb < 0):
            q = -q
        return type_.wrap(q)
    if opcode == "srem":
        if b == 0:
            raise ZeroDivisionError("srem by zero")
        sa, sb = type_.to_signed(a), type_.to_signed(b)
        r = abs(sa) % abs(sb)
        if sa < 0:
            r = -r
        return type_.wrap(r)
    if opcode == "and":
        return a & b
    if opcode == "or":
        return a | b
    if opcode == "xor":
        return a ^ b
    if opcode == "shl":
        return 0 if b >= bits else type_.wrap(a << b)
    if opcode == "lshr":
        return 0 if b >= bits else a >> b
    if opcode == "ashr":
        sa = type_.to_signed(a)
        if b >= bits:
            return type_.wrap(-1 if sa < 0 else 0)
        return type_.wrap(sa >> b)
    raise ValueError(f"unknown binary opcode {opcode!r}")


def eval_icmp(predicate: str, type_: IntType, a: int, b: int) -> int:
    """Evaluate an icmp on unsigned representations; returns 0 or 1."""
    if predicate == "eq":
        return int(a == b)
    if predicate == "ne":
        return int(a != b)
    if predicate in ("ult", "ule", "ugt", "uge"):
        ua, ub = a, b
        return {
            "ult": int(ua < ub),
            "ule": int(ua <= ub),
            "ugt": int(ua > ub),
            "uge": int(ua >= ub),
        }[predicate]
    sa, sb = type_.to_signed(a), type_.to_signed(b)
    return {
        "slt": int(sa < sb),
        "sle": int(sa <= sb),
        "sgt": int(sa > sb),
        "sge": int(sa >= sb),
    }[predicate]


def eval_cast(opcode: str, from_type: IntType, to_type: IntType, a: int) -> int:
    """Evaluate zext/sext/trunc between integer types."""
    if opcode == "zext":
        return a
    if opcode == "sext":
        return to_type.wrap(from_type.to_signed(a))
    if opcode == "trunc":
        return to_type.wrap(a)
    raise ValueError(f"unknown cast opcode {opcode!r}")
