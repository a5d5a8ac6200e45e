"""Textual IR printer.

Produces an LLVM-flavoured rendering accepted back by
:mod:`repro.ir.parser`, so ``parse(print(m))`` round-trips.  Example::

    @str = internal const [6 x i8] c"hello\\00"

    define internal void @foo(i32 %unused) {
    entry:
      %r = call i32 @printf(ptr @str)
      ret void
    }
"""

from __future__ import annotations

from typing import Collection, List, Optional, Sequence, Tuple

from repro.ir.instructions import (
    AllocaInst,
    BinaryInst,
    BranchInst,
    CallInst,
    CastInst,
    FreezeInst,
    GepInst,
    IcmpInst,
    Instruction,
    LoadInst,
    PhiInst,
    RetInst,
    SelectInst,
    StoreInst,
    SwitchInst,
    UnreachableInst,
)
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.values import (
    LINKAGE_INTERNAL,
    Constant,
    GlobalAlias,
    GlobalValue,
    GlobalVariable,
    Value,
)


def _operand(value: Value) -> str:
    """Render an operand with its type prefix."""
    return f"{value.type} {_name(value)}"


def _name(value: Value) -> str:
    """Render an operand without its type."""
    if isinstance(value, (Constant, GlobalValue)):
        return value.ref()
    return f"%{value.name}"


def print_instruction(inst: Instruction) -> str:
    if isinstance(inst, BinaryInst):
        return f"%{inst.name} = {inst.opcode} {inst.type} {_name(inst.lhs)}, {_name(inst.rhs)}"
    if isinstance(inst, IcmpInst):
        return (
            f"%{inst.name} = icmp {inst.predicate} {inst.lhs.type} "
            f"{_name(inst.lhs)}, {_name(inst.rhs)}"
        )
    if isinstance(inst, CastInst):
        return f"%{inst.name} = {inst.opcode} {_operand(inst.value)} to {inst.type}"
    if isinstance(inst, SelectInst):
        return (
            f"%{inst.name} = select {_operand(inst.cond)}, "
            f"{_operand(inst.if_true)}, {_operand(inst.if_false)}"
        )
    if isinstance(inst, FreezeInst):
        return f"%{inst.name} = freeze {_operand(inst.value)}"
    if isinstance(inst, AllocaInst):
        return f"%{inst.name} = alloca {inst.allocated_type}"
    if isinstance(inst, LoadInst):
        return f"%{inst.name} = load {inst.type}, {_operand(inst.pointer)}"
    if isinstance(inst, StoreInst):
        return f"store {_operand(inst.value)}, {_operand(inst.pointer)}"
    if isinstance(inst, GepInst):
        return (
            f"%{inst.name} = gep {inst.element_type}, {_operand(inst.base)}, "
            f"{_operand(inst.index)}"
        )
    if isinstance(inst, CallInst):
        args = ", ".join(_operand(a) for a in inst.args)
        callee = _name(inst.callee)
        if inst.type.is_void():
            return f"call void {callee}({args})"
        return f"%{inst.name} = call {inst.type} {callee}({args})"
    if isinstance(inst, PhiInst):
        return _print_phi(inst, inst.incoming)
    if isinstance(inst, BranchInst):
        if inst.is_conditional:
            t, f = inst.targets
            return f"br i1 {_name(inst.cond)}, label %{t.name}, label %{f.name}"
        return f"br label %{inst.targets[0].name}"
    if isinstance(inst, SwitchInst):
        cases = " ".join(
            f"{c.type} {c.signed}, label %{b.name}" for c, b in inst.cases
        )
        return (
            f"switch {_operand(inst.value)}, label %{inst.default.name} [ {cases} ]"
        )
    if isinstance(inst, RetInst):
        return f"ret {_operand(inst.value)}" if inst.value is not None else "ret void"
    if isinstance(inst, UnreachableInst):
        return "unreachable"
    raise TypeError(f"cannot print instruction {inst!r}")  # pragma: no cover


def _print_phi(inst: PhiInst, incoming: Sequence[Tuple[Value, BasicBlock]]) -> str:
    inc = ", ".join(f"[ {_name(v)}, %{b.name} ]" for v, b in incoming)
    return f"%{inst.name} = phi {inst.type} {inc}"


def print_block(block: BasicBlock, live: Optional[Collection[int]] = None) -> str:
    """Render *block*; with *live* (block ids), drop phi incomings from
    any block not in it."""
    lines = [f"{block.name}:"]
    for inst in block.instructions:
        if live is not None and isinstance(inst, PhiInst):
            text = _print_phi(
                inst, [(v, b) for v, b in inst.incoming if id(b) in live]
            )
        else:
            text = print_instruction(inst)
        lines.append(f"  {text}")
    return "\n".join(lines)


def _linkage_prefix(linkage: str) -> str:
    return f"{linkage} " if linkage == LINKAGE_INTERNAL else ""


def print_function(
    fn: Function,
    linkage: Optional[str] = None,
    blocks: Optional[Sequence[BasicBlock]] = None,
) -> str:
    """Render *fn*, under *linkage* in place of its own when given.

    With *blocks*, the body is those blocks in that order and phi
    incomings from any other block are dropped: the text a clone of just
    those blocks prints.
    """
    if fn.is_declaration():
        params = ", ".join(str(p) for p in fn.function_type.params)
        if fn.function_type.vararg:
            params = f"{params}, ..." if params else "..."
        return f"declare {fn.return_type} @{fn.name}({params})"
    params = ", ".join(f"{a.type} %{a.name}" for a in fn.args)
    if fn.function_type.vararg:
        params = f"{params}, ..." if params else "..."
    header = f"{fn.return_type} @{fn.name}({params})"
    if blocks is None:
        body = "\n".join(print_block(b) for b in fn.blocks)
    else:
        live = {id(b) for b in blocks}
        body = "\n".join(print_block(b, live) for b in blocks)
    prefix = _linkage_prefix(fn.linkage if linkage is None else linkage)
    return f"define {prefix}{header} {{\n{body}\n}}"


def print_global(gv: GlobalVariable, linkage: Optional[str] = None) -> str:
    kind = "const" if gv.is_const else "global"
    if gv.is_declaration():
        return f"@{gv.name} = declare {kind} {gv.value_type}"
    prefix = _linkage_prefix(gv.linkage if linkage is None else linkage)
    return f"@{gv.name} = {prefix}{kind} {gv.value_type} {gv.initializer.ref()}"


def print_alias(alias: GlobalAlias, linkage: Optional[str] = None) -> str:
    prefix = _linkage_prefix(alias.linkage if linkage is None else linkage)
    return f"@{alias.name} = {prefix}alias @{alias.aliasee.name}"


def print_module(module: Module) -> str:
    chunks: List[str] = []
    for symbol in module.symbols.values():
        if isinstance(symbol, GlobalVariable):
            chunks.append(print_global(symbol))
    for symbol in module.symbols.values():
        if isinstance(symbol, GlobalAlias):
            chunks.append(print_alias(symbol))
    for symbol in module.symbols.values():
        if isinstance(symbol, Function):
            chunks.append(print_function(symbol))
    return "\n\n".join(chunks) + "\n"
