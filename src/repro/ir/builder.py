"""IRBuilder: ergonomic construction of IR, mirroring ``llvm::IRBuilder``.

The paper's user-facing API (§4) instruments by positioning an ``IRBuilder``
at an instruction and emitting calls; this class provides the same workflow:

    builder = IRBuilder.before(the_cmp)
    builder.call(runtime_fn, [a, b])
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.errors import IRError, IRTypeError
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
from repro.ir.module import BasicBlock, Function
from repro.ir.types import FunctionType, IntType, Type
from repro.ir.values import ConstantInt, Value


class IRBuilder:
    """Emits instructions at an insertion point inside a basic block."""

    def __init__(self, block: Optional[BasicBlock] = None):
        self._block = block
        self._anchor: Optional[Instruction] = None  # insert before this

    # -- positioning ----------------------------------------------------------

    @classmethod
    def at_end(cls, block: BasicBlock) -> "IRBuilder":
        builder = cls(block)
        return builder

    @classmethod
    def before(cls, inst: Instruction) -> "IRBuilder":
        if inst.parent is None:
            raise IRError("cannot position builder at a detached instruction")
        builder = cls(inst.parent)
        builder._anchor = inst
        return builder

    def position_at_end(self, block: BasicBlock) -> None:
        self._block = block
        self._anchor = None

    @property
    def block(self) -> BasicBlock:
        if self._block is None:
            raise IRError("builder has no insertion point")
        return self._block

    @property
    def function(self) -> Function:
        fn = self.block.parent
        if fn is None:
            raise IRError("builder block is detached from a function")
        return fn

    def _insert(self, inst: Instruction) -> Instruction:
        if self._anchor is not None:
            return self.block.insert_before(self._anchor, inst)
        return self.block.append(inst)

    # -- constants -------------------------------------------------------------

    @staticmethod
    def const(type_: IntType, value: int) -> ConstantInt:
        return ConstantInt(type_, value)

    # -- arithmetic --------------------------------------------------------------

    def binop(self, opcode: str, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self._insert(BinaryInst(opcode, lhs, rhs, name))

    def add(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.binop("add", lhs, rhs, name)

    def sub(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.binop("sub", lhs, rhs, name)

    def mul(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.binop("mul", lhs, rhs, name)

    def sdiv(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.binop("sdiv", lhs, rhs, name)

    def udiv(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.binop("udiv", lhs, rhs, name)

    def srem(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.binop("srem", lhs, rhs, name)

    def and_(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.binop("and", lhs, rhs, name)

    def or_(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.binop("or", lhs, rhs, name)

    def xor(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.binop("xor", lhs, rhs, name)

    def shl(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.binop("shl", lhs, rhs, name)

    def lshr(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.binop("lshr", lhs, rhs, name)

    def ashr(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.binop("ashr", lhs, rhs, name)

    def icmp(self, predicate: str, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self._insert(IcmpInst(predicate, lhs, rhs, name))

    def select(self, cond: Value, a: Value, b: Value, name: str = "") -> Value:
        return self._insert(SelectInst(cond, a, b, name))

    def freeze(self, value: Value, name: str = "") -> Value:
        return self._insert(FreezeInst(value, name))

    # -- casts ---------------------------------------------------------------------

    def zext(self, value: Value, to_type: Type, name: str = "") -> Value:
        return self._insert(CastInst("zext", value, to_type, name))

    def sext(self, value: Value, to_type: Type, name: str = "") -> Value:
        return self._insert(CastInst("sext", value, to_type, name))

    def trunc(self, value: Value, to_type: Type, name: str = "") -> Value:
        return self._insert(CastInst("trunc", value, to_type, name))

    def int_cast(self, value: Value, to_type: Type, signed: bool, name: str = "") -> Value:
        """Widen, narrow or pass through an integer value to *to_type*."""
        if not (value.type.is_integer() and to_type.is_integer()):
            raise IRTypeError("int_cast needs integer types")
        if value.type is to_type:
            return value
        if to_type.bits > value.type.bits:
            return self.sext(value, to_type, name) if signed else self.zext(value, to_type, name)
        return self.trunc(value, to_type, name)

    def ptrtoint(self, value: Value, to_type: Type, name: str = "") -> Value:
        return self._insert(CastInst("ptrtoint", value, to_type, name))

    def inttoptr(self, value: Value, to_type: Type, name: str = "") -> Value:
        return self._insert(CastInst("inttoptr", value, to_type, name))

    # -- memory ----------------------------------------------------------------------

    def alloca(self, allocated_type: Type, name: str = "") -> Value:
        return self._insert(AllocaInst(allocated_type, name))

    def load(self, loaded_type: Type, pointer: Value, name: str = "") -> Value:
        return self._insert(LoadInst(loaded_type, pointer, name))

    def store(self, value: Value, pointer: Value) -> Instruction:
        return self._insert(StoreInst(value, pointer))

    def gep(self, element_type: Type, base: Value, index: Value, name: str = "") -> Value:
        return self._insert(GepInst(element_type, base, index, name))

    # -- calls ------------------------------------------------------------------------

    def call(
        self,
        callee: Union[Function, Value],
        args: Sequence[Value],
        function_type: Optional[FunctionType] = None,
        name: str = "",
    ) -> Value:
        if function_type is None:
            if not isinstance(callee, Function):
                raise IRTypeError("indirect calls must state their function type")
            function_type = callee.function_type
        return self._insert(CallInst(callee, args, function_type, name))

    # -- control flow ---------------------------------------------------------------------

    def br(self, target: BasicBlock) -> Instruction:
        return self._insert(BranchInst(target))

    def condbr(self, cond: Value, if_true: BasicBlock, if_false: BasicBlock) -> Instruction:
        return self._insert(BranchInst(if_true, cond, if_false))

    def switch(self, value: Value, default: BasicBlock) -> SwitchInst:
        inst = SwitchInst(value, default)
        self._insert(inst)
        return inst

    def ret(self, value: Optional[Value] = None) -> Instruction:
        return self._insert(RetInst(value))

    def unreachable(self) -> Instruction:
        return self._insert(UnreachableInst())

    def phi(self, type_: Type, name: str = "") -> PhiInst:
        """Insert a phi at the *start* of the current block."""
        block = self.block
        inst = PhiInst(type_, name)
        inst.parent = block
        if not inst.type.is_void() and block.parent is not None:
            inst.name = block.parent.uniquify_value_name(inst.name or "phi")
        # Phis must precede all non-phi instructions.
        idx = 0
        while idx < len(block.instructions) and isinstance(block.instructions[idx], PhiInst):
            idx += 1
        block.instructions.insert(idx, inst)
        return inst


def build_function(
    module,
    name: str,
    function_type: FunctionType,
    param_names: Sequence[str] = (),
    linkage: str = "external",
) -> tuple:
    """Create a function with an entry block; return (function, builder, args)."""
    fn = Function(name, function_type, param_names, linkage)
    module.add(fn)
    entry = fn.add_block("entry")
    builder = IRBuilder.at_end(entry)
    return fn, builder, list(fn.args)


def split_block(block: BasicBlock, at: Instruction, new_name: str = "split") -> BasicBlock:
    """Split *block* before *at*; the tail moves to a new block.

    The original block gets an unconditional branch to the new block.
    Phi nodes in successors are retargeted to the new block.
    """
    fn = block.parent
    if fn is None:
        raise IRError("cannot split a detached block")
    idx = block.instructions.index(at)
    tail = block.instructions[idx:]
    block.instructions = block.instructions[:idx]

    new_block = fn.add_block(new_name)
    for inst in tail:
        inst.parent = new_block
        new_block.instructions.append(inst)

    # Successor phis must now see the new block as predecessor.
    for succ in new_block.successors():
        for phi in succ.phis():
            phi.replace_incoming_block(block, new_block)

    IRBuilder.at_end(block).br(new_block)
    return new_block
