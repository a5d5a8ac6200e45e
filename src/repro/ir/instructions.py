"""Instruction set of the repro IR.

The IR is in SSA form: every instruction that produces a value defines a
fresh virtual register, and ``phi`` nodes merge values at control-flow join
points.  Control-flow targets (basic blocks) are held in dedicated fields
rather than in the generic ``operands`` list; :meth:`Instruction.replace_uses_of`
covers both value operands and phi incomings so rewriting passes have a
single entry point.  Every write that stores a function-local value into an
operand slot or a phi incoming also adds the instruction to that value's
``users`` (:attr:`repro.ir.values.Value.users`).

Opcode inventory (close to a useful LLVM subset):

======== =======================================================
group    opcodes
======== =======================================================
binary   add sub mul sdiv udiv srem urem and or xor shl lshr ashr
compare  icmp (eq ne slt sle sgt sge ult ule ugt uge)
cast     zext sext trunc ptrtoint inttoptr
memory   alloca load store gep
other    select call phi freeze
control  br condbr switch ret unreachable
======== =======================================================
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.errors import IRError, IRTypeError
from repro.ir.types import (
    FunctionType,
    I1,
    IntType,
    PTR,
    Type,
    VOID,
)
from repro.ir.values import ConstantInt, GlobalValue, Value

if TYPE_CHECKING:  # pragma: no cover
    from repro.ir.module import BasicBlock

BINARY_OPCODES = (
    "add", "sub", "mul", "sdiv", "udiv", "srem", "urem",
    "and", "or", "xor", "shl", "lshr", "ashr",
)
ICMP_PREDICATES = ("eq", "ne", "slt", "sle", "sgt", "sge", "ult", "ule", "ugt", "uge")
CAST_OPCODES = ("zext", "sext", "trunc", "ptrtoint", "inttoptr")

# Predicate helpers used by instcombine and the interpreter.
SIGNED_PREDICATES = ("slt", "sle", "sgt", "sge")
UNSIGNED_PREDICATES = ("ult", "ule", "ugt", "uge")

SWAPPED_PREDICATE = {
    "eq": "eq", "ne": "ne",
    "slt": "sgt", "sle": "sge", "sgt": "slt", "sge": "sle",
    "ult": "ugt", "ule": "uge", "ugt": "ult", "uge": "ule",
}
INVERTED_PREDICATE = {
    "eq": "ne", "ne": "eq",
    "slt": "sge", "sle": "sgt", "sgt": "sle", "sge": "slt",
    "ult": "uge", "ule": "ugt", "ugt": "ule", "uge": "ult",
}


class Instruction(Value):
    """Base class for all instructions."""

    opcode: str = "?"
    is_terminator = False

    def __init__(self, type_: Type, operands: Sequence[Value], name: str = ""):
        super().__init__(type_, name)
        self.users = {}
        self.operands: List[Value] = list(operands)
        for op in self.operands:  # Value.add_user, inlined: every build runs this
            if op.users is not None:
                op.users[self] = None
        self.parent: Optional["BasicBlock"] = None

    # -- structural queries -------------------------------------------------

    @property
    def function(self):
        """The function containing this instruction, or None if detached."""
        return self.parent.parent if self.parent is not None else None

    def successors(self) -> List["BasicBlock"]:
        """Control-flow successors (empty for non-terminators)."""
        return []

    def has_side_effects(self) -> bool:
        """Whether the instruction may observably affect program state.

        Calls are conservatively side-effecting: this is exactly the property
        that makes early-inserted probes act as optimization barriers (§2.2).
        """
        return isinstance(self, (StoreInst, CallInst)) or self.is_terminator

    # -- rewriting ----------------------------------------------------------

    def replace_uses_of(self, old: Value, new: Value) -> int:
        """Replace every use of *old* in this instruction with *new*.

        Returns the number of replaced uses.
        """
        count = 0
        for i, op in enumerate(self.operands):
            if op is old:
                self.operands[i] = new
                count += 1
        if count:
            new.add_user(self)
        return count

    def erase(self) -> None:
        """Remove this instruction from its parent block."""
        if self.parent is None:
            raise IRError(f"instruction %{self.name} is not attached to a block")
        self.parent.instructions.remove(self)
        self.parent = None


class BinaryInst(Instruction):
    """Two-operand integer arithmetic/bitwise instruction."""

    def __init__(self, opcode: str, lhs: Value, rhs: Value, name: str = ""):
        if opcode not in BINARY_OPCODES:
            raise IRError(f"unknown binary opcode: {opcode}")
        if not isinstance(lhs.type, IntType) or lhs.type is not rhs.type:
            raise IRTypeError(
                f"binary op {opcode} needs matching integer operands, "
                f"got {lhs.type} and {rhs.type}"
            )
        super().__init__(lhs.type, [lhs, rhs], name)
        self.opcode = opcode

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]

    def is_commutative(self) -> bool:
        return self.opcode in ("add", "mul", "and", "or", "xor")


class IcmpInst(Instruction):
    """Integer/pointer comparison producing an i1."""

    opcode = "icmp"

    def __init__(self, predicate: str, lhs: Value, rhs: Value, name: str = ""):
        if predicate not in ICMP_PREDICATES:
            raise IRError(f"unknown icmp predicate: {predicate}")
        if lhs.type is not rhs.type:
            raise IRTypeError(f"icmp operand types differ: {lhs.type} vs {rhs.type}")
        if not (lhs.type.is_integer() or lhs.type.is_pointer()):
            raise IRTypeError(f"icmp needs integer or pointer operands, got {lhs.type}")
        super().__init__(I1, [lhs, rhs], name)
        self.predicate = predicate

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]


class CastInst(Instruction):
    """Width/representation conversion."""

    def __init__(self, opcode: str, value: Value, to_type: Type, name: str = ""):
        if opcode not in CAST_OPCODES:
            raise IRError(f"unknown cast opcode: {opcode}")
        if opcode in ("zext", "sext"):
            if not (value.type.is_integer() and to_type.is_integer()):
                raise IRTypeError(f"{opcode} needs integer types")
            if to_type.bits <= value.type.bits:
                raise IRTypeError(f"{opcode} must widen: {value.type} -> {to_type}")
        elif opcode == "trunc":
            if not (value.type.is_integer() and to_type.is_integer()):
                raise IRTypeError("trunc needs integer types")
            if to_type.bits >= value.type.bits:
                raise IRTypeError(f"trunc must narrow: {value.type} -> {to_type}")
        elif opcode == "ptrtoint":
            if not (value.type.is_pointer() and to_type.is_integer()):
                raise IRTypeError("ptrtoint needs ptr -> integer")
        elif opcode == "inttoptr":
            if not (value.type.is_integer() and to_type.is_pointer()):
                raise IRTypeError("inttoptr needs integer -> ptr")
        super().__init__(to_type, [value], name)
        self.opcode = opcode

    @property
    def value(self) -> Value:
        return self.operands[0]


class SelectInst(Instruction):
    """``select i1 %c, T %a, T %b`` — branchless conditional."""

    opcode = "select"

    def __init__(self, cond: Value, if_true: Value, if_false: Value, name: str = ""):
        if cond.type is not I1:
            raise IRTypeError(f"select condition must be i1, got {cond.type}")
        if if_true.type is not if_false.type:
            raise IRTypeError(
                f"select arm types differ: {if_true.type} vs {if_false.type}"
            )
        super().__init__(if_true.type, [cond, if_true, if_false], name)

    @property
    def cond(self) -> Value:
        return self.operands[0]

    @property
    def if_true(self) -> Value:
        return self.operands[1]

    @property
    def if_false(self) -> Value:
        return self.operands[2]


class AllocaInst(Instruction):
    """Stack allocation of one object of ``allocated_type``."""

    opcode = "alloca"

    def __init__(self, allocated_type: Type, name: str = ""):
        if allocated_type.is_void() or allocated_type.is_function():
            raise IRTypeError(f"cannot alloca {allocated_type}")
        super().__init__(PTR, [], name)
        self.allocated_type = allocated_type


class LoadInst(Instruction):
    """``load T, ptr %p``."""

    opcode = "load"

    def __init__(self, loaded_type: Type, pointer: Value, name: str = ""):
        if not pointer.type.is_pointer():
            raise IRTypeError(f"load needs a pointer operand, got {pointer.type}")
        if not loaded_type.is_first_class():
            raise IRTypeError(f"cannot load a value of type {loaded_type}")
        super().__init__(loaded_type, [pointer], name)

    @property
    def pointer(self) -> Value:
        return self.operands[0]


class StoreInst(Instruction):
    """``store T %v, ptr %p``."""

    opcode = "store"

    def __init__(self, value: Value, pointer: Value):
        if not pointer.type.is_pointer():
            raise IRTypeError(f"store needs a pointer operand, got {pointer.type}")
        if not value.type.is_first_class():
            raise IRTypeError(f"cannot store a value of type {value.type}")
        super().__init__(VOID, [value, pointer])

    @property
    def value(self) -> Value:
        return self.operands[0]

    @property
    def pointer(self) -> Value:
        return self.operands[1]


class GepInst(Instruction):
    """``gep T, ptr %base, iN %index`` — pointer to ``base + index*sizeof(T)``."""

    opcode = "gep"

    def __init__(self, element_type: Type, base: Value, index: Value, name: str = ""):
        if not base.type.is_pointer():
            raise IRTypeError(f"gep base must be a pointer, got {base.type}")
        if not index.type.is_integer():
            raise IRTypeError(f"gep index must be an integer, got {index.type}")
        super().__init__(PTR, [base, index], name)
        self.element_type = element_type

    @property
    def base(self) -> Value:
        return self.operands[0]

    @property
    def index(self) -> Value:
        return self.operands[1]


class CallInst(Instruction):
    """Direct (callee is a GlobalValue) or indirect function call."""

    opcode = "call"

    def __init__(
        self,
        callee: Value,
        args: Sequence[Value],
        function_type: FunctionType,
        name: str = "",
    ):
        if not callee.type.is_pointer() and not callee.type.is_function():
            # Functions themselves are referenced as pointers; accept both.
            raise IRTypeError(f"callee must be a function or pointer, got {callee.type}")
        args = list(args)
        fixed = len(function_type.params)
        if len(args) < fixed or (len(args) > fixed and not function_type.vararg):
            raise IRTypeError(
                f"call arity mismatch: expected {fixed}"
                f"{'+' if function_type.vararg else ''}, got {len(args)}"
            )
        for i, (arg, pty) in enumerate(zip(args, function_type.params)):
            if arg.type is not pty:
                raise IRTypeError(
                    f"call argument {i} has type {arg.type}, expected {pty}"
                )
        super().__init__(function_type.ret, [callee, *args], name)
        self.function_type = function_type

    @property
    def callee(self) -> Value:
        return self.operands[0]

    @property
    def args(self) -> List[Value]:
        return self.operands[1:]

    def called_function_name(self) -> Optional[str]:
        """Symbol name for direct calls, None for indirect calls."""
        callee = self.callee
        return callee.name if isinstance(callee, GlobalValue) else None

    def set_args(self, args: Sequence[Value]) -> None:
        self.operands[1:] = list(args)
        for arg in args:
            arg.add_user(self)


class PhiInst(Instruction):
    """SSA phi node; ``incoming`` is a list of (value, predecessor block)."""

    opcode = "phi"

    def __init__(self, type_: Type, name: str = ""):
        super().__init__(type_, [], name)
        self.incoming: List[Tuple[Value, "BasicBlock"]] = []

    def add_incoming(self, value: Value, block: "BasicBlock") -> None:
        if value.type is not self.type:
            raise IRTypeError(
                f"phi incoming type {value.type} does not match {self.type}"
            )
        self.incoming.append((value, block))
        value.add_user(self)

    def incoming_for(self, block: "BasicBlock") -> Value:
        for value, pred in self.incoming:
            if pred is block:
                return value
        raise IRError(f"phi %{self.name} has no incoming for block {block.name}")

    def remove_incoming(self, block: "BasicBlock") -> None:
        self.incoming = [(v, b) for v, b in self.incoming if b is not block]

    def replace_uses_of(self, old: Value, new: Value) -> int:
        count = super().replace_uses_of(old, new)
        for i, (value, block) in enumerate(self.incoming):
            if value is old:
                self.incoming[i] = (new, block)
                count += 1
        if count:
            new.add_user(self)
        return count

    def replace_incoming_block(self, old: "BasicBlock", new: "BasicBlock") -> None:
        self.incoming = [(v, new if b is old else b) for v, b in self.incoming]

    def used_values(self) -> List[Value]:
        return [v for v, _ in self.incoming]


class FreezeInst(Instruction):
    """Identity barrier: stops value-level rewrites across it.

    Used by instrumentation schemes that must observe the *original* value
    (the paper's input-to-state requirement, §2.2).
    """

    opcode = "freeze"

    def __init__(self, value: Value, name: str = ""):
        super().__init__(value.type, [value], name)

    @property
    def value(self) -> Value:
        return self.operands[0]


class BranchInst(Instruction):
    """Unconditional ``br label %t`` or conditional ``condbr i1 %c, %t, %f``."""

    is_terminator = True

    def __init__(
        self,
        target: "BasicBlock",
        cond: Optional[Value] = None,
        if_false: Optional["BasicBlock"] = None,
    ):
        if cond is not None:
            if cond.type is not I1:
                raise IRTypeError(f"branch condition must be i1, got {cond.type}")
            if if_false is None:
                raise IRError("conditional branch needs a false target")
            super().__init__(VOID, [cond])
            self.opcode = "condbr"
        else:
            if if_false is not None:
                raise IRError("unconditional branch has a single target")
            super().__init__(VOID, [])
            self.opcode = "br"
        self.targets: List["BasicBlock"] = [target] if if_false is None else [target, if_false]

    @property
    def is_conditional(self) -> bool:
        return self.opcode == "condbr"

    @property
    def cond(self) -> Optional[Value]:
        return self.operands[0] if self.is_conditional else None

    def successors(self) -> List["BasicBlock"]:
        return list(self.targets)

    def replace_target(self, old: "BasicBlock", new: "BasicBlock") -> None:
        self.targets = [new if t is old else t for t in self.targets]


class SwitchInst(Instruction):
    """``switch iN %v, default %d [ (k1, %b1) (k2, %b2) ... ]``."""

    opcode = "switch"
    is_terminator = True

    def __init__(self, value: Value, default: "BasicBlock"):
        if not value.type.is_integer():
            raise IRTypeError(f"switch needs an integer scrutinee, got {value.type}")
        super().__init__(VOID, [value])
        self.default = default
        self.cases: List[Tuple[ConstantInt, "BasicBlock"]] = []

    @property
    def value(self) -> Value:
        return self.operands[0]

    def add_case(self, const: ConstantInt, block: "BasicBlock") -> None:
        if const.type is not self.value.type:
            raise IRTypeError(
                f"switch case type {const.type} does not match {self.value.type}"
            )
        if any(c.value == const.value for c, _ in self.cases):
            raise IRError(f"duplicate switch case {const.signed}")
        self.cases.append((const, block))

    def successors(self) -> List["BasicBlock"]:
        return [self.default] + [b for _, b in self.cases]

    def replace_target(self, old: "BasicBlock", new: "BasicBlock") -> None:
        if self.default is old:
            self.default = new
        self.cases = [(c, new if b is old else b) for c, b in self.cases]


class RetInst(Instruction):
    """``ret void`` or ``ret T %v``."""

    opcode = "ret"
    is_terminator = True

    def __init__(self, value: Optional[Value] = None):
        super().__init__(VOID, [] if value is None else [value])

    @property
    def value(self) -> Optional[Value]:
        return self.operands[0] if self.operands else None


class UnreachableInst(Instruction):
    """Marks statically unreachable control flow."""

    opcode = "unreachable"
    is_terminator = True

    def __init__(self):
        super().__init__(VOID, [])
