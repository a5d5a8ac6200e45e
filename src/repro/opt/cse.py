"""Early common-subexpression elimination.

Dominator-scoped value numbering over pure instructions.  Needed so that
e.g. repeated ``sext`` of the same value (one per C-level use site) collapse
to one, which in turn lets instcombine's range fold recognize
``and (icmp sge X, a), (icmp sle X, b)`` with a *single* X — the Figure 2
pattern.

:class:`FreezeInst` is intentionally *not* CSE'd: each freeze is a distinct
barrier pinning an observation point for instrumentation.  Loads are also
skipped (no memory dependence analysis here).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.ir.analysis import DominatorTree
from repro.ir.instructions import (
    BinaryInst,
    CastInst,
    GepInst,
    IcmpInst,
    Instruction,
    SelectInst,
)
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.values import ConstantInt, Value
from repro.opt.pass_manager import FunctionPass, OptContext


def _operand_key(op: Value) -> object:
    """Operands compare by identity, except integer constants by value."""
    if isinstance(op, ConstantInt):
        return ("const", op.type, op.value)
    return id(op)


def _key(inst: Instruction) -> Optional[Tuple]:
    if isinstance(inst, BinaryInst):
        ops = [_operand_key(inst.lhs), _operand_key(inst.rhs)]
        if inst.is_commutative():
            ops.sort(key=repr)
        return ("bin", inst.opcode, inst.type, ops[0], ops[1])
    if isinstance(inst, IcmpInst):
        return ("icmp", inst.predicate, _operand_key(inst.lhs), _operand_key(inst.rhs))
    if isinstance(inst, CastInst):
        return ("cast", inst.opcode, inst.type, _operand_key(inst.value))
    if isinstance(inst, GepInst):
        return (
            "gep", inst.element_type,
            _operand_key(inst.base), _operand_key(inst.index),
        )
    if isinstance(inst, SelectInst):
        return (
            "select",
            _operand_key(inst.cond),
            _operand_key(inst.if_true),
            _operand_key(inst.if_false),
        )
    return None


class EarlyCSE(FunctionPass):
    name = "early-cse"

    def run_on_function(self, fn: Function, module: Module, ctx: OptContext) -> bool:
        # A block sees the expressions of its dominators: its own entries
        # leave the scoped table once its whole subtree is walked.
        changed = False
        table: Dict[Tuple, Instruction] = {}

        def enter(block: BasicBlock) -> List[Tuple]:
            nonlocal changed
            added: List[Tuple] = []
            for inst in list(block.instructions):
                key = _key(inst)
                if key is None:
                    continue
                hit = table.get(key)
                if hit is not None:
                    fn.replace_all_uses(inst, hit)
                    inst.erase()
                    ctx.count("cse.eliminated")
                    changed = True
                else:
                    table[key] = inst
                    added.append(key)
            return added

        def leave(added: List[Tuple]) -> None:
            for key in added:
                del table[key]

        DominatorTree(fn).walk(enter, leave)
        return changed
