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

from repro.ir.analysis import compute_dominators
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
        idom = compute_dominators(fn)
        children: Dict[BasicBlock, List[BasicBlock]] = {b: [] for b in fn.blocks}
        for block, parent in idom.items():
            if parent is not None:
                children[parent].append(block)

        # Preorder over the dominator tree with an explicit stack (deep
        # CFGs would overflow recursion).  A block sees the expressions of
        # its dominators: its own entries are dropped from the scoped
        # table once its whole subtree is walked.
        changed = False
        table: Dict[Tuple, Instruction] = {}
        walk: List = [fn.entry]
        while walk:
            item = walk.pop()
            if not isinstance(item, BasicBlock):
                for key in item:
                    del table[key]
                continue
            added: List[Tuple] = []
            for inst in list(item.instructions):
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
            walk.append(added)
            walk.extend(reversed(children.get(item, ())))
        return changed
