"""mem2reg: promote stack slots to SSA registers.

The MiniC frontend emits every local variable as an ``alloca`` with
loads/stores (like clang -O0).  This pass rewrites promotable allocas into
SSA values with phi nodes, using the classic iterated-dominance-frontier
algorithm.  It runs first in the O2 pipeline; every later pass assumes
values live in registers.

An alloca is promotable when it holds a first-class type and every use is a
direct load or a store *to* it (its address never escapes).
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.ir.analysis import DominatorTree
from repro.ir.instructions import AllocaInst, LoadInst, PhiInst, StoreInst
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.values import UndefValue, Value
from repro.opt.pass_manager import FunctionPass, OptContext
from repro.opt.simplifycfg import remove_unreachable_blocks


def promotable_allocas(fn: Function) -> List[AllocaInst]:
    """Allocas whose address is only used by direct loads/stores."""
    allocas = [i for i in fn.instructions() if isinstance(i, AllocaInst)]
    return [
        alloca for alloca in allocas
        if alloca.allocated_type.is_first_class()
        and all(
            isinstance(user, LoadInst)
            # a store may only use the slot as its address operand
            or (isinstance(user, StoreInst) and user.value is not alloca)
            for user in fn.users_of(alloca)
        )
    ]


class PromoteMem2Reg(FunctionPass):
    name = "mem2reg"

    def run_on_function(self, fn: Function, module: Module, ctx: OptContext) -> bool:
        allocas = promotable_allocas(fn)
        if not allocas:
            return False

        dom = DominatorTree(fn)
        frontiers = dom.frontiers()

        # Phase 1: place phis at the iterated dominance frontier of defs.
        # Phis are named as they are placed, so the def blocks and every
        # frontier are insertion-ordered dicts: a set of blocks would
        # iterate in memory-address order.  One scan finds every
        # alloca's def blocks, each in store program order.
        def_blocks_of: Dict[int, Dict[BasicBlock, None]] = {id(a): {} for a in allocas}
        for inst in fn.instructions():
            if isinstance(inst, StoreInst):
                def_blocks = def_blocks_of.get(id(inst.pointer))
                if def_blocks is not None:
                    def_blocks[inst.parent] = None
        phi_owner: Dict[int, AllocaInst] = {}
        for alloca in allocas:
            def_blocks = def_blocks_of[id(alloca)]
            worklist = [b for b in def_blocks if b in dom.idom]
            placed: Set[int] = set()
            while worklist:
                block = worklist.pop()
                for frontier_block in frontiers.get(block, ()):
                    if id(frontier_block) in placed:
                        continue
                    placed.add(id(frontier_block))
                    phi = PhiInst(alloca.allocated_type)
                    phi.parent = frontier_block
                    phi.name = fn.uniquify_value_name(alloca.name or "mem")
                    frontier_block.instructions.insert(0, phi)
                    phi_owner[id(phi)] = alloca
                    if frontier_block not in def_blocks:
                        def_blocks[frontier_block] = None
                        worklist.append(frontier_block)

        # Phase 2: rename along the dominator tree.
        current: Dict[int, List[Value]] = {id(a): [] for a in allocas}
        alloca_ids = set(current)

        def value_of(alloca: AllocaInst) -> Value:
            stack = current[id(alloca)]
            return stack[-1] if stack else UndefValue(alloca.allocated_type)

        def rename(block: BasicBlock) -> List[int]:
            """Rename *block*; returns the allocas it pushed values for,
            whose values are popped once its whole subtree is renamed."""
            pushed: List[int] = []
            for inst in list(block.instructions):
                if isinstance(inst, PhiInst) and id(inst) in phi_owner:
                    current[id(phi_owner[id(inst)])].append(inst)
                    pushed.append(id(phi_owner[id(inst)]))
                elif isinstance(inst, LoadInst) and id(inst.pointer) in alloca_ids:
                    replacement = value_of(inst.pointer)
                    fn.replace_all_uses(inst, replacement)
                    inst.erase()
                elif isinstance(inst, StoreInst) and id(inst.pointer) in alloca_ids:
                    current[id(inst.pointer)].append(inst.value)
                    pushed.append(id(inst.pointer))
                    inst.erase()
            # Each block is renamed once, so the only incoming a placed
            # phi can already have from it is through a repeated edge.
            for succ in dict.fromkeys(block.successors()):
                for phi in succ.phis():
                    owner = phi_owner.get(id(phi))
                    if owner is not None:
                        phi.add_incoming(value_of(owner), block)
            return pushed

        def unwind(pushed: List[int]) -> None:
            for key in pushed:
                current[key].pop()

        dom.walk(rename, unwind)

        # Phase 3: drop the allocas (and any code left in unreachable blocks
        # that still mentions them is removed with those blocks).
        remove_unreachable_blocks(fn, dom.idom)
        for alloca in allocas:
            alloca.erase()
            ctx.count("mem2reg.promoted")
        return True
