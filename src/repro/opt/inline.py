"""Function inlining, bottom-up over call-graph SCCs.

§2.2: "The classic Inline pass also clones basic blocks, but in a
bottom-up fashion along the call graph.  The recursive, interprocedural
optimization renders the recovery of semantics difficult if not
impossible."  Inlining is also the interprocedural optimization whose loss
dominates Odin-MaxPartition's slowdown (§5.2): once a callee lives in a
different fragment, only its declaration is visible and no inlining can
happen — which this pass reproduces for free, since it only inlines
callees *defined in the same module*.

In trial mode, each inlined (callee, caller) pair is logged as a ``bond``
requirement for the partitioner.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.ir.analysis import bottom_up_sccs
from repro.ir.builder import IRBuilder, split_block
from repro.ir.clone import ValueMap, clone_instruction
from repro.ir.instructions import CallInst, PhiInst, RetInst
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.values import UndefValue
from repro.opt.pass_manager import OptContext, Pass, REQ_BOND

# A callee bigger than this is never inlined.
INLINE_THRESHOLD = 40
# Internal functions with a single call site are inlined up to this size
# (the definition dies afterwards, so code size cannot grow).
SINGLE_CALLSITE_THRESHOLD = 160


class FunctionInlining(Pass):
    name = "inline"

    def __init__(
        self,
        threshold: int = INLINE_THRESHOLD,
        single_callsite_threshold: int = SINGLE_CALLSITE_THRESHOLD,
    ):
        self.threshold = threshold
        self.single_callsite_threshold = single_callsite_threshold

    def run(self, module: Module, ctx: OptContext) -> bool:
        changed = False
        scc_of: Dict[str, int] = {}
        for i, scc in enumerate(bottom_up_sccs(module)):
            for name in scc:
                scc_of[name] = i

        for scc in bottom_up_sccs(module):
            for caller_name in scc:
                caller = module.get_or_none(caller_name)
                if not isinstance(caller, Function) or caller.is_declaration():
                    continue
                changed |= self._inline_calls_in(caller, module, scc_of, ctx)
        return changed

    def _inline_calls_in(
        self, caller: Function, module: Module, scc_of: Dict[str, int], ctx: OptContext
    ) -> bool:
        changed = False
        progress = True
        while progress:
            progress = False
            for inst in caller.instructions():
                callee = self._inlinable_callee(inst, caller, module, scc_of)
                if callee is None:
                    continue
                ctx.log_requirement(REQ_BOND, callee.name, caller.name, self.name)
                ctx.charge(callee.count_instructions())
                inline_call_site(inst, callee)
                ctx.count("inline.sites")
                progress = changed = True
                break  # block list changed; restart the scan
        return changed

    def _inlinable_callee(
        self, inst, caller: Function, module: Module, scc_of: Dict[str, int]
    ) -> Optional[Function]:
        if not isinstance(inst, CallInst):
            return None
        callee = inst.callee
        if not isinstance(callee, Function) or callee.is_declaration():
            return None
        if callee.function_type.vararg:
            return None
        if callee is caller:
            return None
        if scc_of.get(callee.name) == scc_of.get(caller.name):
            return None  # mutual recursion
        size = callee.count_instructions()
        if size <= self.threshold:
            return callee
        if (
            callee.is_internal
            and size <= self.single_callsite_threshold
            and self._single_call_site(callee, module)
        ):
            return callee
        return None

    @staticmethod
    def _single_call_site(callee: Function, module: Module) -> bool:
        sites = 0
        for fn in module.defined_functions():
            for inst in fn.instructions():
                if isinstance(inst, CallInst) and inst.callee is callee:
                    sites += 1
                    if sites > 1:
                        return False
                ops = list(inst.operands)
                if isinstance(inst, PhiInst):
                    ops.extend(inst.used_values())
                for i, op in enumerate(ops):
                    if op is callee and not (isinstance(inst, CallInst) and i == 0):
                        return False  # address taken
        for alias in module.aliases():
            if alias.aliasee is callee:
                return False
        return sites == 1


def inline_call_site(call: CallInst, callee: Function) -> None:
    """Inline *callee* at *call*; the call instruction is destroyed."""
    caller = call.function
    block = call.parent

    # Split so the call starts its own block; everything after it is the tail.
    tail = split_block(block, call, new_name=f"{block.name}.tail")

    vmap = ValueMap()
    for arg, actual in zip(callee.args, call.args):
        vmap.put(arg, actual)

    # Clone in reverse-postorder (defs before non-phi uses); drop
    # unreachable callee blocks.
    from repro.ir.analysis import reachable_blocks

    order = reachable_blocks(callee)
    for cb in order:
        vmap.put_block(cb, caller.add_block(f"{callee.name}.{cb.name}"))

    returns: List[Tuple[Optional[object], BasicBlock]] = []
    phi_fixups = []
    for cb in order:
        nb = vmap.get_block(cb)
        for inst in cb.instructions:
            if isinstance(inst, RetInst):
                value = vmap.get(inst.value) if inst.value is not None else None
                returns.append((value, nb))
                IRBuilder.at_end(nb).br(tail)
                continue
            clone = clone_instruction(inst, vmap)
            clone.parent = nb
            if not clone.type.is_void():
                clone.name = caller.uniquify_value_name(inst.name or "v")
            nb.instructions.append(clone)
            vmap.put(inst, clone)
            if isinstance(inst, PhiInst):
                phi_fixups.append(inst)
    for phi in phi_fixups:
        clone = vmap.get(phi)
        for value, pred in phi.incoming:
            pred_clone = vmap._blocks.get(id(pred))
            if pred_clone is None:
                continue  # edge from an unreachable block
            clone.add_incoming(vmap.get(value), pred_clone)

    # Redirect the fall-through branch into the inlined entry.
    entry_clone = vmap.get_block(callee.entry)
    block.terminator.replace_target(tail, entry_clone)

    # Wire up the return value.
    if not call.type.is_void():
        if len(returns) == 1:
            caller.replace_all_uses(call, returns[0][0])
        elif returns:
            phi = PhiInst(call.type)
            phi.parent = tail
            phi.name = caller.uniquify_value_name(f"{callee.name}.ret")
            tail.instructions.insert(0, phi)
            for value, pred in returns:
                phi.add_incoming(value, pred)
            caller.replace_all_uses(call, phi)
        else:
            caller.replace_all_uses(call, UndefValue(call.type))
    call.erase()

    # The tail's phi predecessors change when the callee has multiple returns.
    if len(returns) != 1:
        for phi in tail.phis():
            if phi.incoming and any(b is block for _, b in phi.incoming):
                value = phi.incoming_for(block)
                phi.remove_incoming(block)
                for _, pred in returns:
                    phi.add_incoming(value, pred)
    else:
        for phi in tail.phis():
            if any(b is block for _, b in phi.incoming):
                phi.replace_incoming_block(block, returns[0][1])
