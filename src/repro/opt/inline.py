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

from collections import Counter
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.ir.analysis import bottom_up_sccs, reachable_blocks
from repro.ir.builder import IRBuilder, split_block
from repro.ir.clone import ValueMap, clone_instruction
from repro.ir.instructions import CallInst, PhiInst, RetInst
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.values import UndefValue
from repro.opt.pass_manager import OptContext, Pass, REQ_BOND, RunRecord

# A callee bigger than this is never inlined.
INLINE_THRESHOLD = 40
# Internal functions with a single call site are inlined up to this size
# (the definition dies afterwards, so code size cannot grow).
SINGLE_CALLSITE_THRESHOLD = 160

# A count per function: direct call sites or address-taken references.
Counts = Dict[Function, int]


class CallSiteIndex:
    """Which functions of a module have exactly one call site, for one
    inliner run.

    The counts are taken at the first query, one scan of every defined
    function.  Inlining a call site rewrites only its caller (the callee
    is cloned, not changed), so :meth:`recount` of the caller after each
    inline keeps every count exact: whatever the cloned body brings in,
    new direct calls, an indirect call through a parameter that became
    direct, a function pointer that replaced the call's result, shows up
    in the caller's recount.
    """

    def __init__(self, module: Module):
        self.module = module
        # Per defined function: its ({callee: calls}, {function: refs}).
        self._by_fn: Optional[Dict[Function, Tuple[Counts, Counts]]] = None
        self._calls: Counter = Counter()
        self._taken: Counter = Counter()
        self._aliased: Set[Function] = set()

    def _build(self) -> None:
        self._by_fn = {}
        self._aliased = {alias.aliasee for alias in self.module.aliases()}
        for fn in self.module.defined_functions():
            self._add(fn)

    def _add(self, fn: Function) -> None:
        """Count *fn*'s direct call sites and address-taken references
        to every function: any operand but a call's callee slot, phi
        incomings included."""
        calls: Counts = {}
        taken: Counts = {}
        for block in fn.blocks:
            for inst in block.instructions:
                ops = inst.operands
                if isinstance(inst, CallInst):
                    callee = ops[0]
                    if isinstance(callee, Function):
                        calls[callee] = calls.get(callee, 0) + 1
                    ops = ops[1:]
                elif isinstance(inst, PhiInst):
                    ops = ops + inst.used_values()
                for op in ops:
                    if isinstance(op, Function):
                        taken[op] = taken.get(op, 0) + 1
        self._by_fn[fn] = (calls, taken)
        self._calls.update(calls)
        self._taken.update(taken)

    def recount(self, fn: Function) -> None:
        """Re-count *fn*'s body after it changed."""
        if self._by_fn is None:
            return  # nothing counted yet
        calls, taken = self._by_fn[fn]
        self._calls.subtract(calls)
        self._taken.subtract(taken)
        self._add(fn)

    def single_call_site(self, fn: Function) -> bool:
        """Whether *fn* is called directly exactly once in the module,
        its address is never taken and no alias targets it."""
        if self._by_fn is None:
            self._build()
        return self._calls[fn] == 1 and not self._taken[fn] and fn not in self._aliased


class FunctionInlining(Pass):
    name = "inline"

    def run(self, module: Module, ctx: OptContext) -> bool:
        return self.run_in(module, ctx, RunRecord())

    def run_in(self, module: Module, ctx: OptContext, record: RunRecord) -> bool:
        changed = False
        sccs = bottom_up_sccs(module)
        scc_of: Dict[str, int] = {}
        for i, scc in enumerate(sccs):
            for name in scc:
                scc_of[name] = i

        call_sites = CallSiteIndex(module)
        for scc in sccs:
            for caller_name in scc:
                caller = module.get_or_none(caller_name)
                if not isinstance(caller, Function) or caller.is_declaration():
                    continue
                if self._inline_calls_in(
                    caller, scc_of, call_sites, record.inline_history, ctx
                ):
                    # Inlining rewrites its caller alone.
                    record.changed(caller)
                    changed = True
        return changed

    def _inline_calls_in(
        self, caller: Function, scc_of: Dict[str, int], call_sites: CallSiteIndex,
        history: Dict[CallInst, FrozenSet[Function]], ctx: OptContext,
    ) -> bool:
        changed = False
        progress = True
        # Inline history, as LLVM's inliner keeps: each cloned call maps
        # to the callees whose bodies it came from, and
        # none of them is inlined into it again, or a recursive callee
        # would be inlined without end.  It lasts the whole fixpoint run,
        # or a recursion would unroll one level deeper per iteration.
        # Keyed by the call itself, which the map keeps alive, so an
        # erased call's id() cannot come back.
        while progress:
            progress = False
            for inst in caller.instructions():
                callee = self._inlinable_callee(inst, caller, scc_of, call_sites)
                if callee is None or callee in history.get(inst, ()):
                    continue
                ctx.log_requirement(REQ_BOND, callee.name, caller.name, self.name)
                ctx.charge(callee.count_instructions())
                cloned_from = history.pop(inst, frozenset()) | {callee}
                for clone in inline_call_site(inst, callee):
                    history[clone] = cloned_from
                call_sites.recount(caller)
                ctx.count("inline.sites")
                progress = changed = True
                break  # block list changed; restart the scan
        return changed

    @staticmethod
    def _inlinable_callee(
        inst, caller: Function, scc_of: Dict[str, int], call_sites: CallSiteIndex
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
        if size <= INLINE_THRESHOLD:
            return callee
        if (
            callee.is_internal
            and size <= SINGLE_CALLSITE_THRESHOLD
            and call_sites.single_call_site(callee)
        ):
            return callee
        return None


def inline_call_site(call: CallInst, callee: Function) -> List[CallInst]:
    """Inline *callee* at *call*; the call instruction is destroyed.
    Returns the calls cloned from the callee's body."""
    caller = call.function
    block = call.parent

    # Split so the call starts its own block; everything after it is the tail.
    tail = split_block(block, call, new_name=f"{block.name}.tail")

    vmap = ValueMap()
    for arg, actual in zip(callee.args, call.args):
        vmap.put(arg, actual)

    # Clone in reverse-postorder (defs before non-phi uses); drop
    # unreachable callee blocks.
    order = reachable_blocks(callee)
    for cb in order:
        vmap.put_block(cb, caller.add_block(f"{callee.name}.{cb.name}"))

    returns: List[Tuple[Optional[object], BasicBlock]] = []
    phi_fixups = []
    calls: List[CallInst] = []
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
            elif isinstance(clone, CallInst):
                calls.append(clone)
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
    return calls
