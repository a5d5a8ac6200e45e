"""CFG simplification.

The paper names "Simplify CFG" as the pass that "can combine multiple basic
blocks into one" (§2.2, distortion class 4) — which is precisely what makes
late coverage instrumentation imprecise and early instrumentation an
optimization barrier.  The speculation rewrite here refuses to touch blocks
containing side-effecting instructions, so a probe call (an opaque
``call``) pins its block in place.

Rewrites, iterated to a fixpoint:

1. remove unreachable blocks (in the first round, and after a round
   that folded a branch)
2. fold constant conditional branches and single-target switches
3. merge a block into its unique predecessor
4. skip empty forwarding blocks
5. speculate small side-effect-free diamonds/triangles into ``select``
"""

from __future__ import annotations

from typing import Container, Dict, List, Set

from repro.ir.analysis import predecessor_map, reachable_blocks
from repro.ir.builder import IRBuilder
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
    SelectInst,
    StoreInst,
    SwitchInst,
)
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.values import ConstantInt
from repro.opt.pass_manager import FunctionPass, OptContext

# Instructions that may be executed speculatively (hoisted past a branch).
# Loads are excluded (may fault), calls are excluded (arbitrary effects) —
# the latter is what makes early-inserted probes block this rewrite.
_SPECULATABLE = (BinaryInst, IcmpInst, CastInst, SelectInst, GepInst, FreezeInst)
_SPECULATION_BUDGET = 4


def _speculatable(block: BasicBlock) -> bool:
    body = block.instructions[:-1]
    if len(body) > _SPECULATION_BUDGET:
        return False
    for inst in body:
        if not isinstance(inst, _SPECULATABLE):
            return False
        if isinstance(inst, BinaryInst) and inst.opcode in ("sdiv", "udiv", "srem", "urem"):
            divisor = inst.rhs
            if not (isinstance(divisor, ConstantInt) and not divisor.is_zero()):
                return False  # may trap
    return True


def remove_unreachable_blocks(fn: Function, live: Container[BasicBlock]) -> int:
    """Delete every block of *fn* not in *live*, with the phi incomings
    it gave live blocks; returns how many blocks went."""
    dead = [b for b in fn.blocks if b not in live]
    for block in dead:
        for succ in block.successors():
            if succ in live:
                for phi in succ.phis():
                    phi.remove_incoming(block)
        fn.remove_block(block)
    return len(dead)


class SimplifyCFG(FunctionPass):
    name = "simplifycfg"

    def run_on_function(self, fn: Function, module: Module, ctx: OptContext) -> bool:
        changed = False
        progress = folded = True
        while progress:
            # Only a folded branch disconnects blocks: merging, forwarding
            # and speculation delete only blocks whose predecessors they
            # retarget.
            progress = folded and self._remove_unreachable(fn, ctx)
            folded = self._fold_constant_branches(fn, ctx)
            progress |= folded
            progress |= self._merge_into_predecessor(fn, ctx)
            progress |= self._skip_forwarding_blocks(fn, ctx)
            progress |= self._speculate(fn, ctx)
            changed |= progress
        return changed

    # -- 1: unreachable blocks ------------------------------------------------

    @staticmethod
    def _remove_unreachable(fn: Function, ctx: OptContext) -> bool:
        removed = remove_unreachable_blocks(fn, set(reachable_blocks(fn)))
        if removed:
            ctx.count("simplifycfg.unreachable_removed", removed)
        return bool(removed)

    # -- 2: constant branches ---------------------------------------------------

    @staticmethod
    def _fold_constant_branches(fn: Function, ctx: OptContext) -> bool:
        changed = False
        for block in list(fn.blocks):
            term = block.terminator
            if isinstance(term, BranchInst) and term.is_conditional:
                cond = term.cond
                if isinstance(cond, ConstantInt):
                    taken, not_taken = (
                        (term.targets[0], term.targets[1])
                        if cond.value
                        else (term.targets[1], term.targets[0])
                    )
                    term.erase()
                    if not_taken is not taken:
                        for phi in not_taken.phis():
                            phi.remove_incoming(block)
                    IRBuilder.at_end(block).br(taken)
                    ctx.count("simplifycfg.constant_branch")
                    changed = True
                elif term.targets[0] is term.targets[1]:
                    target = term.targets[0]
                    term.erase()
                    IRBuilder.at_end(block).br(target)
                    changed = True
            elif isinstance(term, SwitchInst) and isinstance(term.value, ConstantInt):
                value = term.value.value
                taken = term.default
                for const, case_block in term.cases:
                    if const.value == value:
                        taken = case_block
                        break
                skipped = [b for b in term.successors() if b is not taken]
                term.erase()
                seen: Set[int] = set()
                for b in skipped:
                    if id(b) in seen:
                        continue
                    seen.add(id(b))
                    for phi in b.phis():
                        phi.remove_incoming(block)
                IRBuilder.at_end(block).br(taken)
                ctx.count("simplifycfg.constant_switch")
                changed = True
        return changed

    # -- 3: merge into predecessor --------------------------------------------------

    @staticmethod
    def _merge_into_predecessor(fn: Function, ctx: OptContext) -> bool:
        changed = False
        # One map for the sweep, kept exact below, instead of a scan of
        # every terminator per block.
        preds = predecessor_map(fn)
        for block in list(fn.blocks):
            if block is fn.entry or block.parent is None:
                continue
            if len(preds[block]) != 1:
                continue
            pred = preds[block][0]
            if pred is block:
                continue
            term = pred.terminator
            if not (isinstance(term, BranchInst) and not term.is_conditional):
                continue
            # Fold single-incoming phis.
            for phi in block.phis():
                fn.replace_all_uses(phi, phi.incoming_for(pred))
                phi.erase()
            term.erase()
            for inst in list(block.instructions):
                inst.parent = None
                block.instructions.remove(inst)
                inst.parent = pred
                pred.instructions.append(inst)
            for succ in pred.successors():
                for phi in succ.phis():
                    phi.replace_incoming_block(block, pred)
                # pred had no other successor, so it takes block's place.
                preds[succ] = [pred if p is block else p for p in preds[succ]]
            fn.remove_block(block)
            ctx.count("simplifycfg.merged")
            changed = True
        return changed

    # -- 4: empty forwarding blocks ---------------------------------------------------

    @staticmethod
    def _skip_forwarding_blocks(fn: Function, ctx: OptContext) -> bool:
        changed = False
        # One map for the sweep, built at the first candidate and kept
        # exact below, order included: a block's predecessor order is the
        # order of the phi incomings a forward adds.
        pred_map = order = None
        for block in list(fn.blocks):
            if block is fn.entry or block.parent is None:
                continue
            if len(block.instructions) != 1:
                continue
            term = block.terminator
            if not (isinstance(term, BranchInst) and not term.is_conditional):
                continue
            target = term.targets[0]
            if target is block:
                continue
            if pred_map is None:
                pred_map = predecessor_map(fn)
                order = {b: i for i, b in enumerate(fn.blocks)}
            preds = pred_map[block]
            if not preds:
                continue
            # Safe only if retargeting creates no conflicting phi edges.
            target_pred_ids = {id(p) for p in pred_map[target]}
            if any(id(p) in target_pred_ids for p in preds) and target.phis():
                continue
            if target.phis() and any(
                isinstance(p.terminator, SwitchInst) for p in preds
            ):
                # switch may have several edges to the same block; keep simple
                continue
            for phi in target.phis():
                value = phi.incoming_for(block)
                phi.remove_incoming(block)
                for pred in preds:
                    phi.add_incoming(value, pred)
            for pred in preds:
                pterm = pred.terminator
                if isinstance(pterm, (BranchInst, SwitchInst)):
                    pterm.replace_target(block, target)
            fn.remove_block(block)
            # Blocks are only removed during the sweep, so `order` still
            # sorts the survivors into `fn.blocks` order.
            pred_map[target] = sorted(
                {*pred_map[target], *preds} - {block}, key=order.__getitem__
            )
            del pred_map[block]
            ctx.count("simplifycfg.forwarded")
            changed = True
        return changed

    # -- 5: speculation (diamond/triangle -> select) ----------------------------------------

    def _speculate(self, fn: Function, ctx: OptContext) -> bool:
        changed = False
        # One map for the sweep; `_try_speculate` keeps its entries exact
        # as sets (only their lengths are read here).
        preds = predecessor_map(fn)
        for block in list(fn.blocks):
            if block.parent is None:
                continue
            term = block.terminator
            if not (isinstance(term, BranchInst) and term.is_conditional):
                continue
            then_block, else_block = term.targets
            if then_block is else_block:
                continue
            if self._try_speculate(fn, block, term, then_block, else_block, preds, ctx):
                changed = True
        return changed

    def _try_speculate(
        self,
        fn: Function,
        block: BasicBlock,
        term: BranchInst,
        then_block: BasicBlock,
        else_block: BasicBlock,
        preds: Dict[BasicBlock, List[BasicBlock]],
        ctx: OptContext,
    ) -> bool:
        cond = term.cond

        def is_simple_arm(arm: BasicBlock, join: BasicBlock) -> bool:
            if arm is block or arm is join:
                return False
            t = arm.terminator
            return (
                isinstance(t, BranchInst)
                and not t.is_conditional
                and t.targets[0] is join
                and len(preds[arm]) == 1
                and not arm.phis()
                and _speculatable(arm)
            )

        # Diamond: block -> then/else -> join.
        then_term = then_block.terminator
        if isinstance(then_term, BranchInst) and not then_term.is_conditional:
            join = then_term.targets[0]
            if join is not else_block and is_simple_arm(then_block, join) and is_simple_arm(else_block, join):
                self._hoist(block, then_block)
                self._hoist(block, else_block)
                builder = IRBuilder.before(term)
                for phi in join.phis():
                    tv = phi.incoming_for(then_block)
                    ev = phi.incoming_for(else_block)
                    sel = builder.select(cond, tv, ev) if tv is not ev else tv
                    phi.remove_incoming(then_block)
                    phi.remove_incoming(else_block)
                    phi.add_incoming(sel, block)
                term.erase()
                IRBuilder.at_end(block).br(join)
                fn.remove_block(then_block)
                fn.remove_block(else_block)
                # Neither arm was `block`, so `block` was not yet a
                # predecessor of `join`.
                del preds[then_block], preds[else_block]
                preds[join] = [
                    p for p in preds[join]
                    if p is not then_block and p is not else_block
                ]
                preds[join].append(block)
                ctx.count("simplifycfg.speculated_diamond")
                return True

        # Triangle: block -> then -> join, block -> join (join == else_block).
        for arm, direct, arm_is_then in (
            (then_block, else_block, True),
            (else_block, then_block, False),
        ):
            if is_simple_arm(arm, direct):
                join = direct
                # The direct edge and the arm edge both enter join.
                self._hoist(block, arm)
                builder = IRBuilder.before(term)
                for phi in join.phis():
                    av = phi.incoming_for(arm)
                    dv = phi.incoming_for(block)
                    sel = (
                        builder.select(cond, av, dv)
                        if arm_is_then
                        else builder.select(cond, dv, av)
                    )
                    phi.remove_incoming(arm)
                    phi.remove_incoming(block)
                    phi.add_incoming(sel, block)
                term.erase()
                IRBuilder.at_end(block).br(join)
                fn.remove_block(arm)
                # `block` already entered `join` by the direct edge.
                del preds[arm]
                preds[join] = [p for p in preds[join] if p is not arm]
                ctx.count("simplifycfg.speculated_triangle")
                return True
        return False

    @staticmethod
    def _hoist(dest: BasicBlock, arm: BasicBlock) -> None:
        """Move every non-terminator instruction of *arm* before dest's terminator."""
        term = dest.terminator
        idx = dest.instructions.index(term)
        for inst in arm.instructions[:-1]:
            inst.parent = dest
            dest.instructions.insert(idx, inst)
            idx += 1
        arm.instructions = arm.instructions[-1:]
