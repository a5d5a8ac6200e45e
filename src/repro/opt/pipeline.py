"""Standard optimization pipelines.

``o2_pipeline()`` mirrors the shape of a -O2 run with the passes §2.2
names as fuzzing-semantics distorters: instcombine, simplifycfg, inlining,
dead argument elimination, loop unrolling.  ``o0_pipeline()`` only runs
mem2reg so the backend sees SSA.

``trial_optimize()`` is the partitioner's requirement-collection run
(§3.2): it optimizes a *clone* and returns the logged requirements without
touching the input module.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.ir.clone import clone_module
from repro.ir.module import Module
from repro.opt.cse import EarlyCSE
from repro.opt.dae import DeadArgumentElimination
from repro.opt.dce import DeadCodeElimination
from repro.opt.inline import FunctionInlining
from repro.opt.instcombine import InstCombine
from repro.opt.internalize import GlobalDCE, Internalize
from repro.opt.jump_threading import JumpThreading
from repro.opt.loop_unroll import LoopUnroll
from repro.opt.mem2reg import PromoteMem2Reg
from repro.opt.pass_manager import (
    MAX_FIXPOINT_ITERS, OptContext, Pass, PassManager, Requirement,
)
from repro.opt.simplifycfg import SimplifyCFG


def o0_pipeline() -> PassManager:
    """clang -O0 analogue: no optimization at all (locals stay in stack
    slots with explicit loads/stores, like unoptimized compiler output)."""
    return PassManager([])


def o2_pipeline(
    *, internalize: bool = False, preserve: Iterable[str] = ("main",)
) -> PassManager:
    """The full optimizing pipeline."""
    passes: List[Pass] = [PromoteMem2Reg()]
    if internalize:
        passes.append(Internalize(preserve))
    passes += [
        EarlyCSE(),
        InstCombine(),
        SimplifyCFG(),
        FunctionInlining(),
        DeadArgumentElimination(),
        EarlyCSE(),
        InstCombine(),
        JumpThreading(),
        SimplifyCFG(),
        LoopUnroll(),
        EarlyCSE(),
        InstCombine(),
        SimplifyCFG(),
        DeadCodeElimination(),
        GlobalDCE(),
    ]
    return PassManager(passes)


def optimize(module: Module, level: int = 2, *, verify_each: bool = False,
             sanitize_each: bool = False, internalize: bool = False,
             preserve=("main", "run_input")) -> OptContext:
    """Optimize *module* in place at the given level; returns pass stats.

    ``sanitize_each`` threads the probe-integrity sanitizer through the
    pipeline; its findings come back in ``ctx.diagnostics``.
    """
    pm = o0_pipeline() if level == 0 else o2_pipeline(internalize=internalize, preserve=preserve)
    pm.verify_each = verify_each
    pm.sanitize_each = sanitize_each
    ctx = OptContext()
    if level == 0:
        pm.run(module, ctx)
    else:
        pm.run_until_fixpoint(module, ctx, max_iters=MAX_FIXPOINT_ITERS)
    return ctx


def trial_optimize(module: Module) -> List[Requirement]:
    """Run the O2 pipeline on a clone and return logged requirements.

    The clone is internalized first (everything except main), matching
    the fragment compilation environment where internalization has
    already been decided — so the trial sees the same optimization
    opportunities the real per-fragment compiles will see.
    """
    clone = clone_module(module, f"{module.name}.trial").module
    ctx = OptContext(trial=True)
    pm = o2_pipeline(internalize=True)
    pm.run_until_fixpoint(clone, ctx, max_iters=2)
    return list(ctx.requirements)
