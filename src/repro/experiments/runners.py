"""Shared measurement machinery for the evaluation harness.

The §5 protocol: "We replay the seed files collected during a 24-hour
fuzzing campaign.  By replaying the seed files, we can avoid randomness
caused by fuzzing."  Every figure's numbers come from replaying each
program's seed corpus and comparing simulated cycle counts against the
non-instrumented baseline build.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.engine import Odin, RebuildReport
from repro.core.partition import STRATEGY_ODIN
from repro.fuzz.executor import (
    PRESERVED,
    DrCovExecutor,
    Executor,
    LibInstExecutor,
    OdinCovExecutor,
    PlainExecutor,
    SanCovExecutor,
)
from repro.instrument.coverage import OdinCov
from repro.instrument.sancov import build_sancov
from repro.programs.registry import TargetProgram
from repro.toolchain import build_module

# Tool names, in the paper's figure order.
TOOL_ODINCOV = "OdinCov"
TOOL_SANCOV = "SanCov"
TOOL_ODINCOV_NOPRUNE = "OdinCov-NoPrune"
TOOL_DRCOV = "DrCov"
TOOL_LIBINST = "libInst"
ALL_TOOLS = (TOOL_ODINCOV, TOOL_SANCOV, TOOL_ODINCOV_NOPRUNE, TOOL_DRCOV, TOOL_LIBINST)


def replay_cycles(executor: Executor, seeds: List[bytes]) -> int:
    """Cycles to execute every seed once (the measurement pass)."""
    before = executor.total_cycles
    for seed in seeds:
        executor.execute(seed)
    return executor.total_cycles - before


def build_baseline(program: TargetProgram):
    """The compiler's original, non-instrumented O2 output.

    Like a production fuzzing build (-flto of a self-contained target),
    everything except the entry points is internalized, so the baseline
    enjoys the same whole-program optimization Odin's fragments do.
    """
    module = program.compile()
    from repro.opt.pipeline import optimize
    from repro.ir.verifier import verify_module
    from repro.backend.isel import lower_module
    from repro.linker.linker import link
    from repro.toolchain import BuildResult

    optimize(module, 2, internalize=True)
    verify_module(module)
    obj = lower_module(module)
    exe = link([obj])
    return BuildResult(module, exe, obj.compile_ms, exe.link_ms)


def build_odin_engine(
    program: TargetProgram, strategy: str = STRATEGY_ODIN, **kwargs
) -> Odin:
    return Odin(program.compile(), strategy=strategy, preserve=PRESERVED, **kwargs)


@dataclass
class OdinCovSetup:
    """An OdinCov deployment over one target."""

    tool: OdinCov
    executor: OdinCovExecutor
    initial_build: RebuildReport
    prune_rebuilds: List[RebuildReport] = field(default_factory=list)


def deploy_odincov(
    program: TargetProgram, *, prune: bool, seeds: Optional[List[bytes]] = None
) -> OdinCovSetup:
    """Build OdinCov; when pruning, warm it up on the seeds and prune.

    The warm-up replay plays the role of the preceding fuzzing campaign:
    every probe the corpus covers has served its purpose and is removed
    via on-the-fly recompilation before measurement (Untracer-style).
    """
    engine = build_odin_engine(program)
    tool = OdinCov(engine, prune=prune)
    tool.add_all_block_probes()
    initial = tool.build()
    setup = OdinCovSetup(tool, OdinCovExecutor(tool), initial)
    if prune:
        warm_seeds = seeds if seeds is not None else program.seeds()
        for seed in warm_seeds:
            setup.executor.execute(seed)
        report = setup.executor.prune()
        if report.rebuild is not None:
            setup.prune_rebuilds.append(report.rebuild)
    return setup


def measure_tool_cycles(
    program: TargetProgram, tool_name: str, seeds: List[bytes]
) -> int:
    """Replay cycles for one tool on one program."""
    if tool_name == TOOL_ODINCOV:
        setup = deploy_odincov(program, prune=True, seeds=seeds)
        return replay_cycles(setup.executor, seeds)
    if tool_name == TOOL_ODINCOV_NOPRUNE:
        setup = deploy_odincov(program, prune=False)
        return replay_cycles(setup.executor, seeds)
    if tool_name == TOOL_SANCOV:
        san = build_sancov(program.compile())
        return replay_cycles(SanCovExecutor(san), seeds)
    if tool_name == TOOL_DRCOV:
        base = build_baseline(program)
        executor = DrCovExecutor(base.executable)
        # Warm the code cache: block translation is a one-time cost.
        replay_cycles(executor, seeds)
        return replay_cycles(executor, seeds)
    if tool_name == TOOL_LIBINST:
        base = build_baseline(program)
        return replay_cycles(LibInstExecutor(base.executable), seeds)
    raise ValueError(f"unknown tool {tool_name!r}")


def measure_baseline_cycles(program: TargetProgram, seeds: List[bytes]) -> int:
    base = build_baseline(program)
    return replay_cycles(PlainExecutor(base.executable), seeds)


def geometric_mean(values: List[float]) -> float:
    if not values:
        return 0.0
    product = 1.0
    for v in values:
        product *= v
    return product ** (1.0 / len(values))


def median(values: List[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2
