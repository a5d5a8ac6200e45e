"""Drive a program under budgeted profiling; report what happened.

:func:`run_profile` is the subsystem's front door (the CLI's
``repro profile`` and the overhead benchmark both sit on it):

1. build a clean engine and measure the baseline cycles of each seed
   input (what "no instrumentation" costs);
2. build a fully instrumented engine — enter/exit probes on every
   defined function — under a :class:`~repro.profile.tool.Profiler`;
3. run *executions* executions (:func:`repro.budget.replay`), feeding
   each cycle count to the
   :class:`~repro.profile.controller.ProfileOverheadController`, which
   de-instruments hot symbols (pure patch-tier toggles) until the
   slowdown converges into the budget band;
4. fold everything into a :class:`ProfileReport`: flat + call-path
   profile, edges, de-instrumented vs. still-cold symbols, convergence,
   and the toggle-rebuild tier evidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.budget import BudgetConfig, baseline_cycles, replay, seed_inputs
from repro.core.engine import Odin
from repro.fuzz.executor import PRESERVED
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.programs.registry import TargetProgram
from repro.profile.controller import ProfileOverheadController
from repro.profile.tool import Profiler


@dataclass
class ProfileReport:
    """One budgeted profiling run, JSON-serializable."""

    program: str
    seed: int
    budget: float
    executions: int
    window: int
    baseline_cycles: int
    profiled_cycles: int
    achieved_overhead: float
    final_window_overhead: Optional[float]
    converged: bool
    windows: int
    probes_total: int
    probes_enabled: int
    flat: List[dict]                 # per-symbol rows, hottest first
    edges: List[dict]                # caller -> callee call counts
    deinstrumented: List[str]        # flipped off by the controller
    cold_instrumented: List[str]     # zero calls seen, still instrumented
    unattributed: int                # counter events with no live probe
    rebuilds: int                    # controller actuations
    rebuild_tiers: List[str]         # worst tier of each actuation
    compile_batches: int             # fragments actually compiled by them
    toggles_patch_only: bool         # every actuation pure patch/noop

    def to_dict(self) -> dict:
        return {
            "program": self.program,
            "seed": self.seed,
            "budget": self.budget,
            "executions": self.executions,
            "window": self.window,
            "baseline_cycles": self.baseline_cycles,
            "profiled_cycles": self.profiled_cycles,
            "achieved_overhead": self.achieved_overhead,
            "final_window_overhead": self.final_window_overhead,
            "converged": self.converged,
            "windows": self.windows,
            "probes_total": self.probes_total,
            "probes_enabled": self.probes_enabled,
            "flat": [dict(row) for row in self.flat],
            "edges": [dict(row) for row in self.edges],
            "deinstrumented": list(self.deinstrumented),
            "cold_instrumented": list(self.cold_instrumented),
            "unattributed": self.unattributed,
            "rebuilds": self.rebuilds,
            "rebuild_tiers": list(self.rebuild_tiers),
            "compile_batches": self.compile_batches,
            "toggles_patch_only": self.toggles_patch_only,
        }

    def summary(self) -> str:
        deinst = (
            f", de-instrumented: {', '.join(self.deinstrumented)}"
            if self.deinstrumented
            else ""
        )
        return (
            f"{self.program}: {self.executions} executions, "
            f"overhead {self.achieved_overhead:+.3f} vs budget "
            f"{self.budget:+.3f} "
            f"({'converged' if self.converged else 'not converged'}), "
            f"{self.probes_enabled}/{self.probes_total} probes live, "
            f"{self.rebuilds} toggle rebuilds "
            f"({'patch-only' if self.toggles_patch_only else 'COMPILED'})"
            f"{deinst}"
        )


@dataclass
class ProfileRun:
    """The report plus the live objects (for tests, benchmarks, traces)."""

    report: ProfileReport
    tool: Profiler
    controller: ProfileOverheadController
    engine: Odin
    tracer: Tracer
    metrics: MetricsRegistry


def run_profile(
    program: TargetProgram,
    *,
    budget: float = 0.25,
    executions: int = 300,
    seed: int = 1,
    window: int = 20,
    max_inputs: int = 4,
) -> ProfileRun:
    """Profile *program* under an overhead budget."""
    inputs = seed_inputs(program, seed, max_inputs)
    tracer = Tracer()
    metrics = MetricsRegistry()

    # Clean baseline: an uninstrumented engine over the same module.
    clean = Odin(program.compile(), preserve=PRESERVED)
    clean.initial_build()
    baseline = baseline_cycles(clean.executable, inputs)

    engine = Odin(program.compile(), preserve=PRESERVED, tracer=tracer)
    tool = Profiler(engine, metrics=metrics)
    tool.add_all_function_probes()
    tool.build()
    controller = ProfileOverheadController(
        tool,
        BudgetConfig(
            target_overhead=budget,
            window=window,
            protected=frozenset(PRESERVED),
        ),
        metrics=metrics,
    )
    for result, base in replay(
        inputs, baseline, executions, tool.make_vm, lambda: engine.executable
    ):
        tool.runtime.finish_execution(result.cycles)
        controller.record_execution(result.cycles, base)

    # Final sync: runtime event counts -> probe.calls annotations; what
    # cannot be attributed any more lands in tool.unattributed.
    tool.sync_profiles(clear=True)
    tool.runtime.publish(metrics)
    tracer.record(tool.runtime.span_tree(f"profile:{program.name}"))

    runtime = tool.runtime
    enabled_symbols = {
        p.target_symbol() for p in tool.probes.values() if p.enabled
    }
    flat = [
        {
            "symbol": stats.symbol,
            "calls": stats.calls,
            "incl_cycles": stats.incl_cycles,
            "excl_cycles": stats.excl_cycles,
            "enabled": stats.symbol in enabled_symbols,
        }
        for stats in sorted(
            runtime.stats.values(),
            key=lambda s: (-s.incl_cycles, s.symbol),
        )
    ]
    edges = [
        {"caller": caller, "callee": callee, "calls": count}
        for (caller, callee), count in sorted(
            runtime.edges.items(), key=lambda kv: (-kv[1], kv[0])
        )
    ]
    called = {sym for sym, stats in runtime.stats.items() if stats.calls}
    cold = sorted(
        sym
        for sym in tool.probes.symbols()
        if sym not in called and sym in enabled_symbols
    )
    compile_batches = sum(
        1
        for report in controller.rebuilds
        for tier in report.fragment_tiers.values()
        if tier == "full"
    )

    report = ProfileReport(
        program=program.name,
        seed=seed,
        budget=budget,
        executions=executions,
        window=window,
        baseline_cycles=controller.total_baseline,
        profiled_cycles=controller.total_cycles,
        achieved_overhead=controller.achieved_overhead,
        final_window_overhead=controller.last_window_overhead,
        converged=controller.converged,
        windows=len(controller.windows),
        probes_total=len(tool.probes),
        probes_enabled=sum(
            1 for probe in tool.probes.values() if probe.enabled
        ),
        flat=flat,
        edges=edges,
        deinstrumented=sorted(controller.deinstrumented),
        cold_instrumented=cold,
        unattributed=tool.unattributed,
        rebuilds=len(controller.rebuilds),
        rebuild_tiers=[r.tier for r in controller.rebuilds],
        compile_batches=compile_batches,
        toggles_patch_only=controller.toggles_patch_only,
    )
    return ProfileRun(
        report=report,
        tool=tool,
        controller=controller,
        engine=engine,
        tracer=tracer,
        metrics=metrics,
    )
