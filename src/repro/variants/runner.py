"""Drive a program under a variant mix and budget; report what happened.

:func:`run_partisan` is the subsystem's front door (the CLI's
``repro partisan`` and the overhead benchmark both sit on it):

1. build every family of the spec into one merged image;
2. measure the clean standalone baseline over the seed corpus;
3. run *executions* dispatched executions
   (:func:`repro.budget.replay`), feeding each one's cycle count to the
   :class:`~repro.variants.controller.BudgetController`;
4. whenever the controller de-instruments a hot function the merged
   image is relinked — the next execution runs on a new VM;
5. fold everything into a :class:`PartisanReport`: per-variant execution
   shares, achieved overhead vs. the budget, de-instrumented symbols,
   recorded sanitizer findings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.budget import BudgetConfig, baseline_cycles, replay, seed_inputs
from repro.fuzz.executor import PRESERVED
from repro.instrument.asan import ASanRuntime
from repro.instrument.coverage import CoverageRuntime
from repro.instrument.ubsan import UBSanRuntime
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.programs.registry import TargetProgram
from repro.variants.builder import VariantBuilder
from repro.variants.controller import BudgetController
from repro.variants.dispatch import MODE_PER_EXECUTION, VariantSelector


@dataclass
class PartisanReport:
    """One partitioned-sanitization run, JSON-serializable."""

    program: str
    mode: str
    seed: int
    budget: float
    executions: int
    dispatch_tax: int
    baseline_cycles: int
    dispatched_cycles: int
    achieved_overhead: float
    final_window_overhead: Optional[float]
    converged: bool
    windows: int
    probes: Dict[str, int]
    call_shares: Dict[str, float]
    execution_shares: Dict[str, float]
    family_costs: Dict[str, float]
    mix_final: Dict[str, float]
    deinstrumented: List[str]
    pinned: Dict[str, str]
    relinks: int
    findings: Dict[str, int]

    def to_dict(self) -> dict:
        return {
            "program": self.program,
            "mode": self.mode,
            "seed": self.seed,
            "budget": self.budget,
            "executions": self.executions,
            "dispatch_tax": self.dispatch_tax,
            "baseline_cycles": self.baseline_cycles,
            "dispatched_cycles": self.dispatched_cycles,
            "achieved_overhead": self.achieved_overhead,
            "final_window_overhead": self.final_window_overhead,
            "converged": self.converged,
            "windows": self.windows,
            "probes": dict(self.probes),
            "call_shares": dict(self.call_shares),
            "execution_shares": dict(self.execution_shares),
            "family_costs": dict(self.family_costs),
            "mix_final": dict(self.mix_final),
            "deinstrumented": list(self.deinstrumented),
            "pinned": dict(self.pinned),
            "relinks": self.relinks,
            "findings": dict(self.findings),
        }

    def summary(self) -> str:
        shares = ", ".join(
            f"{name}={share:.2f}" for name, share in sorted(self.call_shares.items())
        )
        deinst = (
            f", de-instrumented: {', '.join(self.deinstrumented)}"
            if self.deinstrumented
            else ""
        )
        return (
            f"{self.program}: {self.executions} executions ({self.mode}), "
            f"overhead {self.achieved_overhead:+.3f} vs budget "
            f"{self.budget:+.3f} ({'converged' if self.converged else 'not converged'}), "
            f"call shares {{{shares}}}{deinst}"
        )


@dataclass
class PartisanRun:
    """The report plus the live objects (for tests, benchmarks, traces)."""

    report: PartisanReport
    builder: VariantBuilder
    selector: VariantSelector
    controller: BudgetController
    tracer: Tracer
    metrics: MetricsRegistry


def _collect_findings(builder: VariantBuilder) -> Dict[str, int]:
    findings = {"asan_violations": 0, "ubsan_fires": 0, "coverage_blocks": 0}
    for fb in builder.builds.values():
        for tool in fb.tools:
            runtime = tool.runtime
            if isinstance(runtime, ASanRuntime):
                findings["asan_violations"] += len(runtime.violations)
            elif isinstance(runtime, UBSanRuntime):
                findings["ubsan_fires"] += sum(runtime.fire_counts.values())
            elif isinstance(runtime, CoverageRuntime):
                findings["coverage_blocks"] += len(runtime.covered_ids())
    return findings


def run_partisan(
    program: TargetProgram,
    *,
    budget: float = 0.25,
    executions: int = 240,
    seed: int = 1,
    mode: str = MODE_PER_EXECUTION,
    window: int = 30,
    dispatch_tax: int = 0,
    max_inputs: int = 4,
) -> PartisanRun:
    """Run *program* under a variant mix held to an overhead budget."""
    inputs = seed_inputs(program, seed, max_inputs)
    tracer = Tracer()
    builder = VariantBuilder(program.compile, preserve=PRESERVED, tracer=tracer)
    builder.build()

    # Clean standalone baseline: the default family's own image, no
    # dispatch, no probe runtimes — what "no instrumentation" costs.
    baseline = baseline_cycles(
        builder.build_for(builder.spec.default).engine.executable, inputs
    )

    selector = VariantSelector(
        builder.spec.initial_mix(), seed=seed, mode=mode
    )
    controller = BudgetController(
        builder,
        selector,
        BudgetConfig(
            target_overhead=budget,
            window=window,
            protected=frozenset(PRESERVED),
        ),
    )
    for result, base in replay(
        inputs,
        baseline,
        executions,
        lambda: builder.make_vm(selector=selector, dispatch_tax=dispatch_tax),
        lambda: builder.executable,
    ):
        family = (
            selector.last_execution_family
            if mode == MODE_PER_EXECUTION
            else None
        )
        controller.record_execution(result.cycles, base, family)

    probes = {
        name: sum(
            1
            for tool in fb.tools
            for probe in tool.probes.values()
            if probe.enabled
        )
        for name, fb in builder.builds.items()
    }
    report = PartisanReport(
        program=program.name,
        mode=mode,
        seed=seed,
        budget=budget,
        executions=executions,
        dispatch_tax=dispatch_tax,
        baseline_cycles=controller.total_baseline,
        dispatched_cycles=controller.total_cycles,
        achieved_overhead=controller.achieved_overhead,
        final_window_overhead=controller.last_window_overhead,
        converged=controller.converged,
        windows=len(controller.windows),
        probes=probes,
        call_shares=selector.call_shares(),
        execution_shares=selector.execution_shares(),
        family_costs=controller.family_costs(),
        mix_final=dict(selector.mix),
        deinstrumented=list(builder.deinstrumented),
        pinned=dict(selector.pinned),
        relinks=builder.relinks,
        findings=_collect_findings(builder),
    )
    return PartisanRun(
        report=report,
        builder=builder,
        selector=selector,
        controller=controller,
        tracer=tracer,
        metrics=controller.metrics,
    )
