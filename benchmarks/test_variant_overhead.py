"""Run-time partitioned sanitization: budget convergence + variant costs.

Three claims, PartiSan/CaPI-style, on top of Odin's engine:

1. **Budget convergence** — on every benchmarked program the controller
   steers the variant mix until the recent-window slowdown sits inside
   the tolerance band around the 25% budget.
2. **Hot-path de-instrumentation** — persistently hot functions are
   pinned clean and their probes flipped off through a fragment-level
   on-the-fly recompile, observable as a ``partisan.deinstrument`` span
   with the rebuild tree nested inside.
3. **Variant cost ordering** — pinning the whole mix to one family
   yields the expected overhead ladder: clean ≈ 0, coverage in between,
   sanitized highest.
"""

from conftest import write_result

from repro.fuzz.executor import PRESERVED, run_input
from repro.programs.registry import get_program
from repro.variants.builder import VariantBuilder
from repro.variants.dispatch import VariantSelector
from repro.variants.runner import run_partisan
from repro.variants.spec import FAMILY_CLEAN, FAMILY_COVERAGE, FAMILY_SANITIZED

import pytest

PROGRAMS = ("json", "lcms", "libjpeg")
BUDGET = 0.25
EXECUTIONS = 720
WINDOW = 60
SEED = 5


@pytest.fixture(scope="session")
def partisan_runs():
    return {
        name: run_partisan(
            get_program(name),
            budget=BUDGET,
            executions=EXECUTIONS,
            seed=SEED,
            window=WINDOW,
            mode="per-call",
        )
        for name in PROGRAMS
    }


def test_budget_convergence(benchmark, partisan_runs):
    def summarize(runs):
        return {name: run.report.achieved_overhead for name, run in runs.items()}

    overheads = benchmark(summarize, partisan_runs)

    lines = [
        f"budget {BUDGET:+.2f}, {EXECUTIONS} executions, "
        f"window {WINDOW}, per-call dispatch, seed {SEED}",
        f"{'program':>10} {'lifetime':>9} {'last-win':>9} "
        f"{'converged':>9}  mix (clean/cov/san)",
    ]
    for name, run in partisan_runs.items():
        report = run.report
        controller = run.controller
        mix = report.mix_final
        lines.append(
            f"{name:>10} {report.achieved_overhead:>+9.3f} "
            f"{report.final_window_overhead:>+9.3f} "
            f"{str(report.converged):>9}  "
            f"{mix.get(FAMILY_CLEAN, 0):.2f}/{mix.get(FAMILY_COVERAGE, 0):.2f}"
            f"/{mix.get(FAMILY_SANITIZED, 0):.2f}"
        )
        # The controller must land the recent-window mean inside the
        # tolerance band on every program.
        assert report.converged, (
            f"{name}: controller did not converge "
            f"(windows: {[round(w.achieved_overhead, 3) for w in controller.windows]})"
        )
    write_result("variant_budget_convergence.txt", "\n".join(lines))
    assert set(overheads) == set(PROGRAMS)


def test_hot_functions_deinstrumented(partisan_runs):
    lines = [f"{'program':>10} {'de-instrumented':<24} probes-flipped rebuild-span"]
    for name, run in partisan_runs.items():
        report = run.report
        assert report.deinstrumented, (
            f"{name}: no hot function was de-instrumented"
        )
        # Probe flips reached the instrumented families...
        flipped = run.metrics.counter("partisan.probes.flipped")
        assert flipped > 0
        # ...and every de-instrumentation ran a recompile inside its span.
        spans = [
            s
            for root in run.tracer.roots()
            for s in root.find_all("partisan.deinstrument")
        ]
        assert len(spans) >= len(report.deinstrumented)
        rebuilds = sum(1 for s in spans if s.find("rebuild") is not None)
        assert rebuilds >= len(report.deinstrumented)
        for symbol in report.deinstrumented:
            assert run.selector.pinned[symbol] == FAMILY_CLEAN
        lines.append(
            f"{name:>10} {','.join(report.deinstrumented):<24} "
            f"{int(flipped):>14} {rebuilds:>12}"
        )
    write_result("variant_deinstrumentation.txt", "\n".join(lines))


def test_variant_cost_ladder():
    program = get_program("json")
    builder = VariantBuilder(program.compile, preserve=PRESERVED)
    builder.build()
    inputs = program.seeds(SEED)[:4]

    def pinned_cycles(family):
        total = 0
        for data in inputs:
            vm = builder.make_vm(selector=VariantSelector({family: 1.0}))
            total += run_input(vm, data).cycles
        return total

    cycles = {
        family: pinned_cycles(family)
        for family in (FAMILY_CLEAN, FAMILY_COVERAGE, FAMILY_SANITIZED)
    }
    clean = cycles[FAMILY_CLEAN]
    lines = [f"{'family':>10} {'cycles':>10} {'overhead':>9}"]
    for family, total in cycles.items():
        lines.append(
            f"{family:>10} {total:>10} {total / clean - 1.0:>+9.3f}"
        )
    write_result("variant_cost_ladder.txt", "\n".join(lines))
    assert cycles[FAMILY_CLEAN] < cycles[FAMILY_COVERAGE] < cycles[FAMILY_SANITIZED]


def test_findings_survive_recording_mode(partisan_runs):
    # The sanitized family runs in recording (non-trapping) mode; the
    # coverage family must still have observed real blocks on every
    # program — sanitization stayed live under the budget.
    for name, run in partisan_runs.items():
        assert run.report.findings["coverage_blocks"] > 0, name
        assert run.report.probes[FAMILY_SANITIZED] > 0, name
