"""End-to-end runner + clean-dispatch oracle + instrument regressions."""

import pytest

from repro.core.engine import Odin
from repro.fuzz.executor import PRESERVED, run_input
from repro.instrument.asan import ASanTool
from repro.instrument.ubsan import UBSanTool
from repro.programs.registry import get_program
from repro.variants.oracle import check_clean_dispatch
from repro.variants.runner import run_partisan


class TestRunPartisan:
    @pytest.fixture(scope="class")
    def run(self, json_program):
        return run_partisan(
            json_program,
            budget=0.25,
            executions=120,
            seed=3,
            window=20,
            mode="per-execution",
        )

    def test_report_shape(self, run):
        report = run.report.to_dict()
        for key in (
            "program", "mode", "budget", "achieved_overhead", "call_shares",
            "execution_shares", "family_costs", "mix_final", "deinstrumented",
            "findings", "windows", "probes",
        ):
            assert key in report
        assert report["program"] == "json"
        assert report["executions"] == 120
        assert report["windows"] == 6

    def test_every_family_executed(self, run):
        shares = run.report.call_shares
        assert set(shares) == {"clean", "coverage", "sanitized"}
        assert all(share > 0 for share in shares.values())
        assert abs(sum(shares.values()) - 1.0) < 1e-9
        assert sum(run.report.execution_shares.values()) == pytest.approx(1.0)

    def test_overhead_is_positive_and_costs_ordered(self, run):
        report = run.report
        assert report.achieved_overhead > 0
        costs = report.family_costs
        # Clean executions cost exactly the baseline; sanitized ones more.
        assert costs["clean"] == pytest.approx(1.0)
        assert costs["sanitized"] > costs["coverage"] > 0.99

    def test_coverage_recorded_as_findings(self, run):
        assert run.report.findings["coverage_blocks"] > 0

    def test_deterministic_given_a_seed(self, json_program):
        a = run_partisan(json_program, executions=60, seed=9, window=20)
        b = run_partisan(json_program, executions=60, seed=9, window=20)
        assert a.report.to_dict() == b.report.to_dict()

    def test_seeds_differ(self, json_program):
        a = run_partisan(json_program, executions=60, seed=9, window=20)
        b = run_partisan(json_program, executions=60, seed=10, window=20)
        assert a.report.call_shares != b.report.call_shares


class TestCleanDispatchOracle:
    @pytest.mark.parametrize("name", ["json", "woff2"])
    def test_equivalence_holds(self, name):
        report = check_clean_dispatch(get_program(name), max_inputs=3)
        assert report.ok, report.mismatches
        assert report.inputs == 3
        assert "ok" in report.summary()

    def test_detects_behaviour_divergence(self, monkeypatch, json_program):
        # Sabotage dispatch so "clean-only" routing secretly runs the
        # sanitized family: the oracle must notice the cycle drift.
        from repro.linker.variants import VariantExecutable

        original = VariantExecutable.dispatch

        def skewed(self, index, family):
            return original(self, index, "sanitized")

        monkeypatch.setattr(VariantExecutable, "dispatch", skewed)
        report = check_clean_dispatch(json_program, max_inputs=2)
        assert not report.ok
        assert any("cycles" in m for m in report.mismatches)


class TestInstrumentRegressions:
    """Satellite regressions riding along with the subsystem."""

    def test_prune_hot_checks_rejects_bad_fraction(self, json_program):
        engine = Odin(json_program.compile(), preserve=PRESERVED)
        tool = ASanTool(engine)
        tool.add_all_access_probes()
        tool.build()
        for bad in (0.0, -0.2, 1.5):
            with pytest.raises(ValueError, match="hot_fraction"):
                tool.prune_hot_checks(hot_fraction=bad)

    def test_prune_hot_checks_accepts_boundary(self, json_program):
        engine = Odin(json_program.compile(), preserve=PRESERVED)
        tool = ASanTool(engine)
        tool.add_all_access_probes()
        tool.build()
        # 1.0 is inside the domain; with no profile data nothing is hot.
        assert tool.prune_hot_checks(hot_fraction=1.0) is None

    def test_recording_runtimes_do_not_trap(self, json_program):
        # trap=False is what lets the sanitized family run "production"
        # traffic: violations are recorded, execution continues.
        engine = Odin(json_program.compile(), preserve=PRESERVED)
        asan = ASanTool(engine, trap=False)
        asan.add_all_access_probes()
        ubsan = UBSanTool(engine, trap=False)
        ubsan.add_all_overflow_probes()
        asan.build()
        vm = asan.make_vm(extra_runtime=ubsan.runtime)
        result = run_input(vm, json_program.seeds(0)[0])
        assert result.trap is None
