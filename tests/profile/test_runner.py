"""run_profile: the end-to-end budgeted profiling loop."""

import pytest

from repro.profile import run_profile
from repro.programs.registry import get_program


@pytest.fixture(scope="module")
def json_run():
    return run_profile(
        get_program("json"), budget=0.25, executions=100, window=20, seed=1
    )


class TestRunProfile:
    def test_converges_into_budget_band(self, json_run):
        report = json_run.report
        assert report.converged
        final = report.final_window_overhead
        assert final is not None
        assert final <= 0.25 * 1.25

    def test_toggles_serviced_by_patch_tier(self, json_run):
        report = json_run.report
        assert report.rebuilds >= 1
        assert report.toggles_patch_only
        assert report.compile_batches == 0
        assert all(t in ("patch", "noop") for t in report.rebuild_tiers)

    def test_deinstrumented_hot_cold_retained(self, json_run):
        report = json_run.report
        assert report.deinstrumented
        # De-instrumented symbols were actually called; cold symbols
        # (never called) keep their instrumentation for the report.
        called = {row["symbol"] for row in report.flat if row["calls"]}
        assert set(report.deinstrumented) <= called
        assert report.cold_instrumented
        assert not set(report.cold_instrumented) & called
        assert not set(report.cold_instrumented) & set(report.deinstrumented)

    def test_flat_profile_sorted_and_flagged(self, json_run):
        flat = json_run.report.flat
        incl = [row["incl_cycles"] for row in flat]
        assert incl == sorted(incl, reverse=True)
        off = {row["symbol"] for row in flat if not row["enabled"]}
        assert off == set(json_run.report.deinstrumented)

    def test_edges_report_call_paths(self, json_run):
        edges = json_run.report.edges
        assert edges
        callers = {e["caller"] for e in edges}
        assert "<root>" in callers  # the entry edge
        assert all(e["calls"] > 0 for e in edges)

    def test_report_roundtrips_to_json(self, json_run):
        import json as json_mod

        payload = json_mod.loads(json_mod.dumps(json_run.report.to_dict()))
        assert payload["program"] == "json"
        assert payload["toggles_patch_only"] is True

    def test_span_tree_recorded(self, json_run):
        roots = [
            s for s in json_run.tracer.roots() if s.name.startswith("profile:")
        ]
        assert len(roots) == 1
        assert roots[0].find("run_input") is not None

    def test_protected_entry_points_stay_instrumented(self, json_run):
        assert not {"main", "run_input"} & set(json_run.report.deinstrumented)

    def test_custom_config_respected(self):
        run = run_profile(
            get_program("lcms"),
            budget=5.0,  # huge budget: nothing to remove
            executions=40,
            window=10,
        )
        assert run.report.budget == 5.0
        assert "vs budget +5.000" in run.report.summary()
        assert run.report.windows == 4
        assert not run.report.deinstrumented
        assert run.report.probes_enabled == run.report.probes_total
        assert run.report.converged  # under the floor, fully instrumented

    def test_empty_corpus_rejected(self):
        class Hollow:
            name = "hollow"

            def seeds(self, seed):
                return []

        with pytest.raises(ValueError):
            run_profile(Hollow())
