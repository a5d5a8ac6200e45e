"""The budget controller: mix control, de-instrumentation, metrics."""

import pytest

from repro.budget import CONVERGENCE_WINDOWS, BudgetConfig
from repro.fuzz.executor import PRESERVED
from repro.obs.metrics import MetricsRegistry
from repro.variants.builder import VariantBuilder
from repro.variants.controller import HOT_CALL_SHARE, BudgetController
from repro.variants.dispatch import VariantSelector
from repro.variants.spec import FAMILY_CLEAN, FAMILY_COVERAGE, FAMILY_SANITIZED


def make_controller(json_builder):
    selector = VariantSelector(json_builder.spec.initial_mix(), seed=1)
    config = BudgetConfig(
        target_overhead=0.25, window=5, protected=frozenset(PRESERVED)
    )
    return selector, BudgetController(json_builder, selector, config)


def feed_window(controller, overhead, *, baseline=1000, calls=None):
    """Feed one window of synthetic executions at a fixed overhead;
    *calls* optionally simulates call traffic first."""
    for name, n in (calls or {}).items():
        for _ in range(n):
            controller.selector.select(name, FAMILY_CLEAN)
    for _ in range(controller.config.window):
        controller.record_execution(int(baseline * (1 + overhead)), baseline)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            {"target_overhead": 0.0},
            {"target_overhead": -0.5},
            {"window": 0},
        ],
    )
    def test_rejects_bad_config(self, bad):
        with pytest.raises(ValueError):
            BudgetConfig(**bad)


class TestMixControl:
    def test_over_budget_shrinks_instrumented_weights(self, json_builder):
        selector, controller = make_controller(json_builder)
        before = dict(selector.mix)
        feed_window(controller, overhead=1.0)  # 4x the budget
        after = selector.mix
        for family in (FAMILY_COVERAGE, FAMILY_SANITIZED):
            assert after[family] < before[family]
        assert after[FAMILY_CLEAN] > before[FAMILY_CLEAN]

    def test_under_budget_grows_instrumented_weights(self, json_builder):
        selector, controller = make_controller(json_builder)
        before = dict(selector.mix)
        feed_window(controller, overhead=0.02)
        after = selector.mix
        for family in (FAMILY_COVERAGE, FAMILY_SANITIZED):
            assert after[family] > before[family]

    def test_instrumented_weight_never_reaches_zero(self, json_builder):
        selector, controller = make_controller(json_builder)
        for _ in range(20):
            feed_window(controller, overhead=3.0)
        for family in (FAMILY_COVERAGE, FAMILY_SANITIZED):
            assert selector.mix[family] > 0  # cold-path sanitization stays on

    def test_mix_stays_normalized(self, json_builder):
        selector, controller = make_controller(json_builder)
        for overhead in (1.0, 0.01, 2.0, 0.1):
            feed_window(controller, overhead=overhead)
            assert abs(sum(selector.mix.values()) - 1.0) < 1e-9

    def test_convergence_judged_on_recent_windows(self, json_builder):
        _, controller = make_controller(json_builder)
        feed_window(controller, overhead=2.0)
        assert not controller.converged
        for _ in range(CONVERGENCE_WINDOWS - 1):
            feed_window(controller, overhead=0.25)
        assert not controller.converged  # the 2.0 window is still recent
        feed_window(controller, overhead=0.25)
        assert controller.converged
        assert controller.last_window_overhead == pytest.approx(0.25)


class TestDeinstrumentation:
    def test_hot_function_is_deinstrumented(self, json_program):
        builder = VariantBuilder(json_program.compile, preserve=PRESERVED)
        builder.build()
        selector, controller = make_controller(builder)
        feed_window(
            controller,
            overhead=2.0,
            calls={"parse_object": 80, "skip_ws": 10, "peek": 10},
        )
        assert builder.deinstrumented == ["parse_object"]
        assert selector.pinned["parse_object"] == FAMILY_CLEAN
        assert controller.windows[-1].deinstrumented == ["parse_object"]
        assert controller.metrics.counter("partisan.deinstrumented") == 1
        assert controller.metrics.counter("partisan.probes.flipped") > 0
        # The recompile is visible in the shared span tree.
        deinst = [
            s
            for root in builder.tracer.roots()
            for s in root.find_all("partisan.deinstrument")
        ]
        assert deinst and deinst[0].find("rebuild") is not None

    def test_protected_functions_are_skipped(self, json_program):
        builder = VariantBuilder(json_program.compile, preserve=PRESERVED)
        builder.build()
        selector, controller = make_controller(builder)
        feed_window(controller, overhead=2.0, calls={"run_input": 100})
        assert builder.deinstrumented == []
        assert "run_input" not in selector.pinned

    def test_cold_functions_are_not_deinstrumented(self, json_program):
        builder = VariantBuilder(json_program.compile, preserve=PRESERVED)
        builder.build()
        _, controller = make_controller(builder)
        # Calls spread evenly: nobody clears the 25% hotness bar.
        assert HOT_CALL_SHARE > 0.20
        feed_window(
            controller,
            overhead=2.0,
            calls={"parse_object": 20, "parse_array": 20, "parse_string": 20,
                   "skip_ws": 20, "peek": 20},
        )
        assert builder.deinstrumented == []

    def test_within_budget_never_deinstruments(self, json_program):
        builder = VariantBuilder(json_program.compile, preserve=PRESERVED)
        builder.build()
        _, controller = make_controller(builder)
        feed_window(controller, overhead=0.25, calls={"parse_object": 100})
        assert builder.deinstrumented == []

    def test_cap_limits_deinstrumentation(self, json_program):
        # The cap is half the dispatch table: json's has 10 entries, so
        # the sixth hot function in a row stays instrumented.
        builder = VariantBuilder(json_program.compile, preserve=PRESERVED)
        builder.build()
        assert len(builder.executable.variant_index) == 10
        _, controller = make_controller(builder)
        hot = ["parse_object", "parse_array", "parse_value", "parse_string",
               "parse_number", "skip_ws"]
        for name in hot:
            feed_window(controller, overhead=2.0, calls={name: 100})
        assert builder.deinstrumented == hot[:5]
        assert controller.windows[-1].deinstrumented == []


class TestMetrics:
    def test_costs_flow_through_the_registry(self, json_builder):
        metrics = MetricsRegistry()
        selector = VariantSelector(json_builder.spec.initial_mix(), seed=1)
        controller = BudgetController(
            json_builder,
            selector,
            BudgetConfig(target_overhead=0.25, window=10),
            metrics=metrics,
        )
        for _ in range(5):
            controller.record_execution(1000, 1000, FAMILY_CLEAN)
            controller.record_execution(3000, 1000, FAMILY_SANITIZED)
        assert controller.family_cost(FAMILY_CLEAN) == pytest.approx(1.0)
        assert controller.family_cost(FAMILY_SANITIZED) == pytest.approx(3.0)
        assert controller.family_cost(FAMILY_COVERAGE) is None
        assert metrics.gauge("partisan.window.overhead") == pytest.approx(1.0)
        assert metrics.counter("partisan.windows") == 1
        for family in selector.mix:
            assert metrics.gauge(f"partisan.mix.{family}") == pytest.approx(
                selector.mix[family]
            )
        assert controller.achieved_overhead == pytest.approx(1.0)
