"""The PartiSan actuator behind the shared budget loop.

Kreutzer et al.'s observation (PAPERS.md): a fixed sanitizer build either
blows its overhead budget on hot code or wastes budget on cold code.
With co-resident variants the trade-off becomes a control problem: hold
a **target slowdown** (e.g. "at most 25% over clean") while keeping as
much sanitization live as the budget allows.

:class:`repro.budget.BudgetLoop` windows the executions and scores each
window against the clean baseline; at every window close this actuator

1. if the window overhead is above the band ceiling, **de-instruments**
   the hottest still-instrumented function whose window call share
   clears :data:`HOT_CALL_SHARE` (at most half the dispatch table):
   pinned to the clean family *and* stripped of its probes via a
   fragment-level on-the-fly recompile
   (:meth:`~repro.variants.builder.VariantBuilder.deinstrument_symbol`) —
   Odin's §7 story, driven by a budget instead of a fuzzer;
2. rescales the dispatch mix multiplicatively: instrumented families'
   weights move by ``(target / achieved) ** GAIN`` (clamped for
   stability), the clean family absorbs the remainder.  Instrumented
   weights are floored at :data:`MIN_INSTRUMENTED_WEIGHT` so cold-path
   sanitization never switches off entirely.

Costs and decisions flow through a
:class:`~repro.obs.metrics.MetricsRegistry`: per-family cycle ratios are
``observe``-d and read back as the per-variant cost estimate, the mix and
achieved overhead are gauges, de-instrumentations are counters — the same
machinery every other subsystem here reports through.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.budget import BudgetConfig, BudgetLoop, BudgetWindow
from repro.obs.metrics import MetricsRegistry
from repro.variants.builder import VariantBuilder
from repro.variants.dispatch import VariantSelector

_EPS = 1e-9

#: Exponent damping the multiplicative mix step: 1.0 jumps straight to
#: ``target/achieved`` (oscillates on noisy windows), 0.5 takes a
#: half-step in log space.
GAIN = 0.5
#: Per-window clamp on the multiplicative mix step (stability).
MIN_SCALE = 0.5
MAX_SCALE = 2.0
#: Instrumented families never drop below this normalized weight —
#: cold-path sanitization stays always-on.
MIN_INSTRUMENTED_WEIGHT = 0.01
#: ... and never crowd the clean family out entirely.
MAX_INSTRUMENTED_WEIGHT = 0.95
#: Minimum share of a window's calls a function needs before it is hot
#: enough to de-instrument.
HOT_CALL_SHARE = 0.25


class BudgetController(BudgetLoop):
    """Shifts the variant mix to hold a target slowdown."""

    prefix = "partisan"

    def __init__(
        self,
        builder: VariantBuilder,
        selector: VariantSelector,
        config: Optional[BudgetConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        super().__init__(config, metrics)
        self.builder = builder
        self.selector = selector
        self._fn_calls_mark: Dict[str, int] = {}
        self._publish_mix()

    # -- read-backs -------------------------------------------------------------

    def family_cost(self, family: str) -> Optional[float]:
        """Mean cycles-over-baseline ratio observed for *family* — the
        per-variant cost, read back from the metrics registry."""
        stat = self.metrics.latency(f"{self.prefix}.cost.{family}")
        if not stat.count:
            return None
        return stat.total_ms / stat.count

    def family_costs(self) -> Dict[str, float]:
        return {
            name: cost
            for name in self.builder.family_names
            if (cost := self.family_cost(name)) is not None
        }

    # -- the control step -------------------------------------------------------

    def _actuate(self, window: BudgetWindow) -> None:
        if window.achieved_overhead > self.config.band[1]:
            name = self._maybe_deinstrument()
            if name is not None:
                window.deinstrumented.append(name)
        self._rescale_mix(window.achieved_overhead)
        window.mix = dict(self.selector.mix)
        self._fn_calls_mark = dict(self.selector.function_calls)

    def _maybe_deinstrument(self) -> Optional[str]:
        """Pin the hottest eligible function to clean and strip its probes,
        while fewer than half the dispatch table is de-instrumented."""
        exe = self.builder.executable
        table = len(exe.variant_index) if exe is not None else 0
        if len(self.builder.deinstrumented) >= max(1, table // 2):
            return None
        window_calls = {
            name: count - self._fn_calls_mark.get(name, 0)
            for name, count in self.selector.function_calls.items()
        }
        total = sum(window_calls.values())
        if not total:
            return None
        default = self.builder.spec.default
        for name in sorted(
            window_calls, key=lambda n: (-window_calls[n], n)
        ):
            if window_calls[name] / total < HOT_CALL_SHARE:
                break  # sorted descending: nothing below is hot either
            if name in self.config.protected:
                continue
            if self.selector.pinned.get(name) == default:
                continue
            flipped = self.builder.deinstrument_symbol(name)
            self.selector.pin(name, default)
            if flipped:
                self.metrics.inc("partisan.deinstrumented")
                self.metrics.inc(
                    "partisan.probes.flipped", sum(flipped.values())
                )
                return name
            # The symbol carried no probes (pin alone still helps);
            # keep looking for one that does.
        return None

    def _rescale_mix(self, achieved: float) -> None:
        mix = dict(self.selector.mix)  # normalized by the selector
        instrumented = [
            f.name
            for f in self.builder.spec.families
            if f.instrumented and f.name in mix
        ]
        plain = [name for name in mix if name not in instrumented]
        if not instrumented or not plain:
            return
        scale = (self.config.target_overhead / max(achieved, _EPS)) ** GAIN
        scale = min(max(scale, MIN_SCALE), MAX_SCALE)
        new_inst = {
            name: max(mix[name] * scale, MIN_INSTRUMENTED_WEIGHT)
            for name in instrumented
        }
        inst_total = sum(new_inst.values())
        if inst_total > MAX_INSTRUMENTED_WEIGHT:
            shrink = MAX_INSTRUMENTED_WEIGHT / inst_total
            new_inst = {name: w * shrink for name, w in new_inst.items()}
            inst_total = MAX_INSTRUMENTED_WEIGHT
        # The plain (clean) families split the remainder, keeping their
        # relative proportions.
        plain_total = sum(mix[name] for name in plain)
        remainder = 1.0 - inst_total
        new_mix = dict(new_inst)
        for name in plain:
            share = mix[name] / plain_total if plain_total else 1.0 / len(plain)
            new_mix[name] = remainder * share
        self.selector.set_mix(new_mix)
        self._publish_mix()

    def _publish_mix(self) -> None:
        for name, weight in self.selector.mix.items():
            self.metrics.set_gauge(f"partisan.mix.{name}", weight)
