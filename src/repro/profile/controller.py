"""The profiling actuator behind the shared budget loop.

The CaPI/Score-P problem (PAPERS.md) driven through Odin: full
function-level profiling of a hot program can cost far more than a user
is willing to pay, but a *static* instrumentation selection has to guess
which symbols are hot.  :class:`repro.budget.BudgetLoop` measures
instead, window by window; at each close this actuator attributes the
window's probe overhead to symbols exactly (every prof event has a fixed
cost-model price) and **de-instruments** the hottest symbols until the
projected slowdown sits inside the budget band — re-instrumenting cold
ones if the budget frees up.

Unlike :class:`repro.variants.controller.BudgetController`, which shifts
a dispatch mix over co-resident variants, every actuation here is a pure
probe *toggle*: the flipped probes are patchable, so each control step is
serviced by the engine's stage-1 patch tier — probe sites toggled in the
cached master objects, zero compile batches.  The rebuild reports are
kept as evidence (:attr:`ProfileOverheadController.rebuilds`).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.budget import BudgetConfig, BudgetLoop, BudgetWindow
from repro.core.engine import RebuildReport, TIER_NOOP, TIER_PATCH
from repro.obs.metrics import MetricsRegistry
from repro.profile.runtime import PROF_ENTER_COST, PROF_EXIT_COST
from repro.profile.tool import Profiler

#: Tiers a pure probe-toggle rebuild is allowed to land on.
TOGGLE_TIERS = frozenset({TIER_PATCH, TIER_NOOP})


class ProfileOverheadController(BudgetLoop):
    """Toggles profiling probes per symbol to hold a target slowdown."""

    prefix = "profile"

    def __init__(
        self,
        tool: Profiler,
        config: Optional[BudgetConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        super().__init__(config, metrics)
        self.tool = tool
        #: Rebuild report of every actuation — the patch-tier evidence.
        self.rebuilds: List[RebuildReport] = []
        #: Symbol -> estimated overhead fraction it carried when flipped
        #: off (the re-instrumentation ranking reads this).
        self.deinstrumented: Dict[str, float] = {}
        # Snapshot of the runtime's lifetime per-symbol event ledger at
        # the last window boundary; deltas give this window's overhead.
        self._events_mark: Dict[str, List[int]] = {}

    # -- read-backs -------------------------------------------------------------

    def _settled(self, mean: float) -> bool:
        """Below target with every symbol still instrumented is a fixed
        point too: a program whose full instrumentation is cheaper than
        the budget has nothing left to converge toward."""
        return mean < self.config.target_overhead and not self.deinstrumented

    @property
    def toggles_patch_only(self) -> bool:
        """Did every actuation land on the patch/noop tier (no compiles)?"""
        return all(
            tier in TOGGLE_TIERS
            for report in self.rebuilds
            for tier in report.fragment_tiers.values()
        )

    # -- the control step -------------------------------------------------------

    def _window_symbol_overheads(self) -> Dict[str, int]:
        """Probe-overhead cycles each symbol charged *this window*."""
        current: Dict[str, List[int]] = self.tool.runtime.symbol_events
        out: Dict[str, int] = {}
        for symbol, (enters, exits) in current.items():
            m_enter, m_exit = self._events_mark.get(symbol, (0, 0))
            cyc = (
                (enters - m_enter) * PROF_ENTER_COST
                + (exits - m_exit) * PROF_EXIT_COST
            )
            if cyc > 0:
                out[symbol] = cyc
        return out

    def _actuate(self, window: BudgetWindow) -> None:
        lo, hi = self.config.band
        achieved = window.achieved_overhead
        if achieved > hi:
            window.deinstrumented = self._deinstrument(achieved)
        elif achieved < lo and self.deinstrumented:
            window.reinstrumented = self._reinstrument(achieved)
        window.rebuild_tier = self._rebuild(
            window.deinstrumented, window.reinstrumented
        )
        self._events_mark = {
            sym: list(ev) for sym, ev in self.tool.runtime.symbol_events.items()
        }

    def _deinstrument(self, achieved: float) -> List[str]:
        """Flip off the hottest symbols until the projected overhead is
        back inside the band (without undershooting its floor)."""
        lo, hi = self.config.band
        if not self._win_baseline:
            return []
        overheads = self._window_symbol_overheads()
        est = {
            sym: cyc / self._win_baseline
            for sym, cyc in overheads.items()
            if sym not in self.config.protected and sym not in self.deinstrumented
        }
        flipped: List[str] = []
        projected = achieved
        while projected > hi and est:
            # A single flip that lands at or below the ceiling finishes
            # the step: prefer the hottest one that stays inside the band,
            # else the one undershooting the least.  If no single flip
            # reaches the ceiling, strip the hottest and keep going.
            fits = [s for s in est if projected - est[s] <= hi]
            in_band = [s for s in fits if projected - est[s] >= lo]
            if in_band:
                pick = max(in_band, key=lambda s: (est[s], s))
            elif fits:
                pick = min(fits, key=lambda s: (est[s], s))
            else:
                pick = max(est, key=lambda s: (est[s], s))
            if self.tool.set_symbol_probes_enabled(pick, False) == 0:
                del est[pick]
                continue
            self.deinstrumented[pick] = est.pop(pick)
            projected -= self.deinstrumented[pick]
            flipped.append(pick)
            self.metrics.inc("profile.deinstrumented")
        return flipped

    def _reinstrument(self, achieved: float) -> List[str]:
        """Budget freed up: flip the coldest de-instrumented symbol back
        on, provided its estimated cost fits under the band ceiling."""
        hi = self.config.band[1]
        ranked = sorted(
            self.deinstrumented, key=lambda s: (self.deinstrumented[s], s)
        )
        flipped: List[str] = []
        projected = achieved
        for symbol in ranked:
            est = self.deinstrumented[symbol]
            if projected + est > hi:
                break  # sorted ascending: nothing hotter fits either
            if self.tool.set_symbol_probes_enabled(symbol, True) == 0:
                del self.deinstrumented[symbol]
                continue
            del self.deinstrumented[symbol]
            projected += est
            flipped.append(symbol)
            self.metrics.inc("profile.reinstrumented")
            break  # one per window: conservative, avoids oscillation
        return flipped

    def _rebuild(
        self, flipped_off: List[str], flipped_on: List[str]
    ) -> Optional[str]:
        if not flipped_off and not flipped_on:
            return None
        report = self.tool.engine.rebuild_if_needed()
        if report is None:
            return TIER_NOOP
        self.rebuilds.append(report)
        self.metrics.set_gauge("profile.rebuild.patched", float(report.patched))
        return report.tier
