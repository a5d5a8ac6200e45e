"""Deterministic simulated clock.

The paper reports wall-clock compile and link durations (Fig. 11, Fig. 12,
the 82 ms headline).  Real wall-clock measurements of a Python reimplementation
would say more about CPython than about Odin's design, so all reported
durations come from deterministic cost models that *advance* a simulated
clock.  pytest-benchmark still measures real time separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class SimClock:
    """Accumulates simulated milliseconds, with a running total per label.

    Only the totals are kept, so an engine's clock stays the same size
    however many rebuilds advance it.  Each total adds its advances in
    order from 0.0, the same floats a sum over every advance gives.
    """

    now_ms: float = 0.0
    _totals: Dict[str, float] = field(default_factory=dict)

    def advance(self, ms: float, label: str = "") -> None:
        """Advance the clock by *ms* milliseconds under an optional label."""
        if ms < 0:
            raise ValueError(f"cannot advance clock by negative time: {ms}")
        self.now_ms += ms
        if label:
            self._totals[label] = self._totals.get(label, 0.0) + ms

    def total(self, label: str) -> float:
        """Return the total simulated time spent under *label*."""
        return self._totals.get(label, 0.0)

    def breakdown(self) -> Dict[str, float]:
        """Return label -> total ms for every label, in first-use order."""
        return dict(self._totals)

    def reset(self) -> None:
        self.now_ms = 0.0
        self._totals.clear()
