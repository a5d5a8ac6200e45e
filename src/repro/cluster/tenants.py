"""Per-tenant fairness: weighted admission quotas over a sliding window.

PartiSan-style budget control applied to multi-tenancy: instead of one
global deadline-shed knob, every submit first passes a cluster-level
admission check.  The accountant keeps a sliding window of the most
recent admission *attempts* (admitted or shed, all tenants) and grants
each tenant a slice of it proportional to its weight — but shares are
computed over the tenants *active in the window*, so a lone tenant on an
idle cluster is never throttled (work-conserving), while under
contention a heavy and a light tenant shed in inverse proportion to
their weights.

Degraded mode (a shard breaker opened, or a shard was lost and the
cluster is running with reduced capacity) multiplies *bulk* tenants'
allowance by ``degraded_bulk_factor`` before interactive tenants feel
anything; allowances never drop below one slot, so no tenant is ever
starved outright.

Everything is counted, nothing is timed: admission is a pure function
of the window contents, so seeded chaos schedules replay bit-identically.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional

from repro.errors import ReproError

__all__ = [
    "TIER_INTERACTIVE",
    "TIER_BULK",
    "TENANT_TIERS",
    "TenantSpec",
    "TenantQuotaError",
    "TenantAccountant",
]

TIER_INTERACTIVE = "interactive"
TIER_BULK = "bulk"
TENANT_TIERS = (TIER_INTERACTIVE, TIER_BULK)


class TenantQuotaError(ReproError):
    """Submit shed by the admission controller; retry after the hint."""

    def __init__(self, message: str, *, tenant_id: str = "",
                 retry_after_s: Optional[float] = None):
        super().__init__(message)
        self.tenant_id = tenant_id
        self.retry_after_s = retry_after_s


@dataclass(frozen=True)
class TenantSpec:
    """Identity + scheduling class of one tenant."""

    tenant_id: str
    weight: float = 1.0
    tier: str = TIER_INTERACTIVE

    def __post_init__(self):
        if not self.tenant_id:
            raise ValueError("tenant_id must be non-empty")
        if self.weight <= 0:
            raise ValueError(f"tenant weight must be > 0, got {self.weight}")
        if self.tier not in TENANT_TIERS:
            raise ValueError(
                f"tier must be one of {TENANT_TIERS}, got {self.tier!r}"
            )


@dataclass
class _TenantCounters:
    admitted: int = 0
    shed_quota: int = 0
    shed_deadline: int = 0
    replies: int = 0
    resubmits: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "admitted": self.admitted,
            "shed_quota": self.shed_quota,
            "shed_deadline": self.shed_deadline,
            "replies": self.replies,
            "resubmits": self.resubmits,
        }


@dataclass
class _TenantState:
    spec: TenantSpec
    counters: _TenantCounters = field(default_factory=_TenantCounters)


class TenantAccountant:
    """Weighted fair admission + per-tenant campaign accounting."""

    # Shed hint when the caller has no breaker-derived delay to offer:
    # roughly one window turnover at interactive submit rates.
    DEFAULT_RETRY_AFTER_S = 0.05

    def __init__(self, *, window: int = 64,
                 degraded_bulk_factor: float = 0.25):
        if window < 1:
            raise ValueError("window must be >= 1")
        if not 0 < degraded_bulk_factor <= 1:
            raise ValueError("degraded_bulk_factor must be in (0, 1]")
        self.window_size = window
        self.degraded_bulk_factor = degraded_bulk_factor
        self._lock = threading.Lock()
        self._tenants: Dict[str, _TenantState] = {}
        self._window: Deque[str] = deque(maxlen=window)
        self._degraded = False

    # -- registration ---------------------------------------------------------

    def register(self, spec: TenantSpec) -> None:
        with self._lock:
            if spec.tenant_id in self._tenants:
                raise ReproError(f"tenant {spec.tenant_id!r} already registered")
            self._tenants[spec.tenant_id] = _TenantState(spec)

    def spec(self, tenant_id: str) -> TenantSpec:
        with self._lock:
            return self._state(tenant_id).spec

    # -- degraded mode --------------------------------------------------------

    @property
    def degraded(self) -> bool:
        with self._lock:
            return self._degraded

    def set_degraded(self, value: bool) -> None:
        with self._lock:
            self._degraded = bool(value)

    # -- admission ------------------------------------------------------------

    def _state(self, tenant_id: str) -> _TenantState:
        state = self._tenants.get(tenant_id)
        if state is None:
            raise ReproError(f"unknown tenant {tenant_id!r}")
        return state

    def _allowance_locked(self, tenant_id: str) -> int:
        """Window slots *tenant_id* may hold, given current contention."""
        state = self._state(tenant_id)
        active = {tid for tid in self._window}
        active.add(tenant_id)
        total_weight = sum(
            self._tenants[tid].spec.weight for tid in active
            if tid in self._tenants
        )
        share = state.spec.weight / total_weight if total_weight else 1.0
        allowance = max(1, math.ceil(share * self.window_size))
        if self._degraded and state.spec.tier == TIER_BULK:
            allowance = max(1, math.floor(allowance * self.degraded_bulk_factor))
        return allowance

    def allowance(self, tenant_id: str) -> int:
        with self._lock:
            return self._allowance_locked(tenant_id)

    def admit(self, tenant_id: str, *,
              retry_after_s: Optional[float] = None) -> None:
        """Admit one submit or raise :class:`TenantQuotaError`.

        Every attempt — admitted or shed — enters the sliding window, so
        a tenant hammering past its quota keeps displacing history and
        stays throttled until it backs off.
        """
        with self._lock:
            state = self._state(tenant_id)
            allowance = self._allowance_locked(tenant_id)
            # Count *after* appending: the bounded window evicts the
            # oldest attempt, so a tenant at 100% share (alone on the
            # cluster) holds exactly window_size slots and is admitted.
            self._window.append(tenant_id)
            held = sum(1 for tid in self._window if tid == tenant_id)
            if held > allowance:
                state.counters.shed_quota += 1
                hint = retry_after_s
                if hint is None:
                    hint = self.DEFAULT_RETRY_AFTER_S
                raise TenantQuotaError(
                    f"tenant {tenant_id!r} over quota "
                    f"({held}>{allowance} window slots"
                    + (", degraded" if self._degraded else "")
                    + ")",
                    tenant_id=tenant_id,
                    retry_after_s=hint,
                )
            state.counters.admitted += 1

    # -- campaign accounting --------------------------------------------------

    def note_reply(self, tenant_id: str) -> None:
        with self._lock:
            self._state(tenant_id).counters.replies += 1

    def note_deadline_expired(self, tenant_id: str) -> None:
        with self._lock:
            self._state(tenant_id).counters.shed_deadline += 1

    def note_resubmit(self, tenant_id: str) -> None:
        with self._lock:
            self._state(tenant_id).counters.resubmits += 1

    # -- export ---------------------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            return {
                "window": self.window_size,
                "window_depth": len(self._window),
                "degraded": self._degraded,
                "degraded_bulk_factor": self.degraded_bulk_factor,
                "tenants": {
                    tid: {
                        "weight": state.spec.weight,
                        "tier": state.spec.tier,
                        "allowance": self._allowance_locked(tid),
                        **state.counters.to_dict(),
                    }
                    for tid, state in sorted(self._tenants.items())
                },
            }
