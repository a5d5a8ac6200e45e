"""Deterministic probe-state schedules for the differential oracle.

A schedule is a short random program over the probe-state API: run a few
corpus inputs, then disable / enable / remove a handful of probes or run
an Untracer-style prune — the exact operation mix a fuzzing campaign
exercises (§4's dynamic add/remove/change, §2.1's pruning).  Schedules
are pure data: the concrete probes touched are resolved at replay time
from the schedule's own seed, so the same schedule replays identically
against the incremental engine and the from-scratch reference.

Everything is driven by :class:`repro.utils.rng.DeterministicRNG`;
``generate_schedules(n, seed)`` is a pure function of its arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple, TypeVar

from repro.service.jobs import OP_DISABLE, OP_ENABLE, OP_REMOVE
from repro.utils.rng import DeterministicRNG

T = TypeVar("T")

# Step kinds: the service's probe-op kinds, each applied by
# ``ProbeOp.apply``, plus prune, which removes every covered live probe.
STEP_DISABLE = OP_DISABLE
STEP_ENABLE = OP_ENABLE
STEP_REMOVE = OP_REMOVE
STEP_PRUNE = "prune"
STEP_KINDS = (STEP_DISABLE, STEP_ENABLE, STEP_REMOVE, STEP_PRUNE)

# Generation weights: toggles dominate (fuzzers flip probe sets far more
# often than they prune), removal and pruning stay common enough that
# every multi-step schedule shrinks the probe population.
_KIND_WEIGHTS = (
    (STEP_DISABLE, 30),
    (STEP_ENABLE, 25),
    (STEP_REMOVE, 25),
    (STEP_PRUNE, 20),
)


@dataclass(frozen=True)
class ScheduleStep:
    """One probe-state mutation, preceded by a burst of executions."""

    kind: str
    count: int = 1   # probes to touch (disable/enable/remove)
    inputs: int = 2  # corpus inputs executed before the mutation

    def __post_init__(self):
        if self.kind not in STEP_KINDS:
            raise ValueError(f"unknown step kind {self.kind!r}")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.inputs < 0:
            raise ValueError("inputs must be >= 0")

    def describe(self) -> str:
        if self.kind == STEP_PRUNE:
            return f"run {self.inputs}, prune covered"
        return f"run {self.inputs}, {self.kind} {self.count}"


@dataclass(frozen=True)
class ProbeSchedule:
    """A deterministic sequence of probe-state mutations.

    ``seed`` drives the replay-time probe picks; it is derived from the
    generator seed and the schedule id, so two oracles replaying the
    same schedule always touch the same probes.
    """

    schedule_id: int
    seed: int
    steps: Tuple[ScheduleStep, ...]

    def describe(self) -> str:
        inner = "; ".join(step.describe() for step in self.steps)
        return f"schedule #{self.schedule_id} (seed {self.seed}): {inner}"


def weighted_choice(rng: DeterministicRNG, table: Sequence[Tuple[T, int]]) -> T:
    """Pick a key from ``(key, weight)`` pairs with one ``randint`` roll."""
    roll = rng.randint(1, sum(weight for _, weight in table))
    for key, weight in table:
        roll -= weight
        if roll <= 0:
            return key
    return table[-1][0]  # pragma: no cover - unreachable


def _weighted_kind(rng: DeterministicRNG, include_prune: bool) -> str:
    return weighted_choice(rng, [
        (kind, weight)
        for kind, weight in _KIND_WEIGHTS
        if include_prune or kind != STEP_PRUNE
    ])


def generate_schedules(
    count: int,
    seed: int,
    *,
    min_steps: int = 3,
    max_steps: int = 6,
    max_probes_per_step: int = 4,
    max_inputs_per_step: int = 3,
    include_prune: bool = True,
) -> List[ProbeSchedule]:
    """Generate *count* schedules, a pure function of the arguments."""
    if count < 0:
        raise ValueError("count must be >= 0")
    if not 1 <= min_steps <= max_steps:
        raise ValueError("need 1 <= min_steps <= max_steps")
    rng = DeterministicRNG(seed)
    schedules: List[ProbeSchedule] = []
    for schedule_id in range(count):
        replay_seed = rng.randint(0, 2**62)
        steps = tuple(
            ScheduleStep(
                kind=_weighted_kind(rng, include_prune),
                count=rng.randint(1, max_probes_per_step),
                inputs=rng.randint(0, max_inputs_per_step),
            )
            for _ in range(rng.randint(min_steps, max_steps))
        )
        schedules.append(ProbeSchedule(schedule_id, replay_seed, steps))
    return schedules


def pick_targets(
    rng: DeterministicRNG, eligible: Sequence[T], count: int
) -> List[T]:
    """Deterministically pick up to *count* distinct items from *eligible*.

    The caller passes a stably ordered sequence (the oracle sorts live
    probes by id); sampling is without replacement so one step never
    issues the same op twice.
    """
    remaining = list(eligible)
    picked: List[T] = []
    while remaining and len(picked) < count:
        picked.append(remaining.pop(rng.randint(0, len(remaining) - 1)))
    return picked


def pick_step(manager, step: ScheduleStep, rng: DeterministicRNG) -> list:
    """The probes a disable / enable / remove step touches.

    Eligible probes are selected by kind and sorted by id before
    :func:`pick_targets` draws from them, so the pick is a pure function
    of the probe state and *rng* on every replayer.
    """
    if step.kind == STEP_DISABLE:
        eligible = [p for p in manager if p.enabled]
    elif step.kind == STEP_ENABLE:
        eligible = [p for p in manager if not p.enabled]
    elif step.kind == STEP_REMOVE:
        eligible = list(manager)
    else:
        raise ValueError(f"{step.kind} steps pick no probes")
    eligible.sort(key=lambda p: p.id)
    return pick_targets(rng, eligible, step.count)
