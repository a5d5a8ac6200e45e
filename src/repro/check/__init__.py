"""``repro check``: the differential rebuild oracle (PR 2).

Odin's central claim — an incremental rebuild is semantically identical
to recompiling the world (§3.3, Algorithm 2) — was unfalsifiable in this
repo until now.  This package makes it testable, in the spirit of
FuzzyFlow's cutout-based differential testing of program transformations:

* :mod:`repro.check.schedules` — deterministic random probe-state
  schedules (seeded RNG) whose step kinds are the service's probe-op
  kinds (enable/disable/remove) plus prune;
* :mod:`repro.check.oracle` — one replay loop with two referees:
  ``DifferentialOracle`` replays each schedule incrementally (engine or
  recompilation service) and from scratch, and ``TierSweep`` replays it
  through the patch and full recompile tiers side by side
  (``repro check --tiers``); both assert object-byte, linked-image and
  behavioural equivalence over a seed corpus (``diff_engines``, the one
  three-layer diff every replayer uses);
* :mod:`repro.check.chaos` — replays per-campaign schedules under seeded
  faults against one of two targets, the supervised service (worker
  crash/hang, cache corruption, dispatcher restart, expired deadlines)
  or the sharded cluster (shard kill/hang, router partition), and judges
  every campaign's final state with the oracle (``repro chaos``,
  ``repro cluster``);
* :mod:`repro.check.faults` — injects persistent-cache faults (truncated
  objects, torn writes, corrupt/stale index) and asserts every fault
  degrades to a cache miss, never to wrong code;
* :mod:`repro.check.invariants` — direct checks of the scheduler's
  stage-3 back propagation and content-key determinism.

Surfaced as ``python -m repro check`` and a bounded CI sweep.
"""

from repro.check.chaos import (
    FAULT_KINDS,
    ChaosReport,
    ChaosRunner,
    ChaosSchedule,
    ClusterChaos,
    FaultEvent,
    ServiceChaos,
    generate_chaos_schedules,
    generate_cluster_chaos_schedules,
)
from repro.check.faults import run_fault_checks
from repro.check.invariants import (
    RecordingCache,
    check_backpropagation,
    check_content_key_determinism,
    run_invariant_checks,
)
from repro.check.oracle import (
    CheckReport,
    DifferentialOracle,
    ScheduleOutcome,
    StepOutcome,
    TierSweep,
    TierSweepReport,
)
from repro.check.schedules import (
    STEP_DISABLE,
    STEP_ENABLE,
    STEP_KINDS,
    STEP_PRUNE,
    STEP_REMOVE,
    ProbeSchedule,
    ScheduleStep,
    generate_schedules,
    pick_targets,
)

__all__ = [
    "ChaosReport",
    "ChaosRunner",
    "ChaosSchedule",
    "CheckReport",
    "ClusterChaos",
    "DifferentialOracle",
    "FAULT_KINDS",
    "FaultEvent",
    "ProbeSchedule",
    "RecordingCache",
    "STEP_DISABLE",
    "STEP_ENABLE",
    "STEP_KINDS",
    "STEP_PRUNE",
    "STEP_REMOVE",
    "ScheduleOutcome",
    "ScheduleStep",
    "ServiceChaos",
    "StepOutcome",
    "TierSweep",
    "TierSweepReport",
    "check_backpropagation",
    "check_content_key_determinism",
    "generate_chaos_schedules",
    "generate_cluster_chaos_schedules",
    "generate_schedules",
    "pick_targets",
    "run_fault_checks",
    "run_invariant_checks",
]
