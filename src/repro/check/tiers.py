"""Tier-sweep differential check (``repro check --tiers``).

The tiered fast path (patch / memo / full, see ``core/engine.py``) is
only a fast path if every tier produces the *same artifacts*.  This
module replays one seeded probe schedule through three engine
configurations side by side:

* **patch** — stage-1 probe patching on, object cache on, memo off: pure
  toggles are serviced by patching the cached master object;
* **memo**  — patching off, object cache off, pass memoization on: every
  rebuild re-lowers, but optimized IR is replayed from the memo;
* **full**  — everything off: the classic from-scratch incremental path.

All three sessions execute the same corpus inputs and apply the same
probe ops (picked once, applied by id everywhere, so a behavioural
divergence cannot cascade into a state divergence).  After every
effective step the sweep asserts, pairwise against the full path:

1. *object bytes* — each fragment's canonical object fingerprint;
2. *linked image* — the executable's canonical fingerprint;
3. *behaviour* — exit code, stdout, trap, cycles and coverage per input.

Zero divergences is the acceptance bar: the fast tiers are not allowed
to be merely "close" to the slow one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.check.schedules import (
    STEP_DISABLE,
    STEP_ENABLE,
    STEP_PRUNE,
    ProbeSchedule,
    pick_step,
)
from repro.check.oracle import diff_engines
from repro.core.engine import Odin
from repro.fuzz.executor import PRESERVED, OdinCovExecutor
from repro.instrument.coverage import OdinCov
from repro.programs.registry import TargetProgram
from repro.utils.rng import DeterministicRNG

# Tier label -> engine configuration.  The full path is last so the two
# fast tiers always diff against the slowest, most conservative build.
TIER_LABELS = ("patch", "memo", "full")


@dataclass
class TierStepOutcome:
    """One replayed step across all tiers."""

    index: int
    kind: str
    applied: int                 # probe ops applied (0 = no-op step)
    compared: bool
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


@dataclass
class TierScheduleOutcome:
    schedule: ProbeSchedule
    steps: List[TierStepOutcome] = field(default_factory=list)
    # Tier label -> count of rebuilds whose report landed on that tier;
    # proves the sweep exercised the fast paths, not just the fallback.
    tiers_hit: Dict[str, int] = field(default_factory=dict)
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None and all(step.ok for step in self.steps)


@dataclass
class TierSweepReport:
    """Everything ``repro check --tiers`` learned about one program."""

    program: str
    schedules: List[TierScheduleOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.schedules)

    @property
    def comparisons(self) -> int:
        return sum(
            1
            for outcome in self.schedules
            for step in outcome.steps
            if step.compared
        )

    @property
    def tiers_hit(self) -> Dict[str, int]:
        total: Dict[str, int] = {}
        for outcome in self.schedules:
            for tier, count in outcome.tiers_hit.items():
                total[tier] = total.get(tier, 0) + count
        return total

    @property
    def mismatches(self) -> List[str]:
        out = []
        for outcome in self.schedules:
            if outcome.error is not None:
                out.append(
                    f"schedule #{outcome.schedule.schedule_id}: {outcome.error}"
                )
            for step in outcome.steps:
                for mismatch in step.mismatches:
                    out.append(
                        f"schedule #{outcome.schedule.schedule_id} "
                        f"step {step.index} ({step.kind}): {mismatch}"
                    )
        return out

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.mismatches)} DIVERGENCES"
        hit = ", ".join(
            f"{tier}={count}" for tier, count in sorted(self.tiers_hit.items())
        )
        return (
            f"{self.program}: tier sweep, {len(self.schedules)} schedules, "
            f"{self.comparisons} comparisons, tiers hit [{hit}], {status}"
        )


class _TierSession:
    """One tier's live engine + coverage tool + executor."""

    def __init__(self, program: TargetProgram, label: str):
        self.label = label
        kwargs = dict(preserve=PRESERVED)
        if label == "patch":
            from repro.service.cache import InMemoryCodeCache

            kwargs.update(
                enable_patching=True,
                object_cache=InMemoryCodeCache(),
            )
        elif label == "memo":
            from repro.service.cache import PassMemoCache

            kwargs.update(enable_patching=False, pass_memo=PassMemoCache())
        else:  # full
            kwargs.update(enable_patching=False)
        self.engine = Odin(program.compile(), **kwargs)
        self.tool = OdinCov(self.engine)
        self.tool.add_all_block_probes()
        self.tool.build()
        self.executor = OdinCovExecutor(self.tool)
        self.rebuilds_before = len(self.engine.history)

    def probes_by_id(self) -> Dict[int, object]:
        return {p.id: p for p in self.engine.manager}

    def apply_ops(self, kind: str, ids: List[int]) -> None:
        probes = self.probes_by_id()
        for pid in ids:
            probe = probes[pid]
            if kind == STEP_DISABLE:
                self.engine.manager.disable(probe)
            elif kind == STEP_ENABLE:
                self.engine.manager.enable(probe)
            else:  # remove (covers prune too)
                self.tool.probes.pop(pid, None)
                self.engine.manager.remove(probe)
        if kind == STEP_PRUNE:
            self.tool.runtime.clear()
        self.engine.rebuild_if_needed()
        self.executor._refresh_vm()

    def new_tiers(self) -> List[str]:
        """Tier labels of rebuilds since the last call."""
        fresh = self.engine.history[self.rebuilds_before:]
        self.rebuilds_before = len(self.engine.history)
        return [report.tier for report in fresh]


class TierSweep:
    """Replays schedules through every tier and diffs all layers."""

    def __init__(self, program: TargetProgram, *, max_inputs: int = 4):
        self.program = program
        inputs = program.seeds()
        if not inputs:
            raise ValueError(f"program {program.name!r} has an empty seed corpus")
        self.inputs: List[bytes] = inputs[:max_inputs]

    def run(self, schedules: List[ProbeSchedule]) -> TierSweepReport:
        report = TierSweepReport(self.program.name)
        for schedule in schedules:
            report.schedules.append(self.check_schedule(schedule))
        return report

    def check_schedule(self, schedule: ProbeSchedule) -> TierScheduleOutcome:
        outcome = TierScheduleOutcome(schedule)
        sessions = [_TierSession(self.program, label) for label in TIER_LABELS]
        lead = sessions[0]
        try:
            rng = DeterministicRNG(schedule.seed)
            cursor = 0
            for index, step in enumerate(schedule.steps):
                for _ in range(step.inputs):
                    data = self.inputs[cursor % len(self.inputs)]
                    for session in sessions:
                        session.executor.execute(data)
                    cursor += 1
                ids = self._pick_ids(lead, step, rng)
                step_outcome = TierStepOutcome(index, step.kind, len(ids), False)
                if ids:
                    for session in sessions:
                        session.apply_ops(step.kind, ids)
                        for tier in session.new_tiers():
                            outcome.tiers_hit[tier] = (
                                outcome.tiers_hit.get(tier, 0) + 1
                            )
                    step_outcome.compared = True
                    # Every fast tier against the full path, all layers.
                    full = sessions[-1].engine
                    step_outcome.mismatches = [
                        f"{session.label}: {mismatch}"
                        for session in sessions[:-1]
                        for mismatch in diff_engines(
                            session.engine, full, self.inputs, "full"
                        )
                    ]
                outcome.steps.append(step_outcome)
        except Exception as error:  # surface, do not crash the sweep
            outcome.error = f"{type(error).__name__}: {error}"
        return outcome

    # -- op selection ------------------------------------------------------------

    def _pick_ids(
        self, lead: _TierSession, step, rng: DeterministicRNG
    ) -> List[int]:
        """Pick the step's probe ids once, on the lead session.

        Every session then applies the same ids, so the three probe
        states stay aligned by construction — a behaviour bug shows up
        as a comparison mismatch, never as schedule drift.
        """
        if step.kind == STEP_PRUNE:
            live = {p.id for p in lead.engine.manager}
            return sorted(
                pid for pid in lead.tool.runtime.covered_ids() if pid in live
            )
        return [p.id for p in pick_step(lead.engine.manager, step, rng)]
