"""The differential rebuild oracle (Algorithm 2's missing referee).

Odin's correctness claim is that an incremental rebuild is semantically
identical to recompiling the world (§3.3).  The oracle makes that claim
falsifiable, FuzzyFlow-style: replay a probe-state schedule two ways —

* **incrementally**, through the live engine (or the recompilation
  service, batching and caches included), exactly as a fuzzing campaign
  would drive it;
* **from scratch**, by compiling a fresh engine from the original source
  into the same probe state with a single full build;

and after every effective step assert three layers of equivalence:

1. *object bytes* — every fragment's canonical object serialization;
2. *linked image* — the executable's canonical bytes;
3. *behaviour* — exit code, stdout, trap, cycle count and per-input
   coverage maps over a seed corpus.

:class:`TierSweep` (``repro check --tiers``) runs the same replay loop
over two engines side by side — the patch and full recompile tiers —
and diffs the patch tier against the full path at the same three
layers.  Zero divergences is the bar: a fast tier may not be merely
"close" to the slow one.

Any divergence is reported with the schedule, step and layer that
exposed it, which is what makes the report actionable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.engine import Odin
from repro.check.schedules import STEP_PRUNE, ProbeSchedule, pick_step
from repro.fuzz.executor import PRESERVED, OdinCovExecutor, run_input
from repro.instrument.coverage import CoverageRuntime, OdinCov
from repro.linker.linker import Executable
from repro.programs.registry import TargetProgram
from repro.service.cache import InMemoryCodeCache
from repro.service.jobs import OP_REMOVE, ProbeOp
from repro.service.server import RecompilationService
from repro.utils.rng import DeterministicRNG
from repro.vm.interpreter import VM

#: (exit code, stdout, trap, cycles, covered probe ids) of one input.
Behaviour = Tuple[int, bytes, Optional[str], int, FrozenSet[int]]
BEHAVIOUR_FIELDS = ("exit_code", "stdout", "trap", "cycles", "coverage")


def run_with_coverage(executable: Optional[Executable], data: bytes) -> Behaviour:
    """Run one input on a fresh VM + coverage runtime."""
    if executable is None:
        return (-1, b"", "no executable", 0, frozenset())
    runtime = CoverageRuntime()
    result = run_input(VM(executable, probe_runtime=runtime), data)
    covered = frozenset(pid for pid, hits in runtime.counters.items() if hits)
    return (result.exit_code, result.stdout, result.trap, result.cycles, covered)


def diff_engines(
    engine: Odin, reference: Odin, inputs: Sequence[bytes], against: str
) -> List[str]:
    """Diff *engine* against *reference* layer by layer.

    Fragment set, then each fragment's object bytes, the linked image,
    and the behaviour of every input; *against* names the reference in
    the mismatch text.  A differing fragment set ends the diff: the
    deeper layers cannot line up.
    """
    objs = engine.object_fingerprints()
    ref_objs = reference.object_fingerprints()
    if set(objs) != set(ref_objs):
        return [
            f"linked fragment set differs from {against} "
            f"({sorted(objs)} != {sorted(ref_objs)})"
        ]
    mismatches = [
        f"fragment #{fid} object bytes differ "
        f"({objs[fid][:12]} vs {against} {ref_objs[fid][:12]})"
        for fid in sorted(ref_objs)
        if objs[fid] != ref_objs[fid]
    ]
    exe_fp = engine.executable_fingerprint()
    ref_fp = reference.executable_fingerprint()
    if exe_fp != ref_fp:
        mismatches.append(
            f"linked image differs ({str(exe_fp)[:12]} vs {against} "
            f"{str(ref_fp)[:12]})"
        )
    if engine.executable is None or reference.executable is None:
        mismatches.append("an engine has no executable to compare")
        return mismatches
    for data in inputs:
        got = run_with_coverage(engine.executable, data)
        ref = run_with_coverage(reference.executable, data)
        for name, a, b in zip(BEHAVIOUR_FIELDS, got, ref):
            if a != b:
                mismatches.append(
                    f"input {data[:16]!r}: {name} differs "
                    f"({a!r} vs {against} {b!r})"
                )
    return mismatches


@dataclass
class StepOutcome:
    """One replayed step: what ran and whether equivalence held."""

    index: int
    kind: str
    applied: int            # probe ops applied (0 = no-op step)
    compared: bool = False  # was the step diffed against a reference?
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


@dataclass
class ScheduleOutcome:
    schedule: ProbeSchedule
    steps: List[StepOutcome] = field(default_factory=list)
    # Tier label -> count of rebuilds whose report landed on that tier;
    # proves a tier sweep exercised the fast paths, not just the fallback.
    tiers_hit: Dict[str, int] = field(default_factory=dict)
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None and all(step.ok for step in self.steps)

    @property
    def comparisons(self) -> int:
        return sum(1 for step in self.steps if step.compared)


@dataclass
class CheckReport:
    """Everything ``repro check`` learned about one program."""

    program: str
    schedules: List[ScheduleOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.schedules)

    @property
    def comparisons(self) -> int:
        return sum(outcome.comparisons for outcome in self.schedules)

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
        status = "ok" if self.ok else f"{len(self.mismatches)} MISMATCHES"
        return (
            f"{self.program}: {len(self.schedules)} schedules, "
            f"{self.comparisons} rebuild comparisons, {status}"
        )


class TierSweepReport(CheckReport):
    """Everything ``repro check --tiers`` learned about one program."""

    @property
    def tiers_hit(self) -> Dict[str, int]:
        total: Dict[str, int] = {}
        for outcome in self.schedules:
            for tier, count in outcome.tiers_hit.items():
                total[tier] = total.get(tier, 0) + count
        return total

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.mismatches)} DIVERGENCES"
        hit = ", ".join(
            f"{tier}={count}" for tier, count in sorted(self.tiers_hit.items())
        )
        return (
            f"{self.program}: tier sweep, {len(self.schedules)} schedules, "
            f"{self.comparisons} comparisons, tiers hit [{hit}], {status}"
        )


class _Session:
    """One live side of a replay: engine, coverage tool and executor.

    With *service* options the engine is registered on a
    :class:`~repro.service.server.RecompilationService` (background
    dispatcher, shared content cache, worker pool) and every
    probe op travels through a client — the full production path.
    *odin_kwargs* configure the engine either way.
    """

    def __init__(
        self,
        program: TargetProgram,
        label: str = "",
        service: Optional[dict] = None,
        **odin_kwargs,
    ):
        self.label = label
        self.service = None
        self.client = None
        module = program.compile()
        if service is None:
            self.engine = Odin(module, preserve=PRESERVED, **odin_kwargs)
        else:
            self.service = RecompilationService(**service)
            self.engine = self.service.register_target(
                program.name, module, preserve=PRESERVED, **odin_kwargs
            )
            self.client = self.service.client(program.name, "oracle")
        self.tool = OdinCov(self.engine)
        self.tool.add_all_block_probes()
        if self.service is None:
            self.tool.build()
        else:
            self.service.build(program.name)
            self.service.start()
        self.executor = OdinCovExecutor(self.tool)

    def close(self) -> None:
        if self.service is not None:
            self.service.close()

    def pick(self, step, rng: DeterministicRNG) -> List[int]:
        """The probe ids *step* touches, picked on this session.

        The lead session picks once and every session applies the same
        ids, so their probe states stay aligned by construction — a
        behaviour bug shows up as a mismatch, never as schedule drift.
        """
        if step.kind == STEP_PRUNE:
            return sorted(
                pid for pid in self.tool.runtime.covered_ids()
                if pid in self.tool.probes
            )
        return [p.id for p in pick_step(self.engine.manager, step, rng)]

    def apply(self, kind: str, ids: List[int]) -> Optional[str]:
        """Apply one step's ops by id and rebuild; returns the rebuild's
        tier (None when nothing was pending).  A prune removes the ids,
        then clears the coverage runtime."""
        ops = [ProbeOp(OP_REMOVE if kind == STEP_PRUNE else kind, pid)
               for pid in ids]
        if self.client is not None:
            report = self.client.rebuild(ops).report
        else:
            for op in ops:
                op.apply(self.engine.manager)
            report = self.engine.rebuild_if_needed()
        if kind == STEP_PRUNE:
            self.tool.runtime.clear()
        self.executor._refresh_vm()
        return None if report is None else report.tier


class DifferentialOracle:
    """Replays schedules incrementally and against from-scratch builds."""

    report_type = CheckReport

    def __init__(
        self,
        program: TargetProgram,
        *,
        use_service: bool = False,
        workers: int = 1,
        worker_mode: str = "serial",
        max_inputs: int = 4,
    ):
        self.program = program
        self.use_service = use_service
        self.workers = workers
        self.worker_mode = worker_mode
        inputs = program.seeds()
        if not inputs:
            raise ValueError(f"program {program.name!r} has an empty seed corpus")
        self.inputs: List[bytes] = inputs[:max_inputs]

    # -- public API -------------------------------------------------------------

    def run(self, schedules: List[ProbeSchedule]) -> CheckReport:
        report = self.report_type(self.program.name)
        for schedule in schedules:
            report.schedules.append(self.check_schedule(schedule))
        return report

    def check_schedule(self, schedule: ProbeSchedule) -> ScheduleOutcome:
        """Replay *schedule* on every session, diffing after each step."""
        outcome = ScheduleOutcome(schedule)
        sessions = self._open_sessions()
        try:
            rng = DeterministicRNG(schedule.seed)
            cursor = 0
            for index, step in enumerate(schedule.steps):
                for _ in range(step.inputs):
                    data = self.inputs[cursor % len(self.inputs)]
                    for session in sessions:
                        session.executor.execute(data)
                    cursor += 1
                ids = sessions[0].pick(step, rng)
                step_outcome = StepOutcome(index, step.kind, len(ids))
                # A no-op step (nothing eligible, nothing pruned) leaves
                # the probe state untouched, so the previous comparison
                # still vouches for it; skip the expensive diff.
                if ids:
                    for session in sessions:
                        tier = session.apply(step.kind, ids)
                        if tier is not None:
                            outcome.tiers_hit[tier] = (
                                outcome.tiers_hit.get(tier, 0) + 1
                            )
                    step_outcome.compared = True
                    step_outcome.mismatches = self._compare(sessions)
                outcome.steps.append(step_outcome)
        except Exception as error:  # surface, do not crash the sweep
            outcome.error = f"{type(error).__name__}: {error}"
        finally:
            for session in sessions:
                session.close()
        return outcome

    def _open_sessions(self) -> List[_Session]:
        service = None
        if self.use_service:
            service = dict(workers=self.workers, worker_mode=self.worker_mode)
        return [_Session(self.program, service=service)]

    def _compare(self, sessions: List[_Session]) -> List[str]:
        return self.compare_to_reference(sessions[0].engine)

    # -- equivalence ------------------------------------------------------------

    def compare_to_reference(self, engine: Odin) -> List[str]:
        """Build the same probe state from scratch and diff all layers."""
        ref_engine, aligned = self._build_reference(engine)
        if not aligned:
            return ["probe id universe diverged between engines"]
        return diff_engines(engine, ref_engine, self.inputs, "from-scratch")

    def _build_reference(self, incremental: Odin) -> Tuple[Odin, bool]:
        """Fresh engine + single full build reproducing the probe state.

        Probe ids are assigned deterministically by
        ``add_all_block_probes`` (module iteration order), so the fresh
        engine's probes align with the incremental engine's by id; we
        then remove/disable until the states match.
        """
        engine = Odin(self.program.compile(), preserve=PRESERVED)
        tool = OdinCov(engine)
        tool.add_all_block_probes()
        state = {p.id: p.enabled for p in incremental.manager}
        if not set(state) <= set(tool.probes):
            return engine, False
        for pid in sorted(tool.probes):
            if pid not in state:
                tool.probes.discard(pid)
            elif not state[pid]:
                engine.manager.disable(tool.probes[pid])
        tool.build()
        return engine, True


class TierSweep(DifferentialOracle):
    """Replays schedules through the patch and full tiers at once.

    * **patch** — stage-1 probe patching and an object cache: pure
      toggles patch the cached master object;
    * **full** — everything off: the classic incremental path, which
      the patch tier is diffed against.
    """

    report_type = TierSweepReport

    def __init__(self, program: TargetProgram, *, max_inputs: int = 4):
        super().__init__(program, max_inputs=max_inputs)

    def _open_sessions(self) -> List[_Session]:
        return [
            _Session(self.program, "patch", enable_patching=True,
                     object_cache=InMemoryCodeCache()),
            _Session(self.program, "full", enable_patching=False),
        ]

    def _compare(self, sessions: List[_Session]) -> List[str]:
        full = sessions[-1].engine
        return [
            f"{session.label}: {mismatch}"
            for session in sessions[:-1]
            for mismatch in diff_engines(
                session.engine, full, self.inputs, "full"
            )
        ]
