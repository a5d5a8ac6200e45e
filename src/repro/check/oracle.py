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

Any divergence is reported with the schedule, step and layer that
exposed it, which is what makes the report actionable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Sequence, Tuple

from repro.core.engine import Odin
from repro.check.schedules import (
    STEP_DISABLE,
    STEP_ENABLE,
    STEP_PRUNE,
    STEP_REMOVE,
    ProbeSchedule,
    pick_step,
)
from repro.fuzz.executor import PRESERVED, OdinCovExecutor, run_input
from repro.instrument.coverage import CoverageRuntime, OdinCov
from repro.linker.linker import Executable
from repro.programs.registry import TargetProgram
from repro.service.jobs import OP_DISABLE, OP_ENABLE, OP_REMOVE, ProbeOp
from repro.utils.rng import DeterministicRNG
from repro.vm.interpreter import VM

#: (exit code, stdout, trap, cycles, covered probe ids) of one input.
Behaviour = Tuple[int, bytes, Optional[str], int, FrozenSet[int]]
BEHAVIOUR_FIELDS = ("exit_code", "stdout", "trap", "cycles", "coverage")

#: Schedule step kind -> the service's probe-op kind.
STEP_OPS = {
    STEP_DISABLE: OP_DISABLE,
    STEP_ENABLE: OP_ENABLE,
    STEP_REMOVE: OP_REMOVE,
}


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
    applied: int            # probe ops actually applied (0 = no-op step)
    rebuilt: bool           # did the incremental side rebuild?
    compared: bool          # was a from-scratch reference built?
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


@dataclass
class ScheduleOutcome:
    schedule: ProbeSchedule
    steps: List[StepOutcome] = field(default_factory=list)
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


class DifferentialOracle:
    """Replays schedules incrementally and against from-scratch builds."""

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
        report = CheckReport(self.program.name)
        for schedule in schedules:
            report.schedules.append(self.check_schedule(schedule))
        return report

    def check_schedule(self, schedule: ProbeSchedule) -> ScheduleOutcome:
        outcome = ScheduleOutcome(schedule)
        session = _IncrementalSession(self)
        try:
            rng = DeterministicRNG(schedule.seed)
            cursor = 0
            for index, step in enumerate(schedule.steps):
                for _ in range(step.inputs):
                    session.executor.execute(self.inputs[cursor % len(self.inputs)])
                    cursor += 1
                applied, rebuilt = session.apply_step(step, rng)
                step_outcome = StepOutcome(index, step.kind, applied, rebuilt, False)
                # A no-op step (nothing eligible, nothing pruned) leaves
                # the probe state untouched, so the previous comparison
                # still vouches for it; skip the expensive reference.
                if applied or rebuilt:
                    step_outcome.compared = True
                    step_outcome.mismatches = self.compare_to_reference(
                        session.engine
                    )
                outcome.steps.append(step_outcome)
        except Exception as error:  # surface, do not crash the sweep
            outcome.error = f"{type(error).__name__}: {error}"
        finally:
            session.close()
        return outcome

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
            probe = tool.probes[pid]
            if pid not in state:
                engine.manager.remove(probe)
                tool.probes.pop(pid)
            elif not state[pid]:
                engine.manager.disable(probe)
        tool.build()
        return engine, True


class _IncrementalSession:
    """The live side of one schedule replay: engine, tool, executor.

    With ``use_service`` the engine is registered on a
    :class:`~repro.service.server.RecompilationService` (background
    dispatcher, shared content cache, link cache, worker pool) and every
    probe op travels through a client — the full production path.
    """

    def __init__(self, oracle: DifferentialOracle):
        self.oracle = oracle
        self.service = None
        self.client = None
        module = oracle.program.compile()
        if oracle.use_service:
            from repro.service import RecompilationService

            self.service = RecompilationService(
                workers=oracle.workers, worker_mode=oracle.worker_mode
            )
            self.engine = self.service.register_target(
                oracle.program.name, module, preserve=PRESERVED
            )
            self.client = self.service.client(oracle.program.name, "oracle")
            self.tool = OdinCov(self.engine, rebuild_fn=self.client.rebuild_report)
            self.tool.add_all_block_probes()
            self.service.build(oracle.program.name)
            self.service.start()
        else:
            self.engine = Odin(module, preserve=PRESERVED)
            self.tool = OdinCov(self.engine)
            self.tool.add_all_block_probes()
            self.tool.build()
        self.executor = OdinCovExecutor(self.tool)

    def close(self) -> None:
        if self.service is not None:
            self.service.close()

    # -- steps ------------------------------------------------------------------

    def apply_step(self, step, rng: DeterministicRNG) -> Tuple[int, bool]:
        """Apply one schedule step; returns (ops applied, rebuilt?)."""
        manager = self.engine.manager
        before_exe = self.engine.executable
        if step.kind == STEP_PRUNE:
            report = self.executor.prune()
            return report.pruned, report.rebuild is not None

        picked = pick_step(manager, step, rng)
        if not picked:
            return 0, False
        if step.kind == STEP_REMOVE:
            for probe in picked:
                self.tool.probes.pop(probe.id, None)
        if self.client is not None:
            op = STEP_OPS[step.kind]
            self.client.rebuild([ProbeOp(op, p.id) for p in picked])
        else:
            for probe in picked:
                if step.kind == STEP_DISABLE:
                    manager.disable(probe)
                elif step.kind == STEP_ENABLE:
                    manager.enable(probe)
                else:
                    manager.remove(probe)
            self.engine.rebuild_if_needed()
        self.executor._refresh_vm()
        return len(picked), self.engine.executable is not before_exe
