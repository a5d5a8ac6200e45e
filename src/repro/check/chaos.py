"""Seeded chaos harness for the fault-tolerant recompilation service.

``repro check`` proves incremental rebuilds equivalent to from-scratch
builds on a *healthy* service.  This module proves the same property
under injected faults: each :class:`ChaosSchedule` pairs a deterministic
probe-state schedule with a seeded plan of fault events —

* ``worker-crash`` / ``worker-hang`` — arm a
  :class:`~repro.service.workers.WorkerCrashError` /
  :class:`~repro.service.workers.WorkerTimeoutError` on the supervised
  compiler's ``fault_injector`` hook, firing inside the next real
  compile exactly where a dying or wedged pool worker would surface;
* ``cache-corrupt`` — flip bytes of one stored blob in the persistent
  code cache mid-run (``inject_fault("corrupt-obj")``), which the cache
  must quarantine as a miss, never raise or serve;
* ``dispatcher-restart`` — stop (drained) and restart the service's
  dispatcher thread, modelling a compile-server kill/restart;
* ``deadline-expire`` — submit a job whose deadline has already passed
  while the dispatcher is down, which the queue must shed with
  :class:`~repro.service.jobs.DeadlineExpiredError`.

After the schedule the harness asserts the service *degraded but never
lied*: every non-shed job got a reply, every corrupted key now misses or
round-trips byte-identically (quarantined, not raised), and the final
engine state passes the full differential oracle — object bytes, linked
image and behaviour equal to a fault-free from-scratch build.

Everything is a pure function of the seed: schedules, fault placement,
victim keys, retry backoff (``RetryPolicy.seed``).  A failing chaos run
is therefore replayable with ``repro chaos --seed N``.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.check.oracle import DifferentialOracle
from repro.check.schedules import (
    ProbeSchedule,
    generate_schedules,
    pick_targets,
)
from repro.fuzz.executor import PRESERVED, OdinCovExecutor
from repro.instrument.coverage import OdinCov
from repro.programs.registry import TargetProgram
from repro.service.jobs import (
    OP_DISABLE,
    OP_ENABLE,
    OP_REMOVE,
    DeadlineExpiredError,
    ProbeOp,
)
from repro.service.resilience import RetryPolicy
from repro.service.server import RecompilationService, ServiceError
from repro.service.workers import (
    MODE_PROCESS,
    WorkerCrashError,
    WorkerTimeoutError,
)
from repro.utils.rng import DeterministicRNG

# Fault kinds a chaos schedule may fire before a probe step.
FAULT_WORKER_CRASH = "worker-crash"
FAULT_WORKER_HANG = "worker-hang"
FAULT_CACHE_CORRUPT = "cache-corrupt"
FAULT_DISPATCHER_RESTART = "dispatcher-restart"
FAULT_DEADLINE_EXPIRE = "deadline-expire"
FAULT_KINDS = (
    FAULT_WORKER_CRASH,
    FAULT_WORKER_HANG,
    FAULT_CACHE_CORRUPT,
    FAULT_DISPATCHER_RESTART,
    FAULT_DEADLINE_EXPIRE,
)

# Generation weights: worker faults dominate (they exercise the whole
# restart/retry/degrade ladder), the rest stay common enough that every
# few schedules cover each kind.
_FAULT_WEIGHTS = (
    (FAULT_WORKER_CRASH, 30),
    (FAULT_WORKER_HANG, 20),
    (FAULT_CACHE_CORRUPT, 20),
    (FAULT_DISPATCHER_RESTART, 15),
    (FAULT_DEADLINE_EXPIRE, 15),
)

_STEP_OPS = {"disable": OP_DISABLE, "enable": OP_ENABLE, "remove": OP_REMOVE}


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, fired just before probe step ``step``."""

    step: int
    kind: str

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.step < 0:
            raise ValueError("step must be >= 0")


@dataclass(frozen=True)
class ChaosSchedule:
    """A probe schedule plus the fault plan replayed against it."""

    schedule_id: int
    seed: int
    probe_schedule: ProbeSchedule
    faults: Tuple[FaultEvent, ...]

    def describe(self) -> str:
        inner = "; ".join(f"@{f.step} {f.kind}" for f in self.faults) or "none"
        return (
            f"chaos #{self.schedule_id} (seed {self.seed}): "
            f"{len(self.probe_schedule.steps)} steps, faults: {inner}"
        )


def generate_chaos_schedules(
    count: int,
    seed: int,
    *,
    min_faults: int = 1,
    max_faults: int = 3,
    **schedule_kwargs,
) -> List[ChaosSchedule]:
    """Generate *count* chaos schedules, a pure function of the arguments.

    Probe steps come from the oracle's generator (pruning excluded: the
    chaos replayer drives everything through service clients, and prune
    is an executor-side operation); fault events are then placed at
    seeded step indices.
    """
    if not 0 <= min_faults <= max_faults:
        raise ValueError("need 0 <= min_faults <= max_faults")
    schedule_kwargs.setdefault("include_prune", False)
    probe_schedules = generate_schedules(count, seed, **schedule_kwargs)
    rng = DeterministicRNG(seed ^ 0x5EEDFA17)
    out: List[ChaosSchedule] = []
    for probe_schedule in probe_schedules:
        steps = len(probe_schedule.steps)
        faults = tuple(
            sorted(
                (
                    FaultEvent(rng.randint(0, steps - 1), _weighted_fault(rng))
                    for _ in range(rng.randint(min_faults, max_faults))
                ),
                key=lambda f: (f.step, f.kind),
            )
        )
        out.append(
            ChaosSchedule(
                probe_schedule.schedule_id, probe_schedule.seed,
                probe_schedule, faults,
            )
        )
    return out


def _weighted_fault(rng: DeterministicRNG) -> str:
    total = sum(weight for _, weight in _FAULT_WEIGHTS)
    roll = rng.randint(1, total)
    for kind, weight in _FAULT_WEIGHTS:
        roll -= weight
        if roll <= 0:
            return kind
    return _FAULT_WEIGHTS[-1][0]  # pragma: no cover - unreachable


@dataclass
class ChaosOutcome:
    """One replayed chaos schedule: faults fired, replies, verdict."""

    schedule: ChaosSchedule
    injected: Dict[str, int] = field(default_factory=dict)
    replies: int = 0
    shed: int = 0
    breaker_rejections: int = 0
    worker_restarts: int = 0
    degradations: int = 0
    quarantined: int = 0
    unfired_worker_faults: int = 0
    mismatches: List[str] = field(default_factory=list)
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None and not self.mismatches

    def to_dict(self) -> dict:
        return {
            "schedule_id": self.schedule.schedule_id,
            "seed": self.schedule.seed,
            "faults": [(f.step, f.kind) for f in self.schedule.faults],
            "injected": dict(self.injected),
            "replies": self.replies,
            "shed": self.shed,
            "breaker_rejections": self.breaker_rejections,
            "worker_restarts": self.worker_restarts,
            "degradations": self.degradations,
            "quarantined": self.quarantined,
            "unfired_worker_faults": self.unfired_worker_faults,
            "mismatches": list(self.mismatches),
            "error": self.error,
            "ok": self.ok,
        }


@dataclass
class ChaosReport:
    """Everything ``repro chaos`` learned about one program."""

    program: str
    seed: int
    outcomes: List[ChaosOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    @property
    def faults_injected(self) -> int:
        return sum(sum(o.injected.values()) for o in self.outcomes)

    @property
    def failures(self) -> List[str]:
        out = []
        for outcome in self.outcomes:
            sid = outcome.schedule.schedule_id
            if outcome.error is not None:
                out.append(f"chaos #{sid}: {outcome.error}")
            for mismatch in outcome.mismatches:
                out.append(f"chaos #{sid}: {mismatch}")
        return out

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.failures)} FAILURES"
        restarts = sum(o.worker_restarts for o in self.outcomes)
        shed = sum(o.shed for o in self.outcomes)
        return (
            f"{self.program}: {len(self.outcomes)} chaos schedules "
            f"(seed {self.seed}), {self.faults_injected} faults injected, "
            f"{restarts} worker restarts, {shed} jobs shed, {status}"
        )

    def to_dict(self) -> dict:
        return {
            "program": self.program,
            "seed": self.seed,
            "ok": self.ok,
            "faults_injected": self.faults_injected,
            "outcomes": [o.to_dict() for o in self.outcomes],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


class ChaosRunner:
    """Replays chaos schedules against a supervised service instance.

    Each schedule gets a fresh service (process-pool compiler by
    default, persistent cache in a scratch directory) and is torn down
    afterwards; the final probe state is judged by the differential
    oracle's full three-layer equivalence check.
    """

    def __init__(
        self,
        program: TargetProgram,
        *,
        workers: int = 2,
        worker_mode: str = MODE_PROCESS,
        max_inputs: int = 4,
        batch_timeout_s: float = 30.0,
        reply_timeout_s: float = 120.0,
    ):
        self.program = program
        self.workers = workers
        self.worker_mode = worker_mode
        self.batch_timeout_s = batch_timeout_s
        self.reply_timeout_s = reply_timeout_s
        # Reused for its corpus + compare_to_reference (fault-free
        # scratch rebuild of the same probe state).
        self.oracle = DifferentialOracle(program, max_inputs=max_inputs)

    def run(self, schedules: List[ChaosSchedule], seed: int = 0) -> ChaosReport:
        report = ChaosReport(self.program.name, seed)
        for schedule in schedules:
            report.outcomes.append(self.run_schedule(schedule))
        return report

    def run_schedule(self, schedule: ChaosSchedule) -> ChaosOutcome:
        outcome = ChaosOutcome(schedule)
        workdir = tempfile.mkdtemp(prefix="repro-chaos-")
        session: Optional[_ChaosSession] = None
        try:
            session = _ChaosSession(self, schedule, workdir, outcome)
            session.replay()
            session.verdict()
        except Exception as error:  # surface, do not crash the sweep
            outcome.error = f"{type(error).__name__}: {error}"
        finally:
            if session is not None:
                session.close()
            shutil.rmtree(workdir, ignore_errors=True)
        return outcome


class _ChaosSession:
    """One schedule's live side: service, client, armed faults."""

    def __init__(
        self,
        runner: ChaosRunner,
        schedule: ChaosSchedule,
        workdir: str,
        outcome: ChaosOutcome,
    ):
        self.runner = runner
        self.schedule = schedule
        self.outcome = outcome
        self.rng = DeterministicRNG(schedule.seed ^ 0xC4A05)
        self._armed: List[type] = []
        self._corrupted: List[str] = []
        self.service = RecompilationService(
            workers=runner.workers,
            worker_mode=runner.worker_mode,
            cache_dir=f"{workdir}/cache",
            retry_policy=RetryPolicy(seed=schedule.seed),
            batch_timeout_s=runner.batch_timeout_s,
        )
        self.service.compiler.fault_injector = self._inject
        # Patching is off for chaos: the tiered fast path services probe
        # toggles without ever reaching the worker pool, but armed worker
        # faults only fire inside a compile batch — every step must take
        # the full path for the schedule's faults to land where intended.
        self.engine = self.service.register_target(
            runner.program.name, runner.program.compile(), preserve=PRESERVED,
            enable_patching=False,
        )
        self.client = self.service.client(runner.program.name, "chaos")
        self.tool = OdinCov(self.engine, rebuild_fn=self.client.rebuild_report)
        self.tool.add_all_block_probes()
        self.service.build(runner.program.name)
        self.service.start()
        self.executor = OdinCovExecutor(self.tool)

    # -- fault machinery -------------------------------------------------------

    def _inject(self, compiler, batch, attempt) -> None:
        """SupervisedCompiler hook: fire one armed fault per attempt."""
        if self._armed and batch:
            raise self._armed.pop(0)(
                f"chaos: injected {self.schedule.describe()} fault "
                f"(attempt {attempt}, batch of {len(batch)})"
            )

    def _fire(self, event: FaultEvent) -> None:
        count = self.outcome.injected
        if event.kind == FAULT_WORKER_CRASH:
            self._armed.append(WorkerCrashError)
        elif event.kind == FAULT_WORKER_HANG:
            self._armed.append(WorkerTimeoutError)
        elif event.kind == FAULT_CACHE_CORRUPT:
            keys = self.service.cache.keys()
            if not keys:  # nothing stored yet: fault is a no-op
                return
            victim = keys[self.rng.randint(0, len(keys) - 1)]
            self.service.cache.inject_fault("corrupt-obj", key=victim)
            self._corrupted.append(victim)
        elif event.kind == FAULT_DISPATCHER_RESTART:
            self.service.stop(drain=True)
            self.service.start()
        elif event.kind == FAULT_DEADLINE_EXPIRE:
            # Submitted while the dispatcher is down with a deadline of
            # zero: already expired by the time dispatch resumes, so the
            # queue must shed it instead of compiling for nobody.
            self.service.stop(drain=True)
            job = self.client.submit((), deadline_s=0.0)
            self.service.start()
            try:
                job.result(self.runner.reply_timeout_s)
                self.outcome.mismatches.append(
                    f"deadline-expired job before step {event.step} was "
                    f"compiled instead of shed"
                )
            except DeadlineExpiredError:
                self.outcome.shed += 1
        count[event.kind] = count.get(event.kind, 0) + 1

    # -- replay ----------------------------------------------------------------

    def replay(self) -> None:
        inputs = self.runner.oracle.inputs
        cursor = 0
        pick_rng = DeterministicRNG(self.schedule.seed)
        for index, step in enumerate(self.schedule.probe_schedule.steps):
            for event in self.schedule.faults:
                if event.step == index:
                    self._fire(event)
            for _ in range(step.inputs):
                self.executor.execute(inputs[cursor % len(inputs)])
                cursor += 1
            self._apply_step(step, pick_rng)
            self.executor._refresh_vm()

    def _apply_step(self, step, pick_rng: DeterministicRNG) -> None:
        manager = self.engine.manager
        if step.kind == "disable":
            eligible = [p for p in manager if p.enabled]
        elif step.kind == "enable":
            eligible = [p for p in manager if not p.enabled]
        else:  # remove
            eligible = list(manager)
        eligible.sort(key=lambda p: p.id)
        picked = pick_targets(pick_rng, eligible, step.count)
        if not picked:
            return
        if step.kind == "remove":
            for probe in picked:
                self.tool.probes.pop(probe.id, None)
        ops = [ProbeOp(_STEP_OPS[step.kind], p.id) for p in picked]
        try:
            self.client.rebuild(ops, timeout=self.runner.reply_timeout_s)
            self.outcome.replies += 1
        except ServiceError as error:
            if error.retry_after_s is None:
                raise
            # Breaker open: a fast failure, not a hang.  Count it; the
            # step's ops were never applied, so state stays consistent.
            self.outcome.breaker_rejections += 1

    # -- verdict ---------------------------------------------------------------

    def verdict(self) -> None:
        outcome = self.outcome
        outcome.unfired_worker_faults = len(self._armed)
        self._armed.clear()  # never let a leftover fault poison teardown
        # Corrupted entries must self-heal: a get may miss (quarantined)
        # but must never raise or return different bytes (the oracle
        # below would catch wrong bytes that got linked).
        cache = self.service.cache
        for key in self._corrupted:
            try:
                cache.get(key)
            except Exception as error:  # noqa: BLE001 - the assertion itself
                outcome.mismatches.append(
                    f"corrupted cache entry {key[:12]} raised "
                    f"{type(error).__name__} instead of degrading to a miss"
                )
        compiler_stats = self.service.compiler.stats()
        outcome.worker_restarts = compiler_stats["worker_restarts"]
        outcome.degradations = compiler_stats["degradations"]
        outcome.quarantined = getattr(cache, "quarantined", 0)
        # Every fault behind us: the final probe state must still be
        # exactly what a fault-free from-scratch build produces.
        outcome.mismatches.extend(
            self.runner.oracle.compare_to_reference(self.engine)
        )

    def close(self) -> None:
        self.service.close()


def run_chaos(
    program: TargetProgram,
    *,
    schedules: int = 3,
    seed: int = 0,
    workers: int = 2,
    worker_mode: str = MODE_PROCESS,
    max_inputs: int = 4,
) -> ChaosReport:
    """Generate and replay *schedules* chaos schedules for *program*."""
    runner = ChaosRunner(
        program, workers=workers, worker_mode=worker_mode, max_inputs=max_inputs
    )
    return runner.run(generate_chaos_schedules(schedules, seed), seed)


# ---------------------------------------------------------------------------
# Cluster chaos: shard-level faults against the sharded multi-tenant cluster.
# ---------------------------------------------------------------------------

# Fault kinds a cluster chaos schedule may fire before a replay round.
CLUSTER_FAULT_SHARD_KILL = "shard-kill"
CLUSTER_FAULT_SHARD_HANG = "shard-hang"
CLUSTER_FAULT_ROUTER_PARTITION = "router-partition"
CLUSTER_FAULT_KINDS = (
    CLUSTER_FAULT_SHARD_KILL,
    CLUSTER_FAULT_SHARD_HANG,
    CLUSTER_FAULT_ROUTER_PARTITION,
)

_CLUSTER_FAULT_WEIGHTS = (
    (CLUSTER_FAULT_SHARD_KILL, 40),
    (CLUSTER_FAULT_SHARD_HANG, 30),
    (CLUSTER_FAULT_ROUTER_PARTITION, 30),
)


@dataclass(frozen=True)
class ClusterFaultEvent:
    """One shard-level fault, fired just before replay round ``round``."""

    round: int
    kind: str

    def __post_init__(self):
        if self.kind not in CLUSTER_FAULT_KINDS:
            raise ValueError(
                f"unknown cluster fault {self.kind!r}; "
                f"expected one of {CLUSTER_FAULT_KINDS}"
            )
        if self.round < 0:
            raise ValueError("round must be >= 0")


@dataclass(frozen=True)
class ClusterChaosSchedule:
    """Per-tenant probe schedules + a shard-level fault plan.

    Replay is round-based: in round *r* every tenant applies step *r* of
    its own probe schedule (tenants whose schedule is shorter sit the
    round out), faults fire before the round, and a health-check/heal
    tick runs after it.
    """

    schedule_id: int
    seed: int
    tenant_schedules: Tuple[ProbeSchedule, ...]
    faults: Tuple[ClusterFaultEvent, ...]

    @property
    def rounds(self) -> int:
        return max((len(s.steps) for s in self.tenant_schedules), default=0)

    def describe(self) -> str:
        inner = "; ".join(f"@{f.round} {f.kind}" for f in self.faults) or "none"
        return (
            f"cluster chaos #{self.schedule_id} (seed {self.seed}): "
            f"{len(self.tenant_schedules)} tenants, {self.rounds} rounds, "
            f"faults: {inner}"
        )


def generate_cluster_chaos_schedules(
    count: int,
    seed: int,
    *,
    tenants: int = 8,
    min_faults: int = 1,
    max_faults: int = 2,
    **schedule_kwargs,
) -> List[ClusterChaosSchedule]:
    """Generate *count* cluster chaos schedules (pure function of args)."""
    if tenants < 1:
        raise ValueError("need at least one tenant")
    if not 0 <= min_faults <= max_faults:
        raise ValueError("need 0 <= min_faults <= max_faults")
    schedule_kwargs.setdefault("include_prune", False)
    rng = DeterministicRNG(seed ^ 0xC1A57E12)
    out: List[ClusterChaosSchedule] = []
    for schedule_id in range(count):
        tenant_schedules = tuple(
            generate_schedules(
                tenants, seed + 7919 * (schedule_id + 1), **schedule_kwargs
            )
        )
        rounds = max(len(s.steps) for s in tenant_schedules)
        faults = tuple(
            sorted(
                (
                    ClusterFaultEvent(
                        rng.randint(0, rounds - 1), _weighted_cluster_fault(rng)
                    )
                    for _ in range(rng.randint(min_faults, max_faults))
                ),
                key=lambda f: (f.round, f.kind),
            )
        )
        out.append(
            ClusterChaosSchedule(schedule_id, seed, tenant_schedules, faults)
        )
    return out


def _weighted_cluster_fault(rng: DeterministicRNG) -> str:
    total = sum(weight for _, weight in _CLUSTER_FAULT_WEIGHTS)
    roll = rng.randint(1, total)
    for kind, weight in _CLUSTER_FAULT_WEIGHTS:
        roll -= weight
        if roll <= 0:
            return kind
    return _CLUSTER_FAULT_WEIGHTS[-1][0]  # pragma: no cover - unreachable


@dataclass
class TenantChaosOutcome:
    """One tenant's campaign through a cluster chaos schedule."""

    tenant_id: str
    program: str
    weight: float
    tier: str
    steps: int = 0
    replies: int = 0
    shed_quota: int = 0
    shed_deadline: int = 0
    resubmits: int = 0
    breaker_rejections: int = 0
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_dict(self) -> dict:
        return {
            "tenant_id": self.tenant_id,
            "program": self.program,
            "weight": self.weight,
            "tier": self.tier,
            "steps": self.steps,
            "replies": self.replies,
            "shed_quota": self.shed_quota,
            "shed_deadline": self.shed_deadline,
            "resubmits": self.resubmits,
            "breaker_rejections": self.breaker_rejections,
            "mismatches": list(self.mismatches),
            "ok": self.ok,
        }


@dataclass
class ClusterChaosOutcome:
    """One replayed cluster schedule: faults, failovers, per-tenant verdicts."""

    schedule: ClusterChaosSchedule
    injected: Dict[str, int] = field(default_factory=dict)
    failovers: int = 0
    migrations: int = 0
    resubmits: int = 0
    live_shards: int = 0
    degraded: bool = False
    tenants: List[TenantChaosOutcome] = field(default_factory=list)
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None and all(t.ok for t in self.tenants)

    def to_dict(self) -> dict:
        return {
            "schedule_id": self.schedule.schedule_id,
            "seed": self.schedule.seed,
            "faults": [(f.round, f.kind) for f in self.schedule.faults],
            "injected": dict(self.injected),
            "failovers": self.failovers,
            "migrations": self.migrations,
            "resubmits": self.resubmits,
            "live_shards": self.live_shards,
            "degraded": self.degraded,
            "tenants": [t.to_dict() for t in self.tenants],
            "error": self.error,
            "ok": self.ok,
        }


@dataclass
class ClusterChaosReport:
    """Everything ``repro cluster --chaos`` learned about one sweep."""

    programs: List[str]
    seed: int
    shards: int
    outcomes: List[ClusterChaosOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    @property
    def faults_injected(self) -> int:
        return sum(sum(o.injected.values()) for o in self.outcomes)

    @property
    def failures(self) -> List[str]:
        out = []
        for outcome in self.outcomes:
            sid = outcome.schedule.schedule_id
            if outcome.error is not None:
                out.append(f"cluster chaos #{sid}: {outcome.error}")
            for tenant in outcome.tenants:
                for mismatch in tenant.mismatches:
                    out.append(
                        f"cluster chaos #{sid} [{tenant.tenant_id}]: {mismatch}"
                    )
        return out

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.failures)} FAILURES"
        failovers = sum(o.failovers for o in self.outcomes)
        resubmits = sum(o.resubmits for o in self.outcomes)
        shed = sum(
            t.shed_quota + t.shed_deadline
            for o in self.outcomes for t in o.tenants
        )
        return (
            f"cluster[{','.join(self.programs)}] x{self.shards} shards: "
            f"{len(self.outcomes)} schedules (seed {self.seed}), "
            f"{self.faults_injected} faults, {failovers} failovers, "
            f"{resubmits} resubmits, {shed} shed, {status}"
        )

    def to_dict(self) -> dict:
        return {
            "programs": list(self.programs),
            "seed": self.seed,
            "shards": self.shards,
            "ok": self.ok,
            "faults_injected": self.faults_injected,
            "outcomes": [o.to_dict() for o in self.outcomes],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


class ClusterChaosRunner:
    """Replays shard-level chaos against a fresh cluster per schedule.

    Tenants alternate interactive (weight 3) / bulk (weight 1) and are
    spread round-robin over *programs*, so several tenants always share
    a program — exercising content-key co-location and the shared cache
    tier while shards die under them.  The recovery oracle is the
    differential oracle's full three-layer check, run per tenant against
    whatever engine the tenant ended up on: the surviving campaigns'
    final probe state must rebuild fingerprint-identical to an
    uninterrupted single-service run.
    """

    def __init__(
        self,
        programs: List[TargetProgram],
        *,
        shards: int = 3,
        tenants: int = 8,
        max_inputs: int = 3,
        reply_timeout_s: float = 4.0,
        quota_window: int = 64,
    ):
        if not programs:
            raise ValueError("need at least one program")
        self.programs = programs
        self.shards = shards
        self.tenants = tenants
        self.reply_timeout_s = reply_timeout_s
        self.quota_window = quota_window
        self.oracles = {
            program.name: DifferentialOracle(program, max_inputs=max_inputs)
            for program in programs
        }

    def run(
        self, schedules: List[ClusterChaosSchedule], seed: int = 0
    ) -> ClusterChaosReport:
        report = ClusterChaosReport(
            [p.name for p in self.programs], seed, self.shards
        )
        for schedule in schedules:
            report.outcomes.append(self.run_schedule(schedule))
        return report

    def run_schedule(self, schedule: ClusterChaosSchedule) -> ClusterChaosOutcome:
        outcome = ClusterChaosOutcome(schedule)
        session: Optional[_ClusterChaosSession] = None
        try:
            session = _ClusterChaosSession(self, schedule, outcome)
            session.replay()
            session.verdict()
        except Exception as error:  # surface, do not crash the sweep
            outcome.error = f"{type(error).__name__}: {error}"
        finally:
            if session is not None:
                session.close()
        return outcome


class _ClusterChaosSession:
    """One cluster schedule's live side: cluster, tenants, fault plan."""

    def __init__(
        self,
        runner: ClusterChaosRunner,
        schedule: ClusterChaosSchedule,
        outcome: ClusterChaosOutcome,
    ):
        from repro.cluster import CompileCluster, TenantSpec
        from repro.cluster.tenants import TIER_BULK, TIER_INTERACTIVE

        self.runner = runner
        self.schedule = schedule
        self.outcome = outcome
        self.rng = DeterministicRNG(schedule.seed ^ 0x51A8D0)
        self.cluster = CompileCluster(
            shards=runner.shards,
            reply_timeout_s=runner.reply_timeout_s,
            quota_window=runner.quota_window,
            heartbeat_miss_threshold=2,
        )
        # shard id -> replay round at which its partition heals.
        self._partitions: Dict[str, int] = {}
        self._tenants: List[Tuple[str, TargetProgram]] = []
        for index in range(runner.tenants):
            tenant_id = f"tenant-{index}"
            program = runner.programs[index % len(runner.programs)]
            interactive = index % 2 == 0
            self.cluster.register_tenant(TenantSpec(
                tenant_id,
                weight=3.0 if interactive else 1.0,
                tier=TIER_INTERACTIVE if interactive else TIER_BULK,
            ))
            self.cluster.register_target(
                tenant_id, program.name, program.compile(),
                instrument=_chaos_instrument, preserve=PRESERVED,
            )
            self._tenants.append((tenant_id, program))
            spec = self.cluster.tenants.spec(tenant_id)
            outcome.tenants.append(TenantChaosOutcome(
                tenant_id, program.name, spec.weight, spec.tier,
            ))
        self.cluster.start()
        self.clients = [
            self.cluster.client(tenant_id, program.name, client_id=tenant_id)
            for tenant_id, program in self._tenants
        ]

    # -- fault machinery -------------------------------------------------------

    def _victim(self) -> Optional[str]:
        """Pick a faultable shard: live, preferring ones hosting targets.

        Returns None (fault becomes a no-op) when fewer than two shards
        survive — a failover needs somewhere to send the targets.
        """
        live = list(self.cluster.ring.nodes)
        if len(live) < 2:
            return None
        hosting = sorted({
            entry.shard_id for entry in self.cluster._targets.values()
            if entry.shard_id in live
        })
        pool = hosting or sorted(live)
        return pool[self.rng.randint(0, len(pool) - 1)]

    def _fire(self, event: ClusterFaultEvent, rnd: int) -> None:
        victim = self._victim()
        if victim is None:
            return
        shard = self.cluster.shards[victim]
        if event.kind == CLUSTER_FAULT_SHARD_KILL:
            shard.kill()
        elif event.kind == CLUSTER_FAULT_SHARD_HANG:
            shard.hang()
        elif event.kind == CLUSTER_FAULT_ROUTER_PARTITION:
            shard.partition()
            # Heals after 1-2 rounds — racing the 2-miss condemnation
            # threshold, so seeded schedules cover both the transient
            # (heal, no failover) and escalated (failover) paths.
            self._partitions[victim] = rnd + self.rng.randint(1, 2)
        count = self.outcome.injected
        count[event.kind] = count.get(event.kind, 0) + 1

    def _tick(self, rnd: int) -> None:
        """Post-round housekeeping: heal due partitions, health-check."""
        for shard_id, heal_at in list(self._partitions.items()):
            if rnd + 1 >= heal_at:
                shard = self.cluster.shards[shard_id]
                if not shard.fenced:  # failover may have won the race
                    shard.heal_partition()
                del self._partitions[shard_id]
        self.cluster.check_health_once()

    # -- replay ----------------------------------------------------------------

    def replay(self) -> None:
        pick_rngs = [
            DeterministicRNG(self.schedule.seed ^ (0xA11CE + 131 * index))
            for index in range(len(self._tenants))
        ]
        for rnd in range(self.schedule.rounds):
            for event in self.schedule.faults:
                if event.round == rnd:
                    self._fire(event, rnd)
            for index, tenant_schedule in enumerate(
                self.schedule.tenant_schedules
            ):
                if rnd >= len(tenant_schedule.steps):
                    continue
                self._apply_step(index, tenant_schedule.steps[rnd],
                                 pick_rngs[index])
            self._tick(rnd)

    def _apply_step(self, index: int, step, pick_rng: DeterministicRNG) -> None:
        from repro.cluster import TenantQuotaError

        tenant_id, program = self._tenants[index]
        tenant_outcome = self.outcome.tenants[index]
        tenant_outcome.steps += 1
        # Always re-fetch: a failover since the last round swapped the
        # engine (and tool) under this tenant.
        entry = self.cluster.target(tenant_id, program.name)
        manager = entry.engine.manager
        if step.kind == "disable":
            eligible = [p for p in manager if p.enabled]
        elif step.kind == "enable":
            eligible = [p for p in manager if not p.enabled]
        else:  # remove
            eligible = list(manager)
        eligible.sort(key=lambda p: p.id)
        picked = pick_targets(pick_rng, eligible, step.count)
        if not picked:
            return
        ops = tuple(ProbeOp(_STEP_OPS[step.kind], p.id) for p in picked)
        try:
            self.clients[index].rebuild(ops)
        except TenantQuotaError:
            tenant_outcome.shed_quota += 1
            return  # ops never reached a shard; state unchanged
        except DeadlineExpiredError:
            tenant_outcome.shed_deadline += 1
            return  # shed before apply on a healthy shard
        except ServiceError as error:
            if error.retry_after_s is None:
                raise
            tenant_outcome.breaker_rejections += 1
            return
        tenant_outcome.replies += 1
        if step.kind == "remove":
            tool = self.cluster.tool(tenant_id, program.name)
            probes = getattr(tool, "probes", None)
            if isinstance(probes, dict):
                for probe in picked:
                    probes.pop(probe.id, None)

    # -- verdict ---------------------------------------------------------------

    def verdict(self) -> None:
        outcome = self.outcome
        metrics = self.cluster.metrics
        outcome.failovers = int(metrics.counter("failovers"))
        outcome.migrations = int(metrics.counter("targets_migrated"))
        outcome.resubmits = int(metrics.counter("resubmits"))
        outcome.live_shards = len(self.cluster.ring)
        outcome.degraded = self.cluster.degraded
        tenant_stats = self.cluster.tenants.stats()["tenants"]
        for index, (tenant_id, program) in enumerate(self._tenants):
            tenant_outcome = outcome.tenants[index]
            counters = tenant_stats.get(tenant_id, {})
            tenant_outcome.resubmits = int(counters.get("resubmits", 0))
            # The recovery oracle: the tenant's final probe state — on
            # whatever shard it ended up — must rebuild fingerprint- and
            # behaviour-identical to an uninterrupted from-scratch run.
            engine = self.cluster.engine(tenant_id, program.name)
            tenant_outcome.mismatches.extend(
                self.runner.oracles[program.name].compare_to_reference(engine)
            )

    def close(self) -> None:
        self.cluster.close()


def _chaos_instrument(engine):
    """Re-runnable instrumentation for cluster chaos targets."""
    tool = OdinCov(engine)
    tool.add_all_block_probes()
    return tool


def run_cluster_chaos(
    programs: List[TargetProgram],
    *,
    schedules: int = 2,
    seed: int = 0,
    shards: int = 3,
    tenants: int = 8,
    max_inputs: int = 3,
    reply_timeout_s: float = 4.0,
) -> ClusterChaosReport:
    """Generate and replay *schedules* cluster chaos schedules."""
    runner = ClusterChaosRunner(
        programs,
        shards=shards,
        tenants=tenants,
        max_inputs=max_inputs,
        reply_timeout_s=reply_timeout_s,
    )
    return runner.run(
        generate_cluster_chaos_schedules(schedules, seed, tenants=tenants),
        seed,
    )
