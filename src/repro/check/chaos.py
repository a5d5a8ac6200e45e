"""Seeded chaos harness: one schedule, runner and report, two targets.

``repro check`` proves incremental rebuilds equivalent to from-scratch
builds on a *healthy* service.  This module proves the same property
under injected faults.  A :class:`ChaosSchedule` holds one probe
schedule per campaign plus a seeded plan of :class:`FaultEvent` s, and a
:class:`ChaosRunner` replays it round by round against a fresh target:

* :class:`ServiceChaos` — the one client of a supervised
  :class:`~repro.service.server.RecompilationService`, under

  * ``worker-crash`` / ``worker-hang`` — arm a
    :class:`~repro.service.workers.WorkerCrashError` /
    :class:`~repro.service.workers.WorkerTimeoutError` on the supervised
    compiler's ``fault_injector`` hook, firing inside the next real
    compile exactly where a dying or wedged pool worker would surface;
  * ``cache-corrupt`` — flip bytes of one stored blob in the persistent
    code cache mid-run (``inject_fault("corrupt-obj")``), which the
    cache must quarantine as a miss, never raise or serve;
  * ``dispatcher-restart`` — stop (drained) and restart the service's
    dispatcher thread, modelling a compile-server kill/restart;
  * ``deadline-expire`` — submit a job whose deadline has already passed
    while the dispatcher is down, which the queue must shed with
    :class:`~repro.service.jobs.DeadlineExpiredError`;

* :class:`ClusterChaos` — one tenant per campaign on a sharded
  :class:`~repro.cluster.CompileCluster`, under ``shard-kill``,
  ``shard-hang`` and ``router-partition`` faults aimed at a shard that
  hosts targets.

After the schedule the verdict asserts the target *degraded but never
lied*: every campaign's final probe state, on whatever engine it ended
up, passes the full differential oracle — object bytes, linked image
and behaviour equal to a fault-free from-scratch build — and on the
service every corrupted cache key now misses or round-trips
byte-identically (quarantined, not raised).

Everything is a pure function of the seed: schedules, fault placement,
victims, retry backoff (``RetryPolicy.seed``), and each campaign's probe
picks, which its own seed drives.  A failing chaos run is therefore
replayable with ``repro chaos --seed N`` or ``repro cluster --seed N``.
"""

from __future__ import annotations

import shutil
import tempfile
from contextlib import ExitStack
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.check.oracle import DifferentialOracle
from repro.check.schedules import (
    ProbeSchedule,
    generate_schedules,
    pick_step,
    weighted_choice,
)
from repro.cluster import CompileCluster, TenantQuotaError, TenantSpec
from repro.cluster.tenants import TIER_BULK, TIER_INTERACTIVE
from repro.fuzz.executor import PRESERVED, OdinCovExecutor
from repro.instrument.coverage import OdinCov
from repro.programs.registry import TargetProgram
from repro.service.jobs import DeadlineExpiredError, ProbeOp
from repro.service.resilience import RetryPolicy
from repro.service.server import RecompilationService, ServiceError
from repro.service.workers import (
    MODE_PROCESS,
    WorkerCrashError,
    WorkerTimeoutError,
)
from repro.utils.rng import DeterministicRNG

# Service faults, fired before a probe step.
FAULT_WORKER_CRASH = "worker-crash"
FAULT_WORKER_HANG = "worker-hang"
FAULT_CACHE_CORRUPT = "cache-corrupt"
FAULT_DISPATCHER_RESTART = "dispatcher-restart"
FAULT_DEADLINE_EXPIRE = "deadline-expire"
# Cluster faults, fired at one shard before a replay round.
FAULT_SHARD_KILL = "shard-kill"
FAULT_SHARD_HANG = "shard-hang"
FAULT_ROUTER_PARTITION = "router-partition"

# Each target's fault kinds with their generation weights.  On the
# service, worker faults dominate (they exercise the whole
# restart/retry/degrade ladder); the rest stay common enough that every
# few schedules cover each kind.
SERVICE_FAULTS = (
    (FAULT_WORKER_CRASH, 30),
    (FAULT_WORKER_HANG, 20),
    (FAULT_CACHE_CORRUPT, 20),
    (FAULT_DISPATCHER_RESTART, 15),
    (FAULT_DEADLINE_EXPIRE, 15),
)
CLUSTER_FAULTS = (
    (FAULT_SHARD_KILL, 40),
    (FAULT_SHARD_HANG, 30),
    (FAULT_ROUTER_PARTITION, 30),
)
FAULT_KINDS = tuple(kind for kind, _ in SERVICE_FAULTS + CLUSTER_FAULTS)

# How long a chaos client waits for one service reply, in seconds.
REPLY_TIMEOUT_S = 120.0
# Cluster admission window (attempts) behind the weighted tenant quotas.
QUOTA_WINDOW = 64


@dataclass(frozen=True, order=True)
class FaultEvent:
    """One injected fault, fired just before replay round ``step``."""

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
    """Probe schedules, one per campaign, plus the fault plan against them.

    Replay is round-based: in round *r* every campaign applies step *r*
    of its own probe schedule (shorter campaigns sit the round out), the
    round's faults fire before it, and the target's tick runs after it.
    A campaign's seed drives its probe picks.
    """

    schedule_id: int
    seed: int
    campaigns: Tuple[ProbeSchedule, ...]
    faults: Tuple[FaultEvent, ...]

    @property
    def rounds(self) -> int:
        return max((len(c.steps) for c in self.campaigns), default=0)

    def describe(self) -> str:
        inner = "; ".join(f"@{f.step} {f.kind}" for f in self.faults) or "none"
        return (
            f"chaos #{self.schedule_id} (seed {self.seed}): "
            f"{len(self.campaigns)} campaigns, {self.rounds} rounds, "
            f"faults: {inner}"
        )


def generate_chaos_schedules(
    count: int,
    seed: int,
    *,
    min_faults: int = 1,
    max_faults: int = 3,
    **schedule_kwargs,
) -> List[ChaosSchedule]:
    """Generate *count* service chaos schedules, a pure function of the
    arguments.

    Each is one of the oracle's probe schedules, as the client's single
    campaign, plus faults at seeded rounds.  Pruning is excluded: the
    replayer drives everything through service clients, and prune is an
    executor-side operation.
    """
    schedule_kwargs.setdefault("include_prune", False)
    campaigns = [
        (s,) for s in generate_schedules(count, seed, **schedule_kwargs)
    ]
    plans = _place_faults(
        seed ^ 0x5EEDFA17, campaigns, SERVICE_FAULTS, min_faults, max_faults
    )
    return [
        ChaosSchedule(c[0].schedule_id, c[0].seed, c, faults)
        for c, faults in zip(campaigns, plans)
    ]


def generate_cluster_chaos_schedules(
    count: int,
    seed: int,
    *,
    tenants: int = 8,
    min_faults: int = 1,
    max_faults: int = 2,
    **schedule_kwargs,
) -> List[ChaosSchedule]:
    """Generate *count* cluster chaos schedules of *tenants* campaigns
    each, a pure function of the arguments.

    Tenant *i*'s campaign picks probes from the seed
    ``seed ^ (0xA11CE + 131 * i)``.
    """
    if tenants < 1:
        raise ValueError("need at least one tenant")
    schedule_kwargs.setdefault("include_prune", False)
    campaigns = [
        tuple(
            replace(s, seed=seed ^ (0xA11CE + 131 * s.schedule_id))
            for s in generate_schedules(
                tenants, seed + 7919 * (schedule_id + 1), **schedule_kwargs
            )
        )
        for schedule_id in range(count)
    ]
    plans = _place_faults(
        seed ^ 0xC1A57E12, campaigns, CLUSTER_FAULTS, min_faults, max_faults
    )
    return [
        ChaosSchedule(schedule_id, seed, c, faults)
        for schedule_id, (c, faults) in enumerate(zip(campaigns, plans))
    ]


def _place_faults(
    seed: int,
    campaign_sets: Sequence[Tuple[ProbeSchedule, ...]],
    table: Sequence[Tuple[str, int]],
    min_faults: int,
    max_faults: int,
) -> List[Tuple[FaultEvent, ...]]:
    """One sorted fault plan per campaign set: weighted kinds drawn from
    *table*, each at a seeded round of the set's replay."""
    if not 0 <= min_faults <= max_faults:
        raise ValueError("need 0 <= min_faults <= max_faults")
    rng = DeterministicRNG(seed)
    plans = []
    for campaigns in campaign_sets:
        rounds = max(len(c.steps) for c in campaigns)
        plans.append(tuple(sorted(
            FaultEvent(rng.randint(0, rounds - 1), weighted_choice(rng, table))
            for _ in range(rng.randint(min_faults, max_faults))
        )))
    return plans


@dataclass
class CampaignOutcome:
    """One client's (service) or tenant's (cluster) campaign."""

    client: str
    program: str
    steps: int = 0
    replies: int = 0
    # Refusals the target may shed instead of answering: reason -> jobs.
    shed: Dict[str, int] = field(default_factory=dict)
    breaker_rejections: int = 0
    resubmits: int = 0
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


@dataclass
class ChaosOutcome:
    """One replayed chaos schedule: faults fired, target counters filled
    by the verdict, and one verdict per campaign."""

    schedule: ChaosSchedule
    injected: Dict[str, int] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    campaigns: List[CampaignOutcome] = field(default_factory=list)
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None and all(c.ok for c in self.campaigns)

    def to_dict(self) -> dict:
        return {
            "schedule_id": self.schedule.schedule_id,
            "seed": self.schedule.seed,
            "faults": [(f.step, f.kind) for f in self.schedule.faults],
            "injected": dict(self.injected),
            "counters": dict(self.counters),
            "campaigns": [{**asdict(c), "ok": c.ok} for c in self.campaigns],
            "error": self.error,
            "ok": self.ok,
        }


@dataclass
class ChaosReport:
    """Everything one chaos sweep learned about its target."""

    target: str
    programs: List[str]
    seed: int
    options: Dict[str, object]
    totals: Tuple[str, ...] = ()  # counters the summary line adds up
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
            for campaign in outcome.campaigns:
                out.extend(
                    f"chaos #{sid} [{campaign.client}]: {mismatch}"
                    for mismatch in campaign.mismatches
                )
        return out

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.failures)} FAILURES"
        totals = "".join(
            f"{sum(o.counters.get(name, 0) for o in self.outcomes)} "
            f"{name.replace('_', ' ')}, "
            for name in self.totals
        )
        shed = sum(
            sum(c.shed.values()) for o in self.outcomes for c in o.campaigns
        )
        return (
            f"{self.target}[{','.join(self.programs)}]: "
            f"{len(self.outcomes)} chaos schedules (seed {self.seed}), "
            f"{self.faults_injected} faults injected, {totals}"
            f"{shed} jobs shed, {status}"
        )

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "programs": list(self.programs),
            "seed": self.seed,
            "options": dict(self.options),
            "ok": self.ok,
            "faults_injected": self.faults_injected,
            "outcomes": [o.to_dict() for o in self.outcomes],
        }


class ChaosRunner:
    """Replays chaos schedules against a fresh *target* per schedule.

    *target* is :class:`ServiceChaos` or :class:`ClusterChaos`.  Campaign
    *i* runs ``programs[i % len(programs)]`` and is judged by that
    program's differential oracle over *max_inputs* corpus inputs;
    *options* override the target's ``OPTIONS``.
    """

    def __init__(
        self,
        target: type,
        programs: Sequence[TargetProgram],
        max_inputs: int = 4,
        **options,
    ):
        if not programs:
            raise ValueError("need at least one program")
        unknown = sorted(set(options) - set(target.OPTIONS))
        if unknown:
            raise TypeError(f"{target.__name__} has no option {unknown}")
        self.target = target
        self.programs = list(programs)
        self.options = {**target.OPTIONS, **options}
        self.oracles = {
            program.name: DifferentialOracle(program, max_inputs=max_inputs)
            for program in self.programs
        }

    def run(self, schedules: List[ChaosSchedule], seed: int = 0) -> ChaosReport:
        return ChaosReport(
            self.target.NAME,
            [program.name for program in self.programs],
            seed,
            dict(self.options),
            self.target.TOTALS,
            [self.run_schedule(schedule) for schedule in schedules],
        )

    def run_schedule(self, schedule: ChaosSchedule) -> ChaosOutcome:
        outcome = ChaosOutcome(schedule)
        with ExitStack() as cleanup:
            try:
                session = self.target(self, schedule, outcome, cleanup)
                session.replay()
                session.verdict()
            except Exception as error:  # surface, do not crash the sweep
                outcome.error = f"{type(error).__name__}: {error}"
        return outcome


class _ChaosSession:
    """One schedule's live side: the round loop, step body and verdict.

    A target subclass sets itself up in ``__init__`` (registering every
    resource it opens on *cleanup*, and one :class:`CampaignOutcome` per
    campaign) and supplies the hooks below.
    """

    NAME = ""
    OPTIONS: Dict[str, object] = {}
    FAULTS: Tuple[Tuple[str, int], ...] = ()
    TOTALS: Tuple[str, ...] = ()

    def __init__(
        self,
        runner: ChaosRunner,
        schedule: ChaosSchedule,
        outcome: ChaosOutcome,
        cleanup: ExitStack,
    ):
        kinds = {kind for kind, _ in self.FAULTS}
        foreign = sorted({f.kind for f in schedule.faults} - kinds)
        if foreign:
            raise ValueError(f"the {self.NAME} target cannot fire {foreign}")
        self.runner = runner
        self.schedule = schedule
        self.outcome = outcome
        self.programs = [
            runner.programs[index % len(runner.programs)]
            for index in range(len(schedule.campaigns))
        ]

    def replay(self) -> None:
        rngs = [DeterministicRNG(c.seed) for c in self.schedule.campaigns]
        injected = self.outcome.injected
        for rnd in range(self.schedule.rounds):
            for event in self.schedule.faults:
                if event.step == rnd and self._fire(event):
                    injected[event.kind] = injected.get(event.kind, 0) + 1
            for index, campaign in enumerate(self.schedule.campaigns):
                if rnd < len(campaign.steps):
                    self._step(index, campaign.steps[rnd], rngs[index])
            self._tick(rnd)

    def _step(self, index: int, step, rng: DeterministicRNG) -> None:
        campaign = self.outcome.campaigns[index]
        campaign.steps += 1
        # Always re-fetch the tool: a failover since the last round may
        # have swapped the engine (and tool) under this campaign.
        picked = pick_step(self._tool(index).engine.manager, step, rng)
        if not picked:
            return
        try:
            shed = self._rebuild(
                index, [ProbeOp(step.kind, p.id) for p in picked]
            )
        except ServiceError as error:
            if error.retry_after_s is None:
                raise
            # Breaker open: a fast failure, not a hang.  Count it; the
            # step's ops were never applied, so state stays consistent.
            campaign.breaker_rejections += 1
            return
        if shed:
            campaign.shed[shed] = campaign.shed.get(shed, 0) + 1
            return
        campaign.replies += 1

    def verdict(self) -> None:
        self._count()
        for index, campaign in enumerate(self.outcome.campaigns):
            # The recovery oracle: the campaign's final probe state — on
            # whatever engine it ended up — must rebuild fingerprint- and
            # behaviour-identical to an uninterrupted from-scratch run.
            oracle = self.runner.oracles[campaign.program]
            campaign.mismatches.extend(
                oracle.compare_to_reference(self._tool(index).engine)
            )

    # -- target hooks ----------------------------------------------------------

    def _fire(self, event: FaultEvent) -> bool:
        """Inject one fault; False if it had nothing to hit (a no-op)."""
        raise NotImplementedError

    def _tool(self, index: int) -> OdinCov:
        """Campaign *index*'s current coverage tool (and, via it, engine)."""
        raise NotImplementedError

    def _rebuild(self, index: int, ops: List[ProbeOp]) -> Optional[str]:
        """Send one step's ops; the shed reason if the target refused."""
        raise NotImplementedError

    def _tick(self, rnd: int) -> None:
        """Post-round housekeeping; none by default."""

    def _count(self) -> None:
        """Fill ``outcome.counters`` once the schedule is over."""
        raise NotImplementedError


class ServiceChaos(_ChaosSession):
    """The one client of a fresh supervised service per schedule
    (process-pool compiler by default, persistent cache in a scratch
    directory)."""

    NAME = "service"
    OPTIONS = {"workers": 2, "worker_mode": MODE_PROCESS}
    FAULTS = SERVICE_FAULTS
    TOTALS = ("worker_restarts",)

    def __init__(self, runner, schedule, outcome, cleanup):
        super().__init__(runner, schedule, outcome, cleanup)
        if len(schedule.campaigns) != 1:
            raise ValueError("the service target replays exactly one campaign")
        program = self.programs[0]
        self.rng = DeterministicRNG(schedule.seed ^ 0xC4A05)
        self._armed: List[type] = []
        self._corrupted: List[str] = []
        workdir = tempfile.mkdtemp(prefix="repro-chaos-")
        cleanup.callback(shutil.rmtree, workdir, ignore_errors=True)
        self.service = RecompilationService(
            workers=runner.options["workers"],
            worker_mode=runner.options["worker_mode"],
            cache_dir=f"{workdir}/cache",
            retry_policy=RetryPolicy(seed=schedule.seed),
        )
        cleanup.callback(self.service.close)
        self.service.compiler.fault_injector = self._inject
        # Patching is off for chaos: the tiered fast path services probe
        # toggles without ever reaching the worker pool, but armed worker
        # faults only fire inside a compile batch — every step must take
        # the full path for the schedule's faults to land where intended.
        engine = self.service.register_target(
            program.name, program.compile(), preserve=PRESERVED,
            enable_patching=False,
        )
        self.client = self.service.client(program.name, "chaos")
        self.tool = OdinCov(engine, rebuild_fn=self.client.rebuild_report)
        self.tool.add_all_block_probes()
        self.service.build(program.name)
        self.service.start()
        self.executor = OdinCovExecutor(self.tool)
        self.inputs = runner.oracles[program.name].inputs
        self.cursor = 0
        outcome.campaigns.append(CampaignOutcome("chaos", program.name))

    def _inject(self, compiler, batch, attempt) -> None:
        """SupervisedCompiler hook: fire one armed fault per attempt."""
        if self._armed and batch:
            raise self._armed.pop(0)(
                f"chaos: injected {self.schedule.describe()} fault "
                f"(attempt {attempt}, batch of {len(batch)})"
            )

    def _fire(self, event: FaultEvent) -> bool:
        if event.kind == FAULT_WORKER_CRASH:
            self._armed.append(WorkerCrashError)
        elif event.kind == FAULT_WORKER_HANG:
            self._armed.append(WorkerTimeoutError)
        elif event.kind == FAULT_CACHE_CORRUPT:
            keys = self.service.cache.keys()
            if not keys:  # nothing stored yet: fault is a no-op
                return False
            victim = keys[self.rng.randint(0, len(keys) - 1)]
            self.service.cache.inject_fault("corrupt-obj", key=victim)
            self._corrupted.append(victim)
        elif event.kind == FAULT_DISPATCHER_RESTART:
            self.service.stop(drain=True)
            self.service.start()
        else:  # FAULT_DEADLINE_EXPIRE
            # Submitted while the dispatcher is down with a deadline of
            # zero: already expired by the time dispatch resumes, so the
            # queue must shed it instead of compiling for nobody.
            self.service.stop(drain=True)
            job = self.client.submit((), deadline_s=0.0)
            self.service.start()
            campaign = self.outcome.campaigns[0]
            try:
                job.result(REPLY_TIMEOUT_S)
                campaign.mismatches.append(
                    f"deadline-expired job before step {event.step} was "
                    f"compiled instead of shed"
                )
            except DeadlineExpiredError:
                campaign.shed["deadline"] = campaign.shed.get("deadline", 0) + 1
        return True

    def _step(self, index: int, step, rng: DeterministicRNG) -> None:
        for _ in range(step.inputs):
            self.executor.execute(self.inputs[self.cursor % len(self.inputs)])
            self.cursor += 1
        super()._step(index, step, rng)
        self.executor._refresh_vm()

    def _tool(self, index: int) -> OdinCov:
        return self.tool

    def _rebuild(self, index: int, ops: List[ProbeOp]) -> Optional[str]:
        self.client.rebuild(ops, timeout=REPLY_TIMEOUT_S)
        return None

    def _count(self) -> None:
        unfired = len(self._armed)
        self._armed.clear()  # never let a leftover fault poison teardown
        # Corrupted entries must self-heal: a get may miss (quarantined)
        # but must never raise or return different bytes (the oracle
        # would catch wrong bytes that got linked).
        cache = self.service.cache
        for key in self._corrupted:
            try:
                cache.get(key)
            except Exception as error:  # noqa: BLE001 - the assertion itself
                self.outcome.campaigns[0].mismatches.append(
                    f"corrupted cache entry {key[:12]} raised "
                    f"{type(error).__name__} instead of degrading to a miss"
                )
        stats = self.service.compiler.stats()
        self.outcome.counters.update(
            worker_restarts=stats["worker_restarts"],
            degradations=stats["degradations"],
            quarantined=getattr(cache, "quarantined", 0),
            unfired_worker_faults=unfired,
        )


class ClusterChaos(_ChaosSession):
    """One tenant per campaign on a fresh sharded cluster per schedule.

    Tenants alternate interactive (weight 3) / bulk (weight 1) and are
    spread round-robin over the runner's programs, so several tenants
    always share a program — exercising content-key co-location and the
    shared cache tier while shards die under them.
    """

    NAME = "cluster"
    OPTIONS = {"shards": 3, "reply_timeout_s": 4.0}
    FAULTS = CLUSTER_FAULTS
    TOTALS = ("failovers", "resubmits")

    def __init__(self, runner, schedule, outcome, cleanup):
        super().__init__(runner, schedule, outcome, cleanup)
        self.rng = DeterministicRNG(schedule.seed ^ 0x51A8D0)
        self.cluster = CompileCluster(
            shards=runner.options["shards"],
            reply_timeout_s=runner.options["reply_timeout_s"],
            quota_window=QUOTA_WINDOW,
            heartbeat_miss_threshold=2,
        )
        cleanup.callback(self.cluster.close)
        # shard id -> replay round at which its partition heals.
        self._partitions: Dict[str, int] = {}
        for index, program in enumerate(self.programs):
            tenant_id = f"tenant-{index}"
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
            outcome.campaigns.append(CampaignOutcome(tenant_id, program.name))
        self.cluster.start()
        self.clients = [
            self.cluster.client(c.client, c.program, client_id=c.client)
            for c in outcome.campaigns
        ]

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

    def _fire(self, event: FaultEvent) -> bool:
        victim = self._victim()
        if victim is None:
            return False
        shard = self.cluster.shards[victim]
        if event.kind == FAULT_SHARD_KILL:
            shard.kill()
        elif event.kind == FAULT_SHARD_HANG:
            shard.hang()
        else:  # FAULT_ROUTER_PARTITION
            shard.partition()
            # Heals after 1-2 rounds — racing the 2-miss condemnation
            # threshold, so seeded schedules cover both the transient
            # (heal, no failover) and escalated (failover) paths.
            self._partitions[victim] = event.step + self.rng.randint(1, 2)
        return True

    def _tool(self, index: int) -> OdinCov:
        campaign = self.outcome.campaigns[index]
        return self.cluster.tool(campaign.client, campaign.program)

    def _rebuild(self, index: int, ops: List[ProbeOp]) -> Optional[str]:
        try:
            self.clients[index].rebuild(ops)
        except TenantQuotaError:
            return "quota"  # ops never reached a shard; state unchanged
        except DeadlineExpiredError:
            return "deadline"  # shed before apply on a healthy shard
        return None

    def _tick(self, rnd: int) -> None:
        """Post-round housekeeping: heal due partitions, health-check."""
        for shard_id, heal_at in list(self._partitions.items()):
            if rnd + 1 >= heal_at:
                shard = self.cluster.shards[shard_id]
                if not shard.fenced:  # failover may have won the race
                    shard.heal_partition()
                del self._partitions[shard_id]
        self.cluster.check_health_once()

    def _count(self) -> None:
        metrics = self.cluster.metrics
        self.outcome.counters.update(
            failovers=int(metrics.counter("failovers")),
            migrations=int(metrics.counter("targets_migrated")),
            resubmits=int(metrics.counter("resubmits")),
            live_shards=len(self.cluster.ring),
            degraded=self.cluster.degraded,
        )
        tenant_stats = self.cluster.tenants.stats()["tenants"]
        for campaign in self.outcome.campaigns:
            counters = tenant_stats.get(campaign.client, {})
            campaign.resubmits = int(counters.get("resubmits", 0))


def _chaos_instrument(engine):
    """Re-runnable instrumentation for cluster chaos targets."""
    tool = OdinCov(engine)
    tool.add_all_block_probes()
    return tool
