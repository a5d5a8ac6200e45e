"""The compile cluster: consistent-hash router over N recompile shards.

One :class:`CompileCluster` fronts ``shards`` independent
:class:`RecompilationService` instances behind a consistent-hash ring
keyed on **fragment content keys**: a target's routing key is the
digest of its canonical printed module IR, so two tenants fuzzing the
same program land on the same shard (and a failover reroutes them to
the same surviving shard together).  All shards mount *one* shared
content-addressed object cache, so a compile done for any tenant on any
shard is a hit for every other tenant — and a migrated target's
post-failover rebuild is mostly cache hits rather than fresh compiles.

Failover protocol (everything deterministic given the fault sequence):

1. A shard is *suspected* when a heartbeat misses or a data-path call
   fails with a shard error; heartbeat misses feed the per-shard
   circuit breaker.
2. A shard is *condemned* when its data path failed **and** a follow-up
   heartbeat also missed, or when ``heartbeat_miss_threshold``
   consecutive heartbeats missed (the pure-monitoring path for
   partitions that never heal).
3. Failover: the shard is fenced (service closed — the in-process stand
   in for lease revocation), removed from the ring (its hash range
   reroutes clockwise; every other key keeps its home), and each of its
   targets is **migrated**: the pristine module IR snapshot taken at
   registration is re-parsed on the takeover shard, the target's
   instrumentation callable re-runs (probe ids are deterministic module
   order, so they align), the per-target ledger of *acknowledged* ops
   replays onto the fresh PatchManager, and an initial build runs —
   served almost entirely from the shared cache tier.
4. In-flight jobs that died with the shard are resubmitted by their
   waiting :class:`~repro.cluster.client.ClusterClient` under the same
   resubmit token.  Probe ops are state-setting, so replay after ledger
   recovery is idempotent: the final probe state — and therefore the
   final linked image — is identical to an uninterrupted run, which the
   chaos recovery oracle checks by fingerprint.

Admission (:mod:`repro.cluster.tenants`) runs before routing: every
submit passes the weighted sliding-window quota, and the accountant is
flipped to *degraded* whenever a shard breaker is open or the cluster
is running with fewer shards than it started with — bulk tenants are
throttled before interactive ones ever feel the capacity loss.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.engine import Odin
from repro.errors import ReproError
from repro.ir.module import Module
from repro.ir.parser import parse_module
from repro.ir.printer import print_module
from repro.obs.metrics import MetricsRegistry
from repro.service.jobs import ProbeOp
from repro.service.resilience import BREAKER_OPEN
from repro.service.server import RecompilationService, open_code_cache
from repro.cluster.ring import ConsistentHashRing, content_route_key
from repro.cluster.shard import Shard, ShardDownError
from repro.cluster.tenants import TenantAccountant, TenantSpec

__all__ = ["CompileCluster", "ClusterError"]

# Fixed for every cluster; neither is a constructor value.
VIRTUAL_NODES = 32            # ring points per shard
DEGRADED_BULK_FACTOR = 0.25   # bulk tenants' quota share while degraded


class ClusterError(ReproError):
    """Cluster-level routing/registration failure."""


@dataclass
class _ClusterTarget:
    """Router-side record of one tenant's registered target.

    Holds everything needed to rebuild the target from scratch on
    another shard: the pristine IR snapshot, the instrumentation
    callable, and the ledger of acknowledged op batches.
    """

    key: str                      # service-scoped name: "tenant:name"
    tenant_id: str
    name: str
    route_key: str                # content key of the printed module IR
    ir_text: str                  # pristine module snapshot (pre-engine)
    module_name: str
    instrument: Optional[Callable[[Odin], object]]
    odin_kwargs: dict
    shard_id: str
    engine: Odin
    tool: object = None
    seq: int = 0                  # resubmit-token sequence
    ledger: List[Tuple[str, Tuple[ProbeOp, ...]]] = field(default_factory=list)
    acked: set = field(default_factory=set)
    migrations: int = 0


class CompileCluster:
    """Fault-tolerant sharded multi-tenant recompilation cluster.

    Settable: the shard count, a ``cache_dir`` to persist the shared
    cache in, the failover trigger (``heartbeat_miss_threshold``), the
    admission window (``quota_window``) and each client wait's bound
    (``reply_timeout_s``).  Shards are single-worker serial services;
    everything else is a module constant.
    """

    def __init__(
        self,
        shards: int = 3,
        *,
        cache_dir: Optional[str] = None,
        heartbeat_miss_threshold: int = 3,
        quota_window: int = 64,
        reply_timeout_s: float = 8.0,
    ):
        if shards < 1:
            raise ClusterError("a cluster needs at least one shard")
        # The shared cache tier: ONE object cache, mounted by every
        # shard.  Content keys are tenant-agnostic, so identical work
        # from different tenants/shards hits.
        self.cache = open_code_cache(cache_dir)
        self.metrics = MetricsRegistry()
        self.heartbeat_miss_threshold = heartbeat_miss_threshold
        self.reply_timeout_s = reply_timeout_s
        self.tenants = TenantAccountant(
            window=quota_window, degraded_bulk_factor=DEGRADED_BULK_FACTOR
        )
        self.shards: Dict[str, Shard] = {}
        for index in range(shards):
            shard_id = f"shard-{index}"
            service = RecompilationService(cache=self.cache)
            self.shards[shard_id] = Shard(shard_id, service)
        self.initial_shards = shards
        self.ring = ConsistentHashRing(
            sorted(self.shards), virtual_nodes=VIRTUAL_NODES
        )
        self._lock = threading.RLock()
        self._targets: Dict[str, _ClusterTarget] = {}
        # route_key -> tenants that have built it (cross-tenant hit
        # attribution: a warm build for a key some *other* tenant
        # already built counts its cache hits as cross-tenant).
        self._route_builders: Dict[str, set] = {}

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "CompileCluster":
        for shard in self.shards.values():
            if not shard.fenced and not shard.killed:
                shard.service.start()
        return self

    def stop(self) -> None:
        for shard in self.shards.values():
            if not shard.fenced and not shard.killed:
                shard.service.stop()

    def close(self) -> None:
        for shard in self.shards.values():
            if shard.fenced:
                continue
            try:
                shard.service.close()
            except Exception:
                pass
        flush = getattr(self.cache, "flush", None)
        if flush is not None:
            flush()

    def __enter__(self) -> "CompileCluster":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- registration ---------------------------------------------------------

    def register_tenant(self, spec: TenantSpec) -> None:
        self.tenants.register(spec)

    def register_target(
        self,
        tenant_id: str,
        name: str,
        module: Module,
        *,
        instrument: Optional[Callable[[Odin], object]] = None,
        build: bool = True,
        **odin_kwargs,
    ) -> Odin:
        """Register + instrument + build one tenant target.

        The module is snapshotted (printed) *before* the engine touches
        it: the snapshot is both the routing key (content key — same
        program, same shard, regardless of tenant) and the recovery
        image a failover re-parses on the takeover shard.
        ``instrument`` runs against the engine and must be
        re-runnable — it is invoked again after every migration.
        """
        self.tenants.spec(tenant_id)  # must be registered
        key = f"{tenant_id}:{name}"
        with self._lock:
            if key in self._targets:
                raise ClusterError(f"target {key!r} is already registered")
        ir_text = print_module(module)
        route_key = content_route_key(ir_text)
        shard_id = self.ring.route(route_key)
        shard = self.shards[shard_id]
        engine = shard.service.register_target(key, module, **odin_kwargs)
        entry = _ClusterTarget(
            key=key,
            tenant_id=tenant_id,
            name=name,
            route_key=route_key,
            ir_text=ir_text,
            module_name=module.name,
            instrument=instrument,
            odin_kwargs=dict(odin_kwargs),
            shard_id=shard_id,
            engine=engine,
        )
        if instrument is not None:
            entry.tool = instrument(engine)
        with self._lock:
            self._targets[key] = entry
        self.metrics.set_gauge("targets", len(self._targets))
        if build:
            self._build_accounted(entry, shard)
        return engine

    def _build_accounted(self, entry: _ClusterTarget, shard: Shard) -> None:
        """Run a target's initial build, attributing cross-tenant hits."""
        hits_before = self.cache.hits
        shard.service.build(entry.key)
        delta = self.cache.hits - hits_before
        with self._lock:
            builders = self._route_builders.setdefault(entry.route_key, set())
            warmed_by_other = any(t != entry.tenant_id for t in builders)
            builders.add(entry.tenant_id)
        if delta and warmed_by_other:
            self.metrics.inc("cross_tenant_cache_hits", delta)

    # -- lookups --------------------------------------------------------------

    def target(self, tenant_id: str, name: str) -> _ClusterTarget:
        with self._lock:
            try:
                return self._targets[f"{tenant_id}:{name}"]
            except KeyError:
                raise ClusterError(
                    f"unknown target {name!r} for tenant {tenant_id!r}"
                ) from None

    def engine(self, tenant_id: str, name: str) -> Odin:
        return self.target(tenant_id, name).engine

    def tool(self, tenant_id: str, name: str):
        return self.target(tenant_id, name).tool

    def shard_of(self, tenant_id: str, name: str) -> str:
        return self.target(tenant_id, name).shard_id

    def client(self, tenant_id: str, name: str,
               client_id: str = "anon") -> "ClusterClient":
        from repro.cluster.client import ClusterClient

        self.target(tenant_id, name)  # validate early
        return ClusterClient(self, tenant_id, name, client_id)

    @property
    def live_shards(self) -> List[str]:
        return [sid for sid, shard in self.shards.items()
                if shard.state != "down"]

    @property
    def degraded(self) -> bool:
        """Reduced capacity: a shard lost, or a shard breaker open."""
        lost = len(self.ring) < self.initial_shards
        tripped = any(
            shard.breaker.state == BREAKER_OPEN
            for sid, shard in self.shards.items()
            if sid in self.ring
        )
        return lost or tripped

    def _refresh_degraded(self) -> None:
        degraded = self.degraded
        self.tenants.set_degraded(degraded)
        self.metrics.set_gauge("degraded", 1 if degraded else 0)

    # -- tokens + ledger -------------------------------------------------------

    def next_token(self, entry: _ClusterTarget,
                   ops: Tuple[ProbeOp, ...]) -> str:
        """Deterministic resubmit token for one logical client request."""
        with self._lock:
            entry.seq += 1
            seq = entry.seq
        digest = hashlib.sha256(
            f"{entry.key}|{seq}|{[(op.kind, op.probe_id) for op in ops]}".encode()
        ).hexdigest()[:16]
        return f"{entry.key}#{seq}#{digest}"

    def acknowledge(self, entry: _ClusterTarget, token: str,
                    ops: Tuple[ProbeOp, ...]) -> None:
        """Record a replied batch in the target's recovery ledger.

        Idempotent under resubmit tokens: a resubmitted request that
        already acked (reply raced the failover) is not double-recorded.
        """
        with self._lock:
            if token in entry.acked:
                return
            entry.acked.add(token)
            if ops:
                entry.ledger.append((token, tuple(ops)))

    # -- health + failover -----------------------------------------------------

    def check_health_once(self) -> List[str]:
        """One heartbeat round; returns the shard ids failed over."""
        failed = []
        for sid in list(self.ring.nodes):
            shard = self.shards[sid]
            healthy = shard.heartbeat()
            if not healthy and (
                shard.consecutive_misses >= self.heartbeat_miss_threshold
                or shard.killed or shard.fenced
            ):
                self._failover(sid)
                failed.append(sid)
        self._refresh_degraded()
        return failed

    def note_suspect(self, shard_id: str) -> bool:
        """Data-path failure on *shard_id*: probe it, maybe fail over.

        Called by clients whose submit or result wait just failed.  The
        data-path failure plus one missed heartbeat is enough evidence
        to condemn (two independent signals); a heartbeat that succeeds
        (e.g. a healed partition) just resets the suspicion.  Returns
        True when the shard was failed over (now or previously).
        """
        shard = self.shards[shard_id]
        if shard_id not in self.ring:
            return True  # already failed over by someone else
        healthy = shard.heartbeat()
        if healthy:
            self._refresh_degraded()
            return False
        self._failover(shard_id)
        self._refresh_degraded()
        return True

    def _failover(self, shard_id: str) -> None:
        """Fence the shard, reroute its range, migrate its targets."""
        with self._lock:
            if shard_id not in self.ring:
                return  # concurrent caller won the race
            if len(self.ring) <= 1:
                raise ClusterError(
                    f"cannot fail over {shard_id!r}: no surviving shard"
                )
            shard = self.shards[shard_id]
            self.ring.remove(shard_id)
            abandoned = shard.fence()
            if abandoned:
                self.metrics.inc("failover_abandoned_jobs", abandoned)
            victims = [
                entry for entry in self._targets.values()
                if entry.shard_id == shard_id
            ]
            for entry in victims:
                self._migrate(entry)
            self.metrics.inc("failovers")
            self.metrics.set_gauge("live_shards", len(self.ring))

    def _migrate(self, entry: _ClusterTarget) -> None:
        """Rebuild one target on its new ring home from the IR snapshot.

        The fresh engine re-instruments (probe ids are deterministic
        module order, so they line up with the ledger), replays every
        *acknowledged* op batch in order, and rebuilds — the shared
        cache tier turns almost all of it into hits.  Unacknowledged
        in-flight ops are deliberately NOT replayed: their clients hold
        the resubmit token and will re-drive them through the new shard.
        """
        new_sid = self.ring.route(entry.route_key)
        shard = self.shards[new_sid]
        module = parse_module(entry.ir_text, entry.module_name)
        engine = shard.service.register_target(
            entry.key, module, **entry.odin_kwargs
        )
        tool = entry.instrument(engine) if entry.instrument is not None else None
        # A remove also drops the probe from the new tool's probe set; an
        # op whose probe an earlier entry removed applies as a no-op.
        for _token, ops in entry.ledger:
            for op in ops:
                op.apply(engine.manager)
        shard.service.build(entry.key)
        entry.shard_id = new_sid
        entry.engine = engine
        entry.tool = tool
        entry.migrations += 1
        self.metrics.inc("targets_migrated")

    # -- stepping (deterministic tests / chaos) --------------------------------

    def process_once(self) -> int:
        """Step every live shard's dispatcher once; returns jobs served."""
        served = 0
        for sid in list(self.ring.nodes):
            shard = self.shards[sid]
            if shard.state == "down" or shard.hung:
                continue
            served += shard.service.process_once(timeout=0.0)
        return served

    # -- export ---------------------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            targets = {
                key: {
                    "tenant": entry.tenant_id,
                    "shard": entry.shard_id,
                    "route_key": entry.route_key[:12],
                    "migrations": entry.migrations,
                    "acked_batches": len(entry.acked),
                }
                for key, entry in sorted(self._targets.items())
            }
        snapshot = self.metrics.stats()
        snapshot["cluster"] = {
            "shards": len(self.shards),
            "live_shards": len(self.ring),
            "degraded": self.degraded,
            "targets": targets,
        }
        snapshot["ring"] = self.ring.stats()
        snapshot["shards"] = {
            sid: shard.stats() for sid, shard in sorted(self.shards.items())
        }
        snapshot["tenants"] = self.tenants.stats()
        snapshot["shared_cache"] = self.cache.stats()
        return snapshot
