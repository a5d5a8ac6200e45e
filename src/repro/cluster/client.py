"""Tenant-side handle on a cluster target: admission, routing, failover.

A :class:`ClusterClient` is the cluster analogue of
:class:`repro.service.client.ServiceClient`: probe-op helpers plus a
``rebuild()`` that drives one logical request to completion across
shard failures.  The request loop:

1. **admission** — the weighted tenant quota runs first; an over-quota
   submit sheds with :class:`TenantQuotaError` (``retry_after_s`` hint)
   without ever touching a shard;
2. **route + submit** — the request carries the tenant id and a
   deterministic *resubmit token*, and goes to the target's current
   home shard;
3. **bounded wait** — ``Job.result`` waits are always bounded
   (satellite of this PR); an expired wait either means the shard is
   wedged (→ failover + resubmit) or the request was genuinely shed
   (→ :class:`DeadlineExpiredError` surfaces to the campaign);
4. **failover + idempotent resubmit** — a dead/unreachable shard is
   reported to the router (one data-path failure + one missed
   heartbeat condemns it); once the target has migrated, the *same*
   token is resubmitted on the new home.  Probe ops are state-setting
   and the router's ledger refuses double-acknowledgement, so a reply
   that raced the crash cannot be double-counted and a replayed batch
   converges to the same probe state.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.service.client import RebuildReport
from repro.service.jobs import (
    OP_DISABLE,
    OP_ENABLE,
    OP_MARK_CHANGED,
    OP_REMOVE,
    CompileRequest,
    DeadlineExpiredError,
    ProbeOp,
    QueueFullError,
    ServiceReply,
)
from repro.service.server import ServiceError
from repro.cluster.router import ClusterError, CompileCluster
from repro.cluster.shard import RouterPartitionError, ShardDownError

__all__ = ["ClusterClient"]

# Submits one logical request may spend across failovers.
MAX_ROUTE_ATTEMPTS = 4


class ClusterClient:
    """One tenant's client for one registered cluster target."""

    def __init__(self, cluster: CompileCluster, tenant_id: str, name: str,
                 client_id: str = "anon"):
        self.cluster = cluster
        self.tenant_id = tenant_id
        self.name = name
        self.client_id = client_id

    # -- op helpers (mirror ServiceClient) ------------------------------------

    def enable(self, *probe_ids: int) -> Tuple[ProbeOp, ...]:
        return tuple(ProbeOp(OP_ENABLE, pid) for pid in probe_ids)

    def disable(self, *probe_ids: int) -> Tuple[ProbeOp, ...]:
        return tuple(ProbeOp(OP_DISABLE, pid) for pid in probe_ids)

    def remove(self, *probe_ids: int) -> Tuple[ProbeOp, ...]:
        return tuple(ProbeOp(OP_REMOVE, pid) for pid in probe_ids)

    def mark_changed(self, *probe_ids: int) -> Tuple[ProbeOp, ...]:
        return tuple(ProbeOp(OP_MARK_CHANGED, pid) for pid in probe_ids)

    # -- request loop ---------------------------------------------------------

    def rebuild(self, ops: Tuple[ProbeOp, ...] = (), *,
                timeout: Optional[float] = None,
                deadline_s: Optional[float] = None) -> ServiceReply:
        """Drive one logical request to a reply, surviving failovers.

        Raises :class:`TenantQuotaError` when shed by admission,
        :class:`DeadlineExpiredError` when genuinely shed/expired on a
        healthy shard, :class:`ClusterError` when the routing budget is
        exhausted.
        """
        cluster = self.cluster
        entry = cluster.target(self.tenant_id, self.name)
        ops = tuple(ops)
        # Admission before routing: shed traffic never costs a shard
        # anything.  The retry hint prefers the home shard's breaker.
        home = cluster.shards[entry.shard_id]
        cluster.tenants.admit(
            self.tenant_id, retry_after_s=home.breaker.retry_after_s() or None
        )
        token = cluster.next_token(entry, ops)
        wait = cluster.reply_timeout_s if timeout is None else timeout
        attempts = 0
        last_error: Optional[BaseException] = None
        while attempts < MAX_ROUTE_ATTEMPTS:
            attempts += 1
            entry = cluster.target(self.tenant_id, self.name)
            shard = cluster.shards[entry.shard_id]
            request = CompileRequest(
                target=entry.key,
                ops=ops,
                client_id=self.client_id,
                deadline_s=deadline_s,
                tenant_id=self.tenant_id,
                resubmit_token=token,
            )
            try:
                job = shard.submit(request)
            except (ShardDownError, RouterPartitionError) as error:
                last_error = error
                self._note_retry(entry.shard_id, resubmit=attempts > 1)
                continue
            except QueueFullError:
                raise
            except ServiceError as error:
                # A fenced shard's service answers "closed"; treat it as
                # shard death.  A breaker-open ServiceError on a healthy
                # shard is real backpressure — surface it.
                if shard.fenced or shard.killed:
                    last_error = error
                    self._note_retry(entry.shard_id, resubmit=attempts > 1)
                    continue
                raise
            try:
                reply = job.result(wait)
            except DeadlineExpiredError as error:
                # Wedged shard (hang/crash mid-wait) or genuine shed?
                # Ask the router: one failed heartbeat on top of this
                # data-path failure condemns the shard.
                if cluster.note_suspect(entry.shard_id):
                    last_error = error
                    cluster.metrics.inc("resubmits")
                    cluster.tenants.note_resubmit(self.tenant_id)
                    continue
                cluster.tenants.note_deadline_expired(self.tenant_id)
                raise
            except (ShardDownError, RouterPartitionError, ServiceError) as error:
                # The job was answered with a shard-death error (killed
                # queue drain, fencing close, breaker trip on a dying
                # shard): resubmit if the router agrees the shard is gone.
                if cluster.note_suspect(entry.shard_id):
                    last_error = error
                    self._note_retry(entry.shard_id, resubmit=True, probe=False)
                    continue
                raise
            cluster.acknowledge(entry, token, ops)
            cluster.tenants.note_reply(self.tenant_id)
            return reply
        raise ClusterError(
            f"request {token!r} exhausted {MAX_ROUTE_ATTEMPTS} "
            f"routing attempts"
        ) from last_error

    def _note_retry(self, shard_id: str, *, resubmit: bool,
                    probe: bool = True) -> None:
        cluster = self.cluster
        if probe:
            cluster.note_suspect(shard_id)
        if resubmit:
            cluster.metrics.inc("resubmits")
            cluster.tenants.note_resubmit(self.tenant_id)

    def rebuild_report(self, ops: Tuple[ProbeOp, ...] = (), *,
                       timeout: Optional[float] = None) -> RebuildReport:
        """``rebuild`` + unwrap, for instrumentation-tool ``rebuild_fn``."""
        reply = self.rebuild(ops, timeout=timeout)
        return reply.report if reply.report is not None else RebuildReport()
