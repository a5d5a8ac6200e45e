"""Request queue: batching, deduplication, deadlines and backpressure.

Inference-server shape: clients enqueue :class:`CompileRequest`s and get
a :class:`Job` future back; the dispatcher drains *everything pending for
one target* as a single batch, merges the probe operations (deduplicating
identical ops from different clients), applies them to the engine's
PatchManager once, and runs **one** rebuild whose report answers every
job in the batch.  Two clients dirtying the same fragment therefore cost
one compile — the dedup the issue tracker calls out — and a client that
requests a rebuild while one is already queued simply joins the batch.

Overload control (the fault-tolerance layer):

* a request may carry ``deadline_s``; a job still queued when its
  deadline passes is **shed** at pop time — it is answered immediately
  with :class:`DeadlineExpiredError` instead of wasting a compile on an
  answer nobody is waiting for;
* the queue may have a ``max_depth``; submissions beyond it are refused
  with :class:`QueueFullError` (backpressure to the client) rather than
  letting the backlog grow without bound behind a struggling engine.

Both shed paths count into ``shed_total`` (plus ``shed_expired`` /
``shed_overflow``) on the optional metrics registry.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.core.engine import RebuildReport
from repro.errors import ReproError, ScheduleError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.manager import PatchManager

# Probe operation kinds: each names the PatchManager method applying it.
OP_ENABLE = "enable"
OP_DISABLE = "disable"
OP_REMOVE = "remove"
OP_MARK_CHANGED = "mark_changed"
OP_KINDS = (OP_ENABLE, OP_DISABLE, OP_REMOVE, OP_MARK_CHANGED)


class QueueFullError(ReproError):
    """The job queue is at ``max_depth``; back off and resubmit."""


class DeadlineExpiredError(ReproError, TimeoutError):
    """A deadline passed: either the job was still queued when its
    ``deadline_s`` elapsed (server-side shed) or a client's
    ``Job.result`` wait expired (client-side timeout).

    ``retry_after_s`` carries the circuit breaker's hint when the
    service can say when capacity returns (``None`` otherwise), so a
    shed client knows whether to back off or fail over.  Subclasses
    ``TimeoutError`` so callers treating expiry generically keep
    working.
    """

    def __init__(self, message: str, *, retry_after_s: Optional[float] = None):
        super().__init__(message)
        self.retry_after_s = retry_after_s


@dataclass(frozen=True)
class ProbeOp:
    """One probe mutation: (kind, probe id).  Hashable, so batches dedup.

    :meth:`apply` is the one place a kind becomes a PatchManager call:
    the service's batches, the cluster's ledger replay and every
    ``repro check`` replayer go through it.
    """

    kind: str
    probe_id: int

    def __post_init__(self):
        if self.kind not in OP_KINDS:
            raise ValueError(
                f"unknown probe op {self.kind!r}; expected one of {OP_KINDS}"
            )

    def apply(self, manager: "PatchManager") -> bool:
        """Apply this op to *manager*; False when the probe is gone."""
        try:
            probe = manager.get_probe(self.probe_id)
        except ScheduleError:
            return False
        getattr(manager, self.kind)(probe)
        return True


@dataclass
class CompileRequest:
    """What one client wants from the service.

    ``ops`` may be empty: that is a plain "rebuild whatever is dirty"
    request (instrumentation tools often mutate the PatchManager
    directly, then ask the service to make it so).

    ``deadline_s`` (optional) is a freshness bound relative to
    submission: if the job is still queued after that many seconds, the
    service sheds it with :class:`DeadlineExpiredError` instead of
    compiling an answer the client has stopped waiting for.

    ``tenant_id`` (optional) is the multi-tenant identity: which
    campaign this request belongs to.  The cluster router uses it for
    quota/shed accounting; a standalone service just carries it through.

    ``resubmit_token`` (optional) makes retries idempotent across shard
    failover: a router resubmitting an in-flight request after a shard
    died reuses the original token, and the cluster's per-target ledger
    refuses to double-acknowledge it.  Probe ops are state-setting, so a
    replayed batch converges to the same probe state either way; the
    token makes the accounting exact.
    """

    target: str
    ops: Tuple[ProbeOp, ...] = ()
    client_id: str = "anon"
    deadline_s: Optional[float] = None
    tenant_id: str = ""
    resubmit_token: Optional[str] = None

    def __post_init__(self):
        if self.deadline_s is not None and self.deadline_s < 0:
            raise ValueError("deadline_s must be >= 0")


@dataclass
class ServiceReply:
    """Shared answer for every job in one batch."""

    report: Optional[RebuildReport]
    batch_size: int
    batch_clients: int
    ops_submitted: int
    ops_applied: int
    ops_skipped: int = 0
    queue_wait_ms: float = 0.0
    # How many rebuild attempts the batch needed (1 = no faults).
    attempts: int = 1

    @property
    def dedup_ratio(self) -> float:
        """Submitted / applied ops: >1 means the batch deduplicated."""
        return self.ops_submitted / self.ops_applied if self.ops_applied else 1.0


class Job:
    """Client-side future for one submitted request.

    ``result()`` waits are always bounded: with no explicit timeout the
    wait expires after ``DEFAULT_RESULT_TIMEOUT_S`` and raises
    :class:`DeadlineExpiredError` — a client can no longer block forever
    behind a dead dispatcher.  The error carries the circuit breaker's
    ``retry_after_s`` hint when the service installed one
    (``retry_hint``), so the caller knows whether the service expects to
    recover or the wait should fail over.
    """

    # Bounds result() waits that pass no explicit timeout.
    DEFAULT_RESULT_TIMEOUT_S = 60.0

    def __init__(self, request: CompileRequest):
        self.request = request
        # Stamped by JobQueue.submit under the queue lock, *before* the
        # job becomes visible to the dispatcher — stamping after
        # publication let a fast dispatcher observe an unstamped job and
        # report a bogus ~0 ms queue wait.
        self.submitted_at: Optional[float] = None
        # Absolute perf_counter deadline (submitted_at + deadline_s), or
        # None when the request carries no deadline.
        self.deadline_at: Optional[float] = None
        # Installed by the service at submit time: a zero-arg callable
        # answering "seconds until the breaker admits traffic again".
        self.retry_hint: Optional[Callable[[], float]] = None
        self._event = threading.Event()
        self._reply: Optional[ServiceReply] = None
        self._error: Optional[BaseException] = None

    def done(self) -> bool:
        return self._event.is_set()

    def expired(self, now: Optional[float] = None) -> bool:
        if self.deadline_at is None:
            return False
        return (time.perf_counter() if now is None else now) >= self.deadline_at

    def set_reply(self, reply: ServiceReply) -> None:
        self._reply = reply
        self._event.set()

    def set_error(self, error: BaseException) -> None:
        self._error = error
        self._event.set()

    def result(self, timeout: Optional[float] = None) -> ServiceReply:
        """Wait (bounded) for the batch's reply.

        ``timeout=None`` waits ``DEFAULT_RESULT_TIMEOUT_S`` seconds, not
        forever.  An expired wait raises :class:`DeadlineExpiredError`
        (a ``TimeoutError`` subclass) with the breaker's
        ``retry_after_s`` hint attached when one is known.
        """
        if timeout is None:
            timeout = self.DEFAULT_RESULT_TIMEOUT_S
        if not self._event.wait(timeout):
            retry_after = None
            if self.retry_hint is not None:
                try:
                    retry_after = self.retry_hint() or None
                except Exception:  # the hint is best-effort, never fatal
                    retry_after = None
            raise DeadlineExpiredError(
                f"job for target {self.request.target!r} not finished "
                f"within {timeout}s"
                + (f" (breaker hints retry in {retry_after:.2f}s)"
                   if retry_after is not None else ""),
                retry_after_s=retry_after,
            )
        if self._error is not None:
            raise self._error
        assert self._reply is not None
        return self._reply


class JobQueue:
    """Thread-safe queue of jobs, drained in per-target batches.

    ``max_depth`` bounds the backlog (None = unbounded); ``metrics`` is
    an optional :class:`repro.obs.metrics.MetricsRegistry` that receives
    the shed counters.
    """

    def __init__(self, max_depth: Optional[int] = None, metrics=None):
        if max_depth is not None and max_depth < 1:
            raise ValueError("max_depth must be >= 1 (or None)")
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._jobs: List[Job] = []
        self.max_depth = max_depth
        self.metrics = metrics
        self.submitted = 0
        self.peak_depth = 0
        self.shed_expired = 0
        self.shed_overflow = 0

    @property
    def shed_total(self) -> int:
        return self.shed_expired + self.shed_overflow

    def _count_shed(self, kind: str) -> None:
        """Caller holds the lock; *kind* is ``expired`` or ``overflow``."""
        if kind == "expired":
            self.shed_expired += 1
        else:
            self.shed_overflow += 1
        if self.metrics is not None:
            self.metrics.inc("shed_total")
            self.metrics.inc(f"shed_{kind}")

    def submit(self, request: CompileRequest) -> Job:
        job = Job(request)
        with self._not_empty:
            if self.max_depth is not None and len(self._jobs) >= self.max_depth:
                self._count_shed("overflow")
                raise QueueFullError(
                    f"job queue is full ({self.max_depth} pending); "
                    f"back off and resubmit"
                )
            job.submitted_at = time.perf_counter()
            if request.deadline_s is not None:
                job.deadline_at = job.submitted_at + request.deadline_s
            self._jobs.append(job)
            self.submitted += 1
            self.peak_depth = max(self.peak_depth, len(self._jobs))
            self._not_empty.notify_all()
        return job

    def depth(self) -> int:
        with self._lock:
            return len(self._jobs)

    def stats(self) -> dict:
        """One consistent snapshot of every queue counter.

        All fields are read under a single lock acquisition, so the
        snapshot can never tear (e.g. a ``shed_total`` that includes a
        shed whose ``shed_expired`` increment is not visible yet, or a
        ``depth`` from a different moment than ``submitted``).
        """
        with self._lock:
            return {
                "depth": len(self._jobs),
                "submitted": self.submitted,
                "peak_depth": self.peak_depth,
                "max_depth": self.max_depth,
                "shed_total": self.shed_expired + self.shed_overflow,
                "shed_expired": self.shed_expired,
                "shed_overflow": self.shed_overflow,
            }

    def _shed_expired_locked(self) -> List[Job]:
        """Drop every queued job whose deadline passed; returns them."""
        now = time.perf_counter()
        expired = [j for j in self._jobs if j.expired(now)]
        if expired:
            self._jobs = [j for j in self._jobs if not j.expired(now)]
            for job in expired:
                self._count_shed("expired")
        return expired

    def pop_batch(
        self, timeout: Optional[float] = None
    ) -> Tuple[Optional[str], List[Job]]:
        """Block until work is pending, then drain one target's batch.

        Expired jobs are shed first — answered with
        :class:`DeadlineExpiredError`, never compiled.  Returns
        ``(target, jobs)`` — every queued live job for the target of the
        oldest pending request — or ``(None, [])`` on timeout.
        """
        with self._not_empty:
            if not self._jobs and not self._not_empty.wait(timeout):
                return None, []
            expired = self._shed_expired_locked()
            target: Optional[str] = None
            batch: List[Job] = []
            if self._jobs:
                target = self._jobs[0].request.target
                batch = [j for j in self._jobs if j.request.target == target]
                self._jobs = [j for j in self._jobs if j.request.target != target]
        # Answer shed jobs outside the lock: set_error wakes waiters.
        for job in expired:
            job.set_error(
                DeadlineExpiredError(
                    f"deadline of {job.request.deadline_s}s expired while "
                    f"job for target {job.request.target!r} was queued"
                )
            )
        return target, batch

    def drain_remaining(self) -> List[Job]:
        """Remove and return every queued job (service shutdown path)."""
        with self._lock:
            remaining, self._jobs = self._jobs, []
            return remaining


def merge_batch(jobs: List[Job]) -> Tuple[List[ProbeOp], int, int]:
    """Merge a batch's ops, dropping duplicates.

    Returns ``(unique ops, submitted, applied)``, each op kept at its
    *last* occurrence, in last-occurrence order.  Ops on different
    probes commute and enable/disable set state, so the merged ops leave
    every probe as the submitted sequence does: disable / enable /
    disable of one probe ends disabled.
    """
    merged: Dict[ProbeOp, None] = {}
    submitted = 0
    for job in jobs:
        for op in job.request.ops:
            submitted += 1
            merged.pop(op, None)
            merged[op] = None
    unique = list(merged)
    return unique, submitted, len(unique)


def batch_clients(jobs: List[Job]) -> int:
    return len({job.request.client_id for job in jobs})
