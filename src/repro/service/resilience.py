"""Fault tolerance for the recompilation service.

The paper's pitch only pays off if the recompile loop is *always*
available: a fuzzer blocked on a dead compile server loses every saved
millisecond.  This module is the service's answer — degrade, never die:

* :class:`RetryPolicy` — bounded attempts with exponential backoff and
  deterministic seeded jitter.  Pure: ``delay_s(attempt)`` is a function
  of ``(policy, attempt)`` only, so chaos runs replay identically.
* :class:`CircuitBreaker` — classic closed/open/half-open gate.  After
  ``failure_threshold`` consecutive batch failures the breaker opens and
  new submissions fail fast with a ``retry_after_s`` hint instead of
  piling onto a broken engine; after ``reset_timeout_s`` one half-open
  trial decides whether to close again.
* :class:`SupervisedCompiler` — the degradation ladder.  Wraps the
  fragment pools of :mod:`repro.service.workers`: a
  :class:`~repro.service.workers.WorkerError` (crash or hang) tears the
  pool down, rebuilds it and retries the batch; when a rung keeps
  failing the ladder escalates ``process -> serial`` (PartiSan style:
  degrade capacity, preserve correctness).  A batch is immutable
  ``(name, text)`` pairs that every attempt parses afresh, so a retry
  needs no restoring: a half-optimized module can never be compiled
  twice.

Everything here reports into the shared metrics registry
(``worker_restarts``, ``worker_degradations``, ``degraded_mode``,
``breaker_state``) and tracer (``service.worker_restart`` /
``service.degrade`` fault spans).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.backend.machine import ObjectFile
from repro.service.workers import (
    MODE_PROCESS,
    MODE_SERIAL,
    WorkerError,
    make_compiler,
)
from repro.utils.rng import DeterministicRNG

__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "CircuitBreaker",
    "DEGRADATION_LADDERS",
    "RetryPolicy",
    "SupervisedCompiler",
]


# -- retry policy ----------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter.

    ``max_attempts`` counts *attempts*, not retries: 3 means one try plus
    up to two retries.  ``delay_s(attempt)`` is the backoff slept after
    failed attempt *attempt* (1-based); jitter subtracts up to
    ``jitter * delay`` using an RNG seeded from ``(seed, attempt)``, so
    two services with the same policy back off identically — seeded chaos
    schedules depend on that.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.005
    multiplier: float = 2.0
    max_delay_s: float = 0.1
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def delay_s(self, attempt: int) -> float:
        """Backoff before the retry following failed attempt *attempt*."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        raw = min(
            self.base_delay_s * self.multiplier ** (attempt - 1),
            self.max_delay_s,
        )
        if not self.jitter or not raw:
            return raw
        rng = DeterministicRNG(self.seed * 1_000_003 + attempt)
        return raw * (1.0 - self.jitter * rng.random())

    def delays(self) -> List[float]:
        """Every backoff this policy will sleep, in order."""
        return [self.delay_s(a) for a in range(1, self.max_attempts)]


# -- circuit breaker -------------------------------------------------------------

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"

# Numeric encoding for the ``breaker_state`` gauge.
BREAKER_STATE_GAUGE = {BREAKER_CLOSED: 0, BREAKER_HALF_OPEN: 1, BREAKER_OPEN: 2}


class CircuitBreaker:
    """Closed / open / half-open gate over the service's batch engine.

    * **closed** — everything flows; consecutive failures are counted.
    * **open** — after ``failure_threshold`` consecutive failures:
      :meth:`allow` returns False until ``reset_timeout_s`` elapses, so
      clients get a fast error (with :meth:`retry_after_s` as a hint)
      instead of queueing behind a broken engine.
    * **half-open** — after the timeout, up to ``half_open_max_calls``
      trial calls are let through; one success closes the breaker, one
      failure re-opens it (and restarts the timeout).

    Thread-safe.  ``clock`` is injectable for deterministic tests.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout_s: float = 5.0,
        half_open_max_calls: int = 1,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_timeout_s < 0:
            raise ValueError("reset_timeout_s must be >= 0")
        if half_open_max_calls < 1:
            raise ValueError("half_open_max_calls must be >= 1")
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self.half_open_max_calls = half_open_max_calls
        self._clock = clock
        self._lock = threading.Lock()
        self._state = BREAKER_CLOSED
        self._failures = 0          # consecutive failures while closed
        self._opened_at = 0.0
        self._trials = 0            # half-open calls let through so far
        # Lifetime accounting (exported via service stats).
        self.opens = 0
        self.rejections = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._poll()

    def _poll(self) -> str:
        """Advance open -> half-open on timeout; caller holds the lock."""
        if (
            self._state == BREAKER_OPEN
            and self._clock() - self._opened_at >= self.reset_timeout_s
        ):
            self._state = BREAKER_HALF_OPEN
            self._trials = 0
        return self._state

    def allow(self) -> bool:
        """May a new request pass?  Counts half-open trial admissions."""
        with self._lock:
            state = self._poll()
            if state == BREAKER_CLOSED:
                return True
            if state == BREAKER_HALF_OPEN and self._trials < self.half_open_max_calls:
                self._trials += 1
                return True
            self.rejections += 1
            return False

    def record_success(self) -> None:
        with self._lock:
            self._poll()
            self._failures = 0
            if self._state != BREAKER_CLOSED:
                self._state = BREAKER_CLOSED
                self._trials = 0

    def record_failure(self) -> None:
        with self._lock:
            state = self._poll()
            if state == BREAKER_HALF_OPEN:
                self._trip()
            else:
                self._failures += 1
                if self._failures >= self.failure_threshold:
                    self._trip()

    def _trip(self) -> None:
        self._state = BREAKER_OPEN
        self._failures = 0
        self._trials = 0
        self._opened_at = self._clock()
        self.opens += 1

    def retry_after_s(self) -> float:
        """Seconds until the breaker will admit a half-open trial."""
        with self._lock:
            if self._poll() != BREAKER_OPEN:
                return 0.0
            elapsed = self._clock() - self._opened_at
            return max(self.reset_timeout_s - elapsed, 0.0)

    def stats(self) -> dict:
        with self._lock:
            return {
                "state": self._poll(),
                "consecutive_failures": self._failures,
                "opens": self.opens,
                "rejections": self.rejections,
                "retry_after_s": (
                    max(self.reset_timeout_s - (self._clock() - self._opened_at), 0.0)
                    if self._state == BREAKER_OPEN
                    else 0.0
                ),
            }


# -- degradation ladder ----------------------------------------------------------

# Requested mode -> rungs tried in order.  Serial inline is the floor:
# it cannot crash or hang (no pool), only surface real compile errors.
DEGRADATION_LADDERS = {
    MODE_PROCESS: (MODE_PROCESS, MODE_SERIAL),
    MODE_SERIAL: (MODE_SERIAL,),
}


class SupervisedCompiler:
    """Fragment compiler with restart-retry-degrade supervision.

    Drop-in for the raw pool compilers (``compile_batch`` / ``workers`` /
    ``close``): the engine never learns that the pool beneath it was torn
    down, rebuilt, or replaced by a lower rung.  Faults escalate in three
    stages:

    1. **restart + retry** — a :class:`WorkerError` tears the current
       pool down (``worker_restarts``) and the same batch is retried,
       backing off per the :class:`RetryPolicy`;
    2. **degrade** — a rung that exhausts its retries is closed for good
       and the next rung takes over (``degraded_mode`` gauge: rung
       index); a process pool falls back to the serial floor;
    3. **surface** — only when the serial floor itself fails does the
       error propagate (it is then a real compile error, not a fault).

    ``fault_injector`` is the chaos hook: called before every attempt
    with ``(compiler, fragments, attempt)``; raising a ``WorkerError``
    from it simulates a crash/hang at exactly that point.
    """

    def __init__(
        self,
        mode: str = MODE_SERIAL,
        workers: int = 1,
        *,
        retry: Optional[RetryPolicy] = None,
        metrics=None,
        tracer=None,
        batch_timeout_s: Optional[float] = None,
        sleep: Callable[[float], None] = time.sleep,
        fault_injector: Optional[Callable] = None,
    ):
        try:
            self.ladder: Tuple[str, ...] = DEGRADATION_LADDERS[mode]
        except KeyError:
            raise ValueError(
                f"unknown worker mode {mode!r}; expected one of "
                f"{tuple(DEGRADATION_LADDERS)}"
            ) from None
        self.requested_mode = mode
        self.requested_workers = workers
        self.retry = retry or RetryPolicy()
        self.metrics = metrics
        self.tracer = tracer
        self.batch_timeout_s = batch_timeout_s
        self.fault_injector = fault_injector
        self._sleep = sleep
        self._rung = 0
        self._compilers: dict = {}
        self._lock = threading.RLock()
        self.worker_restarts = 0
        self.degradations = 0

    # -- introspection ---------------------------------------------------------

    @property
    def mode(self) -> str:
        """The rung currently serving batches."""
        return self.ladder[self._rung]

    @property
    def degraded(self) -> bool:
        return self._rung > 0

    @property
    def workers(self) -> int:
        return self._current().workers

    def _current(self):
        compiler = self._compilers.get(self._rung)
        if compiler is None:
            compiler = make_compiler(
                self.mode, self.requested_workers,
                batch_timeout_s=self.batch_timeout_s,
            )
            self._compilers[self._rung] = compiler
        return compiler

    def stats(self) -> dict:
        with self._lock:
            return {
                "requested_mode": self.requested_mode,
                "mode": self.mode,
                "workers": self.workers,
                "worker_restarts": self.worker_restarts,
                "degradations": self.degradations,
            }

    # -- compilation -----------------------------------------------------------

    def compile_batch(
        self, fragments: List[Tuple[str, str]], opt_level: int
    ) -> List[ObjectFile]:
        with self._lock:
            last_error: Optional[WorkerError] = None
            while True:
                compiler = self._current()
                for attempt in range(1, self.retry.max_attempts + 1):
                    try:
                        if self.fault_injector is not None:
                            self.fault_injector(self, fragments, attempt)
                        return compiler.compile_batch(fragments, opt_level)
                    except WorkerError as error:
                        last_error = error
                        self._note_restart(compiler, error, attempt)
                        if attempt < self.retry.max_attempts:
                            self._sleep(self.retry.delay_s(attempt))
                if self._rung + 1 >= len(self.ladder):
                    raise WorkerError(
                        f"all rungs of the {self.requested_mode} degradation "
                        f"ladder failed"
                    ) from last_error
                self._degrade(last_error)

    def _note_restart(self, compiler, error: WorkerError, attempt: int) -> None:
        restart = getattr(compiler, "restart", None)
        if restart is not None:
            restart()
        self.worker_restarts += 1
        if self.metrics is not None:
            self.metrics.inc("worker_restarts")
        self._fault_span(
            "service.worker_restart",
            mode=self.mode,
            attempt=attempt,
            error=type(error).__name__,
        )

    def _degrade(self, error: Optional[WorkerError]) -> None:
        failed = self._compilers.pop(self._rung, None)
        if failed is not None:
            close = getattr(failed, "close", None)
            if close is not None:
                try:
                    close()
                except Exception:  # pragma: no cover - broken pools may throw
                    pass
        from_mode = self.mode
        self._rung += 1
        self.degradations += 1
        if self.metrics is not None:
            self.metrics.inc("worker_degradations")
            self.metrics.set_gauge("degraded_mode", self._rung)
        self._fault_span(
            "service.degrade",
            from_mode=from_mode,
            to_mode=self.mode,
            error=type(error).__name__ if error is not None else "unknown",
        )

    def _fault_span(self, name: str, **args) -> None:
        if self.tracer is None:
            return
        from repro.obs.tracer import CAT_FAULT, Span

        self.tracer.record(Span(name, cat=CAT_FAULT, args=args))

    def close(self) -> None:
        with self._lock:
            for compiler in self._compilers.values():
                close = getattr(compiler, "close", None)
                if close is not None:
                    close()
            self._compilers.clear()
