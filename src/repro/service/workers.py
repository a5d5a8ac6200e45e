"""Parallel fragment compile pools.

Fragments are independent compilation units (each is split into its own
module and lowered to its own object file), so a rebuild's cache-miss
batch can fan out across workers: Fig. 12's worst-case fragment no
longer serializes the whole batch behind it.

Two modes, both order-preserving (results come back in batch order
regardless of completion order, which keeps reports and the simulated
clock deterministic for any worker count):

* ``serial``  — in-process loop; byte-identical to the classic engine.
* ``process`` — ``ProcessPoolExecutor``; each fragment's ``(name, text)``
  pair is shipped as given, the same canonical text content addressing
  hashes, and parsed in the worker by the same
  :func:`~repro.core.engine.compile_fragment` the serial loop calls.

The pool uses processes, not threads: compiling is CPU-bound Python,
which threads would run one at a time under the interpreter lock.

The process pool supervises its batches: an optional
``batch_timeout_s`` bounds how long a batch may run (a hung worker
raises :class:`WorkerTimeoutError` instead of blocking the rebuild
forever), a broken pool raises :class:`WorkerCrashError`, and when any
fragment fails the outstanding futures are cancelled so the batch errors
promptly.  After either infrastructure fault the pool is torn down
(:meth:`ProcessFragmentCompiler.restart`), its workers terminated, and
it is lazily rebuilt.  :class:`repro.service.resilience.SupervisedCompiler`
builds the retry/degradation ladder on top of these primitives.

Reported durations always come from the deterministic cost model: a
pool's simulated batch wall-clock is its LPT makespan
(:func:`repro.core.engine.compile_makespan`), so figures reproduce
identically on any host while the real execution genuinely overlaps.
"""

from __future__ import annotations

from concurrent.futures import (
    FIRST_EXCEPTION,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from typing import List, Optional, Tuple

from repro.backend.machine import ObjectFile
from repro.core.engine import InlineFragmentCompiler, compile_fragment
from repro.errors import ReproError

MODE_SERIAL = "serial"
MODE_PROCESS = "process"
MODES = (MODE_SERIAL, MODE_PROCESS)


class WorkerError(ReproError):
    """A fragment pool failed for infrastructure reasons (crash/hang).

    Distinct from a compile error (bad IR, verifier failure): worker
    errors are *transient* faults of the execution substrate, so the
    supervision layer may restart the pool and retry the batch.
    """


class WorkerCrashError(WorkerError):
    """The pool broke: a worker process died or the executor failed."""


class WorkerTimeoutError(WorkerError):
    """A batch exceeded its deadline: at least one worker is hung."""


class ProcessFragmentCompiler:
    """Compile a batch of ``(name, text)`` fragments on a supervised
    process pool."""

    def __init__(
        self, workers: int = 2, batch_timeout_s: Optional[float] = None
    ):
        if workers < 1:
            raise ValueError("need at least one worker")
        self.workers = workers
        self.batch_timeout_s = batch_timeout_s
        # How many times a fault forced this pool to be torn down.
        self.restarts = 0
        self._pool = None

    def _submit(self, pool, fragment: Tuple[str, str], opt_level: int):
        name, text = fragment
        return pool.submit(compile_fragment, text, name, opt_level)

    def compile_batch(
        self, fragments: List[Tuple[str, str]], opt_level: int
    ) -> List[ObjectFile]:
        if len(fragments) <= 1 or self.workers == 1:
            return [
                compile_fragment(text, name, opt_level)
                for name, text in fragments
            ]
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        try:
            futures = [
                self._submit(self._pool, fragment, opt_level)
                for fragment in fragments
            ]
        except BrokenExecutor as error:
            self.restart()
            raise WorkerCrashError(
                f"fragment pool broke on submit: {error}"
            ) from error
        return self._collect(futures)

    def _collect(self, futures) -> List[ObjectFile]:
        """Await a batch with crash/hang detection and prompt failure.

        ``wait(..., FIRST_EXCEPTION)`` returns as soon as any fragment
        fails (or the batch deadline passes), so one bad fragment no
        longer hides behind its slower siblings.
        """
        done, pending = wait(
            futures, timeout=self.batch_timeout_s, return_when=FIRST_EXCEPTION
        )
        failure = None
        for future in futures:
            if future in done and future.exception() is not None:
                failure = future.exception()
                break
        if failure is None and pending:
            # Nothing failed, yet the deadline passed: a worker is hung.
            self._cancel(futures)
            self.restart()
            raise WorkerTimeoutError(
                f"fragment batch exceeded {self.batch_timeout_s}s "
                f"({len(pending)} of {len(futures)} fragments unfinished)"
            )
        if failure is not None:
            # Cancel outstanding work so the batch errors promptly.
            self._cancel(futures)
            if isinstance(failure, BrokenExecutor):
                self.restart()
                raise WorkerCrashError(
                    f"fragment worker crashed: {failure}"
                ) from failure
            raise failure
        return [future.result() for future in futures]

    @staticmethod
    def _cancel(futures) -> None:
        for future in futures:
            future.cancel()

    def restart(self) -> None:
        """Tear down the (possibly broken/hung) pool; rebuilt lazily."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        self.restarts += 1
        self._kill_workers(pool)
        pool.shutdown(wait=False, cancel_futures=True)

    def _kill_workers(self, pool) -> None:
        # A hung worker never exits on its own; terminate so the torn-down
        # pool cannot leak live processes.  Best-effort: the process table
        # is executor-private and may already be reaped.
        for process in list(getattr(pool, "_processes", {}).values()):
            try:
                process.terminate()
            except Exception:  # pragma: no cover - already dead
                pass

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def make_compiler(
    mode: str = MODE_SERIAL,
    workers: int = 1,
    batch_timeout_s: Optional[float] = None,
):
    """Build the fragment compiler for *mode* / *workers*."""
    if mode == MODE_SERIAL or workers <= 1:
        return InlineFragmentCompiler()
    if mode == MODE_PROCESS:
        return ProcessFragmentCompiler(workers, batch_timeout_s=batch_timeout_s)
    raise ValueError(f"unknown worker mode {mode!r}; expected one of {MODES}")
