"""Fault tolerance: retry policy, circuit breaker, supervision ladder.

Also hosts the regression tests for this layer's satellite bugfixes:
bounded ``stop(drain=True)``, the ``register_target`` race, pool
hang/crash detection with prompt cancellation, and the process-pool
module-name drop that made process compiles fingerprint differently
from serial ones.
"""

import os
import threading
import time

import pytest

from repro.core.engine import (
    InlineFragmentCompiler,
    Odin,
    compile_fragment,
    object_fingerprint,
)
from repro.core.partition import apply_fragment_linkage
from repro.core.scheduler import Scheduler
from repro.frontend.codegen import compile_source
from repro.instrument.coverage import OdinCov
from repro.ir.clone import extract_module
from repro.ir.printer import print_module
from repro.obs.metrics import MetricsRegistry
from repro.programs.registry import get_program
from repro.service import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    RecompilationService,
    RetryPolicy,
    ServiceError,
    SupervisedCompiler,
    WorkerCrashError,
    WorkerError,
    WorkerTimeoutError,
)
from repro.service.jobs import ProbeOp
from repro.service.workers import ProcessFragmentCompiler

SRC = """
int helper(int x) { return x * 3 + 1; }
int other(int x) { return x - 7; }
int run_input(const char *data, long size) {
    if (size > 0) return helper((int)data[0]) + other((int)size);
    return 0;
}
int main(void) { return helper(2); }
"""


def fragments(n=2):
    """A batch of ``(name, text)`` fragments, as the engine hands them out."""
    return [
        (f"frag{i}", print_module(compile_source(SRC, f"frag{i}")))
        for i in range(n)
    ]


# -- retry policy ------------------------------------------------------------------


class TestRetryPolicy:
    def test_deterministic_and_bounded(self):
        a = RetryPolicy(max_attempts=4, base_delay_s=0.01, max_delay_s=0.05)
        b = RetryPolicy(max_attempts=4, base_delay_s=0.01, max_delay_s=0.05)
        assert a.delays() == b.delays()
        assert len(a.delays()) == 3  # attempts - 1 backoffs
        assert all(0 <= d <= 0.05 for d in a.delays())

    def test_backoff_grows_without_jitter(self):
        p = RetryPolicy(
            max_attempts=4, base_delay_s=0.01, multiplier=2.0,
            max_delay_s=1.0, jitter=0.0,
        )
        assert p.delays() == [0.01, 0.02, 0.04]

    def test_cap_applies(self):
        p = RetryPolicy(
            max_attempts=5, base_delay_s=0.01, multiplier=10.0,
            max_delay_s=0.03, jitter=0.0,
        )
        assert p.delays() == [0.01, 0.03, 0.03, 0.03]

    def test_seed_changes_jitter(self):
        a = RetryPolicy(seed=1).delays()
        b = RetryPolicy(seed=2).delays()
        assert a != b

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy().delay_s(0)


# -- circuit breaker ---------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestCircuitBreaker:
    def make(self, **kw):
        clock = FakeClock()
        kw.setdefault("failure_threshold", 3)
        kw.setdefault("reset_timeout_s", 10.0)
        return CircuitBreaker(clock=clock, **kw), clock

    def test_opens_after_consecutive_failures(self):
        breaker, _ = self.make()
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow()
        assert breaker.opens == 1
        assert breaker.rejections == 1

    def test_success_resets_the_streak(self):
        breaker, _ = self.make()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED

    def test_half_open_after_timeout_then_closes(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        assert breaker.retry_after_s() == pytest.approx(10.0)
        clock.t = 10.0
        assert breaker.state == BREAKER_HALF_OPEN
        assert breaker.allow()        # the single trial admission
        assert not breaker.allow()    # second call is rejected
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.allow()

    def test_half_open_failure_reopens(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.t = 10.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert breaker.opens == 2
        assert breaker.retry_after_s() == pytest.approx(10.0)

    def test_stats_snapshot(self):
        breaker, _ = self.make()
        breaker.record_failure()
        stats = breaker.stats()
        assert stats["state"] == BREAKER_CLOSED
        assert stats["consecutive_failures"] == 1


# -- supervised compiler: restart, retry, degrade ----------------------------------


class FlakyCompiler:
    """Fails the first *fail_times* batches with *error*, then succeeds."""

    def __init__(self, fail_times, error=WorkerCrashError):
        self.fail_times = fail_times
        self.error = error
        self.workers = 2
        self.calls = 0
        self.restarts = 0
        self.closed = False

    def compile_batch(self, batch, opt_level):
        self.calls += 1
        if self.calls <= self.fail_times:
            raise self.error("boom")
        return [compile_fragment(text, name, opt_level) for name, text in batch]

    def restart(self):
        self.restarts += 1

    def close(self):
        self.closed = True


def make_supervised(mode="process", **kw):
    kw.setdefault("retry", RetryPolicy(max_attempts=2, base_delay_s=0.0, jitter=0.0))
    kw.setdefault("sleep", lambda s: None)
    return SupervisedCompiler(mode, 2, **kw)


class TestSupervisedCompiler:
    def test_passthrough_when_healthy(self):
        sup = make_supervised()
        objs = sup.compile_batch(fragments(), 2)
        assert len(objs) == 2
        assert not sup.degraded
        sup.close()

    def test_retry_after_transient_fault(self):
        metrics = MetricsRegistry()
        sup = make_supervised(metrics=metrics)
        flaky = FlakyCompiler(fail_times=1)
        sup._compilers[0] = flaky
        objs = sup.compile_batch(fragments(), 2)
        assert len(objs) == 2
        assert flaky.restarts == 1
        assert sup.worker_restarts == 1
        assert metrics.counter("worker_restarts") == 1
        assert not sup.degraded

    def test_retry_result_matches_clean_compile(self):
        """A batch that survives a restart compiles byte-identically."""
        clean = [
            object_fingerprint(compile_fragment(text, name, 2))
            for name, text in fragments()
        ]
        sup = make_supervised()
        sup._compilers[0] = FlakyCompiler(fail_times=1)
        objs = sup.compile_batch(fragments(), 2)
        assert [object_fingerprint(o) for o in objs] == clean

    def test_degrades_through_the_ladder(self):
        metrics = MetricsRegistry()
        sup = make_supervised("process", metrics=metrics)
        always = FlakyCompiler(fail_times=10**9)
        sup._compilers[0] = always
        objs = sup.compile_batch(fragments(), 2)  # serial floor serves it
        assert len(objs) == 2
        assert sup.degraded
        assert sup.mode == "serial"
        assert always.closed  # the failed rung was torn down
        assert metrics.counter("worker_degradations") == 1
        assert metrics.gauge("degraded_mode") == 1

    def test_process_ladder_order(self):
        sup = make_supervised("process")
        assert sup.ladder == ("process", "serial")
        sup.close()

    def test_all_rungs_failing_surfaces_worker_error(self):
        sup = make_supervised("serial")
        sup._compilers[0] = FlakyCompiler(fail_times=10**9)
        with pytest.raises(WorkerError, match="degradation ladder failed"):
            sup.compile_batch(fragments(), 2)

    def test_fault_injector_hook_drives_retries(self):
        fired = []

        def injector(compiler, batch, attempt):
            if not fired:
                fired.append(attempt)
                raise WorkerCrashError("chaos says hi")

        sup = make_supervised(fault_injector=injector)
        objs = sup.compile_batch(fragments(), 2)
        assert len(objs) == 2
        assert fired == [1]
        assert sup.worker_restarts == 1
        sup.close()

    def test_unknown_mode_rejected(self):
        for mode in ("quantum", "thread"):
            with pytest.raises(ValueError):
                SupervisedCompiler(mode, 2)
        with pytest.raises(ValueError):
            RecompilationService(workers=2, worker_mode="thread")


# -- pool supervision primitives ---------------------------------------------------


def fail_fast(*_args):
    """Worker stand-in for a fragment whose compile fails at once."""
    raise ValueError("bad fragment")


def wait_for_release(path):
    """Worker stand-in for a slow fragment: blocks until *path* exists."""
    deadline = time.monotonic() + 30.0
    while not os.path.exists(path) and time.monotonic() < deadline:
        time.sleep(0.01)


class TestPoolSupervision:
    def test_process_pool_hang_raises_timeout(self):
        pool = ProcessFragmentCompiler(2, batch_timeout_s=0.2)
        # Make the pool's workers hang instead of compiling.
        pool._submit = lambda p, m, o: p.submit(time.sleep, 30.0)
        try:
            start = time.perf_counter()
            with pytest.raises(WorkerTimeoutError):
                pool.compile_batch(fragments(), 2)
            assert time.perf_counter() - start < 5.0  # detected, not awaited
            assert pool.restarts == 1
        finally:
            pool.close()

    def test_failure_cancels_outstanding_futures(self, tmp_path):
        """One failed fragment errors the batch promptly (satellite c)."""
        pool = ProcessFragmentCompiler(2, batch_timeout_s=30.0)
        release = str(tmp_path / "release")
        submitted = []

        def submit(p, m, o):
            if submitted:
                future = p.submit(wait_for_release, release)
            else:
                future = p.submit(fail_fast)
            submitted.append(future)
            return future

        pool._submit = submit
        try:
            start = time.perf_counter()
            # Eight fragments on two workers: the executor hands out at
            # most workers + 1 calls ahead of time, so once the first
            # fails the siblings still queued behind the blocked ones
            # must be cancelled rather than awaited.
            with pytest.raises(ValueError, match="bad fragment"):
                pool.compile_batch(fragments(8), 2)
            assert time.perf_counter() - start < 5.0
            assert any(f.cancelled() for f in submitted)
        finally:
            # Release the blocked siblings rather than kill them: a pool
            # broken while cancelled calls are still queued trips the
            # executor's manager thread on Python 3.11.
            open(release, "w").close()
            pool.close()

    def test_process_pool_crash_raises_crash_error(self):
        pool = ProcessFragmentCompiler(2, batch_timeout_s=30.0)
        pool._submit = lambda p, m, o: p.submit(os._exit, 13)
        with pytest.raises(WorkerCrashError):
            pool.compile_batch(fragments(), 2)
        assert pool.restarts == 1
        # The restarted pool (with the crashing submit hook removed)
        # works again.
        del pool._submit
        objs = pool.compile_batch(fragments(), 2)
        assert len(objs) == 2
        pool.close()


# -- process-pool name regression (pre-existing byte-determinism bug) --------------


class TestProcessNameFidelity:
    def test_text_roundtrip_preserves_object_name(self):
        m = compile_source(SRC, "named_fragment")
        obj = compile_fragment(print_module(m), m.name, 2)
        assert obj.name == "named_fragment"

    def test_extracted_fragment_matches_text_roundtrip(self):
        """Extract-vs-parse construction history must not leak into bytes.

        lcms's curve fragment inlines helpers whose uniquified block
        names depended on the module's name counter: compiling the
        extracted module and compiling its printed text used to
        fingerprint differently, so process-pool rebuilds were not
        byte-equivalent to serial ones.  Every pool now compiles the
        split's text; its objects must equal those of the extracted
        module's text, inline and across processes.
        """
        program = get_program("lcms")
        engine = Odin(program.compile(), preserve=("main", "run_input"))
        tool = OdinCov(engine)
        tool.add_all_block_probes()
        engine.initial_build()
        for probe in list(engine.manager):
            engine.manager.mark_changed(probe)
        sched = Scheduler(engine)
        assert sched.changed_fragments
        batch, reference = [], []
        for fragment in sched.changed_fragments:
            name = engine._fragment_name(fragment)
            batch.append((name, engine._split_fragment(sched.temp_module, fragment)))
            extracted = extract_module(
                sched.temp_module, fragment.symbols,
                copy_on_use=engine.fragdef.copy_on_use, name=name,
            )
            apply_fragment_linkage(extracted, engine.fragdef)
            reference.append(object_fingerprint(
                compile_fragment(print_module(extracted), name, engine.opt_level)
            ))
        inline = InlineFragmentCompiler().compile_batch(batch, engine.opt_level)
        pool = ProcessFragmentCompiler(2)
        try:
            pooled = pool.compile_batch(batch, engine.opt_level)
        finally:
            pool.close()
        for fragment, want, a, b in zip(
            sched.changed_fragments, reference, inline, pooled
        ):
            assert object_fingerprint(a) == want, f"fragment #{fragment.id} diverged"
            assert object_fingerprint(b) == want, f"fragment #{fragment.id} diverged"
            assert a.name == b.name == engine._fragment_name(fragment)


# -- service-level fault tolerance -------------------------------------------------


def service_with_target(**kw):
    kw.setdefault("workers", 1)
    service = RecompilationService(**kw)
    module = compile_source(SRC, "target")
    engine = service.register_target("target", module, preserve=("main", "run_input"))
    tool = OdinCov(engine)
    tool.add_all_block_probes()
    service.build("target")
    return service, engine, tool


class TestServiceRetry:
    def test_batch_retries_after_worker_fault(self):
        service, engine, tool = service_with_target(
            retry_policy=RetryPolicy(max_attempts=3, base_delay_s=0.0, jitter=0.0)
        )
        fired = []

        def injector(compiler, batch, attempt):
            if not fired:
                fired.append(1)
                raise WorkerCrashError("chaos")

        service.compiler.fault_injector = injector
        client = service.client("target", "c1")
        # Removes change the compiled-in site set and force a real worker
        # batch; a pure toggle would take the patch tier and never give
        # the injected fault a compile to fire in.
        pid = sorted(tool.probes)[0]
        job = client.submit([ProbeOp("remove", pid)])
        served = service.process_once()
        assert served == 1
        reply = job.result(5.0)
        assert reply.report is not None
        assert fired  # the fault really fired
        assert service.compiler.worker_restarts == 1
        service.close()

    def test_breaker_opens_and_rejects_submissions(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=2, reset_timeout_s=5.0, clock=clock
        )
        service, engine, tool = service_with_target(
            breaker=breaker,
            retry_policy=RetryPolicy(max_attempts=1),
        )
        service.compiler.fault_injector = lambda c, b, a: (_ for _ in ()).throw(
            WorkerCrashError("always")
        )
        # Exhaust the supervised ladder so every batch truly fails.
        service.compiler.ladder = ("serial",)
        client = service.client("target", "c1")
        # Removes force real (failing) compile batches; toggles would be
        # serviced by the patch tier without ever reaching the workers.
        pids = sorted(tool.probes)
        for pid in pids[:2]:
            job = client.submit([ProbeOp("remove", pid)])
            service.process_once()
            with pytest.raises(WorkerError):
                job.result(5.0)
        assert breaker.state == BREAKER_OPEN
        with pytest.raises(ServiceError) as excinfo:
            client.submit([ProbeOp("remove", pids[2])])
        assert excinfo.value.retry_after_s == pytest.approx(5.0)
        assert service.stats()["breaker"]["state"] == BREAKER_OPEN
        # After the reset timeout one trial passes and a success closes it.
        clock.t = 5.0
        service.compiler.fault_injector = None
        job = client.submit([ProbeOp("remove", pids[2])])
        service.process_once()
        job.result(5.0)
        assert breaker.state == BREAKER_CLOSED
        service.close()


class TestStopDrainBounded:
    def test_stop_returns_within_budget_with_wedged_engine(self):
        """Regression (satellite a): stop() used to spin forever."""
        service, engine, tool = service_with_target()
        release = threading.Event()
        entered = threading.Event()

        def blocking_injector(compiler, batch, attempt):
            entered.set()
            release.wait(30.0)

        service.compiler.fault_injector = blocking_injector
        client = service.client("target", "c1")
        pids = sorted(tool.probes)
        service.start()
        # Removes force real compile batches, so the blocking injector
        # actually wedges the dispatcher (toggles would bypass the pool).
        client.submit([ProbeOp("remove", pids[0])])  # wedges the dispatcher
        assert entered.wait(10.0)
        client.submit([ProbeOp("remove", pids[1])])  # queued behind the wedge
        start = time.perf_counter()
        abandoned = service.stop(drain=True, drain_timeout_s=0.5)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0          # bounded, not an unbounded spin
        assert abandoned >= 1         # the queued job was counted
        assert service.metrics.counter("drain_abandoned") >= 1
        release.set()
        service.close()

    def test_close_answers_leftover_jobs(self):
        service, engine, tool = service_with_target()
        client = service.client("target", "c1")
        pid = sorted(tool.probes)[0]
        job = client.submit([ProbeOp("disable", pid)])  # never dispatched
        service.close()
        with pytest.raises(ServiceError, match="closed"):
            job.result(1.0)


class TestRegisterRace:
    def test_concurrent_registration_has_one_winner(self):
        """Regression (satellite b): unlocked dict check-then-set."""
        service = RecompilationService(workers=1)
        module_a = compile_source(SRC, "a")
        module_b = compile_source(SRC, "b")
        barrier = threading.Barrier(2)
        outcomes = []

        def register(module):
            barrier.wait()
            try:
                service.register_target(
                    "shared", module, preserve=("main", "run_input")
                )
                outcomes.append("won")
            except ServiceError:
                outcomes.append("lost")

        threads = [
            threading.Thread(target=register, args=(m,))
            for m in (module_a, module_b)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(outcomes) == ["lost", "won"]
        assert len(service.stats()["service"]["targets"]) == 1
        service.close()
