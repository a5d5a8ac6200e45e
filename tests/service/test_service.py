"""Recompilation service: batching, dedup, caching, determinism, workers."""

import threading

import pytest

from repro.core.engine import TIER_PATCH, Odin, compile_makespan
from repro.instrument.coverage import OdinCov
from repro.programs.registry import get_program
from repro.service import (
    ProbeOp,
    RecompilationService,
    ServiceError,
    SupervisedCompiler,
)
from repro.service.cache import InMemoryCodeCache
from repro.service.jobs import OP_DISABLE
from repro.service.workers import ProcessFragmentCompiler, make_compiler

PRESERVED = ("main", "run_input")
PROGRAM = "libjpeg"


def make_service(**kwargs) -> tuple:
    """A service with one OdinCov-instrumented target, built."""
    service = RecompilationService(**kwargs)
    engine = service.register_target(
        PROGRAM, get_program(PROGRAM).compile(), preserve=PRESERVED
    )
    tool = OdinCov(engine)
    tool.add_all_block_probes()
    service.build(PROGRAM)
    return service, engine, tool


def make_direct() -> tuple:
    """The classic path: a bare engine, same target, same probes."""
    engine = Odin(get_program(PROGRAM).compile(), preserve=PRESERVED)
    tool = OdinCov(engine)
    tool.add_all_block_probes()
    engine.initial_build()
    return engine, tool


class TestDeterminism:
    def test_single_worker_cold_cache_matches_direct_engine(self):
        """Acceptance: with one worker and a cold cache, every reported
        number is byte-identical to direct ``Odin.rebuild()``."""
        direct_engine, direct_tool = make_direct()
        service, svc_engine, svc_tool = make_service()

        assert direct_engine.history[0].fragment_ids == svc_engine.history[0].fragment_ids
        assert (
            direct_engine.history[0].fragment_compile_ms
            == svc_engine.history[0].fragment_compile_ms
        )
        assert direct_engine.history[0].link_ms == svc_engine.history[0].link_ms

        # One probe flip through each path.
        pid = sorted(direct_tool.probes)[0]
        direct_engine.manager.disable(direct_tool.probes[pid])
        direct_report = direct_engine.rebuild()

        client = service.client(PROGRAM, "c0")
        job = client.disable(sorted(svc_tool.probes)[0])
        assert service.process_once() == 1
        svc_report = job.result(5.0).report

        assert direct_report.fragment_ids == svc_report.fragment_ids
        assert direct_report.fragment_compile_ms == svc_report.fragment_compile_ms
        assert direct_report.link_ms == svc_report.link_ms
        assert direct_report.cache_reused == svc_report.cache_reused
        assert svc_report.cache_hits == 0  # cold cache: nothing to hit
        assert direct_engine.clock.now_ms == svc_engine.clock.now_ms
        assert direct_engine.clock.breakdown() == svc_engine.clock.breakdown()


class TestCacheBehaviour:
    def test_cache_reused_accounting(self):
        """`cache_reused` keeps its meaning: fragments untouched by the
        rebuild, regardless of the content cache."""
        service, engine, tool = make_service()
        client = service.client(PROGRAM)
        client.disable(sorted(tool.probes)[0])
        service.process_once()
        report = engine.history[-1]
        assert len(report.fragment_ids) == 1
        assert report.cache_reused == engine.num_fragments - 1

    def test_warm_rebuild_skips_compilation(self):
        """Flipping a probe off and back on never recompiles: both steps
        are serviced at the patch tier (sites toggled in the cached
        master), and the return to the baseline state splices the master
        back into the image for less than the initial link, giving the
        initial build's image."""
        service, engine, tool = make_service()
        initial = engine.history[-1]
        initial_fp = engine.executable_fingerprint()
        client = service.client(PROGRAM)
        pid = sorted(tool.probes)[0]
        client.disable(pid)
        service.process_once()
        off = engine.history[-1]
        assert off.tier == "patch"
        assert off.patched == len(off.fragment_ids) == 1
        assert 0.0 < off.total_compile_ms < 1.0  # patch cost, not a compile
        client.enable(pid)       # back to the initial-build state
        service.process_once()
        report = engine.history[-1]
        assert report.tier == "patch"
        assert report.total_compile_ms < 1.0
        assert report.link_ms < initial.link_ms
        assert engine.executable_fingerprint() == initial_fp

    def test_cold_vs_warm_service_restart(self, tmp_path):
        """Persistent cache: a restarted service rebuilds the same target
        without compiling a single fragment."""
        cache_dir = str(tmp_path / "code-cache")
        cold = RecompilationService(cache_dir=cache_dir)
        engine = cold.register_target(
            PROGRAM, get_program(PROGRAM).compile(), preserve=PRESERVED
        )
        OdinCov(engine).add_all_block_probes()
        cold_report = cold.build(PROGRAM)
        assert cold_report.cache_hits == 0
        assert cold_report.total_compile_ms > 0
        cold.close()

        warm = RecompilationService(cache_dir=cache_dir)
        engine2 = warm.register_target(
            PROGRAM, get_program(PROGRAM).compile(), preserve=PRESERVED
        )
        OdinCov(engine2).add_all_block_probes()
        warm_report = warm.build(PROGRAM)
        assert warm_report.cache_hits == len(warm_report.fragment_ids)
        assert warm_report.total_compile_ms == 0.0
        assert warm.stats()["derived"]["fragments_compiled"] == 0
        # Executables built from cached objects behave identically.
        assert sorted(engine2.executable.entry_points) == sorted(
            engine.executable.entry_points
        )
        warm.close()


class TestBatchingAndDedup:
    def test_overlapping_requests_deduplicate_to_one_compile(self):
        """Acceptance: >= 4 concurrent clients dirtying the same fragment
        cost one batch, one rebuild, one fragment compile."""
        service, engine, tool = make_service()
        clients = [service.client(PROGRAM, f"c{i}") for i in range(4)]
        pids = sorted(tool.probes)[:4]
        rebuilds_before = len(engine.history)

        jobs = [c.disable(*pids) for c in clients]  # identical op sets
        served = service.process_once()
        assert served == 4

        reply = jobs[0].result(5.0)
        assert all(j.result(5.0) is reply for j in jobs)  # one shared answer
        assert reply.batch_size == 4
        assert reply.batch_clients == 4
        assert reply.ops_submitted == 16
        assert reply.ops_applied == 4
        assert reply.dedup_ratio == 4.0
        # One rebuild for the whole batch; the dirtied fragment compiled once.
        assert len(engine.history) == rebuilds_before + 1
        target_fragments = {
            engine.fragdef.owner[tool.probes[pid].target_symbol()] for pid in pids
        }
        assert sorted(reply.report.fragment_ids) == sorted(target_fragments)

    def test_batch_keeps_the_last_word_on_each_probe(self):
        """Three clients send disable / enable / disable of one probe and
        one batch serves them: the probe ends disabled, as the submitted
        sequence does, not back at its first op's state."""
        service, engine, tool = make_service()
        pid = sorted(tool.probes)[0]
        first, second, third = (service.client(PROGRAM, f"c{i}") for i in range(3))
        jobs = [first.disable(pid), second.enable(pid), third.disable(pid)]
        assert service.process_once() == 3
        reply = jobs[0].result(5.0)
        assert (reply.ops_submitted, reply.ops_applied) == (3, 2)
        assert not tool.probes[pid].enabled
        assert reply.report.tier == TIER_PATCH

    def test_batch_with_no_effect_reports_no_rebuild(self):
        service, engine, tool = make_service()
        client = service.client(PROGRAM)
        pid = sorted(tool.probes)[0]
        job = client.enable(pid)  # already enabled: no dirty state
        service.process_once()
        assert job.result(5.0).report is None

    def test_stale_probe_ops_are_skipped_not_fatal(self):
        service, engine, tool = make_service()
        client = service.client(PROGRAM)
        job = client.submit([ProbeOp(OP_DISABLE, 99999)])
        service.process_once()
        reply = job.result(5.0)
        assert reply.ops_skipped == 1
        assert reply.report is None

    def test_unknown_target_rejected(self):
        service, _, _ = make_service()
        with pytest.raises(ServiceError):
            service.client("nope")

    def test_concurrent_clients_through_dispatcher(self):
        """End-to-end: 4 client threads against the running dispatcher."""
        service, engine, tool = make_service(workers=2, worker_mode="process")
        pids = sorted(tool.probes)
        errors = []

        def client_loop(index: int) -> None:
            try:
                client = service.client(PROGRAM, f"client-{index}")
                mine = pids[index * 2: index * 2 + 2]
                for _ in range(3):
                    client.disable(*mine).result(30.0)
                    client.enable(*mine).result(30.0)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        with service:
            threads = [
                threading.Thread(target=client_loop, args=(i,)) for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        assert not errors
        stats = service.stats()
        assert stats["counters"]["requests_total"] == 24
        assert stats["queue"]["depth"] == 0
        # Pure toggles never recompile: every rebuild that wasn't batched
        # away was serviced by patching the cached masters.
        assert all(r.tier in ("patch", "noop") for r in engine.history[1:])
        assert stats["latency"]["rebuild_sim_ms"]["count"] >= 1


class TestWorkerPool:
    def test_process_pool_preserves_reported_numbers(self):
        """Per-fragment compile costs are identical for any worker count;
        only the batch wall-clock (makespan) changes."""
        _, serial_engine, _ = make_service()
        service, pooled_engine, _ = make_service(workers=4, worker_mode="process")
        service.close()
        serial_report = serial_engine.history[0]
        pooled_report = pooled_engine.history[0]
        assert serial_report.fragment_compile_ms == pooled_report.fragment_compile_ms
        assert serial_report.link_ms == pooled_report.link_ms
        assert pooled_report.workers == 4

    def test_multi_worker_beats_serial_wall_clock(self):
        """Acceptance: on a multi-fragment batch the pool's (simulated)
        wall-clock is strictly below the serial sum."""
        service, engine, _ = make_service(workers=4, worker_mode="process")
        service.close()
        report = engine.history[0]
        assert len(report.fragment_ids) > 4
        assert report.compile_wall_ms < report.total_compile_ms
        assert report.wall_ms < report.total_ms
        # And the makespan model is self-consistent.
        assert report.compile_wall_ms == compile_makespan(
            report.fragment_compile_ms.values(), 4
        )

    def test_makespan_model(self):
        assert compile_makespan([], 4) == 0.0
        assert compile_makespan([5.0, 3.0, 2.0], 1) == 10.0
        assert compile_makespan([5.0, 3.0, 2.0], 2) == 5.0
        assert compile_makespan([5.0, 3.0, 2.0], 8) == 5.0

    def test_make_compiler_modes(self):
        assert make_compiler("serial", 8).workers == 1
        assert isinstance(make_compiler("process", 2), ProcessFragmentCompiler)
        for mode in ("rainbow", "thread"):
            with pytest.raises(ValueError):
                make_compiler(mode, 2)

    def test_process_pool_matches_serial_objects(self):
        """Cross-process compiles (shipped as printed IR) produce objects
        identical to in-process compiles."""
        engine, tool = make_direct()
        engine.manager.mark_symbols_dirty(engine.fragdef.owner.keys())
        sched = engine.manager.schedule()
        sched.apply_probes()
        batch = [
            (engine._fragment_name(f), engine._split_fragment(sched.temp_module, f))
            for f in sched.changed_fragments[:2]
        ]
        assert len(batch) == 2
        from repro.core.engine import compile_fragment

        serial = [compile_fragment(text, name, 2) for name, text in batch]
        pool = ProcessFragmentCompiler(workers=2)
        try:
            pooled = pool.compile_batch(batch, 2)
        finally:
            pool.close()
        for a, b in zip(serial, pooled):
            assert a.compile_ms == b.compile_ms
            assert sorted(a.functions) == sorted(b.functions)
            for name in a.functions:
                assert [repr(i) for i in a.functions[name].insts] == [
                    repr(i) for i in b.functions[name].insts
                ]


class TestFixedSettings:
    def test_fixed_settings(self):
        """What a caller cannot set: a 64 MiB in-memory cache and a
        supervised pool with a 30 s batch deadline."""
        service = RecompilationService()
        try:
            assert isinstance(service.cache, InMemoryCodeCache)
            assert service.cache.max_bytes == 64 * 1024 * 1024
            assert isinstance(service.compiler, SupervisedCompiler)
            assert service.compiler.batch_timeout_s == 30.0
        finally:
            service.close()


class TestFuzzIntegration:
    def test_odincov_prune_routes_through_service(self):
        """The fuzzer's on-the-fly prune rebuild goes through the service
        client instead of calling the engine directly."""
        from repro.fuzz.executor import OdinCovExecutor

        service = RecompilationService()
        engine = service.register_target(
            "json", get_program("json").compile(), preserve=PRESERVED
        )
        client = service.client("json", "fuzzer")
        tool = OdinCov(engine, rebuild_fn=client.rebuild_report)
        tool.add_all_block_probes()
        service.build("json")
        with service:
            executor = OdinCovExecutor(tool)
            for seed in get_program("json").seeds(1)[:4]:
                executor.execute(seed)
            report = executor.prune()
        assert report.pruned > 0
        assert report.rebuild is not None
        assert report.rebuild.fragment_ids
        assert service.stats()["counters"]["requests_total"] >= 1
