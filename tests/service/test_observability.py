"""Service observability: queue-wait stamping, dispatch spans, metrics."""

import threading

from repro.instrument.coverage import OdinCov
from repro.service import CompileRequest, ProbeOp, RecompilationService
from repro.service.jobs import OP_DISABLE, OP_ENABLE, JobQueue
from tests.conftest import fresh_module

PRESERVED = ("main", "run_input")
PROGRAM = "libjpeg"


def make_service(**kwargs):
    service = RecompilationService(**kwargs)
    engine = service.register_target(
        PROGRAM, fresh_module(PROGRAM), preserve=PRESERVED
    )
    tool = OdinCov(engine)
    tool.add_all_block_probes()
    service.build(PROGRAM)
    return service, engine, tool


class TestQueueWaitStamping:
    def test_submit_stamps_before_publication(self):
        """Regression: the service used to stamp ``submitted_at`` after
        the job was already visible in the queue, so a dispatcher that
        popped it first measured its wait against an unstamped job."""
        queue = JobQueue()
        job = queue.submit(CompileRequest("t"))
        assert job.submitted_at is not None

    def test_dispatcher_never_sees_unstamped_job(self):
        """Hammer submit from one thread while another drains batches;
        every popped job must already be stamped."""
        queue = JobQueue()
        unstamped = []
        done = threading.Event()

        def drain() -> None:
            while not done.is_set() or queue.depth():
                _target, batch = queue.pop_batch(timeout=0.001)
                unstamped.extend(
                    j for j in batch if j.submitted_at is None
                )

        t = threading.Thread(target=drain)
        t.start()
        for _ in range(500):
            queue.submit(CompileRequest("t"))
        done.set()
        t.join()
        assert unstamped == []

    def test_service_records_queue_wait(self):
        service, engine, tool = make_service()
        pid = sorted(tool.probes)[0]
        job = service.submit(
            CompileRequest(PROGRAM, (ProbeOp(OP_DISABLE, pid),), "c")
        )
        assert job.submitted_at is not None
        assert service.process_once() == 1
        stat = service.metrics.latency("queue_wait_ms")
        assert stat.count == 1
        assert stat.last_ms > 0.0
        assert job.result(1.0).queue_wait_ms > 0.0


class TestDispatchSpans:
    def test_rebuild_nests_under_service_batch(self):
        service, engine, tool = make_service()
        pids = sorted(tool.probes)[:4]
        for pid in pids:
            service.submit(
                CompileRequest(PROGRAM, (ProbeOp(OP_DISABLE, pid),), "c")
            )
        assert service.process_once() == 4
        root = service.tracer.last()
        assert root.name == "service.batch"
        assert root.args["target"] == PROGRAM
        assert root.args["batch_size"] == 4
        rebuild = root.find("rebuild")
        assert rebuild is not None
        # The dispatch span covers the rebuild on both clocks.
        assert root.sim_ms >= rebuild.sim_ms
        assert root.real_ms >= rebuild.real_ms

    def test_engines_share_the_service_tracer(self):
        service, engine, tool = make_service()
        assert engine.tracer is service.tracer
        # The initial build is already recorded on the shared tracer.
        assert service.tracer.last("rebuild") is not None

    def test_per_stage_sim_metrics_recorded(self):
        service, engine, tool = make_service()
        pid = sorted(tool.probes)[0]
        service.submit(
            CompileRequest(PROGRAM, (ProbeOp(OP_DISABLE, pid),), "c")
        )
        service.process_once()
        latencies = service.metrics.stats()["latency"]
        for stage in ("compile", "link", "optimize", "isel"):
            assert f"stage.{stage}.sim_ms" in latencies
        total = service.metrics.latency("stage.compile.sim_ms").total_ms
        wall = sum(r.compile_wall_ms for r in engine.history)
        assert total == wall


class TestParallelRebuildReporting:
    def test_worker_pool_wall_below_lane_sum(self):
        """With 2 workers and >1 compiled fragment the makespan the
        client waits for is shorter than the summed lane time."""
        service, engine, tool = make_service(
            workers=2, worker_mode="process"
        )
        # Disable one probe in every fragment so every fragment recompiles.
        by_fragment = {}
        for pid, probe in tool.probes.items():
            fid = engine.fragdef.owner[probe.target_symbol()]
            by_fragment.setdefault(fid, pid)
        ops = tuple(
            ProbeOp(OP_DISABLE, pid) for pid in by_fragment.values()
        )
        service.submit(CompileRequest(PROGRAM, ops, "c"))
        service.process_once()
        report = engine.history[-1]
        assert report.workers == 2
        assert len(report.fragment_ids) - report.cache_hits > 1
        assert report.wall_ms < report.total_ms
        service.close()
