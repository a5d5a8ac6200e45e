"""Span trees recorded by real rebuilds: nesting, attribution, sums.

The invariants here are the contract the trace export relies on:

* stage spans (schedule, extract, instrument, compile, link) sum to
  ``RebuildReport.wall_ms`` exactly, on the simulated clock;
* per-fragment optimize + isel spans sum to the fragment's
  ``compile_ms`` exactly;
* per-pass spans sum to their fragment's optimize span exactly;
* under a worker pool, fragment spans tile their lanes and the busiest
  lane ends exactly at the compile stage's makespan.
"""

import pytest

from repro.core.engine import Odin, assign_lanes, compile_makespan
from repro.frontend.codegen import compile_source
from repro.instrument.coverage import OdinCov
from repro.obs.trace import to_trace_events, validate_trace_events
from repro.obs.tracer import CAT_FRAGMENT, CAT_PASS
from repro.service.workers import ProcessFragmentCompiler

SOURCE = r"""
static int acc;

int helper_a(int x) {
    int i;
    for (i = 0; i < x; i = i + 1) acc = acc + i * 3;
    return acc;
}

int helper_b(int x) {
    int i;
    for (i = 0; i < x; i = i + 1) acc = acc ^ (i + x);
    return acc;
}

int helper_c(int x) {
    if (x > 10) return helper_a(x - 1);
    return helper_b(x + 1);
}

int run_input(const char *data, long size) {
    int i;
    int r;
    r = 0;
    for (i = 0; i < size; i = i + 1) {
        r = r + helper_c((int)data[i] & 255);
    }
    return r;
}

int main(void) { return run_input("seed", 4); }
"""

STAGE_NAMES = ["schedule", "extract", "instrument", "compile", "link"]


def build_engine(**kwargs) -> Odin:
    engine = Odin(
        compile_source(SOURCE, "spans"), preserve=("main", "run_input"),
        **kwargs,
    )
    tool = OdinCov(engine)
    tool.add_all_block_probes()
    engine._span_tool = tool  # keep probes reachable for rebuild tests
    return engine


def check_tree_invariants(report) -> None:
    root = report.trace
    assert root is not None
    assert root.name == "rebuild"
    assert [c.name for c in root.children] == STAGE_NAMES

    # Stage spans sum to the rebuild's simulated wall clock, exactly.
    assert sum(c.sim_ms for c in root.children) == report.wall_ms
    assert root.sim_ms == report.wall_ms

    compile_span = root.children[3]
    assert compile_span.sim_ms == report.compile_wall_ms
    link_span = root.children[4]
    assert link_span.sim_ms == report.link_ms
    assert link_span.sim_start_ms == compile_span.sim_end_ms

    fragments = compile_span.children
    assert len(fragments) == len(report.fragment_ids)
    for frag_span in fragments:
        assert frag_span.cat == CAT_FRAGMENT
        fid = int(frag_span.name.split("#")[1])
        assert frag_span.sim_ms == report.fragment_compile_ms[fid]
        tier = frag_span.args.get("tier")
        assert tier == report.fragment_tiers[fid]
        if frag_span.args.get("cache_hit"):
            assert tier == "cache"
            assert frag_span.sim_ms == 0.0
            continue
        if tier == "patch":
            # Patched fragments never ran optimize or isel: a flat span
            # priced at the patch cost, with no phase children.
            assert frag_span.children == []
            assert frag_span.sim_ms > 0.0
            continue
        opt, isel = frag_span.children[0], frag_span.children[-1]
        assert opt.name == "optimize" and isel.name == "isel"
        # optimize + isel tile the fragment exactly...
        assert opt.sim_ms + isel.sim_ms == frag_span.sim_ms
        assert opt.sim_start_ms == frag_span.sim_start_ms
        assert isel.sim_start_ms == frag_span.sim_start_ms + opt.sim_ms
        # ...and the per-pass spans tile optimize exactly.
        passes = opt.children
        assert passes, "expected per-pass spans under optimize"
        assert all(p.cat == CAT_PASS for p in passes)
        assert all(p.sim_ms >= 0.0 for p in passes)
        assert sum(p.sim_ms for p in passes) == opt.sim_ms


class TestSerialRebuildSpans:
    def test_initial_build_spans(self):
        engine = build_engine()
        report = engine.initial_build()
        check_tree_invariants(report)
        # Serial engine: everything on lane 0.
        assert {s.lane for s in report.trace.walk()} == {0}
        # The recorded tree is the tracer's latest root.
        assert engine.tracer.last() is report.trace

    def test_incremental_rebuild_spans(self):
        engine = build_engine()
        engine.initial_build()
        probe = next(iter(engine._span_tool.probes.values()))
        engine.manager.disable(probe)
        report = engine.rebuild_if_needed()
        check_tree_invariants(report)
        assert report.trace.args["probes_applied"] == report.probes_applied
        # The second tree starts where the simulated clock had advanced
        # to (approx: the serial clock sums per-fragment costs in
        # schedule order, the makespan in size order).
        first = engine.tracer.roots()[0]
        assert report.trace.sim_start_ms == pytest.approx(
            first.sim_end_ms, rel=1e-9
        )

    def test_trace_exports_valid_json(self):
        engine = build_engine()
        engine.initial_build()
        payload = to_trace_events(engine.tracer.roots())
        assert validate_trace_events(payload) == []


@pytest.fixture
def pool():
    compiler = ProcessFragmentCompiler(workers=2)
    yield compiler
    compiler.close()


class TestParallelRebuildSpans:
    def test_worker_pool_spans(self, pool):
        engine = build_engine(compiler=pool)
        report = engine.initial_build()
        assert report.workers == 2
        check_tree_invariants(report)

        compile_span = report.trace.children[3]
        fragments = [f for f in compile_span.children if f.sim_ms > 0]
        assert len(fragments) > 1, "test needs >1 compiled fragment"
        # With one dominant fragment both lanes may still be makespan-
        # optimal with everything else on one lane; lanes must at least
        # be within the pool.
        assert {f.lane for f in fragments} <= {0, 1}

        # Fragments tile their lanes: no overlap, and the busiest lane
        # ends exactly at the compile stage's makespan.
        by_lane = {}
        for f in fragments:
            by_lane.setdefault(f.lane, []).append(f)
        for lane_frags in by_lane.values():
            lane_frags.sort(key=lambda f: f.sim_start_ms)
            for a, b in zip(lane_frags, lane_frags[1:]):
                assert a.sim_end_ms <= b.sim_start_ms
        assert (
            max(f.sim_end_ms for f in fragments) == compile_span.sim_end_ms
        )
        # The lane-sum exceeds the makespan when work actually overlaps.
        assert report.total_compile_ms > report.compile_wall_ms

    def test_wall_ms_is_makespan_not_lane_sum(self, pool):
        engine = build_engine(compiler=pool)
        report = engine.initial_build()
        assert report.wall_ms == report.compile_wall_ms + report.link_ms
        assert report.wall_ms < report.total_ms


class TestAssignLanes:
    def test_serial_back_to_back(self):
        lanes, starts = assign_lanes([3.0, 1.0, 2.0], workers=1)
        assert lanes == [0, 0, 0]
        assert starts == [0.0, 3.0, 4.0]

    def test_replays_makespan_exactly(self):
        costs = [5.0, 3.0, 3.0, 2.0, 1.0, 0.5]
        for workers in (2, 3, 4):
            lanes, starts = assign_lanes(costs, workers)
            ends = {}
            for cost, lane, start in zip(costs, lanes, starts):
                # Starts are the lane's load at placement time: no overlap.
                assert start == ends.get(lane, 0.0)
                ends[lane] = start + cost
            assert max(ends.values()) == compile_makespan(costs, workers)

    def test_empty(self):
        assert assign_lanes([], 4) == ([], [])
