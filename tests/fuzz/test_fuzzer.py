"""Tests for the fuzzing loop and executors over a real target."""

import pytest

from repro.core.engine import Odin
from repro.fuzz.executor import (
    DrCovExecutor,
    LibInstExecutor,
    OdinCovExecutor,
    PlainExecutor,
    SanCovExecutor,
)
from repro.fuzz.fuzzer import CmpLogFuzzer, Fuzzer
from repro.frontend.codegen import compile_source
from repro.instrument.cmplog import CmpLogRuntime, add_cmp_probes
from repro.instrument.coverage import OdinCov
from repro.instrument.sancov import build_sancov
from repro.toolchain import build

TARGET = r"""
static int seen_magic;

int run_input(const char *data, long size) {
    if (size < 4) return 0;
    if (data[0] == 'F') {
        if (data[1] == 'U') {
            if (data[2] == 'Z') {
                if (data[3] == 'Z') {
                    seen_magic = 1;
                    return 100;
                }
                return 3;
            }
            return 2;
        }
        return 1;
    }
    return 0;
}

int main(void) { return 0; }
"""

MAGIC32 = r"""
int run_input(const char *data, long size) {
    int key;
    if (size < 4) return 0;
    key = ((int)data[0] & 255) | (((int)data[1] & 255) << 8)
        | (((int)data[2] & 255) << 16) | (((int)data[3] & 255) << 24);
    if (key == 0x4A3B2C1D) return 100;
    return 0;
}

int main(void) { return 0; }
"""


def odincov_executor(source=TARGET, prune=True):
    engine = Odin(compile_source(source, "t"), preserve=("main", "run_input"))
    tool = OdinCov(engine, prune=prune)
    tool.add_all_block_probes()
    tool.build()
    return OdinCovExecutor(tool)


class TestExecutors:
    def test_plain_executor_counts(self):
        exe = build(TARGET).executable
        executor = PlainExecutor(exe)
        executor.execute(b"ABCD")
        executor.execute(b"FUZZ")
        assert executor.executions == 2
        assert executor.total_cycles > 0

    def test_odincov_executor_reports_new_coverage(self):
        executor = odincov_executor()
        first = executor.execute(b"A")
        second = executor.execute(b"A")
        assert first.coverage  # first run covers blocks
        assert second.coverage == first.coverage  # counters keep growing

    def test_sancov_executor(self):
        san = build_sancov(compile_source(TARGET, "t"))
        executor = SanCovExecutor(san)
        outcome = executor.execute(b"FUZZ")
        assert outcome.result.exit_code == 100
        assert outcome.coverage

    def test_baseline_executors_collect_block_coverage(self):
        exe = build(TARGET).executable
        for cls in (DrCovExecutor, LibInstExecutor):
            executor = cls(exe)
            executor.execute(b"FUZZ")
            assert executor.tool.blocks_covered > 0

    def test_baseline_coverage_is_per_execution_delta(self):
        """Regression: DrCov/LibInst used to report the full cumulative
        covered set on every input, so everything looked novel forever."""
        exe = build(TARGET).executable
        for cls in (DrCovExecutor, LibInstExecutor):
            executor = cls(exe)
            first = executor.execute(b"FUZZ")
            assert first.coverage  # a fresh tool sees new blocks
            repeat = executor.execute(b"FUZZ")
            assert repeat.coverage == set()  # same path: no delta
            # An input on a previously seen path also reports no delta.
            executor.execute(b"FxZZ")
            covered_before = executor.tool.blocks_covered
            again = executor.execute(b"FxZZ")
            assert again.coverage == set()
            # The tool's cumulative map is unaffected by the delta fix.
            assert executor.tool.blocks_covered == covered_before


class TestFuzzerLoop:
    def test_coverage_guided_progress(self):
        """The fuzzer climbs the magic-bytes staircase."""
        executor = odincov_executor(prune=False)
        fuzzer = Fuzzer(executor, seeds=[b"AAAA"], seed=5)
        stats = fuzzer.run(400)
        assert stats.corpus_size > 1
        assert stats.coverage > 0
        assert stats.executions >= 400

    def test_prune_interval_triggers_rebuilds(self):
        executor = odincov_executor(prune=True)
        fuzzer = Fuzzer(executor, seeds=[b"AAAA", b"FUZ", b"xy"], prune_interval=50)
        stats = fuzzer.run(120)
        assert stats.rebuilds >= 1
        assert stats.rebuild_ms > 0

    def test_prune_fires_every_interval_not_every_iteration(self):
        """Regression: the loop used to read ``stats.executions`` (synced
        only after the loop, so 0 throughout) and pruned on EVERY
        iteration instead of every ``prune_interval`` executions."""
        executor = odincov_executor(prune=True)
        prune_calls = []
        original_prune = executor.prune
        executor.prune = lambda: prune_calls.append(1) or original_prune()
        fuzzer = Fuzzer(
            executor, seeds=[b"AAAA", b"FUZ", b"xy"], prune_interval=50
        )
        stats = fuzzer.run(120)
        # 3 seed executions + 120 mutations = executions 4..123, which
        # cross exactly two multiples of 50 (50 and 100).
        assert len(prune_calls) == 2
        assert stats.prunes == 2
        assert stats.executions == 123

    def test_replay_mode(self):
        executor = odincov_executor(prune=False)
        fuzzer = Fuzzer(executor, seeds=[])
        stats = fuzzer.replay([b"FUZZ", b"F..."])
        assert stats.executions == 2

    def test_deterministic_given_seed(self):
        s1 = Fuzzer(odincov_executor(prune=False), seeds=[b"AAAA"], seed=9).run(150)
        s2 = Fuzzer(odincov_executor(prune=False), seeds=[b"AAAA"], seed=9).run(150)
        assert s1.coverage == s2.coverage
        assert s1.corpus_size == s2.corpus_size


CRASHY = r"""
int run_input(const char *data, long size) {
    int x;
    x = 0;
    return 100 / x;
}

int main(void) { return 0; }
"""


class TestRebuildAccounting:
    def test_wall_vs_cpu_split(self):
        """Regression: ``rebuild_ms`` used to accumulate the serial
        lane-sum (``total_ms``), overstating the latency a worker-pool
        rebuild actually imposes; the lane-sum now lands in
        ``rebuild_cpu_ms``."""
        from repro.core.engine import RebuildReport

        report = RebuildReport()
        report.workers = 2
        report.fragment_compile_ms = {0: 40.0, 1: 30.0, 2: 30.0}
        report.compile_wall_ms = 60.0  # LPT makespan of the lanes above
        report.link_ms = 10.0

        fuzzer = Fuzzer(PlainExecutor(build(TARGET).executable), seeds=[])
        fuzzer._note_rebuild(report)
        assert fuzzer.stats.rebuilds == 1
        assert fuzzer.stats.rebuild_ms == report.wall_ms == 70.0
        assert fuzzer.stats.rebuild_cpu_ms == report.total_ms == 110.0
        assert fuzzer.stats.rebuild_ms < fuzzer.stats.rebuild_cpu_ms

    def test_worker_pool_campaign_reports_wall(self):
        """End-to-end ``workers>1``: recorded latency is the makespan."""
        from repro.service.workers import ProcessFragmentCompiler

        pool = ProcessFragmentCompiler(workers=2)
        engine = Odin(
            compile_source(TARGET, "t"), preserve=("main", "run_input"),
            compiler=pool,
        )
        tool = OdinCov(engine, prune=True)
        tool.add_all_block_probes()
        try:
            tool.build()
            fuzzer = Fuzzer(
                OdinCovExecutor(tool), seeds=[b"AAAA", b"FUZ", b"xy"],
                prune_interval=50,
            )
            stats = fuzzer.run(120)
        finally:
            pool.close()
        assert stats.rebuilds >= 1
        wall = sum(r.wall_ms for r in engine.history[1:])
        cpu = sum(r.total_ms for r in engine.history[1:])
        assert stats.rebuild_ms == wall
        assert stats.rebuild_cpu_ms == cpu


class TestSeedTriage:
    def test_all_crashing_seeds_fail_fast(self):
        """Regression: a corpus emptied by seed triage used to surface
        as a bare ``IndexError("corpus is empty")`` from ``pick`` on the
        first mutation."""
        from repro.errors import FuzzError

        executor = PlainExecutor(build(CRASHY).executable)
        fuzzer = Fuzzer(executor, seeds=[b"a", b"bb"])
        with pytest.raises(FuzzError, match="all 2 seed inputs crashed"):
            fuzzer.run(10)
        assert fuzzer.stats.crashes == 2

    def test_one_good_seed_is_enough(self):
        executor = odincov_executor(prune=False)
        fuzzer = Fuzzer(executor, seeds=[b"AAAA"])
        stats = fuzzer.run(5)
        assert stats.executions >= 5


class TestCorpusEnergy:
    def test_energy_multiplies_pick_weight(self):
        from repro.fuzz.corpus import Corpus
        from repro.utils.rng import DeterministicRNG

        corpus = Corpus()
        corpus.consider(b"a" * 100, {1}, 0)
        corpus.consider(b"b" * 100, {2}, 0)
        corpus.entries[0].energy = 500
        rng = DeterministicRNG(3)
        picks = [corpus.pick(rng) for _ in range(200)]
        boosted = sum(1 for e in picks if e is corpus.entries[0])
        assert boosted > 190

    def test_nonpositive_energy_clamps_to_neutral(self):
        """A zeroed-out entry must not break the weighted roll."""
        from repro.fuzz.corpus import Corpus, CorpusEntry
        from repro.utils.rng import DeterministicRNG

        assert CorpusEntry(b"x", frozenset()).energy == 1
        corpus = Corpus()
        corpus.consider(b"a", {1}, 0)
        corpus.consider(b"b", {2}, 0)
        corpus.entries[0].energy = 0
        rng = DeterministicRNG(11)
        picks = {corpus.pick(rng).data for _ in range(100)}
        assert picks == {b"a", b"b"}


class TestCmpLogFuzzer:
    def test_solves_32bit_magic(self):
        """Random mutation can't find 0x4A3B2C1D; input-to-state can."""
        engine = Odin(compile_source(MAGIC32, "t"), preserve=("main", "run_input"))
        tool = OdinCov(engine, prune=False)
        tool.add_all_block_probes()
        cmp_probes = add_cmp_probes(engine, functions={"run_input"})
        tool.build()
        cmplog = CmpLogRuntime()
        executor = OdinCovExecutor(tool, extra_runtime=cmplog)
        fuzzer = CmpLogFuzzer(
            executor, seeds=[b"\x00\x00\x00\x00"], cmplog_runtime=cmplog,
            cmp_probes=cmp_probes,
        )
        fuzzer.run(30)  # collects pairs, cannot solve by chance
        solved = fuzzer.solve_roadblocks()
        assert solved >= 1
        assert any(
            e.data[:4] == (0x4A3B2C1D).to_bytes(4, "little")
            for e in fuzzer.corpus.entries
        )

    def test_solved_probe_removed_and_rebuilt(self):
        engine = Odin(compile_source(MAGIC32, "t"), preserve=("main", "run_input"))
        tool = OdinCov(engine, prune=False)
        tool.add_all_block_probes()
        cmp_probes = add_cmp_probes(engine, functions={"run_input"})
        tool.build()
        cmplog = CmpLogRuntime()
        executor = OdinCovExecutor(tool, extra_runtime=cmplog)
        fuzzer = CmpLogFuzzer(
            executor, seeds=[b"\x00\x00\x00\x00"], cmplog_runtime=cmplog,
            cmp_probes=cmp_probes,
        )
        fuzzer.run(10)
        before = len(list(engine.manager))
        if fuzzer.solve_roadblocks():
            assert len(list(engine.manager)) < before
            assert fuzzer.stats.rebuilds >= 1
