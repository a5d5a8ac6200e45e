"""Tests for the utility layer: union-find, simulated clock, RNG."""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.core.engine import Odin
from repro.fuzz.executor import PRESERVED
from repro.instrument.coverage import OdinCov
from repro.programs.registry import get_program
from repro.utils.clock import SimClock
from repro.utils.rng import DeterministicRNG
from repro.utils.unionfind import UnionFind


class TestUnionFind:
    def test_singletons(self):
        uf = UnionFind(["a", "b"])
        assert uf.find("a") == "a"
        assert not uf.connected("a", "b")

    def test_union_connects(self):
        uf = UnionFind()
        uf.union("a", "b")
        uf.union("b", "c")
        assert uf.connected("a", "c")

    def test_lazy_registration(self):
        uf = UnionFind()
        assert uf.find("ghost") == "ghost"
        assert "ghost" in uf

    def test_clusters_partition_items(self):
        uf = UnionFind("abcdef")
        uf.union("a", "b")
        uf.union("c", "d")
        clusters = uf.clusters()
        assert sorted(len(c) for c in clusters) == [1, 1, 2, 2]
        flat = sorted(x for c in clusters for x in c)
        assert flat == list("abcdef")

    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=60))
    def test_equivalence_relation(self, pairs):
        """Union-find must agree with a brute-force transitive closure."""
        uf = UnionFind(range(31))
        groups = {i: {i} for i in range(31)}
        for a, b in pairs:
            uf.union(a, b)
            merged = groups[a] | groups[b]
            for member in merged:
                groups[member] = merged
        for a in range(0, 31, 5):
            for b in range(0, 31, 7):
                assert uf.connected(a, b) == (b in groups[a])

    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)), max_size=40))
    def test_clusters_are_disjoint_and_complete(self, pairs):
        uf = UnionFind(range(21))
        for a, b in pairs:
            uf.union(a, b)
        seen = set()
        for cluster in uf.clusters():
            for item in cluster:
                assert item not in seen
                seen.add(item)
        assert seen == set(range(21))


class TestSimClock:
    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(5.0, "compile")
        clock.advance(2.5, "link")
        clock.advance(1.5, "compile")
        assert clock.now_ms == 9.0
        assert clock.total("compile") == 6.5
        assert clock.breakdown() == {"compile": 6.5, "link": 2.5}

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1.0)

    def test_reset(self):
        clock = SimClock()
        clock.advance(3.0, "x")
        clock.reset()
        assert clock.now_ms == 0.0
        assert clock.breakdown() == {}

    def test_engine_clock_does_not_grow_with_rebuilds(self):
        """Every patch flip advances the engine's clock under a label;
        the clock keeps one total per label, not one entry per advance."""
        engine = Odin(get_program("json").compile(), preserve=PRESERVED)
        tool = OdinCov(engine)
        tool.add_all_block_probes()
        tool.build()
        probe = min(engine.manager, key=lambda p: p.id)

        def flip(times):
            for _ in range(times):
                if probe.enabled:
                    engine.manager.disable(probe)
                else:
                    engine.manager.enable(probe)
                engine.rebuild_if_needed()

        flip(100)
        size = len(pickle.dumps(engine.clock))
        flip(500)
        assert len(pickle.dumps(engine.clock)) == size
        assert engine.clock.total("link") > 0.0


class TestDeterministicRNG:
    def test_same_seed_same_stream(self):
        a = DeterministicRNG(42)
        b = DeterministicRNG(42)
        assert [a.randint(0, 100) for _ in range(10)] == [
            b.randint(0, 100) for _ in range(10)
        ]

    def test_bytes_length_and_range(self):
        data = DeterministicRNG(1).bytes(64)
        assert len(data) == 64

    def test_fork_is_independent_but_deterministic(self):
        a = DeterministicRNG(7)
        fork1 = a.fork()
        b = DeterministicRNG(7)
        fork2 = b.fork()
        assert [fork1.randint(0, 9) for _ in range(5)] == [
            fork2.randint(0, 9) for _ in range(5)
        ]

    @given(st.integers(0, 2**32), st.integers(0, 50), st.integers(51, 100))
    def test_randint_in_bounds(self, seed, lo, hi):
        rng = DeterministicRNG(seed)
        for _ in range(5):
            assert lo <= rng.randint(lo, hi) <= hi

    def test_chance_extremes(self):
        rng = DeterministicRNG(0)
        assert not any(rng.chance(0.0) for _ in range(20))
        assert all(rng.chance(1.0) for _ in range(20))
