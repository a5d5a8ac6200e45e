"""The tiered recompile fast path: patching, no-op rebuilds, cached walls.

Three contracts from the tiered-recompilation work:

* **byte identity** — a patch-tier rebuild (toggling probe sites in the
  cached master object) produces exactly the objects, image and
  behaviour a from-scratch build of the same probe state produces;
* **no-op rebuilds** — a probe-state diff that cancelled out costs
  nothing: zero-cost report, empty span tree, no optimize/isel spans;
* **tiered cost accounting** — cache and patch hits contribute their
  tier's cost (zero for cache, patch cost for patches) to
  ``compile_wall_ms``, so a fully-cached rebuild reports ~0 compile wall.
"""

import random

import pytest

from repro.backend.patching import probe_site_ids, toggle_object
from repro.core.engine import (
    TIER_CACHE,
    TIER_FULL,
    TIER_NOOP,
    TIER_PATCH,
    InlineFragmentCompiler,
    Odin,
)
from repro.core.scheduler import FragmentState, classify
from repro.frontend.codegen import compile_source
from repro.fuzz.executor import PRESERVED
from repro.instrument.coverage import OdinCov
from repro.programs.registry import get_program
from repro.service.cache import InMemoryCodeCache
from repro.vm.interpreter import VM

SOURCE = r"""
static int acc;

int helper_a(int x) {
    int i;
    for (i = 0; i < x; i = i + 1) acc = acc + i * 3;
    return acc;
}

int helper_b(int x) {
    if (x > 5) return helper_a(x - 2);
    return acc - x;
}

int run_input(const char *data, long size) {
    int i;
    int r;
    r = 0;
    for (i = 0; i < size; i = i + 1) {
        r = r + helper_b((int)data[i] & 255);
    }
    return r;
}

int main(void) { return run_input("seed", 4); }
"""


def build_engine(**kwargs):
    engine = Odin(
        compile_source(SOURCE, "fastpath"), preserve=("main", "run_input"),
        **kwargs,
    )
    tool = OdinCov(engine)
    tool.add_all_block_probes()
    tool.build()
    return engine, tool


def probes_by_id(engine):
    return {p.id: p for p in engine.manager}


def effective(engine) -> bool:
    """Whether `classify` patches or recompiles any dirty fragment (a
    cancelled diff skips every one)."""
    return any(flips != frozenset() for *_, flips in classify(engine))


def run_main(engine) -> int:
    vm = VM(engine.executable)
    return vm.run("main", ()).exit_code


class TestPatchByteIdentity:
    def test_patched_objects_match_scratch_build(self):
        engine, _ = build_engine()
        victims = sorted(probes_by_id(engine))[:3]
        for pid in victims:
            engine.manager.disable(probes_by_id(engine)[pid])
        report = engine.rebuild_if_needed()
        assert report.tier == TIER_PATCH

        # From scratch: fresh engine, same probes disabled *before* the
        # first build, so it never sees a patch path.
        scratch, _tool = (None, None)
        scratch_engine = Odin(
            compile_source(SOURCE, "fastpath"), preserve=("main", "run_input")
        )
        tool = OdinCov(scratch_engine)
        tool.add_all_block_probes()
        for pid in victims:
            scratch_engine.manager.disable(probes_by_id(scratch_engine)[pid])
        tool.build()

        assert (
            engine.object_fingerprints()
            == scratch_engine.object_fingerprints()
        )
        assert (
            engine.executable_fingerprint()
            == scratch_engine.executable_fingerprint()
        )
        assert run_main(engine) == run_main(scratch_engine)

    def test_toggle_back_restores_original_bytes(self):
        engine, _ = build_engine()
        baseline_objs = engine.object_fingerprints()
        baseline_exe = engine.executable_fingerprint()
        victim = sorted(probes_by_id(engine))[0]

        engine.manager.disable(probes_by_id(engine)[victim])
        off = engine.rebuild_if_needed()
        assert off.tier == TIER_PATCH
        assert engine.object_fingerprints() != baseline_objs

        engine.manager.enable(probes_by_id(engine)[victim])
        on = engine.rebuild_if_needed()
        assert on.tier == TIER_PATCH
        assert engine.object_fingerprints() == baseline_objs
        assert engine.executable_fingerprint() == baseline_exe

    def test_toggle_object_unit_roundtrip(self):
        """toggle_object deletes exactly the asked-for sites, shares the rest."""
        engine, _ = build_engine()
        # The engine keeps the site-complete masters privately; pick a
        # fragment that actually carries patchable sites.
        master = next(
            engine._masters[f] for f in sorted(engine._masters)
            if probe_site_ids(engine._masters[f])
        )
        sites = probe_site_ids(master)
        victim = sorted(sites)[0]
        toggled = toggle_object(master, frozenset({victim}))
        assert probe_site_ids(toggled) == sites - {victim}
        # Toggling nothing is the identity (same object, not a copy).
        assert toggle_object(master, frozenset()) is master


class TestNoopRebuild:
    def test_cancelled_diff_is_a_real_noop(self):
        engine, _ = build_engine()
        victim = sorted(probes_by_id(engine))[0]
        engine.manager.disable(probes_by_id(engine)[victim])
        engine.manager.enable(probes_by_id(engine)[victim])
        assert engine.manager.has_pending_changes
        assert not effective(engine)

        exe_before = engine.executable
        report = engine.rebuild_if_needed()
        assert report is not None
        assert report.tier == TIER_NOOP
        assert report.wall_ms == 0.0
        assert report.total_compile_ms == 0.0
        assert report.fragment_ids == []
        assert engine.executable is exe_before
        # Empty span tree: no schedule/compile/link stages, and in
        # particular no optimize or isel spans anywhere.
        assert report.trace is not None
        assert report.trace.sim_ms == 0.0
        assert report.trace.children == []
        # The clean state is fully consumed: a second ask is silent.
        assert engine.rebuild_if_needed() is None

    def test_noop_records_classified_cancelled(self):
        engine, _ = build_engine()
        probe = probes_by_id(engine)[sorted(probes_by_id(engine))[0]]
        engine.manager.disable(probe)
        assert effective(engine)
        engine.manager.enable(probe)
        assert engine.manager.has_pending_changes
        assert not effective(engine)
        assert engine.rebuild_if_needed().tier == TIER_NOOP

    def test_remove_is_never_a_noop(self):
        engine, _ = build_engine()
        victim, disabled = sorted(probes_by_id(engine))[:2]
        engine.manager.remove(probes_by_id(engine)[victim])
        assert effective(engine)
        report = engine.rebuild_if_needed()
        assert report.tier == TIER_FULL
        # Nor is removing a disabled probe, whose site the current
        # toggle already deletes: the master must lose the site.
        engine.manager.disable(probes_by_id(engine)[disabled])
        assert engine.rebuild_if_needed().tier == TIER_PATCH
        engine.manager.remove(probes_by_id(engine)[disabled])
        assert effective(engine)
        assert engine.rebuild_if_needed().tier == TIER_FULL

    def test_initial_build_survives_cancelled_records(self):
        """Regression: probes added then removed before the first build.

        The differential oracle's from-scratch reference does exactly
        this — add every probe, remove some to mirror the incremental
        state, then build.  The cancelled add+remove records must not
        let the classifier skip a never-compiled fragment: the external
        dirt initial_build plants has to stay visible even on symbols a
        probe record also covers (it used to be inferred away, leaving
        a fragment uncompiled and the link raising PartitionError).
        """
        engine = Odin(
            compile_source(SOURCE, "fastpath"), preserve=("main", "run_input")
        )
        tool = OdinCov(engine)
        tool.add_all_block_probes()
        # Wipe every probe on one function before anything is compiled:
        # its add+remove records all cancel out.
        doomed = [
            p for p in engine.manager if p.target_symbol() == "helper_a"
        ]
        assert doomed
        for probe in doomed:
            engine.manager.remove(probe)
        # External dirt (initial build) must win over cancelled records.
        assert effective(engine)
        report = tool.build()
        assert engine.executable is not None
        # Every fragment was compiled, including helper_a's.
        assert sorted(engine.cache) == sorted(
            f.id for f in engine.fragdef.fragments
        )
        assert sorted(report.fragment_ids) == sorted(engine.cache)
        # And the image behaves like any other build of this program.
        reference, _ = build_engine()
        assert run_main(engine) == run_main(reference)

    def test_external_dirt_visible_despite_probe_records(self):
        """mark_symbols_dirty on a symbol with a cancelled record."""
        engine, _ = build_engine()
        victim = sorted(probes_by_id(engine))[0]
        symbol = probes_by_id(engine)[victim].target_symbol()
        probe = probes_by_id(engine)[victim]
        engine.manager.disable(probe)
        engine.manager.enable(probe)  # record cancels out
        engine.manager.mark_symbols_dirty([symbol])
        assert symbol in engine.manager.external_dirty_symbols()
        assert effective(engine)
        report = engine.rebuild_if_needed()
        assert report is not None
        assert report.tier == TIER_FULL
        assert engine.manager.external_dirty_symbols() == set()

    @pytest.mark.parametrize("enable_patching", [True, False])
    def test_every_entry_point_answers_a_cancelled_diff_alike(
        self, enable_patching
    ):
        """`rebuild()`, the manual schedule / apply / rebuild path and
        `rebuild_if_needed()` give one zero-cost no-op for a diff that
        cancelled out, with patching on or off."""
        engine = Odin(
            get_program("json").compile(), preserve=PRESERVED,
            enable_patching=enable_patching,
        )
        tool = OdinCov(engine)
        tool.add_all_block_probes()
        tool.build()
        probe = probes_by_id(engine)[sorted(probes_by_id(engine))[0]]

        def manual(engine):
            scheduler = engine.manager.schedule()
            scheduler.apply_probes()
            return scheduler.rebuild()

        answers = []
        for entry in (Odin.rebuild, manual, Odin.rebuild_if_needed):
            engine.manager.disable(probe)
            engine.manager.enable(probe)
            executable = engine.executable
            report = entry(engine)
            assert engine.executable is executable
            assert not engine.manager.has_pending_changes
            answers.append((
                report.tier, report.fragment_ids, report.fragment_tiers,
                report.probes_applied, report.cache_reused,
                report.wall_ms, report.trace.sim_ms,
                report.trace.real_ms, report.trace.children,
            ))
        assert answers == [
            (TIER_NOOP, [], {}, 0, 0, 0.0, 0.0, 0.0, [])
        ] * 3


class TestOneDecision:
    def test_each_dirty_fragment_is_classified_once(self, monkeypatch):
        """Seeded patch flips and one remove on json: every rebuild
        computes each dirty fragment's live state exactly once."""
        engine = Odin(get_program("json").compile(), preserve=PRESERVED)
        tool = OdinCov(engine)
        tool.add_all_block_probes()
        tool.build()
        owner = engine.fragdef.owner
        classified = []
        of = FragmentState.of.__func__

        def counting_of(cls, probes):
            classified.append(owner[probes[0].target_symbol()])
            return of(cls, probes)

        monkeypatch.setattr(FragmentState, "of", classmethod(counting_of))

        def rebuild(expected_tier):
            dirty = sorted({
                owner[s] for s in engine.manager.dirty_symbols() if s in owner
            })
            classified.clear()
            assert engine.rebuild_if_needed().tier == expected_tier
            assert sorted(classified) == dirty

        rng = random.Random(7)
        probes = sorted(engine.manager, key=lambda p: p.id)
        for _ in range(6):
            for probe in rng.sample(probes, rng.randint(1, 3)):
                if probe.enabled:
                    engine.manager.disable(probe)
                else:
                    engine.manager.enable(probe)
            rebuild(TIER_PATCH)
        engine.manager.remove(rng.choice(probes))
        rebuild(TIER_FULL)


class FailingCompiler(InlineFragmentCompiler):
    """Raises on its next batch while armed."""

    armed = False

    def compile_batch(self, fragments, opt_level):
        if self.armed:
            self.armed = False
            raise RuntimeError("injected compile failure")
        return super().compile_batch(fragments, opt_level)


class TestFailedRebuild:
    def test_failed_mixed_rebuild_keeps_the_linked_toggle(self):
        """A rebuild that patches one fragment and then fails compiling
        another leaves the patched fragment at its linked toggle: once
        the flip is undone, the retried rebuild skips that fragment and
        the image still matches a scratch build."""

        def harfbuzz(compiler=None):
            engine = Odin(
                get_program("harfbuzz").compile(), preserve=PRESERVED,
                compiler=compiler,
            )
            tool = OdinCov(engine)
            tool.add_all_block_probes()
            return engine, tool

        compiler = FailingCompiler()
        engine, tool = harfbuzz(compiler)
        tool.build()
        owner = engine.fragdef.owner
        probes = sorted(engine.manager, key=lambda p: p.id)
        flip = probes[0]
        victim = next(
            p.id for p in probes
            if owner[p.target_symbol()] != owner[flip.target_symbol()]
        )
        victim_fragment = owner[tool.probes[victim].target_symbol()]
        engine.manager.disable(flip)
        tool.probes.discard(victim)
        compiler.armed = True
        with pytest.raises(RuntimeError):
            engine.rebuild_if_needed()
        engine.manager.enable(flip)
        report = engine.rebuild_if_needed()
        assert report.fragment_tiers == {victim_fragment: TIER_FULL}

        scratch, scratch_tool = harfbuzz()
        scratch_tool.probes.discard(victim)
        scratch_tool.build()
        assert engine.object_fingerprints() == scratch.object_fingerprints()
        assert engine.executable_fingerprint() == scratch.executable_fingerprint()


class TestTieredCompileWall:
    def test_patch_tier_costs_are_tiny_but_nonzero(self):
        engine, _ = build_engine()
        victim = sorted(probes_by_id(engine))[0]
        full_wall = engine.history[0].compile_wall_ms
        engine.manager.disable(probes_by_id(engine)[victim])
        report = engine.rebuild_if_needed()
        assert report.tier == TIER_PATCH
        assert report.patched == len(report.fragment_ids) > 0
        assert all(t == TIER_PATCH for t in report.fragment_tiers.values())
        assert 0.0 < report.compile_wall_ms < full_wall / 100.0

    def test_fully_cached_rebuild_reports_zero_compile_wall(self):
        """Satellite 1: a warm content cache means zero compile wall."""
        shared = InMemoryCodeCache()
        first, _ = build_engine(object_cache=shared)
        # Second engine, same module and probe state, sharing the cache:
        # its initial build is all content-key hits.
        second = Odin(
            compile_source(SOURCE, "fastpath"),
            preserve=("main", "run_input"),
            object_cache=shared,
        )
        tool = OdinCov(second)
        tool.add_all_block_probes()
        tool.build()
        report = second.history[0]
        assert report.tier == TIER_CACHE
        assert report.cache_hits == len(report.fragment_ids) > 0
        assert report.compile_wall_ms == 0.0
        assert report.total_compile_ms == 0.0
        assert all(t == TIER_CACHE for t in report.fragment_tiers.values())
        # The two engines still agree on every artifact.
        assert second.object_fingerprints() == first.object_fingerprints()
        assert (
            second.executable_fingerprint() == first.executable_fingerprint()
        )


class TestHistory:
    def test_history_keeps_the_tracers_bound(self):
        """Each report holds its span tree; an engine that persists
        across a campaign keeps only the latest ``max_roots`` of them."""
        engine, _ = build_engine()
        probe = probes_by_id(engine)[sorted(probes_by_id(engine))[0]]
        bound = engine.tracer.max_roots
        assert bound < 300
        for _ in range(300):
            if probe.enabled:
                engine.manager.disable(probe)
            else:
                engine.manager.enable(probe)
            report = engine.rebuild_if_needed()
            assert report.tier == TIER_PATCH
        assert len(engine.history) == bound
        assert engine.history[-1] is report
