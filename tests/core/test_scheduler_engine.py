"""Tests for the PatchManager, Scheduler (Algorithm 2) and Odin engine."""

import pytest

from repro.core.engine import Odin
from repro.core.probe import BlockProbe, Probe
from repro.errors import PartitionError, ScheduleError
from repro.instrument.coverage import CovProbe, OdinCov
from repro.ir.builder import IRBuilder
from repro.ir.parser import parse_module
from repro.vm.interpreter import VM

PROGRAM = """
@state = global i32 0

define internal i32 @alpha(i32 %x) {
entry:
  %r = add i32 %x, 1
  ret i32 %r
}

define internal i32 @beta(i32 %x) {
entry:
  %r = mul i32 %x, 2
  ret i32 %r
}

define i32 @gamma(i32 %x) {
entry:
  %r = sub i32 %x, 3
  ret i32 %r
}

define i32 @main() {
entry:
  %a = call i32 @alpha(i32 10)
  %b = call i32 @beta(i32 %a)
  %c = call i32 @gamma(i32 %b)
  ret i32 %c
}
"""


class NopProbe(BlockProbe):
    """A probe that counts how many times it was applied."""

    def __init__(self, fn, block):
        super().__init__(fn, block)
        self.applied = 0

    def instrument(self, builder, sched):
        self.applied += 1


def make_engine(strategy="max"):
    # MaxPartition gives deterministic one-symbol fragments, ideal for
    # testing Algorithm 2's propagation precisely.
    m = parse_module(PROGRAM)
    return Odin(m, strategy=strategy, preserve=("main", "gamma"))


class TestPatchManager:
    def test_add_assigns_ids(self):
        engine = make_engine()
        fn = engine.module.get("alpha")
        p1 = engine.manager.add(NopProbe(fn, fn.entry))
        p2 = engine.manager.add(NopProbe(fn, fn.entry))
        assert p1.id != p2.id
        assert engine.manager.get_probe(p1.id) is p1

    def test_double_add_rejected(self):
        engine = make_engine()
        fn = engine.module.get("alpha")
        probe = engine.manager.add(NopProbe(fn, fn.entry))
        with pytest.raises(ScheduleError):
            engine.manager.add(probe)

    def test_remove_unregistered_rejected(self):
        engine = make_engine()
        fn = engine.module.get("alpha")
        probe = NopProbe(fn, fn.entry)
        with pytest.raises(ScheduleError):
            engine.manager.remove(probe)

    def test_disable_unregistered_rejected(self):
        # Regression: disable/enable on a never-added probe used to record
        # dirt keyed at id -1 instead of raising.
        engine = make_engine()
        fn = engine.module.get("alpha")
        probe = NopProbe(fn, fn.entry)
        with pytest.raises(ScheduleError):
            engine.manager.disable(probe)
        with pytest.raises(ScheduleError):
            engine.manager.enable(probe)
        assert not engine.manager.has_pending_changes

    def test_toggle_after_remove_rejected(self):
        engine = make_engine()
        fn = engine.module.get("alpha")
        probe = engine.manager.add(NopProbe(fn, fn.entry))
        engine.manager.remove(probe)
        with pytest.raises(ScheduleError):
            engine.manager.disable(probe)

    def test_unknown_target_rejected(self):
        engine = make_engine()
        other = parse_module(PROGRAM).get("alpha")
        with pytest.raises(ScheduleError, match="unknown symbol"):
            engine.manager.add(NopProbe(other, other.entry))

    def test_dirty_tracking(self):
        engine = make_engine()
        fn = engine.module.get("alpha")
        assert not engine.manager.has_pending_changes
        probe = engine.manager.add(NopProbe(fn, fn.entry))
        assert engine.manager.dirty_symbols() == {"alpha"}


class TestAlgorithm2:
    def test_only_changed_fragment_scheduled(self):
        engine = make_engine()
        engine.initial_build()
        fn = engine.module.get("alpha")
        engine.manager.add(NopProbe(fn, fn.entry))
        sched = engine.manager.schedule()
        names = {f.symbols for f in sched.changed_fragments}
        assert names == {("alpha",)}

    def test_fragment_propagation_pulls_in_cluster(self):
        """Stage 2: symbols sharing a fragment are recompiled together."""
        engine = make_engine(strategy="one")
        engine.initial_build()
        fn = engine.module.get("alpha")
        engine.manager.add(NopProbe(fn, fn.entry))
        sched = engine.manager.schedule()
        assert set(sched.changed_symbols) == {"alpha", "beta", "gamma", "main", "state"}

    def test_back_propagation_reapplies_unchanged_probes(self):
        """Stage 3: an *unchanged but active* probe on a recompiled symbol
        must be re-applied."""
        engine = make_engine(strategy="one")
        alpha = engine.module.get("alpha")
        beta = engine.module.get("beta")
        stable = engine.manager.add(NopProbe(beta, beta.entry))
        engine.initial_build()
        assert stable.applied == 1
        # Changing only alpha still reapplies beta's probe (same fragment).
        engine.manager.add(NopProbe(alpha, alpha.entry))
        engine.rebuild()
        assert stable.applied == 2

    def test_unrelated_probe_not_reapplied(self):
        engine = make_engine()  # max partition: separate fragments
        alpha = engine.module.get("alpha")
        beta = engine.module.get("beta")
        stable = engine.manager.add(NopProbe(beta, beta.entry))
        engine.initial_build()
        engine.manager.add(NopProbe(alpha, alpha.entry))
        engine.rebuild()
        assert stable.applied == 1

    def test_disabled_probe_not_applied(self):
        engine = make_engine()
        alpha = engine.module.get("alpha")
        probe = engine.manager.add(NopProbe(alpha, alpha.entry))
        engine.manager.disable(probe)
        engine.initial_build()
        assert probe.applied == 0

    def test_scheduler_map_translates_blocks(self):
        engine = make_engine()
        engine.manager.mark_symbols_dirty(["alpha"])
        sched = engine.manager.schedule()
        alpha = engine.module.get("alpha")
        mapped = sched.map_block(alpha.entry)
        assert mapped is not alpha.entry
        assert mapped.parent.name == "alpha"

    def test_double_rebuild_rejected(self):
        engine = make_engine()
        engine.manager.mark_symbols_dirty(engine.fragdef.owner.keys())
        sched = engine.manager.schedule()
        sched.rebuild()
        with pytest.raises(ScheduleError):
            sched.rebuild()


class TestEngine:
    def test_initial_build_produces_runnable_executable(self):
        engine = make_engine()
        report = engine.initial_build()
        assert report.cache_reused == 0
        assert VM(engine.executable).run("main").exit_code == 19

    def test_rebuild_reuses_cache(self):
        engine = make_engine()
        engine.initial_build()
        alpha = engine.module.get("alpha")
        engine.manager.add(NopProbe(alpha, alpha.entry))
        report = engine.rebuild()
        assert report.fragment_ids == [engine.fragdef.owner["alpha"]]
        assert report.cache_reused == engine.num_fragments - 1

    def test_rebuild_without_initial_build_fails(self):
        engine = make_engine()
        with pytest.raises(PartitionError, match="initial_build"):
            engine.rebuild()  # nothing pending, but nothing linked either
        alpha = engine.module.get("alpha")
        engine.manager.add(NopProbe(alpha, alpha.entry))
        with pytest.raises(PartitionError, match="initial_build"):
            engine.rebuild()

    def test_rebuild_if_needed_noop_when_clean(self):
        engine = make_engine()
        engine.initial_build()
        assert engine.rebuild_if_needed() is None

    def test_original_module_never_mutated(self):
        from repro.ir.printer import print_module

        engine = make_engine()
        before = print_module(engine.module)
        cov = OdinCov(engine)
        cov.add_all_block_probes()
        cov.build()
        assert print_module(engine.module) == before

    def test_execution_identical_across_rebuilds(self):
        """Instrumentation must never change program results (§5 replay)."""
        engine = make_engine()
        cov = OdinCov(engine)
        cov.add_all_block_probes()
        cov.build()
        r1 = cov.make_vm().run("main")
        cov.prune_covered()  # triggers an on-the-fly rebuild
        r2 = cov.make_vm().run("main")
        assert r1.exit_code == r2.exit_code == 19
        assert r2.cycles <= r1.cycles  # probes got cheaper, never dearer

    def test_clock_accumulates(self):
        engine = make_engine()
        engine.initial_build()
        assert engine.clock.total("compile") > 0
        assert engine.clock.total("link") > 0

    def test_describe_partition(self):
        engine = make_engine()
        text = engine.describe_partition()
        assert "strategy=max" in text
        assert "alpha" in text


class TestProbeTargetsSurviveOptimization:
    def test_probe_on_inlined_function_still_fires(self):
        """Instrument-first: alpha inlines into main, carrying its probe."""
        engine = make_engine(strategy="one")
        cov = OdinCov(engine, prune=False)
        alpha = engine.module.get("alpha")
        probe = cov.probes.register(CovProbe(alpha, alpha.entry))
        cov.build()
        vm = cov.make_vm()
        vm.run("main")
        assert cov.runtime.counters.get(probe.id, 0) >= 1
