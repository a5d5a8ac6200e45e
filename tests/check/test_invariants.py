"""Engine/scheduler invariant checks."""

from repro.check.invariants import (
    RecordingCache,
    check_backpropagation,
    check_content_key_determinism,
    run_invariant_checks,
)
from repro.core.engine import Odin
from repro.instrument.coverage import OdinCov
from repro.programs.registry import get_program


class TestInvariants:
    def test_all_invariants_hold_on_real_target(self):
        assert run_invariant_checks(get_program("lcms")) == []

    def test_backpropagation_reapplies_unchanged_probes(self):
        assert check_backpropagation(get_program("woff2")) == []

    def test_content_keys_deterministic(self):
        assert check_content_key_determinism(get_program("woff2")) == []

    def test_stage3_schedules_whole_fragment_probe_set(self):
        """Direct form of the invariant: dirtying ONE probe schedules
        every active probe of the affected fragments."""
        program = get_program("lcms")
        engine = Odin(program.compile(), preserve=("main", "run_input"))
        tool = OdinCov(engine)
        tool.add_all_block_probes()
        tool.build()
        first = tool.probes[min(tool.probes)]
        engine.manager.disable(first)
        scheduler = engine.manager.schedule()
        expected = {
            p.id
            for p in engine.manager
            if p.enabled and p.target_symbol() in scheduler.changed_symbols
        }
        assert {p.id for p in scheduler.active_probes} == expected
        assert first.id not in expected  # the disabled one is not re-applied


class TestRecordingCache:
    def test_detects_key_collision_with_different_bytes(self):
        from repro.core.engine import compile_fragment
        from repro.frontend.codegen import compile_source
        from repro.ir.printer import print_module

        obj_a = compile_fragment(
            print_module(compile_source("int main(void) { return 1; }", "a")), "a"
        )
        obj_b = compile_fragment(
            print_module(compile_source("int main(void) { return 2; }", "b")), "b"
        )
        cache = RecordingCache()
        cache.put("samekey", obj_a)
        cache.put("samekey", obj_b)
        assert cache.conflicts
        assert cache.get("samekey") is None  # always a miss by design
