"""The differential oracle: equivalence holds, and divergence is caught."""

from repro.check import DifferentialOracle, generate_schedules
from repro.core.engine import Odin
from repro.instrument.coverage import OdinCov
from repro.linker.linker import link
from repro.programs.registry import get_program

PRESERVED = ("main", "run_input")


def make_built_engine(program):
    engine = Odin(program.compile(), preserve=PRESERVED)
    tool = OdinCov(engine)
    tool.add_all_block_probes()
    tool.build()
    return engine, tool


class TestOracle:
    def test_incremental_equivalent_to_scratch(self):
        program = get_program("libjpeg")
        oracle = DifferentialOracle(program, max_inputs=2)
        report = oracle.run(generate_schedules(2, 11, max_steps=4))
        assert report.ok, report.mismatches
        assert report.comparisons >= 1
        assert "ok" in report.summary()

    def test_service_path_equivalent(self):
        """Batching, content cache and link cache preserve equivalence."""
        program = get_program("lcms")
        oracle = DifferentialOracle(
            program, use_service=True, workers=2, worker_mode="process",
            max_inputs=2,
        )
        report = oracle.run(generate_schedules(1, 13, max_steps=4))
        assert report.ok, report.mismatches

    def test_oracle_detects_tampered_object(self):
        """Mutation sanity: a one-cycle change to one cached object must
        surface in all three equivalence layers."""
        program = get_program("lcms")
        oracle = DifferentialOracle(program, max_inputs=2)
        engine, _tool = make_built_engine(program)
        victim = next(
            fid for fid in sorted(engine.cache) if engine.cache[fid].functions
        )
        fn = next(iter(engine.cache[victim].functions.values()))
        fn.insts[0].cost += 1
        engine.executable = link(
            [engine.cache[f.id] for f in engine.fragdef.fragments]
        )
        mismatches = oracle.compare_to_reference(engine)
        assert any("object bytes differ" in m for m in mismatches)
        assert any("linked image differs" in m for m in mismatches)
        assert any("cycles" in m for m in mismatches)

    def test_no_op_steps_skip_reference_builds(self):
        """Enable steps with nothing disabled are no-ops: not compared."""
        program = get_program("lcms")
        oracle = DifferentialOracle(program, max_inputs=1)
        from repro.check.schedules import ProbeSchedule, ScheduleStep

        schedule = ProbeSchedule(0, 99, (ScheduleStep("enable", 2, 0),))
        outcome = oracle.check_schedule(schedule)
        assert outcome.ok
        assert outcome.comparisons == 0


class TestEquivalenceHooks:
    def test_executable_fingerprint_stable_and_sensitive(self):
        program = get_program("lcms")
        engine_a, tool_a = make_built_engine(program)
        engine_b, tool_b = make_built_engine(program)
        assert engine_a.executable_fingerprint() == engine_b.executable_fingerprint()
        # Disabling a probe changes the generated code, hence the digest.
        engine_b.manager.disable(tool_b.probes[min(tool_b.probes)])
        engine_b.rebuild()
        assert engine_a.executable_fingerprint() != engine_b.executable_fingerprint()

    def test_unbuilt_engine_has_no_fingerprint(self):
        program = get_program("lcms")
        engine = Odin(program.compile(), preserve=PRESERVED)
        assert engine.executable_fingerprint() is None
