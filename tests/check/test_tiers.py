"""The tier sweep: the patch and full tiers produce identical artifacts."""

from repro.check import TierSweep, generate_schedules
from repro.check.schedules import (
    STEP_DISABLE,
    STEP_ENABLE,
    STEP_REMOVE,
    ProbeSchedule,
    ScheduleStep,
)
from repro.programs.registry import get_program


class TestTierSweep:
    def test_generated_schedules_have_zero_divergences(self):
        sweep = TierSweep(get_program("json"), max_inputs=2)
        report = sweep.run(generate_schedules(2, 21, max_steps=4))
        assert report.ok, report.mismatches
        assert report.comparisons >= 1
        assert "ok" in report.summary()

    def test_sweep_exercises_every_tier(self):
        """A toggle-then-remove schedule must hit patch and full."""
        schedule = ProbeSchedule(
            schedule_id=0,
            seed=7,
            steps=(
                ScheduleStep(STEP_DISABLE, count=2, inputs=1),
                ScheduleStep(STEP_ENABLE, count=1, inputs=1),
                ScheduleStep(STEP_REMOVE, count=2, inputs=1),
            ),
        )
        sweep = TierSweep(get_program("json"), max_inputs=2)
        report = sweep.run([schedule])
        assert report.ok, report.mismatches
        hit = report.tiers_hit
        # The patch session patches the toggles; everything else is the
        # full path.
        assert hit.get("patch", 0) >= 1
        assert hit.get("full", 0) >= 1
