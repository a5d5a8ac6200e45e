"""Schedule generation: determinism, bounds, and target picking."""

import pytest

from repro.check.schedules import (
    STEP_KINDS,
    STEP_PRUNE,
    ProbeSchedule,
    ScheduleStep,
    generate_schedules,
    pick_step,
    pick_targets,
)
from repro.utils.rng import DeterministicRNG


class TestGeneration:
    def test_same_seed_same_schedules(self):
        assert generate_schedules(10, 42) == generate_schedules(10, 42)

    def test_different_seed_different_schedules(self):
        assert generate_schedules(10, 1) != generate_schedules(10, 2)

    def test_bounds_respected(self):
        schedules = generate_schedules(
            20, 7, min_steps=2, max_steps=4,
            max_probes_per_step=3, max_inputs_per_step=2,
        )
        assert len(schedules) == 20
        for schedule in schedules:
            assert 2 <= len(schedule.steps) <= 4
            for step in schedule.steps:
                assert step.kind in STEP_KINDS
                assert 1 <= step.count <= 3
                assert 0 <= step.inputs <= 2

    def test_include_prune_false(self):
        schedules = generate_schedules(20, 3, include_prune=False)
        assert all(
            step.kind != STEP_PRUNE
            for schedule in schedules
            for step in schedule.steps
        )

    def test_replay_seeds_are_distinct(self):
        schedules = generate_schedules(10, 5)
        assert len({s.seed for s in schedules}) == 10

    def test_describe(self):
        schedule = ProbeSchedule(0, 1, (ScheduleStep("disable", 2, 1),))
        assert "disable 2" in schedule.describe()

    def test_invalid_step_kind_rejected(self):
        with pytest.raises(ValueError):
            ScheduleStep("explode", 1, 1)


class TestPickTargets:
    def test_deterministic_and_distinct(self):
        eligible = list(range(20))
        a = pick_targets(DeterministicRNG(9), eligible, 5)
        b = pick_targets(DeterministicRNG(9), eligible, 5)
        assert a == b
        assert len(set(a)) == 5

    def test_bounded_by_eligible(self):
        assert len(pick_targets(DeterministicRNG(1), [1, 2], 5)) == 2
        assert pick_targets(DeterministicRNG(1), [], 3) == []

    def test_prune_steps_pick_no_probes(self):
        with pytest.raises(ValueError, match="prune"):
            pick_step([], ScheduleStep(STEP_PRUNE), DeterministicRNG(1))
