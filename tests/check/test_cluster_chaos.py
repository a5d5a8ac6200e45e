"""Cluster chaos: schedule generation determinism + a seeded sweep."""

import json

import pytest

from repro.check.chaos import (
    CLUSTER_FAULTS,
    ChaosRunner,
    ClusterChaos,
    FaultEvent,
    generate_cluster_chaos_schedules,
)
from repro.programs.registry import get_program


class TestGeneration:
    def test_generation_is_deterministic(self):
        a = generate_cluster_chaos_schedules(3, 11, tenants=6)
        b = generate_cluster_chaos_schedules(3, 11, tenants=6)
        assert [(s.schedule_id, s.faults, s.rounds) for s in a] == [
            (s.schedule_id, s.faults, s.rounds) for s in b
        ]

    def test_different_seeds_differ(self):
        a = generate_cluster_chaos_schedules(4, 1, tenants=6)
        b = generate_cluster_chaos_schedules(4, 2, tenants=6)
        assert [s.faults for s in a] != [s.faults for s in b]

    def test_tenant_count_and_fault_bounds(self):
        schedules = generate_cluster_chaos_schedules(
            4, 5, tenants=5, min_faults=1, max_faults=2
        )
        for schedule in schedules:
            assert len(schedule.campaigns) == 5
            assert 1 <= len(schedule.faults) <= 2
            for fault in schedule.faults:
                assert fault.kind in dict(CLUSTER_FAULTS)
                assert 0 <= fault.step < schedule.rounds

    def test_fault_event_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(0, "meteor-strike")
        with pytest.raises(ValueError):
            FaultEvent(-1, "shard-kill")

    def test_describe_mentions_faults(self):
        schedule = generate_cluster_chaos_schedules(1, 3, tenants=4)[0]
        text = schedule.describe()
        assert "4 campaigns" in text and "rounds" in text


class TestSweep:
    def test_shard_kill_sweep_recovers_fingerprint_identical(self):
        # Small tier-1 version of the CI acceptance sweep: one seeded
        # schedule, 3 shards, 4 tenants over one program.  Every tenant
        # campaign must complete and every surviving engine must rebuild
        # fingerprint-identical to an uninterrupted run.  The schedule
        # has no hang fault, so no count below depends on a timeout.
        runner = ChaosRunner(
            ClusterChaos, [get_program("json")], max_inputs=2,
            shards=3, reply_timeout_s=3.0,
        )
        report = runner.run(generate_cluster_chaos_schedules(1, 7, tenants=4), 7)
        assert report.ok, report.failures
        outcome = report.outcomes[0]
        assert outcome.error is None
        assert outcome.injected == {"shard-kill": 1}
        assert outcome.counters == {
            "failovers": 1,
            "migrations": 4,
            "resubmits": 0,
            "live_shards": 2,
            "degraded": True,
        }
        assert [(c.steps, c.replies) for c in outcome.campaigns] == [
            (4, 4), (3, 3), (4, 3), (5, 4),
        ]
        for campaign in outcome.campaigns:
            assert campaign.mismatches == []
            assert campaign.shed == {}
            assert campaign.breaker_rejections == campaign.resubmits == 0
        # The report is JSON-serializable end to end (CI artifact).
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["ok"] is True
        assert payload["options"]["shards"] == 3
        assert payload["outcomes"][0]["campaigns"][0]["client"] == "tenant-0"
        assert "cluster[json]" in report.summary()

    def test_one_tenant_per_campaign(self):
        # The tenant count comes from the schedule: a 2-campaign schedule
        # registers exactly 2 tenants, and both campaigns really run.
        schedules = generate_cluster_chaos_schedules(1, 7, tenants=2)
        runner = ChaosRunner(
            ClusterChaos, [get_program("json")], max_inputs=1,
            reply_timeout_s=3.0,
        )
        outcome = runner.run_schedule(schedules[0])
        assert outcome.ok, (outcome.error, outcome.campaigns)
        assert [c.client for c in outcome.campaigns] == ["tenant-0", "tenant-1"]
        assert all(c.steps > 0 for c in outcome.campaigns)
