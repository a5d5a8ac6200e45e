"""Chaos replays pinned value for value.

The expected values were recorded from the two separate service and
cluster chaos harnesses that the one schedule/runner design replaced.
They pin what a replay depends on — schedule ids, seeds, fault plans,
each campaign's probe steps and pick seed — plus the per-schedule counts
of the CI service sweep (``repro chaos --schedules 5 --seed 1``).

A schedule row is ``(id, seed, faults, campaigns)``.  Faults read
``"round:kind"``.  A campaign is ``(pick seed, steps)``, with each step
written as kind initial, probe count, ``/``, inputs run: ``"d4/3"`` runs
3 corpus inputs, then disables 4 probes.
"""

import pytest

from repro.check.chaos import (
    ChaosRunner,
    ServiceChaos,
    generate_chaos_schedules,
    generate_cluster_chaos_schedules,
)
from repro.programs.registry import get_program

SERVICE_5_1 = [
    (0, 582057716445789124,
     "1:deadline-expire 2:cache-corrupt 3:dispatcher-restart",
     [(582057716445789124, "d4/3 r4/1 d4/0 e4/0 r3/1")]),
    (1, 282142854078468499,
     "0:worker-hang 1:worker-crash 2:dispatcher-restart",
     [(282142854078468499, "d1/3 d4/0 r2/3")]),
    (2, 4573060771682795503,
     "0:worker-crash",
     [(4573060771682795503, "e2/1 r3/0 e1/1 e1/2")]),
    (3, 3893249920808458158,
     "0:worker-crash 3:worker-crash",
     [(3893249920808458158, "e3/3 r4/0 r2/3 e2/2")]),
    (4, 797522772177488271,
     "3:worker-hang 4:deadline-expire",
     [(797522772177488271, "r1/1 r4/2 r1/3 d3/3 d2/1 d2/1")]),
]

SERVICE_4_9 = [
    (0, 2463880206533877488,
     "0:dispatcher-restart 2:cache-corrupt 2:worker-crash",
     [(2463880206533877488, "d1/2 r4/0 e1/3 d4/3")]),
    (1, 1553473874748470182,
     "0:cache-corrupt",
     [(1553473874748470182, "d1/1 r1/3 d3/1 d4/0")]),
    (2, 2460182902831829382,
     "1:worker-crash",
     [(2460182902831829382, "e3/2 d2/0 e1/3 r2/0")]),
    (3, 3917399917481070069,
     "0:worker-crash 1:dispatcher-restart 2:cache-corrupt",
     [(3917399917481070069, "r1/0 r2/1 e1/0")]),
]

# Tenant i's pick seed is seed ^ (0xA11CE + 131 * i).
CLUSTER_2_2_T8 = [
    (0, 2, "5:shard-kill", [
        (659916, "d2/2 e3/2 d4/3 r1/2"),
        (660051, "d4/1 d3/3 e3/3 d3/1 r1/3"),
        (660182, "d2/2 d3/2 e1/3 e4/3 d4/3 r3/0"),
        (660309, "d1/3 d4/0 d1/1 d1/2 e3/1 r1/1"),
        (660440, "d2/1 r2/0 d4/0"),
        (660575, "d2/1 e2/0 r4/0 e1/2 d2/0"),
        (660706, "e3/3 e2/2 r3/1 e3/1 d4/0"),
        (660833, "e3/2 e1/0 e3/1 d4/3"),
    ]),
    (1, 2, "0:shard-kill 1:shard-hang", [
        (659916, "e1/3 d4/0 r2/2 d4/1"),
        (660051, "e3/3 r2/0 r3/1 d2/3"),
        (660182, "e1/2 r1/0 e2/0 r1/2 e1/3 d4/3"),
        (660309, "d3/0 e2/3 e3/3"),
        (660440, "d3/2 r4/0 e2/0 e3/0 d2/3 r1/3"),
        (660575, "e1/3 r2/1 r3/1 d3/0 r3/0 d4/2"),
        (660706, "d3/3 d1/1 d4/1"),
        (660833, "r4/1 e2/0 r3/1 r1/0"),
    ]),
]

CLUSTER_1_7_T4 = [
    (0, 7, "4:shard-kill", [
        (659913, "d2/1 e3/2 r1/3 d1/1"),
        (660054, "d2/3 d3/3 r3/1"),
        (660179, "r2/1 e4/0 d1/1 d2/3"),
        (660304, "r1/0 e1/1 r1/1 d4/1 e3/0"),
    ]),
]

# Per schedule of the CI service sweep: (injected, replies, shed,
# breaker rejections, worker restarts, degradations, quarantined,
# unfired worker faults).
SWEEP_5_1 = [
    ({"cache-corrupt": 1, "deadline-expire": 1, "dispatcher-restart": 1},
     4, 1, 0, 0, 0, 1, 0),
    ({"dispatcher-restart": 1, "worker-crash": 1, "worker-hang": 1},
     4, 0, 0, 1, 0, 0, 1),
    ({"worker-hang": 1},
     4, 0, 0, 1, 0, 0, 0),
    ({"cache-corrupt": 1, "worker-crash": 1},
     2, 0, 0, 1, 0, 1, 0),
    ({"worker-crash": 1, "worker-hang": 2},
     4, 0, 0, 1, 0, 0, 2),
]


def _rows(schedules):
    return [
        (
            s.schedule_id,
            s.seed,
            " ".join(f"{f.step}:{f.kind}" for f in s.faults),
            [
                (c.seed, " ".join(
                    f"{step.kind[0]}{step.count}/{step.inputs}"
                    for step in c.steps
                ))
                for c in s.campaigns
            ],
        )
        for s in schedules
    ]


@pytest.mark.parametrize("schedules, expected", [
    (lambda: generate_chaos_schedules(5, 1), SERVICE_5_1),
    (lambda: generate_chaos_schedules(4, 9), SERVICE_4_9),
    (lambda: generate_cluster_chaos_schedules(2, 2, tenants=8), CLUSTER_2_2_T8),
    (lambda: generate_cluster_chaos_schedules(1, 7, tenants=4), CLUSTER_1_7_T4),
], ids=["service-5-1", "service-4-9", "cluster-2-2-t8", "cluster-1-7-t4"])
def test_generated_schedules_replay_identically(schedules, expected):
    assert _rows(schedules()) == expected


def test_service_ci_sweep_counts():
    schedules = generate_chaos_schedules(
        5, 1, min_faults=1, max_faults=3, max_steps=5
    )
    runner = ChaosRunner(
        ServiceChaos, [get_program("lcms")], 4, workers=2, worker_mode="process"
    )
    report = runner.run(schedules, 1)
    assert report.ok, report.failures
    got = []
    for outcome in report.outcomes:
        (campaign,) = outcome.campaigns
        counters = outcome.counters
        got.append((
            outcome.injected,
            campaign.replies,
            sum(campaign.shed.values()),
            campaign.breaker_rejections,
            counters["worker_restarts"],
            counters["degradations"],
            counters["quarantined"],
            counters["unfired_worker_faults"],
        ))
    assert got == SWEEP_5_1
