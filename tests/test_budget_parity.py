"""Pinned decisions of both budget loops (PartiSan mix and profiling).

Each run goes through a public entry point (``run_partisan`` /
``run_profile``) and pins what the loop decided: the exact overhead of
every window (``repr`` of the float, so one ULP of drift fails), the
symbols de-instrumented and re-instrumented at each window close, the
final dispatch mix, and a digest of the whole JSON report.  The values
are recorded from the two loops as they stood before they were merged
into :mod:`repro.budget`; a refactor of the loop must reproduce them
bit for bit.

The ``partisan-lcms`` pins were re-recorded when de-instrumentation
began unregistering a hot function's probes instead of disabling them:
``curve_lookup``'s coverage-family code no longer keeps its disabled
probe sites, so the windows after the first cost differently and the
last three converge.  json per-execution exercises per-family cost
attribution.
"""

import hashlib
import json

import pytest

from repro.profile import run_profile
from repro.programs.registry import get_program
from repro.variants import run_partisan

PARTISAN = dict(seed=5, executions=720, window=60, mode="per-call")
PROFILE = dict(seed=5, executions=300, window=20)

PINS = {
    "partisan-json": dict(
        run=(run_partisan, "json", PARTISAN),
        overheads=[
            "0.675137750946289", "0.28989506971395707",
            "0.27955536390206515", "0.31486751952469927",
            "0.2510564898663217", "0.2114896267548272",
            "0.31416798428441384", "0.21405778352738247",
            "0.2087106511427339", "0.3399262134061616",
            "0.22709980355517234", "0.25075942695606335",
        ],
        actions=[(0, ["skip_ws"], [])],
        mix={
            "coverage": 0.09794385772484777,
            "sanitized": 0.14691578658727167,
            "clean": 0.7551403556878806,
        },
        digest="06b322b86cc06c18af9325e4f3481f14c8f0d24485129043250a76cdd658dde5",
    ),
    "partisan-lcms": dict(
        run=(run_partisan, "lcms", PARTISAN),
        overheads=[
            "1.4509898828422774", "0.3918959124314483",
            "0.5776031143379441", "0.23581636655639193",
            "0.5710221511726874", "0.21364595128666264",
            "0.2379567337936752", "0.230351473167699",
            "0.27615029937017543", "0.2704959405552225",
            "0.10434068251959405", "0.25302663617457455",
        ],
        actions=[(0, ["curve_lookup"], [])],
        mix={
            "coverage": 0.05819712697249658,
            "sanitized": 0.08729569045874482,
            "clean": 0.8545071825687586,
        },
        digest="84a0f046601fc6ff21639bd6aed6206bf21f38471009db0ed516c447b6656e66",
    ),
    "partisan-json-per-execution": dict(
        run=(
            run_partisan,
            "json",
            dict(seed=3, executions=120, window=20, mode="per-execution"),
        ),
        overheads=[
            "0.7657323559005318", "0.24237458674716117",
            "0.14224522064108092", "0.328388673278712",
            "0.34382636193761673", "0.07655598677590914",
        ],
        actions=[(0, ["skip_ws"], [])],
        mix={
            "coverage": 0.2068692262554326,
            "sanitized": 0.3103038393831489,
            "clean": 0.48282693436141844,
        },
        digest="816372487326529892c43e2c6b85eef7b764097f56aec18b458321408b3d2c9a",
    ),
    "profile-json": dict(
        run=(run_profile, "json", PROFILE),
        overheads=["1.123472761247664"] + ["0.2541325283886733"] * 14,
        actions=[(0, ["at_end", "peek", "advance", "is_ws"], [])],
        mix=None,
        digest="f77c65818ee78b4b253c1cf3658e2cdb446a8a0810799efe4f80a03e6eb0f1a2",
    ),
    "profile-lcms": dict(
        run=(run_profile, "lcms", PROFILE),
        overheads=["0.3564244321587957"] + ["0.25944181709185377"] * 14,
        actions=[(0, ["dot_row"], [])],
        mix=None,
        digest="07b9e617706db257a8015bbc2e0c22589a39913a7e1c7acee670d14e9d53cb53",
    ),
}


def _names(window, attr):
    """The symbols a window record lists under *attr*, as a list.

    Accepts a single name, a list, ``None`` or a missing attribute, so
    the pins hold whatever shape the window record takes.
    """
    value = getattr(window, attr, None)
    if value is None:
        return []
    if isinstance(value, str):
        return [value]
    return list(value)


@pytest.fixture(scope="module", params=sorted(PINS))
def pinned(request):
    pins = PINS[request.param]
    run_fn, program, kwargs = pins["run"]
    return pins, run_fn(get_program(program), **kwargs)


def test_window_overheads(pinned):
    pins, run = pinned
    got = [repr(w.achieved_overhead) for w in run.controller.windows]
    assert got == pins["overheads"]


def test_deinstrumentation_decisions(pinned):
    pins, run = pinned
    got = [
        (w.index, _names(w, "deinstrumented"), _names(w, "reinstrumented"))
        for w in run.controller.windows
        if _names(w, "deinstrumented") or _names(w, "reinstrumented")
    ]
    assert got == pins["actions"]


def test_final_mix(pinned):
    pins, run = pinned
    # Profiling has no dispatch mix: its pin is None.
    assert getattr(run.report, "mix_final", None) == pins["mix"]


def test_report_digest(pinned):
    pins, run = pinned
    payload = json.dumps(run.report.to_dict(), sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == pins["digest"]
