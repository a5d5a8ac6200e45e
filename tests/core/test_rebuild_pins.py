"""Every rebuild decision pinned over seeded multi-family probe schedules.

Each case builds one registry program with coverage probes plus one
more family (ASan, UBSan, CmpLog or profiling), then replays a seeded
sequence of probe-state ops: enable, disable, toggle round trips,
removes (of disabled probes too), new ``CovProbe``s, add-then-remove, ``mark_changed`` and
``mark_symbols_dirty``, a few of them before the initial build.  After
each step it calls ``rebuild_if_needed`` and records what the engine
decided: ``has_pending_changes``, whether ``classify`` patches or
recompiles any dirty fragment (``effective``), the report's tier and
per-fragment tiers, each fragment span's ``sites_touched``,
``fragment_families``, ``probes_applied``, ``cache_hits``,
``cache_reused``, ``repr(compile_wall_ms)`` and the executable
fingerprint.

The cases cover an engine with ``enable_patching=False``, one with an
``InMemoryCodeCache``, and one whose compiler raises on a batch that
follows a patch in the same rebuild, which is then retried.

``rebuild_pins.json`` stores one digest per rebuild plus the tier list,
so a failure names the first rebuild that moved.  A change to how
rebuilds are decided must leave every pin as it is.  Re-record (only
for an intended behaviour change) with::

    PYTHONPATH=src python -m tests.core.test_rebuild_pins
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from typing import Dict, List, Optional

import pytest

from repro.core.engine import InlineFragmentCompiler, Odin
from repro.core.scheduler import classify
from repro.fuzz.executor import PRESERVED
from repro.instrument.asan import ASanTool
from repro.instrument.cmplog import add_cmp_probes
from repro.instrument.coverage import CovProbe, OdinCov
from repro.instrument.ubsan import UBSanTool
from repro.profile.tool import Profiler
from repro.programs.registry import get_program
from repro.service.cache import InMemoryCodeCache

PINS_PATH = os.path.join(os.path.dirname(__file__), "rebuild_pins.json")

STEPS = 25


@dataclass(frozen=True)
class Case:
    program: str
    family: str
    seed: int
    engine: str = "default"  # "default", "nopatch", "cached" or "flaky"


CASES: Dict[str, Case] = {
    "proj4-asan": Case("proj4", "asan", 1),
    "lcms-cmplog-flaky": Case("lcms", "cmplog", 2, "flaky"),
    "lcms-ubsan": Case("lcms", "ubsan", 3),
    "lcms-prof-cached": Case("lcms", "prof", 4, "cached"),
    "libjpeg-cmplog": Case("libjpeg", "cmplog", 5),
    "libjpeg-asan-nopatch": Case("libjpeg", "asan", 6, "nopatch"),
    "re2-prof": Case("re2", "prof", 7),
    "re2-ubsan-flaky": Case("re2", "ubsan", 8, "flaky"),
    "lcms-asan": Case("lcms", "asan", 9),
    "libxml2-prof-cached": Case("libxml2", "prof", 10, "cached"),
    "x509-ubsan": Case("x509", "ubsan", 11),
    "x509-prof-nopatch": Case("x509", "prof", 12, "nopatch"),
    "libpng-cmplog": Case("libpng", "cmplog", 13),
    "libpng-asan-cached": Case("libpng", "asan", 14, "cached"),
    "harfbuzz-prof": Case("harfbuzz", "prof", 15),
    "harfbuzz-ubsan-flaky": Case("harfbuzz", "ubsan", 16, "flaky"),
    "woff2-asan": Case("woff2", "asan", 17),
    "proj4-cmplog-nopatch": Case("proj4", "cmplog", 18, "nopatch"),
    "vorbis-ubsan": Case("vorbis", "ubsan", 19),
    "freetype2-prof-cached": Case("freetype2", "prof", 20, "cached"),
}


class InjectedFault(RuntimeError):
    pass


class FlakyCompiler(InlineFragmentCompiler):
    """The inline compiler, but its next batch raises while armed."""

    def __init__(self):
        super().__init__()
        self.armed = False

    def compile_batch(self, fragments, opt_level):
        if self.armed:
            self.armed = False
            raise InjectedFault(f"batch of {len(fragments)} fragment(s)")
        return super().compile_batch(fragments, opt_level)


def _engine(case: Case) -> Odin:
    kwargs = {}
    if case.engine == "nopatch":
        kwargs["enable_patching"] = False
    elif case.engine == "cached":
        kwargs["object_cache"] = InMemoryCodeCache()
    elif case.engine == "flaky":
        kwargs["compiler"] = FlakyCompiler()
    engine = Odin(get_program(case.program).compile(), preserve=PRESERVED, **kwargs)
    OdinCov(engine).add_all_block_probes()
    if case.family == "asan":
        ASanTool(engine, trap=False).add_all_access_probes()
    elif case.family == "ubsan":
        UBSanTool(engine, trap=False).add_all_overflow_probes()
    elif case.family == "cmplog":
        add_cmp_probes(engine)
    elif case.family == "prof":
        Profiler(engine).add_all_function_probes()
    return engine


# -- ops ------------------------------------------------------------------------

OPS = (
    ("disable", 4), ("enable", 3), ("roundtrip", 2), ("remove", 1),
    ("remove_disabled", 1), ("add", 1), ("add_remove", 1), ("changed", 1),
    ("external", 1),
)


def _new_cov_probe(rng: random.Random, engine: Odin) -> CovProbe:
    functions = sorted(engine.module.defined_functions(), key=lambda f: f.name)
    fn = rng.choice(functions)
    return engine.manager.add(CovProbe(fn, rng.choice(fn.blocks)))


def _apply_op(rng: random.Random, engine: Odin, op: str) -> str:
    """Apply *op* to a seeded pick; returns a description (or a skip)."""
    manager = engine.manager
    probes = sorted(manager, key=lambda p: p.id)
    if op == "disable":
        pool = [p for p in probes if p.enabled]
    elif op in ("enable", "remove_disabled"):
        # Removing a disabled probe drops a site the current toggle
        # already deletes, or one never compiled in (non-patchable).
        pool = [p for p in probes if not p.enabled]
    else:
        pool = probes
    if op == "add":
        return f"add #{_new_cov_probe(rng, engine).id}"
    if op == "add_remove":
        probe = _new_cov_probe(rng, engine)
        label = f"add_remove #{probe.id}"
        manager.remove(probe)
        return label
    if op == "external":
        symbol = rng.choice(sorted(engine.fragdef.owner))
        manager.mark_symbols_dirty([symbol])
        return f"external @{symbol}"
    if not pool:
        return f"{op} (none)"
    probe = rng.choice(pool)
    label = f"{op} #{probe.id} {probe.family}"
    if op == "disable":
        manager.disable(probe)
    elif op == "enable":
        manager.enable(probe)
    elif op == "roundtrip":
        if probe.enabled:
            manager.disable(probe)
            manager.enable(probe)
        else:
            manager.enable(probe)
            manager.disable(probe)
    elif op in ("remove", "remove_disabled"):
        manager.remove(probe)
    elif op == "changed":
        manager.mark_changed(probe)
    return label


def _random_ops(rng: random.Random, engine: Odin, count: int) -> List[str]:
    names = [name for name, _w in OPS]
    weights = [w for _n, w in OPS]
    return [
        _apply_op(rng, engine, rng.choices(names, weights)[0])
        for _ in range(count)
    ]


def _mixed_ops(rng: random.Random, engine: Odin) -> List[str]:
    """A patchable disable on one fragment and a remove on another, so
    the rebuild patches one fragment and then compiles a batch."""
    owner = engine.fragdef.owner
    probes = sorted(engine.manager, key=lambda p: p.id)
    fragments = {owner[p.target_symbol()] for p in probes}
    flips = [
        p for p in probes
        if p.patchable and p.enabled and fragments - {owner[p.target_symbol()]}
    ]
    if not flips:
        return _random_ops(rng, engine, 2)
    flip = rng.choice(flips)
    frag = owner[flip.target_symbol()]
    victim = rng.choice([p for p in probes if owner[p.target_symbol()] != frag])
    ops = [f"disable #{flip.id} {flip.family}", f"remove #{victim.id} {victim.family}"]
    engine.manager.disable(flip)
    engine.manager.remove(victim)
    return ops


# -- records ----------------------------------------------------------------------


def _report_row(engine: Odin, report) -> Optional[dict]:
    if report is None:
        return None
    touched = []
    for stage in report.trace.children:
        if stage.name == "compile":
            touched = [
                [span.name, span.args["sites_touched"]]
                for span in stage.children
                if "sites_touched" in span.args
            ]
    return {
        "tier": report.tier,
        "fragment_tiers": sorted(report.fragment_tiers.items()),
        "sites_touched": sorted(touched),
        "fragment_families": sorted(
            [fid, list(families)]
            for fid, families in report.fragment_families.items()
        ),
        "probes_applied": report.probes_applied,
        "cache_hits": report.cache_hits,
        "cache_reused": report.cache_reused,
        "compile_wall_ms": repr(report.compile_wall_ms),
        "executable": engine.executable_fingerprint(),
    }


def _rebuild_row(engine: Odin, ops: List[str]) -> dict:
    manager = engine.manager
    row = {
        "ops": ops,
        "pending": manager.has_pending_changes,
        "effective": any(flips != frozenset() for *_, flips in classify(engine)),
    }
    try:
        report = engine.rebuild_if_needed()
    except InjectedFault as exc:
        row["raised"] = str(exc)
        return row
    row["report"] = _report_row(engine, report)
    return row


def _tier(row: dict) -> str:
    if "raised" in row:
        return "raised"
    report = row["report"]
    return "none" if report is None else report["tier"]


def run_case(case: Case) -> List[dict]:
    """Initial build, then one row per rebuild_if_needed call."""
    rng = random.Random(case.seed)
    engine = _engine(case)
    rows = [{"ops": _random_ops(rng, engine, 3)}]
    rows[0]["report"] = _report_row(engine, engine.initial_build())
    compiler = engine.compiler
    for step in range(STEPS):
        if isinstance(compiler, FlakyCompiler) and step % 4 == 1:
            ops = _mixed_ops(rng, engine)
            compiler.armed = True
            rows.append(_rebuild_row(engine, ops))
            compiler.armed = False
            if "raised" in rows[-1]:
                rows.append(_rebuild_row(engine, ["retry"]))
            continue
        ops = _random_ops(rng, engine, rng.choice((0, 1, 1, 2, 3)))
        rows.append(_rebuild_row(engine, ops))
    return rows


def _digest(row: dict) -> str:
    return hashlib.sha256(json.dumps(row, sort_keys=True).encode()).hexdigest()


def pins_of(case: Case) -> dict:
    rows = run_case(case)
    return {"tiers": [_tier(row) for row in rows], "digests": list(map(_digest, rows))}


def _load_pins() -> Dict[str, dict]:
    with open(PINS_PATH) as fp:
        return json.load(fp)


@pytest.mark.parametrize("name", sorted(CASES))
def test_rebuild_decisions_are_pinned(name):
    expected = _load_pins()[name]
    rows = run_case(CASES[name])
    for index, (row, want_tier, want_digest) in enumerate(
        zip(rows, expected["tiers"], expected["digests"])
    ):
        assert (_tier(row), _digest(row)) == (want_tier, want_digest), (
            f"{name} rebuild {index} (pinned tier {want_tier}) moved: {row}"
        )
    assert len(rows) == len(expected["tiers"]), f"{name} rebuild count"


def test_pins_cover_every_case():
    assert sorted(_load_pins()) == sorted(CASES)


def test_pins_exercise_every_decision():
    """The schedules reach every tier, an injected fault and a call with
    nothing pending, so the pins constrain each branch."""
    seen = {tier for pins in _load_pins().values() for tier in pins["tiers"]}
    assert {"full", "patch", "cache", "noop", "none", "raised"} <= seen


def _record() -> None:
    pins = {name: pins_of(case) for name, case in sorted(CASES.items())}
    with open(PINS_PATH, "w") as fp:
        json.dump(pins, fp, indent=1, sort_keys=True)
        fp.write("\n")
    counts: Dict[str, int] = {}
    for entry in pins.values():
        for tier in entry["tiers"]:
            counts[tier] = counts.get(tier, 0) + 1
    print(f"recorded {len(pins)} cases to {PINS_PATH}: {counts}")


if __name__ == "__main__":
    _record()
