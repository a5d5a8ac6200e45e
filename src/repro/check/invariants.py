"""Engine/scheduler invariants the differential oracle relies on.

Two properties are load-bearing for Algorithm 2's correctness and are
checked here directly, program by program:

* **Stage-3 back propagation** — recompiling a fragment wipes its old
  instrumentation, so the scheduler must re-apply *every* active probe
  targeting the fragment, not only the dirty ones.  A violation would
  silently drop probes from rebuilt fragments (coverage holes the
  fuzzer cannot see).
* **Content-key determinism** — identical content keys must map to
  identical object bytes across engines and runs; otherwise the shared
  content-addressed cache could hand one client code compiled for
  another state.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.engine import Odin, object_fingerprint
from repro.fuzz.executor import PRESERVED
from repro.instrument.coverage import OdinCov
from repro.programs.registry import TargetProgram


class RecordingCache:
    """Mapping-like cache stub: always misses, records key -> fingerprint.

    Forcing misses makes the engine compile every fragment, so every
    occurrence of a content key yields fresh object bytes to compare.
    """

    def __init__(self):
        self.seen: Dict[str, str] = {}
        self.conflicts: List[str] = []

    def get(self, key: str) -> None:
        return None

    def put(self, key: str, obj) -> None:
        fp = object_fingerprint(obj)
        old = self.seen.setdefault(key, fp)
        if old != fp:
            self.conflicts.append(
                f"content key {key[:12]} produced two different objects "
                f"({old[:12]} != {fp[:12]})"
            )


def check_backpropagation(program: TargetProgram) -> List[str]:
    """Dirty one probe; every active probe of the fragment must re-apply."""
    failures: List[str] = []
    engine = Odin(program.compile(), preserve=PRESERVED)
    tool = OdinCov(engine)
    tool.add_all_block_probes()
    tool.build()

    # Pick a fragment carrying at least two probes, disable one of them.
    by_fragment: Dict[int, List] = {}
    owner = engine.fragdef.owner
    for probe in engine.manager:
        fid = owner.get(probe.target_symbol())
        if fid is not None:
            by_fragment.setdefault(fid, []).append(probe)
    fid, probes = max(by_fragment.items(), key=lambda kv: len(kv[1]))
    if len(probes) < 2:
        return [f"{program.name}: no fragment carries two probes to check"]
    probes.sort(key=lambda p: p.id)
    engine.manager.disable(probes[0])

    scheduler = engine.manager.schedule()
    changed_symbols = scheduler.changed_symbols
    expected = {
        p.id
        for p in engine.manager
        if p.enabled and p.target_symbol() in changed_symbols
    }
    actual = {p.id for p in scheduler.active_probes}
    if actual != expected:
        failures.append(
            f"{program.name}: stage-3 back propagation scheduled {sorted(actual)} "
            f"but every active probe in changed fragments is {sorted(expected)}"
        )
    scheduler.apply_probes()
    report = scheduler.rebuild()
    if report.probes_applied != len(expected):
        failures.append(
            f"{program.name}: rebuild applied {report.probes_applied} probes, "
            f"expected {len(expected)}"
        )
    return failures


def check_content_key_determinism(program: TargetProgram) -> List[str]:
    """Same source + same probe ops => same keys => same object bytes."""
    recordings = []
    for _ in range(2):
        cache = RecordingCache()
        engine = Odin(program.compile(), preserve=PRESERVED, object_cache=cache)
        tool = OdinCov(engine)
        tool.add_all_block_probes()
        tool.build()
        # One incremental step too, so rebuild-path keys are covered.
        first = min(tool.probes)
        engine.manager.disable(tool.probes[first])
        engine.rebuild()
        recordings.append(cache)

    failures: List[str] = []
    for cache in recordings:
        failures.extend(f"{program.name}: {c}" for c in cache.conflicts)
    a, b = (r.seen for r in recordings)
    if set(a) != set(b):
        failures.append(
            f"{program.name}: two identical runs produced different "
            f"content-key sets ({len(a)} vs {len(b)} keys)"
        )
    else:
        for key in a:
            if a[key] != b[key]:
                failures.append(
                    f"{program.name}: key {key[:12]} compiled to different "
                    f"bytes across runs"
                )
    return failures


def run_invariant_checks(program: TargetProgram) -> List[str]:
    """All engine/scheduler invariants for one program."""
    failures = []
    failures.extend(check_backpropagation(program))
    failures.extend(check_content_key_determinism(program))
    return failures
