"""The IR after every pass invocation, pinned for every registry program.

For each of the 13 registry programs and each reproducer in
``tests/selffuzz/corpus/``, ``pass_pins.json`` holds the requirements
``trial_optimize`` logs and, for every pass invocation of that trial run
and of ``optimize(level=2)`` on a clone, the pass name, fixpoint
iteration, changed flag, cumulative ``ctx.work`` and the sha256 of
``print_module``.  A speed-up of the optimizer must leave every row as
it is; a change that moves the IR moves a row and names the pass.

The pins also hold across processes: CI runs this file under two fixed
``PYTHONHASHSEED`` values as well as tier-1's random one.  Re-record
(only for an intended IR change) with::

    PYTHONPATH=src python -m tests.opt.test_pass_pins
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from typing import Dict, Iterator, List

import pytest

from repro.frontend import compile_source
from repro.ir.clone import clone_module
from repro.ir.module import Module
from repro.ir.printer import print_module
from repro.opt.mem2reg import PromoteMem2Reg
from repro.opt.pass_manager import OptContext, PassManager
from repro.opt.pipeline import optimize, trial_optimize
from repro.programs.registry import all_programs, get_program

PINS_PATH = os.path.join(os.path.dirname(__file__), "pass_pins.json")
CORPUS_DIR = os.path.join(os.path.dirname(__file__), "..", "selffuzz", "corpus")


def _corpus_files() -> List[str]:
    return sorted(f for f in os.listdir(CORPUS_DIR) if f.endswith(".c"))


def _compile(target: str) -> Module:
    if target.startswith("corpus/"):
        filename = target[len("corpus/"):]
        with open(os.path.join(CORPUS_DIR, filename)) as fp:
            return compile_source(fp.read(), filename)
    return get_program(target).compile()


TARGETS = [p.name for p in all_programs()] + [f"corpus/{f}" for f in _corpus_files()]


@contextlib.contextmanager
def _recording_passes(rows: List[list]) -> Iterator[None]:
    """Append one row per pass invocation of any PassManager to *rows*."""
    original = PassManager._after_pass

    def after_pass(self, module, p, ctx, sanitizer):
        timing = ctx.pass_timings[-1]
        digest = hashlib.sha256(print_module(module).encode()).hexdigest()
        rows.append([timing.pass_name, timing.iteration, timing.changed, ctx.work, digest])
        original(self, module, p, ctx, sanitizer)

    PassManager._after_pass = after_pass
    try:
        yield
    finally:
        PassManager._after_pass = original


def pins_of(target: str) -> Dict[str, list]:
    module = _compile(target)
    trial: List[list] = []
    with _recording_passes(trial):
        requirements = trial_optimize(module)
    o2: List[list] = []
    with _recording_passes(o2):
        optimize(clone_module(module, f"{module.name}.o2").module, 2)
    return {
        "requirements": [[r.kind, r.subject, r.peer, r.pass_name] for r in requirements],
        "trial": trial,
        "o2": o2,
    }


def _load_pins() -> Dict[str, Dict[str, list]]:
    with open(PINS_PATH) as fp:
        return json.load(fp)


@pytest.mark.parametrize("target", TARGETS)
def test_ir_after_every_pass_is_pinned(target):
    expected = _load_pins()[target]
    got = pins_of(target)
    assert got["requirements"] == expected["requirements"]
    for run in ("trial", "o2"):
        for index, (row, want) in enumerate(zip(got[run], expected[run])):
            assert row == want, (
                f"{target} {run} invocation {index} ({want[0]}, iteration "
                f"{want[1]}) moved: {row} != {want}"
            )
        assert len(got[run]) == len(expected[run]), f"{target} {run} invocation count"


def test_pins_cover_every_target():
    assert sorted(_load_pins()) == sorted(TARGETS)


def _post_mem2reg_text(target: str) -> str:
    module = _compile(target)
    PassManager([PromoteMem2Reg()]).run(module, OptContext())
    return print_module(module)


def test_mem2reg_text_does_not_depend_on_heap_history():
    """mem2reg names its phis as it places them, so the placement order
    must not follow memory addresses: compiling other programs first
    used to rename phis in most programs."""
    names = [p.name for p in all_programs()]
    before = {name: _post_mem2reg_text(name) for name in names}
    for name in ("sqlite", "json", "lcms"):
        optimize(get_program(name).compile(), 2)
    moved = [name for name in names if _post_mem2reg_text(name) != before[name]]
    assert moved == []


def record() -> None:
    pins = {target: pins_of(target) for target in TARGETS}
    with open(PINS_PATH, "w") as fp:
        fp.write("{\n")
        for i, (target, entry) in enumerate(pins.items()):
            fp.write(f"  {json.dumps(target)}: {{\n")
            for j, key in enumerate(("requirements", "trial", "o2")):
                rows = ",\n".join(f"      {json.dumps(row)}" for row in entry[key])
                body = f"[\n{rows}\n    ]" if rows else "[]"
                fp.write(f"    {json.dumps(key)}: {body}{',' if j < 2 else ''}\n")
            fp.write(f"  }}{',' if i < len(pins) - 1 else ''}\n")
        fp.write("}\n")


if __name__ == "__main__":
    record()
