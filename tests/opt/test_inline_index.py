"""The inliner's call-site index against the scan it replaced.

``FunctionInlining`` asks whether an internal callee has exactly one
direct call site, no address-taken reference and no alias.  A
``CallSiteIndex`` answers from counts taken once per run and recounted
for the caller after each inline.  The reference below is the scan the
pass used to make for every such question: every instruction of the
module, then every alias.  Through ``trial_optimize``, through
``optimize(level=2)`` and through the -O2 compile of every fragment of a
cold ``OdinCov`` build of each registry program, every answer the pass
gets, and after every inline the answer for every internal function,
must equal the scan's.

CI also runs this file under two fixed ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

from typing import Callable, Dict

import pytest

import repro.opt.inline as inline
from repro.core.engine import Odin
from repro.fuzz.executor import PRESERVED
from repro.instrument.coverage import OdinCov
from repro.ir.clone import clone_module
from repro.ir.instructions import CallInst, PhiInst
from repro.ir.module import Function, Module
from repro.opt.pipeline import optimize, trial_optimize
from repro.programs.registry import get_program, program_names


def scan_single_call_site(callee: Function, module: Module) -> bool:
    """The reference: one whole-module scan per question."""
    sites = 0
    for fn in module.defined_functions():
        for inst in fn.instructions():
            if isinstance(inst, CallInst) and inst.callee is callee:
                sites += 1
                if sites > 1:
                    return False
            ops = list(inst.operands)
            if isinstance(inst, PhiInst):
                ops.extend(inst.used_values())
            for i, op in enumerate(ops):
                if op is callee and not (isinstance(inst, CallInst) and i == 0):
                    return False  # address taken
    for alias in module.aliases():
        if alias.aliasee is callee:
            return False
    return sites == 1


@pytest.fixture
def checks(monkeypatch) -> Dict[str, int]:
    """Check the index against the scan on every question and after
    every inline; returns how many inlines were checked."""
    counts = {"inlines": 0}
    single_call_site = inline.CallSiteIndex.single_call_site
    recount = inline.CallSiteIndex.recount

    def checked_query(index, fn):
        answer = single_call_site(index, fn)
        assert answer == scan_single_call_site(fn, index.module), (
            f"@{fn.name} in {index.module.name}"
        )
        return answer

    def checked_recount(index, caller):
        recount(index, caller)
        module = index.module
        for fn in module.defined_functions():
            if fn.is_internal:
                assert single_call_site(index, fn) == scan_single_call_site(fn, module), (
                    f"@{fn.name} in {module.name} after inlining into @{caller.name}"
                )
        counts["inlines"] += 1

    monkeypatch.setattr(inline.CallSiteIndex, "single_call_site", checked_query)
    monkeypatch.setattr(inline.CallSiteIndex, "recount", checked_recount)
    return counts


def run_trial(program: str) -> None:
    trial_optimize(get_program(program).compile())


def run_o2(program: str) -> None:
    module = get_program(program).compile()
    optimize(clone_module(module, f"{module.name}.o2").module, 2)


def run_fragments(program: str) -> None:
    engine = Odin(get_program(program).compile(), preserve=PRESERVED)
    OdinCov(engine).add_all_block_probes()
    engine.initial_build()
    assert engine.executable is not None


RUNS: Dict[str, Callable[[str], None]] = {
    "trial": run_trial,
    "o2": run_o2,
    "fragments": run_fragments,
}


@pytest.mark.parametrize("run", sorted(RUNS))
@pytest.mark.parametrize("program", program_names())
def test_index_agrees_with_the_scan(program, run, checks):
    RUNS[run](program)
    assert checks["inlines"] > 0
