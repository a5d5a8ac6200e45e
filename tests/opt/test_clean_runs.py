"""Clean runs: a fixpoint run skips a function pass on a function that
the last run of a pass of that name left unchanged (DESIGN §5.12).

The skip is sound only if a function pass reads nothing but its own
function and the module's immutable facts, and reports every change it
makes.  The sweep below checks what a run can show of that over the
trial and -O2 runs of every registry program and corpus reproducer: a
run that reports no change leaves its function's text as it was, no run
changes another function's text, and a module pass that reports no
change leaves the module's text as it was.  The pass pins
(``test_pass_pins.py``) check the rest: the IR after every invocation is
what it was when every pass ran on every function.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Tuple

import pytest

from repro.core.engine import Odin
from repro.instrument import OdinCov
from repro.ir.clone import clone_module
from repro.ir.module import Module
from repro.ir.parser import parse_module
from repro.ir.printer import print_function, print_module
from repro.opt.cse import EarlyCSE
from repro.opt.dae import DeadArgumentElimination
from repro.opt.inline import FunctionInlining
from repro.opt.instcombine import InstCombine
from repro.opt.pass_manager import FunctionPass, PassManager
from repro.opt.pipeline import optimize, trial_optimize
from repro.programs.registry import get_program
from tests.opt.test_pass_pins import TARGETS, _compile

# One function pass run: (pass name, function name, invocation index).
Run = Tuple[str, str, int]


def _function_passes():
    found, todo = [], [FunctionPass]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            todo.append(sub)
            if "run_on_function" in vars(sub):
                found.append(sub)
    return found


def _watch(monkeypatch, on_run) -> None:
    """Call ``on_run(pass_, fn, module, ctx, run)`` in place of every
    function pass's ``run_on_function``; *run* makes the call."""
    for cls in _function_passes():
        real = vars(cls)["run_on_function"]

        def run_on_function(self, fn, module, ctx, real=real):
            return on_run(self, fn, module, ctx, lambda: real(self, fn, module, ctx))

        monkeypatch.setattr(cls, "run_on_function", run_on_function)


def _count_runs(monkeypatch) -> List[Run]:
    runs: List[Run] = []

    def on_run(pass_, fn, module, ctx, run):
        runs.append((pass_.name, fn.name, len(ctx.pass_timings)))
        return run()

    _watch(monkeypatch, on_run)
    return runs


def _texts(module: Module) -> Dict[str, str]:
    return {fn.name: print_function(fn) for fn in module.defined_functions()}


class _Sweep:
    """Checks every pass run of the optimizer runs it watches."""

    def __init__(self, target: str, monkeypatch):
        self.target = target
        self.texts: Dict[str, str] = {}
        self.failures: List[str] = []
        self.runs = 0
        run_pass = PassManager.run_pass

        def checked_run_pass(manager, p, module, ctx, iteration, record):
            self.texts = _texts(module)
            if isinstance(p, FunctionPass):
                return run_pass(manager, p, module, ctx, iteration, record)
            before = print_module(module)
            changed = run_pass(manager, p, module, ctx, iteration, record)
            if not changed and print_module(module) != before:
                self.failures.append(
                    f"{target}: module pass {p.name} reported no change but changed the module"
                )
            return changed

        monkeypatch.setattr(PassManager, "run_pass", checked_run_pass)
        _watch(monkeypatch, self.on_run)

    def on_run(self, pass_, fn, module, ctx, run):
        before = self.texts
        changed = run()
        self.runs += 1
        after = self.texts = _texts(module)
        where = f"{self.target}: {pass_.name} on @{fn.name}"
        if not changed and after.get(fn.name) != before.get(fn.name):
            self.failures.append(f"{where} reported no change but changed it")
        for name in sorted(set(before) | set(after)):
            if name != fn.name and before.get(name) != after.get(name):
                self.failures.append(f"{where} changed @{name}")
        return changed


@pytest.mark.parametrize("target", TARGETS)
def test_every_run_reports_what_it_changes(monkeypatch, target):
    module = _compile(target)
    sweep = _Sweep(target, monkeypatch)
    trial_optimize(module)
    optimize(clone_module(module, f"{module.name}.o2").module, 2)
    assert sweep.failures == []
    assert sweep.runs > 0


# @main's add has nothing to fold until the inliner puts @seven's
# constant into it.
FOLD_AFTER_INLINE = """
define internal i32 @seven() {
entry:
  ret i32 7
}

define i32 @main() {
entry:
  %a = call i32 @seven()
  %b = add i32 %a, 1
  ret i32 %b
}
"""


def test_a_module_pass_change_reopens_every_function(monkeypatch):
    module = parse_module(FOLD_AFTER_INLINE)
    runs = _count_runs(monkeypatch)
    PassManager([InstCombine(), FunctionInlining(), InstCombine()]).run(module)
    main = module.get("main")
    assert [name for name, fn, _ in runs if fn == "main"] == ["instcombine"] * 2
    assert "add" not in print_function(main)
    assert "ret i32 8" in print_function(main)


# instcombine folds @f's add away, which leaves early-cse two equal
# muls to merge; @g has nothing for either pass.
TWO_FUNCTIONS = """
define i32 @f(i32 %x) {
entry:
  %a = add i32 %x, 0
  %b = mul i32 %a, 3
  %c = mul i32 %x, 3
  %s = add i32 %b, %c
  ret i32 %s
}

define i32 @g(i32 %x) {
entry:
  %a = mul i32 %x, 3
  ret i32 %a
}
"""


def test_a_change_reopens_its_function_alone(monkeypatch):
    module = parse_module(TWO_FUNCTIONS)
    runs = _count_runs(monkeypatch)
    ctx = PassManager([EarlyCSE(), InstCombine(), EarlyCSE(), InstCombine()]).run(module)
    assert [t.changed for t in ctx.pass_timings] == [False, True, True, False]
    assert print_function(module.get("f")).count("mul") == 1
    # Each change to @f sends it back to every pass; @g, left clean by
    # one run of each name, is never run again.
    assert Counter((name, fn) for name, fn, _ in runs) == {
        ("early-cse", "f"): 2, ("instcombine", "f"): 2,
        ("early-cse", "g"): 1, ("instcombine", "g"): 1,
    }


# The inliner puts @seven into @main alone; @other is no caller.
INLINE_INTO_ONE = FOLD_AFTER_INLINE + """
define i32 @other(i32 %x) {
entry:
  %a = mul i32 %x, 3
  ret i32 %a
}
"""


def test_an_inline_reopens_its_caller_alone(monkeypatch):
    module = parse_module(INLINE_INTO_ONE)
    runs = _count_runs(monkeypatch)
    ctx = PassManager([InstCombine(), FunctionInlining(), InstCombine()]).run(module)
    assert [t.changed for t in ctx.pass_timings] == [False, True, True]
    assert "ret i32 8" in print_function(module.get("main"))
    assert Counter((name, fn) for name, fn, _ in runs) == {
        ("instcombine", "seven"): 1, ("instcombine", "main"): 2,
        ("instcombine", "other"): 1,
    }


# dae drops @callee's unused %dead, which rewrites @callee and the calls
# in @main and @second; @bystander calls nothing.
DEAD_ARGUMENT = """
define internal i32 @callee(i32 %used, i32 %dead) {
entry:
  %r = mul i32 %used, 3
  ret i32 %r
}

define i32 @main(i32 %x) {
entry:
  %a = call i32 @callee(i32 %x, i32 5)
  ret i32 %a
}

define i32 @second(i32 %x) {
entry:
  %a = call i32 @callee(i32 %x, i32 6)
  ret i32 %a
}

define i32 @bystander(i32 %x) {
entry:
  %a = mul i32 %x, 3
  ret i32 %a
}
"""


def test_a_dae_rewrite_reopens_the_callee_and_its_callers_alone(monkeypatch):
    module = parse_module(DEAD_ARGUMENT)
    runs = _count_runs(monkeypatch)
    ctx = PassManager(
        [InstCombine(), DeadArgumentElimination(), InstCombine()]
    ).run(module)
    assert [t.changed for t in ctx.pass_timings] == [False, True, False]
    assert "%dead" not in print_module(module)
    assert Counter((name, fn) for name, fn, _ in runs) == {
        ("instcombine", "callee"): 2, ("instcombine", "main"): 2,
        ("instcombine", "second"): 2, ("instcombine", "bystander"): 1,
    }


@pytest.mark.parametrize("program", ["json", "lcms", "harfbuzz"])
def test_no_pair_runs_twice_in_the_last_iteration(monkeypatch, program):
    """The last iteration of a converged run changes nothing, so each
    (pass name, function) pair runs in it at most once."""
    module = get_program(program).compile()
    runs = _count_runs(monkeypatch)
    ctx = optimize(module, 2)
    last = ctx.pass_timings[-1].iteration
    assert last > 0
    assert not any(t.changed for t in ctx.pass_timings if t.iteration == last)
    in_last = Counter(
        (name, fn) for name, fn, index in runs
        if ctx.pass_timings[index].iteration == last
    )
    assert in_last and max(in_last.values()) == 1


def test_a_cold_build_skips_runs(monkeypatch):
    """A cold json build (set-up's trial run and the fragment compiles)
    runs function passes on fewer functions than its invocations
    cover."""
    covered, runs = Counter(), Counter()
    run_in = FunctionPass.run_in

    def counted_run_in(self, module, ctx, record):
        covered[ctx.trial] += len(module.defined_functions())
        return run_in(self, module, ctx, record)

    def on_run(pass_, fn, module, ctx, run):
        runs[ctx.trial] += 1
        return run()

    monkeypatch.setattr(FunctionPass, "run_in", counted_run_in)
    _watch(monkeypatch, on_run)
    tool = OdinCov(Odin(get_program("json").compile(), preserve=("main", "run_input")))
    tool.add_all_block_probes()
    tool.build()
    for trial in (True, False):
        assert 0 < runs[trial] < covered[trial]
