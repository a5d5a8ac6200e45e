"""Deep CFGs: the block walks use explicit stacks, not recursion, and
simplifycfg's sweeps stay linear.

A function of N sequential ``if`` statements has a chain of about 2N
blocks, each dominating the next.  Walking it recursively needs a frame
per block: 600 ``if``s used to overflow the interpreter's recursion
limit in ``reachable_blocks`` (reached from ``verify_module``), and 1,000
in mem2reg's renaming walk.  Rebuilding the predecessor map after each
speculation, and scanning every terminator for each forwarding block,
made simplifycfg quadratic in N, and it walks the CFG for unreachable
blocks only after a round that folded a branch.

The same counting style pins two per-run scans: mem2reg finds every
alloca's stores in one pass over its function, and the inliner answers
every single-call-site question from counts taken in one pass over the
module (it used to rescan the function per alloca, and the module per
question).  It also pins the dominator tree as the one source of
dominance facts: mem2reg and ``find_loops`` each walk the CFG and build
a predecessor map once, inside their tree, and the pre/post numbering
is built only for a pass that asks a dominance query.
"""

import sys

import pytest

import repro.ir.analysis as analysis
import repro.opt.mem2reg as mem2reg
import repro.opt.simplifycfg as simplifycfg
from repro.core.engine import Odin
from repro.frontend.codegen import compile_source
from repro.ir.analysis import executable_blocks, reachable_blocks
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.parser import parse_module
from repro.ir.verifier import verify_module
from repro.opt.cse import EarlyCSE
from repro.opt.inline import FunctionInlining
from repro.opt.mem2reg import PromoteMem2Reg
from repro.opt.pass_manager import OptContext
from repro.toolchain import build
from repro.vm.interpreter import VM


def if_chain(n: int) -> str:
    """``main`` with *n* sequential ``if``s, each followed by a
    recomputation of ``a * 3`` that the previous one dominates."""
    body = "\n".join(
        f"    if (x > {i % 7}) x = x - {i % 5};\n    x = x + a * 3;"
        for i in range(n)
    )
    return (
        "int main(void) {\n    int a;\n    int x;\n    a = 2;\n    x = 3;\n"
        f"{body}\n    return x & 127;\n}}\n"
    )


def empty_if_chain(n: int) -> str:
    """``main`` with *n* sequential ``if``s with empty bodies: each leaves
    a block that only branches on to its join."""
    body = "\n".join(
        f"    if (x > {i % 7}) {{ }}\n    x = x + {i % 5};" for i in range(n)
    )
    return (
        "int main(void) {\n    int x;\n    x = 3;\n"
        f"{body}\n    return x & 127;\n}}\n"
    )


def stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_600_if_function_builds_and_matches_o0():
    source = if_chain(600)
    module = compile_source(source, "deep")
    assert len(module.get("main").blocks) > 1200
    engine = Odin(module, preserve=("main",))
    engine.initial_build()
    got = VM(engine.executable).run("main")
    want = VM(build(source, "deep", opt_level=0).executable).run("main")
    assert got.trap is None and want.trap is None
    assert got.exit_code == want.exit_code


def test_walks_fit_a_recursion_limit_below_the_chain_length():
    module = compile_source(if_chain(200), "chain")
    fn = module.get("main")
    blocks = len(fn.blocks)
    assert blocks > 400
    ctx = OptContext()
    limit = sys.getrecursionlimit()
    # Room for the walks' own frames, far fewer than one per block.
    sys.setrecursionlimit(stack_depth() + 100)
    try:
        assert len(reachable_blocks(fn)) == blocks
        assert len(executable_blocks(fn)) == blocks
        assert PromoteMem2Reg().run_on_function(fn, module, ctx)
        assert EarlyCSE().run_on_function(fn, module, ctx)
    finally:
        sys.setrecursionlimit(limit)
    verify_module(module)
    assert ctx.stats["cse.eliminated"] >= 199


@pytest.mark.parametrize("source, rewrite", [
    (if_chain(200), "simplifycfg.speculated_triangle"),
    (empty_if_chain(200), "simplifycfg.forwarded"),
], ids=["speculate", "forward"])
def test_simplifycfg_builds_at_most_one_predecessor_map_per_sweep(
    monkeypatch, source, rewrite
):
    module = compile_source(source, "chain")
    fn = module.get("main")
    assert PromoteMem2Reg().run_on_function(fn, module, OptContext())

    # One [sweep, maps built] row per sweep that runs.
    sweeps = []
    build_map = simplifycfg.predecessor_map

    def counted_map(f):
        sweeps[-1][1] += 1
        return build_map(f)

    predecessors_calls = []
    block_predecessors = BasicBlock.predecessors

    def counted_predecessors(block):
        predecessors_calls.append(block)
        return block_predecessors(block)

    monkeypatch.setattr(simplifycfg, "predecessor_map", counted_map)
    monkeypatch.setattr(BasicBlock, "predecessors", counted_predecessors)
    pass_ = simplifycfg.SimplifyCFG()
    for name in ("_merge_into_predecessor", "_skip_forwarding_blocks",
                 "_speculate"):
        sweep = getattr(pass_, name)

        def counted_sweep(f, ctx, sweep=sweep, name=name):
            sweeps.append([name, 0])
            return sweep(f, ctx)

        setattr(pass_, name, counted_sweep)

    ctx = OptContext()
    assert pass_.run_on_function(fn, module, ctx)
    verify_module(module)
    assert ctx.stats[rewrite] == 200
    assert [row for row in sweeps if row[1] > 1] == []
    assert predecessors_calls == []


def test_simplifycfg_walks_for_unreachable_blocks_once_without_a_fold(monkeypatch):
    """Only a folded branch disconnects blocks, so a run that folds none
    walks the CFG once, in its first round, however many rounds its
    other rewrites take."""
    module = compile_source(if_chain(200), "chain")
    fn = module.get("main")
    assert PromoteMem2Reg().run_on_function(fn, module, OptContext())
    counts = {"walks": 0, "maps": 0}
    _count_cfg_walks(monkeypatch, counts, simplifycfg)
    ctx = OptContext()
    assert simplifycfg.SimplifyCFG().run_on_function(fn, module, ctx)
    monkeypatch.undo()
    verify_module(module)
    assert ctx.stats["simplifycfg.speculated_triangle"] == 200
    assert "simplifycfg.constant_branch" not in ctx.stats
    assert counts["walks"] == 1


class _CountingIdom(dict):
    """An idom map that counts the lookups an idom-chain walk makes."""

    lookups = 0

    def get(self, *args):
        _CountingIdom.lookups += 1
        return super().get(*args)

    def __getitem__(self, key):
        _CountingIdom.lookups += 1
        return super().__getitem__(key)


def test_verifying_a_deep_chain_walks_no_idom_chain(monkeypatch):
    """Every block of ``if_chain(1000)`` uses the entry's allocas, so a
    verifier that walked the idom chain per use was quadratic; the
    dominator tree's numbering answers each use without a walk."""
    module = compile_source(if_chain(1000), "deep")
    trees = []
    build_tree = analysis.DominatorTree.__init__

    def counting_tree(tree, fn):
        build_tree(tree, fn)
        tree.idom = _CountingIdom(tree.idom)
        trees.append(fn)

    monkeypatch.setattr(analysis.DominatorTree, "__init__", counting_tree)
    monkeypatch.setattr(_CountingIdom, "lookups", 0)
    verify_module(module)
    assert len(module.get("main").blocks) > 2000
    # The verifier's own tree carried the counting map.
    assert trees == list(module.defined_functions())
    assert _CountingIdom.lookups == 0


def _counted(counts, key, real):
    def counted(*args):
        counts[key] += 1
        return real(*args)

    return counted


def _count_cfg_walks(monkeypatch, counts, *modules):
    """Count ``reachable_blocks`` and ``predecessor_map`` calls as
    "walks" and "maps", also through a module that imported them."""
    walk, build_map = analysis.reachable_blocks, analysis.predecessor_map
    for module in (analysis, *modules):
        monkeypatch.setattr(module, "reachable_blocks",
                            _counted(counts, "walks", walk), raising=False)
        monkeypatch.setattr(module, "predecessor_map",
                            _counted(counts, "maps", build_map), raising=False)


def loop_nest(n: int) -> str:
    """``main`` with *n* sequential two-deep loop nests."""
    body = "\n".join(
        f"    for (i = 0; i < {i + 2}; i = i + 1)\n"
        f"        for (j = 0; j < 3; j = j + 1) x = x + i * j;"
        for i in range(n)
    )
    return (
        "int main(void) {\n    int i;\n    int j;\n    int x;\n    x = 1;\n"
        f"{body}\n    return x & 127;\n}}\n"
    )


def test_find_loops_walks_the_cfg_once_per_call(monkeypatch):
    """Its dominator tree's walk and map also give the blocks to scan
    and the loop bodies' predecessors."""
    module = compile_source(loop_nest(5), "loops")
    fn = module.get("main")
    PromoteMem2Reg().run_on_function(fn, module, OptContext())
    counts = {"walks": 0, "maps": 0}
    _count_cfg_walks(monkeypatch, counts)
    loops = analysis.find_loops(fn)
    monkeypatch.undo()
    assert len(loops) == 10
    assert counts == {"walks": 1, "maps": 1}


def many_locals(n: int) -> str:
    """``main`` with *n* locals, each stored on both arms of an ``if``,
    so each one needs a phi."""
    decls = "\n".join(f"    int v{i};" for i in range(n))
    stores = "\n".join(
        f"    v{i} = {i};\n    if (v{i} > {i % 7}) v{i} = v{i} - 1;" for i in range(n)
    )
    total = " + ".join(f"v{i}" for i in range(n))
    return (
        f"int main(void) {{\n{decls}\n{stores}\n"
        f"    return ({total}) & 127;\n}}\n"
    )


@pytest.mark.parametrize("n", [20, 200])
def test_mem2reg_scans_the_function_a_fixed_number_of_times(monkeypatch, n):
    """The def blocks of every alloca come from one scan, and one
    dominator tree, with one CFG walk and one predecessor map, gives the
    frontiers, the renaming walk and the blocks to delete."""
    module = compile_source(many_locals(n), "locals")
    fn = module.get("main")
    counts = {"scans": 0, "trees": 0, "walks": 0, "maps": 0}
    monkeypatch.setattr(Function, "instructions",
                        _counted(counts, "scans", Function.instructions))
    monkeypatch.setattr(analysis.DominatorTree, "__init__",
                        _counted(counts, "trees", analysis.DominatorTree.__init__))
    _count_cfg_walks(monkeypatch, counts, mem2reg)
    ctx = OptContext()
    assert mem2reg.PromoteMem2Reg().run_on_function(fn, module, ctx)
    monkeypatch.undo()
    verify_module(module)
    assert ctx.stats["mem2reg.promoted"] == n
    assert counts == {"scans": 2, "trees": 1, "walks": 1, "maps": 1}


def test_cse_and_mem2reg_never_number_the_tree(monkeypatch):
    """Neither pass asks a dominance query, so neither pays for the
    numbering behind one; the verifier does ask."""
    module = compile_source(if_chain(50), "chain")
    fn = module.get("main")
    counts = {"numberings": 0}
    monkeypatch.setattr(analysis.DominatorTree, "_numbering", _counted(
        counts, "numberings", analysis.DominatorTree._numbering))
    ctx = OptContext()
    assert PromoteMem2Reg().run_on_function(fn, module, ctx)
    assert EarlyCSE().run_on_function(fn, module, ctx)
    assert counts == {"numberings": 0}
    verify_module(module)
    assert counts == {"numberings": 1}


def single_call_site_callees(n: int) -> str:
    """*n* internal callees of 41 instructions, each called once, from
    its own caller."""
    adds = "\n".join(f"  %x{i} = add i32 %x, {i}" for i in range(40))
    return "\n".join(
        f"""
define internal i32 @f{k}(i32 %x) {{
entry:
{adds}
  ret i32 %x39
}}

define i32 @c{k}(i32 %x) {{
entry:
  %r = call i32 @f{k}(i32 %x)
  ret i32 %r
}}
"""
        for k in range(n)
    )


@pytest.mark.parametrize("n", [20, 200])
def test_inliner_scans_the_module_a_fixed_number_of_times(monkeypatch, n):
    """Each callee's single-call-site question is answered from counts
    taken once per run (the call graph takes the other module scan)."""
    module = parse_module(single_call_site_callees(n))
    counts = {"scans": 0}
    defined_functions = Module.defined_functions

    def counted_defined_functions(m):
        counts["scans"] += 1
        return defined_functions(m)

    monkeypatch.setattr(Module, "defined_functions", counted_defined_functions)
    ctx = OptContext()
    assert FunctionInlining().run(module, ctx)
    monkeypatch.undo()
    verify_module(module)
    assert ctx.stats["inline.sites"] == n
    assert counts == {"scans": 2}
