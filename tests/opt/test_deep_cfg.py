"""Deep CFGs: the block walks use explicit stacks, not recursion.

A function of N sequential ``if`` statements has a chain of about 2N
blocks, each dominating the next.  Walking it recursively needs a frame
per block: 600 ``if``s used to overflow the interpreter's recursion
limit in ``reachable_blocks`` (reached from ``verify_module``), and 1,000
in mem2reg's renaming walk.
"""

import sys

from repro.core.engine import Odin
from repro.frontend.codegen import compile_source
from repro.ir.analysis import executable_blocks, reachable_blocks
from repro.ir.verifier import verify_module
from repro.opt.cse import EarlyCSE
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
