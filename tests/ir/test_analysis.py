"""Tests for CFG analyses: RPO, dominators, loops, call graph, SCCs."""

import pytest

from repro.ir.analysis import (
    DominatorTree,
    bottom_up_sccs,
    call_graph,
    dominates,
    executable_blocks,
    feasible_successors,
    find_loops,
    predecessor_map,
    reachable_blocks,
)
from repro.ir.parser import parse_module
from repro.opt.pipeline import optimize
from repro.programs.registry import get_program, program_names

DIAMOND = """
define i32 @f(i1 %c) {
entry:
  br i1 %c, label %left, label %right
left:
  br label %join
right:
  br label %join
join:
  %r = phi i32 [ 1, %left ], [ 2, %right ]
  ret i32 %r
}
"""

LOOP = """
define i32 @f(i32 %n) {
entry:
  br label %header
header:
  %i = phi i32 [ 0, %entry ], [ %next, %latch ]
  %c = icmp slt i32 %i, %n
  br i1 %c, label %latch, label %exit
latch:
  %next = add i32 %i, 1
  br label %header
exit:
  ret i32 %i
}
"""


class TestReachability:
    def test_rpo_starts_at_entry(self):
        fn = parse_module(DIAMOND).get("f")
        order = reachable_blocks(fn)
        assert order[0].name == "entry"
        assert {b.name for b in order} == {"entry", "left", "right", "join"}

    def test_rpo_dominators_precede(self):
        fn = parse_module(LOOP).get("f")
        order = [b.name for b in reachable_blocks(fn)]
        assert order.index("entry") < order.index("header")
        assert order.index("header") < order.index("latch")

    def test_unreachable_excluded(self):
        fn = parse_module(
            "define void @f() {\nentry:\n  ret void\ndead:\n  ret void\n}"
        ).get("f")
        assert [b.name for b in reachable_blocks(fn)] == ["entry"]


class TestDominators:
    def test_diamond_idoms(self):
        fn = parse_module(DIAMOND).get("f")
        idom = DominatorTree(fn).idom
        by_name = {b.name: b for b in fn.blocks}
        assert idom[by_name["entry"]] is None
        assert idom[by_name["left"]].name == "entry"
        assert idom[by_name["right"]].name == "entry"
        assert idom[by_name["join"]].name == "entry"

    def test_dominates_reflexive_and_transitive(self):
        fn = parse_module(LOOP).get("f")
        idom = DominatorTree(fn).idom
        by_name = {b.name: b for b in fn.blocks}
        assert dominates(idom, by_name["entry"], by_name["exit"])
        assert dominates(idom, by_name["header"], by_name["latch"])
        assert dominates(idom, by_name["header"], by_name["header"])
        assert not dominates(idom, by_name["latch"], by_name["header"])


class TestDominatorTree:
    def test_numbering_answers_like_the_idom_walk(self):
        fn = parse_module(LOOP).get("f")
        tree = DominatorTree(fn)
        for a in fn.blocks:
            for b in fn.blocks:
                assert tree.dominates(a, b) == dominates(tree.idom, a, b)
        by_name = {b.name: b for b in fn.blocks}
        assert tree.dominates(by_name["header"], by_name["latch"])
        assert not tree.dominates(by_name["latch"], by_name["header"])

    def test_unreachable_block_dominates_only_itself(self):
        fn = parse_module(
            "define void @f() {\nentry:\n  ret void\ndead:\n  ret void\n}"
        ).get("f")
        tree = DominatorTree(fn)
        entry, dead = fn.blocks
        assert tree.dominates(dead, dead)
        assert not tree.dominates(entry, dead)
        assert not tree.dominates(dead, entry)

    def test_diamond_frontiers(self):
        fn = parse_module(DIAMOND).get("f")
        frontiers = DominatorTree(fn).frontiers()
        assert {b.name: [f.name for f in frontiers[b]] for b in fn.blocks} == {
            "entry": [], "left": ["join"], "right": ["join"], "join": [],
        }

    def test_loop_frontiers(self):
        fn = parse_module(LOOP).get("f")
        frontiers = DominatorTree(fn).frontiers()
        assert {b.name: [f.name for f in frontiers[b]] for b in fn.blocks} == {
            "entry": [], "header": ["header"], "latch": ["header"], "exit": [],
        }

    def test_frontiers_fill_in_reverse_postorder(self):
        fn = parse_module(IRREDUCIBLE).get("f")
        tree = DominatorTree(fn)
        assert [b.name for b in tree.rpo] == ["entry", "a", "b", "exit"]
        frontiers = tree.frontiers()
        by_name = {b.name: b for b in fn.blocks}
        assert [b.name for b in frontiers[by_name["a"]]] == ["b", "exit"]
        assert [b.name for b in frontiers[by_name["b"]]] == ["a", "exit"]

    def test_walk_is_a_scoped_preorder(self):
        fn = parse_module(DIAMOND).get("f")
        tree = DominatorTree(fn)
        events = []
        tree.walk(
            lambda block: events.append(f"+{block.name}") or block.name,
            lambda name: events.append(f"-{name}"),
        )
        assert [b.name for b in tree.children[fn.entry]] == ["right", "left", "join"]
        assert events == [
            "+entry", "+right", "-right", "+left", "-left", "+join", "-join",
            "-entry",
        ]

    @pytest.mark.parametrize("program", program_names())
    def test_numbering_agrees_with_the_walk_on_every_program(self, program):
        """Every pair of reachable blocks of every function at -O2."""
        module = get_program(program).compile()
        optimize(module, 2)
        pairs = 0
        for fn in module.defined_functions():
            tree = DominatorTree(fn)
            blocks = reachable_blocks(fn)
            for a in blocks:
                for b in blocks:
                    assert tree.dominates(a, b) == dominates(tree.idom, a, b), (
                        f"@{fn.name}: {a.name} vs {b.name}"
                    )
                    pairs += 1
        assert pairs > 0


class TestLoops:
    def test_natural_loop_found(self):
        fn = parse_module(LOOP).get("f")
        loops = find_loops(fn)
        assert len(loops) == 1
        loop = loops[0]
        assert loop.header.name == "header"
        assert loop.latch.name == "latch"
        assert {b.name for b in loop.blocks} == {"header", "latch"}

    def test_no_loops_in_diamond(self):
        fn = parse_module(DIAMOND).get("f")
        assert find_loops(fn) == []


# Two blocks branching into each other with distinct outside entries:
# neither header dominates the other, so no back edge is a natural loop.
IRREDUCIBLE = """
define i32 @f(i1 %c, i1 %k) {
entry:
  br i1 %c, label %a, label %b
a:
  br i1 %k, label %b, label %exit
b:
  br i1 %k, label %a, label %exit
exit:
  ret i32 0
}
"""


class TestIrregularCFGs:
    def test_irreducible_idoms_collapse_to_entry(self):
        fn = parse_module(IRREDUCIBLE).get("f")
        idom = DominatorTree(fn).idom
        by_name = {b.name: b for b in fn.blocks}
        assert idom[by_name["a"]].name == "entry"
        assert idom[by_name["b"]].name == "entry"
        assert idom[by_name["exit"]].name == "entry"

    def test_irreducible_cycle_is_not_a_natural_loop(self):
        fn = parse_module(IRREDUCIBLE).get("f")
        assert find_loops(fn) == []

    def test_dominators_ignore_unreachable_predecessor(self):
        # %dead branches into %join; it must not disturb join's idom.
        fn = parse_module(
            """
define i32 @f(i1 %c) {
entry:
  br i1 %c, label %left, label %join
left:
  br label %join
join:
  ret i32 0
dead:
  br label %join
}
"""
        ).get("f")
        idom = DominatorTree(fn).idom
        by_name = {b.name: b for b in fn.blocks}
        assert idom[by_name["join"]].name == "entry"
        assert by_name["dead"] not in idom

    def test_loop_body_excludes_unreachable_predecessor(self):
        # %dead jumps into the loop body; it can never execute, so it
        # must not leak into the natural loop's block set.
        fn = parse_module(
            """
define i32 @f(i32 %n) {
entry:
  br label %header
header:
  %i = phi i32 [ 0, %entry ], [ %next, %latch ]
  %c = icmp slt i32 %i, %n
  br i1 %c, label %latch, label %exit
latch:
  %next = add i32 %i, 1
  br label %header
dead:
  br label %latch
exit:
  ret i32 %i
}
"""
        ).get("f")
        loops = find_loops(fn)
        assert len(loops) == 1
        assert {b.name for b in loops[0].blocks} == {"header", "latch"}


class TestExecutableReachability:
    CONST_BRANCH = """
define i32 @f() {
entry:
  br i1 1, label %live, label %dead_arm
live:
  ret i32 1
dead_arm:
  ret i32 0
}
"""

    def test_constant_branch_has_one_feasible_successor(self):
        fn = parse_module(self.CONST_BRANCH).get("f")
        entry = fn.get_block("entry")
        assert [b.name for b in feasible_successors(entry)] == ["live"]
        # Plain CFG reachability still sees both arms.
        assert len(entry.successors()) == 2

    def test_executable_blocks_exclude_dead_arm(self):
        fn = parse_module(self.CONST_BRANCH).get("f")
        assert {b.name for b in executable_blocks(fn)} == {"entry", "live"}
        assert {b.name for b in reachable_blocks(fn)} == {
            "entry", "live", "dead_arm"
        }

    def test_constant_switch_follows_matching_case(self):
        fn = parse_module(
            """
define i32 @f() {
entry:
  switch i32 2, label %other [ i32 2, label %two ]
two:
  ret i32 2
other:
  ret i32 0
}
"""
        ).get("f")
        assert [b.name for b in feasible_successors(fn.entry)] == ["two"]

    def test_constant_switch_falls_back_to_default(self):
        fn = parse_module(
            """
define i32 @f() {
entry:
  switch i32 7, label %other [ i32 2, label %two ]
two:
  ret i32 2
other:
  ret i32 0
}
"""
        ).get("f")
        assert [b.name for b in feasible_successors(fn.entry)] == ["other"]

    def test_non_constant_condition_keeps_all_successors(self):
        fn = parse_module(DIAMOND).get("f")
        assert len(feasible_successors(fn.entry)) == 2
        assert executable_blocks(fn) == reachable_blocks(fn)


class TestCallGraph:
    MUTUAL = """
define i32 @even(i32 %n) {
entry:
  %r = call i32 @odd(i32 %n)
  ret i32 %r
}

define i32 @odd(i32 %n) {
entry:
  %r = call i32 @even(i32 %n)
  ret i32 %r
}

define i32 @top() {
entry:
  %r = call i32 @even(i32 4)
  ret i32 %r
}
"""

    def test_call_graph_edges(self):
        graph = call_graph(parse_module(self.MUTUAL))
        assert graph["even"] == {"odd"}
        assert graph["top"] == {"even"}

    def test_sccs_bottom_up(self):
        sccs = bottom_up_sccs(parse_module(self.MUTUAL))
        assert ["even", "odd"] in sccs
        flat = [name for scc in sccs for name in scc]
        # Callee SCC appears before the caller.
        assert flat.index("even") < flat.index("top")

    def test_predecessor_map(self):
        fn = parse_module(DIAMOND).get("f")
        preds = predecessor_map(fn)
        by_name = {b.name: b for b in fn.blocks}
        assert {b.name for b in preds[by_name["join"]]} == {"left", "right"}
