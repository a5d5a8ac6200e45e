"""Tests for SimplifyCFG, including the probe-as-barrier property."""

import repro.opt.simplifycfg as simplifycfg
from repro.ir.analysis import predecessor_map
from repro.ir.parser import parse_module
from repro.ir.printer import print_module
from repro.ir.verifier import verify_module
from repro.opt.pass_manager import OptContext
from repro.opt.simplifycfg import SimplifyCFG


def simplify(source):
    m = parse_module(source)
    ctx = OptContext()
    SimplifyCFG().run(m, ctx)
    verify_module(m)
    return m, ctx


class TestUnreachable:
    def test_unreachable_blocks_removed(self):
        m, _ = simplify(
            """
define i32 @f() {
entry:
  ret i32 1
dead:
  br label %dead2
dead2:
  ret i32 2
}
"""
        )
        assert len(m.get("f").blocks) == 1

    def test_phi_incomings_from_dead_blocks_dropped(self):
        m, _ = simplify(
            """
define i32 @f(i1 %c) {
entry:
  br i1 %c, label %a, label %b
a:
  br label %join
b:
  br label %join
dead:
  br label %join
join:
  %r = phi i32 [ 1, %a ], [ 2, %b ], [ 3, %dead ]
  ret i32 %r
}
"""
        )
        verify_module(m)


class TestConstantBranches:
    def test_constant_condbr_folds(self):
        m, _ = simplify(
            """
define i32 @f() {
entry:
  br i1 true, label %yes, label %no
yes:
  ret i32 1
no:
  ret i32 2
}
"""
        )
        assert len(m.get("f").blocks) == 1
        assert "ret i32 1" in print_module(m)

    def test_constant_switch_folds(self):
        m, _ = simplify(
            """
define i32 @f() {
entry:
  switch i32 2, label %d [ i32 1, label %one i32 2, label %two ]
one:
  ret i32 10
two:
  ret i32 20
d:
  ret i32 0
}
"""
        )
        assert "ret i32 20" in print_module(m)
        assert len(m.get("f").blocks) == 1

    def test_same_target_condbr_to_br(self):
        m, _ = simplify(
            """
define i32 @f(i1 %c) {
entry:
  br i1 %c, label %next, label %next
next:
  ret i32 1
}
"""
        )
        assert len(m.get("f").blocks) == 1


class TestMergeAndForward:
    def test_linear_chain_merges(self):
        m, _ = simplify(
            """
define i32 @f(i32 %a) {
entry:
  %x = add i32 %a, 1
  br label %b
b:
  %y = add i32 %x, 2
  br label %c
c:
  ret i32 %y
}
"""
        )
        assert len(m.get("f").blocks) == 1

    def test_forwarding_block_skipped(self):
        m, _ = simplify(
            """
define i32 @f(i1 %c) {
entry:
  br i1 %c, label %fwd, label %other
fwd:
  br label %target
other:
  %x = call i32 @ext()
  br label %target
target:
  %r = phi i32 [ 0, %fwd ], [ %x, %other ]
  ret i32 %r
}

declare i32 @ext()
"""
        )
        names = {b.name for b in m.get("f").blocks}
        assert "fwd" not in names
        verify_module(m)


class TestPredecessorMap:
    """One map per merge or speculation sweep must answer exactly as
    :meth:`BasicBlock.predecessors` would at each point of the sweep."""

    @staticmethod
    def _assert_matches(fn):
        preds = predecessor_map(fn)
        assert list(preds) == fn.blocks
        for block in fn.blocks:
            assert preds[block] == block.predecessors()

    def test_chain_merges_in_one_sweep(self):
        m = parse_module(
            """
define i32 @f(i32 %a) {
entry:
  br label %b1
b1:
  %x = add i32 %a, 1
  br label %b2
b2:
  %y = add i32 %x, 2
  br label %b3
b3:
  %p = phi i32 [ %y, %b2 ]
  ret i32 %p
}
"""
        )
        fn = m.get("f")
        self._assert_matches(fn)
        ctx = OptContext()
        assert SimplifyCFG._merge_into_predecessor(fn, ctx)
        assert [b.name for b in fn.blocks] == ["entry"]
        assert ctx.stats["simplifycfg.merged"] == 3
        verify_module(m)

    def test_switch_edges_into_forwarding_block_list_the_switch_once(self):
        m = parse_module(
            """
define i32 @f(i32 %v) {
entry:
  switch i32 %v, label %other [ i32 1, label %fwd i32 2, label %fwd ]
fwd:
  br label %join
other:
  br label %join
join:
  %r = phi i32 [ 1, %fwd ], [ 2, %other ]
  ret i32 %r
}
"""
        )
        fn = m.get("f")
        fwd = fn.get_block("fwd")
        assert predecessor_map(fn)[fwd] == [fn.entry]
        self._assert_matches(fn)
        # A single distinct predecessor, but it ends in a switch: no merge.
        assert not SimplifyCFG._merge_into_predecessor(fn, OptContext())
        assert fwd in fn.blocks

    def test_self_loop_block_does_not_merge(self):
        m = parse_module(
            """
define i32 @f(i1 %c) {
entry:
  br label %loop
loop:
  br i1 %c, label %loop, label %exit
exit:
  br label %tail
tail:
  ret i32 0
spin:
  br label %spin
}
"""
        )
        fn = m.get("f")
        loop, spin = fn.get_block("loop"), fn.get_block("spin")
        assert predecessor_map(fn)[loop] == [fn.entry, loop]
        assert predecessor_map(fn)[spin] == [spin]
        assert SimplifyCFG._merge_into_predecessor(fn, OptContext())
        # Only tail merged (into exit); neither self-loop block merged.
        assert [b.name for b in fn.blocks] == ["entry", "loop", "exit", "spin"]
        self._assert_matches(fn)

    @staticmethod
    def _capture_maps(monkeypatch):
        """Every map a sweep builds, in build order."""
        built = []

        def recording_map(fn):
            built.append(predecessor_map(fn))
            return built[-1]

        monkeypatch.setattr(simplifycfg, "predecessor_map", recording_map)
        return built

    def test_speculation_keeps_its_one_map_exact(self, monkeypatch):
        # The diamond in b1 makes b1 a predecessor of j1; a map that
        # missed it would take j1 for b2's lone-predecessor arm and
        # delete a block b1 still branches to.
        m = parse_module(
            """
define i32 @f(i1 %c, i1 %d, i32 %x) {
entry:
  br i1 %c, label %b1, label %b2
b1:
  br i1 %d, label %t, label %e
t:
  %t1 = add i32 %x, 1
  br label %j1
e:
  %e1 = add i32 %x, 2
  br label %j1
b2:
  br i1 %d, label %j1, label %j2
j1:
  %y = add i32 %x, 3
  br label %j2
j2:
  %r = phi i32 [ %y, %j1 ], [ 2, %b2 ]
  br i1 %c, label %arm, label %out
arm:
  %z = add i32 %r, 4
  br label %out
out:
  %s = phi i32 [ %z, %arm ], [ %r, %j2 ]
  ret i32 %s
}
"""
        )
        fn = m.get("f")
        built = self._capture_maps(monkeypatch)
        ctx = OptContext()
        assert SimplifyCFG()._speculate(fn, ctx)
        verify_module(m)
        assert ctx.stats["simplifycfg.speculated_diamond"] == 1
        assert ctx.stats["simplifycfg.speculated_triangle"] == 1
        assert [b.name for b in fn.blocks] == ["entry", "b1", "b2", "j1", "j2", "out"]
        # One map, exact as sets: the sweep reads only entry lengths.
        assert len(built) == 1
        (kept,) = built
        assert list(kept) == fn.blocks
        for block in fn.blocks:
            assert set(kept[block]) == set(block.predecessors())

    def test_forwarding_keeps_its_one_map_exact_in_order(self, monkeypatch):
        # f1 forwards into f2 first, so f2's predecessors become [a, b];
        # forwarding f2 then adds j's phi incomings in that order.
        m = parse_module(
            """
define i32 @f(i1 %c, i1 %d, i32 %x) {
entry:
  br i1 %c, label %a, label %b
a:
  %p = add i32 %x, 1
  br i1 %d, label %f1, label %e
b:
  %q = add i32 %x, 2
  br label %f2
e:
  %s = add i32 %x, 3
  br label %j
f1:
  br label %f2
f2:
  br label %j
j:
  %r = phi i32 [ 5, %e ], [ 7, %f2 ]
  ret i32 %r
}
"""
        )
        fn = m.get("f")
        built = self._capture_maps(monkeypatch)
        ctx = OptContext()
        assert SimplifyCFG._skip_forwarding_blocks(fn, ctx)
        verify_module(m)
        assert ctx.stats["simplifycfg.forwarded"] == 2
        assert "%r = phi i32 [ 5, %e ], [ 7, %a ], [ 7, %b ]" in print_module(m)
        assert len(built) == 1
        assert built[0] == predecessor_map(fn)


class TestSpeculation:
    DIAMOND = """
define i32 @f(i1 %c, i32 %a, i32 %b) {
entry:
  br i1 %c, label %t, label %e
t:
  %x = add i32 %a, 1
  br label %join
e:
  %y = mul i32 %b, 2
  br label %join
join:
  %r = phi i32 [ %x, %t ], [ %y, %e ]
  ret i32 %r
}
"""

    def test_diamond_becomes_select(self):
        m, ctx = simplify(self.DIAMOND)
        assert len(m.get("f").blocks) == 1
        assert "select" in print_module(m)
        assert ctx.stats.get("simplifycfg.speculated_diamond", 0) == 1

    def test_triangle_becomes_select(self):
        m, ctx = simplify(
            """
define i32 @f(i1 %c, i32 %a) {
entry:
  br i1 %c, label %t, label %join
t:
  %x = add i32 %a, 5
  br label %join
join:
  %r = phi i32 [ %x, %t ], [ %a, %entry ]
  ret i32 %r
}
"""
        )
        assert len(m.get("f").blocks) == 1
        assert ctx.stats.get("simplifycfg.speculated_triangle", 0) == 1

    def test_call_blocks_speculation(self):
        """The crux of instrument-first (§2.2): an opaque call — exactly
        what a probe lowers to — pins its block."""
        source = self.DIAMOND.replace(
            "%x = add i32 %a, 1",
            "call void @__odin_cov_hit(i64 3)\n  %x = add i32 %a, 1",
        ) + "\ndeclare void @__odin_cov_hit(i64)\n"
        m, ctx = simplify(source)
        assert len(m.get("f").blocks) == 4  # nothing merged
        assert ctx.stats.get("simplifycfg.speculated_diamond", 0) == 0

    def test_store_blocks_speculation(self):
        source = self.DIAMOND.replace(
            "%y = mul i32 %b, 2",
            "store i32 %b, ptr @g\n  %y = mul i32 %b, 2",
        ) + "\n@g = global i32 0\n"
        m, _ = simplify(source)
        assert len(m.get("f").blocks) == 4

    def test_load_blocks_speculation(self):
        """Loads may fault; never hoisted past a branch."""
        source = self.DIAMOND.replace(
            "%x = add i32 %a, 1",
            "%l = load i32, ptr @g\n  %x = add i32 %l, 1",
        ) + "\n@g = global i32 0\n"
        m, _ = simplify(source)
        assert len(m.get("f").blocks) == 4

    def test_division_by_variable_blocks_speculation(self):
        source = self.DIAMOND.replace("%x = add i32 %a, 1", "%x = sdiv i32 %a, %b")
        m, _ = simplify(source)
        assert len(m.get("f").blocks) == 4

    def test_division_by_nonzero_constant_speculates(self):
        source = self.DIAMOND.replace("%x = add i32 %a, 1", "%x = sdiv i32 %a, 4")
        m, _ = simplify(source)
        assert len(m.get("f").blocks) == 1

    def test_oversized_arm_not_speculated(self):
        big_arm = "\n".join(
            f"  %x{i} = add i32 %a, {i}" for i in range(8)
        )
        source = self.DIAMOND.replace(
            "  %x = add i32 %a, 1",
            big_arm + "\n  %x = add i32 %x7, 1",
        )
        m, _ = simplify(source)
        assert len(m.get("f").blocks) == 4
