"""Tests for instruction selection and object file emission."""

import pytest

from repro.backend.isel import lower_function, lower_module, split_critical_edges
from repro.backend.machine import MachineInst, ObjectFile
from repro.ir.parser import parse_module
from repro.ir.verifier import verify_module


def lower(source, fn_name="f"):
    m = parse_module(source)
    obj = lower_module(m)
    return obj, obj.functions.get(fn_name)


class TestLowering:
    def test_simple_function(self):
        obj, mf = lower(
            """
define i32 @f(i32 %a, i32 %b) {
entry:
  %x = add i32 %a, %b
  ret i32 %x
}
"""
        )
        ops = [i.op for i in mf.insts]
        assert "bin.add.32" in ops
        assert ops[-1] == "ret"
        assert ops[0] == "bb"

    def test_constant_folds_into_immediate_form(self):
        _, mf = lower(
            "define i32 @f(i32 %a) {\nentry:\n  %x = add i32 %a, 7\n  ret i32 %x\n}"
        )
        inst = next(i for i in mf.insts if i.op.startswith("bini"))
        assert inst.imm == 7

    def test_alloca_becomes_frame_slot(self):
        _, mf = lower(
            """
define i32 @f() {
entry:
  %a = alloca i32
  %b = alloca i64
  store i32 1, ptr %a
  %v = load i32, ptr %a
  ret i32 %v
}
"""
        )
        assert mf.frame_size == 16  # two 8-byte-aligned slots
        assert any(i.op == "leaf" for i in mf.insts)

    def test_global_reference_becomes_lea(self):
        obj, mf = lower(
            """
@g = global i32 5

define i32 @f() {
entry:
  %v = load i32, ptr @g
  ret i32 %v
}
"""
        )
        lea = next(i for i in mf.insts if i.op == "lea")
        assert lea.sym == "g"
        assert "g" in obj.data

    def test_branch_targets_resolved_to_indices(self):
        _, mf = lower(
            """
define i32 @f(i1 %c) {
entry:
  br i1 %c, label %a, label %b
a:
  ret i32 1
b:
  ret i32 2
}
"""
        )
        brt = next(i for i in mf.insts if i.op == "brt")
        for target in brt.targets:
            assert 0 <= target < len(mf.insts)
            assert mf.insts[target].op == "bb"

    def test_switch_table_resolved(self):
        _, mf = lower(
            """
define i32 @f(i32 %x) {
entry:
  switch i32 %x, label %d [ i32 1, label %a i32 2, label %b ]
a:
  ret i32 10
b:
  ret i32 20
d:
  ret i32 0
}
"""
        )
        sw = next(i for i in mf.insts if i.op == "switch")
        assert len(sw.table) == 2
        assert all(mf.insts[t].op == "bb" for _, t in sw.table)

    def test_phi_eliminated_with_moves(self):
        _, mf = lower(
            """
define i32 @f(i1 %c) {
entry:
  br i1 %c, label %a, label %b
a:
  br label %join
b:
  br label %join
join:
  %r = phi i32 [ 1, %a ], [ 2, %b ]
  ret i32 %r
}
"""
        )
        assert not any("phi" in i.op for i in mf.insts)
        movis = [i for i in mf.insts if i.op == "movi" and i.imm in (1, 2)]
        assert len(movis) == 2

    def test_phi_swap_handled_by_temporaries(self):
        """Classic lost-copy: a, b = b, a through a loop."""
        from repro.linker.linker import link
        from repro.vm.interpreter import VM

        m = parse_module(
            """
define i32 @f(i32 %n) {
entry:
  br label %header
header:
  %a = phi i32 [ 1, %entry ], [ %b, %latch ]
  %b = phi i32 [ 2, %entry ], [ %a, %latch ]
  %i = phi i32 [ 0, %entry ], [ %next, %latch ]
  %c = icmp slt i32 %i, %n
  br i1 %c, label %latch, label %exit
latch:
  %next = add i32 %i, 1
  br label %header
exit:
  %r = mul i32 %a, 10
  %r2 = add i32 %r, %b
  ret i32 %r2
}
"""
        )
        exe = link([lower_module(m)])
        assert VM(exe).run("f", (0,)).exit_code == 12
        assert VM(exe).run("f", (1,)).exit_code == 21
        assert VM(exe).run("f", (2,)).exit_code == 12

    def test_probe_call_lowered_to_probe_inst(self):
        _, mf = lower(
            """
declare void @__odin_cov_hit(i64)

define void @f() {
entry:
  call void @__odin_cov_hit(i64 42)
  ret void
}
"""
        )
        probe = next(i for i in mf.insts if i.op == "probe")
        assert probe.probe_kind == "cov"
        assert probe.probe_id == 42
        assert not any(i.op == "call" for i in mf.insts)

    def test_cmplog_probe_carries_value_args(self):
        _, mf = lower(
            """
declare void @__cmplog_hit(i64, i64, i64)

define void @f(i64 %a, i64 %b) {
entry:
  call void @__cmplog_hit(i64 3, i64 %a, i64 %b)
  ret void
}
"""
        )
        probe = next(i for i in mf.insts if i.op == "probe")
        assert probe.probe_kind == "cmplog"
        assert probe.probe_id == 3
        assert len(probe.args) == 2

    def test_indirect_call(self):
        _, mf = lower(
            """
define i32 @callee() {
entry:
  ret i32 1
}

define i32 @f() {
entry:
  %r = call i32 @callee()
  ret i32 %r
}
"""
        )
        assert any(i.op == "call" and i.sym == "callee" for i in mf.insts)


class TestObjectFile:
    def test_imports_and_exports(self):
        obj, _ = lower(
            """
@ext = declare global i32

declare i32 @helper(i32)

define internal i32 @local() {
entry:
  ret i32 1
}

define i32 @f() {
entry:
  %v = load i32, ptr @ext
  %r = call i32 @helper(i32 %v)
  ret i32 %r
}
"""
        )
        assert set(obj.imports) >= {"ext", "helper"}
        assert "f" in obj.exported_symbols()
        assert "local" not in obj.exported_symbols()

    def test_alias_recorded_with_linkage(self):
        obj, _ = lower(
            """
define i32 @f() {
entry:
  ret i32 1
}

@pub = alias @f
"""
        )
        assert obj.aliases["pub"] == ("f", "external")

    def test_compile_ms_positive(self):
        obj, _ = lower("define void @f() {\nentry:\n  ret void\n}")
        assert obj.compile_ms > 0

    def test_data_lowering(self):
        obj, _ = lower(
            """
@bytes_ = const [3 x i8] c"ab\\00"
@word = global i32 258
@arr = global [2 x i16] [i16 1, i16 2]
@p = global ptr null

define void @f() {
entry:
  %x = load i8, ptr @bytes_
  ret void
}
"""
        )
        assert obj.data["bytes_"].data == b"ab\x00"
        assert obj.data["word"].data == (258).to_bytes(4, "little")
        assert obj.data["arr"].data == b"\x01\x00\x02\x00"
        assert obj.data["p"].data == b"\x00" * 8


class TestCriticalEdges:
    def test_lowering_builds_one_predecessor_map_per_phase(self, monkeypatch):
        """Splitting and phi elimination each read one map, not a scan of
        every terminator per block with phis."""
        from repro.backend import isel
        from repro.ir.module import BasicBlock
        from repro.linker.linker import link
        from repro.vm.interpreter import VM

        m = parse_module(
            """
define i32 @f(i32 %n, i1 %c) {
entry:
  br i1 %c, label %header, label %join
header:
  %a = phi i32 [ 1, %entry ], [ %b, %latch ]
  %b = phi i32 [ 2, %entry ], [ %a, %latch ]
  %i = phi i32 [ 0, %entry ], [ %next, %latch ]
  %lt = icmp slt i32 %i, %n
  br i1 %lt, label %latch, label %join
latch:
  %next = add i32 %i, 1
  br label %header
join:
  %x = phi i32 [ 7, %entry ], [ %a, %header ]
  %y = phi i32 [ 0, %entry ], [ %b, %header ]
  %r = mul i32 %x, 10
  %s = add i32 %r, %y
  ret i32 %s
}
"""
        )
        counts = {"maps": 0, "scans": 0}
        build_map = isel.predecessor_map

        def counted_map(fn):
            counts["maps"] += 1
            return build_map(fn)

        def counted_predecessors(block):
            counts["scans"] += 1
            return []

        monkeypatch.setattr(isel, "predecessor_map", counted_map)
        monkeypatch.setattr(BasicBlock, "predecessors", counted_predecessors)
        obj = lower_module(m)
        monkeypatch.undo()
        assert counts == {"maps": 2, "scans": 0}
        exe = link([obj])
        assert VM(exe).run("f", (1, 1)).exit_code == 21
        assert VM(exe).run("f", (2, 1)).exit_code == 12
        assert VM(exe).run("f", (2, 0)).exit_code == 70


    def test_critical_edge_split(self):
        m = parse_module(
            """
define i32 @f(i1 %c, i1 %d) {
entry:
  br i1 %c, label %mid, label %join
mid:
  br i1 %d, label %other, label %join
other:
  ret i32 0
join:
  %r = phi i32 [ 1, %entry ], [ 2, %mid ]
  ret i32 %r
}
"""
        )
        fn = m.get("f")
        split_critical_edges(fn)
        verify_module(m)
        # Both edges into the phi block came from multi-successor blocks.
        join = fn.get_block("join")
        for pred in join.predecessors():
            assert len(pred.successors()) == 1
