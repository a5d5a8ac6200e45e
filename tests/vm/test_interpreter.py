"""Tests for the VM: execution semantics, traps, cycle accounting, hooks."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.backend.isel import lower_module
from repro.errors import VMError
from repro.ir.parser import parse_module
from repro.linker.linker import link
from repro.vm.interpreter import VM, CompositeProbeRuntime, ProbeRuntime


def build_exe(source):
    return link([lower_module(parse_module(source))])


def run_fn(source, name, args=(), **kwargs):
    return VM(build_exe(source), **kwargs).run(name, args)


class TestExecution:
    def test_return_value(self):
        assert run_fn("define i32 @f() {\nentry:\n  ret i32 7\n}", "f").exit_code == 7

    def test_arguments_passed(self):
        src = "define i32 @f(i32 %a, i32 %b) {\nentry:\n  %r = sub i32 %a, %b\n  ret i32 %r\n}"
        assert run_fn(src, "f", (10, 3)).exit_code == 7

    def test_memory_roundtrip(self):
        src = """
@slot = global i64 0

define i64 @f(i64 %v) {
entry:
  store i64 %v, ptr @slot
  %r = load i64, ptr @slot
  ret i64 %r
}
"""
        result = run_fn(src, "f", (0xDEADBEEF,))
        assert result.exit_code == 0xDEADBEEF & 0xFFFFFFFF

    def test_call_and_frame_isolation(self):
        src = """
define i32 @inner(i32 %x) {
entry:
  %slot = alloca i32
  store i32 %x, ptr %slot
  %v = load i32, ptr %slot
  %r = mul i32 %v, 3
  ret i32 %r
}

define i32 @outer() {
entry:
  %slot = alloca i32
  store i32 99, ptr %slot
  %a = call i32 @inner(i32 5)
  %keep = load i32, ptr %slot
  %r = add i32 %a, %keep
  ret i32 %r
}
"""
        assert run_fn(src, "outer").exit_code == 114

    def test_indirect_call_through_function_address(self):
        src = """
define i32 @target(i32 %x) {
entry:
  %r = add i32 %x, 100
  ret i32 %r
}

@fp = global ptr null

define i32 @f() {
entry:
  store ptr @target, ptr @fp
  %callee = load ptr, ptr @fp
  %r = call i32 %callee(i32 1)
  ret i32 %r
}
"""
        assert run_fn(src, "f").exit_code == 101

    def test_recursion_depth(self):
        src = """
define i32 @count(i32 %n) {
entry:
  %z = icmp eq i32 %n, 0
  br i1 %z, label %done, label %rec
rec:
  %n1 = sub i32 %n, 1
  %r = call i32 @count(i32 %n1)
  %r1 = add i32 %r, 1
  ret i32 %r1
done:
  ret i32 0
}
"""
        assert run_fn(src, "count", (50,)).exit_code == 50


class TestTraps:
    def test_null_deref(self):
        src = "define i32 @f() {\nentry:\n  %v = load i32, ptr null\n  ret i32 %v\n}"
        assert run_fn(src, "f").trap == "bad-memory"

    def test_out_of_bounds(self):
        src = """
define i32 @f() {
entry:
  %p = inttoptr i64 99999999 to ptr
  %v = load i32, ptr %p
  ret i32 %v
}
"""
        assert run_fn(src, "f").trap == "bad-memory"

    def test_division_by_zero(self):
        src = "define i32 @f(i32 %a) {\nentry:\n  %v = sdiv i32 1, %a\n  ret i32 %v\n}"
        assert run_fn(src, "f", (0,)).trap == "div-by-zero"

    def test_unreachable(self):
        src = "define void @f() {\nentry:\n  unreachable\n}"
        assert run_fn(src, "f").trap == "unreachable"

    def test_write_to_const(self):
        src = """
@ro = const [2 x i8] c"a\\00"

define void @f() {
entry:
  store i8 98, ptr @ro
  ret void
}
"""
        assert run_fn(src, "f").trap == "bad-memory"

    def test_runaway_execution_raises(self):
        src = """
define void @f() {
entry:
  br label %loop
loop:
  br label %loop
}
"""
        with pytest.raises(VMError, match="exceeded"):
            run_fn(src, "f", max_steps=1000)


class TestCycleAccounting:
    def test_cycles_deterministic(self):
        src = """
define i32 @f(i32 %n) {
entry:
  br label %header
header:
  %i = phi i32 [ 0, %entry ], [ %next, %header ]
  %next = add i32 %i, 1
  %c = icmp slt i32 %next, %n
  br i1 %c, label %header, label %done
done:
  ret i32 %i
}
"""
        exe = build_exe(src)
        a = VM(exe).run("f", (100,))
        b = VM(exe).run("f", (100,))
        assert a.cycles == b.cycles > 0

    def test_cycles_scale_with_work(self):
        src = """
define i32 @f(i32 %n) {
entry:
  br label %header
header:
  %i = phi i32 [ 0, %entry ], [ %next, %header ]
  %next = add i32 %i, 1
  %c = icmp slt i32 %next, %n
  br i1 %c, label %header, label %done
done:
  ret i32 %i
}
"""
        exe = build_exe(src)
        small = VM(exe).run("f", (10,)).cycles
        large = VM(exe).run("f", (1000,)).cycles
        assert large > small * 50

    def test_block_tax_charged(self):
        src = "define i32 @f() {\nentry:\n  ret i32 0\n}"
        exe = build_exe(src)
        plain = VM(exe).run("f").cycles
        taxed = VM(exe, block_tax=100).run("f").cycles
        assert taxed == plain + 100  # one block


class TestHooks:
    PROBED = """
declare void @__odin_cov_hit(i64)

define i32 @f(i1 %c) {
entry:
  call void @__odin_cov_hit(i64 1)
  br i1 %c, label %a, label %b
a:
  call void @__odin_cov_hit(i64 2)
  ret i32 1
b:
  call void @__odin_cov_hit(i64 3)
  ret i32 2
}
"""

    def test_probe_runtime_receives_events(self):
        events = []

        class Recorder(ProbeRuntime):
            def on_probe(self, kind, probe_id, args, vm):
                events.append((kind, probe_id))

        exe = build_exe(self.PROBED)
        VM(exe, probe_runtime=Recorder()).run("f", (1,))
        assert events == [("cov", 1), ("cov", 2)]

    def test_composite_runtime_fans_out(self):
        seen_a, seen_b = [], []

        class A(ProbeRuntime):
            def on_probe(self, kind, probe_id, args, vm):
                seen_a.append(probe_id)

        class B(ProbeRuntime):
            def on_probe(self, kind, probe_id, args, vm):
                seen_b.append(probe_id)

        exe = build_exe(self.PROBED)
        VM(exe, probe_runtime=CompositeProbeRuntime(A(), B())).run("f", (0,))
        assert seen_a == seen_b == [1, 3]

    def test_block_hook_sees_executed_blocks(self):
        blocks = []
        exe = build_exe(self.PROBED)
        vm = VM(exe, block_hook=lambda f, b: blocks.append(b))
        vm.run("f", (0,))
        assert blocks == [0, 2]  # entry then %b

    def test_reset_restores_globals(self):
        src = """
@g = global i32 0

define i32 @f() {
entry:
  %v = load i32, ptr @g
  %v2 = add i32 %v, 1
  store i32 %v2, ptr @g
  ret i32 %v2
}
"""
        vm = VM(build_exe(src))
        assert vm.run("f").exit_code == 1
        assert vm.run("f").exit_code == 1  # run() resets


class TestProbeRouting:
    SOURCE = """
declare void @__odin_cov_hit(i64)
declare void @__cmplog_hit(i64, i64, i64)

define i32 @f(i64 %a) {
entry:
  call void @__odin_cov_hit(i64 1)
  call void @__cmplog_hit(i64 2, i64 %a, i64 7)
  call void @__odin_cov_hit(i64 3)
  ret i32 0
}
"""

    class Log(ProbeRuntime):
        def __init__(self, name, log, kinds=None):
            self.name, self.log = name, log
            if kinds is not None:
                self.kinds = frozenset(kinds)

        def on_probe(self, kind, probe_id, args, vm):
            self.log.append((self.name, kind, probe_id, args))

    def test_events_reach_only_declared_kinds_in_tree_order(self):
        log = []
        Log = self.Log
        runtime = CompositeProbeRuntime(
            Log("cov", log, {"cov"}),
            CompositeProbeRuntime(Log("cmp", log, {"cmplog"}), Log("all", log)),
            Log("none", log, ()),
        )
        VM(build_exe(self.SOURCE), probe_runtime=runtime).run("f", (5,))
        assert log == [
            ("cov", "cov", 1, ()), ("all", "cov", 1, ()),
            ("cmp", "cmplog", 2, (5, 7)), ("all", "cmplog", 2, (5, 7)),
            ("cov", "cov", 3, ()), ("all", "cov", 3, ()),
        ]

    def test_composite_on_probe_routes_by_kind(self):
        log = []
        runtime = CompositeProbeRuntime(self.Log("cov", log, {"cov"}), self.Log("all", log))
        runtime.on_probe("asan", 9, (1, 2), None)
        assert log == [("all", "asan", 9, (1, 2))]

    def test_on_probe_is_looked_up_per_event(self):
        """Swapping a runtime class's on_probe takes effect at once (the
        benchmark's tracer wraps it from outside)."""
        seen = []

        class Swapping(ProbeRuntime):
            def on_probe(self, kind, probe_id, args, vm):
                seen.append(("first", probe_id))
                Swapping.on_probe = lambda self, k, p, a, v: seen.append(("second", p))

        VM(build_exe(self.SOURCE), probe_runtime=Swapping()).run("f", (0,))
        assert seen == [("first", 1), ("second", 2), ("second", 3)]

    def test_runtime_changes_between_runs(self):
        log = []
        vm = VM(build_exe(self.SOURCE), probe_runtime=self.Log("a", log, {"cov"}))
        vm.run("f", (0,))
        vm.probe_runtime = self.Log("b", log, {"cmplog"})
        vm.run("f", (0,))
        assert [entry[:3] for entry in log] == [
            ("a", "cov", 1), ("a", "cov", 3), ("b", "cmplog", 2),
        ]


class TestLifetime:
    SOURCE = """
@g = global i32 0

define i32 @f(i32 %x) {
entry:
  %v = load i32, ptr @g
  %r = mul i32 %v, %x
  %c = icmp slt i32 %r, 100
  %s = sext i1 %c to i32
  store i32 %s, ptr @g
  ret i32 %r
}

define i32 @bad() {
entry:
  %v = load i32, ptr null
  ret i32 %v
}
"""

    def test_dropped_vm_is_freed_without_gc(self):
        import gc
        import weakref

        exe = build_exe(self.SOURCE)
        gc.collect()
        gc.disable()
        try:
            vm = VM(exe, probe_runtime=ProbeRuntime())
            assert vm.run("f", (3,)).ok
            assert vm.run("bad").trap == "bad-memory"
            ref = weakref.ref(vm)
            del vm
            assert ref() is None
        finally:
            gc.enable()

    def test_executed_object_pickles(self):
        import pickle

        obj = lower_module(parse_module(self.SOURCE))
        exe = link([obj])
        vm = VM(exe)
        vm.run("f", (3,))
        vm.run("f", (5,))
        clone = pickle.loads(pickle.dumps(obj))
        assert clone.canonical_bytes() == obj.canonical_bytes()
        assert VM(link([clone])).run("f", (3,)) == VM(exe).run("f", (3,))


BINARY_OPCODES = ("add", "sub", "mul", "udiv", "sdiv", "urem", "srem",
                  "and", "or", "xor", "shl", "lshr", "ashr")
PREDICATES = ("eq", "ne", "ult", "ule", "ugt", "uge", "slt", "sle", "sgt", "sge")
WIDTHS = (1, 8, 16, 32, 64)


def edge_values(bits):
    """Boundary values of an iN, in its unsigned representation."""
    top = (1 << bits) - 1
    sign = 1 << (bits - 1)
    return sorted({0, 1, 2 % (top + 1), 3 & top, sign - 1, sign, sign + 1 & top,
                   top - 1, top, 0x5A5A5A5A5A5A5A5A & top})


def _store_result(value, bits):
    """IR that widens *value* (an iN) to i64 and stores it to @out."""
    if bits == 64:
        return f"  store i64 {value}, ptr @out\n"
    return f"  %w = zext i{bits} {value} to i64\n  store i64 %w, ptr @out\n"


class Harness:
    """Functions @f0, @f1, ... of one module, each storing one result."""

    def __init__(self, bodies, params):
        functions = "".join(
            f"define void @f{i}({params}) {{\nentry:\n{body}  ret void\n}}\n"
            for i, body in enumerate(bodies)
        )
        self.exe = build_exe("@out = global i64 0\n" + functions)
        self.out = self.exe.symbol_addresses["out"]

    def run(self, index, args):
        """The stored result, or the trap kind."""
        vm = VM(self.exe)
        result = vm.run(f"f{index}", args)
        if result.trap is not None:
            return result.trap
        return int.from_bytes(vm.read_bytes(self.out, 8), "little")


def expect(fn, *args):
    try:
        return fn(*args)
    except ZeroDivisionError:
        return "div-by-zero"


class TestDifferentialArithmetic:
    """Property test: VM arithmetic equals the shared semantics module,
    for every opcode, operand form (register or immediate) and width."""

    @pytest.mark.parametrize("bits", WIDTHS)
    @pytest.mark.parametrize("op", BINARY_OPCODES)
    def test_binary_edges(self, op, bits):
        from repro.ir.semantics import eval_binary
        from repro.ir.types import IntType

        ty = IntType(bits)
        values = edge_values(bits)
        # @f0: both operands in registers; @f<k+1>: immediate values[k].
        bodies = [f"  %r = {op} i{bits} %a, %b\n" + _store_result("%r", bits)]
        bodies += [f"  %r = {op} i{bits} %a, {k}\n" + _store_result("%r", bits)
                   for k in values]
        harness = Harness(bodies, f"i{bits} %a, i{bits} %b")
        for a in values:
            for j, b in enumerate(values):
                want = expect(eval_binary, op, ty, a, b)
                assert harness.run(0, (a, b)) == want, ("bin", op, bits, a, b)
                assert harness.run(j + 1, (a, 0)) == want, ("bini", op, bits, a, b)

    @pytest.mark.parametrize("bits", WIDTHS)
    @pytest.mark.parametrize("pred", PREDICATES)
    def test_icmp_edges(self, pred, bits):
        from repro.ir.semantics import eval_icmp
        from repro.ir.types import IntType

        ty = IntType(bits)
        values = edge_values(bits)
        bodies = [f"  %r = icmp {pred} i{bits} %a, %b\n" + _store_result("%r", 1)]
        bodies += [f"  %r = icmp {pred} i{bits} %a, {k}\n" + _store_result("%r", 1)
                   for k in values]
        harness = Harness(bodies, f"i{bits} %a, i{bits} %b")
        for a in values:
            for j, b in enumerate(values):
                want = eval_icmp(pred, ty, a, b)
                assert harness.run(0, (a, b)) == want, ("cmp", pred, bits, a, b)
                assert harness.run(j + 1, (a, 0)) == want, ("cmpi", pred, bits, a, b)

    @pytest.mark.parametrize(
        "op,src,dst",
        [("zext", f, t) for f in WIDTHS for t in WIDTHS if f < t]
        + [("sext", f, t) for f in WIDTHS for t in WIDTHS if f < t]
        + [("trunc", f, t) for f in WIDTHS for t in WIDTHS if f > t],
    )
    def test_cast_edges(self, op, src, dst):
        from repro.ir.semantics import eval_cast
        from repro.ir.types import IntType

        body = f"  %r = {op} i{src} %a to i{dst}\n" + _store_result("%r", dst)
        harness = Harness([body], f"i{src} %a")
        for a in edge_values(src):
            want = eval_cast(op, IntType(src), IntType(dst), a)
            assert harness.run(0, (a,)) == want, (op, src, dst, a)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_binary_matches_semantics(self, data):
        from repro.ir.semantics import eval_binary
        from repro.ir.types import IntType

        op = data.draw(st.sampled_from(BINARY_OPCODES))
        bits = data.draw(st.sampled_from(WIDTHS))
        a = data.draw(st.integers(0, (1 << bits) - 1))
        b = data.draw(st.integers(0, (1 << bits) - 1))
        harness = Harness(
            [f"  %r = {op} i{bits} %a, %b\n" + _store_result("%r", bits),
             f"  %r = {op} i{bits} %a, {b}\n" + _store_result("%r", bits)],
            f"i{bits} %a, i{bits} %b",
        )
        want = expect(eval_binary, op, IntType(bits), a, b)
        assert harness.run(0, (a, b)) == want
        assert harness.run(1, (a, 0)) == want
