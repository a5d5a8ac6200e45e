"""Tests for Dead Argument Elimination and Function Inlining — the two
interprocedural passes whose requirements drive the partitioner (§2.3)."""

import pytest

import repro.opt.inline as inline_pass
from repro.backend.isel import lower_module
from repro.core.engine import Odin
from repro.frontend.codegen import compile_source
from repro.ir.instructions import CallInst
from repro.ir.parser import parse_module
from repro.ir.printer import print_module
from repro.ir.verifier import verify_module
from repro.linker.linker import link
from repro.opt.dae import DeadArgumentElimination
from repro.opt.inline import FunctionInlining
from repro.opt.pass_manager import OptContext, REQ_BOND
from repro.opt.pipeline import optimize
from repro.vm.interpreter import VM

FIG4 = """
define internal void @neg(i32 %unused) {
entry:
  ret void
}

define i32 @main() {
entry:
  call void @neg(i32 1)
  ret i32 0
}
"""


class TestDeadArgumentElimination:
    def test_removes_dead_argument_from_both_sides(self):
        m = parse_module(FIG4)
        changed = DeadArgumentElimination().run(m, OptContext())
        verify_module(m)
        assert changed
        neg = m.get("neg")
        assert neg.function_type.params == ()
        call = next(
            i for i in m.get("main").instructions() if isinstance(i, CallInst)
        )
        assert call.args == []

    def test_external_function_untouched(self):
        """§2.3's remedy: exported symbols keep their ABI."""
        m = parse_module(FIG4.replace("define internal void @neg", "define void @neg"))
        changed = DeadArgumentElimination().run(m, OptContext())
        assert not changed
        assert len(m.get("neg").function_type.params) == 1

    def test_used_argument_kept(self):
        m = parse_module(
            """
define internal i32 @id(i32 %x) {
entry:
  ret i32 %x
}

define i32 @main() {
entry:
  %r = call i32 @id(i32 7)
  ret i32 %r
}
"""
        )
        assert not DeadArgumentElimination().run(m, OptContext())

    def test_partial_removal(self):
        m = parse_module(
            """
define internal i32 @f(i32 %dead1, i32 %live, i32 %dead2) {
entry:
  ret i32 %live
}

define i32 @main() {
entry:
  %r = call i32 @f(i32 1, i32 2, i32 3)
  ret i32 %r
}
"""
        )
        DeadArgumentElimination().run(m, OptContext())
        verify_module(m)
        assert len(m.get("f").function_type.params) == 1
        call = next(i for i in m.get("main").instructions() if isinstance(i, CallInst))
        assert call.args[0].value == 2

    def test_address_taken_blocks_transform(self):
        m = parse_module(
            """
define internal void @f(i32 %unused) {
entry:
  ret void
}

@table = global ptr null

define void @main() {
entry:
  store ptr @f, ptr @table
  call void @f(i32 1)
  ret void
}
"""
        )
        assert not DeadArgumentElimination().run(m, OptContext())

    def test_logs_bond_requirement_in_trial(self):
        m = parse_module(FIG4)
        ctx = OptContext(trial=True)
        DeadArgumentElimination().run(m, ctx)
        assert any(
            r.kind == REQ_BOND and r.subject == "neg" and r.peer == "main"
            for r in ctx.requirements
        )


class TestInlining:
    SIMPLE = """
define internal i32 @twice(i32 %x) {
entry:
  %r = mul i32 %x, 2
  ret i32 %r
}

define i32 @main() {
entry:
  %r = call i32 @twice(i32 21)
  ret i32 %r
}
"""

    def test_small_callee_inlined(self):
        m = parse_module(self.SIMPLE)
        changed = FunctionInlining().run(m, OptContext())
        verify_module(m)
        assert changed
        assert not any(
            isinstance(i, CallInst) for i in m.get("main").instructions()
        )

    def test_logs_bond_requirement(self):
        m = parse_module(self.SIMPLE)
        ctx = OptContext(trial=True)
        FunctionInlining().run(m, ctx)
        assert any(
            r.kind == REQ_BOND and r.subject == "twice" and r.peer == "main"
            for r in ctx.requirements
        )

    def test_declaration_never_inlined(self):
        """The MaxPartition effect: a callee visible only as a declaration
        cannot be inlined."""
        m = parse_module(
            """
declare i32 @twice(i32)

define i32 @main() {
entry:
  %r = call i32 @twice(i32 21)
  ret i32 %r
}
"""
        )
        assert not FunctionInlining().run(m, OptContext())

    def test_self_recursion_not_inlined(self):
        m = parse_module(
            """
define internal i32 @fact(i32 %n) {
entry:
  %c = icmp sle i32 %n, 1
  br i1 %c, label %base, label %rec
base:
  ret i32 1
rec:
  %n1 = sub i32 %n, 1
  %r = call i32 @fact(i32 %n1)
  %p = mul i32 %n, %r
  ret i32 %p
}
"""
        )
        assert not FunctionInlining().run(m, OptContext())

    def test_mutual_recursion_not_inlined(self):
        m = parse_module(
            """
define internal i32 @a(i32 %n) {
entry:
  %r = call i32 @b(i32 %n)
  ret i32 %r
}

define internal i32 @b(i32 %n) {
entry:
  %r = call i32 @a(i32 %n)
  ret i32 %r
}
"""
        )
        assert not FunctionInlining().run(m, OptContext())

    def test_multi_block_callee_with_multiple_returns(self):
        m = parse_module(
            """
define internal i32 @absval(i32 %x) {
entry:
  %neg = icmp slt i32 %x, 0
  br i1 %neg, label %flip, label %keep
flip:
  %f = sub i32 0, %x
  ret i32 %f
keep:
  ret i32 %x
}

define i32 @main(i32 %v) {
entry:
  %r = call i32 @absval(i32 %v)
  %r2 = add i32 %r, 1
  ret i32 %r2
}
"""
        )
        FunctionInlining().run(m, OptContext())
        verify_module(m)
        main = m.get("main")
        assert not any(isinstance(i, CallInst) for i in main.instructions())
        # The merged return value must come through a phi.
        assert any(i.opcode == "phi" for i in main.instructions())

    def test_semantics_preserved_through_inlining(self):
        """Differential: run main before and after inlining in the VM."""
        from repro.backend.isel import lower_module
        from repro.linker.linker import link
        from repro.vm.interpreter import VM

        def run(module):
            exe = link([lower_module(module)])
            return VM(exe).run("main").exit_code

        m1 = parse_module(self.SIMPLE)
        m2 = parse_module(self.SIMPLE)
        FunctionInlining().run(m2, OptContext())
        assert run(m1) == run(m2) == 42

    def test_big_callee_not_inlined(self):
        body = "\n".join(f"  %x{i} = add i32 %x, {i}" for i in range(60))
        m = parse_module(
            f"""
define i32 @big(i32 %x) {{
entry:
{body}
  ret i32 %x59
}}

define i32 @main() {{
entry:
  %r = call i32 @big(i32 1)
  %r2 = call i32 @big(i32 2)
  ret i32 %r
}}
"""
        )
        assert not FunctionInlining().run(m, OptContext())


def big_callee(name: str = "big", adds: int = 60, linkage: str = "internal ") -> str:
    """An ``i32 -> i32`` function of ``adds + 1`` instructions: by
    default too big for the plain threshold, small enough for the
    single-call-site one."""
    body = "\n".join(f"  %x{i} = add i32 %x, {i}" for i in range(adds))
    return f"""
define {linkage}i32 @{name}(i32 %x) {{
entry:
{body}
  ret i32 %x{adds - 1}
}}
"""


def calls_to(module, caller: str, callee: str) -> int:
    return sum(
        isinstance(i, CallInst) and i.called_function_name() == callee
        for i in module.get(caller).instructions()
    )


def inline(source: str):
    m = parse_module(source)
    FunctionInlining().run(m, OptContext())
    verify_module(m)
    return m


class TestSingleCallSite:
    """An internal callee of 41-160 instructions is inlined only at its
    one direct call site, and only when nothing else refers to it."""

    @pytest.mark.parametrize("adds, inlined", [(40, True), (159, True), (160, False)])
    def test_one_call_site_inlined_up_to_160_instructions(self, adds, inlined):
        m = inline(big_callee(adds=adds) + """
define i32 @main() {
entry:
  %r = call i32 @big(i32 1)
  ret i32 %r
}
""")
        assert calls_to(m, "main", "big") == (0 if inlined else 1)

    def test_two_call_sites_not_inlined(self):
        m = inline(big_callee() + """
define i32 @main() {
entry:
  %r = call i32 @big(i32 1)
  ret i32 %r
}

define i32 @other() {
entry:
  %r = call i32 @big(i32 2)
  ret i32 %r
}
""")
        assert calls_to(m, "main", "big") == calls_to(m, "other", "big") == 1

    def test_external_callee_not_inlined(self):
        m = inline(big_callee(linkage="") + """
define i32 @main() {
entry:
  %r = call i32 @big(i32 1)
  ret i32 %r
}
""")
        assert calls_to(m, "main", "big") == 1

    @pytest.mark.parametrize("escape", [
        "  call void @sink(ptr @big)",
        "  store ptr @big, ptr @slot",
        "  %p = select i1 true, ptr @big, ptr @slot\n"
        "  store ptr %p, ptr @slot",
    ], ids=["call-argument", "store", "select"])
    def test_address_taken_not_inlined(self, escape):
        m = inline(big_callee() + f"""
@slot = global ptr null

declare void @sink(ptr)

define i32 @main() {{
entry:
{escape}
  %r = call i32 @big(i32 1)
  ret i32 %r
}}
""")
        assert calls_to(m, "main", "big") == 1

    def test_address_taken_by_phi_incoming_not_inlined(self):
        m = inline(big_callee() + """
@slot = global ptr null

define i32 @main(i1 %c) {
entry:
  br i1 %c, label %a, label %b
a:
  br label %join
b:
  br label %join
join:
  %p = phi ptr [ @big, %a ], [ @slot, %b ]
  store ptr %p, ptr @slot
  %r = call i32 @big(i32 1)
  ret i32 %r
}
""")
        assert calls_to(m, "main", "big") == 1

    def test_alias_target_not_inlined(self):
        m = inline(big_callee() + """
@big_alias = alias @big

define i32 @main() {
entry:
  %r = call i32 @big(i32 1)
  ret i32 %r
}
""")
        assert calls_to(m, "main", "big") == 1

    # In the three cases below, @main first inlines @other, a
    # single-call-site callee, so @big's answer is asked again after the
    # run has already answered a single-call-site question.

    def test_second_call_site_brought_in_by_inlining(self):
        """@main reaches @wrap only through @apply's pointer parameter, so
        @main is inlined into before @wrap is.  Inlining @apply, then
        @wrap, brings a second call to @big into @main."""
        m = inline(big_callee("other") + big_callee() + """
define internal i32 @wrap(i32 %x) {
entry:
  %r = call i32 @big(i32 %x)
  ret i32 %r
}

define internal i32 @apply(ptr %f, i32 %x) {
entry:
  %r = call i32 %f(i32 %x)
  ret i32 %r
}

define i32 @main() {
entry:
  %a = call i32 @other(i32 1)
  %b = call i32 @apply(ptr @wrap, i32 %a)
  ret i32 %b
}
""")
        for callee in ("other", "apply", "wrap"):
            assert calls_to(m, "main", callee) == 0
        assert calls_to(m, "main", "big") == calls_to(m, "wrap", "big") == 1

    def test_competing_reference_inlined_away(self):
        """@drop ignores the pointer it is passed, so inlining it removes
        the only address-taken reference to @big."""
        m = inline(big_callee("other") + big_callee() + """
define internal void @drop(ptr %f) {
entry:
  ret void
}

define i32 @main() {
entry:
  %a = call i32 @other(i32 1)
  call void @drop(ptr @big)
  %b = call i32 @big(i32 %a)
  ret i32 %b
}
""")
        assert calls_to(m, "main", "drop") == calls_to(m, "main", "big") == 0

    def test_indirect_call_made_direct(self):
        """Inlining @apply turns its call through a parameter into the
        only, direct, call to @big, which is then inlined too."""
        m = inline(big_callee("other") + big_callee() + """
define internal i32 @apply(ptr %f, i32 %x) {
entry:
  %r = call i32 %f(i32 %x)
  ret i32 %r
}

define i32 @main() {
entry:
  %a = call i32 @other(i32 1)
  %b = call i32 @apply(ptr @big, i32 %a)
  ret i32 %b
}
""")
        assert calls_to(m, "main", "apply") == calls_to(m, "main", "big") == 0


FACT = (
    "int fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); }\n"
    "int main(void) { return fact(5) & 127; }\n"
)

# @d reaches itself only through @apply's pointer parameter, so it is not
# recursive in the call graph until inlining @apply makes the call direct.
SELF_BY_POINTER = """
define internal i32 @apply(ptr %f, i32 %x) {
entry:
  %r = call i32 %f(i32 %x)
  ret i32 %r
}

define i32 @d(i32 %n) {
entry:
  %c = icmp sle i32 %n, 0
  br i1 %c, label %base, label %rec
base:
  ret i32 0
rec:
  %m = sub i32 %n, 1
  %r = call i32 @apply(ptr @d, i32 %m)
  %s = add i32 %r, 1
  ret i32 %s
}

define i32 @main() {
entry:
  %r = call i32 @d(i32 5)
  ret i32 %r
}
"""


# @even and @odd call each other: inlining @even into @main brings in a
# call to @odd, and inlining that brings in a call to @even, which came
# from @even's body through a clone of a clone.
MUTUAL = """
define internal i32 @even(i32 %n) {
entry:
  %z = icmp eq i32 %n, 0
  br i1 %z, label %yes, label %rec
yes:
  ret i32 1
rec:
  %m = sub i32 %n, 1
  %r = call i32 @odd(i32 %m)
  ret i32 %r
}

define internal i32 @odd(i32 %n) {
entry:
  %z = icmp eq i32 %n, 0
  br i1 %z, label %no, label %rec
no:
  ret i32 0
rec:
  %m = sub i32 %n, 1
  %r = call i32 @even(i32 %m)
  ret i32 %r
}

define i32 @main() {
entry:
  %a = call i32 @even(i32 10)
  %b = call i32 @odd(i32 7)
  %b2 = mul i32 %b, 2
  %s = add i32 %a, %b2
  ret i32 %s
}
"""


def run_main(module) -> int:
    result = VM(link([lower_module(module)])).run("main")
    assert result.trap is None
    return result.exit_code


class TestRecursionThroughInlining:
    """A call cloned from a callee's body, directly or through earlier
    clones, never gets that callee inlined into it: without the history,
    -O2 inlined a recursive callee into its caller without end."""

    @pytest.fixture(autouse=True)
    def bounded_inlining(self, monkeypatch):
        """Fail fast instead of hanging if the inliner runs away."""
        inline_call_site = inline_pass.inline_call_site
        inlines = []

        def bounded(call, callee):
            inlines.append(callee.name)
            if len(inlines) > 100:
                raise AssertionError(f"runaway inlining: {inlines[-5:]}")
            return inline_call_site(call, callee)

        monkeypatch.setattr(inline_pass, "inline_call_site", bounded)
        return inlines

    def test_recursive_callee_at_o2_returns_what_o0_returns(self, bounded_inlining):
        module = compile_source(FACT, "fact")
        optimize(module, 2)
        verify_module(module)
        assert "fact" in bounded_inlining
        assert run_main(module) == run_main(compile_source(FACT, "fact")) == 120

    def test_odin_builds_a_recursive_callee(self, bounded_inlining):
        engine = Odin(compile_source(FACT, "fact"))
        engine.initial_build()
        assert bounded_inlining
        assert VM(engine.executable).run("main").exit_code == 120

    @pytest.mark.parametrize("source, result", [
        (SELF_BY_POINTER, 5), (MUTUAL, 3),
    ], ids=["self-by-pointer", "mutual"])
    def test_ir_recursion_at_o2_returns_what_o0_returns(
        self, bounded_inlining, source, result
    ):
        module = parse_module(source)
        optimize(module, 2)
        verify_module(module)
        assert bounded_inlining
        assert run_main(module) == run_main(parse_module(source)) == result

    @pytest.mark.parametrize("module, inlines", [
        (lambda: compile_source(FACT, "fact"), ["fact"]),
        (lambda: parse_module(MUTUAL), ["even", "odd", "odd", "even"]),
    ], ids=["fact", "mutual"])
    def test_o2_keeps_the_history_for_the_whole_run(
        self, bounded_inlining, module, inlines
    ):
        """A call cloned in one -O2 iteration keeps its history in the
        next, so a recursion is unrolled once, not once per iteration."""
        optimize(module(), 2)
        assert bounded_inlining == inlines

    def test_one_run_leaves_the_call_made_self_recursive(self):
        """Inlining @apply into @d brings in a direct self-call, left
        alone, and inlining @d into @main brings in a copy of it, which
        came from @d's body."""
        module = parse_module(SELF_BY_POINTER)
        ctx = OptContext()
        assert FunctionInlining().run(module, ctx)
        verify_module(module)
        assert ctx.stats["inline.sites"] == 2
        assert calls_to(module, "d", "d") == calls_to(module, "main", "d") == 1
        assert calls_to(module, "d", "apply") == calls_to(module, "main", "apply") == 0

    def test_one_run_follows_clones_of_clones(self):
        """Each of @main's calls is inlined, then the call to the other
        function that it brings in; the call that comes back, cloned
        from a clone, is left alone."""
        module = parse_module(MUTUAL)
        ctx = OptContext()
        assert FunctionInlining().run(module, ctx)
        verify_module(module)
        assert ctx.stats["inline.sites"] == 4
        assert calls_to(module, "main", "even") == calls_to(module, "main", "odd") == 1
