"""Tests for the IR verifier: each violation class must be caught."""

import pytest

from repro.errors import VerifierError
from repro.ir.builder import IRBuilder, build_function
from repro.ir.instructions import BinaryInst, PhiInst, RetInst
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.parser import parse_module
from repro.ir.types import FunctionType, I32, VOID
from repro.ir.values import ConstantInt, GlobalAlias, GlobalVariable
from repro.ir.verifier import verify_function, verify_module


def valid_module():
    return parse_module(
        """
define i32 @f(i32 %a) {
entry:
  %x = add i32 %a, 1
  ret i32 %x
}
"""
    )


class TestBlockShape:
    def test_valid_module_passes(self):
        verify_module(valid_module())

    def test_missing_terminator(self):
        m = Module("m")
        fn, builder, (a,) = build_function(m, "f", FunctionType(I32, (I32,)))
        builder.add(a, a)
        with pytest.raises(VerifierError, match="missing terminator"):
            verify_module(m)

    def test_empty_block(self):
        m = Module("m")
        fn, builder, (a,) = build_function(m, "f", FunctionType(I32, (I32,)))
        builder.ret(a)
        fn.add_block("empty")
        with pytest.raises(VerifierError, match="empty block"):
            verify_module(m)

    def test_phi_after_non_phi(self):
        m = valid_module()
        fn = m.get("f")
        phi = PhiInst(I32)
        phi.parent = fn.entry
        fn.entry.instructions.insert(1, phi)
        with pytest.raises(VerifierError, match="after non-phi"):
            verify_module(m)

    def test_branch_to_foreign_block(self):
        m = Module("m")
        fn1, b1, _ = build_function(m, "f", FunctionType(VOID))
        fn2, b2, _ = build_function(m, "g", FunctionType(VOID))
        foreign = fn2.add_block("x")
        IRBuilder.at_end(foreign).ret()
        b1.br(foreign)
        b2.ret()
        with pytest.raises(VerifierError, match="outside the function"):
            verify_function(fn1, m)


class TestPhiConsistency:
    def test_phi_incoming_mismatch(self):
        m = parse_module(
            """
define i32 @f(i1 %c) {
entry:
  br i1 %c, label %a, label %b
a:
  br label %join
b:
  br label %join
join:
  %r = phi i32 [ 1, %a ]
  ret i32 %r
}
"""
        )
        with pytest.raises(VerifierError, match="does not match predecessors"):
            verify_module(m)


class TestUseValidation:
    def test_reference_to_symbol_outside_module(self):
        m = valid_module()
        other = Module("other")
        stray = other.add(GlobalVariable("stray", I32, ConstantInt(I32, 0)))
        fn = m.get("f")
        builder = IRBuilder.before(fn.entry.instructions[0])
        builder.load(I32, stray)
        with pytest.raises(VerifierError, match="not in the module"):
            verify_module(m)

    def test_use_of_detached_instruction(self):
        m = valid_module()
        fn = m.get("f")
        add = fn.entry.instructions[0]
        ret = fn.entry.instructions[1]
        add.erase()  # ret still references it
        with pytest.raises(VerifierError, match="detached instruction"):
            verify_module(m)

    def test_use_before_definition_in_block(self):
        m = valid_module()
        fn = m.get("f")
        add = fn.entry.instructions[0]
        # Move the add after the ret's position by inserting a use before it.
        use = BinaryInst("add", add, ConstantInt(I32, 1))
        use.parent = fn.entry
        fn.entry.instructions.insert(0, use)
        with pytest.raises(VerifierError, match="before its definition"):
            verify_module(m)

    def test_dominance_violation_across_blocks(self):
        m = parse_module(
            """
define i32 @f(i1 %c, i32 %a) {
entry:
  br i1 %c, label %left, label %right
left:
  %x = add i32 %a, 1
  br label %join
right:
  br label %join
join:
  ret i32 0
}
"""
        )
        fn = m.get("f")
        join = fn.get_block("join")
        x = fn.get_block("left").instructions[0]
        join.instructions[-1] = RetInst(x)
        join.instructions[-1].parent = join
        with pytest.raises(VerifierError, match="does not dominate"):
            verify_module(m)


class TestPhiTypes:
    DIAMOND = """
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

    def test_incoming_type_mismatch(self):
        from repro.ir.types import I64

        m = parse_module(self.DIAMOND)
        phi = m.get("f").get_block("join").instructions[0]
        # A buggy pass rewrites one arm without retyping the value.
        phi.incoming[0] = (ConstantInt(I64, 1), phi.incoming[0][1])
        with pytest.raises(VerifierError, match="has type i64, expected i32"):
            verify_module(m)


CALLER = """
declare i32 @callee(i32, i32)

define i32 @f(i32 %a) {
entry:
  %r = call i32 @callee(i32 %a, i32 1)
  ret i32 %r
}
"""


class TestCallSignatures:
    def _call(self, m):
        return m.get("f").entry.instructions[0]

    def test_argument_count_mismatch(self):
        m = parse_module(CALLER)
        call = self._call(m)
        call.set_args(call.args[:1])  # a pass dropped an argument
        with pytest.raises(VerifierError, match="passes 1 arguments"):
            verify_module(m)

    def test_extra_argument_rejected_for_non_vararg(self):
        m = parse_module(CALLER)
        call = self._call(m)
        call.set_args(list(call.args) + [ConstantInt(I32, 9)])
        with pytest.raises(VerifierError, match="passes 3 arguments"):
            verify_module(m)

    def test_argument_type_mismatch(self):
        from repro.ir.types import I64

        m = parse_module(CALLER)
        call = self._call(m)
        call.set_args([call.args[0], ConstantInt(I64, 1)])
        with pytest.raises(VerifierError, match="argument 1 has type i64"):
            verify_module(m)

    def test_callee_signature_mismatch(self):
        # Rebuild the callee with a different signature while the call
        # site keeps the stale function_type (the DAE hazard).
        m = parse_module(CALLER)
        call = self._call(m)
        old = m.get("callee")
        m.symbols.pop("callee")
        fresh = m.add(Function("callee", FunctionType(I32, (I32,))))
        call.replace_uses_of(old, fresh)
        with pytest.raises(VerifierError, match="but the callee is declared"):
            verify_module(m)

    def test_valid_call_passes(self):
        verify_module(parse_module(CALLER))


class TestAliasConstraints:
    def test_alias_to_declaration_rejected(self):
        m = Module("m")
        decl = m.add(Function("ext", FunctionType(VOID)))
        m.add(GlobalAlias("a", decl))
        with pytest.raises(VerifierError, match="must be defined"):
            verify_module(m)

    def test_alias_target_missing_from_module(self):
        m = Module("m")
        other = Module("other")
        fn, builder, _ = build_function(other, "f", FunctionType(VOID))
        builder.ret()
        m.add(GlobalAlias("a", fn))
        with pytest.raises(VerifierError, match="not in the module"):
            verify_module(m)


class TestDefUse:
    SOURCE = """
define i32 @f(i32 %a) {
entry:
  %x = add i32 %a, 1
  %y = add i32 %a, 2
  %z = add i32 %x, %y
  ret i32 %z
}
"""

    def test_direct_operand_write_fails(self):
        m = parse_module(self.SOURCE)
        x, y, _, _ = m.get("f").entry.instructions
        y.operands[0] = x  # bypasses replace_uses_of: x never learns of y
        with pytest.raises(VerifierError, match="%y uses %x, whose users do not list it"):
            verify_module(m)

    def test_rewrite_through_replace_uses_of_passes(self):
        m = parse_module(self.SOURCE)
        x, y, z, _ = m.get("f").entry.instructions
        z.replace_uses_of(y, x)
        verify_module(m)

    def test_direct_phi_incoming_write_fails(self):
        m = parse_module(
            """
define i32 @f(i32 %a, i1 %c) {
entry:
  %x = add i32 %a, 1
  br i1 %c, label %l, label %r
l:
  br label %join
r:
  br label %join
join:
  %p = phi i32 [ %a, %l ], [ 0, %r ]
  ret i32 %p
}
"""
        )
        fn = m.get("f")
        x = fn.entry.instructions[0]
        phi = fn.get_block("join").instructions[0]
        phi.incoming[1] = (x, phi.incoming[1][1])
        with pytest.raises(VerifierError, match="%p uses %x"):
            verify_module(m)
