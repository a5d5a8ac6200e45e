"""Tests for IR instruction construction and invariants."""

import pytest

from repro.errors import IRError, IRTypeError
from repro.ir.builder import IRBuilder, build_function
from repro.ir.instructions import (
    BinaryInst,
    BranchInst,
    CallInst,
    CastInst,
    IcmpInst,
    INVERTED_PREDICATE,
    PhiInst,
    SelectInst,
    StoreInst,
    SWAPPED_PREDICATE,
    SwitchInst,
)
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.types import FunctionType, I1, I32, I64, I8, PTR, VOID
from repro.ir.values import ConstantInt, NullPtr


def make_fn():
    m = Module("t")
    return build_function(m, "f", FunctionType(I32, (I32, I32)), ["a", "b"])


class TestBinary:
    def test_type_mismatch_rejected(self):
        with pytest.raises(IRTypeError):
            BinaryInst("add", ConstantInt(I32, 1), ConstantInt(I64, 1))

    def test_unknown_opcode(self):
        with pytest.raises(IRError):
            BinaryInst("fadd", ConstantInt(I32, 1), ConstantInt(I32, 1))

    def test_commutativity(self):
        add = BinaryInst("add", ConstantInt(I32, 1), ConstantInt(I32, 2))
        sub = BinaryInst("sub", ConstantInt(I32, 1), ConstantInt(I32, 2))
        assert add.is_commutative()
        assert not sub.is_commutative()


class TestIcmp:
    def test_produces_i1(self):
        cmp = IcmpInst("slt", ConstantInt(I32, 1), ConstantInt(I32, 2))
        assert cmp.type is I1

    def test_pointer_compare(self):
        cmp = IcmpInst("eq", NullPtr(), NullPtr())
        assert cmp.type is I1

    def test_bad_predicate(self):
        with pytest.raises(IRError):
            IcmpInst("lt", ConstantInt(I32, 1), ConstantInt(I32, 2))

    def test_predicate_tables_are_involutions(self):
        for pred, swapped in SWAPPED_PREDICATE.items():
            assert SWAPPED_PREDICATE[swapped] == pred
        for pred, inv in INVERTED_PREDICATE.items():
            assert INVERTED_PREDICATE[inv] == pred


class TestCasts:
    def test_zext_must_widen(self):
        with pytest.raises(IRTypeError):
            CastInst("zext", ConstantInt(I32, 0), I32)
        with pytest.raises(IRTypeError):
            CastInst("zext", ConstantInt(I32, 0), I8)

    def test_trunc_must_narrow(self):
        with pytest.raises(IRTypeError):
            CastInst("trunc", ConstantInt(I8, 0), I32)

    def test_ptr_int_roundtrip_types(self):
        p2i = CastInst("ptrtoint", NullPtr(), I64)
        assert p2i.type is I64
        i2p = CastInst("inttoptr", ConstantInt(I64, 0), PTR)
        assert i2p.type is PTR


class TestSelect:
    def test_condition_must_be_i1(self):
        with pytest.raises(IRTypeError):
            SelectInst(ConstantInt(I32, 1), ConstantInt(I32, 1), ConstantInt(I32, 2))

    def test_arm_types_must_match(self):
        with pytest.raises(IRTypeError):
            SelectInst(ConstantInt(I1, 1), ConstantInt(I32, 1), ConstantInt(I64, 2))


class TestCalls:
    def test_arity_checked(self):
        m = Module("t")
        callee = m.add(Function("g", FunctionType(VOID, (I32,))))
        with pytest.raises(IRTypeError):
            CallInst(callee, [], callee.function_type)

    def test_vararg_extra_args_allowed(self):
        m = Module("t")
        callee = m.add(Function("g", FunctionType(I32, (PTR,), vararg=True)))
        call = CallInst(callee, [NullPtr(), ConstantInt(I64, 1)], callee.function_type)
        assert call.called_function_name() == "g"

    def test_arg_type_checked(self):
        m = Module("t")
        callee = m.add(Function("g", FunctionType(VOID, (I32,))))
        with pytest.raises(IRTypeError):
            CallInst(callee, [ConstantInt(I64, 0)], callee.function_type)


class TestControlFlow:
    def test_branch_successors(self):
        fn, builder, (a, b) = make_fn()
        t = fn.add_block("t")
        f = fn.add_block("f")
        cond = builder.icmp("slt", a, b)
        br = builder.condbr(cond, t, f)
        assert br.successors() == [t, f]
        assert br.is_conditional

    def test_switch_duplicate_case_rejected(self):
        fn, builder, (a, _) = make_fn()
        d = fn.add_block("d")
        sw = builder.switch(a, d)
        c = fn.add_block("c")
        sw.add_case(ConstantInt(I32, 1), c)
        with pytest.raises(IRError):
            sw.add_case(ConstantInt(I32, 1), c)

    def test_switch_case_type_checked(self):
        fn, builder, (a, _) = make_fn()
        d = fn.add_block("d")
        sw = builder.switch(a, d)
        with pytest.raises(IRTypeError):
            sw.add_case(ConstantInt(I64, 1), d)

    def test_terminator_blocks_further_appends(self):
        fn, builder, (a, _) = make_fn()
        builder.ret(a)
        with pytest.raises(IRError):
            builder.ret(a)


class TestPhi:
    def test_incoming_type_checked(self):
        fn, builder, _ = make_fn()
        phi = PhiInst(I32)
        with pytest.raises(IRTypeError):
            phi.add_incoming(ConstantInt(I64, 0), fn.entry)

    def test_replace_uses_covers_incomings(self):
        fn, builder, (a, b) = make_fn()
        phi = PhiInst(I32)
        phi.add_incoming(a, fn.entry)
        assert phi.replace_uses_of(a, b) == 1
        assert phi.incoming[0][0] is b

    def test_incoming_for_missing_block(self):
        fn, _, _ = make_fn()
        phi = PhiInst(I32)
        with pytest.raises(IRError):
            phi.incoming_for(fn.entry)


class TestRewriting:
    def test_replace_uses_of(self):
        fn, builder, (a, b) = make_fn()
        add = builder.add(a, a)
        assert add.replace_uses_of(a, b) == 2
        assert add.lhs is b and add.rhs is b

    def test_erase_detaches(self):
        fn, builder, (a, b) = make_fn()
        add = builder.add(a, b)
        add.erase()
        assert add.parent is None
        assert add not in fn.entry.instructions
        with pytest.raises(IRError):
            add.erase()

    def test_side_effects(self):
        fn, builder, (a, b) = make_fn()
        add = builder.add(a, b)
        slot = builder.alloca(I32)
        store = builder.store(a, slot)
        assert not add.has_side_effects()
        assert store.has_side_effects()


class TestDefUse:
    """Every write of a local value into an operand slot or a phi incoming
    records the user; constants and globals record none."""

    def test_construction_and_rewrites_register_users(self):
        fn, builder, (a, b) = make_fn()
        add = builder.add(a, ConstantInt(I32, 1))
        mul = builder.mul(add, add)
        assert list(a.users) == [add]
        assert list(add.users) == [mul]
        add.replace_uses_of(a, b)
        assert add in b.users
        phi = PhiInst(I32)
        phi.add_incoming(mul, fn.entry)
        assert phi in mul.users

    def test_set_args_registers_users(self):
        m = Module("t")
        callee = m.add(Function("g", FunctionType(I32, (I32,))))
        fn, builder, (a, b) = build_function(m, "f", FunctionType(I32, (I32, I32)), ["a", "b"])
        call = builder.call(callee, [a])
        call.set_args([b])
        assert call in b.users

    def test_constants_and_globals_record_no_users(self):
        fn, builder, (a, _) = make_fn()
        one = ConstantInt(I32, 1)
        builder.add(a, one)
        builder.call(fn, [one, one])
        assert one.users is None and fn.users is None

    def test_replace_all_uses_skips_erased_and_removed_users(self):
        fn, builder, (a, b) = make_fn()
        kept = builder.add(a, a)
        erased = builder.add(a, ConstantInt(I32, 2))
        erased.erase()
        side = fn.add_block("side")
        moved_out = IRBuilder.at_end(side).add(a, ConstantInt(I32, 3))
        fn.remove_block(side)
        assert fn.replace_all_uses(a, b) == 2
        assert kept.lhs is b and kept.rhs is b
        assert erased.lhs is a and moved_out.lhs is a

    def test_users_of_filters_stale_entries(self):
        fn, builder, (a, b) = make_fn()
        phi = IRBuilder.at_end(fn.add_block("join")).phi(I32)
        phi.add_incoming(a, fn.entry)
        add = builder.add(a, b)
        assert set(fn.users_of(a)) == {phi, add}
        phi.remove_incoming(fn.entry)  # leaves phi in a.users
        add.replace_uses_of(a, b)
        assert a.users and fn.users_of(a) == []

    def test_untracked_value_rejected(self):
        fn, _, _ = make_fn()
        with pytest.raises(IRError, match="not a function-local value"):
            fn.replace_all_uses(ConstantInt(I32, 1), ConstantInt(I32, 2))
