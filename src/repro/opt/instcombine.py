"""Instruction Combining: the classic peephole pass.

This pass carries the paper's two signature case studies:

* **Figure 2** (`islower`): after simplifycfg turns the two-comparison
  diamond into ``and (icmp sge X, a), (icmp sle X, b)``, the range-fold
  pattern here rewrites it to ``add X, -a`` + ``icmp ult off, b-a+1`` —
  one comparison, no branches, and exactly the distortion that breaks
  coverage feedback and input-to-state correspondence.

* **Figure 4** (`printf -> puts`): rewriting ``printf("hello\\n")`` into
  ``puts("hello")`` requires *inspecting the string constant*, so in trial
  mode the pass logs a ``copy_on_use`` requirement on the constant — which
  is how the partitioner learns to clone format strings into fragments.

Value-level rewrites never cross a :class:`FreezeInst` barrier, which is
what instrumentation schemes use to pin original values.
"""

from __future__ import annotations

from typing import Optional

from repro.ir.builder import IRBuilder
from repro.ir.instructions import (
    BinaryInst,
    CallInst,
    CastInst,
    IcmpInst,
    Instruction,
    INVERTED_PREDICATE,
    PhiInst,
    SelectInst,
    SWAPPED_PREDICATE,
)
from repro.ir.module import Function, Module
from repro.ir.semantics import eval_binary, eval_cast, eval_icmp
from repro.ir.types import FunctionType, I1, I32, IntType, PTR
from repro.ir.values import ConstantData, ConstantInt, GlobalVariable, UndefValue, Value
from repro.opt.pass_manager import FunctionPass, OptContext, REQ_COPY_ON_USE

TRUE = ConstantInt(I1, 1)
FALSE = ConstantInt(I1, 0)


def _const(value: Value) -> Optional[ConstantInt]:
    return value if isinstance(value, ConstantInt) else None


def _constant_to_the_right(inst: Instruction) -> bool:
    """Canonicalize a commutative binary op or an icmp whose only
    constant operand is on the left; returns whether it swapped."""
    if not (isinstance(inst, IcmpInst) or (
        isinstance(inst, BinaryInst) and inst.is_commutative()
    )):
        return False
    lhs, rhs = inst.operands[0], inst.operands[1]
    if _const(lhs) is None or _const(rhs) is not None:
        return False
    inst.operands[0], inst.operands[1] = rhs, lhs
    if isinstance(inst, IcmpInst):
        inst.predicate = SWAPPED_PREDICATE[inst.predicate]
    return True


class InstCombine(FunctionPass):
    name = "instcombine"

    def run_on_function(self, fn: Function, module: Module, ctx: OptContext) -> bool:
        changed = False
        progress = True
        while progress:
            progress = False
            for block in list(fn.blocks):
                for inst in list(block.instructions):
                    if inst.parent is None:
                        continue  # erased by an earlier rewrite this sweep
                    # A swap changes the function, though it gives this
                    # sweep nothing new to do.
                    changed |= _constant_to_the_right(inst)
                    replacement = self._simplify(inst, fn, module, ctx)
                    if replacement is not None:
                        fn.replace_all_uses(inst, replacement)
                        inst.erase()
                        ctx.count("instcombine.simplified")
                        progress = changed = True
        return changed

    # -- dispatch ------------------------------------------------------------

    def _simplify(
        self, inst: Instruction, fn: Function, module: Module, ctx: OptContext
    ) -> Optional[Value]:
        if isinstance(inst, BinaryInst):
            return self._simplify_binary(inst, fn, ctx)
        if isinstance(inst, IcmpInst):
            return self._simplify_icmp(inst, ctx)
        if isinstance(inst, CastInst):
            return self._simplify_cast(inst)
        if isinstance(inst, SelectInst):
            return self._simplify_select(inst, fn, ctx)
        if isinstance(inst, PhiInst):
            return self._simplify_phi(inst)
        if isinstance(inst, CallInst):
            return self._simplify_call(inst, fn, module, ctx)
        return None

    # -- binary ops -----------------------------------------------------------

    def _simplify_binary(
        self, inst: BinaryInst, fn: Function, ctx: OptContext
    ) -> Optional[Value]:
        lhs, rhs = inst.lhs, inst.rhs
        cl, cr = _const(lhs), _const(rhs)
        type_: IntType = inst.type

        # Constant folding.
        if cl is not None and cr is not None:
            try:
                return ConstantInt(type_, eval_binary(inst.opcode, type_, cl.value, cr.value))
            except ZeroDivisionError:
                return None  # leave the trap to runtime

        op = inst.opcode
        if cr is not None:
            if op in ("add", "sub", "or", "xor", "shl", "lshr", "ashr") and cr.is_zero():
                return lhs
            if op == "mul":
                if cr.is_zero():
                    return cr
                if cr.value == 1:
                    return lhs
                # Strength reduction: mul by power of two -> shl.
                if cr.value > 1 and cr.value & (cr.value - 1) == 0:
                    shift = cr.value.bit_length() - 1
                    builder = IRBuilder.before(inst)
                    ctx.count("instcombine.strength_reduce")
                    return builder.shl(lhs, ConstantInt(type_, shift))
            if op == "and":
                if cr.is_zero():
                    return cr
                if cr.value == type_.umax:
                    return lhs
            if op in ("sdiv", "udiv") and cr.value == 1:
                return lhs

            # (x + C1) + C2 -> x + (C1+C2): reassociation enabling range folds.
            if op == "add" and isinstance(lhs, BinaryInst) and lhs.opcode == "add":
                inner = _const(lhs.rhs)
                if inner is not None:
                    builder = IRBuilder.before(inst)
                    folded = ConstantInt(type_, eval_binary("add", type_, inner.value, cr.value))
                    return builder.add(lhs.lhs, folded)

        # x - x, x ^ x -> 0 ; x & x, x | x -> x.
        if lhs is rhs:
            if op in ("sub", "xor"):
                return ConstantInt(type_, 0)
            if op in ("and", "or"):
                return lhs

        # Range fold: and(icmp sge X C1, icmp sle X C2)
        #   -> icmp ult (add X, -C1), (C2 - C1 + 1)        [Figure 2]
        if op == "and" and inst.type is I1:
            folded = self._fold_range_check(inst, fn, ctx)
            if folded is not None:
                return folded
        return None

    def _fold_range_check(
        self, inst: BinaryInst, fn: Function, ctx: OptContext
    ) -> Optional[Value]:
        def bounds(cmp: Value):
            """Return (X, lo, hi) for 'lo <= X' / 'X <= hi' style compares."""
            if not isinstance(cmp, IcmpInst):
                return None
            c = _const(cmp.rhs)
            if c is None or not isinstance(cmp.lhs.type, IntType):
                return None
            pred, x, k = cmp.predicate, cmp.lhs, c.signed
            if pred == "sge":
                return (x, k, None)
            if pred == "sgt":
                return (x, k + 1, None)
            if pred == "sle":
                return (x, None, k)
            if pred == "slt":
                return (x, None, k - 1)
            return None

        a, b = bounds(inst.lhs), bounds(inst.rhs)
        if a is None or b is None:
            return None
        if a[0] is not b[0]:
            return None
        x = a[0]
        lo = a[1] if a[1] is not None else b[1]
        hi = a[2] if a[2] is not None else b[2]
        if lo is None or hi is None or hi < lo:
            return None
        type_: IntType = x.type
        if lo < type_.smin or hi > type_.smax:
            return None
        # Both compares must be dead after the fold to be profitable; since
        # the and is their only use in the canonical pattern, just emit it.
        builder = IRBuilder.before(inst)
        if lo == 0:
            offset = x
        else:
            offset = builder.add(x, ConstantInt(type_, -lo))
        ctx.count("instcombine.range_fold")
        return builder.icmp("ult", offset, ConstantInt(type_, hi - lo + 1))

    # -- icmp -------------------------------------------------------------------

    def _simplify_icmp(self, inst: IcmpInst, ctx: OptContext) -> Optional[Value]:
        cl, cr = _const(inst.lhs), _const(inst.rhs)
        if cl is not None and cr is not None:
            result = eval_icmp(inst.predicate, inst.lhs.type, cl.value, cr.value)
            return TRUE if result else FALSE
        if inst.lhs is inst.rhs:
            always_true = inst.predicate in ("eq", "sle", "sge", "ule", "uge")
            return TRUE if always_true else FALSE
        return None

    # -- casts --------------------------------------------------------------------

    def _simplify_cast(self, inst: CastInst) -> Optional[Value]:
        if inst.opcode not in ("zext", "sext", "trunc"):
            return None
        c = _const(inst.value)
        if c is not None:
            return ConstantInt(
                inst.type, eval_cast(inst.opcode, c.type, inst.type, c.value)
            )
        # trunc(zext/sext x) where widths return to the original -> x.
        inner = inst.value
        if (
            inst.opcode == "trunc"
            and isinstance(inner, CastInst)
            and inner.opcode in ("zext", "sext")
            and inner.value.type is inst.type
        ):
            return inner.value
        return None

    # -- select / phi -----------------------------------------------------------------

    def _simplify_select(
        self, inst: SelectInst, fn: Function, ctx: OptContext
    ) -> Optional[Value]:
        c = _const(inst.cond)
        if c is not None:
            return inst.if_true if c.value else inst.if_false
        if inst.if_true is inst.if_false:
            return inst.if_true
        # Boolean selects become logic ops, feeding the range fold.
        if inst.type is I1:
            t, f = _const(inst.if_true), _const(inst.if_false)
            builder = IRBuilder.before(inst)
            if f is not None and f.is_zero():
                return builder.and_(inst.cond, inst.if_true)  # select c, x, false
            if t is not None and t.value == 1:
                return builder.or_(inst.cond, inst.if_false)  # select c, true, x
        return None

    def _simplify_phi(self, inst: PhiInst) -> Optional[Value]:
        from repro.ir.instructions import Instruction as IRInstruction

        values = [v for v, _ in inst.incoming if v is not inst]
        unique = []
        dropped_undef = False
        for v in values:
            if isinstance(v, UndefValue):
                dropped_undef = True
                continue
            if all(u is not v and not _same_const(u, v) for u in unique):
                unique.append(v)
        if len(unique) != 1:
            return None
        value = unique[0]
        # If we ignored undef incomings, the surviving value only reaches
        # the phi along *some* edges, so it need not dominate the phi's
        # block.  Folding is then only safe for values that dominate
        # everything (constants, arguments, globals).
        if dropped_undef and isinstance(value, IRInstruction):
            return None
        return value

    # -- library call rewrites -----------------------------------------------------------

    def _simplify_call(
        self, inst: CallInst, fn: Function, module: Module, ctx: OptContext
    ) -> Optional[Value]:
        if inst.called_function_name() != "printf" or len(inst.args) != 1:
            return None
        fmt = inst.args[0]
        if not isinstance(fmt, GlobalVariable) or not fmt.is_const:
            return None
        init = fmt.initializer
        if not isinstance(init, ConstantData):
            return None  # declaration or non-string data: no context
        data = init.data
        if not data.endswith(b"\n\x00") or b"%" in data:
            return None
        # Inspecting @fmt's initializer is the "local optimization needs the
        # referenced symbol" dependency of Figure 4.
        ctx.log_requirement(REQ_COPY_ON_USE, fmt.name, fn.name, self.name)

        stripped = data[:-2] + b"\x00"
        new_global = self._string_global(module, stripped, hint=fmt.name)
        puts = module.get_or_none("puts")
        if puts is None:
            from repro.ir.module import Function as IRFunction

            puts = module.add(IRFunction("puts", FunctionType(I32, (PTR,))))
        builder = IRBuilder.before(inst)
        ctx.count("instcombine.printf_to_puts")
        return builder.call(puts, [new_global], puts.function_type)

    @staticmethod
    def _string_global(module: Module, data: bytes, hint: str) -> GlobalVariable:
        for gv in module.global_variables():
            if (
                gv.is_const
                and isinstance(gv.initializer, ConstantData)
                and gv.initializer.data == data
            ):
                return gv
        name = f"{hint}.puts"
        counter = 0
        while name in module:
            counter += 1
            name = f"{hint}.puts.{counter}"
        return module.add(
            GlobalVariable(name, ConstantData(data).type, ConstantData(data),
                           is_const=True, linkage="internal")
        )


def _same_const(a: Value, b: Value) -> bool:
    return isinstance(a, ConstantInt) and isinstance(b, ConstantInt) and a == b
