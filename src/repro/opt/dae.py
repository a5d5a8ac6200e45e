"""Dead Argument Elimination — the paper's flagship interprocedural pass.

§2.3 / Figure 4: removing an unused parameter changes both the function's
semantics *and its ABI*, so callee and callers "must be modified in pairs".
This pass therefore:

* only transforms **internal** functions whose every use is a direct call
  (an externally visible function might have callers outside the module —
  the "remedy" from §2.3 that blocks the transform);
* in trial mode, logs a ``bond`` requirement between the callee and each
  caller, which the partitioner turns into a Bond cluster (§3.2 step 1).
"""

from __future__ import annotations

from typing import List, Set

from repro.ir.instructions import CallInst, PhiInst
from repro.ir.module import Function, Module
from repro.ir.types import FunctionType
from repro.ir.values import Argument
from repro.opt.pass_manager import OptContext, Pass, REQ_BOND, RunRecord


def _used_argument_indices(fn: Function) -> Set[int]:
    used: Set[int] = set()
    arg_ids = {id(a): a.index for a in fn.args}
    for inst in fn.instructions():
        ops = list(inst.operands)
        if isinstance(inst, PhiInst):
            ops.extend(inst.used_values())
        for op in ops:
            idx = arg_ids.get(id(op))
            if idx is not None:
                used.add(idx)
    return used


def _only_directly_called(fn: Function, module: Module) -> bool:
    """True when @fn is never referenced except as a direct call callee."""
    for other in module.defined_functions():
        for inst in other.instructions():
            ops = list(inst.operands)
            if isinstance(inst, PhiInst):
                ops.extend(inst.used_values())
            for i, op in enumerate(ops):
                if op is fn:
                    if not (isinstance(inst, CallInst) and i == 0):
                        return False
    for alias in module.aliases():
        if alias.aliasee is fn:
            return False
    return True


class DeadArgumentElimination(Pass):
    name = "dae"

    def run(self, module: Module, ctx: OptContext) -> bool:
        return self.run_in(module, ctx, RunRecord())

    def run_in(self, module: Module, ctx: OptContext, record: RunRecord) -> bool:
        changed = False
        for fn in list(module.defined_functions()):
            if not fn.is_internal:
                continue  # ABI must stay stable: not all callers are visible
            if fn.function_type.vararg:
                continue
            if not fn.args:
                continue
            ctx.charge(fn.count_instructions())
            used = _used_argument_indices(fn)
            dead = [i for i in range(len(fn.args)) if i not in used]
            if not dead:
                continue
            if not _only_directly_called(fn, module):
                continue
            callers = module.callers_of(fn.name)
            for caller in callers:
                if caller is not fn:
                    ctx.log_requirement(REQ_BOND, fn.name, caller.name, self.name)
            self._rewrite(fn, module, dead, ctx)
            # The rewrite changes the callee and its call sites alone.
            record.changed(fn)
            for caller in callers:
                record.changed(caller)
            changed = True
        return changed

    @staticmethod
    def _rewrite(fn: Function, module: Module, dead: List[int], ctx: OptContext) -> None:
        keep = [i for i in range(len(fn.args)) if i not in dead]
        old_type = fn.function_type
        new_type = FunctionType(
            old_type.ret, tuple(old_type.params[i] for i in keep), old_type.vararg
        )

        # Shrink the callee in place: new Argument objects, remapped uses.
        old_args = fn.args
        fn.function_type = new_type
        fn.args = []
        for new_index, old_index in enumerate(keep):
            old_arg = old_args[old_index]
            fn.args.append(Argument(old_arg.type, old_arg.name, fn, new_index))
        for new_arg, old_index in zip(fn.args, keep):
            fn.replace_all_uses(old_args[old_index], new_arg)

        # Rewrite every call site to drop the dead arguments.
        for other in module.defined_functions():
            for inst in other.instructions():
                if isinstance(inst, CallInst) and inst.callee is fn:
                    inst.set_args([inst.args[i] for i in keep])
                    inst.function_type = new_type
        ctx.count("dae.removed_args", len(dead))
