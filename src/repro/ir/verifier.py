"""IR verifier.

Checks the structural invariants every pass must preserve:

* every block ends in exactly one terminator, which is the last instruction
* phi nodes have exactly one incoming per predecessor and sit at block heads
* every value use is dominated by its definition (SSA)
* operands attached to a function belong to that function
* every function-local operand lists its user in ``users`` (the def-use
  sets that make ``replace_all_uses`` cost O(uses))
* referenced globals are present in the module ("a well-formed IR cannot
  reference undefined symbols" — §3.2 step 3)
* alias symbols target definitions, not declarations (§2.3)
* phi incoming values carry the phi's result type
* call operand count/types match the called signature, and direct calls
  agree with the callee's declared type (ABI pairs, §2.3)
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.errors import VerifierError
from repro.ir.analysis import DominatorTree
from repro.ir.instructions import CallInst, Instruction, PhiInst
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.values import Argument, Constant, GlobalValue, Value


def verify_module(module: Module) -> None:
    """Raise :class:`VerifierError` on the first violation found."""
    for alias in module.aliases():
        if alias.aliasee.name not in module.symbols:
            raise VerifierError(
                f"alias @{alias.name} targets @{alias.aliasee.name}, "
                f"which is not in the module"
            )
        if alias.aliasee.is_declaration():
            raise VerifierError(
                f"alias @{alias.name} targets declaration @{alias.aliasee.name}; "
                f"the base symbol must be defined (innate constraint)"
            )
    for fn in module.defined_functions():
        verify_function(fn, module)


def verify_function(fn: Function, module: Module = None) -> None:
    if module is None:
        module = fn.module
    if not fn.blocks:
        raise VerifierError(f"@{fn.name}: definition has no blocks")

    block_set = set(id(b) for b in fn.blocks)
    defined: Dict[int, BasicBlock] = {}

    for block in fn.blocks:
        _verify_block_shape(fn, block, block_set)
        for inst in block.instructions:
            defined[id(inst)] = block

    preds: Dict[BasicBlock, List[BasicBlock]] = {b: [] for b in fn.blocks}
    for block in fn.blocks:
        for succ in block.successors():
            preds[succ].append(block)

    _verify_phis(fn, preds)
    _verify_calls(fn)
    _verify_uses(fn, module, defined)
    _verify_dominance(fn, defined)


def _verify_block_shape(fn: Function, block: BasicBlock, block_set: Set[int]) -> None:
    if not block.instructions:
        raise VerifierError(f"@{fn.name}:{block.name}: empty block")
    term = block.instructions[-1]
    if not term.is_terminator:
        raise VerifierError(f"@{fn.name}:{block.name}: missing terminator")
    for inst in block.instructions[:-1]:
        if inst.is_terminator:
            raise VerifierError(
                f"@{fn.name}:{block.name}: terminator {inst.opcode} in block middle"
            )
    seen_non_phi = False
    for inst in block.instructions:
        if inst.parent is not block:
            raise VerifierError(
                f"@{fn.name}:{block.name}: instruction %{inst.name} has wrong parent"
            )
        if isinstance(inst, PhiInst):
            if seen_non_phi:
                raise VerifierError(
                    f"@{fn.name}:{block.name}: phi %{inst.name} after non-phi"
                )
        else:
            seen_non_phi = True
    for succ in term.successors():
        if id(succ) not in block_set:
            raise VerifierError(
                f"@{fn.name}:{block.name}: branch to block {succ.name} "
                f"outside the function"
            )


def _verify_phis(fn: Function, preds: Dict[BasicBlock, List[BasicBlock]]) -> None:
    for block in fn.blocks:
        pred_ids = {id(p) for p in preds[block]}
        for phi in block.phis():
            incoming_ids = [id(b) for _, b in phi.incoming]
            if len(set(incoming_ids)) != len(incoming_ids):
                raise VerifierError(
                    f"@{fn.name}:{block.name}: phi %{phi.name} has duplicate incoming"
                )
            if set(incoming_ids) != pred_ids:
                got = sorted(b.name for _, b in phi.incoming)
                want = sorted(p.name for p in preds[block])
                raise VerifierError(
                    f"@{fn.name}:{block.name}: phi %{phi.name} incoming {got} "
                    f"does not match predecessors {want}"
                )
            for value, pred in phi.incoming:
                if value.type is not phi.type:
                    raise VerifierError(
                        f"@{fn.name}:{block.name}: phi %{phi.name} incoming "
                        f"from {pred.name} has type {value.type}, "
                        f"expected {phi.type}"
                    )


def _verify_calls(fn: Function) -> None:
    for block in fn.blocks:
        for inst in block.instructions:
            if not isinstance(inst, CallInst):
                continue
            ftype = inst.function_type
            args = inst.args
            fixed = len(ftype.params)
            if len(args) < fixed or (len(args) > fixed and not ftype.vararg):
                raise VerifierError(
                    f"@{fn.name}:{block.name}: call %{inst.name or '?'} "
                    f"passes {len(args)} arguments, signature {ftype} "
                    f"expects {fixed}{'+' if ftype.vararg else ''}"
                )
            for i, (arg, pty) in enumerate(zip(args, ftype.params)):
                if arg.type is not pty:
                    raise VerifierError(
                        f"@{fn.name}:{block.name}: call argument {i} has "
                        f"type {arg.type}, signature expects {pty}"
                    )
            callee = inst.callee
            if isinstance(callee, Function) and callee.function_type is not ftype:
                raise VerifierError(
                    f"@{fn.name}:{block.name}: call to @{callee.name} uses "
                    f"signature {ftype}, but the callee is declared "
                    f"{callee.function_type}"
                )


def _all_operands(inst: Instruction) -> List[Value]:
    ops = list(inst.operands)
    if isinstance(inst, PhiInst):
        ops.extend(inst.used_values())
    return ops


def _verify_uses(fn: Function, module: Module, defined: Dict[int, BasicBlock]) -> None:
    args = {id(a) for a in fn.args}
    for block in fn.blocks:
        for inst in block.instructions:
            for op in _all_operands(inst):
                if isinstance(op, Constant):
                    continue
                if isinstance(op, GlobalValue):
                    if module is not None and op.name not in module.symbols:
                        raise VerifierError(
                            f"@{fn.name}: reference to @{op.name}, "
                            f"which is not in the module"
                        )
                    if module is not None and module.symbols[op.name] is not op:
                        raise VerifierError(
                            f"@{fn.name}: reference to stale symbol object @{op.name}"
                        )
                    continue
                if isinstance(op, Argument):
                    if id(op) not in args:
                        raise VerifierError(
                            f"@{fn.name}: use of foreign argument %{op.name}"
                        )
                elif isinstance(op, Instruction):
                    if id(op) not in defined:
                        raise VerifierError(
                            f"@{fn.name}: use of detached instruction %{op.name}"
                        )
                else:
                    raise VerifierError(f"@{fn.name}: unknown operand kind {op!r}")
                if inst not in op.users:
                    raise VerifierError(
                        f"@{fn.name}: %{inst.name or inst.opcode} uses %{op.name}, "
                        f"whose users do not list it"
                    )


def _verify_dominance(fn: Function, defined: Dict[int, BasicBlock]) -> None:
    dom = DominatorTree(fn)
    idom = dom.idom
    for block in fn.blocks:
        if block not in idom and block is not fn.entry:
            continue  # unreachable block: dominance is vacuous
        position = {id(inst): i for i, inst in enumerate(block.instructions)}
        for inst in block.instructions:
            if isinstance(inst, PhiInst):
                for value, pred in inst.incoming:
                    if isinstance(value, Instruction):
                        def_block = defined.get(id(value))
                        if def_block is None or pred not in idom and pred is not fn.entry:
                            continue
                        if not dom.dominates(def_block, pred):
                            raise VerifierError(
                                f"@{fn.name}:{block.name}: phi %{inst.name} incoming "
                                f"%{value.name} does not dominate edge from {pred.name}"
                            )
                continue
            for op in inst.operands:
                if not isinstance(op, Instruction):
                    continue
                def_block = defined.get(id(op))
                if def_block is block:
                    if position[id(op)] >= position[id(inst)]:
                        raise VerifierError(
                            f"@{fn.name}:{block.name}: %{inst.name} uses %{op.name} "
                            f"before its definition"
                        )
                elif not dom.dominates(def_block, block):
                    raise VerifierError(
                        f"@{fn.name}:{block.name}: %{inst.name} uses %{op.name}, "
                        f"whose definition in {def_block.name} does not dominate"
                    )
