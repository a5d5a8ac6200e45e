"""Cloning and extraction of IR.

Two operations drive the whole Odin pipeline (§3.3):

* :func:`clone_module` — the scheduler "creates a temporary IR by
  duplicating all changed symbols inside the original IR"; the returned
  :class:`ValueMap` is what the user-facing ``Scheduler.map()`` exposes.

* :func:`extract_module` — fragment extraction: take a set of symbols to
  *define*, import (declare) everything else they reference, and clone
  "Copy-on-use" symbols locally so local optimization keeps its context.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import IRError
from repro.ir.instructions import (
    AllocaInst,
    BinaryInst,
    BranchInst,
    CallInst,
    CastInst,
    FreezeInst,
    GepInst,
    IcmpInst,
    Instruction,
    LoadInst,
    PhiInst,
    RetInst,
    SelectInst,
    StoreInst,
    SwitchInst,
    UnreachableInst,
)
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.types import FunctionType
from repro.ir.values import (
    Argument,
    Constant,
    GlobalAlias,
    GlobalValue,
    GlobalVariable,
    Value,
)


class ValueMap:
    """Maps original values to their clones (identity-keyed)."""

    def __init__(self):
        self._map: Dict[int, Value] = {}
        self._blocks: Dict[int, BasicBlock] = {}

    def put(self, original: Value, clone: Value) -> None:
        self._map[id(original)] = clone

    def get(self, original: Value) -> Value:
        """Translate *original*.

        Constants map to themselves.  Unmapped globals also map to
        themselves, which is what same-module cloning (inlining, loop
        unrolling) needs; cross-module cloning pre-populates the map with
        clones/declarations for every referenced global, and the module
        verifier catches any reference that slips through.
        """
        hit = self._map.get(id(original))
        if hit is not None:
            return hit
        if isinstance(original, (Constant, GlobalValue)):
            return original
        raise IRError(f"value {original!r} has no clone in this mapping")

    def get_or_none(self, original: Value) -> Optional[Value]:
        return self._map.get(id(original))

    def put_block(self, original: BasicBlock, clone: BasicBlock) -> None:
        self._blocks[id(original)] = clone

    def get_block(self, original: BasicBlock) -> BasicBlock:
        try:
            return self._blocks[id(original)]
        except KeyError:
            raise IRError(f"block {original.name} has no clone in this mapping") from None

    def __contains__(self, original: Value) -> bool:
        return id(original) in self._map


def clone_instruction(inst: Instruction, vmap: ValueMap) -> Instruction:
    """Clone one instruction, translating operands through *vmap*.

    Phi incomings are translated lazily by :func:`clone_function_body`
    because they may reference not-yet-cloned values/blocks.
    """
    op = vmap.get
    if isinstance(inst, BinaryInst):
        return BinaryInst(inst.opcode, op(inst.lhs), op(inst.rhs), inst.name)
    if isinstance(inst, IcmpInst):
        return IcmpInst(inst.predicate, op(inst.lhs), op(inst.rhs), inst.name)
    if isinstance(inst, CastInst):
        return CastInst(inst.opcode, op(inst.value), inst.type, inst.name)
    if isinstance(inst, SelectInst):
        return SelectInst(op(inst.cond), op(inst.if_true), op(inst.if_false), inst.name)
    if isinstance(inst, FreezeInst):
        return FreezeInst(op(inst.value), inst.name)
    if isinstance(inst, AllocaInst):
        return AllocaInst(inst.allocated_type, inst.name)
    if isinstance(inst, LoadInst):
        return LoadInst(inst.type, op(inst.pointer), inst.name)
    if isinstance(inst, StoreInst):
        return StoreInst(op(inst.value), op(inst.pointer))
    if isinstance(inst, GepInst):
        return GepInst(inst.element_type, op(inst.base), op(inst.index), inst.name)
    if isinstance(inst, CallInst):
        return CallInst(
            op(inst.callee), [op(a) for a in inst.args], inst.function_type, inst.name
        )
    if isinstance(inst, PhiInst):
        return PhiInst(inst.type, inst.name)  # incomings filled in later
    if isinstance(inst, BranchInst):
        if inst.is_conditional:
            t, f = inst.targets
            return BranchInst(vmap.get_block(t), op(inst.cond), vmap.get_block(f))
        return BranchInst(vmap.get_block(inst.targets[0]))
    if isinstance(inst, SwitchInst):
        clone = SwitchInst(op(inst.value), vmap.get_block(inst.default))
        for const, block in inst.cases:
            clone.add_case(const, vmap.get_block(block))
        return clone
    if isinstance(inst, RetInst):
        return RetInst(op(inst.value) if inst.value is not None else None)
    if isinstance(inst, UnreachableInst):
        return UnreachableInst()
    raise IRError(f"cannot clone instruction {inst!r}")  # pragma: no cover


def clone_function_body(source: Function, dest: Function, vmap: ValueMap) -> None:
    """Clone *source*'s blocks into the (empty) definition *dest*.

    Blocks are visited in reverse-postorder so every non-phi use sees its
    definition already cloned (a definition dominates its uses, and
    dominators precede dominatees in RPO).  Unreachable blocks are dropped;
    phi incomings from them are filtered out.
    """
    from repro.ir.analysis import reachable_blocks

    if dest.blocks:
        raise IRError(f"@{dest.name} already has a body")
    for arg, new_arg in zip(source.args, dest.args):
        vmap.put(arg, new_arg)
    order = reachable_blocks(source)
    # Create empty blocks first so branches can resolve targets.
    for block in order:
        vmap.put_block(block, dest.add_block(block.name))
    # Clone straight-line code.
    phi_fixups: List[PhiInst] = []
    for block in order:
        new_block = vmap.get_block(block)
        for inst in block.instructions:
            clone = clone_instruction(inst, vmap)
            clone.parent = new_block
            if not clone.type.is_void():
                clone.name = dest.uniquify_value_name(inst.name or "v")
            new_block.instructions.append(clone)
            vmap.put(inst, clone)
            if isinstance(inst, PhiInst):
                phi_fixups.append(inst)
    # Fill phi incomings now that every value has a clone.
    for phi in phi_fixups:
        clone = vmap.get(phi)
        for value, pred in phi.incoming:
            pred_clone = vmap._blocks.get(id(pred))
            if pred_clone is None:
                continue  # incoming edge from an unreachable block
            clone.add_incoming(vmap.get(value), pred_clone)


def _clone_symbol_shell(symbol: GlobalValue, *, as_declaration: bool) -> GlobalValue:
    """Clone a symbol without its body/initializer links resolved."""
    if isinstance(symbol, Function):
        fn = Function(
            symbol.name,
            symbol.function_type,
            [a.name for a in symbol.args],
            symbol.linkage,
        )
        return fn
    if isinstance(symbol, GlobalVariable):
        init = None if as_declaration else symbol.initializer
        return GlobalVariable(
            symbol.name,
            symbol.value_type,
            init,
            is_const=symbol.is_const,
            linkage=symbol.linkage,
        )
    raise IRError(f"cannot clone symbol @{symbol.name} of kind {type(symbol).__name__}")


def declaration_for(symbol: GlobalValue) -> GlobalValue:
    """Build an import (declaration) for *symbol* under its own name.

    Importing an alias declares a symbol of the *aliasee's* kind under the
    alias's name — at the object level an alias is just another name.
    """
    target = symbol.resolve() if isinstance(symbol, GlobalAlias) else symbol
    if isinstance(target, Function):
        decl = Function(symbol.name, target.function_type)
        return decl
    if isinstance(target, GlobalVariable):
        return GlobalVariable(
            symbol.name, target.value_type, None, is_const=target.is_const
        )
    raise IRError(f"cannot declare symbol @{symbol.name}")


def clone_module(module: Module, name: Optional[str] = None) -> "ClonedModule":
    """Deep-copy an entire module; returns the clone plus the value map."""
    dest = Module(name or module.name)
    vmap = ValueMap()
    # Pass 1: create all symbol shells so cross-references resolve.
    for symbol in module.symbols.values():
        if isinstance(symbol, GlobalAlias):
            continue  # created after aliasees exist
        shell = _clone_symbol_shell(symbol, as_declaration=symbol.is_declaration())
        dest.add(shell)
        vmap.put(symbol, shell)
    for symbol in module.symbols.values():
        if isinstance(symbol, GlobalAlias):
            aliasee = vmap.get(symbol.aliasee)
            alias = GlobalAlias(symbol.name, aliasee, symbol.linkage)
            dest.add(alias)
            vmap.put(symbol, alias)
    # Pass 2: clone function bodies.
    for symbol in module.symbols.values():
        if isinstance(symbol, Function) and not symbol.is_declaration():
            clone_function_body(symbol, vmap.get(symbol), vmap)
    return ClonedModule(dest, vmap)


class ClonedModule:
    """Result of :func:`clone_module`: the new module plus the value map."""

    def __init__(self, module: Module, vmap: ValueMap):
        self.module = module
        self.vmap = vmap

    def map(self, original: Value) -> Value:
        """Translate an original-IR value into the cloned module (§4 API)."""
        return self.vmap.get(original)


def extract_module(
    module: Module,
    define: Iterable[str],
    copy_on_use: Iterable[str] = (),
    name: str = "fragment",
) -> Module:
    """Extract a fragment module (see :func:`extract_module_ex`)."""
    return extract_module_ex(module, define, copy_on_use, name)[0]


def extract_module_ex(
    module: Module,
    define: Iterable[str],
    copy_on_use: Iterable[str] = (),
    name: str = "fragment",
) -> "Tuple[Module, ValueMap]":
    """Extract a fragment module.

    * symbols in *define* are cloned as definitions (original linkage kept)
    * symbols in *copy_on_use* referenced (transitively) by the definitions
      are cloned as **internal** definitions — the paper's local cloning,
      "marked internal to prevent conflicts at link time" (§3.2 step 2)
    * every other referenced symbol is imported as a declaration
      (§3.2 step 3: "importing a missing symbol ensures IR correctness")
    """
    define = list(dict.fromkeys(define))
    copy_set: Set[str] = set(copy_on_use)
    dest = Module(name)
    vmap = ValueMap()

    worklist: List[str] = list(define)
    to_define: List[GlobalValue] = []
    defined_names: Set[str] = set()

    # The scan-and-add operation is performed recursively, since a cloned
    # symbol may reference previously-unseen missing symbols (§3.2 step 3).
    while worklist:
        sym_name = worklist.pop(0)
        if sym_name in defined_names:
            continue
        defined_names.add(sym_name)
        symbol = module.get(sym_name)
        to_define.append(symbol)
        for ref in _referenced_symbols(symbol):
            if ref.name in defined_names:
                continue
            if ref.name in copy_set:
                worklist.append(ref.name)

    # Create shells/declarations.
    for symbol in to_define:
        if isinstance(symbol, GlobalAlias):
            continue
        shell = _clone_symbol_shell(symbol, as_declaration=symbol.is_declaration())
        if symbol.name in copy_set and symbol.name not in define:
            shell.linkage = "internal"
        dest.add(shell)
        vmap.put(symbol, shell)
    for symbol in to_define:
        if isinstance(symbol, GlobalAlias):
            aliasee = vmap.get_or_none(symbol.aliasee)
            if aliasee is None:
                raise IRError(
                    f"alias @{symbol.name} extracted without its aliasee "
                    f"@{symbol.aliasee.name} (innate constraint violated)"
                )
            alias = GlobalAlias(symbol.name, aliasee, symbol.linkage)
            dest.add(alias)
            vmap.put(symbol, alias)

    # Imports for everything referenced but not defined here.
    for symbol in to_define:
        for ref in _referenced_symbols(symbol):
            if ref.name in defined_names or ref.name in dest:
                continue
            decl = declaration_for(ref)
            dest.add(decl)
            vmap.put(ref, decl)

    # Clone bodies.
    for symbol in to_define:
        if isinstance(symbol, Function) and not symbol.is_declaration():
            clone_function_body(symbol, vmap.get(symbol), vmap)
    return dest, vmap


def _referenced_symbols(symbol: GlobalValue) -> List[GlobalValue]:
    if isinstance(symbol, Function):
        return symbol.referenced_globals()
    if isinstance(symbol, GlobalAlias):
        return [symbol.aliasee]
    return []
