"""Cloning and extraction of IR.

Two operations drive the whole Odin pipeline (§3.3):

* :func:`clone_module` — the scheduler "creates a temporary IR by
  duplicating all changed symbols inside the original IR"; the returned
  :class:`ValueMap` is what the user-facing ``Scheduler.map()`` exposes.

* :func:`extract_module` — fragment extraction: take a set of symbols to
  *define*, import (declare) everything else they reference, and clone
  "Copy-on-use" symbols locally so local optimization keeps its context.
  An :class:`ExtractionPlan` decides that content once; it either builds
  the module or prints its text without building it, which is how the
  engine splits fragments out of the temporary IR.
"""

from __future__ import annotations

from collections import deque
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
from repro.ir.analysis import reachable_blocks
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.printer import print_alias, print_function, print_global
from repro.ir.values import (
    LINKAGE_EXTERNAL,
    LINKAGE_INTERNAL,
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


def fragment_linkage(name: str, exported) -> str:
    """Linkage of a symbol a fragment defines (§3.2 step 4): exported
    symbols keep a stable external ABI, everything else becomes internal
    so local optimization has full IPO freedom."""
    return LINKAGE_EXTERNAL if name in exported else LINKAGE_INTERNAL


class ExtractionPlan:
    """What a module extracted from *module* holds, decided once.

    * ``definitions`` — the symbols in *define*, then the symbols in
      *copy_on_use* they reference (transitively), in worklist order: the
      paper's local cloning, "marked internal to prevent conflicts at
      link time" (§3.2 step 2)
    * ``imports`` — every other referenced symbol, declared under its own
      name in first-reference order (§3.2 step 3: "importing a missing
      symbol ensures IR correctness")
    * :meth:`linkage` — each definition's linkage; with *exported* (a
      fragment split), the :func:`fragment_linkage` rule that
      ``apply_fragment_linkage`` applies to an extracted fragment

    :meth:`clone` builds that module; :meth:`text` prints it straight
    from *module* without building it, equal to ``print_module`` of the
    clone.
    """

    def __init__(
        self,
        module: Module,
        define: Iterable[str],
        copy_on_use: Iterable[str] = (),
        exported: Optional[Set[str]] = None,
    ):
        define = list(dict.fromkeys(define))
        copy_set: Set[str] = set(copy_on_use)
        # Copy-on-use clones of symbols the caller did not ask to define.
        self._local = copy_set.difference(define)
        self.exported = exported
        self.definitions: List[GlobalValue] = []
        refs: List[List[GlobalValue]] = []
        defined: Set[str] = set()
        # The scan-and-add operation is performed recursively, since a
        # cloned symbol may reference previously-unseen missing symbols
        # (§3.2 step 3).
        worklist = deque(define)
        while worklist:
            sym_name = worklist.popleft()
            if sym_name in defined:
                continue
            defined.add(sym_name)
            symbol = module.get(sym_name)
            self.definitions.append(symbol)
            refs.append(_referenced_symbols(symbol))
            for ref in refs[-1]:
                if ref.name not in defined and ref.name in copy_set:
                    worklist.append(ref.name)
        for symbol in self.definitions:
            if isinstance(symbol, GlobalAlias) and symbol.aliasee.name not in defined:
                raise IRError(
                    f"alias @{symbol.name} extracted without its aliasee "
                    f"@{symbol.aliasee.name} (innate constraint violated)"
                )
        self.imports: List[GlobalValue] = []
        for symbol_refs in refs:
            for ref in symbol_refs:
                if ref.name not in defined:
                    defined.add(ref.name)
                    self.imports.append(ref)

    def linkage(self, symbol: GlobalValue) -> str:
        """The linkage *symbol* gets as a definition of the extract."""
        if self.exported is not None and not symbol.is_declaration():
            return fragment_linkage(symbol.name, self.exported)
        if symbol.name in self._local:
            return LINKAGE_INTERNAL
        return symbol.linkage

    def clone(self, name: str) -> "Tuple[Module, ValueMap]":
        """Build the extracted module; returns it with the value map."""
        dest = Module(name)
        vmap = ValueMap()
        for symbol in self.definitions:
            if isinstance(symbol, GlobalAlias):
                continue  # created after aliasees exist
            shell = _clone_symbol_shell(symbol, as_declaration=symbol.is_declaration())
            shell.linkage = self.linkage(symbol)
            dest.add(shell)
            vmap.put(symbol, shell)
        for symbol in self.definitions:
            if isinstance(symbol, GlobalAlias):
                alias = GlobalAlias(
                    symbol.name, vmap.get(symbol.aliasee), self.linkage(symbol)
                )
                dest.add(alias)
                vmap.put(symbol, alias)
        for symbol in self.imports:
            decl = declaration_for(symbol)
            dest.add(decl)
            vmap.put(symbol, decl)
        for symbol in self.definitions:
            if isinstance(symbol, Function) and not symbol.is_declaration():
                clone_function_body(symbol, vmap.get(symbol), vmap)
        return dest, vmap

    def text(self) -> str:
        """``print_module`` of :meth:`clone`, printed without cloning.

        Sections follow ``print_module``: global variables, aliases, then
        functions, each in the clone's symbol order (definitions before
        imports).  A function body is printed over the blocks the clone
        keeps, in the same order, with the same phi incomings.
        """
        variables: List[str] = []
        aliases: List[str] = []
        functions: List[str] = []
        for symbol in self.definitions:
            linkage = self.linkage(symbol)
            if isinstance(symbol, GlobalAlias):
                aliases.append(print_alias(symbol, linkage))
            elif isinstance(symbol, GlobalVariable):
                variables.append(print_global(symbol, linkage))
            else:
                functions.append(_function_text(symbol, linkage))
        for symbol in self.imports:
            decl = declaration_for(symbol)
            if isinstance(decl, GlobalVariable):
                variables.append(print_global(decl))
            else:
                functions.append(print_function(decl))
        return "\n\n".join(variables + aliases + functions) + "\n"


def _function_text(fn: Function, linkage: str) -> str:
    """The text of *fn* as a clone of it prints."""
    if fn.is_declaration():
        return print_function(fn)
    blocks = reachable_blocks(fn)
    if _clone_keeps_names(fn, blocks):
        return print_function(fn, linkage, blocks)
    # The clone renames something (patch logic may name values by hand
    # in the temporary IR it is given, §4): print an actual clone.
    shell = _clone_symbol_shell(fn, as_declaration=False)
    shell.linkage = linkage
    clone_function_body(fn, shell, ValueMap())
    return print_function(shell)


def _clone_keeps_names(fn: Function, blocks: List[BasicBlock]) -> bool:
    """Whether :func:`clone_function_body` keeps every name of *fn*.

    The clone re-creates arguments, then *blocks*, then their values,
    uniquifying each name as it goes; a name changes only when it is
    empty or already taken.
    """
    values = [arg.name for arg in fn.args]
    values.extend(
        inst.name
        for block in blocks
        for inst in block.instructions
        if not inst.type.is_void()
    )
    labels = [block.name for block in blocks]
    return (
        all(values)
        and all(labels)
        and len(set(values)) == len(values)
        and len(set(labels)) == len(labels)
    )


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
      are cloned as **internal** definitions
    * every other referenced symbol is imported as a declaration

    See :class:`ExtractionPlan`.
    """
    return ExtractionPlan(module, define, copy_on_use).clone(name)


def _referenced_symbols(symbol: GlobalValue) -> List[GlobalValue]:
    if isinstance(symbol, Function):
        return symbol.referenced_globals()
    if isinstance(symbol, GlobalAlias):
        return [symbol.aliasee]
    return []
