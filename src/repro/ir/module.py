"""Basic blocks, functions and modules.

A :class:`Module` is the translation unit — "the minimal translation unit of
LLVM is a module.  It is lowered to an object file after code generation"
(§2.3).  Odin's fragments are themselves modules extracted from the
whole-program module, so everything the partitioner and scheduler do is
module surgery implemented here and in :mod:`repro.ir.clone`.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set

from repro.errors import IRError
from repro.ir.instructions import CallInst, Instruction, PhiInst
from repro.ir.types import FunctionType, PTR, Type
from repro.ir.values import (
    Argument,
    GlobalAlias,
    GlobalValue,
    GlobalVariable,
    LINKAGE_EXTERNAL,
    Value,
)


class BasicBlock:
    """A straight-line sequence of instructions ending in a terminator."""

    def __init__(self, name: str, parent: Optional["Function"] = None):
        self.name = name
        self.parent = parent
        self.instructions: List[Instruction] = []

    # -- structure ----------------------------------------------------------

    @property
    def terminator(self) -> Optional[Instruction]:
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    def successors(self) -> List["BasicBlock"]:
        term = self.terminator
        return term.successors() if term is not None else []

    def predecessors(self) -> List["BasicBlock"]:
        if self.parent is None:
            return []
        return [b for b in self.parent.blocks if self in b.successors()]

    def phis(self) -> List[PhiInst]:
        return [i for i in self.instructions if isinstance(i, PhiInst)]

    def non_phi_instructions(self) -> List[Instruction]:
        return [i for i in self.instructions if not isinstance(i, PhiInst)]

    # -- mutation -----------------------------------------------------------

    def append(self, inst: Instruction) -> Instruction:
        """Append *inst*, auto-naming it if it produces a value."""
        if self.terminator is not None:
            raise IRError(f"block {self.name} already has a terminator")
        self._attach(inst)
        self.instructions.append(inst)
        return inst

    def insert_before(self, anchor: Instruction, inst: Instruction) -> Instruction:
        idx = self.instructions.index(anchor)
        self._attach(inst)
        self.instructions.insert(idx, inst)
        return inst

    def _attach(self, inst: Instruction) -> None:
        if inst.parent is not None:
            raise IRError(f"instruction %{inst.name} is already attached")
        inst.parent = self
        if not inst.type.is_void() and self.parent is not None:
            inst.name = self.parent.uniquify_value_name(inst.name or "v")

    def __repr__(self) -> str:  # pragma: no cover
        return f"<BasicBlock {self.name} ({len(self.instructions)} insts)>"


class Function(GlobalValue):
    """A function definition or declaration."""

    def __init__(
        self,
        name: str,
        function_type: FunctionType,
        param_names: Sequence[str] = (),
        linkage: str = LINKAGE_EXTERNAL,
    ):
        super().__init__(PTR, name, linkage)
        self.function_type = function_type
        self.blocks: List[BasicBlock] = []
        self.args: List[Argument] = []
        self._value_names: Set[str] = set()
        self._block_names: Set[str] = set()
        self._counter = 0
        for i, pty in enumerate(function_type.params):
            pname = param_names[i] if i < len(param_names) else f"arg{i}"
            pname = self.uniquify_value_name(pname)
            self.args.append(Argument(pty, pname, self, i))

    # -- naming -------------------------------------------------------------

    def uniquify_value_name(self, base: str) -> str:
        name = base
        while not name or name in self._value_names:
            self._counter += 1
            name = f"{base}{self._counter}" if base else str(self._counter)
        self._value_names.add(name)
        return name

    def uniquify_block_name(self, base: str) -> str:
        name = base or "bb"
        while name in self._block_names:
            self._counter += 1
            name = f"{base or 'bb'}{self._counter}"
        self._block_names.add(name)
        return name

    # -- structure ----------------------------------------------------------

    def is_declaration(self) -> bool:
        return not self.blocks

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise IRError(f"function @{self.name} is a declaration")
        return self.blocks[0]

    @property
    def return_type(self) -> Type:
        return self.function_type.ret

    def add_block(self, name: str = "bb") -> BasicBlock:
        block = BasicBlock(self.uniquify_block_name(name), self)
        self.blocks.append(block)
        return block

    def get_block(self, name: str) -> BasicBlock:
        for block in self.blocks:
            if block.name == name:
                return block
        raise IRError(f"no block named {name} in @{self.name}")

    def remove_block(self, block: BasicBlock) -> None:
        self.blocks.remove(block)
        self._block_names.discard(block.name)
        block.parent = None

    def instructions(self) -> Iterator[Instruction]:
        for block in self.blocks:
            yield from list(block.instructions)

    # -- rewriting ----------------------------------------------------------

    def _attached_users(self, value: Value) -> List[Instruction]:
        """The recorded users of *value* that still sit in this function.

        ``value.users`` may list instructions that were erased, moved out
        with a removed block, or no longer hold the value; the first two
        are dropped here, and a caller asks the rest whether they still
        use it.  Only function-local values record users.
        """
        if value.users is None:
            raise IRError(f"{value.ref()} is not a function-local value")
        return [
            user for user in value.users
            if user.parent is not None and user.parent.parent is self
        ]

    def replace_all_uses(self, old: Value, new: Value) -> int:
        """Replace every use of *old* inside this function with *new*.

        Costs O(uses of *old*): only its recorded users are visited.
        """
        count = 0
        for user in self._attached_users(old):
            count += user.replace_uses_of(old, new)
        return count

    def users_of(self, value: Value) -> List[Instruction]:
        """The instructions in this function that use *value*, unordered."""
        return [
            user for user in self._attached_users(value)
            if any(op is value for op in user.operands)
            or (isinstance(user, PhiInst) and any(v is value for v in user.used_values()))
        ]

    # -- statistics (drive the compile-time cost model) ----------------------

    def count_instructions(self) -> int:
        return sum(len(b.instructions) for b in self.blocks)

    def count_blocks(self) -> int:
        return len(self.blocks)

    def referenced_globals(self) -> List[GlobalValue]:
        """Global symbols referenced from this function's body,
        deduplicated, in order of first reference."""
        seen: Set[int] = {id(self)}
        found: List[GlobalValue] = []
        for block in self.blocks:
            for inst in block.instructions:
                ops = inst.operands
                if isinstance(inst, PhiInst):
                    ops = ops + inst.used_values()
                for op in ops:
                    if isinstance(op, GlobalValue) and id(op) not in seen:
                        seen.add(id(op))
                        found.append(op)
        return found

    def __repr__(self) -> str:  # pragma: no cover
        kind = "declare" if self.is_declaration() else "define"
        return f"<Function {kind} @{self.name}>"


class Module:
    """A translation unit: an ordered symbol table of globals."""

    def __init__(self, name: str = "module"):
        self.name = name
        self.symbols: Dict[str, GlobalValue] = {}

    # -- symbol table -------------------------------------------------------

    def add(self, symbol: GlobalValue) -> GlobalValue:
        if symbol.name in self.symbols:
            raise IRError(f"duplicate symbol @{symbol.name} in module {self.name}")
        self.symbols[symbol.name] = symbol
        symbol.module = self
        return symbol

    def get(self, name: str) -> GlobalValue:
        try:
            return self.symbols[name]
        except KeyError:
            raise IRError(f"no symbol @{name} in module {self.name}") from None

    def get_or_none(self, name: str) -> Optional[GlobalValue]:
        return self.symbols.get(name)

    def remove(self, name: str) -> None:
        symbol = self.symbols.pop(name)
        symbol.module = None

    def __contains__(self, name: str) -> bool:
        return name in self.symbols

    # -- typed views ---------------------------------------------------------

    def functions(self) -> List[Function]:
        return [s for s in self.symbols.values() if isinstance(s, Function)]

    def defined_functions(self) -> List[Function]:
        return [f for f in self.functions() if not f.is_declaration()]

    def global_variables(self) -> List[GlobalVariable]:
        return [s for s in self.symbols.values() if isinstance(s, GlobalVariable)]

    def aliases(self) -> List[GlobalAlias]:
        return [s for s in self.symbols.values() if isinstance(s, GlobalAlias)]

    def definitions(self) -> List[GlobalValue]:
        return [s for s in self.symbols.values() if not s.is_declaration()]

    def declarations(self) -> List[GlobalValue]:
        return [s for s in self.symbols.values() if s.is_declaration()]

    # -- convenience constructors --------------------------------------------

    def declare_function(self, name: str, function_type: FunctionType) -> Function:
        """Get-or-create a function declaration."""
        existing = self.get_or_none(name)
        if existing is not None:
            if not isinstance(existing, Function):
                raise IRError(f"@{name} exists and is not a function")
            if existing.function_type is not function_type:
                raise IRError(f"@{name} redeclared with a different type")
            return existing
        return self.add(Function(name, function_type))

    # -- whole-module queries -------------------------------------------------

    def count_instructions(self) -> int:
        return sum(f.count_instructions() for f in self.defined_functions())

    def count_blocks(self) -> int:
        return sum(f.count_blocks() for f in self.defined_functions())

    def callers_of(self, name: str) -> List[Function]:
        """Functions containing a direct call to @name."""
        out = []
        for fn in self.defined_functions():
            for inst in fn.instructions():
                if isinstance(inst, CallInst) and inst.called_function_name() == name:
                    out.append(fn)
                    break
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Module {self.name} ({len(self.symbols)} symbols)>"
