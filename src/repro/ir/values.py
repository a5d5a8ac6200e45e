"""Value hierarchy for the repro IR.

Mirrors LLVM's ``Value`` lattice closely enough for the paper's machinery:

* :class:`Constant` — integers, byte data, undef, null
* :class:`GlobalValue` — anything that maps to a linker symbol: global
  variables, functions, and alias symbols.  Aliases are included because
  the paper's partitioner treats "alias must be defined with its aliasee"
  as an *innate* partition constraint (§2.3).
* :class:`Argument` — formal function parameters.

Instructions live in :mod:`repro.ir.instructions`; functions, basic blocks
and modules live in :mod:`repro.ir.module`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.errors import IRError, IRTypeError
from repro.ir.types import ArrayType, I8, IntType, PTR, Type

if TYPE_CHECKING:  # pragma: no cover
    from repro.ir.instructions import Instruction
    from repro.ir.module import Function


class Value:
    """Anything that can appear as an instruction operand."""

    #: The instructions that have stored this value in an operand slot or a
    #: phi incoming, as an insertion-ordered set.  Only function-local values
    #: (:class:`Argument` and instructions) carry one; it may still list
    #: instructions that were erased or stopped using the value, so
    #: queries filter it (:meth:`repro.ir.module.Function.users_of`).
    users: Optional[Dict["Instruction", None]] = None

    def __init__(self, type_: Type, name: str = ""):
        self.type = type_
        self.name = name

    def add_user(self, user: "Instruction") -> None:
        """Record that *user* now holds this value (a no-op if untracked)."""
        if self.users is not None:
            self.users[user] = None

    def ref(self) -> str:
        """Short textual reference used when printing operands."""
        return f"%{self.name}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.ref()}: {self.type}>"


class Constant(Value):
    """Base class for immediate values."""

    def ref(self) -> str:
        raise NotImplementedError


class ConstantInt(Constant):
    """An integer immediate, stored in its *unsigned* representation."""

    def __init__(self, type_: IntType, value: int):
        if not isinstance(type_, IntType):
            raise IRTypeError(f"ConstantInt needs an integer type, got {type_}")
        super().__init__(type_)
        self.value = type_.wrap(value)

    @property
    def signed(self) -> int:
        """The value reinterpreted as signed."""
        return self.type.to_signed(self.value)

    def is_zero(self) -> bool:
        return self.value == 0

    def ref(self) -> str:
        return str(self.signed)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ConstantInt)
            and other.type is self.type
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return hash((self.type, self.value))


class ConstantData(Constant):
    """Raw byte data, used for string literals and data tables."""

    def __init__(self, data: bytes):
        super().__init__(ArrayType(I8, len(data)))
        self.data = bytes(data)

    @classmethod
    def from_string(cls, text: str) -> "ConstantData":
        """C-style string constant: UTF-8 bytes plus a NUL terminator."""
        return cls(text.encode("utf-8") + b"\x00")

    def ref(self) -> str:
        return "c" + _escape_bytes(self.data)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ConstantData) and other.data == self.data

    def __hash__(self) -> int:
        return hash(self.data)


class ConstantArray(Constant):
    """An array of integer constants (e.g. jump tables, opcode tables)."""

    def __init__(self, element_type: IntType, values):
        values = [int(v) for v in values]
        super().__init__(ArrayType(element_type, len(values)))
        self.element_type = element_type
        self.values = [element_type.wrap(v) for v in values]

    def ref(self) -> str:
        inner = ", ".join(f"{self.element_type} {v}" for v in self.values)
        return f"[{inner}]"


class UndefValue(Constant):
    """An unspecified value of a given type."""

    def __init__(self, type_: Type):
        super().__init__(type_)

    def ref(self) -> str:
        return "undef"


class NullPtr(Constant):
    """The null pointer constant."""

    def __init__(self):
        super().__init__(PTR)

    def ref(self) -> str:
        return "null"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NullPtr)

    def __hash__(self) -> int:
        return hash("nullptr")


# Linkage kinds.  "external" symbols are visible across fragments and keep a
# stable ABI; "internal" symbols may be transformed freely by interprocedural
# optimization (the paper's internalization step, §3.2 step 4).
LINKAGE_EXTERNAL = "external"
LINKAGE_INTERNAL = "internal"
VALID_LINKAGES = (LINKAGE_EXTERNAL, LINKAGE_INTERNAL)


class GlobalValue(Value):
    """A value with a linker symbol: global variable, function, or alias."""

    def __init__(self, type_: Type, name: str, linkage: str = LINKAGE_EXTERNAL):
        if not name:
            raise IRError("global values must be named")
        if linkage not in VALID_LINKAGES:
            raise IRError(f"invalid linkage {linkage!r} for @{name}")
        super().__init__(type_, name)
        self.linkage = linkage
        self.module = None  # set when inserted into a Module

    @property
    def is_internal(self) -> bool:
        return self.linkage == LINKAGE_INTERNAL

    def is_declaration(self) -> bool:
        """True when the symbol is only declared (imported), not defined."""
        raise NotImplementedError

    def ref(self) -> str:
        return f"@{self.name}"


class GlobalVariable(GlobalValue):
    """A global variable.  Its value type is ``value_type``; as an operand it
    is a pointer to its storage (like LLVM)."""

    def __init__(
        self,
        name: str,
        value_type: Type,
        initializer: Optional[Constant] = None,
        *,
        is_const: bool = False,
        linkage: str = LINKAGE_EXTERNAL,
    ):
        super().__init__(PTR, name, linkage)
        self.value_type = value_type
        self.initializer = initializer
        self.is_const = is_const

    def is_declaration(self) -> bool:
        return self.initializer is None

    def __repr__(self) -> str:  # pragma: no cover
        return f"<GlobalVariable @{self.name}: {self.value_type}>"


class GlobalAlias(GlobalValue):
    """An alias symbol: a second name for an existing global.

    §2.3: "the base symbol being aliased to must be defined rather than be
    declared.  Consequently, the base symbol should be compiled altogether
    with the aliased symbol" — this is the canonical innate partition
    constraint the partitioner must honour.
    """

    def __init__(self, name: str, aliasee: GlobalValue, linkage: str = LINKAGE_EXTERNAL):
        if isinstance(aliasee, GlobalAlias):
            raise IRError(f"alias @{name} may not target another alias")
        super().__init__(aliasee.type, name, linkage)
        self.aliasee = aliasee

    def is_declaration(self) -> bool:
        return False

    def resolve(self) -> GlobalValue:
        """Return the aliased definition."""
        return self.aliasee


class Argument(Value):
    """A formal parameter of a function."""

    def __init__(self, type_: Type, name: str, parent: "Function", index: int):
        super().__init__(type_, name)
        self.parent = parent
        self.index = index
        self.users = {}


def _escape_bytes(data: bytes) -> str:
    """Render bytes the way LLVM renders ``c"..."`` string constants."""
    out = ['"']
    for b in data:
        if 32 <= b < 127 and b not in (34, 92):  # printable, not " or \
            out.append(chr(b))
        else:
            out.append(f"\\{b:02X}")
    out.append('"')
    return "".join(out)
