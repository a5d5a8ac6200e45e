"""C-level types for the MiniC frontend.

MiniC is the C subset the target programs are written in: integer types of
four widths with signedness, pointers, arrays, and functions.  The frontend
lowers these onto the IR's type system (which keeps only width; signedness
lives in the operations chosen during codegen, as in LLVM).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.errors import FrontendError
from repro.ir.types import I16, I32, I64, I8, IntType, PTR, Type, VOID, ArrayType


class CType:
    """Base class for MiniC types."""

    def ir_type(self) -> Type:
        raise NotImplementedError

    @property
    def size(self) -> int:
        return self.ir_type().size

    def is_void(self) -> bool:
        return isinstance(self, CVoid)

    def is_integer(self) -> bool:
        return isinstance(self, CInt)

    def is_pointer(self) -> bool:
        return isinstance(self, CPointer)

    def is_array(self) -> bool:
        return isinstance(self, CArray)

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))

    def _key(self):
        return ()


class CVoid(CType):
    def ir_type(self) -> Type:
        return VOID

    def __str__(self) -> str:
        return "void"


class CInt(CType):
    """Integer type: width in bits plus signedness."""

    _IR = {8: I8, 16: I16, 32: I32, 64: I64}
    _NAMES = {8: "char", 16: "short", 32: "int", 64: "long"}

    def __init__(self, bits: int, signed: bool = True):
        if bits not in self._IR:
            raise FrontendError(f"unsupported integer width {bits}")
        self.bits = bits
        self.signed = signed

    def ir_type(self) -> IntType:
        return self._IR[self.bits]

    def _key(self):
        return (self.bits, self.signed)

    def __str__(self) -> str:
        base = self._NAMES[self.bits]
        return base if self.signed else f"unsigned {base}"


class CPointer(CType):
    def __init__(self, pointee: CType):
        self.pointee = pointee

    def ir_type(self) -> Type:
        return PTR

    def _key(self):
        return (self.pointee,)

    def __str__(self) -> str:
        return f"{self.pointee}*"


class CArray(CType):
    def __init__(self, element: CType, count: int):
        self.element = element
        self.count = count

    def ir_type(self) -> Type:
        return ArrayType(self.element.ir_type(), self.count)

    def decay(self) -> CPointer:
        """Array-to-pointer decay."""
        return CPointer(self.element)

    def _key(self):
        return (self.element, self.count)

    def __str__(self) -> str:
        return f"{self.element}[{self.count}]"


class CFunction(CType):
    def __init__(self, ret: CType, params: Tuple[CType, ...], vararg: bool = False):
        self.ret = ret
        self.params = tuple(params)
        self.vararg = vararg

    def ir_type(self) -> Type:
        from repro.ir.types import FunctionType

        return FunctionType(
            self.ret.ir_type(),
            tuple(p.ir_type() for p in self.params),
            self.vararg,
        )

    def _key(self):
        return (self.ret, self.params, self.vararg)

    def __str__(self) -> str:
        params = ", ".join(str(p) for p in self.params)
        if self.vararg:
            params = f"{params}, ..." if params else "..."
        return f"{self.ret} ({params})"


VOID_T = CVoid()
CHAR = CInt(8)
UCHAR = CInt(8, signed=False)
SHORT = CInt(16)
USHORT = CInt(16, signed=False)
INT = CInt(32)
UINT = CInt(32, signed=False)
LONG = CInt(64)
ULONG = CInt(64, signed=False)


def integer_promote(t: CInt) -> CInt:
    """C integer promotion: anything smaller than int becomes int."""
    if t.bits < 32:
        return INT
    return t


def usual_arithmetic_conversion(a: CInt, b: CInt) -> CInt:
    """The usual arithmetic conversions for a binary operator."""
    a, b = integer_promote(a), integer_promote(b)
    if a == b:
        return a
    if a.bits == b.bits:
        return a if not a.signed else b  # unsigned wins at equal rank
    wide, narrow = (a, b) if a.bits > b.bits else (b, a)
    if wide.signed and not narrow.signed and wide.bits > narrow.bits:
        return wide  # signed type can represent all narrower unsigned values
    return CInt(wide.bits, wide.signed)
