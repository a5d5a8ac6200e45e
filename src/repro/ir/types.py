"""Type system for the repro IR.

The IR is a simplified, typed, SSA-form IR modelled on LLVM:

* integer types ``i1 i8 i16 i32 i64``
* an opaque pointer type ``ptr`` (like modern LLVM, pointers carry no
  pointee type; loads/stores/GEPs state their element type explicitly)
* ``void`` for instructions producing no value
* array types ``[N x T]`` for global data
* function types ``T (T1, T2, ...)``

Types are interned: constructing the same type twice returns the same
object, so equality is identity and types are freely shareable across
modules (the scheduler clones modules but never needs to clone types).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import IRTypeError

POINTER_SIZE = 8  # bytes; the virtual machine is a 64-bit target


class Type:
    """Base class for all IR types."""

    def is_integer(self) -> bool:
        return isinstance(self, IntType)

    def is_pointer(self) -> bool:
        return isinstance(self, PointerType)

    def is_void(self) -> bool:
        return isinstance(self, VoidType)

    def is_array(self) -> bool:
        return isinstance(self, ArrayType)

    def is_function(self) -> bool:
        return isinstance(self, FunctionType)

    def is_first_class(self) -> bool:
        """Whether a value of this type can live in a virtual register."""
        return self.is_integer() or self.is_pointer()

    @property
    def size(self) -> int:
        """Size in bytes when stored in memory."""
        raise IRTypeError(f"type {self} has no storage size")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Type {self}>"


class VoidType(Type):
    _instance: "VoidType" = None

    def __new__(cls) -> "VoidType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __str__(self) -> str:
        return "void"


class IntType(Type):
    _cache: Dict[int, "IntType"] = {}

    def __new__(cls, bits: int) -> "IntType":
        if bits not in (1, 8, 16, 32, 64):
            raise IRTypeError(f"unsupported integer width: i{bits}")
        hit = cls._cache.get(bits)
        if hit is None:
            obj = super().__new__(cls)
            obj.bits = bits
            # setdefault keeps interning race-free when fragment compiles
            # run on concurrent service or shard dispatcher threads: the
            # first insert wins, every thread sees the same object, and
            # equality stays identity.
            hit = cls._cache.setdefault(bits, obj)
        return hit

    bits: int

    @property
    def size(self) -> int:
        return max(1, self.bits // 8)

    @property
    def umax(self) -> int:
        """Largest value representable when read as unsigned."""
        return (1 << self.bits) - 1

    @property
    def smin(self) -> int:
        return -(1 << (self.bits - 1)) if self.bits > 1 else -1

    @property
    def smax(self) -> int:
        return (1 << (self.bits - 1)) - 1 if self.bits > 1 else 0

    def wrap(self, value: int) -> int:
        """Truncate *value* to this width, unsigned representation."""
        return value & self.umax

    def to_signed(self, value: int) -> int:
        """Reinterpret the unsigned representation *value* as signed."""
        value &= self.umax
        if self.bits > 1 and value > self.smax:
            value -= 1 << self.bits
        elif self.bits == 1 and value == 1:
            return 1  # i1 is treated as 0/1 in both views
        return value

    def __str__(self) -> str:
        return f"i{self.bits}"


class PointerType(Type):
    _instance: "PointerType" = None

    def __new__(cls) -> "PointerType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    @property
    def size(self) -> int:
        return POINTER_SIZE

    def __str__(self) -> str:
        return "ptr"


class ArrayType(Type):
    _cache: Dict[Tuple[Type, int], "ArrayType"] = {}

    def __new__(cls, element: Type, count: int) -> "ArrayType":
        if count < 0:
            raise IRTypeError(f"negative array length: {count}")
        if not (element.is_integer() or element.is_pointer() or element.is_array()):
            raise IRTypeError(f"invalid array element type: {element}")
        key = (element, count)
        hit = cls._cache.get(key)
        if hit is None:
            obj = super().__new__(cls)
            obj.element = element
            obj.count = count
            hit = cls._cache.setdefault(key, obj)  # thread-safe interning
        return hit

    element: Type
    count: int

    @property
    def size(self) -> int:
        return self.element.size * self.count

    def __str__(self) -> str:
        return f"[{self.count} x {self.element}]"


class FunctionType(Type):
    _cache: Dict[tuple, "FunctionType"] = {}

    def __new__(
        cls, ret: Type, params: Tuple[Type, ...] = (), vararg: bool = False
    ) -> "FunctionType":
        params = tuple(params)
        for p in params:
            if not p.is_first_class():
                raise IRTypeError(f"invalid parameter type: {p}")
        if not (ret.is_void() or ret.is_first_class()):
            raise IRTypeError(f"invalid return type: {ret}")
        key = (ret, params, vararg)
        hit = cls._cache.get(key)
        if hit is None:
            obj = super().__new__(cls)
            obj.ret = ret
            obj.params = params
            obj.vararg = vararg
            hit = cls._cache.setdefault(key, obj)  # thread-safe interning
        return hit

    ret: Type
    params: Tuple[Type, ...]
    vararg: bool

    def __str__(self) -> str:
        parts: List[str] = [str(p) for p in self.params]
        if self.vararg:
            parts.append("...")
        return f"{self.ret} ({', '.join(parts)})"


# Convenient singletons, used pervasively.
VOID = VoidType()
I1 = IntType(1)
I8 = IntType(8)
I16 = IntType(16)
I32 = IntType(32)
I64 = IntType(64)
PTR = PointerType()

_BY_NAME = {"void": VOID, "i1": I1, "i8": I8, "i16": I16, "i32": I32, "i64": I64, "ptr": PTR}


def type_by_name(name: str) -> Type:
    """Look up a scalar type by its textual name (``i32``, ``ptr`` ...)."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise IRTypeError(f"unknown type name: {name!r}") from None
