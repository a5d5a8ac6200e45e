"""Parser for the textual IR produced by :mod:`repro.ir.printer`.

Tests and case studies are written in readable IR (the paper's Figure 2
``islower`` example is checked in as IR text and fed through
instcombine/simplifycfg directly), and every fragment compile starts by
parsing the fragment's canonical text (DESIGN §5.13, "Parsing the text").

One ``findall`` turns the whole text into a list of token strings, which
the parser reads through an integer cursor.  A token's kind is its first
character: ``@`` a global name, ``%`` a local name, ``c"`` a string, a
digit or ``-`` a number, a letter, ``_`` or ``.`` a word, anything else
punctuation.  A token's line and column are worked out only when an
error is raised, by scanning the text again.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import IRError, IRParseError
from repro.ir.builder import IRBuilder
from repro.ir.instructions import (
    BINARY_OPCODES,
    CAST_OPCODES,
    ICMP_PREDICATES,
    CastInst,
    Instruction,
    PhiInst,
)
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.types import I1, PTR, ArrayType, FunctionType, IntType, Type, type_by_name
from repro.ir.values import (
    ConstantArray,
    ConstantData,
    ConstantInt,
    GlobalAlias,
    GlobalVariable,
    NullPtr,
    UndefValue,
    Value,
)

_SKIP = r"\s+|;[^\n]*"
_TOKEN = "|".join((
    r'c"(?:[^"\\]|\\[0-9A-Fa-f]{2})*"',  # string
    r"@[A-Za-z_.$][\w.$]*",              # global name
    r"%[A-Za-z_.$][\w.$]*",              # local name
    r"-?\d+",                            # number
    r"[A-Za-z_.][\w.]*",                 # word
    r"\.\.\.|[=,(){}\[\]:*]",            # punctuation
))
#: Whitespace and comments match with an empty group, which the lexer
#: drops.  A character no alternative matches becomes a one-character
#: token that no rule of the parser accepts: a lone ``@``, ``%`` or ``-``
#: names nothing and is not a number, and any other is not a token kind.
_TOKEN_RE = re.compile(f"{_SKIP}|({_TOKEN}|.)")
#: The same scan with stray characters in a group of their own, for errors.
_LOCATE_RE = re.compile(f"{_SKIP}|({_TOKEN})|(.)")
#: Appended after the last token: no token is a newline.
_END = "\n"

_WORD_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_.")
_BINARY = frozenset(BINARY_OPCODES)
_CASTS = frozenset(CAST_OPCODES)
_PREDICATES = frozenset(ICMP_PREDICATES)


def parse_module(text: str, name: str = "parsed") -> Module:
    """Parse a full module from IR text."""
    try:
        return _Parser(text, name).parse()
    except Exception as exc:
        # A text with a stray character fails at it, whatever the parse
        # tripped on first.
        error = _located(text, exc)
        if error is None:
            raise
        raise error from None


def _tokenize(text: str) -> List[str]:
    """Every token of *text*, in order, as strings."""
    return list(filter(None, _TOKEN_RE.findall(text)))


class _Failure(Exception):
    """``_Failure(token_index, message)``: a parse error, which
    :func:`parse_module` locates in the text."""


def _position(text: str, offset: int) -> Tuple[int, int]:
    """The 1-based line and column of *offset* in *text*."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _located(text: str, exc: Exception) -> Optional[IRParseError]:
    """The error to raise for *exc*: the first stray character's, since a
    text holding one fails wherever the parse stopped; else a failure's
    message at its token; else None, which leaves *exc* as it is."""
    starts = []
    for m in _LOCATE_RE.finditer(text):
        if m.lastindex == 2:
            return IRParseError(
                f"unexpected character {m.group(2)!r}", *_position(text, m.start(2))
            )
        if m.lastindex == 1:
            starts.append(m.start(1))
    if not isinstance(exc, _Failure):
        return None
    index, message = exc.args
    if index >= len(starts):
        return IRParseError("unexpected end of input", *_position(text, len(text)))
    return IRParseError(message, *_position(text, starts[index]))


class _Parser:
    def __init__(self, text: str, name: str):
        self.toks = _tokenize(text)
        self.toks.append(_END)
        self.i = 0
        self.module = Module(name)
        self.symbols = self.module.symbols
        # Alias fixups: the aliasee may be defined later in the file.
        self._alias_fixups: List[Tuple[str, str, int]] = []

    def parse(self) -> Module:
        # Pass A: create every top-level symbol so forward references
        # (e.g. a call to a function declared later) resolve.  Braces
        # occur only around function bodies, so a body ends at the first
        # "}" after its "{".
        toks = self.toks
        end = len(toks) - 1
        bodies: List[Tuple[Function, int]] = []
        while self.i < end:
            t = toks[self.i]
            if t == "define":
                fn = self._define_header()
                brace = self.i
                self._expect("{")
                try:
                    close = toks.index("}", self.i)
                except ValueError:
                    raise _Failure(brace, "unterminated function body") from None
                bodies.append((fn, self.i))
                self.i = close + 1
            elif t == "declare":
                self._declare()
            elif t[0] == "@":
                self._global_line()
            else:
                raise _Failure(self.i, f"unexpected token {t!r}")
        for alias_name, linkage, target in self._alias_fixups:
            self.module.add(GlobalAlias(alias_name, self._global(target), linkage))
        # Pass B: parse function bodies.
        for fn, start in bodies:
            self._body(fn, start)
        return self.module

    # -- tokens -------------------------------------------------------------

    def _expect(self, value: str) -> None:
        i = self.i
        t = self.toks[i]
        if t != value:
            raise _Failure(i, f"expected {value!r}, got {t!r}")
        self.i = i + 1

    def _accept(self, value: str) -> bool:
        if self.toks[self.i] == value:
            self.i += 1
            return True
        return False

    def _name(self, sigil: str) -> str:
        """The name of the ``@global`` or ``%local`` token at the cursor."""
        i = self.i
        t = self.toks[i]
        if t[0] != sigil or len(t) == 1:
            raise _Failure(i, f"expected a {sigil}name, got {t!r}")
        self.i = i + 1
        return t[1:]

    def _int(self) -> int:
        i = self.i
        try:
            value = int(self.toks[i])
        except ValueError:
            raise _Failure(i, f"expected a number, got {self.toks[i]!r}") from None
        self.i = i + 1
        return value

    def _global(self, i: int) -> Value:
        """The symbol token *i* names."""
        t = self.toks[i]
        symbol = self.symbols.get(t[1:])
        if symbol is None:
            raise _Failure(i, f"undefined global {t}")
        return symbol

    # -- types ------------------------------------------------------------

    def _type(self) -> Type:
        i = self.i
        t = self.toks[i]
        self.i = i + 1
        if t == "[":
            count = self._int()
            self._expect("x")
            elem = self._type()
            self._expect("]")
            return ArrayType(elem, count)
        try:
            return type_by_name(t)
        except IRError:
            raise _Failure(i, f"unknown type {t!r}") from None

    # -- globals ----------------------------------------------------------

    def _global_line(self) -> None:
        gname = self._name("@")
        self._expect("=")
        linkage = "internal" if self._accept("internal") else "external"
        if self._accept("alias"):
            target = self.i
            self._name("@")
            self._alias_fixups.append((gname, linkage, target))
            return
        declared = self._accept("declare")
        if self._accept("const"):
            is_const = True
        else:
            self._expect("global")
            is_const = False
        value_type = self._type()
        init = None if declared else self._initializer(value_type)
        self.module.add(
            GlobalVariable(gname, value_type, init, is_const=is_const, linkage=linkage)
        )

    def _initializer(self, value_type: Type):
        i = self.i
        t = self.toks[i]
        if t.startswith('c"'):
            self.i = i + 1
            return ConstantData(_decode_string(t))
        if t == "null":
            self.i = i + 1
            return NullPtr()
        if t == "undef":
            self.i = i + 1
            return UndefValue(value_type)
        if t == "[":
            self.i = i + 1
            values = []
            elem_type = None
            while not self._accept("]"):
                if values:
                    self._expect(",")
                elem_type = self._type()
                values.append(self._int())
            if elem_type is None:
                if not isinstance(value_type, ArrayType):
                    raise _Failure(i, "empty array initializer needs array type")
                elem_type = value_type.element
            return ConstantArray(elem_type, values)
        try:
            value = int(t)
        except ValueError:
            raise _Failure(i, f"bad initializer {t!r}") from None
        if not isinstance(value_type, IntType):
            raise _Failure(i, f"integer initializer for type {value_type}")
        self.i = i + 1
        return ConstantInt(value_type, value)

    # -- functions ----------------------------------------------------------

    def _declare(self) -> None:
        self._expect("declare")
        ret = self._type()
        fname = self._name("@")
        params, vararg, _ = self._params(named=False)
        self.module.add(Function(fname, FunctionType(ret, tuple(params), vararg)))

    def _params(self, named: bool) -> Tuple[List[Type], bool, List[str]]:
        self._expect("(")
        params: List[Type] = []
        names: List[str] = []
        vararg = False
        while not self._accept(")"):
            if params or vararg:
                self._expect(",")
            if self._accept("..."):
                vararg = True
                continue
            params.append(self._type())
            if named:
                names.append(self._name("%"))
        return params, vararg, names

    def _define_header(self) -> Function:
        self._expect("define")
        linkage = "internal" if self._accept("internal") else "external"
        ret = self._type()
        fname = self._name("@")
        params, vararg, names = self._params(named=True)
        fn = Function(fname, FunctionType(ret, tuple(params), vararg), names, linkage)
        self.module.add(fn)
        return fn

    # -- function bodies ------------------------------------------------------

    def _body(self, fn: Function, start: int) -> None:
        """Parse *fn*'s body, from token *start* to its closing brace."""
        toks = self.toks
        self.fn = fn
        # Local values by token ("%name"), blocks by label name and the
        # token where each label was first mentioned.
        self.values: Dict[str, Value] = {"%" + a.name: a for a in fn.args}
        self.blocks: Dict[str, BasicBlock] = {}
        self.first_mention: Dict[str, int] = {}
        # SSA only requires that a def *dominate* its uses, not that it
        # precede them in block layout: optimized IR (inlined call bodies,
        # reordered blocks) routinely prints a use before its def.  A phi
        # incoming or operand naming a value not yet defined gets a
        # placeholder of the type its use declares, resolved once the
        # whole body is parsed: (phi, incoming index, token, token index)
        # and (placeholder, token, token index).
        self.phi_fixups: List[Tuple[PhiInst, int, str, int]] = []
        self.value_fixups: List[Tuple[Value, str, int]] = []
        values = self.values
        defined: Set[BasicBlock] = set()
        builder: Optional[IRBuilder] = None
        self.i = start
        while True:
            i = self.i
            t = toks[i]
            if t == "}":
                break
            follower = toks[i + 1]
            if follower == ":" and t[0] in _WORD_START and not t.startswith('c"'):
                block = self._block(t, i)
                if block not in defined:
                    defined.add(block)
                    fn.blocks.append(block)
                builder = IRBuilder.at_end(block)
                self.i = i + 2
            elif builder is None:
                raise _Failure(i, "instruction outside a block")
            elif t[0] == "%":
                if follower != "=":
                    raise _Failure(i + 1, f"expected '=', got {follower!r}")
                self.i = i + 2
                # The builder names the instruction "v"/"vN" (a phi
                # "phi"/"phiN") first, as for every instruction it makes;
                # names the optimizer makes later continue from the
                # function's counter and names (DESIGN §5.13).
                inst = self._valued(builder)
                if t in values or t == "%":
                    raise _Failure(i, f"redefinition of {t}")
                values[t] = inst
                name = inst.name = t[1:]
                fn._value_names.add(name)
            else:
                self.i = i + 1
                self._void(t, i, builder)
        self._resolve(defined)

    def _resolve(self, defined: Set[BasicBlock]) -> None:
        for phi, k, t, i in self.phi_fixups:
            value = self._definition(t, i, phi.type, "undefined value")
            phi.incoming[k] = (value, phi.incoming[k][1])
            value.add_user(phi)
        for placeholder, t, i in self.value_fixups:
            value = self._definition(t, i, placeholder.type, "use of undefined value")
            for user in placeholder.users:
                user.replace_uses_of(placeholder, value)
        for name, block in self.blocks.items():
            if block not in defined:
                raise _Failure(self.first_mention[name], f"undefined block label %{name}")

    def _definition(self, t: str, i: int, type_: Type, undefined: str) -> Value:
        """The value forward reference *t* at token *i* resolves to, which
        must have the type *type_* its use declared."""
        value = self.values.get(t)
        if value is None:
            raise _Failure(i, f"{undefined} {t}")
        if value.type is not type_:
            raise _Failure(i, f"{t} is defined as {value.type} but used as {type_}")
        return value

    def _block(self, name: str, i: int) -> BasicBlock:
        block = self.blocks.get(name)
        if block is None:
            block = self.blocks[name] = BasicBlock(name, self.fn)
            self.fn._block_names.add(name)
            self.first_mention[name] = i
        return block

    def _label(self) -> BasicBlock:
        """``label %name`` at the cursor."""
        self._expect("label")
        i = self.i
        return self._block(self._name("%"), i)

    # -- operands -----------------------------------------------------------

    def _typed_operand(self) -> Value:
        return self._operand(self._type())

    def _operand(self, type_: Type) -> Value:
        """The operand at the cursor, of the type its use declares."""
        i = self.i
        t = self.toks[i]
        self.i = i + 1
        c = t[0]
        if c == "%":
            value = self.values.get(t)
            return self._forward(t, i, type_) if value is None else value
        if c == "@":
            return self._global(i)
        if t == "null":
            return NullPtr()
        if t == "undef":
            return UndefValue(type_)
        if t == "true":
            return ConstantInt(I1, 1)
        if t == "false":
            return ConstantInt(I1, 0)
        try:
            value = int(t)
        except ValueError:
            raise _Failure(i, f"bad operand {t!r}") from None
        if not isinstance(type_, IntType):
            raise _Failure(i, f"integer literal with type {type_}")
        return ConstantInt(type_, value)

    def _forward(self, t: str, i: int, type_: Type) -> Value:
        """A placeholder for local *t*, whose definition prints later.  Its
        users set lists the instruction that takes it as an operand."""
        placeholder = Value(type_, t[1:])
        placeholder.users = {}
        self.value_fixups.append((placeholder, t, i))
        return placeholder

    # -- instructions -------------------------------------------------------

    def _void(self, t: str, i: int, builder: IRBuilder) -> None:
        if t == "store":
            value = self._typed_operand()
            self._expect(",")
            builder.store(value, self._typed_operand())
        elif t == "br":
            if self.toks[self.i] == "label":
                builder.br(self._label())
                return
            cond = self._typed_operand()
            self._expect(",")
            if_true = self._label()
            self._expect(",")
            builder.condbr(cond, if_true, self._label())
        elif t == "call":
            ret = self._type()
            if not ret.is_void():
                raise _Failure(i, "non-void call must be assigned")
            self._call(builder, ret)
        elif t == "ret":
            if self._accept("void"):
                builder.ret()
            else:
                builder.ret(self._typed_operand())
        elif t == "switch":
            scrutinee = self._typed_operand()
            self._expect(",")
            sw = builder.switch(scrutinee, self._label())
            self._expect("[")
            while not self._accept("]"):
                case_type = self._type()
                case_value = self._int()
                self._expect(",")
                sw.add_case(ConstantInt(case_type, case_value), self._label())
        elif t == "unreachable":
            builder.unreachable()
        else:
            raise _Failure(i, f"unknown instruction {t!r}")

    def _valued(self, builder: IRBuilder) -> Instruction:
        """Parse the instruction after ``%name =`` and append it."""
        i = self.i
        op = self.toks[i]
        self.i = i + 1
        if op == "load":
            loaded = self._type()
            self._expect(",")
            return builder.load(loaded, self._typed_operand())
        if op in _BINARY:
            type_ = self._type()
            lhs = self._operand(type_)
            self._expect(",")
            return builder.binop(op, lhs, self._operand(type_))
        if op == "icmp":
            pred = self.toks[self.i]
            if pred not in _PREDICATES:
                raise _Failure(self.i, f"bad icmp predicate {pred!r}")
            self.i += 1
            type_ = self._type()
            lhs = self._operand(type_)
            self._expect(",")
            return builder.icmp(pred, lhs, self._operand(type_))
        if op == "call":
            return self._call(builder, self._type())
        if op == "gep":
            elem = self._type()
            self._expect(",")
            base = self._typed_operand()
            self._expect(",")
            return builder.gep(elem, base, self._typed_operand())
        if op == "phi":
            return self._phi(builder)
        if op in _CASTS:
            value = self._typed_operand()
            self._expect("to")
            return builder._insert(CastInst(op, value, self._type()))
        if op == "select":
            cond = self._typed_operand()
            self._expect(",")
            if_true = self._typed_operand()
            self._expect(",")
            return builder.select(cond, if_true, self._typed_operand())
        if op == "alloca":
            return builder.alloca(self._type())
        if op == "freeze":
            return builder.freeze(self._typed_operand())
        raise _Failure(i, f"unknown opcode {op!r}")

    def _phi(self, builder: IRBuilder) -> PhiInst:
        phi = builder.phi(self._type())
        type_ = phi.type
        toks = self.toks
        while True:
            self._expect("[")
            k = self.i
            t = toks[k]
            if t[0] == "%":
                value = self.values.get(t)
                if value is None:
                    value = UndefValue(type_)
                    self.phi_fixups.append((phi, len(phi.incoming), t, k))
                else:
                    value.add_user(phi)
            elif t == "true":
                value = ConstantInt(I1, 1)
            elif t == "false":
                value = ConstantInt(I1, 0)
            elif t == "undef":
                value = UndefValue(type_)
            elif t[0] == "@":
                value = self._global(k)
            else:
                try:
                    number = int(t)
                except ValueError:
                    raise _Failure(k, f"bad phi incoming {t!r}") from None
                value = ConstantInt(type_, number)
            self.i = k + 1
            self._expect(",")
            j = self.i
            phi.incoming.append((value, self._block(self._name("%"), j)))
            self._expect("]")
            if not self._accept(","):
                return phi

    def _call(self, builder: IRBuilder, ret: Type) -> Instruction:
        i = self.i
        t = self.toks[i]
        self.i = i + 1
        if t[0] == "@":
            callee = self._global(i)
        elif t[0] == "%":
            # A callee defined later is a forward reference like any
            # other operand, typed ptr.
            callee = self.values.get(t)
            if callee is None:
                callee = self._forward(t, i, PTR)
        else:
            raise _Failure(i, f"bad callee {t!r}")
        self._expect("(")
        args: List[Value] = []
        while not self._accept(")"):
            if args:
                self._expect(",")
            args.append(self._typed_operand())
        if isinstance(callee, Function):
            ftype = callee.function_type
        else:
            ftype = FunctionType(ret, tuple(a.type for a in args))
        return builder.call(callee, args, ftype)


def _decode_string(token: str) -> bytes:
    """Decode a ``c"..."`` token into raw bytes."""
    body = token[2:-1]
    out = bytearray()
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\":
            out.append(int(body[i + 1 : i + 3], 16))
            i += 3
        else:
            out.append(ord(ch))
            i += 1
    return bytes(out)
