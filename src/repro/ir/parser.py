"""Parser for the textual IR produced by :mod:`repro.ir.printer`.

Exists mainly so tests and case studies can be written in readable IR —
e.g. the paper's Figure 2 ``islower`` example is checked in as IR text and
fed through instcombine/simplifycfg directly.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import IRParseError
from repro.ir.builder import IRBuilder
from repro.ir.instructions import (
    BINARY_OPCODES,
    CAST_OPCODES,
    ICMP_PREDICATES,
    PhiInst,
)
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.types import ArrayType, FunctionType, IntType, Type, VOID, type_by_name
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

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|;[^\n]*)
  | (?P<string>c"(?:[^"\\]|\\[0-9A-Fa-f]{2})*")
  | (?P<gname>@[A-Za-z_.$][\w.$]*)
  | (?P<lname>%[A-Za-z_.$][\w.$]*)
  | (?P<number>-?\d+)
  | (?P<word>[A-Za-z_.][\w.]*)
  | (?P<punct>\.\.\.|[=,(){}\[\]:*])
    """,
    re.VERBOSE,
)


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.tokens: List[Tuple[str, str, int]] = []
        pos = 0
        line = 1
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                raise IRParseError(f"unexpected character {text[pos]!r}", line)
            kind = m.lastgroup
            value = m.group()
            line += value.count("\n")
            if kind != "ws":
                self.tokens.append((kind, value, line))
            pos = m.end()
        self.index = 0

    def peek(self) -> Optional[Tuple[str, str, int]]:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def next(self) -> Tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise IRParseError("unexpected end of input")
        self.index += 1
        return tok

    def accept(self, value: str) -> bool:
        tok = self.peek()
        if tok is not None and tok[1] == value:
            self.index += 1
            return True
        return False

    def expect(self, value: str) -> Tuple[str, str, int]:
        tok = self.next()
        if tok[1] != value:
            raise IRParseError(f"expected {value!r}, got {tok[1]!r}", tok[2])
        return tok

    def expect_kind(self, kind: str) -> Tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind:
            raise IRParseError(f"expected {kind}, got {tok[1]!r}", tok[2])
        return tok

    def at_end(self) -> bool:
        return self.index >= len(self.tokens)


def parse_module(text: str, name: str = "parsed") -> Module:
    """Parse a full module from IR text."""
    return _Parser(text, name).parse()


class _Parser:
    def __init__(self, text: str, name: str):
        self.lex = _Lexer(text)
        self.module = Module(name)
        # Alias fixups: aliasee may be defined later in the file.
        self._alias_fixups: List[Tuple[str, str, str]] = []

    def parse(self) -> Module:
        # Pass A: create every top-level symbol so forward references
        # (e.g. a call to a function declared later) resolve.
        pending_bodies: List[tuple] = []  # (function, body_token_index)
        while not self.lex.at_end():
            kind, value, line = self.lex.peek()
            if value == "define":
                fn = self._parse_define_header()
                self.lex.expect("{")
                pending_bodies.append((fn, self.lex.index))
                self._skip_to_close_brace()
            elif value == "declare":
                self._parse_declare()
            elif kind == "gname":
                self._parse_global_line()
            else:
                raise IRParseError(f"unexpected token {value!r}", line)
        for alias_name, linkage, target in self._alias_fixups:
            aliasee = self.module.get(target)
            self.module.add(GlobalAlias(alias_name, aliasee, linkage))
        # Pass B: parse function bodies.
        for fn, body_index in pending_bodies:
            self.lex.index = body_index
            _FunctionBodyParser(self, fn).parse()
        return self.module

    def _skip_to_close_brace(self) -> None:
        depth = 1
        while depth:
            tok = self.lex.next()
            if tok[1] == "{":
                depth += 1
            elif tok[1] == "}":
                depth -= 1

    # -- types ------------------------------------------------------------

    def _parse_type(self) -> Type:
        tok = self.lex.peek()
        if tok is not None and tok[1] == "[":
            self.lex.next()
            count = int(self.lex.expect_kind("number")[1])
            self.lex.expect("x")
            elem = self._parse_type()
            self.lex.expect("]")
            return ArrayType(elem, count)
        kind, value, line = self.lex.next()
        try:
            return type_by_name(value)
        except Exception:
            raise IRParseError(f"unknown type {value!r}", line) from None

    # -- globals ----------------------------------------------------------

    def _parse_global_line(self) -> None:
        gname = self.lex.expect_kind("gname")[1][1:]
        self.lex.expect("=")
        linkage = "internal" if self.lex.accept("internal") else "external"
        if self.lex.accept("alias"):
            target = self.lex.expect_kind("gname")[1][1:]
            self._alias_fixups.append((gname, linkage, target))
            return
        declared = self.lex.accept("declare")
        if self.lex.accept("const"):
            is_const = True
        else:
            self.lex.expect("global")
            is_const = False
        value_type = self._parse_type()
        if declared:
            self.module.add(
                GlobalVariable(gname, value_type, None, is_const=is_const, linkage=linkage)
            )
            return
        init = self._parse_initializer(value_type)
        self.module.add(
            GlobalVariable(gname, value_type, init, is_const=is_const, linkage=linkage)
        )

    def _parse_initializer(self, value_type: Type):
        tok = self.lex.peek()
        if tok is None:
            raise IRParseError("missing initializer")
        kind, value, line = tok
        if kind == "string":
            self.lex.next()
            return ConstantData(_decode_string(value))
        if kind == "number":
            self.lex.next()
            if not isinstance(value_type, IntType):
                raise IRParseError(f"integer initializer for type {value_type}", line)
            return ConstantInt(value_type, int(value))
        if value == "null":
            self.lex.next()
            return NullPtr()
        if value == "undef":
            self.lex.next()
            return UndefValue(value_type)
        if value == "[":
            self.lex.next()
            values = []
            elem_type = None
            while not self.lex.accept("]"):
                if values:
                    self.lex.expect(",")
                elem_type = self._parse_type()
                values.append(int(self.lex.expect_kind("number")[1]))
            if elem_type is None:
                if not isinstance(value_type, ArrayType):
                    raise IRParseError("empty array initializer needs array type", line)
                elem_type = value_type.element
            return ConstantArray(elem_type, values)
        raise IRParseError(f"bad initializer {value!r}", line)

    # -- functions ----------------------------------------------------------

    def _parse_declare(self) -> None:
        self.lex.expect("declare")
        ret = self._parse_type()
        fname = self.lex.expect_kind("gname")[1][1:]
        params, vararg, _ = self._parse_params(named=False)
        self.module.add(Function(fname, FunctionType(ret, tuple(params), vararg)))

    def _parse_params(self, named: bool) -> Tuple[List[Type], bool, List[str]]:
        self.lex.expect("(")
        params: List[Type] = []
        names: List[str] = []
        vararg = False
        while not self.lex.accept(")"):
            if params or vararg:
                self.lex.expect(",")
            if self.lex.accept("..."):
                vararg = True
                continue
            params.append(self._parse_type())
            if named:
                names.append(self.lex.expect_kind("lname")[1][1:])
        return params, vararg, names

    def _parse_define_header(self) -> Function:
        self.lex.expect("define")
        linkage = "internal" if self.lex.accept("internal") else "external"
        ret = self._parse_type()
        fname = self.lex.expect_kind("gname")[1][1:]
        params, vararg, names = self._parse_params(named=True)
        fn = Function(fname, FunctionType(ret, tuple(params), vararg), names, linkage)
        self.module.add(fn)
        return fn

    def lookup_global(self, name: str, line: int) -> Value:
        sym = self.module.get_or_none(name)
        if sym is None:
            raise IRParseError(f"undefined global @{name}", line)
        return sym


class _FunctionBodyParser:
    def __init__(self, parent: _Parser, fn: Function):
        self.p = parent
        self.lex = parent.lex
        self.fn = fn
        self.values: Dict[str, Value] = {a.name: a for a in fn.args}
        self.blocks: Dict[str, BasicBlock] = {}
        self.fixups: List[Tuple[PhiInst, int, str, int]] = []
        # Non-phi forward references.  SSA only requires that a def
        # *dominate* its uses, not that it precede them in block layout —
        # optimized IR (inlined call bodies, reordered blocks) routinely
        # prints a use before its def.  Undefined operand names become
        # placeholder Values, rewritten to the real def once the whole
        # body has been parsed.
        self.value_fixups: List[Tuple[Value, str, int]] = []

    def _block(self, name: str) -> BasicBlock:
        if name not in self.blocks:
            block = BasicBlock(name, self.fn)
            self.fn._block_names.add(name)
            self.blocks[name] = block
        return self.blocks[name]

    def parse(self) -> None:
        current: Optional[BasicBlock] = None
        while True:
            tok = self.lex.peek()
            if tok is None:
                raise IRParseError("unterminated function body")
            kind, value, line = tok
            if value == "}":
                self.lex.next()
                break
            nxt = (
                self.lex.tokens[self.lex.index + 1]
                if self.lex.index + 1 < len(self.lex.tokens)
                else None
            )
            if kind == "word" and nxt is not None and nxt[1] == ":":
                self.lex.next()
                self.lex.next()
                current = self._block(value)
                if current not in self.fn.blocks:
                    self.fn.blocks.append(current)
                continue
            if current is None:
                raise IRParseError("instruction outside a block", line)
            self._parse_instruction(current)
        # Resolve deferred phi value references.
        for phi, idx, name, line in self.fixups:
            if name not in self.values:
                raise IRParseError(f"undefined value %{name}", line)
            value, block = phi.incoming[idx]
            phi.incoming[idx] = (self.values[name], block)
            self.values[name].add_user(phi)
        # Resolve non-phi forward references: swap each placeholder for
        # the value the name ended up bound to.
        if self.value_fixups:
            unresolved = [
                (name, line)
                for _p, name, line in self.value_fixups
                if name not in self.values
            ]
            if unresolved:
                name, line = unresolved[0]
                raise IRParseError(f"use of undefined value %{name}", line)
            replacements = {
                id(placeholder): self.values[name]
                for placeholder, name, _line in self.value_fixups
            }
            for block in self.fn.blocks:
                for inst in block.instructions:
                    for i, op in enumerate(inst.operands):
                        replacement = replacements.get(id(op))
                        if replacement is not None:
                            inst.operands[i] = replacement
                            replacement.add_user(inst)
        # Validate all referenced blocks were defined.
        for bname, block in self.blocks.items():
            if block not in self.fn.blocks:
                raise IRParseError(f"undefined block label %{bname}")

    # -- operand parsing ----------------------------------------------------

    def _parse_typed_operand(self) -> Value:
        type_ = self.p._parse_type()
        return self._parse_operand(type_)

    def _parse_operand(self, type_: Type) -> Value:
        kind, value, line = self.lex.next()
        if kind == "number":
            if not isinstance(type_, IntType):
                raise IRParseError(f"integer literal with type {type_}", line)
            return ConstantInt(type_, int(value))
        if kind == "lname":
            name = value[1:]
            if name not in self.values:
                # Forward reference: the defining block prints later.
                placeholder = Value(type_, name)
                self.value_fixups.append((placeholder, name, line))
                return placeholder
            return self.values[name]
        if kind == "gname":
            return self.p.lookup_global(value[1:], line)
        if value == "null":
            return NullPtr()
        if value == "undef":
            return UndefValue(type_)
        if value == "true":
            return ConstantInt(IntType(1), 1)
        if value == "false":
            return ConstantInt(IntType(1), 0)
        raise IRParseError(f"bad operand {value!r}", line)

    def _define(self, name: str, value: Value, line: int) -> None:
        if name in self.values:
            raise IRParseError(f"redefinition of %{name}", line)
        self.values[name] = value
        value.name = name
        self.fn._value_names.add(name)

    # -- instruction parsing --------------------------------------------------

    def _parse_instruction(self, block: BasicBlock) -> None:
        builder = IRBuilder.at_end(block)
        kind, value, line = self.lex.next()

        if kind == "lname":
            result_name = value[1:]
            self.lex.expect("=")
            op = self.lex.next()[1]
            result = self._parse_valued(builder, op, line)
            self._define(result_name, result, line)
            return

        # Void instructions.
        if value == "store":
            val = self._parse_typed_operand()
            self.lex.expect(",")
            ptr = self._parse_typed_operand()
            builder.store(val, ptr)
            return
        if value == "call":
            ret = self.p._parse_type()
            if not ret.is_void():
                raise IRParseError("non-void call must be assigned", line)
            self._parse_call(builder, ret)
            return
        if value == "br":
            if self.lex.accept("label"):
                target = self.lex.expect_kind("lname")[1][1:]
                builder.br(self._block(target))
                return
            cond = self._parse_typed_operand_with_first("i1")
            self.lex.expect(",")
            self.lex.expect("label")
            t = self.lex.expect_kind("lname")[1][1:]
            self.lex.expect(",")
            self.lex.expect("label")
            f = self.lex.expect_kind("lname")[1][1:]
            builder.condbr(cond, self._block(t), self._block(f))
            return
        if value == "switch":
            scrutinee = self._parse_typed_operand()
            self.lex.expect(",")
            self.lex.expect("label")
            default = self.lex.expect_kind("lname")[1][1:]
            sw = builder.switch(scrutinee, self._block(default))
            self.lex.expect("[")
            while not self.lex.accept("]"):
                case_type = self.p._parse_type()
                case_val = int(self.lex.expect_kind("number")[1])
                self.lex.expect(",")
                self.lex.expect("label")
                target = self.lex.expect_kind("lname")[1][1:]
                sw.add_case(ConstantInt(case_type, case_val), self._block(target))
            return
        if value == "ret":
            if self.lex.accept("void"):
                builder.ret()
            else:
                builder.ret(self._parse_typed_operand())
            return
        if value == "unreachable":
            builder.unreachable()
            return
        raise IRParseError(f"unknown instruction {value!r}", line)

    def _parse_typed_operand_with_first(self, _expected: str) -> Value:
        return self._parse_typed_operand()

    def _parse_valued(self, builder: IRBuilder, op: str, line: int) -> Value:
        if op in BINARY_OPCODES:
            type_ = self.p._parse_type()
            lhs = self._parse_operand(type_)
            self.lex.expect(",")
            rhs = self._parse_operand(type_)
            return builder.binop(op, lhs, rhs)
        if op == "icmp":
            pred = self.lex.next()[1]
            if pred not in ICMP_PREDICATES:
                raise IRParseError(f"bad icmp predicate {pred!r}", line)
            type_ = self.p._parse_type()
            lhs = self._parse_operand(type_)
            self.lex.expect(",")
            rhs = self._parse_operand(type_)
            return builder.icmp(pred, lhs, rhs)
        if op in CAST_OPCODES:
            val = self._parse_typed_operand()
            self.lex.expect("to")
            to_type = self.p._parse_type()
            from repro.ir.instructions import CastInst

            inst = CastInst(op, val, to_type)
            builder._insert(inst)
            return inst
        if op == "select":
            cond = self._parse_typed_operand()
            self.lex.expect(",")
            a = self._parse_typed_operand()
            self.lex.expect(",")
            b = self._parse_typed_operand()
            return builder.select(cond, a, b)
        if op == "freeze":
            return builder.freeze(self._parse_typed_operand())
        if op == "alloca":
            return builder.alloca(self.p._parse_type())
        if op == "load":
            loaded = self.p._parse_type()
            self.lex.expect(",")
            ptr = self._parse_typed_operand()
            return builder.load(loaded, ptr)
        if op == "gep":
            elem = self.p._parse_type()
            self.lex.expect(",")
            base = self._parse_typed_operand()
            self.lex.expect(",")
            index = self._parse_typed_operand()
            return builder.gep(elem, base, index)
        if op == "call":
            ret = self.p._parse_type()
            return self._parse_call(builder, ret)
        if op == "phi":
            type_ = self.p._parse_type()
            phi = builder.phi(type_)
            first = True
            while first or self.lex.accept(","):
                first = False
                self.lex.expect("[")
                ktok = self.lex.next()
                self.lex.expect(",")
                bname = self.lex.expect_kind("lname")[1][1:]
                self.lex.expect("]")
                block = self._block(bname)
                if ktok[0] == "number":
                    phi.incoming.append((ConstantInt(type_, int(ktok[1])), block))
                elif ktok[0] == "lname":
                    vname = ktok[1][1:]
                    if vname in self.values:
                        phi.incoming.append((self.values[vname], block))
                        self.values[vname].add_user(phi)
                    else:
                        phi.incoming.append((UndefValue(type_), block))
                        self.fixups.append((phi, len(phi.incoming) - 1, vname, ktok[2]))
                elif ktok[1] == "true":
                    phi.incoming.append((ConstantInt(IntType(1), 1), block))
                elif ktok[1] == "false":
                    phi.incoming.append((ConstantInt(IntType(1), 0), block))
                elif ktok[1] == "undef":
                    phi.incoming.append((UndefValue(type_), block))
                elif ktok[0] == "gname":
                    phi.incoming.append((self.p.lookup_global(ktok[1][1:], ktok[2]), block))
                else:
                    raise IRParseError(f"bad phi incoming {ktok[1]!r}", ktok[2])
            return phi
        raise IRParseError(f"unknown opcode {op!r}", line)

    def _parse_call(self, builder: IRBuilder, ret: Type) -> Value:
        kind, value, line = self.lex.next()
        if kind == "gname":
            callee = self.p.lookup_global(value[1:], line)
        elif kind == "lname":
            name = value[1:]
            if name not in self.values:
                raise IRParseError(f"use of undefined value %{name}", line)
            callee = self.values[name]
        else:
            raise IRParseError(f"bad callee {value!r}", line)
        self.lex.expect("(")
        args: List[Value] = []
        while not self.lex.accept(")"):
            if args:
                self.lex.expect(",")
            args.append(self._parse_typed_operand())
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
