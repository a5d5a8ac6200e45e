"""Tests for the textual IR parser and printer (roundtrip + errors).

The parser lexes a whole text with one ``findall`` into a list of token
strings (DESIGN §5.13, "Parsing the text").  The reference below is the
lexer it replaced, which matched one alternative at a time; on every text
it accepts the two must give the same tokens, and every text it rejects
must still fail to parse.
"""

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import IRParseError
from repro.ir.parser import _tokenize, parse_module
from repro.ir.printer import print_function, print_module
from repro.ir.verifier import verify_module
from repro.opt.pipeline import optimize
from tests.opt.test_pass_pins import TARGETS, _compile

# -- the reference: the one-match-per-token lexer, verbatim ----------------------

_REFERENCE_TOKEN_RE = re.compile(
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


class ReferenceLexError(Exception):
    def __init__(self, line: int, offset: int):
        super().__init__(f"unexpected character at line {line}")
        self.line = line
        self.offset = offset


def reference_tokens(text: str):
    """(kind, value) per token, or ReferenceLexError at a stray character."""
    tokens = []
    pos = 0
    line = 1
    while pos < len(text):
        m = _REFERENCE_TOKEN_RE.match(text, pos)
        if m is None:
            raise ReferenceLexError(line, pos)
        kind = m.lastgroup
        value = m.group()
        line += value.count("\n")
        if kind != "ws":
            tokens.append((kind, value))
        pos = m.end()
    return tokens


ISLOWER = """
define i1 @islower(i8 %chr) {
test_lb:
  %cmp1 = icmp sge i8 %chr, 97
  br i1 %cmp1, label %test_ub, label %end
test_ub:
  %cmp2 = icmp sle i8 %chr, 122
  br label %end
end:
  %r = phi i1 [ false, %test_lb ], [ %cmp2, %test_ub ]
  ret i1 %r
}
"""

FULL = """
@str = internal const [7 x i8] c"hello\\0A\\00"
@counter = global i32 0
@table = const [3 x i32] [i32 1, i32 2, i32 3]
@pointer = global ptr null

declare i32 @printf(ptr, ...)

define internal void @helper(i32 %x) {
entry:
  %p = alloca i32
  store i32 %x, ptr %p
  %v = load i32, ptr %p
  %g = gep i32, ptr @table, i64 1
  %t = load i32, ptr %g
  %sum = add i32 %v, %t
  store i32 %sum, ptr @counter
  ret void
}

define i32 @main() {
entry:
  call void @helper(i32 41)
  %c = load i32, ptr @counter
  switch i32 %c, label %done [ i32 1, label %one i32 2, label %two ]
one:
  br label %done
two:
  br label %done
done:
  %r = phi i32 [ %c, %entry ], [ 1, %one ], [ 2, %two ]
  %cmp = icmp sgt i32 %r, 0
  %sel = select i1 %cmp, i32 %r, i32 0
  %w = zext i32 %sel to i64
  %n = trunc i64 %w to i8
  %z = freeze i8 %n
  %x = sext i8 %z to i32
  ret i32 %x
}
"""


class TestRoundtrip:
    @pytest.mark.parametrize("source", [ISLOWER, FULL], ids=["islower", "full"])
    def test_print_parse_print_fixpoint(self, source):
        m1 = parse_module(source)
        verify_module(m1)
        text1 = print_module(m1)
        m2 = parse_module(text1)
        verify_module(m2)
        assert print_module(m2) == text1

    def test_forward_references_resolve(self):
        # @callee and @data are defined after their uses.
        m = parse_module(
            """
define i32 @caller() {
entry:
  %r = call i32 @callee()
  %p = gep i8, ptr @data, i64 0
  ret i32 %r
}

define i32 @callee() {
entry:
  ret i32 7
}

@data = const [2 x i8] c"x\\00"
"""
        )
        verify_module(m)
        assert "callee" in m.symbols and "data" in m.symbols

    def test_alias_roundtrip(self):
        src = """
define i32 @base() {
entry:
  ret i32 1
}

@alias_name = alias @base
"""
        m = parse_module(src)
        verify_module(m)
        text = print_module(m)
        assert "@alias_name = alias @base" in text
        m2 = parse_module(text)
        assert m2.get("alias_name").aliasee.name == "base"


class TestParseErrors:
    def test_undefined_value(self):
        with pytest.raises(IRParseError):
            parse_module(
                "define i32 @f() {\nentry:\n  ret i32 %nope\n}"
            )

    def test_undefined_global(self):
        with pytest.raises(IRParseError):
            parse_module(
                "define void @f() {\nentry:\n  call void @missing()\n  ret void\n}"
            )

    def test_redefined_value(self):
        with pytest.raises(IRParseError):
            parse_module(
                "define i32 @f(i32 %a) {\nentry:\n"
                "  %x = add i32 %a, 1\n  %x = add i32 %a, 2\n  ret i32 %x\n}"
            )

    def test_bad_token(self):
        with pytest.raises(IRParseError):
            parse_module("define i32 @f() ???")

    def test_unterminated_body(self):
        with pytest.raises(IRParseError):
            parse_module("define i32 @f() {\nentry:\n  ret i32 0\n")

    def test_phi_forward_reference_to_missing_value(self):
        with pytest.raises(IRParseError):
            parse_module(
                """
define i32 @f(i1 %c) {
entry:
  br i1 %c, label %a, label %a
a:
  %r = phi i32 [ %ghost, %entry ]
  ret i32 %r
}
"""
            )


class TestStringEscapes:
    def test_hex_escapes_roundtrip(self):
        m = parse_module('@s = const [4 x i8] c"\\00\\FFa\\0A"')
        data = m.get("s").initializer.data
        assert data == b"\x00\xffa\n"
        assert print_module(parse_module(print_module(m))) == print_module(m)


class TestDeclarations:
    def test_global_declaration(self):
        m = parse_module("@ext = declare global i64")
        assert m.get("ext").is_declaration()

    def test_function_declaration_printed_without_names(self):
        m = parse_module("declare i32 @printf(ptr, ...)")
        text = print_module(m)
        assert "declare i32 @printf(ptr, ...)" in text


class TestForwardReferences:
    # entry -> b2 -> b1: %p dominates its use, though it prints later.
    FORWARD_CALLEE = """define i32 @main(ptr %fp) {
entry:
  br label %b2
b1:
  %r = call i32 %p()
  ret i32 %r
b2:
  %p = load ptr, ptr %fp
  br label %b1
}
"""

    def test_indirect_call_through_a_forward_reference(self):
        m = parse_module(self.FORWARD_CALLEE)
        verify_module(m)
        call = m.get("main").blocks[1].instructions[0]
        assert call.callee is m.get("main").blocks[2].instructions[0]
        assert print_module(m) == self.FORWARD_CALLEE

    def test_forward_operand_must_have_its_declared_type(self):
        with pytest.raises(IRParseError, match=r"%y is defined as i64 but used as i32") as info:
            parse_module(
                "define i32 @f() {\n"
                "entry:\n"
                "  br label %b2\n"
                "b1:\n"
                "  %x = add i32 %y, 1\n"
                "  ret i32 %x\n"
                "b2:\n"
                "  %y = add i64 1, 2\n"
                "  br label %b1\n"
                "}\n"
            )
        assert (info.value.line, info.value.column) == (5, 16)

    def test_forward_phi_incoming_must_have_the_phi_type(self):
        with pytest.raises(IRParseError, match=r"%y is defined as i1 but used as i32") as info:
            parse_module(
                "define i32 @f() {\n"
                "entry:\n"
                "  br label %b1\n"
                "b1:\n"
                "  %r = phi i32 [ 0, %entry ], [ %y, %b2 ]\n"
                "  ret i32 %r\n"
                "b2:\n"
                "  %y = icmp eq i32 1, 2\n"
                "  br label %b1\n"
                "}\n"
            )
        assert (info.value.line, info.value.column) == (5, 33)


# Each text fails at one token: (text, message, line, column).
ERRORS = {
    "stray-question-mark": ("define i32 @f() ???", "unexpected character '?'", 1, 17),
    "dollar-name-start": ("declare i32 $f()", "unexpected character '$'", 1, 13),
    "unterminated-string": (
        '@s = const [2 x i8] c"ab', "unexpected character '\"'", 1, 22,
    ),
    "stray-after-the-error": (
        "declare i32 @f(\n; a comment\n  i32 ?)", "unexpected character '?'", 3, 7,
    ),
    # The parse stops first at an AttributeError, from a ptr array element.
    "stray-after-another-exception": (
        "@g = global [1 x ptr] [ ptr 1 ]\n?", "unexpected character '?'", 2, 1,
    ),
    # A lone sigil or minus is a stray character, not an empty name or a number.
    "lone-percent": (
        "define i32 @f() {\nentry:\n  % = add i32 1, 2\n  ret i32 0\n}",
        "unexpected character '%'", 3, 3,
    ),
    "lone-at": ("@ = global i32 0", "unexpected character '@'", 1, 1),
    "lone-minus": ("@g = global i32 -", "unexpected character '-'", 1, 17),
    "string-is-not-a-label": (
        'define void @f() {\nc"x":\n  ret void\n}', "instruction outside a block", 2, 1,
    ),
    "unexpected-top-level-token": ("\n  ret i32 0", "unexpected token 'ret'", 2, 3),
    "end-of-input": ("declare i32 @f(i32,", "unexpected end of input", 1, 20),
    "unterminated-body": (
        "define i32 @f() {\nentry:\n  ret i32 0\n", "unterminated function body", 1, 17,
    ),
    "unknown-type": ("declare i33 @f()", "unknown type 'i33'", 1, 9),
    "bad-initializer": ("@g = global i32 @h", "bad initializer '@h'", 1, 17),
    "redefinition": (
        "define i32 @f(i32 %a) {\nentry:\n  %x = add i32 %a, 1\n"
        "  %x = add i32 %a, 2\n  ret i32 %x\n}",
        "redefinition of %x", 4, 3,
    ),
    "undefined-value": (
        "define i32 @f() {\nentry:\n  ret i32 %nope\n}",
        "use of undefined value %nope", 3, 11,
    ),
    "undefined-phi-value": (
        "define i32 @f(i1 %c) {\nentry:\n  br i1 %c, label %a, label %a\n"
        "a:\n  %r = phi i32 [ %ghost, %entry ]\n  ret i32 %r\n}",
        "undefined value %ghost", 5, 18,
    ),
    "undefined-global": (
        "define void @f() {\nentry:\n  call void @missing()\n  ret void\n}",
        "undefined global @missing", 3, 13,
    ),
    "undefined-alias-target": ("@a = alias @nowhere", "undefined global @nowhere", 1, 12),
    "undefined-block": (
        "define void @f(i1 %c) {\nentry:\n  br i1 %c, label %yes, label %no\n"
        "yes:\n  br label %no\n}",
        "undefined block label %no", 3, 31,
    ),
    "instruction-outside-a-block": (
        "define void @f() {\n  ret void\n}", "instruction outside a block", 2, 3,
    ),
    "bad-operand": (
        "define i32 @f() {\nentry:\n  ret i32 ]\n}", "bad operand ']'", 3, 11,
    ),
    "integer-literal-type": (
        "define ptr @f() {\nentry:\n  ret ptr 7\n}", "integer literal with type ptr", 3, 11,
    ),
    "unknown-opcode": (
        "define i32 @f() {\nentry:\n  %x = frob i32 1\n  ret i32 %x\n}",
        "unknown opcode 'frob'", 3, 8,
    ),
    "unknown-instruction": (
        "define void @f() {\nentry:\n  frob\n  ret void\n}",
        "unknown instruction 'frob'", 3, 3,
    ),
    "bad-predicate": (
        "define i1 @f() {\nentry:\n  %c = icmp big i32 1, 2\n  ret i1 %c\n}",
        "bad icmp predicate 'big'", 3, 13,
    ),
    "bad-phi-incoming": (
        "define i32 @f() {\nentry:\n  br label %b\nb:\n"
        "  %r = phi i32 [ null, %entry ]\n  ret i32 %r\n}",
        "bad phi incoming 'null'", 5, 18,
    ),
    "bad-callee": (
        "define void @f() {\nentry:\n  call void 7()\n  ret void\n}",
        "bad callee '7'", 3, 13,
    ),
    "unassigned-call": (
        "declare i32 @g()\ndefine void @f() {\nentry:\n  call i32 @g()\n  ret void\n}",
        "non-void call must be assigned", 4, 3,
    ),
    "expected-token": (
        "define i32 @f(i32 %a) {\nentry:\n  %x = add i32 %a 1\n  ret i32 %x\n}",
        "expected ',', got '1'", 3, 19,
    ),
}


@pytest.mark.parametrize("case", sorted(ERRORS))
def test_errors_name_the_offending_token(case):
    text, message, line, column = ERRORS[case]
    with pytest.raises(IRParseError) as info:
        parse_module(text)
    assert (info.value.line, info.value.column) == (line, column)
    assert str(info.value) == f"line {line}:{column}: {message}"


# -- the token list against the reference ----------------------------------------

_names = st.from_regex(r"[@%][A-Za-z_.$][\w.$]{0,4}", fullmatch=True)
_strings = st.builds(
    lambda body, closed: 'c"' + "".join(body) + ('"' if closed else ""),
    st.lists(st.one_of(st.sampled_from(["a", " ", ";", "\\00", "\\7F", "\\"]),
                       st.characters(blacklist_characters='"\\')), max_size=4),
    st.booleans(),
)
_words = st.one_of(
    st.sampled_from(["define", "i32", "ptr", "x", "c", "label", "add", "phi", "..", "_"]),
    st.from_regex(r"[A-Za-z_.][\w.]{0,4}", fullmatch=True),
)
_pieces = st.one_of(
    _names,
    st.integers(-300, 10**6).map(str),
    _strings,
    st.sampled_from(["=", ",", "(", ")", "{", "}", "[", "]", ":", "*", "..."]),
    _words,
    st.sampled_from([" ", "\n", "\t", "\r\n", "  "]),
    st.from_regex(r";[^\n]{0,6}\n?", fullmatch=True),
    # Stray characters: none of these starts a token where it stands.
    st.sampled_from(["?", "$", "!", "#", '"', "\\", "@", "%", "-", "+", "é", "²", "\x00"]),
)


def _kind(token: str) -> str:
    """A token's kind, from its first character."""
    if token.startswith('c"'):
        return "string"
    first = token[0]
    if first == "@":
        return "gname"
    if first == "%":
        return "lname"
    if first.isdecimal() or first == "-":
        return "number"
    if first.isascii() and (first.isalpha() or first in "_."):
        return "word"
    return "punct"


@settings(deadline=None)
@given(st.lists(_pieces, max_size=30).map("".join))
def test_token_list_matches_the_reference(text):
    try:
        want = reference_tokens(text)
    except ReferenceLexError as exc:
        with pytest.raises(IRParseError) as info:
            parse_module(text)
        column = exc.offset - text.rfind("\n", 0, exc.offset)
        assert (info.value.line, info.value.column) == (exc.line, column)
        return
    tokens = _tokenize(text)
    assert all(type(t) is str for t in tokens)
    assert tokens == [value for _, value in want]
    assert [_kind(t) for t in tokens] == [kind for kind, _ in want]


# -- whole programs ---------------------------------------------------------------


@pytest.mark.parametrize("target", TARGETS)
def test_every_program_round_trips_at_o0_and_o2(target):
    module = _compile(target)
    for level in (0, 2):
        if level:
            optimize(module, level)
        text = print_module(module)
        assert print_module(parse_module(text)) == text, f"{target} at -O{level}"


# -- the names a parse leaves behind ----------------------------------------------


class TestNamingContract:
    """Each valued instruction is appended first, which names it "v" or
    "vN", and renamed to its printed name after; each phi is named "phi"
    or "phiN" first.  Both draw on the function's counter, so names the
    optimizer makes later continue from it."""

    LOOP = """
define i32 @f(i32 %a) {
entry:
  %x = add i32 %a, 1
  %y = mul i32 %x, 2
  br label %loop
loop:
  %p = phi i32 [ %y, %entry ], [ %q, %loop ]
  %r = phi i32 [ 0, %entry ], [ %p, %loop ]
  %q = add i32 %p, 1
  %c = icmp slt i32 %q, 10
  br i1 %c, label %loop, label %done
done:
  ret i32 %r
}
"""

    def test_k_values_and_j_phis(self):
        fn = parse_module(self.LOOP).get("f")
        # k = 4 valued instructions and j = 2 phis: "v", "phi", then one
        # counter step each for the other 4.
        assert fn._counter == 4
        assert fn._value_names == {
            "a", "x", "y", "p", "r", "q", "c", "v", "v1", "phi", "phi2", "v3", "v4",
        }
        assert fn._block_names == {"entry", "loop", "done"}
        assert fn.uniquify_value_name("v") == "v5"

    def test_printed_names_the_counter_would_make(self):
        fn = parse_module(
            "define i32 @g(i32 %v) {\nentry:\n  %v1 = add i32 %v, 1\n"
            "  %v2 = add i32 %v1, 1\n  ret i32 %v2\n}\n"
        ).get("g")
        assert fn._counter == 2
        assert fn._value_names == {"v", "v1", "v2"}
        assert fn.uniquify_value_name("v") == "v3"
        assert print_function(fn).count("%v2 = add") == 1
