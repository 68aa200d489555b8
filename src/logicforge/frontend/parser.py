"""Parser for Logic.py, the search DSL.

A program is a sequence of class and function declarations. Its syntax is a
small part of Python's, and ``parse`` reads it in one pass: one compiled
regex tokenises the text, and a recursive-descent parser (precedence
climbing for expressions) builds the DSL AST straight from the tokens.
Every text outside the grammar below is a ``DslSyntaxError`` with a line and
a column; the messages are the parser's own, the same on every Python.

Lexical grammar:

- Lines end at ``\\n``, ``\\r\\n`` or a lone ``\\r``. A newline inside ``()``
  or ``[]`` continues the line; anywhere else it ends a declaration or
  statement. Blank lines, and comments from ``#`` to the end of the line,
  may stand anywhere.
- Spaces and tabs separate tokens. A tab may not stand in the indentation
  of a line that begins a declaration or statement.
- Names are ASCII: a letter or ``_``, then letters, digits and ``_``. A
  Python keyword is not a name, and neither are ``assume``, ``nondet`` and
  ``abs`` (``RESERVED``) where a name is bound or read.
- Integers are decimal, with no leading zero and at most ``MAX_DIGITS``
  digits, and no letter, digit, ``_`` or ``.`` may follow them: ``1and`` is
  an error, not ``1 and``.
- Strings are quoted in ``"`` or ``'`` on one line. The escapes are ``\\\\``,
  ``\\"`` and ``\\'``, and no other; other text outside ASCII is allowed. No
  control character other than tab may stand in a string's value.
- No NUL or lone surrogate may stand anywhere, comments included.

Syntax:

- ``class NAME:`` at column 0, then one or more fields ``NAME: TYPE``, each
  on its own line, all at the indentation of the first. A type is a name,
  ``Unique[T]``, ``Domain[int, range(LO, HI)]``,
  ``Domain[str, "a", "b", ...]`` or ``list[NAME, SIZE]``: no parentheses
  and no trailing commas in a type.
- ``def NAME(NAME: NAME) -> None:`` (the ``-> None`` may go) at column 0,
  then one or more statements, each on its own line at the indentation of
  the first: ``NAME = E``, ``assume(E)`` or ``assert E``.
- Expressions: ``or``, ``and``, ``not``, one comparison (``==``, ``!=``,
  ``<``, ``<=``, ``>``, ``>=``), ``+``, ``-``, ``*``, in Python's
  precedence; ``-`` before an integer literal; ``.field``; ``[INT]`` with an
  integer literal, which may be negated; ``nondet(E)`` and ``abs(E)``;
  names, integers, strings and parentheses around any expression.
- A statement's expression tree is at most ``MAX_NESTING`` edges high.
  Parentheses add no edge, and at most ``MAX_NESTING`` of them may be open
  at once.

These forms of Python's syntax are left out, and no text in the repository
(the benchmark corpus, ``tests/data``, the transcript) uses them: hex,
octal, binary and underscore integers and leading zeros; backslash
continuation; string prefixes, triple quotes, other escapes and implicit
concatenation; names outside ASCII; ``;``; one-line ``class C: a: int``
bodies; parentheses and trailing commas outside expressions
(``class C():``, ``(x) = 1``, ``nondet(x,)``, ``x.hs[(0)]``, ``-(1)``);
and integers of more than ``MAX_DIGITS`` digits.
"""

from __future__ import annotations

import keyword
import re
from itertools import accumulate, chain, compress

from ..errors import DslSyntaxError
from .ast import (
    INT,
    STR,
    Abs,
    Assert,
    Assign,
    Assume,
    Binary,
    BoolOp,
    ClassDecl,
    Compare,
    DomainSpec,
    DslProgram,
    EnumValues,
    Expr,
    FieldAccess,
    FieldDecl,
    FuncDecl,
    Index,
    IntLit,
    IntRange,
    LocalRef,
    Nondet,
    Not,
    Stmt,
    StrLit,
    children,
    locate,
)
from ..records import Frozen

RESERVED = frozenset({"assume", "nondet", "abs"})

# Deepest expression nesting accepted: the height of a statement's expression
# tree, in edges. Every operator, call, field access and index adds one
# level; parentheses add none, and at most this many may be open at once.
# Every later stage (check, lower, solve, find_second, C emission) recurses
# on the expression tree, and a program at this depth passes all of them
# under the default recursion limit.
MAX_NESTING = 50

# The most digits an integer literal may have: the least limit
# sys.set_int_max_str_digits accepts, so that int() reads every literal
# the parser accepts, whatever limit the process has set.
MAX_DIGITS = 640


class SourceText(Frozen):
    """A unit of DSL source plus a label used in diagnostics."""

    def __init__(self, text: str, origin: str = "<string>"):
        vars(self).update(text=text, origin=origin)


def parse(source: SourceText | str) -> DslProgram:
    """Parse source text into a DslProgram or raise DslSyntaxError."""
    if isinstance(source, str):
        source = SourceText(source)
    return _Parser(source).program()


# One token after the spaces and tabs before it: a name, an operator, a
# string, an integer, or a newline with the comment before it. An integer may
# not touch a letter, digit, '_' or '.', so 1and, 0x1, 01, 1_0 and 1.5 match
# no token. A character no token matches is a lexical error.
_TOKEN = re.compile(
    r"([ \t]*)([A-Za-z_]\w*|[=!<>]=|->|[-+*<>=.,:()\[\]]"
    r"|\"[^\"\\\n]*(?:\\.[^\"\\\n]*)*\"|'[^'\\\n]*(?:\\.[^'\\\n]*)*'"
    r"|(?:0|[1-9]\d*)(?![\w.])|(?:#.*)?\n)",
    re.ASCII,
)
_SPACES = re.compile(r"[ \t]*")
_FORBIDDEN = re.compile(r"[\x00\ud800-\udfff]")
_CONTROL = re.compile(r"[\x00-\x08\x0a-\x1f\x7f-\x9f]")
_ESCAPE = re.compile(r"\\(.)")

_KEYWORDS = frozenset(keyword.kwlist)
_NOT_NAMES = _KEYWORDS | RESERVED
_CALLS = {"nondet": Nondet, "abs": Abs}
_QUOTES = ("'", '"')
_BRACKETS = {"(": ")", "[": "]"}
# How tightly each binary operator binds; ``not`` binds at 3.
_PRECEDENCE = {
    "or": 1, "and": 2, "==": 4, "!=": 4, "<": 4, "<=": 4, ">": 4, ">=": 4, "+": 5, "-": 5, "*": 6
}


def _height_at_most(expr: Expr, limit: int) -> bool:
    if limit == 0:
        return not children(expr)
    return all(_height_at_most(child, limit - 1) for child in children(expr))


def _continued(tokens: list[str]) -> list[int]:
    """The indexes of the newline tokens inside brackets."""
    inside = []
    depth = 0
    for k, token in enumerate(tokens):
        if token in "([":  # no other token is part of these strings
            depth += 1
        elif token in ")]":
            depth -= 1
        elif depth > 0 and token[-1] == "\n":
            inside.append(k)
    return inside


class _Parser:
    """A recursive-descent parser over the tokens of one text and the
    offsets at which they start. Outside brackets every line ends in a
    newline token; empty sentinel tokens end the list, so no lookahead runs
    past the last token. All its state is its own, so threads may parse at
    once."""

    def __init__(self, source: SourceText):
        text = source.text
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        self.text = text = text + "\n"
        self.origin = source.origin
        # spaces and tokens alternate in ``flat``, so the running length at
        # each run of spaces is the offset of the token after it
        flat = list(chain.from_iterable(_TOKEN.findall(text)))
        ends = list(accumulate(map(len, flat)))
        forbidden = "\x00" in text or not text.isascii() and _FORBIDDEN.search(text)
        if ends[-1] != len(text) or forbidden:  # a character no token matches
            raise self.lexical_error()
        tokens = flat[1::2]
        offsets = ends[0::2]
        inside = _continued(tokens)
        if inside:  # newlines inside brackets are spaces: drop them
            kept = [True] * len(tokens)
            for k in inside:
                kept[k] = False
            tokens = list(compress(tokens, kept))
            offsets = list(compress(offsets, kept))
        # the sentinels stand at the last newline: the end of the text is on its last line
        self.tokens = tokens + ["", ""]
        self.offsets = offsets + [len(text) - 1, len(text) - 1]
        self.tabs = "\t" in text
        self.i = 0  # the next token
        self.line_start = 0  # the offset of the first character of the cursor's line
        self.parens = 0  # grouping parentheses open at the cursor

    # -- positions and errors ----------------------------------------------

    def err_at(self, offset: int, message: str) -> DslSyntaxError:
        pos = locate(self.text, offset)
        return DslSyntaxError(message, self.origin, pos.line, pos.col)

    def err(self, i: int, message: str) -> DslSyntaxError:
        return self.err_at(self.offsets[i], message)

    def fail(self, what: str) -> DslSyntaxError:
        """The error at the cursor, where ``what`` was expected."""
        i = self.i
        if not self.tokens[i]:  # the end of the text
            opened = []  # the brackets open there
            for k, token in enumerate(self.tokens[:i]):
                if token in _BRACKETS:
                    opened.append(k)
                elif opened and token == _BRACKETS[self.tokens[opened[-1]]]:
                    opened.pop()
            if opened:
                return self.err(opened[-1], f"{self.tokens[opened[-1]]!r} was never closed")
        return self.err(i, f"expected {what}")

    def lexical_error(self) -> DslSyntaxError:
        """The error at the first NUL or lone surrogate, or else at the
        first character no token matches."""
        text = self.text
        forbidden = _FORBIDDEN.search(text)
        if forbidden:
            offset = forbidden.start()
        else:
            offset = 0
            for match in _TOKEN.finditer(text):
                if match.start() != offset:
                    break
                offset = match.end()
            offset = _SPACES.match(text, offset).end()
        char = text[offset]
        if char in _QUOTES:
            return self.err_at(offset, "unterminated string literal")
        if char in "0123456789":
            return self.err_at(offset, "invalid integer literal")
        if char in "/%@&|^~":
            return self.err_at(offset, f"unsupported operator {char!r}")
        shown = repr(char) if " " <= char <= "~" else f"U+{ord(char):04X}"
        return self.err_at(offset, f"invalid character {shown}")

    # -- tokens --------------------------------------------------------------

    def expect(self, token: str) -> None:
        if self.tokens[self.i] != token:
            raise self.fail(repr(token))
        self.i += 1

    def name(self) -> str:
        """A name that is bound or read: no keyword and no reserved name."""
        token = self.tokens[self.i]
        if not token.isidentifier() or token in _NOT_NAMES:
            if token in RESERVED:
                raise self.err(self.i, f"{token!r} is reserved")
            raise self.fail("a name")
        self.i += 1
        return token

    def word(self, what: str) -> str:
        """A field or type name: any name but a keyword."""
        token = self.tokens[self.i]
        if not token.isidentifier() or token in _KEYWORDS:
            raise self.fail(what)
        self.i += 1
        return token

    def integer(self) -> int:
        """An integer literal, optionally negated."""
        sign = 1
        if self.tokens[self.i] == "-":
            sign = -1
            self.i += 1
        token = self.tokens[self.i]
        if not token.isdigit():
            raise self.fail("an integer literal")
        if len(token) > MAX_DIGITS:
            raise self.err(self.i, "integer literal too long")
        self.i += 1
        return sign * int(token)

    def string(self) -> str:
        i = self.i
        token = self.tokens[i]
        if token[:1] not in _QUOTES:
            raise self.fail("a string literal")
        self.i += 1
        value = token[1:-1]
        if "\\" in value:
            for match in _ESCAPE.finditer(value):
                if match.group(1) not in "\\\"'":
                    message = f"invalid escape sequence '{match.group()}'"
                    raise self.err_at(self.offsets[i] + 1 + match.start(), message)
            value = _ESCAPE.sub(r"\1", value)
        if not value.isprintable() and _CONTROL.search(value):
            raise self.err(i, "control character in string literal")
        return value

    def end_line(self) -> None:
        """Past the newline at the cursor and the blank lines after it."""
        tokens = self.tokens
        token = tokens[self.i]
        if "\n" not in token:
            raise self.fail("the end of the line")
        while "\n" in token:
            self.line_start = self.offsets[self.i] + len(token)
            self.i += 1
            token = tokens[self.i]

    def indentation(self) -> int:
        """The column of the token at the cursor, the first of its line."""
        offset = self.offsets[self.i]
        if self.tabs and "\t" in self.text[self.line_start : offset]:
            tab = self.text.index("\t", self.line_start)
            raise self.err_at(tab, "tab character in indentation")
        return offset - self.line_start

    # -- declarations ------------------------------------------------------

    def program(self) -> DslProgram:
        tokens = self.tokens
        classes: list[ClassDecl] = []
        functions: list[FuncDecl] = []
        if "\n" in tokens[0]:
            self.end_line()
        while tokens[self.i]:
            if self.indentation():
                raise self.err(self.i, "unexpected indentation")
            pos = self.offsets[self.i]
            if tokens[self.i] == "class":
                self.i += 1
                name = self.name()
                self.expect(":")
                self.end_line()
                classes.append(ClassDecl(name, self.block(self.field_decl), pos))
            elif tokens[self.i] == "def":
                self.i += 1
                name = self.name()
                self.expect("(")
                param = self.name()
                self.expect(":")
                param_type = self.word("a class name")
                self.expect(")")
                if tokens[self.i] == "->":
                    self.i += 1
                    if tokens[self.i] != "None":
                        raise self.err(self.i, "the return annotation must be None")
                    self.i += 1
                self.expect(":")
                self.end_line()
                functions.append(FuncDecl(name, param, param_type, self.block(self.stmt), pos))
            else:
                raise self.err(self.i, "expected a class or function definition")
        return DslProgram(tuple(classes), tuple(functions), self.text)

    def block(self, item) -> tuple:
        """A block's fields or statements: one or more lines, each at the
        indentation of the first."""
        items = []
        indent = 0
        while self.tokens[self.i]:
            col = self.indentation()
            if not col:
                break
            if indent and col != indent:
                raise self.err(self.i, "indentation does not match the block")
            indent = col
            items.append(item())
            self.end_line()
        if not items:
            raise self.fail("an indented block")
        return tuple(items)

    def field_decl(self) -> FieldDecl:
        pos = self.offsets[self.i]
        if self.tokens[self.i + 1] != ":":
            raise self.err(self.i, "expected a field declaration 'name: type'")
        name = self.name()
        self.i += 1
        return FieldDecl(name, *self.annotation(), pos)

    def annotation(self) -> tuple[str, bool, DomainSpec | None, int | None]:
        """``base, unique, domain, list_len``, in FieldDecl's order."""
        tokens = self.tokens
        start = self.i
        kind = self.word("a type annotation")
        if tokens[self.i] != "[":
            return kind, False, None, None
        i = self.i = self.i + 1
        if kind == "Unique":
            if tokens[i] == "Unique" and tokens[i + 1] == "[":
                raise self.err(i, "'Unique' cannot be nested")
            base, _, domain, list_len = self.annotation()
            if list_len is not None:
                raise self.err(start, "'Unique' cannot wrap a list annotation")
            result = base, True, domain, None
        elif kind == "Domain" and tokens[i] == INT and tokens[i + 1] == ",":
            self.i += 2
            self.expect("range")
            self.expect("(")
            lo = self.integer()
            self.expect(",")
            hi = self.integer()
            self.expect(")")
            result = INT, False, IntRange(lo, hi), None
        elif kind == "Domain" and tokens[i] == STR and tokens[i + 1] == ",":
            self.i += 1
            values = []
            while tokens[self.i] == ",":
                self.i += 1
                values.append(self.string())
            result = STR, False, EnumValues(tuple(values)), None
        elif kind == "Domain":
            raise self.err(start, "expected Domain[int, range(lo, hi)] or Domain[str, \"a\", ...]")
        elif kind == "list":
            base = self.word("a class name")
            self.expect(",")
            size_at = self.i
            size = self.integer()
            if size <= 0:
                raise self.err(size_at, "list size must be positive")
            result = base, False, None, size
        else:
            raise self.err(start, f"unsupported type annotation {kind!r}")
        self.expect("]")
        return result

    def stmt(self) -> Stmt:
        tokens = self.tokens
        start = self.i
        pos = self.offsets[start]
        first = tokens[start]
        if first == "assert":
            self.i += 1
            stmt = Assert(self.root_expr(), pos)
            if tokens[self.i] == ",":
                raise self.err(self.i, "assert messages are not supported")
        elif first == "assume":
            self.i += 1
            self.expect("(")
            stmt = Assume(self.root_expr(), pos)
            self.expect(")")
        elif tokens[start + 1] == "=":
            target = self.name()
            self.i += 1
            stmt = Assign(target, self.root_expr(), pos)
        else:
            raise self.err(start, "expected an assignment, 'assume(...)' or 'assert' statement")
        return stmt

    # -- expressions -------------------------------------------------------

    def root_expr(self) -> Expr:
        """A statement's expression. ``expr`` bounds its recursion; a chain
        of operators it builds in a loop can still be too high, which only
        an expression of more than MAX_NESTING + 1 tokens can be."""
        start = self.i
        expr = self.expr(1, 0)
        if self.i - start > MAX_NESTING + 1 and not _height_at_most(expr, MAX_NESTING):
            raise self.err(start, f"expression nested too deeply (more than {MAX_NESTING} levels)")
        return expr

    def expr(self, precedence: int, depth: int) -> Expr:
        """The expression at the cursor whose operators all bind at least at
        ``precedence``, ``depth`` edges below its statement."""
        if depth > MAX_NESTING:
            raise self.err(self.i, f"expression nested too deeply (more than {MAX_NESTING} levels)")
        tokens = self.tokens
        start = self.i
        if tokens[start] == "not":
            if precedence > 3:
                raise self.fail("an expression")
            self.i += 1
            left = Not(self.expr(3, depth + 1), self.offsets[start])
        else:
            left = self.operand(depth)
        while True:
            op = tokens[self.i]
            binding = _PRECEDENCE.get(op, 0)
            if binding < precedence:
                return left
            at = self.i
            self.i += 1
            if binding < 3:  # and, or: one node for the whole run
                operands = [left, self.expr(binding + 1, depth + 1)]
                while tokens[self.i] == op:
                    self.i += 1
                    operands.append(self.expr(binding + 1, depth + 1))
                left = BoolOp(op, tuple(operands), self.offsets[start])
            elif binding == 4:
                right = self.expr(5, depth + 1)
                if _PRECEDENCE.get(tokens[self.i]) == 4:
                    raise self.err(self.i, "chained comparisons are not supported")
                left = Compare(op, left, right, self.offsets[at])
            else:
                left = Binary(op, left, self.expr(binding + 1, depth + 1), self.offsets[at])

    def operand(self, depth: int) -> Expr:
        """A negated literal, or an atom with its field accesses and indexes."""
        tokens = self.tokens
        i = self.i
        token = tokens[i]
        if token.isidentifier():
            if token in _NOT_NAMES:
                if token not in _CALLS or tokens[i + 1] != "(":
                    if token in RESERVED:
                        raise self.err(i, f"{token!r} is reserved")
                    raise self.fail("an expression")
                self.i += 2
                node = _CALLS[token](self.expr(1, depth + 1), self.offsets[i])
                if tokens[self.i] == ",":
                    raise self.err(i, "only 'nondet' and 'abs' may be called, with one argument")
                self.expect(")")
            else:
                node = LocalRef(token, self.offsets[i])
                self.i += 1
        elif token.isdigit():
            if len(token) > MAX_DIGITS:
                raise self.err(i, "integer literal too long")
            node = IntLit(int(token), self.offsets[i])
            self.i += 1
        elif token == "-":  # no trailers follow: -1 .a is -(1 .a)
            return IntLit(self.integer(), self.offsets[i])
        elif token == "(":
            if self.parens == MAX_NESTING:
                raise self.err(i, f"parentheses nested too deeply (more than {MAX_NESTING} levels)")
            self.parens += 1
            self.i += 1
            node = self.expr(1, depth)
            self.expect(")")
            self.parens -= 1
        elif token[:1] in _QUOTES:
            node = StrLit(self.string(), self.offsets[i])
        else:
            raise self.fail("an expression")
        while True:
            i = self.i
            token = tokens[i]
            if token == ".":
                field = tokens[i + 1]
                if not field.isidentifier() or field in _KEYWORDS:
                    self.i += 1
                    raise self.fail("a field name")
                self.i += 2
                node = FieldAccess(node, field, self.offsets[i])
            elif token == "[":
                self.i += 1
                node = Index(node, self.integer(), self.offsets[i])
                self.expect("]")
            elif token == "(":
                raise self.err(i, "only 'nondet' and 'abs' may be called, with one argument")
            else:
                return node
