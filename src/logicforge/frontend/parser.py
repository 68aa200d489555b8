"""Parser for the search DSL.

Logic.py is Python syntax, and ``parse`` has two paths to the DSL AST.

The fast path, ``_recognize``, reads well-formed programs in one pass: one
compiled regex tokenises the text, and a recursive-descent parser builds
the DSL AST straight from those tokens. It accepts only a conservative
subset of the closed grammar and returns None for anything else:

- printable ASCII text, with no tab, carriage return, form feed or
  backslash;
- each line blank, a comment, or one whole declaration or statement with an
  optional trailing comment: no grouping parentheses and no line
  continuations;
- ``class NAME:`` and ``def NAME(NAME: NAME)``, with an optional
  ``-> None``, at column 0, and their fields or statements at the one
  indentation their block's first line sets;
- the annotations the converter accepts, and expressions built from
  ``or``, ``and``, ``not``, one comparison, ``+``, ``-``, ``*``, ``-``
  before a decimal literal, ``.field``, ``[INT]`` and calls to ``nondet``
  and ``abs``;
- decimal integers without a leading zero, and strings in ``"`` or ``'``;
- no Python keyword, reserved DSL name or ``__debug__`` as a name;
- expression trees at most ``MAX_NESTING`` edges high.

The contract is one-sided: whenever the fast path returns a program, the
Python path returns an equal program with an equal ``Pos`` on every node.

The Python path, ``_Converter``, is the reference and reads everything
else: Python's own parser (``ast.parse``) reads the source, and one
recursive converter maps Python's syntax tree onto the DSL AST. The
converter accepts only the closed grammar: class declarations with
annotated fields, function definitions whose bodies contain only
assignments, assume(...) calls and assert statements, and a fixed expression
language. Anything else -- imports, loops, calls other than
nondet/abs/assume, chained comparisons, decorators, defaults -- is a syntax
error, as is every error Python's parser reports. Two lexical rules are the
DSL's own: no tab in the indentation of a class, def, field or statement
line, and no control character other than tab in a string's value. Every
syntax error, Python's included, comes from this path.
"""

from __future__ import annotations

import ast
import keyword
import re
import threading
from dataclasses import dataclass
from itertools import accumulate, chain

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
    Pos,
    Stmt,
    StrLit,
    children,
)

RESERVED = frozenset({"assume", "nondet", "abs"})

# Deepest expression nesting accepted: the height of a statement's expression
# tree, in edges, which the converter's recursion depth measures. Every
# operator, call, field access and index adds one level; parentheses add
# none, since Python's parser drops them (and itself rejects more than 200).
# Every later stage (check, lower, solve, find_second, C emission) recurses
# on the expression tree, and a program at this depth passes all of them
# under the default recursion limit.
MAX_NESTING = 50

# Two threads building Python syntax trees at once can fail with
# "SystemError: AST constructor recursion depth mismatch" (CPython 3.11.7).
_PYTHON_PARSER = threading.Lock()

_CONTROL = re.compile(r"[\x00-\x08\x0a-\x1f\x7f-\x9f]")
_COMPARE_OPS = {
    ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">="
}
_BINARY_OPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*"}
_BOOL_OPS = {ast.And: "and", ast.Or: "or"}


@dataclass(frozen=True)
class SourceText:
    """A unit of DSL source plus a label used in diagnostics."""

    text: str
    origin: str = "<string>"


def parse(source: SourceText | str) -> DslProgram:
    """Parse source text into a DslProgram or raise DslSyntaxError."""
    if isinstance(source, str):
        source = SourceText(source)
    program = _recognize(source.text)
    if program is None:
        program = _Converter(source).program()
    return program


# -- the fast path -----------------------------------------------------------

# Text outside the subset: anything but a newline and printable ASCII other
# than a backslash.
_OUTSIDE = re.compile(r"[^\n -\[\]-~]")

# One token after its leading spaces. An integer may not touch a letter,
# digit, '_' or '.', so 1and, 0x1, 01, 1_0, 1e3 and 1.5 match no token. A
# comment is part of the newline token that ends its line.
_TOKEN = re.compile(
    r"( *)([A-Za-z_]\w*|(?:0|[1-9]\d{0,999})(?![\w.])|\"[^\"\n]*\"|'[^'\n]*'"
    r"|[=!<>]=|->|[-+*<>=.,:()\[\]]|(?:#.*)?\n)"
)

_NOT_NAMES = frozenset(keyword.kwlist) | RESERVED | {"__debug__"}
_CALLS = {"nondet": Nondet, "abs": Abs}
# How tightly each binary operator binds; ``not`` binds at 3.
_PRECEDENCE = {
    "or": 1, "and": 2, "==": 4, "!=": 4, "<": 4, "<=": 4, ">": 4, ">=": 4, "+": 5, "-": 5, "*": 6
}


class _Outside(Exception):
    """The text is outside the fast path's subset."""


def _recognize(text: str) -> DslProgram | None:
    """The program of ``text`` when it lies in the fast path's subset, else None."""
    if _OUTSIDE.search(text):
        return None
    text += "\n"
    # spaces and tokens alternate in ``flat``, so the running length at each
    # run of spaces is the offset of the token after it
    flat = list(chain.from_iterable(_TOKEN.findall(text)))
    ends = list(accumulate(map(len, flat)))
    if ends[-1] != len(text):  # a character no token matches
        return None
    try:
        return _Recognizer(flat[1::2], ends[0::2]).program()
    except _Outside:
        return None


def _height_at_most(expr: Expr, limit: int) -> bool:
    if limit == 0:
        return not children(expr)
    return all(_height_at_most(child, limit - 1) for child in children(expr))


class _Recognizer:
    """A recursive-descent parser over the tokens of one text and the
    offsets at which they start. Every line ends in a newline token, so
    no lookahead runs past the last token."""

    def __init__(self, tokens: list[str], offsets: list[int]):
        self.tokens = tokens
        self.offsets = offsets
        self.i = 0  # the next token
        self.line = 1
        self.line_start = 0  # the offset of the line's first character

    def pos(self, i: int) -> Pos:
        return Pos(self.line, self.offsets[i] - self.line_start + 1)

    def expect(self, token: str) -> None:
        if self.tokens[self.i] != token:
            raise _Outside
        self.i += 1

    def name(self) -> str:
        token = self.tokens[self.i]
        if not token.isidentifier() or token in _NOT_NAMES:
            raise _Outside
        self.i += 1
        return token

    def end_line(self) -> None:
        token = self.tokens[self.i]
        if token[-1] != "\n":
            raise _Outside
        self.line += 1
        self.line_start = self.offsets[self.i] + len(token)
        self.i += 1

    # -- declarations ------------------------------------------------------

    def program(self) -> DslProgram:
        tokens = self.tokens
        classes: list[ClassDecl] = []
        functions: list[FuncDecl] = []
        self.skip_blank_lines()
        while self.i < len(tokens):
            if self.offsets[self.i] != self.line_start:
                raise _Outside
            pos = self.pos(self.i)
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
                param_type = self.name()
                self.expect(")")
                if tokens[self.i] == "->":
                    self.i += 1
                    self.expect("None")
                self.expect(":")
                self.end_line()
                functions.append(FuncDecl(name, param, param_type, self.block(self.stmt), pos))
            else:
                raise _Outside
        return DslProgram(tuple(classes), tuple(functions))

    def skip_blank_lines(self) -> None:
        tokens = self.tokens
        while self.i < len(tokens) and tokens[self.i][-1] == "\n":
            self.end_line()

    def block(self, item) -> tuple:
        """A block's fields or statements: one or more lines, each at the
        indentation of the first."""
        items = []
        indent = 0
        self.skip_blank_lines()
        while self.i < len(self.tokens):
            col = self.offsets[self.i] - self.line_start
            if not col:
                break
            if indent and col != indent:
                raise _Outside
            indent = col
            items.append(item())
            self.end_line()
            self.skip_blank_lines()
        if not items:
            raise _Outside
        return tuple(items)

    def field_decl(self) -> FieldDecl:
        pos = self.pos(self.i)
        name = self.name()
        self.expect(":")
        return FieldDecl(name, *self.annotation(), pos)

    def annotation(self) -> tuple[str, bool, DomainSpec | None, int | None]:
        """``base, unique, domain, list_len``, in FieldDecl's order."""
        kind = self.name()
        if self.tokens[self.i] != "[":
            return kind, False, None, None
        self.i += 1
        if kind == "Unique":
            if self.tokens[self.i] == "Unique":
                raise _Outside
            base, _, domain, list_len = self.annotation()
            if list_len is not None:
                raise _Outside
            result = base, True, domain, None
        elif kind == "Domain" and self.tokens[self.i] == INT:
            self.i += 1
            for token in (",", "range", "("):
                self.expect(token)
            lo = self.int_value()
            self.expect(",")
            hi = self.int_value()
            self.expect(")")
            result = INT, False, IntRange(lo, hi), None
        elif kind == "Domain" and self.tokens[self.i] == STR:
            self.i += 1
            values = []
            while self.tokens[self.i] == ",":
                self.i += 1
                values.append(self.string())
            if not values:
                raise _Outside
            result = STR, False, EnumValues(tuple(values)), None
        elif kind == "list":
            base = self.name()
            self.expect(",")
            size = self.int_value()
            if size <= 0:
                raise _Outside
            result = base, False, None, size
        else:
            raise _Outside
        self.expect("]")
        return result

    def int_value(self) -> int:
        """An integer literal, optionally negated."""
        sign = 1
        if self.tokens[self.i] == "-":
            sign = -1
            self.i += 1
        token = self.tokens[self.i]
        if not token.isdigit():
            raise _Outside
        self.i += 1
        return sign * int(token)

    def string(self) -> str:
        token = self.tokens[self.i]
        if token[0] not in "\"'":
            raise _Outside
        self.i += 1
        return token[1:-1]

    def stmt(self) -> Stmt:
        start = self.i
        pos = self.pos(start)
        first = self.tokens[start]
        if first == "assert":
            self.i += 1
            stmt = Assert(self.root_expr(), pos)
        elif first == "assume":
            self.i += 1
            self.expect("(")
            stmt = Assume(self.root_expr(), pos)
            self.expect(")")
        elif self.tokens[start + 1] == "=":
            target = self.name()
            self.i += 1
            stmt = Assign(target, self.root_expr(), pos)
        else:
            raise _Outside
        return stmt

    # -- expressions -------------------------------------------------------

    def root_expr(self) -> Expr:
        """A statement's expression. ``expr`` bounds its recursion; a chain
        of operators it builds in a loop can still be too high, which only
        an expression of more than MAX_NESTING + 1 tokens can be."""
        start = self.i
        expr = self.expr(1, 0)
        if self.i - start > MAX_NESTING + 1 and not _height_at_most(expr, MAX_NESTING):
            raise _Outside
        return expr

    def expr(self, precedence: int, depth: int) -> Expr:
        """The expression at the cursor whose operators all bind at least at
        ``precedence``, at least ``depth`` edges below its statement."""
        if depth > MAX_NESTING:
            raise _Outside
        tokens = self.tokens
        start = self.i
        if tokens[start] == "not":
            if precedence > 3:
                raise _Outside
            self.i += 1
            left = Not(self.expr(3, depth + 1), self.pos(start))
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
                left = BoolOp(op, tuple(operands), self.pos(start))
            elif binding == 4:
                right = self.expr(5, depth + 1)
                if _PRECEDENCE.get(tokens[self.i]) == 4:  # a chained comparison
                    raise _Outside
                left = Compare(op, left, right, self.pos(at))
            else:
                left = Binary(op, left, self.expr(binding + 1, depth + 1), self.pos(at))

    def operand(self, depth: int) -> Expr:
        """A negated literal, or an atom with its field accesses and indexes."""
        tokens = self.tokens
        i = self.i
        token = tokens[i]
        if token == "-":  # no trailers follow: -1 .a is -(1 .a)
            digits = tokens[i + 1]
            if not digits.isdigit():
                raise _Outside
            self.i += 2
            return IntLit(-int(digits), self.pos(i))
        if token.isidentifier():
            if token in _NOT_NAMES:
                if token not in _CALLS or tokens[i + 1] != "(":
                    raise _Outside
                self.i += 2
                node = _CALLS[token](self.expr(1, depth + 1), self.pos(i))
                self.expect(")")
            else:
                node = LocalRef(token, self.pos(i))
                self.i += 1
        elif token.isdigit():
            node = IntLit(int(token), self.pos(i))
            self.i += 1
        else:
            node = StrLit(self.string(), self.pos(i))
        while True:
            i = self.i
            token = tokens[i]
            if token == ".":
                self.i += 1
                node = FieldAccess(node, self.name(), self.pos(i))
            elif token == "[" and tokens[i + 1].isdigit() and tokens[i + 2] == "]":
                self.i += 3
                node = Index(node, int(tokens[i + 1]), self.pos(i))
            else:
                return node


class _Converter:
    def __init__(self, source: SourceText):
        self.text = source.text
        self.origin = source.origin
        # Python starts a new line at \n, \r\n and a lone \r.
        self.lines = self.text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
        self.ascii = self.text.isascii()
        self.tabs = "\t" in self.text

    # -- positions and errors ----------------------------------------------

    def column(self, line: int, offset: int) -> int:
        """The 0-based character index of a UTF-8 byte offset on a line."""
        if self.ascii:
            return offset
        return len(self.lines[line - 1].encode()[:offset].decode(errors="ignore"))

    def pos(self, node: ast.AST) -> Pos:
        return Pos(node.lineno, self.column(node.lineno, node.col_offset) + 1)

    def after(self, node: ast.expr) -> Pos:
        """The first token after ``node`` and its closing parentheses: the
        operator, '.' or '[' that follows it."""
        line = node.end_lineno
        col = self.column(line, node.end_col_offset)
        while line <= len(self.lines):
            text = self.lines[line - 1]
            while col < len(text) and text[col] in " \t\f)":
                col += 1
            if col < len(text) and text[col] not in "#\\":
                return Pos(line, col + 1)
            line, col = line + 1, 0
        return self.pos(node)

    def err(self, where: ast.AST | Pos, message: str) -> DslSyntaxError:
        pos = where if isinstance(where, Pos) else self.pos(where)
        return DslSyntaxError(message, self.origin, pos.line, pos.col)

    def untabbed(self, node: ast.AST) -> None:
        if self.tabs:
            text = self.lines[node.lineno - 1]
            tab = text.find("\t", 0, len(text) - len(text.lstrip()))
            if tab >= 0:
                raise self.err(Pos(node.lineno, tab + 1), "tab character in indentation")

    def not_reserved(self, name: str, node: ast.AST) -> None:
        if name in RESERVED:
            raise self.err(node, f"{name!r} is reserved")

    # -- declarations ------------------------------------------------------

    def program(self) -> DslProgram:
        try:
            with _PYTHON_PARSER:
                tree = ast.parse(self.text, self.origin)
        except SyntaxError as exc:  # IndentationError and TabError too
            line, col = exc.lineno or 1, max(exc.offset or 1, 1)
            raise DslSyntaxError(exc.msg, self.origin, line, col) from None
        except ValueError as exc:  # a lone surrogate; a NUL byte on Python 3.10
            raise DslSyntaxError(str(exc), self.origin, 1, 1) from None
        except (RecursionError, MemoryError):  # the C parser's depth guards
            raise DslSyntaxError("source nested too deeply to parse", self.origin, 1, 1) from None
        classes: list[ClassDecl] = []
        functions: list[FuncDecl] = []
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                classes.append(self.class_decl(node))
            elif isinstance(node, ast.FunctionDef):
                functions.append(self.func_decl(node))
            else:
                raise self.err(node, "expected a class or function definition")
        return DslProgram(tuple(classes), tuple(functions))

    def class_decl(self, node: ast.ClassDef) -> ClassDecl:
        self.untabbed(node)
        if node.bases or node.keywords or node.decorator_list or getattr(node, "type_params", ()):
            raise self.err(node, "a class takes no bases, keywords, decorators or type parameters")
        self.not_reserved(node.name, node)
        return ClassDecl(node.name, tuple(self.field_decl(f) for f in node.body), self.pos(node))

    def field_decl(self, node: ast.stmt) -> FieldDecl:
        self.untabbed(node)
        field = isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
        if not field or node.value is not None or not node.simple:
            raise self.err(node, "expected a field declaration 'name: type'")
        self.not_reserved(node.target.id, node)
        unique, base, domain, list_len = self.annotation(node.annotation)
        return FieldDecl(node.target.id, base, unique, domain, list_len, self.pos(node))

    def annotation(self, node: ast.expr) -> tuple[bool, str, DomainSpec | None, int | None]:
        if isinstance(node, ast.Name):
            return False, node.id, None, None
        if not (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)):
            raise self.err(node, "expected a type annotation")
        kind = node.value.id
        args = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
        if kind == "Unique" and len(args) == 1:
            inner = args[0]
            if isinstance(inner, ast.Subscript) and getattr(inner.value, "id", None) == "Unique":
                raise self.err(inner, "'Unique' cannot be nested")
            _, base, domain, list_len = self.annotation(inner)
            if list_len is not None:
                raise self.err(node, "'Unique' cannot wrap a list annotation")
            return True, base, domain, None
        if kind == "Domain" and len(args) >= 2:
            base = getattr(args[0], "id", None)
            if base == INT and len(args) == 2 and self.is_call(args[1], "range", 2):
                lo, hi = args[1].args
                return False, base, IntRange(self.int_value(lo), self.int_value(hi)), None
            if base == STR:
                return False, base, EnumValues(tuple(self.string(v) for v in args[1:])), None
            raise self.err(node, "expected Domain[int, range(lo, hi)] or Domain[str, \"a\", ...]")
        if kind == "list" and len(args) == 2 and isinstance(args[0], ast.Name):
            size = self.int_value(args[1])
            if size <= 0:
                raise self.err(args[1], "list size must be positive")
            return False, args[0].id, None, size
        raise self.err(node, f"unsupported type annotation {kind!r}")

    def func_decl(self, node: ast.FunctionDef) -> FuncDecl:
        self.untabbed(node)
        if node.decorator_list or getattr(node, "type_params", ()):
            raise self.err(node, "a function takes no decorators or type parameters")
        args = node.args
        extra = args.posonlyargs or args.vararg or args.kwonlyargs or args.kwarg or args.defaults
        if extra or len(args.args) != 1 or not isinstance(args.args[0].annotation, ast.Name):
            raise self.err(node, "expected exactly one parameter, annotated with its class")
        if node.returns is not None and not (
            isinstance(node.returns, ast.Constant) and node.returns.value is None
        ):
            raise self.err(node.returns, "the return annotation must be None")
        param = args.args[0]
        self.not_reserved(node.name, node)
        self.not_reserved(param.arg, node)
        body = tuple(self.stmt(s) for s in node.body)
        return FuncDecl(node.name, param.arg, param.annotation.id, body, self.pos(node))

    def stmt(self, node: ast.stmt) -> Stmt:
        self.untabbed(node)
        if isinstance(node, ast.Assert):
            if node.msg is not None:
                raise self.err(node.msg, "assert messages are not supported")
            return Assert(self.expr(node.test), self.pos(node))
        if isinstance(node, ast.Expr) and self.is_call(node.value, "assume", 1):
            return Assume(self.expr(node.value.args[0]), self.pos(node))
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                self.not_reserved(target.id, target)
                return Assign(target.id, self.expr(node.value), self.pos(node))
        raise self.err(node, "expected an assignment, 'assume(...)' or 'assert' statement")

    # -- expressions -------------------------------------------------------

    def expr(self, node: ast.expr, depth: int = 0) -> Expr:
        """``node`` as a DSL expression ``depth`` edges below its statement."""
        if depth > MAX_NESTING:
            raise self.err(node, f"expression nested too deeply (more than {MAX_NESTING} levels)")
        depth += 1
        if isinstance(node, ast.Attribute):
            return FieldAccess(self.expr(node.value, depth), node.attr, self.after(node.value))
        if isinstance(node, ast.Compare):
            if len(node.ops) > 1:
                second = self.after(node.comparators[0])
                raise self.err(second, "chained comparisons are not supported")
            op = self.operator(_COMPARE_OPS, node.ops[0], node.left)
            left, right = self.expr(node.left, depth), self.expr(node.comparators[0], depth)
            return Compare(op, left, right, self.after(node.left))
        if isinstance(node, ast.Name):
            self.not_reserved(node.id, node)
            return LocalRef(node.id, self.pos(node))
        if isinstance(node, ast.Constant):
            if type(node.value) is str:
                return StrLit(self.string(node), self.pos(node))
            return IntLit(self.int_value(node), self.pos(node))
        if isinstance(node, ast.Call):
            if self.is_call(node, "nondet", 1):
                return Nondet(self.expr(node.args[0], depth), self.pos(node))
            if self.is_call(node, "abs", 1):
                return Abs(self.expr(node.args[0], depth), self.pos(node))
            raise self.err(node, "only 'nondet' and 'abs' may be called, with one argument")
        if isinstance(node, ast.BoolOp):
            operands = tuple(self.expr(v, depth) for v in node.values)
            return BoolOp(_BOOL_OPS[type(node.op)], operands, self.pos(node))
        if isinstance(node, ast.BinOp):
            op = self.operator(_BINARY_OPS, node.op, node.left)
            left, right = self.expr(node.left, depth), self.expr(node.right, depth)
            return Binary(op, left, right, self.after(node.left))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            return Not(self.expr(node.operand, depth), self.pos(node))
        if isinstance(node, ast.UnaryOp):
            return IntLit(self.int_value(node), self.pos(node))
        if isinstance(node, ast.Subscript):
            obj = self.expr(node.value, depth)
            return Index(obj, self.int_value(node.slice), self.after(node.value))
        raise self.err(node, f"unsupported expression ({type(node).__name__})")

    def operator(self, ops: dict, op: ast.AST, left: ast.expr) -> str:
        if type(op) not in ops:
            raise self.err(self.after(left), f"unsupported operator ({type(op).__name__})")
        return ops[type(op)]

    @staticmethod
    def is_call(node: ast.expr, name: str, arity: int) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == name
            and len(node.args) == arity
            and not node.keywords
        )

    def int_value(self, node: ast.expr) -> int:
        """An integer literal, optionally negated."""
        sign = 1
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            sign, node = -1, node.operand
        if not (isinstance(node, ast.Constant) and type(node.value) is int):
            raise self.err(node, "expected an integer literal")
        if node.value.bit_length() > 14_000:  # str() refuses more than 4300 digits
            raise self.err(node, "integer literal too long")
        return sign * node.value

    def string(self, node: ast.expr) -> str:
        if not (isinstance(node, ast.Constant) and type(node.value) is str):
            raise self.err(node, "expected a string literal")
        if _CONTROL.search(node.value):
            raise self.err(node, "control character in string literal")
        return node.value
