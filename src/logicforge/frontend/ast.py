"""AST node types for the search DSL.

Nodes are slotted, hashable records (``logicforge.records``), each with
an ``__init__`` that assigns its slots, and no code mutates a node after
building it, since trees share subtrees. Nothing enforces this at run time:
a ``Frozen`` node would set each field through ``object.__setattr__`` or its
``__dict__``, and cost more to build. ``tests/test_ir.py`` checks that no
stage writes a node.

Each node's ``pos`` is the offset of its first token in ``DslProgram.text``:
the text it was parsed from, with ``\\r\\n`` and a lone ``\\r`` turned into
``\\n`` and a ``\\n`` added at the end. No stage reads a position on the way
to a result; ``locate`` turns one into a line and column only where a
diagnostic is raised. Positions and the text are left out of equality,
hash and repr, so two parses of equivalent source compare equal
structurally (the pretty-print/re-parse round trip relies on this). A tree
built as nodes, not parsed (``bench/render.py``), carries ``NO_POS``, which
resolves to ``0:0``.
"""

from __future__ import annotations

from typing import Union

from ..records import Record

INT = "int"
STR = "str"


class Pos(Record):
    """A line and column, both from 1, as a diagnostic shows them."""

    __slots__ = ("line", "col")

    def __init__(self, line: int = 0, col: int = 0):
        self.line, self.col = line, col


NO_POS = -1


def locate(text: str, offset: int) -> Pos:
    """The line and column of ``offset`` in ``text``; ``0:0`` for NO_POS."""
    if offset < 0:
        return Pos()
    return Pos(text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset))


class Node(Record):
    """A node with a ``pos``, which equality, hash and repr leave out."""

    __slots__ = ()
    _hidden = ("pos",)


# --- domains -----------------------------------------------------------------


class IntRange(Record):
    """Half-open integer range [lo, hi)."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int):
        self.lo, self.hi = lo, hi

    def values(self) -> range:
        return range(self.lo, self.hi)


class EnumValues(Record):
    __slots__ = ("values",)

    def __init__(self, values: tuple[str, ...]):
        self.values = values


DomainSpec = Union[IntRange, EnumValues]


# --- declarations ------------------------------------------------------------


class FieldDecl(Node):
    __slots__ = ("name", "base", "unique", "domain", "list_len", "pos")

    def __init__(
        self,
        name: str,
        base: str,  # "int", "str", or a class name
        unique: bool = False,
        domain: DomainSpec | None = None,
        list_len: int | None = None,
        pos: int = NO_POS,
    ):
        self.name, self.base, self.unique = name, base, unique
        self.domain, self.list_len, self.pos = domain, list_len, pos

    @property
    def is_class_ref(self) -> bool:
        return self.base not in (INT, STR)


class ClassDecl(Node):
    __slots__ = ("name", "fields", "pos")

    def __init__(self, name: str, fields: tuple[FieldDecl, ...], pos: int = NO_POS):
        self.name, self.fields, self.pos = name, fields, pos

    def field_named(self, name: str) -> FieldDecl | None:
        for f in self.fields:
            if f.name == name:
                return f
        return None


# --- expressions -------------------------------------------------------------


class IntLit(Node):
    __slots__ = ("value", "pos")

    def __init__(self, value: int, pos: int = NO_POS):
        self.value, self.pos = value, pos


class StrLit(Node):
    __slots__ = ("value", "pos")

    def __init__(self, value: str, pos: int = NO_POS):
        self.value, self.pos = value, pos


class LocalRef(Node):
    __slots__ = ("name", "pos")

    def __init__(self, name: str, pos: int = NO_POS):
        self.name, self.pos = name, pos


class FieldAccess(Node):
    __slots__ = ("obj", "field", "pos")

    def __init__(self, obj: Expr, field: str, pos: int = NO_POS):
        self.obj, self.field, self.pos = obj, field, pos


class Index(Node):
    __slots__ = ("obj", "index", "pos")

    def __init__(self, obj: Expr, index: int, pos: int = NO_POS):
        self.obj, self.index, self.pos = obj, index, pos


class Nondet(Node):
    __slots__ = ("arg", "pos")

    def __init__(self, arg: Expr, pos: int = NO_POS):
        self.arg, self.pos = arg, pos


class Abs(Node):
    __slots__ = ("arg", "pos")

    def __init__(self, arg: Expr, pos: int = NO_POS):
        self.arg, self.pos = arg, pos


class Binary(Node):
    __slots__ = ("op", "left", "right", "pos")

    def __init__(self, op: str, left: Expr, right: Expr, pos: int = NO_POS):  # op: + - *
        self.op, self.left = op, left
        self.right, self.pos = right, pos


class Compare(Node):
    __slots__ = ("op", "left", "right", "pos")

    def __init__(self, op: str, left: Expr, right: Expr, pos: int = NO_POS):  # == != < <= > >=
        self.op, self.left = op, left
        self.right, self.pos = right, pos


class BoolOp(Node):
    __slots__ = ("op", "operands", "pos")

    def __init__(self, op: str, operands: tuple[Expr, ...], pos: int = NO_POS):  # and | or
        self.op, self.operands, self.pos = op, operands, pos


class Not(Node):
    __slots__ = ("operand", "pos")

    def __init__(self, operand: Expr, pos: int = NO_POS):
        self.operand, self.pos = operand, pos


Expr = Union[
    IntLit, StrLit, LocalRef, FieldAccess, Index, Nondet, Abs, Binary, Compare, BoolOp, Not
]


# --- statements --------------------------------------------------------------


class Assign(Node):
    __slots__ = ("target", "value", "pos")

    def __init__(self, target: str, value: Expr, pos: int = NO_POS):
        self.target, self.value, self.pos = target, value, pos


class Assume(Node):
    __slots__ = ("expr", "pos")

    def __init__(self, expr: Expr, pos: int = NO_POS):
        self.expr, self.pos = expr, pos


class Assert(Node):
    __slots__ = ("expr", "pos")

    def __init__(self, expr: Expr, pos: int = NO_POS):
        self.expr, self.pos = expr, pos


Stmt = Union[Assign, Assume, Assert]


class FuncDecl(Node):
    __slots__ = ("name", "param_name", "param_type", "body", "pos")

    def __init__(
        self, name: str, param_name: str, param_type: str, body: tuple[Stmt, ...], pos: int = NO_POS
    ):
        self.name, self.param_name, self.param_type = name, param_name, param_type
        self.body, self.pos = body, pos


class DslProgram(Record):
    __slots__ = ("classes", "functions", "text")
    _hidden = ("text",)  # the parsed text the offsets index

    def __init__(
        self, classes: tuple[ClassDecl, ...], functions: tuple[FuncDecl, ...], text: str = ""
    ):
        self.classes, self.functions, self.text = classes, functions, text


def children(expr: Expr) -> tuple[Expr, ...]:
    """The direct sub-expressions of expr, left to right."""
    if isinstance(expr, (FieldAccess, Index)):
        return (expr.obj,)
    if isinstance(expr, (Nondet, Abs)):
        return (expr.arg,)
    if isinstance(expr, (Binary, Compare)):
        return (expr.left, expr.right)
    if isinstance(expr, BoolOp):
        return expr.operands
    if isinstance(expr, Not):
        return (expr.operand,)
    return ()


def walk(expr: Expr):
    """Yield expr and all of its sub-expressions, depth first."""
    yield expr
    for child in children(expr):
        yield from walk(child)

