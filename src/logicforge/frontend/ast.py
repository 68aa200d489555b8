"""AST node types for the search DSL.

Nodes are slotted, hashable dataclasses, and no code mutates a node after
building it, since trees share subtrees. Nothing enforces this at run time:
a frozen dataclass, which sets each field through ``object.__setattr__``,
costs several times as much to build. ``tests/test_ir.py`` checks that no
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

from dataclasses import dataclass, field
from typing import Union

INT = "int"
STR = "str"


@dataclass(slots=True, unsafe_hash=True)
class Pos:
    """A line and column, both from 1, as a diagnostic shows them."""

    line: int = 0
    col: int = 0


NO_POS = -1


def locate(text: str, offset: int) -> Pos:
    """The line and column of ``offset`` in ``text``; ``0:0`` for NO_POS."""
    if offset < 0:
        return Pos()
    return Pos(text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset))


def _pos_field():
    return field(default=NO_POS, compare=False, repr=False)


# --- domains -----------------------------------------------------------------


@dataclass(slots=True, unsafe_hash=True)
class IntRange:
    """Half-open integer range [lo, hi)."""

    lo: int
    hi: int

    def values(self) -> range:
        return range(self.lo, self.hi)


@dataclass(slots=True, unsafe_hash=True)
class EnumValues:
    values: tuple[str, ...]


DomainSpec = Union[IntRange, EnumValues]


# --- declarations ------------------------------------------------------------


@dataclass(slots=True, unsafe_hash=True)
class FieldDecl:
    name: str
    base: str  # "int", "str", or a class name
    unique: bool = False
    domain: DomainSpec | None = None
    list_len: int | None = None
    pos: int = _pos_field()

    @property
    def is_class_ref(self) -> bool:
        return self.base not in (INT, STR)


@dataclass(slots=True, unsafe_hash=True)
class ClassDecl:
    name: str
    fields: tuple[FieldDecl, ...]
    pos: int = _pos_field()

    def field_named(self, name: str) -> FieldDecl | None:
        for f in self.fields:
            if f.name == name:
                return f
        return None


# --- expressions -------------------------------------------------------------


@dataclass(slots=True, unsafe_hash=True)
class IntLit:
    value: int
    pos: int = _pos_field()


@dataclass(slots=True, unsafe_hash=True)
class StrLit:
    value: str
    pos: int = _pos_field()


@dataclass(slots=True, unsafe_hash=True)
class LocalRef:
    name: str
    pos: int = _pos_field()


@dataclass(slots=True, unsafe_hash=True)
class FieldAccess:
    obj: "Expr"
    field: str
    pos: int = _pos_field()


@dataclass(slots=True, unsafe_hash=True)
class Index:
    obj: "Expr"
    index: int
    pos: int = _pos_field()


@dataclass(slots=True, unsafe_hash=True)
class Nondet:
    arg: "Expr"
    pos: int = _pos_field()


@dataclass(slots=True, unsafe_hash=True)
class Abs:
    arg: "Expr"
    pos: int = _pos_field()


@dataclass(slots=True, unsafe_hash=True)
class Binary:
    op: str  # + - *
    left: "Expr"
    right: "Expr"
    pos: int = _pos_field()


@dataclass(slots=True, unsafe_hash=True)
class Compare:
    op: str  # == != < <= > >=
    left: "Expr"
    right: "Expr"
    pos: int = _pos_field()


@dataclass(slots=True, unsafe_hash=True)
class BoolOp:
    op: str  # and | or
    operands: tuple["Expr", ...]
    pos: int = _pos_field()


@dataclass(slots=True, unsafe_hash=True)
class Not:
    operand: "Expr"
    pos: int = _pos_field()


Expr = Union[
    IntLit, StrLit, LocalRef, FieldAccess, Index, Nondet, Abs, Binary, Compare, BoolOp, Not
]


# --- statements --------------------------------------------------------------


@dataclass(slots=True, unsafe_hash=True)
class Assign:
    target: str
    value: Expr
    pos: int = _pos_field()


@dataclass(slots=True, unsafe_hash=True)
class Assume:
    expr: Expr
    pos: int = _pos_field()


@dataclass(slots=True, unsafe_hash=True)
class Assert:
    expr: Expr
    pos: int = _pos_field()


Stmt = Union[Assign, Assume, Assert]


@dataclass(slots=True, unsafe_hash=True)
class FuncDecl:
    name: str
    param_name: str
    param_type: str
    body: tuple[Stmt, ...]
    pos: int = _pos_field()


@dataclass(slots=True, unsafe_hash=True)
class DslProgram:
    classes: tuple[ClassDecl, ...]
    functions: tuple[FuncDecl, ...]
    text: str = field(default="", compare=False, repr=False)  # the parsed text the offsets index


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

