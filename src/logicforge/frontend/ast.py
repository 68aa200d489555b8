"""AST node types for the search DSL.

Nodes are frozen dataclasses. Source positions are carried for diagnostics
but excluded from equality, so two parses of equivalent source compare equal
structurally (the pretty-print/re-parse round trip relies on this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

INT = "int"
STR = "str"


@dataclass(frozen=True)
class Pos:
    line: int = 0
    col: int = 0


NO_POS = Pos()


def _pos_field():
    return field(default=NO_POS, compare=False, repr=False)


# --- domains -----------------------------------------------------------------


@dataclass(frozen=True)
class IntRange:
    """Half-open integer range [lo, hi)."""

    lo: int
    hi: int

    def values(self) -> range:
        return range(self.lo, self.hi)


@dataclass(frozen=True)
class EnumValues:
    values: tuple[str, ...]


DomainSpec = Union[IntRange, EnumValues]


# --- declarations ------------------------------------------------------------


@dataclass(frozen=True)
class FieldDecl:
    name: str
    base: str  # "int", "str", or a class name
    unique: bool = False
    domain: DomainSpec | None = None
    list_len: int | None = None
    pos: Pos = _pos_field()

    @property
    def is_class_ref(self) -> bool:
        return self.base not in (INT, STR)


@dataclass(frozen=True)
class ClassDecl:
    name: str
    fields: tuple[FieldDecl, ...]
    pos: Pos = _pos_field()

    def field_named(self, name: str) -> FieldDecl | None:
        for f in self.fields:
            if f.name == name:
                return f
        return None


# --- expressions -------------------------------------------------------------


@dataclass(frozen=True)
class IntLit:
    value: int
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class StrLit:
    value: str
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class LocalRef:
    name: str
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class FieldAccess:
    obj: "Expr"
    field: str
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class Index:
    obj: "Expr"
    index: int
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class Nondet:
    arg: "Expr"
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class Abs:
    arg: "Expr"
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class Binary:
    op: str  # + - *
    left: "Expr"
    right: "Expr"
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class Compare:
    op: str  # == != < <= > >=
    left: "Expr"
    right: "Expr"
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class BoolOp:
    op: str  # and | or
    operands: tuple["Expr", ...]
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class Not:
    operand: "Expr"
    pos: Pos = _pos_field()


Expr = Union[
    IntLit, StrLit, LocalRef, FieldAccess, Index, Nondet, Abs, Binary, Compare, BoolOp, Not
]


# --- statements --------------------------------------------------------------


@dataclass(frozen=True)
class Assign:
    target: str
    value: Expr
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class Assume:
    expr: Expr
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class Assert:
    expr: Expr
    pos: Pos = _pos_field()


Stmt = Union[Assign, Assume, Assert]


@dataclass(frozen=True)
class FuncDecl:
    name: str
    param_name: str
    param_type: str
    body: tuple[Stmt, ...]
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class DslProgram:
    classes: tuple[ClassDecl, ...]
    functions: tuple[FuncDecl, ...]


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

