"""Finite-domain constraint model: variables, all-different groups, and
constraint expressions in a small integer-only IR.

String domains are coded as integers (the index into the declared value
order), so the solver never sees strings. ``CElem`` keeps nondet selections
symbolic: it names a selector plus the table of variable ids it chooses from,
and is expanded during propagation rather than at lowering time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from ..errors import InternalError
from ..frontend.ast import EnumValues, IntRange

Domain = Union[IntRange, EnumValues]


def domain_values(domain: Domain) -> range:
    """The coded values of ``domain``: its integers, or each string's index."""
    if isinstance(domain, IntRange):
        return domain.values()
    return range(len(domain.values))


@dataclass(slots=True, unsafe_hash=True)
class Var:
    id: int
    name: str
    domain: Domain

    def values(self) -> range:
        return domain_values(self.domain)

    def render(self, value: int) -> int | str:
        if isinstance(self.domain, EnumValues):
            return self.domain.values[value]
        return value


@dataclass(slots=True, unsafe_hash=True)
class SelectorVar:
    id: int
    list_len: int
    element_class: str
    name: str = ""

    def values(self) -> range:
        return range(self.list_len)


# --- constraint expressions ---------------------------------------------------


@dataclass(slots=True, unsafe_hash=True)
class CLit:
    value: int


@dataclass(slots=True, unsafe_hash=True)
class CVar:
    var: int


@dataclass(slots=True, unsafe_hash=True)
class CElem:
    """Value of ``table[selector]``: a variable chosen by a selector."""

    selector: int
    table: tuple[int, ...]


@dataclass(slots=True, unsafe_hash=True)
class CBin:
    op: str  # + - *
    left: "CExpr"
    right: "CExpr"


@dataclass(slots=True, unsafe_hash=True)
class CAbs:
    arg: "CExpr"


# The comparison operators of the model, the only ones lowering emits
CMP_OPS = frozenset({"==", "!=", "<", "<="})


@dataclass(slots=True, unsafe_hash=True)
class CCmp:
    op: str  # one of CMP_OPS
    left: "CExpr"
    right: "CExpr"


@dataclass(slots=True, unsafe_hash=True)
class CBool:
    op: str  # and | or  (empty "and" is true, empty "or" is false)
    parts: tuple["CExpr", ...]


CExpr = Union[CLit, CVar, CElem, CBin, CAbs, CCmp, CBool]


def walk_cexpr(expr: CExpr):
    yield expr
    if isinstance(expr, (CBin, CCmp)):
        yield from walk_cexpr(expr.left)
        yield from walk_cexpr(expr.right)
    elif isinstance(expr, CAbs):
        yield from walk_cexpr(expr.arg)
    elif isinstance(expr, CBool):
        for p in expr.parts:
            yield from walk_cexpr(p)


@dataclass(slots=True, unsafe_hash=True)
class Scope:
    """The ids one constraint reads, as lowering builds it: the distinct
    ``(selector, table)`` pair of each of its ``CElem`` nodes and the var of
    each ``CVar``, both ascending. A selector read through two fields has a
    pair per table."""

    elems: tuple[tuple[int, tuple[int, ...]], ...]
    vars: tuple[int, ...]


# --- layout (for decoding) ----------------------------------------------------


@dataclass(slots=True, unsafe_hash=True)
class InstanceLayout:
    rows: tuple[dict[str, int], ...]  # per row: field name -> var id
    columns: tuple[str, ...]
    position_field: str | None  # the single unique int-domain field, if any


@dataclass
class ConstraintModel:
    vars: list[Var]
    selectors: list[SelectorVar]
    alldiff_groups: list[tuple[int, ...]]
    constraints: list[CExpr]
    scopes: list[Scope]  # one per constraint, in the same order
    layout: InstanceLayout

    @property
    def n_ids(self) -> int:
        return len(self.vars) + len(self.selectors)

    def domain_of(self, ident: int) -> range:
        if ident < len(self.vars):
            return self.vars[ident].values()
        return self.selectors[ident - len(self.vars)].values()

    def position_vars(self) -> list[int] | None:
        """Each row's position variable, in row order, when the model has a
        position field whose variables form an all-different group."""
        pf = self.layout.position_field
        if pf is None:
            return None
        pos = [row[pf] for row in self.layout.rows]
        return pos if set(pos) in [set(g) for g in self.alldiff_groups] else None


def validate_model(model: ConstraintModel) -> None:
    """Structural validation; raises InternalError on a malformed model."""
    n_vars = len(model.vars)
    for i, v in enumerate(model.vars):
        if v.id != i:
            raise InternalError(f"var id {v.id} at index {i}")
        if not v.values():
            raise InternalError(f"empty domain for {v.name}")
    for j, s in enumerate(model.selectors):
        if s.id != n_vars + j:
            raise InternalError(f"selector id {s.id} at index {j}")
        if s.list_len <= 0:
            raise InternalError("selector over an empty list")
    for group in model.alldiff_groups:
        if not group:
            raise InternalError("empty alldiff group")
        if any(not (0 <= v < n_vars) for v in group):
            raise InternalError("alldiff group references a non-variable id")
        if len({model.vars[v].domain for v in group}) != 1:
            raise InternalError("alldiff group must span vars of one domain")
    if len(model.scopes) != len(model.constraints):
        raise InternalError("a model needs one scope per constraint")
    for c in model.constraints:
        for node in walk_cexpr(c):
            if isinstance(node, CVar) and not (0 <= node.var < n_vars):
                raise InternalError(f"constraint references unknown var {node.var}")
            if isinstance(node, CCmp) and node.op not in CMP_OPS:
                raise InternalError(f"comparison operator {node.op!r} outside the model's form")
            if isinstance(node, CElem):
                if not (n_vars <= node.selector < model.n_ids):
                    raise InternalError(f"unknown selector {node.selector}")
                sel = model.selectors[node.selector - n_vars]
                if len(node.table) != sel.list_len:
                    raise InternalError("elem table does not match selector length")
                for v in node.table:
                    if not (0 <= v < n_vars):
                        raise InternalError(f"elem table references unknown var {v}")
    for row in model.layout.rows:
        for v in row.values():
            if not (0 <= v < n_vars):
                raise InternalError("layout references unknown var")

