"""Finite-domain constraint model: variables, all-different groups, and
constraint expressions in a small integer-only IR.

String domains are coded as integers (the index into the declared value
order), so the solver never sees strings. ``CElem`` keeps nondet selections
symbolic: it names a selector plus the table of variable ids it chooses from,
and is expanded during propagation rather than at lowering time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from ..errors import InternalError
from ..frontend.ast import EnumValues, IntRange

Domain = Union[IntRange, EnumValues]


def domain_values(domain: Domain) -> tuple[int, ...]:
    if isinstance(domain, IntRange):
        return tuple(range(domain.lo, domain.hi))
    return tuple(range(len(domain.values)))


def domain_size(domain: Domain) -> int:
    if isinstance(domain, IntRange):
        return domain.hi - domain.lo
    return len(domain.values)


@dataclass(frozen=True)
class Var:
    id: int
    name: str
    domain: Domain

    def values(self) -> tuple[int, ...]:
        return domain_values(self.domain)

    def render(self, value: int) -> int | str:
        if isinstance(self.domain, EnumValues):
            return self.domain.values[value]
        return value


@dataclass(frozen=True)
class SelectorVar:
    id: int
    list_len: int
    element_class: str
    name: str = ""

    def values(self) -> tuple[int, ...]:
        return tuple(range(self.list_len))


# --- constraint expressions ---------------------------------------------------


@dataclass(frozen=True)
class CLit:
    value: int


@dataclass(frozen=True)
class CVar:
    var: int


@dataclass(frozen=True)
class CElem:
    """Value of ``table[selector]``: a variable chosen by a selector."""

    selector: int
    table: tuple[int, ...]


@dataclass(frozen=True)
class CBin:
    op: str  # + - *
    left: "CExpr"
    right: "CExpr"


@dataclass(frozen=True)
class CAbs:
    arg: "CExpr"


@dataclass(frozen=True)
class CCmp:
    op: str  # == != < <= > >=
    left: "CExpr"
    right: "CExpr"


@dataclass(frozen=True)
class CBool:
    op: str  # and | or  (empty "and" is true, empty "or" is false)
    parts: tuple["CExpr", ...]


@dataclass(frozen=True)
class CNot:
    arg: "CExpr"


CExpr = Union[CLit, CVar, CElem, CBin, CAbs, CCmp, CBool, CNot]


def walk_cexpr(expr: CExpr):
    yield expr
    if isinstance(expr, (CBin, CCmp)):
        yield from walk_cexpr(expr.left)
        yield from walk_cexpr(expr.right)
    elif isinstance(expr, (CAbs, CNot)):
        yield from walk_cexpr(expr.arg)
    elif isinstance(expr, CBool):
        for p in expr.parts:
            yield from walk_cexpr(p)


def direct_vars(expr: CExpr) -> set[int]:
    """The variables ``expr`` names directly, outside elem tables."""
    return {node.var for node in walk_cexpr(expr) if isinstance(node, CVar)}


# --- layout (for decoding) ----------------------------------------------------


@dataclass(frozen=True)
class RowLayout:
    index: int
    class_name: str
    fields: dict[str, int]  # field name -> var id


@dataclass(frozen=True)
class InstanceLayout:
    rows: tuple[RowLayout, ...]
    columns: tuple[str, ...]
    position_field: str | None  # the single unique int-domain field, if any

    def var_of(self, row: int, field_name: str) -> int:
        return self.rows[row].fields[field_name]


@dataclass
class ConstraintModel:
    vars: list[Var]
    selectors: list[SelectorVar]
    alldiff_groups: list[tuple[int, ...]]
    constraints: list[CExpr]
    layout: InstanceLayout

    @property
    def n_ids(self) -> int:
        return len(self.vars) + len(self.selectors)

    def domain_of(self, ident: int) -> tuple[int, ...]:
        if ident < len(self.vars):
            return self.vars[ident].values()
        return self.selectors[ident - len(self.vars)].values()

    def row_var_ids(self) -> frozenset[int]:
        return frozenset(v for row in self.layout.rows for v in row.fields.values())

    def row_tied(self, named_vars) -> set[int]:
        """The indices of the constraints that name a row variable directly,
        given the ``direct_vars`` of each constraint in order. With more than
        one row, each such constraint ties a row to its instance slot."""
        if len(self.layout.rows) <= 1:
            return set()
        rows = self.row_var_ids()
        return {i for i, named in enumerate(named_vars) if not rows.isdisjoint(named)}

    def slot_symmetric(self) -> bool:
        """True when constraints reach row variables only through selectors,
        so permuting the instance order permutes solutions without changing
        the set of solution tables."""
        return not self.row_tied(map(direct_vars, self.constraints))

    def position_vars(self) -> list[int] | None:
        """Each row's position variable, in row order, when the model has a
        position field whose variables form an all-different group."""
        pf = self.layout.position_field
        if pf is None:
            return None
        pos = [row.fields[pf] for row in self.layout.rows]
        return pos if set(pos) in [set(g) for g in self.alldiff_groups] else None

    def rows_orderable(self) -> bool:
        """True when the rows are interchangeable (``slot_symmetric``) and
        their position vars form an all-different group: ordering the rows
        by position then gives each solution table exactly one encoding."""
        return self.position_vars() is not None and self.slot_symmetric()


def validate_model(model: ConstraintModel) -> None:
    """Structural validation; raises InternalError on a malformed model."""
    n_vars = len(model.vars)
    for i, v in enumerate(model.vars):
        if v.id != i:
            raise InternalError(f"var id {v.id} at index {i}")
        if domain_size(v.domain) <= 0:
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
    for c in model.constraints:
        for node in walk_cexpr(c):
            if isinstance(node, CVar) and not (0 <= node.var < n_vars):
                raise InternalError(f"constraint references unknown var {node.var}")
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
        for v in row.fields.values():
            if not (0 <= v < n_vars):
                raise InternalError("layout references unknown var")


def dump_model(model: ConstraintModel) -> str:
    """Stable one-line-per-item debug dump, used by golden tests."""
    lines = []
    for v in model.vars:
        if isinstance(v.domain, IntRange):
            dom = f"int[{v.domain.lo}, {v.domain.hi})"
        else:
            dom = "{" + ", ".join(v.domain.values) + "}"
        lines.append(f"var {v.id} {v.name} : {dom}")
    for s in model.selectors:
        lines.append(f"selector {s.id} {s.name} : index[0, {s.list_len}) of {s.element_class}")
    for group in model.alldiff_groups:
        lines.append("alldiff " + " ".join(str(v) for v in group))
    for c in model.constraints:
        lines.append("constraint " + _prefix(c))
    return "\n".join(lines) + "\n"


def _prefix(expr: CExpr) -> str:
    if isinstance(expr, CLit):
        return str(expr.value)
    if isinstance(expr, CVar):
        return f"v{expr.var}"
    if isinstance(expr, CElem):
        return f"(elem s{expr.selector} [" + " ".join(f"v{v}" for v in expr.table) + "])"
    if isinstance(expr, CBin):
        return f"({expr.op} {_prefix(expr.left)} {_prefix(expr.right)})"
    if isinstance(expr, CAbs):
        return f"(abs {_prefix(expr.arg)})"
    if isinstance(expr, CCmp):
        return f"({expr.op} {_prefix(expr.left)} {_prefix(expr.right)})"
    if isinstance(expr, CBool):
        return f"({expr.op}" + "".join(" " + _prefix(p) for p in expr.parts) + ")"
    assert isinstance(expr, CNot)
    return f"(not {_prefix(expr.arg)})"
