"""Finite-domain constraint model: variables, all-different groups, and
constraint expressions in a small integer-only IR.

String domains are coded as integers (the index into the declared value
order), so the solver never sees strings. ``CElem`` keeps nondet selections
symbolic: it names a selector plus the table of variable ids it chooses from,
and is expanded during propagation rather than at lowering time.
"""

from __future__ import annotations

from typing import Union

from ..errors import InternalError
from ..frontend.ast import EnumValues, IntRange
from ..records import Record

Domain = Union[IntRange, EnumValues]


def domain_values(domain: Domain) -> range:
    """The coded values of ``domain``: its integers, or each string's index."""
    if isinstance(domain, IntRange):
        return domain.values()
    return range(len(domain.values))


class Var(Record):
    __slots__ = ("id", "name", "domain")

    def __init__(self, id: int, name: str, domain: Domain):
        self.id, self.name, self.domain = id, name, domain

    def values(self) -> range:
        return domain_values(self.domain)

    def render(self, value: int) -> int | str:
        if isinstance(self.domain, EnumValues):
            return self.domain.values[value]
        return value


class SelectorVar(Record):
    __slots__ = ("id", "list_len", "element_class", "name")

    def __init__(self, id: int, list_len: int, element_class: str, name: str = ""):
        self.id, self.list_len, self.element_class, self.name = id, list_len, element_class, name

    def values(self) -> range:
        return range(self.list_len)


# --- constraint expressions ---------------------------------------------------


class CLit(Record):
    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value


class CVar(Record):
    __slots__ = ("var",)

    def __init__(self, var: int):
        self.var = var


class CElem(Record):
    """Value of ``table[selector]``: a variable chosen by a selector."""

    __slots__ = ("selector", "table")

    def __init__(self, selector: int, table: tuple[int, ...]):
        self.selector, self.table = selector, table


class CBin(Record):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: CExpr, right: CExpr):  # op: + - *
        self.op, self.left, self.right = op, left, right


class CAbs(Record):
    __slots__ = ("arg",)

    def __init__(self, arg: CExpr):
        self.arg = arg


# The comparison operators of the model, the only ones lowering emits
CMP_OPS = frozenset({"==", "!=", "<", "<="})


class CCmp(Record):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: CExpr, right: CExpr):  # op: one of CMP_OPS
        self.op, self.left, self.right = op, left, right


class CBool(Record):
    __slots__ = ("op", "parts")

    # op: and | or  (empty "and" is true, empty "or" is false)
    def __init__(self, op: str, parts: tuple[CExpr, ...]):
        self.op, self.parts = op, parts


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


class Scope(Record):
    """The ids one constraint reads, as lowering builds it: the distinct
    ``(selector, table)`` pair of each of its ``CElem`` nodes and the var of
    each ``CVar``, both ascending. A selector read through two fields has a
    pair per table."""

    __slots__ = ("elems", "vars")

    def __init__(self, elems: tuple[tuple[int, tuple[int, ...]], ...], vars: tuple[int, ...]):
        self.elems, self.vars = elems, vars


# --- layout (for decoding) ----------------------------------------------------


class InstanceLayout(Record):
    __slots__ = ("rows", "columns", "position_field")

    def __init__(
        self,
        rows: tuple[dict[str, int], ...],  # per row: field name -> var id
        columns: tuple[str, ...],
        position_field: str | None,  # the single unique int-domain field, if any
    ):
        self.rows, self.columns, self.position_field = rows, columns, position_field


class ConstraintModel(Record):
    __hash__ = None  # mutable: its lists are built once per model, not once per node

    def __init__(
        self,
        vars: list[Var],
        selectors: list[SelectorVar],
        alldiff_groups: list[tuple[int, ...]],
        constraints: list[CExpr],
        scopes: list[Scope],  # one per constraint, in the same order
        layout: InstanceLayout,
    ):
        self.vars, self.selectors, self.alldiff_groups = vars, selectors, alldiff_groups
        self.constraints, self.scopes, self.layout = constraints, scopes, layout

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

