"""Model tools that only tests use: the reference walk that lowering's
scopes are checked against, a model cut to some of its constraints, a
stable text dump, the inverse of ``decode``, and propagation alone."""

from __future__ import annotations

from logicforge.errors import DecodeError
from logicforge.frontend.ast import EnumValues, IntRange
from logicforge.model.constraints import (
    CAbs,
    CBin,
    CBool,
    CCmp,
    CElem,
    CExpr,
    CLit,
    CVar,
    ConstraintModel,
    Scope,
    walk_cexpr,
)
from logicforge.model.decode import SolutionTable
from logicforge.solver import Budget, engine

from record_tools import replace


def reference_scope(expr: CExpr) -> Scope:
    """The scope of ``expr`` found by walking its tree: the one lowering must
    give it, and the one a hand-built model takes."""
    elems, named = set(), set()
    for node in walk_cexpr(expr):
        if isinstance(node, CVar):
            named.add(node.var)
        elif isinstance(node, CElem):
            elems.add((node.selector, node.table))
    return Scope(tuple(sorted(elems)), tuple(sorted(named)))


def cut(model: ConstraintModel, indices) -> ConstraintModel:
    """``model`` with only the constraints at ``indices``, and their scopes."""
    return replace(
        model,
        constraints=[model.constraints[i] for i in indices],
        scopes=[model.scopes[i] for i in indices],
    )


def orders_rows(model: ConstraintModel) -> bool:
    """Whether a search over every constraint of ``model`` orders its rows:
    they are interchangeable and carry a unique position field."""
    view = engine.compile_model(model)
    return view.compiled.orders_rows(view.active)


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
    assert isinstance(expr, CBool)
    return f"({expr.op}" + "".join(" " + _prefix(p) for p in expr.parts) + ")"


def encode(model: ConstraintModel, table: SolutionTable) -> dict[int, int]:
    """Invert decode for canonical assignments: table row k maps onto
    instance slot k. decode(model, encode(model, t)) == t for any valid t."""
    layout = model.layout
    if table.columns != layout.columns or len(table.rows) != len(layout.rows):
        raise DecodeError("table shape does not match the model layout")
    rows = sorted(table.rows, key=table._sort_key) if table.position_field else list(table.rows)
    assignment: dict[int, int] = {}
    for slot, row in enumerate(rows):
        for col in layout.columns:
            vid = layout.rows[slot][col]
            domain = model.vars[vid].domain
            value = row[col]
            if isinstance(value, str):
                if not isinstance(domain, EnumValues) or value not in domain.values:
                    raise DecodeError(f"value {value!r} not in domain of {model.vars[vid].name}")
                assignment[vid] = domain.values.index(value)
            else:
                assignment[vid] = int(value)
    return assignment


def propagate_domains(
    model: ConstraintModel, domains: dict[int, list[int]] | None = None
) -> dict[int, list[int]] | None:
    """Run propagation alone (no search, so no row order) from the declared
    domains, narrowed to ``domains`` where given, and return the pruned
    domains of the model's ids, or None on contradiction. A given value
    outside the declared domain is ignored."""
    view = engine._view(model)
    compiled = view.compiled
    doms = compiled.initial_state()
    for ident, values in (domains or {}).items():
        declared = model.domain_of(ident)
        doms[ident] = compiled.mask(ident, (v for v in values if v in declared))
    if not all(doms):
        return None
    search = engine._Search(view, Budget())
    if search.propagate(doms, search.off | compiled.row_order, search.on) is None:
        return None
    return {i: compiled.values(i, d) for i, d in enumerate(doms[: compiled.n_ids])}
