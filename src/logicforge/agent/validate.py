"""Check a candidate solution table directly against a program's validator.

This is deliberately independent of the constraint model and solver: the
candidate's values are plugged into the statements one at a time, and nondet
choices are enumerated depth-first over the product of list lengths. The
table's rows are used as they are, ``{field: cell}`` dicts, and the parameter
is the one row or ``{rows_field: rows}``. A table passes when some choice of
selectors satisfies every assume and assert, and every Unique field holds
pairwise-distinct in-domain values.

A table with a position field is the same table in any row order
(``SolutionTable.key``), and ``decode`` stores its rows by position, not by
instance slot. So where the validator indexes its rows (``s.items[0]``), and
the row order therefore matters, such a table passes when its rows pass in
some order.
"""

from __future__ import annotations

import itertools
from operator import add, eq, ge, gt, le, lt, mul, ne, sub

from ..errors import ShapeError
from ..frontend.ast import (
    Abs,
    Assign,
    Binary,
    BoolOp,
    Compare,
    Expr,
    FieldAccess,
    Index,
    IntLit,
    IntRange,
    LocalRef,
    Nondet,
    Not,
    StrLit,
    walk,
)
from ..frontend.check import CheckedProgram
from ..model.decode import SolutionTable


def check_solution(program: CheckedProgram, candidate: SolutionTable) -> bool:
    """True iff the candidate table satisfies the program's validator under
    some assignment of the nondet selectors. Raises ShapeError when the table
    does not even match the result class."""
    rows_field = program.rows_field
    row_cls = program.row_class
    columns = tuple(f.name for f in row_cls.fields)
    if set(candidate.columns) != set(columns):
        raise ShapeError(
            f"table columns {candidate.columns} do not match fields {columns}"
        )
    expected_rows = 1 if rows_field is None else rows_field.list_len
    if len(candidate.rows) != expected_rows:
        raise ShapeError(
            f"table has {len(candidate.rows)} rows, expected {expected_rows}"
        )
    rows = candidate.rows
    for i, row in enumerate(rows):
        missing = [c for c in columns if c not in row]
        if missing:
            raise ShapeError(f"table row {i} lacks columns {missing}")

    for f in row_cls.fields:
        values = [row[f.name] for row in rows]
        if not all(_in_domain(v, f) for v in values):
            return False
        if f.unique and len(set(values)) != len(values):
            return False

    entry = program.entry
    if rows_field is None:
        return _run_stmts(list(entry.body), {entry.param_name: rows[0]})
    orders = [rows]
    if candidate.position_field is not None and _indexes_rows(entry.body):
        orders = itertools.permutations(rows)
    return any(
        _run_stmts(list(entry.body), {entry.param_name: {rows_field.name: order}})
        for order in orders
    )


def _indexes_rows(stmts) -> bool:
    """Whether a statement reads a row by its index; the rows field is the
    only list, so any index does."""
    return any(
        isinstance(node, Index)
        for stmt in stmts
        for node in walk(stmt.value if isinstance(stmt, Assign) else stmt.expr)
    )


def _in_domain(value: int | str, f) -> bool:
    if isinstance(f.domain, IntRange):
        return isinstance(value, int) and f.domain.lo <= value < f.domain.hi
    return value in f.domain.values


def _run_stmts(stmts: list, env: dict[str, object]) -> bool:
    """Depth-first over nondet choices; True when all statements pass."""
    for i, stmt in enumerate(stmts):
        expr = stmt.value if isinstance(stmt, Assign) else stmt.expr
        sites = [node for node in walk(expr) if isinstance(node, Nondet)]
        if sites:
            # nondet arguments never contain nondet themselves (list element
            # classes hold only scalars), so the sites are independent
            lists = [_eval(site.arg, env, {}) for site in sites]
            for combo in itertools.product(*(range(len(lst)) for lst in lists)):
                picks = {id(site): lst[c] for site, lst, c in zip(sites, lists, combo)}
                value = _eval(expr, env, picks)
                trial_env = dict(env)
                if isinstance(stmt, Assign):
                    trial_env[stmt.target] = value
                elif not value:
                    continue
                if _run_stmts(stmts[i + 1 :], trial_env):
                    return True
            return False
        value = _eval(expr, env, {})
        if isinstance(stmt, Assign):
            env[stmt.target] = value
        elif not value:
            return False
    return True


_OPS = {"+": add, "-": sub, "*": mul, "==": eq, "!=": ne, "<": lt, "<=": le, ">": gt, ">=": ge}


def _eval(expr: Expr, env: dict[str, object], picks: dict[int, dict]):
    """Concrete evaluation; ``picks`` maps nondet node ids to chosen rows."""

    def go(e: Expr):
        if isinstance(e, IntLit):
            return e.value
        if isinstance(e, StrLit):
            return e.value
        if isinstance(e, LocalRef):
            return env[e.name]
        if isinstance(e, FieldAccess):
            return go(e.obj)[e.field]
        if isinstance(e, Index):
            return go(e.obj)[e.index]
        if isinstance(e, Nondet):
            return picks[id(e)]
        if isinstance(e, Abs):
            return abs(go(e.arg))
        if isinstance(e, (Binary, Compare)):
            return _OPS[e.op](go(e.left), go(e.right))
        if isinstance(e, BoolOp):
            if e.op == "and":
                return all(go(p) for p in e.operands)
            return any(go(p) for p in e.operands)
        assert isinstance(e, Not)
        return not go(e.operand)

    return go(expr)
