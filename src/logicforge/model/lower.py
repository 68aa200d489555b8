"""Lower a checked program into a ConstraintModel.

The rows of the result table come from ``CheckedProgram.row_class``: one
variable per field and row, named ``houses[i].f``, or bare ``f`` when the
parameter class is itself the one row. Each row is the ``{field: var id}``
dict that the layout keeps, and the parameter is that one row or
``{rows_field: rows}``. Each Unique field becomes one all-different group
over the rows.
Each ``assume`` and each ``assert`` adds one constraint, in program order,
with its scope: the ``(selector, table)`` of each ``CElem`` and the var of
each ``CVar`` that lowering builds for it, those of the locals it reads
included. Every later stage takes the ids a constraint reads from its scope.
Locals are resolved by symbolic substitution: binding a name to
``nondet(list)`` introduces a selector variable, anything else is inlined.
Lowering trusts ``check`` for value types: int and bool expressions lower
straight to model expressions, every condition to ``and``/``or`` over
comparisons in one form (``_compare``), with no ``not``.
"""

from __future__ import annotations

from ..errors import InternalError
from ..frontend.ast import (
    Abs,
    Assign,
    Binary,
    BoolOp,
    ClassDecl,
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
)
from ..frontend.check import CheckedProgram
from .constraints import (
    CAbs,
    CBin,
    CBool,
    CCmp,
    CElem,
    CExpr,
    CLit,
    CVar,
    ConstraintModel,
    InstanceLayout,
    Scope,
    SelectorVar,
    Var,
)
from ..records import Frozen


class _SelObj(Frozen):
    """A row chosen by a selector over the rows."""

    def __init__(self, selector: int, rows: tuple[dict[str, int], ...]):
        vars(self).update(selector=selector, rows=rows)


def lower(program: CheckedProgram) -> ConstraintModel:
    return _Lowering(program).run()


class _Lowering:
    def __init__(self, program: CheckedProgram):
        self.program = program
        self.vars: list[Var] = []
        self.selectors: list[SelectorVar] = []
        self.alldiff: list[tuple[int, ...]] = []
        self.constraints: list[CExpr] = []
        self.scopes: list[Scope] = []
        # what the statement being lowered reads: (selector, table) pairs, vars
        self.elems: set[tuple[int, tuple[int, ...]]] = set()
        self.named: set[int] = set()

    def new_var(self, name: str, domain) -> int:
        vid = len(self.vars)
        self.vars.append(Var(vid, name, domain))
        return vid

    def run(self) -> ConstraintModel:
        entry = self.program.entry
        rows_field = self.program.rows_field
        row_cls = self.program.row_class
        if rows_field is None:
            prefixes = [""]
        else:
            prefixes = [f"{rows_field.name}[{i}]." for i in range(rows_field.list_len)]
        rows = tuple(
            {f.name: self.new_var(prefix + f.name, f.domain) for f in row_cls.fields}
            for prefix in prefixes
        )
        for f in row_cls.fields:
            if f.unique:
                self.alldiff.append(tuple(row[f.name] for row in rows))
        columns = tuple(f.name for f in row_cls.fields)
        layout = InstanceLayout(rows, columns, _position_field(row_cls))

        root = rows[0] if rows_field is None else {rows_field.name: rows}
        # each name's value, with what lowering it read
        env: dict[str, tuple] = {entry.param_name: (root, (), ())}
        for stmt in entry.body:
            self.elems, self.named = set(), set()
            if isinstance(stmt, Assign):
                env[stmt.target] = self.lower_value(stmt.value, env), self.elems, self.named
            else:
                self.constraints.append(self.lower_value(stmt.expr, env))
                self.scopes.append(Scope(tuple(sorted(self.elems)), tuple(sorted(self.named))))

        return ConstraintModel(
            self.vars, self.selectors, self.alldiff, self.constraints, self.scopes, layout
        )

    # -- expression lowering ------------------------------------------------

    def lower_value(self, expr: Expr, env: dict[str, tuple]) -> object:
        """The model expression of an int or bool ``expr``; the row, the
        rows or the selection of an object-valued one."""
        if isinstance(expr, IntLit):
            return CLit(expr.value)
        if isinstance(expr, LocalRef):
            try:
                value, elems, named = env[expr.name]
            except KeyError:
                raise InternalError(f"unbound name {expr.name!r} after check")
            self.elems.update(elems)
            self.named.update(named)
            return value
        if isinstance(expr, FieldAccess):
            obj = self.lower_value(expr.obj, env)
            return self.lower_field(obj, expr.field)
        if isinstance(expr, Index):
            return self.lower_value(expr.obj, env)[expr.index]
        if isinstance(expr, Nondet):
            rows = self.lower_value(expr.arg, env)
            # Every var is materialized before the validator is lowered, so
            # selector ids can continue the var numbering right away.
            index = len(self.selectors)
            sid = len(self.vars) + index
            self.selectors.append(
                SelectorVar(sid, len(rows), self.program.row_class.name, f"choice{index}")
            )
            return _SelObj(sid, rows)
        if isinstance(expr, Abs):
            return CAbs(self.lower_value(expr.arg, env))
        if isinstance(expr, Binary):
            left = self.lower_value(expr.left, env)
            return CBin(expr.op, left, self.lower_value(expr.right, env))
        if isinstance(expr, Compare):
            return self.lower_compare(expr, env)
        if isinstance(expr, BoolOp):
            return CBool(expr.op, tuple(self.lower_value(op, env) for op in expr.operands))
        assert isinstance(expr, Not)
        return _negate(self.lower_value(expr.operand, env))

    def lower_field(self, obj: object, field_name: str) -> object:
        if isinstance(obj, _SelObj):
            table = tuple(row[field_name] for row in obj.rows)
            self.elems.add((obj.selector, table))
            return CElem(obj.selector, table)
        value = obj[field_name]
        if isinstance(value, int):
            self.named.add(value)
            return CVar(value)
        return value

    def lower_compare(self, expr: Compare, env: dict[str, tuple]) -> CCmp:
        """A string comparison pairs a field with a literal: the literal is
        coded in the field var's domain and put on the right."""
        lit, field = expr.left, expr.right
        if not isinstance(lit, StrLit):
            lit, field = field, lit
        if isinstance(lit, StrLit):
            coded = self.lower_value(field, env)
            var = coded.var if isinstance(coded, CVar) else coded.table[0]
            return CCmp(expr.op, coded, CLit(self.vars[var].domain.values.index(lit.value)))
        left = self.lower_value(expr.left, env)
        return _compare(expr.op, left, self.lower_value(expr.right, env))


# The comparison that holds exactly when the model's ``op`` does not.
_COMPLEMENT = {"==": "!=", "!=": "==", "<": ">=", "<=": ">"}


def _compare(op: str, left: CExpr, right: CExpr) -> CCmp:
    """The comparison in the model's one form: ``>`` and ``>=`` turned round
    into ``<`` and ``<=``, and a lone literal on the left of ``==`` or ``!=``
    moved to the right."""
    if op in (">", ">="):
        return CCmp("<" if op == ">" else "<=", right, left)
    if isinstance(left, CLit) and not isinstance(right, CLit) and op in ("==", "!="):
        return CCmp(op, right, left)
    return CCmp(op, left, right)


def _negate(expr: CExpr) -> CExpr:
    """``not expr`` pushed down to the comparisons: De Morgan over ``and`` and
    ``or``, and each comparison complemented."""
    if isinstance(expr, CCmp):
        return _compare(_COMPLEMENT[expr.op], expr.left, expr.right)
    assert isinstance(expr, CBool)
    return CBool("or" if expr.op == "and" else "and", tuple(map(_negate, expr.parts)))


def _position_field(cls: ClassDecl) -> str | None:
    """The single Unique int-domain field, used to order decoded rows."""
    candidates = [
        f.name
        for f in cls.fields
        if f.unique and isinstance(f.domain, IntRange)
    ]
    return candidates[0] if len(candidates) == 1 else None

