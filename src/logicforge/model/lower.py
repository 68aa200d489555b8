"""Lower a checked program into a ConstraintModel.

Type decorators expand into variables, domains, and all-different groups;
every assert in the validator is rewritten into an assume before lowering, so
the model is a plain conjunction of constraints. Locals are resolved by
symbolic substitution: binding a name to ``nondet(list)`` introduces a
selector variable, anything else is inlined. Every condition lowers to
``and``/``or`` over comparisons in one form (``_compare``), with no ``not``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import InternalError
from ..frontend.ast import (
    INT,
    Abs,
    Assert,
    Assign,
    Assume,
    Binary,
    BoolOp,
    ClassDecl,
    Compare,
    EnumValues,
    Expr,
    FieldAccess,
    FieldDecl,
    Index,
    IntLit,
    IntRange,
    LocalRef,
    Nondet,
    Not,
    Stmt,
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
    RowLayout,
    SelectorVar,
    Var,
)


def rewrite_assert_as_assume(stmts: tuple[Stmt, ...] | list[Stmt]) -> tuple[Stmt, ...]:
    """Replace every Assert(e) with Assume(e), preserving order."""
    return tuple(
        Assume(s.expr, s.pos) if isinstance(s, Assert) else s for s in stmts
    )


# Values a local may hold during lowering.
@dataclass
class _Instance:
    class_name: str
    path: str
    fields: dict[str, int]  # scalar field name -> var id
    lists: dict[str, "_ListVal"]


@dataclass(frozen=True)
class _ListVal:
    class_name: str
    instances: tuple[_Instance, ...]


@dataclass(frozen=True)
class _SelObj:
    """An element chosen by a selector over a list of instances."""

    selector: int
    instances: tuple[_Instance, ...]


@dataclass(frozen=True)
class _IntVal:
    expr: CExpr


@dataclass(frozen=True)
class _BoolVal:
    expr: CExpr


@dataclass(frozen=True)
class _StrVal:
    """A string field read, or a literal; only valid inside == / !=."""

    expr: CExpr | None  # coded int expression; None for a bare literal
    domain: EnumValues | None
    literal: str | None


def lower(program: CheckedProgram) -> ConstraintModel:
    return _Lowering(program).run()


class _Lowering:
    def __init__(self, program: CheckedProgram):
        self.program = program
        self.vars: list[Var] = []
        self.selectors: list[SelectorVar] = []
        self.alldiff: list[tuple[int, ...]] = []
        self.constraints: list[CExpr] = []
        self.instances_by_class: dict[str, list[_Instance]] = {}

    def new_var(self, name: str, domain) -> int:
        vid = len(self.vars)
        self.vars.append(Var(vid, name, domain))
        return vid

    def run(self) -> ConstraintModel:
        entry = self.program.entry
        root_cls = self.program.param_class

        root = self.materialize(root_cls, path="")
        layout = self.build_layout(root_cls, root)

        # Unique fields become one all-different group per class, spanning
        # every materialized instance of that class.
        for cls_name, instances in self.instances_by_class.items():
            cls = self.program.classes[cls_name]
            for f in cls.fields:
                if f.unique:
                    self.alldiff.append(tuple(inst.fields[f.name] for inst in instances))

        env: dict[str, object] = {entry.param_name: root}
        for stmt in rewrite_assert_as_assume(entry.body):
            if isinstance(stmt, Assign):
                env[stmt.target] = self.lower_value(stmt.value, env)
            elif isinstance(stmt, Assume):
                val = self.lower_value(stmt.expr, env)
                if not isinstance(val, _BoolVal):
                    raise InternalError("assume lowered to a non-boolean")
                self.constraints.append(val.expr)
            else:
                raise InternalError("assert survived rewrite")

        return ConstraintModel(self.vars, self.selectors, self.alldiff, self.constraints, layout)

    # -- materialization ---------------------------------------------------

    def materialize(self, cls: ClassDecl, path: str) -> _Instance:
        """Create vars for one instance of cls. Container classes hold their
        element instances in .lists, keyed by the list field name."""
        fields: dict[str, int] = {}
        lists: dict[str, _ListVal] = {}
        for f in cls.fields:
            if f.list_len is not None:
                elem_cls = self.program.classes[f.base]
                prefix = f"{path}.{f.name}" if path else f.name
                elems = [
                    self.materialize(elem_cls, f"{prefix}[{i}]") for i in range(f.list_len)
                ]
                lists[f.name] = _ListVal(f.base, tuple(elems))
            else:
                if f.domain is None:
                    raise InternalError(f"field {f.name} has no domain after check")
                var_name = f"{path}.{f.name}" if path else f.name
                fields[f.name] = self.new_var(var_name, f.domain)
        inst = _Instance(cls.name, path, fields, lists)
        if fields:
            self.instances_by_class.setdefault(cls.name, []).append(inst)
        return inst

    def build_layout(self, root_cls: ClassDecl, root: _Instance) -> InstanceLayout:
        list_fields = [f for f in root_cls.fields if f.list_len is not None]
        if list_fields:
            lf = list_fields[0]
            elem_cls = self.program.classes[lf.base]
            instances = root.lists[lf.name].instances
            columns = tuple(f.name for f in elem_cls.fields)
            rows = tuple(
                RowLayout(i, elem_cls.name, dict(inst.fields))
                for i, inst in enumerate(instances)
            )
            position = _position_field(elem_cls)
        else:
            columns = tuple(f.name for f in root_cls.fields)
            rows = (RowLayout(0, root_cls.name, dict(root.fields)),)
            position = _position_field(root_cls)
        return InstanceLayout(rows, columns, position)

    # -- expression lowering ------------------------------------------------

    def lower_value(self, expr: Expr, env: dict[str, object]) -> object:
        if isinstance(expr, IntLit):
            return _IntVal(CLit(expr.value))
        if isinstance(expr, StrLit):
            return _StrVal(None, None, expr.value)
        if isinstance(expr, LocalRef):
            try:
                return env[expr.name]
            except KeyError:
                raise InternalError(f"unbound name {expr.name!r} after check")
        if isinstance(expr, FieldAccess):
            obj = self.lower_value(expr.obj, env)
            return self.lower_field(obj, expr.field)
        if isinstance(expr, Index):
            obj = self.lower_value(expr.obj, env)
            if not isinstance(obj, _ListVal):
                raise InternalError("indexing a non-list after check")
            return obj.instances[expr.index]
        if isinstance(expr, Nondet):
            arg = self.lower_value(expr.arg, env)
            if not isinstance(arg, _ListVal):
                raise InternalError("nondet on a non-list after check")
            # Every var is materialized before the validator is lowered, so
            # selector ids can continue the var numbering right away.
            index = len(self.selectors)
            sid = len(self.vars) + index
            self.selectors.append(
                SelectorVar(sid, len(arg.instances), arg.class_name, f"choice{index}")
            )
            return _SelObj(sid, arg.instances)
        if isinstance(expr, Abs):
            arg = self.lower_value(expr.arg, env)
            assert isinstance(arg, _IntVal)
            return _IntVal(CAbs(arg.expr))
        if isinstance(expr, Binary):
            left = self.lower_value(expr.left, env)
            right = self.lower_value(expr.right, env)
            assert isinstance(left, _IntVal) and isinstance(right, _IntVal)
            return _IntVal(CBin(expr.op, left.expr, right.expr))
        if isinstance(expr, Compare):
            return self.lower_compare(expr, env)
        if isinstance(expr, BoolOp):
            parts = []
            for op in expr.operands:
                val = self.lower_value(op, env)
                assert isinstance(val, _BoolVal)
                parts.append(val.expr)
            return _BoolVal(CBool(expr.op, tuple(parts)))
        assert isinstance(expr, Not)
        val = self.lower_value(expr.operand, env)
        assert isinstance(val, _BoolVal)
        return _BoolVal(_negate(val.expr))

    def lower_field(self, obj: object, field_name: str) -> object:
        if isinstance(obj, _Instance):
            if field_name in obj.fields:
                vid = obj.fields[field_name]
                f = self.field_decl(obj.class_name, field_name)
                if f.base == INT:
                    return _IntVal(CVar(vid))
                assert isinstance(f.domain, EnumValues)
                return _StrVal(CVar(vid), f.domain, None)
            if field_name in obj.lists:
                return obj.lists[field_name]
            raise InternalError(f"unknown field {field_name!r} after check")
        if isinstance(obj, _SelObj):
            f = self.field_decl(obj.instances[0].class_name, field_name)
            table = tuple(inst.fields[field_name] for inst in obj.instances)
            elem = CElem(obj.selector, table)
            if f.base == INT:
                return _IntVal(elem)
            assert isinstance(f.domain, EnumValues)
            return _StrVal(elem, f.domain, None)
        raise InternalError("field access on a non-object after check")

    def lower_compare(self, expr: Compare, env: dict[str, object]) -> _BoolVal:
        left = self.lower_value(expr.left, env)
        right = self.lower_value(expr.right, env)
        if isinstance(left, _IntVal) and isinstance(right, _IntVal):
            return _BoolVal(_compare(expr.op, left.expr, right.expr))
        if isinstance(left, _StrVal) and isinstance(right, _StrVal):
            field, lit = (left, right) if left.expr is not None else (right, left)
            if field.expr is None or field.domain is None or lit.literal is None:
                raise InternalError("string comparison shape after check")
            code = field.domain.values.index(lit.literal)
            return _BoolVal(CCmp(expr.op, field.expr, CLit(code)))
        raise InternalError("mixed comparison after check")

    def field_decl(self, class_name: str, field_name: str) -> FieldDecl:
        f = self.program.classes[class_name].field_named(field_name)
        if f is None:
            raise InternalError(f"unknown field {field_name!r} after check")
        return f


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

