"""Semantic checking: name resolution, type rules, and domain membership.

The result class shape is deliberately narrow so that lowering and solution
decoding stay total: the entry function's parameter class either holds only
scalar fields with finite domains, or exactly one fixed-size list of a class
that holds only such scalar fields. ``CheckedProgram.row_class`` names the
class of one row of the result table, for lowering and solution checking.
"""

from __future__ import annotations

from ..errors import SemanticError
from ..records import Record
from .ast import (
    INT,
    STR,
    Abs,
    Assert,
    Assign,
    Assume,
    Binary,
    BoolOp,
    ClassDecl,
    Compare,
    DslProgram,
    EnumValues,
    Expr,
    FieldAccess,
    FieldDecl,
    FuncDecl,
    Index,
    IntLit,
    IntRange,
    LocalRef,
    Nondet,
    Not,
    StrLit,
    locate,
)

_INT_ONLY_OPS = frozenset({"<", "<=", ">", ">="})


# Semantic types. Strings are always tied to the field they were read from,
# which carries the enum domain used for coding and membership checks.
class TInt(Record):
    __slots__ = ()


class TBool(Record):
    __slots__ = ()


class TStrField(Record):
    __slots__ = ("class_name", "field_name")

    def __init__(self, class_name: str, field_name: str):
        self.class_name, self.field_name = class_name, field_name


class TStrLit(Record):
    __slots__ = ("value",)

    def __init__(self, value: str):
        self.value = value


class TObj(Record):
    __slots__ = ("class_name",)

    def __init__(self, class_name: str):
        self.class_name = class_name


class TList(Record):
    __slots__ = ("class_name", "size")

    def __init__(self, class_name: str, size: int):
        self.class_name, self.size = class_name, size


T_INT = TInt()
T_BOOL = TBool()


class CheckedProgram(Record):
    """A semantically valid program: one entry function over a known class."""

    __slots__ = ("program", "entry", "classes")

    def __init__(self, program: DslProgram, entry: FuncDecl, classes: dict[str, ClassDecl]):
        self.program, self.entry, self.classes = program, entry, classes

    @property
    def param_class(self) -> ClassDecl:
        return self.classes[self.entry.param_type]

    @property
    def rows_field(self) -> FieldDecl | None:
        """The parameter class's one list field, which holds the rows of the
        result table; None when the class holds only scalar fields. A list
        field is the class's only field (``check_result_shape``)."""
        first = self.param_class.fields[0]
        return first if first.list_len is not None else None

    @property
    def row_class(self) -> ClassDecl:
        """The class of one row: the list field's element class, or the
        parameter class itself, which is then the table's one row."""
        rows = self.rows_field
        return self.param_class if rows is None else self.classes[rows.base]


def check(program: DslProgram, origin: str = "<string>") -> CheckedProgram:
    """Validate a parsed program, returning it with resolved references."""
    return _Checker(program, origin).run()


class _Checker:
    def __init__(self, program: DslProgram, origin: str):
        self.program = program
        self.origin = origin
        self.classes: dict[str, ClassDecl] = {}

    def err(self, category: str, message: str, offset: int) -> SemanticError:
        pos = locate(self.program.text, offset)
        return SemanticError(category, message, self.origin, pos.line, pos.col)

    def run(self) -> CheckedProgram:
        for cls in self.program.classes:
            if cls.name in self.classes:
                raise self.err("TypeMismatch", f"duplicate class {cls.name!r}", cls.pos)
            self.classes[cls.name] = cls
        for cls in self.program.classes:
            self.check_class(cls)

        funcs = self.program.functions
        if len(funcs) == 0:
            raise self.err("NoEntryFunction", "no validation function defined", 0)
        if len(funcs) > 1:
            raise self.err(
                "MultipleEntryFunctions",
                f"expected exactly one validation function, found {len(funcs)}",
                funcs[1].pos,
            )
        entry = funcs[0]
        self.check_entry(entry)
        return CheckedProgram(self.program, entry, self.classes)

    # -- class declarations ----------------------------------------------

    def check_class(self, cls: ClassDecl) -> None:
        if not cls.fields:
            raise self.err("TypeMismatch", f"class {cls.name!r} has no fields", cls.pos)
        seen: set[str] = set()
        for f in cls.fields:
            if f.name in seen:
                raise self.err(
                    "TypeMismatch", f"duplicate field {f.name!r} in {cls.name!r}", f.pos
                )
            seen.add(f.name)
            self.check_field(cls, f)

    def check_field(self, cls: ClassDecl, f: FieldDecl) -> None:
        if f.list_len is not None:
            if f.unique:
                raise self.err("UniqueWithoutDomain", "'Unique' cannot wrap a list", f.pos)
            if f.list_len <= 0:
                raise self.err("TypeMismatch", "list size must be positive", f.pos)
            if not f.is_class_ref:
                raise self.err(
                    "TypeMismatch", "scalar lists are not supported; list element must be a class", f.pos
                )
            if f.base not in self.classes:
                raise self.err("UnknownName", f"unknown class {f.base!r}", f.pos)
            if f.base == cls.name:
                raise self.err("TypeMismatch", "a class cannot contain a list of itself", f.pos)
            elem = self.classes[f.base]
            for inner in elem.fields:
                if inner.is_class_ref or inner.list_len is not None:
                    raise self.err(
                        "TypeMismatch",
                        f"list element class {elem.name!r} must hold only scalar fields",
                        f.pos,
                    )
            return
        if f.is_class_ref:
            if f.unique:
                raise self.err(
                    "UniqueWithoutDomain", "'Unique' requires a finite domain, not a class", f.pos
                )
            raise self.err(
                "TypeMismatch",
                "class-typed fields must be fixed-size lists (use list[C, n])",
                f.pos,
            )
        if f.domain is None:
            if f.unique:
                raise self.err(
                    "UniqueWithoutDomain",
                    f"field {f.name!r} is Unique but declares no Domain",
                    f.pos,
                )
            raise self.err(
                "TypeMismatch", f"field {f.name!r} needs a finite Domain", f.pos
            )
        if isinstance(f.domain, IntRange):
            if f.base != INT:
                raise self.err("TypeMismatch", "range domains require base type 'int'", f.pos)
            if f.domain.lo >= f.domain.hi:
                raise self.err(
                    "TypeMismatch", f"empty integer range [{f.domain.lo}, {f.domain.hi})", f.pos
                )
        else:
            assert isinstance(f.domain, EnumValues)
            if f.base != STR:
                raise self.err("TypeMismatch", "value-list domains require base type 'str'", f.pos)
            if len(set(f.domain.values)) != len(f.domain.values):
                raise self.err("TypeMismatch", "duplicate value in string domain", f.pos)

    # -- the entry function ----------------------------------------------

    def check_entry(self, fn: FuncDecl) -> None:
        if fn.param_type not in self.classes:
            raise self.err("UnknownName", f"unknown parameter type {fn.param_type!r}", fn.pos)
        if not fn.body:
            raise self.err("TypeMismatch", f"function {fn.name!r} has an empty body", fn.pos)
        self.check_result_shape(self.classes[fn.param_type], fn.pos)

        env: dict[str, object] = {fn.param_name: TObj(fn.param_type)}
        for stmt in fn.body:
            if isinstance(stmt, Assign):
                if stmt.target == fn.param_name:
                    raise self.err(
                        "TypeMismatch", f"cannot rebind parameter {stmt.target!r}", stmt.pos
                    )
                ty = self.infer(stmt.value, env)
                if isinstance(ty, (TStrField, TStrLit)):
                    raise self.err(
                        "TypeMismatch", "string values cannot be bound to locals", stmt.pos
                    )
                if isinstance(ty, TList):
                    raise self.err(
                        "TypeMismatch", "lists cannot be bound to locals", stmt.pos
                    )
                env[stmt.target] = ty
            elif isinstance(stmt, (Assume, Assert)):
                ty = self.infer(stmt.expr, env)
                if not isinstance(ty, TBool):
                    what = "assume" if isinstance(stmt, Assume) else "assert"
                    raise self.err(
                        "TypeMismatch", f"{what} requires a boolean expression", stmt.pos
                    )
            else:  # pragma: no cover - parser emits no other statements
                raise self.err("TypeMismatch", "unsupported statement", stmt.pos)

    def check_result_shape(self, cls: ClassDecl, pos: int) -> None:
        list_fields = [f for f in cls.fields if f.list_len is not None]
        scalar_fields = [f for f in cls.fields if f.list_len is None]
        if len(list_fields) > 1:
            raise self.err(
                "TypeMismatch",
                f"result class {cls.name!r} may declare at most one list field",
                pos,
            )
        if list_fields and scalar_fields:
            raise self.err(
                "TypeMismatch",
                f"result class {cls.name!r} cannot mix list and scalar fields",
                pos,
            )

    # -- expression typing -------------------------------------------------

    def infer(self, expr: Expr, env: dict[str, object]):
        if isinstance(expr, IntLit):
            return T_INT
        if isinstance(expr, StrLit):
            return TStrLit(expr.value)
        if isinstance(expr, LocalRef):
            if expr.name not in env:
                raise self.err("UnknownName", f"unknown name {expr.name!r}", expr.pos)
            return env[expr.name]
        if isinstance(expr, FieldAccess):
            obj_ty = self.infer(expr.obj, env)
            if not isinstance(obj_ty, TObj):
                raise self.err(
                    "TypeMismatch", f"field access on a non-object value", expr.pos
                )
            cls = self.classes[obj_ty.class_name]
            f = cls.field_named(expr.field)
            if f is None:
                raise self.err(
                    "UnknownName",
                    f"class {cls.name!r} has no field {expr.field!r}",
                    expr.pos,
                )
            return self.field_type(cls, f)
        if isinstance(expr, Index):
            obj_ty = self.infer(expr.obj, env)
            if not isinstance(obj_ty, TList):
                raise self.err("TypeMismatch", "indexing a non-list value", expr.pos)
            if not (0 <= expr.index < obj_ty.size):
                raise self.err(
                    "TypeMismatch",
                    f"index {expr.index} out of bounds for list of {obj_ty.size}",
                    expr.pos,
                )
            return TObj(obj_ty.class_name)
        if isinstance(expr, Nondet):
            arg_ty = self.infer(expr.arg, env)
            if not isinstance(arg_ty, TList):
                raise self.err(
                    "BadNondetTarget", "nondet requires a fixed-size list", expr.pos
                )
            return TObj(arg_ty.class_name)
        if isinstance(expr, Abs):
            arg_ty = self.infer(expr.arg, env)
            if not isinstance(arg_ty, TInt):
                raise self.err("TypeMismatch", "abs requires an integer", expr.pos)
            return T_INT
        if isinstance(expr, Binary):
            for side in (expr.left, expr.right):
                if not isinstance(self.infer(side, env), TInt):
                    raise self.err(
                        "TypeMismatch", f"operator {expr.op!r} requires integers", expr.pos
                    )
            return T_INT
        if isinstance(expr, Compare):
            return self.infer_compare(expr, env)
        if isinstance(expr, BoolOp):
            for op in expr.operands:
                if not isinstance(self.infer(op, env), TBool):
                    raise self.err(
                        "TypeMismatch", f"{expr.op!r} requires boolean operands", expr.pos
                    )
            return T_BOOL
        assert isinstance(expr, Not)
        if not isinstance(self.infer(expr.operand, env), TBool):
            raise self.err("TypeMismatch", "'not' requires a boolean operand", expr.pos)
        return T_BOOL

    def infer_compare(self, expr: Compare, env: dict[str, object]):
        lt = self.infer(expr.left, env)
        rt = self.infer(expr.right, env)
        if isinstance(lt, TInt) and isinstance(rt, TInt):
            return T_BOOL
        str_sides = {
            side: ty for side, ty in (("l", lt), ("r", rt)) if isinstance(ty, (TStrField, TStrLit))
        }
        if len(str_sides) == 2:
            if expr.op in _INT_ONLY_OPS:
                raise self.err(
                    "TypeMismatch", f"operator {expr.op!r} is integer-only", expr.pos
                )
            field_ty = lt if isinstance(lt, TStrField) else (rt if isinstance(rt, TStrField) else None)
            lit_ty = lt if isinstance(lt, TStrLit) else (rt if isinstance(rt, TStrLit) else None)
            if field_ty is None or lit_ty is None:
                raise self.err(
                    "TypeMismatch",
                    "string comparisons must pair a field with a literal",
                    expr.pos,
                )
            domain = self.classes[field_ty.class_name].field_named(field_ty.field_name).domain
            assert isinstance(domain, EnumValues)
            if lit_ty.value not in domain.values:
                raise self.err(
                    "ValueOutsideDomain",
                    f"{lit_ty.value!r} is not in the domain of "
                    f"{field_ty.class_name}.{field_ty.field_name}",
                    expr.pos,
                )
            return T_BOOL
        raise self.err(
            "TypeMismatch", "comparison operands must share a base type", expr.pos
        )

    def field_type(self, cls: ClassDecl, f: FieldDecl):
        if f.list_len is not None:
            return TList(f.base, f.list_len)
        if f.base == INT:
            return T_INT
        if f.base == STR:
            return TStrField(cls.name, f.name)
        raise AssertionError("class-typed scalar fields are rejected earlier")
