"""Hypothesis strategies for random programs in the standard result shape."""

from __future__ import annotations

from hypothesis import strategies as st

from logicforge.frontend.ast import (
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
)

_CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")


@st.composite
def field_decls(draw, index: int, max_domain: int) -> FieldDecl:
    unique = draw(st.booleans())
    if draw(st.booleans()):
        lo = draw(st.integers(-3, 3))
        size = draw(st.integers(1, max_domain))
        return FieldDecl(f"f{index}", "int", unique, IntRange(lo, lo + size))
    size = draw(st.integers(1, max_domain))
    values = tuple(f"w{j}" for j in range(size))
    return FieldDecl(f"f{index}", "str", unique, EnumValues(values))


@st.composite
def int_exprs(draw, objs: list[str], int_fields: list[str], depth: int = 0):
    options = ["lit"]
    if int_fields:
        options.append("field")
    if depth < 2:
        options.extend(["add", "abs"])
    kind = draw(st.sampled_from(options))
    if kind == "lit":
        return IntLit(draw(st.integers(-4, 8)))
    if kind == "field":
        return FieldAccess(LocalRef(draw(st.sampled_from(objs))), draw(st.sampled_from(int_fields)))
    if kind == "abs":
        return Abs(draw(int_exprs(objs, int_fields, depth + 1)))
    op = draw(st.sampled_from(("+", "-", "*")))
    return Binary(
        op,
        draw(int_exprs(objs, int_fields, depth + 1)),
        draw(int_exprs(objs, int_fields, depth + 1)),
    )


@st.composite
def bool_exprs(draw, objs: list[str], fields: list[FieldDecl], depth: int = 0):
    int_fields = [f.name for f in fields if f.base == "int"]
    str_fields = [f for f in fields if f.base == "str"]
    options = []
    if int_fields or True:
        options.append("int_cmp")
    if str_fields:
        options.append("str_cmp")
    if depth < 2:
        options.extend(["bool_op", "not"])
    kind = draw(st.sampled_from(options))
    if kind == "int_cmp":
        return Compare(
            draw(st.sampled_from(_CMP_OPS)),
            draw(int_exprs(objs, int_fields)),
            draw(int_exprs(objs, int_fields)),
        )
    if kind == "str_cmp":
        f = draw(st.sampled_from(str_fields))
        value = draw(st.sampled_from(list(f.domain.values)))
        access = FieldAccess(LocalRef(draw(st.sampled_from(objs))), f.name)
        lit = StrLit(value)
        left, right = draw(st.sampled_from([(access, lit), (lit, access)]))
        return Compare(draw(st.sampled_from(("==", "!="))), left, right)
    if kind == "not":
        return Not(draw(bool_exprs(objs, fields, depth + 1)))
    op = draw(st.sampled_from(("and", "or")))
    parts = draw(st.lists(bool_exprs(objs, fields, depth + 1), min_size=2, max_size=3))
    return BoolOp(op, tuple(parts))


@st.composite
def programs(draw, max_entities: int = 3, max_fields: int = 3, max_domain: int = 4) -> DslProgram:
    n = draw(st.integers(1, max_entities))
    n_fields = draw(st.integers(1, max_fields))
    fields = tuple(draw(field_decls(i, max_domain)) for i in range(n_fields))
    entity = ClassDecl("E", fields)
    container = ClassDecl("S", (FieldDecl("items", "E", False, None, n),))

    objs = []
    stmts = []
    n_binds = draw(st.integers(1, 3))
    for i in range(n_binds):
        name = f"x{i}"
        if draw(st.booleans()):
            stmts.append(Assign(name, Nondet(FieldAccess(LocalRef("s"), "items"))))
        else:
            idx = draw(st.integers(0, n - 1))
            stmts.append(Assign(name, Index(FieldAccess(LocalRef("s"), "items"), idx)))
        objs.append(name)
    n_conds = draw(st.integers(1, 4))
    for _ in range(n_conds):
        cond = draw(bool_exprs(objs, list(fields)))
        stmt_type = draw(st.sampled_from([Assume, Assert]))
        stmts.append(stmt_type(cond))
    fn = FuncDecl("validate", "s", "S", tuple(stmts))
    return DslProgram((entity, container), (fn,))


@st.composite
def scalar_programs(draw, max_fields: int = 3, max_domain: int = 4) -> DslProgram:
    """A parameter class of scalar fields only, which is itself the one row
    of the result table: the conditions read ``s.<field>``."""
    n_fields = draw(st.integers(1, max_fields))
    fields = tuple(draw(field_decls(i, max_domain)) for i in range(n_fields))
    stmts = []
    n_conds = draw(st.integers(1, 4))
    for _ in range(n_conds):
        cond = draw(bool_exprs(["s"], list(fields)))
        stmt_type = draw(st.sampled_from([Assume, Assert]))
        stmts.append(stmt_type(cond))
    fn = FuncDecl("validate", "s", "S", tuple(stmts))
    return DslProgram((ClassDecl("S", fields),), (fn,))
