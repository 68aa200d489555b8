"""Canonical source printer: parse(pretty(parse(s))) == parse(s)."""

from __future__ import annotations

from .ast import (
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
    Stmt,
    StrLit,
)

_INDENT = "    "

# Binding strength, loosest first. Atoms bind tightest.
_PREC_OR = 1
_PREC_AND = 2
_PREC_NOT = 3
_PREC_CMP = 4
_PREC_ADD = 5
_PREC_MUL = 6
_PREC_ATOM = 7


def pretty(program: DslProgram) -> str:
    parts = [_class_src(c) for c in program.classes]
    parts.extend(_func_src(f) for f in program.functions)
    return "\n".join(parts)


def _class_src(decl: ClassDecl) -> str:
    lines = [f"class {decl.name}:"]
    for f in decl.fields:
        lines.append(f"{_INDENT}{f.name}: {_annotation(f)}")
    lines.append("")
    return "\n".join(lines)


def _annotation(f: FieldDecl) -> str:
    if f.list_len is not None:
        return f"list[{f.base}, {f.list_len}]"
    if f.domain is None:
        inner = f.base
    elif isinstance(f.domain, IntRange):
        inner = f"Domain[int, range({f.domain.lo}, {f.domain.hi})]"
    else:
        assert isinstance(f.domain, EnumValues)
        vals = ", ".join(_str_lit(v) for v in f.domain.values)
        inner = f"Domain[str, {vals}]"
    return f"Unique[{inner}]" if f.unique else inner


def _func_src(f: FuncDecl) -> str:
    lines = [f"def {f.name}({f.param_name}: {f.param_type}) -> None:"]
    for stmt in f.body:
        lines.append(f"{_INDENT}{_stmt_src(stmt)}")
    lines.append("")
    return "\n".join(lines)


def _stmt_src(stmt: Stmt) -> str:
    if isinstance(stmt, Assign):
        return f"{stmt.target} = {expr_src(stmt.value)}"
    if isinstance(stmt, Assume):
        return f"assume({expr_src(stmt.expr)})"
    assert isinstance(stmt, Assert)
    return f"assert {expr_src(stmt.expr)}"


def _str_lit(value: str) -> str:
    escaped = value.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def expr_src(expr: Expr, parent_prec: int = 0) -> str:
    text, prec = _render(expr)
    if prec < parent_prec:
        return f"({text})"
    return text


def _render(expr: Expr) -> tuple[str, int]:
    if isinstance(expr, IntLit):
        # Negative literals bind like atoms but need parens under * etc.
        return str(expr.value), _PREC_ATOM if expr.value >= 0 else _PREC_MUL
    if isinstance(expr, StrLit):
        return _str_lit(expr.value), _PREC_ATOM
    if isinstance(expr, LocalRef):
        return expr.name, _PREC_ATOM
    if isinstance(expr, FieldAccess):
        obj = expr.obj
        if isinstance(obj, IntLit) and obj.value >= 0:
            return f"({obj.value}).{expr.field}", _PREC_ATOM  # 1.a reads as a number
        return f"{expr_src(obj, _PREC_ATOM)}.{expr.field}", _PREC_ATOM
    if isinstance(expr, Index):
        return f"{expr_src(expr.obj, _PREC_ATOM)}[{expr.index}]", _PREC_ATOM
    if isinstance(expr, Nondet):
        return f"nondet({expr_src(expr.arg)})", _PREC_ATOM
    if isinstance(expr, Abs):
        return f"abs({expr_src(expr.arg)})", _PREC_ATOM
    if isinstance(expr, Binary):
        prec = _PREC_MUL if expr.op == "*" else _PREC_ADD
        left = expr_src(expr.left, prec)
        right = expr_src(expr.right, prec + 1)  # - and * are left-associative
        return f"{left} {expr.op} {right}", prec
    if isinstance(expr, Compare):
        left = expr_src(expr.left, _PREC_CMP + 1)
        right = expr_src(expr.right, _PREC_CMP + 1)
        return f"{left} {expr.op} {right}", _PREC_CMP
    if isinstance(expr, BoolOp):
        prec = _PREC_AND if expr.op == "and" else _PREC_OR
        parts = [expr_src(op, prec + 1) for op in expr.operands]
        return f" {expr.op} ".join(parts), prec
    assert isinstance(expr, Not)
    return f"not {expr_src(expr.operand, _PREC_NOT)}", _PREC_NOT
