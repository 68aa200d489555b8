"""Emit a CPROVER-style C harness from a checked program.

The harness is a text artifact for inspection and golden testing: structs for
the result classes, static domain arrays with used-flag arrays for unique
fields, init helpers driven by the __CPROVER_unique_domain macro, the
validator with every assume and assert mapped to __CPROVER_assume, and a main
that ends in the single reachability assertion. Nothing here runs a model
checker.
"""

from __future__ import annotations

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
from ..records import Frozen

_PRELUDE = """\
#include <stdbool.h>
#include <string.h>
#include <stdlib.h>

#ifndef __CPROVER
void __CPROVER_assume(bool condition);
void __CPROVER_assert(bool condition, const char *message);
#endif

#define __CPROVER_abs(x) ((x) < 0 ? -(x) : (x))

#define __CPROVER_unique_domain( \\
    field, field_domain_array) \\
{ \\
    size_t index; \\
    __CPROVER_assume(index < \\
        (sizeof(field_domain_array) / \\
         sizeof(field_domain_array[0]))); \\
    __CPROVER_assume( \\
        !field_domain_array##_used[index]); \\
    field_domain_array##_used[index] = \\
        true; \\
    field = field_domain_array[index]; \\
}

size_t __CPROVER_nondet_array_index(size_t length) {
    size_t index;
    __CPROVER_assume(index < length);
    return index;
}

#define __CPROVER_nondet_index(array) \\
    __CPROVER_nondet_array_index(sizeof(array) / sizeof(array[0]))

#define __CPROVER_nondet_element(array) \\
    (array)[__CPROVER_nondet_index(array)]

"""


class CHarness(Frozen):
    def __init__(self, text: str, sections: dict[str, tuple[int, int]]):
        vars(self).update(text=text, sections=sections)  # name -> [start, end) byte range

    def section_text(self, name: str) -> str:
        start, end = self.sections[name]
        return self.text[start:end]


def emit(program: CheckedProgram) -> CHarness:
    """Emit the C harness for a checked program (deterministic, byte-stable)."""
    return _Emitter(program).run()


class _Emitter:
    def __init__(self, program: CheckedProgram):
        self.program = program
        self.chunks: list[str] = []
        self.sections: dict[str, tuple[int, int]] = {}
        self.offset = 0

    def put(self, text: str) -> None:
        self.chunks.append(text)
        self.offset += len(text)

    def section(self, name: str, body: str) -> None:
        start = self.offset
        self.put(body)
        self.sections[name] = (start, self.offset)

    def run(self) -> CHarness:
        classes = list(self.program.program.classes)
        entry = self.program.entry
        root = self.program.param_class

        self.put(_PRELUDE)
        self.section("structs", "".join(self._struct(c) for c in classes))
        self.section("domain_arrays", "".join(self._domain_arrays(c) for c in classes))
        self.section("init_helpers", "".join(self._init(c) for c in classes))
        self.section("validate", self._validate(entry, root))
        self.section("main", self._main(entry, root))
        text = "".join(self.chunks)
        return CHarness(text, self.sections)

    # -- data structures ----------------------------------------------------

    def _struct(self, cls: ClassDecl) -> str:
        lines = [f"struct {cls.name} {{"]
        for f in cls.fields:
            if f.list_len is not None:
                lines.append(f"    struct {f.base} {f.name}[{f.list_len}];")
            elif f.base == INT:
                lines.append(f"    int {f.name};")
            else:
                lines.append(f"    const char * {f.name};")
        lines.append("};")
        lines.append("")
        return "\n".join(lines) + "\n"

    def _domain_arrays(self, cls: ClassDecl) -> str:
        out = []
        for f in cls.fields:
            if not f.unique:
                continue
            array = f"{cls.name}_{f.name}"
            if isinstance(f.domain, IntRange):
                values = ", ".join(str(v) for v in f.domain.values())
                out.append(f"static int {array}[] = {{{values}}};\n")
                size = f.domain.hi - f.domain.lo
            else:
                values = ", ".join(_c_str(v) for v in f.domain.values)
                out.append(f"static const char * {array}[] = {{{values}}};\n")
                size = len(f.domain.values)
            out.append(f"static bool {array}_used[{size}];\n")
        if out:
            out.append("\n")
        return "".join(out)

    def _init(self, cls: ClassDecl) -> str:
        lines = [f"static void init_{cls.name}(struct {cls.name} * instance) {{"]
        for f in cls.fields:
            if f.list_len is not None:
                lines.append(
                    f"    for (size_t i = 0; i < sizeof(instance->{f.name}) / "
                    f"sizeof(instance->{f.name}[0]); ++i) {{"
                )
                lines.append(f"        init_{f.base}(&instance->{f.name}[i]);")
                lines.append("    }")
            elif f.unique:
                lines.append("    __CPROVER_unique_domain(")
                lines.append(f"        instance->{f.name},")
                lines.append(f"        {cls.name}_{f.name}")
                lines.append("    );")
            elif isinstance(f.domain, IntRange):
                lines.append(
                    f"    __CPROVER_assume(instance->{f.name} >= {f.domain.lo} && "
                    f"instance->{f.name} < {f.domain.hi});"
                )
            else:
                membership = " || ".join(
                    f"instance->{f.name} == {_c_str(v)}" for v in f.domain.values
                )
                lines.append(f"    __CPROVER_assume({membership});")
        lines.append("}")
        lines.append("")
        return "\n".join(lines) + "\n"

    # -- the validator --------------------------------------------------------

    def _validate(self, entry, root: ClassDecl) -> str:
        lines = [f"static void validate(struct {root.name} {entry.param_name}) {{"]
        for stmt in entry.body:
            if isinstance(stmt, Assign):
                value = _c_expr(stmt.value)
                lines.append(f"    typeof({value}) {stmt.target} = {value};")
            elif isinstance(stmt, (Assume, Assert)):
                lines.append(f"    __CPROVER_assume({_c_expr(stmt.expr)});")
        lines.append("}")
        lines.append("")
        return "\n".join(lines) + "\n"

    def _main(self, entry, root: ClassDecl) -> str:
        lines = [
            "#ifndef __CPROVER",
            f"void __CPROVER_output(const char *name, struct {root.name} solution);",
            "#endif",
            "",
            "int main(void) {",
            f"    struct {root.name} solution;",
            f"    init_{root.name}(&solution);",
            "    validate(solution);",
            "",
            '    __CPROVER_output("solution", solution);',
            '    __CPROVER_assert(false, "");',
            "}",
        ]
        return "\n".join(lines) + "\n"


def _c_str(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


# C operator precedence, loosest first (only the slice this language needs).
_C_PREC = {
    "||": 1,
    "&&": 2,
    "==": 3,
    "!=": 3,
    "<": 4,
    "<=": 4,
    ">": 4,
    ">=": 4,
    "+": 5,
    "-": 5,
    "*": 6,
}
_PREC_UNARY = 7
_PREC_ATOM = 8


def _c_expr(expr: Expr, parent_prec: int = 0) -> str:
    text, prec = _c_render(expr)
    return f"({text})" if prec < parent_prec else text


def _c_render(expr: Expr) -> tuple[str, int]:
    if isinstance(expr, IntLit):
        return str(expr.value), _PREC_ATOM if expr.value >= 0 else _PREC_UNARY
    if isinstance(expr, StrLit):
        return _c_str(expr.value), _PREC_ATOM
    if isinstance(expr, LocalRef):
        return expr.name, _PREC_ATOM
    if isinstance(expr, FieldAccess):
        return f"{_c_expr(expr.obj, _PREC_ATOM)}.{expr.field}", _PREC_ATOM
    if isinstance(expr, Index):
        return f"{_c_expr(expr.obj, _PREC_ATOM)}[{expr.index}]", _PREC_ATOM
    if isinstance(expr, Nondet):
        return f"__CPROVER_nondet_element({_c_expr(expr.arg)})", _PREC_ATOM
    if isinstance(expr, Abs):
        return f"__CPROVER_abs({_c_expr(expr.arg)})", _PREC_ATOM
    if isinstance(expr, Binary):
        prec = _C_PREC[expr.op]
        return (
            f"{_c_expr(expr.left, prec)} {expr.op} {_c_expr(expr.right, prec + 1)}",
            prec,
        )
    if isinstance(expr, Compare):
        prec = _C_PREC[expr.op]
        return (
            f"{_c_expr(expr.left, prec + 1)} {expr.op} {_c_expr(expr.right, prec + 1)}",
            prec,
        )
    if isinstance(expr, BoolOp):
        op = "&&" if expr.op == "and" else "||"
        prec = _C_PREC[op]
        parts = [_c_expr(p, prec + (0 if op == "||" else 1)) for p in expr.operands]
        return f" {op} ".join(parts), prec
    assert isinstance(expr, Not)
    return f"!{_c_expr(expr.operand, _PREC_ATOM)}", _PREC_UNARY
