"""The reference reader of Logic.py for the differential tests: Python's own
parser (``ast.parse``) reads the text, one recursive converter maps Python's
syntax tree onto the DSL AST, and ``outside_grammar`` rejects each form of
Python that the DSL's grammar leaves out (see ``logicforge.frontend.parser``).

``reference_parse`` accepts a text exactly when ``parse`` should, and returns
the program ``parse`` should return, with the same position on every node.
"""

from __future__ import annotations

import ast
import keyword
import re
import threading
import warnings

from logicforge.errors import DslSyntaxError
from logicforge.frontend.ast import (
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
    DomainSpec,
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
    Pos,
    Stmt,
    StrLit,
)
from logicforge.frontend.parser import MAX_DIGITS, MAX_NESTING, RESERVED, SourceText

# Two threads building Python syntax trees at once can fail with
# "SystemError: AST constructor recursion depth mismatch" (CPython 3.11.7).
_PYTHON_PARSER = threading.Lock()

_CONTROL = re.compile(r"[\x00-\x08\x0a-\x1f\x7f-\x9f]")
_COMPARE_OPS = {
    ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">="
}
_BINARY_OPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*"}
_BOOL_OPS = {ast.And: "and", ast.Or: "or"}


def reference_parse(text: str) -> DslProgram:
    """The program of ``text``, or DslSyntaxError for a text outside the
    grammar; the message and position of an error are the converter's."""
    converter = _Converter(SourceText(text))
    program = converter.program()
    problem = outside_grammar(converter)
    if problem:
        raise DslSyntaxError(problem, "<string>", 1, 1)
    return program


class _Converter:
    def __init__(self, source: SourceText):
        self.text = source.text
        self.origin = source.origin
        # Python starts a new line at \n, \r\n and a lone \r.
        self.lines = self.text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
        self.ascii = self.text.isascii()
        self.tabs = "\t" in self.text
        self.tree: ast.Module | None = None

    # -- positions and errors ----------------------------------------------

    def column(self, line: int, offset: int) -> int:
        """The 0-based character index of a UTF-8 byte offset on a line."""
        if self.ascii:
            return offset
        return len(self.lines[line - 1].encode()[:offset].decode(errors="ignore"))

    def pos(self, node: ast.AST) -> Pos:
        return Pos(node.lineno, self.column(node.lineno, node.col_offset) + 1)

    def after(self, node: ast.expr) -> Pos:
        """The first token after ``node`` and its closing parentheses: the
        operator, '.' or '[' that follows it."""
        line = node.end_lineno
        col = self.column(line, node.end_col_offset)
        while line <= len(self.lines):
            text = self.lines[line - 1]
            while col < len(text) and text[col] in " \t\f)":
                col += 1
            if col < len(text) and text[col] not in "#\\":
                return Pos(line, col + 1)
            line, col = line + 1, 0
        return self.pos(node)

    def err(self, where: ast.AST | Pos, message: str) -> DslSyntaxError:
        pos = where if isinstance(where, Pos) else self.pos(where)
        return DslSyntaxError(message, self.origin, pos.line, pos.col)

    def untabbed(self, node: ast.AST) -> None:
        if self.tabs:
            text = self.lines[node.lineno - 1]
            tab = text.find("\t", 0, len(text) - len(text.lstrip()))
            if tab >= 0:
                raise self.err(Pos(node.lineno, tab + 1), "tab character in indentation")

    def not_reserved(self, name: str, node: ast.AST) -> None:
        if name in RESERVED:
            raise self.err(node, f"{name!r} is reserved")

    # -- declarations ------------------------------------------------------

    def program(self) -> DslProgram:
        try:
            # the warning filter decides whether ``1and`` is a SyntaxError
            # or a SyntaxWarning; outside_grammar rejects it either way
            with _PYTHON_PARSER, warnings.catch_warnings():
                warnings.simplefilter("ignore")
                self.tree = ast.parse(self.text, self.origin)
        except SyntaxError as exc:  # IndentationError and TabError too
            line, col = exc.lineno or 1, max(exc.offset or 1, 1)
            raise DslSyntaxError(exc.msg, self.origin, line, col) from None
        except ValueError as exc:  # a lone surrogate; a NUL byte on Python 3.10
            raise DslSyntaxError(str(exc), self.origin, 1, 1) from None
        except (RecursionError, MemoryError):  # the C parser's depth guards
            raise DslSyntaxError("source nested too deeply to parse", self.origin, 1, 1) from None
        classes: list[ClassDecl] = []
        functions: list[FuncDecl] = []
        for node in self.tree.body:
            if isinstance(node, ast.ClassDef):
                classes.append(self.class_decl(node))
            elif isinstance(node, ast.FunctionDef):
                functions.append(self.func_decl(node))
            else:
                raise self.err(node, "expected a class or function definition")
        return DslProgram(tuple(classes), tuple(functions))

    def class_decl(self, node: ast.ClassDef) -> ClassDecl:
        self.untabbed(node)
        if node.bases or node.keywords or node.decorator_list or getattr(node, "type_params", ()):
            raise self.err(node, "a class takes no bases, keywords, decorators or type parameters")
        self.not_reserved(node.name, node)
        return ClassDecl(node.name, tuple(self.field_decl(f) for f in node.body), self.pos(node))

    def field_decl(self, node: ast.stmt) -> FieldDecl:
        self.untabbed(node)
        field = isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
        if not field or node.value is not None or not node.simple:
            raise self.err(node, "expected a field declaration 'name: type'")
        self.not_reserved(node.target.id, node)
        unique, base, domain, list_len = self.annotation(node.annotation)
        return FieldDecl(node.target.id, base, unique, domain, list_len, self.pos(node))

    def annotation(self, node: ast.expr) -> tuple[bool, str, DomainSpec | None, int | None]:
        if isinstance(node, ast.Name):
            return False, node.id, None, None
        if not (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)):
            raise self.err(node, "expected a type annotation")
        kind = node.value.id
        args = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
        if kind == "Unique" and len(args) == 1:
            inner = args[0]
            if isinstance(inner, ast.Subscript) and getattr(inner.value, "id", None) == "Unique":
                raise self.err(inner, "'Unique' cannot be nested")
            _, base, domain, list_len = self.annotation(inner)
            if list_len is not None:
                raise self.err(node, "'Unique' cannot wrap a list annotation")
            return True, base, domain, None
        if kind == "Domain" and len(args) >= 2:
            base = getattr(args[0], "id", None)
            if base == INT and len(args) == 2 and self.is_call(args[1], "range", 2):
                lo, hi = args[1].args
                return False, base, IntRange(self.int_value(lo), self.int_value(hi)), None
            if base == STR:
                return False, base, EnumValues(tuple(self.string(v) for v in args[1:])), None
            raise self.err(node, "expected Domain[int, range(lo, hi)] or Domain[str, \"a\", ...]")
        if kind == "list" and len(args) == 2 and isinstance(args[0], ast.Name):
            size = self.int_value(args[1])
            if size <= 0:
                raise self.err(args[1], "list size must be positive")
            return False, args[0].id, None, size
        raise self.err(node, f"unsupported type annotation {kind!r}")

    def func_decl(self, node: ast.FunctionDef) -> FuncDecl:
        self.untabbed(node)
        if node.decorator_list or getattr(node, "type_params", ()):
            raise self.err(node, "a function takes no decorators or type parameters")
        args = node.args
        extra = args.posonlyargs or args.vararg or args.kwonlyargs or args.kwarg or args.defaults
        if extra or len(args.args) != 1 or not isinstance(args.args[0].annotation, ast.Name):
            raise self.err(node, "expected exactly one parameter, annotated with its class")
        if node.returns is not None and not (
            isinstance(node.returns, ast.Constant) and node.returns.value is None
        ):
            raise self.err(node.returns, "the return annotation must be None")
        param = args.args[0]
        self.not_reserved(node.name, node)
        self.not_reserved(param.arg, node)
        body = tuple(self.stmt(s) for s in node.body)
        return FuncDecl(node.name, param.arg, param.annotation.id, body, self.pos(node))

    def stmt(self, node: ast.stmt) -> Stmt:
        self.untabbed(node)
        if isinstance(node, ast.Assert):
            if node.msg is not None:
                raise self.err(node.msg, "assert messages are not supported")
            return Assert(self.expr(node.test), self.pos(node))
        if isinstance(node, ast.Expr) and self.is_call(node.value, "assume", 1):
            return Assume(self.expr(node.value.args[0]), self.pos(node))
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                self.not_reserved(target.id, target)
                return Assign(target.id, self.expr(node.value), self.pos(node))
        raise self.err(node, "expected an assignment, 'assume(...)' or 'assert' statement")

    # -- expressions -------------------------------------------------------

    def expr(self, node: ast.expr, depth: int = 0) -> Expr:
        """``node`` as a DSL expression ``depth`` edges below its statement."""
        if depth > MAX_NESTING:
            raise self.err(node, f"expression nested too deeply (more than {MAX_NESTING} levels)")
        depth += 1
        if isinstance(node, ast.Attribute):
            return FieldAccess(self.expr(node.value, depth), node.attr, self.after(node.value))
        if isinstance(node, ast.Compare):
            if len(node.ops) > 1:
                second = self.after(node.comparators[0])
                raise self.err(second, "chained comparisons are not supported")
            op = self.operator(_COMPARE_OPS, node.ops[0], node.left)
            left, right = self.expr(node.left, depth), self.expr(node.comparators[0], depth)
            return Compare(op, left, right, self.after(node.left))
        if isinstance(node, ast.Name):
            self.not_reserved(node.id, node)
            return LocalRef(node.id, self.pos(node))
        if isinstance(node, ast.Constant):
            if type(node.value) is str:
                return StrLit(self.string(node), self.pos(node))
            return IntLit(self.int_value(node), self.pos(node))
        if isinstance(node, ast.Call):
            if self.is_call(node, "nondet", 1):
                return Nondet(self.expr(node.args[0], depth), self.pos(node))
            if self.is_call(node, "abs", 1):
                return Abs(self.expr(node.args[0], depth), self.pos(node))
            raise self.err(node, "only 'nondet' and 'abs' may be called, with one argument")
        if isinstance(node, ast.BoolOp):
            operands = tuple(self.expr(v, depth) for v in node.values)
            return BoolOp(_BOOL_OPS[type(node.op)], operands, self.pos(node))
        if isinstance(node, ast.BinOp):
            op = self.operator(_BINARY_OPS, node.op, node.left)
            left, right = self.expr(node.left, depth), self.expr(node.right, depth)
            return Binary(op, left, right, self.after(node.left))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            return Not(self.expr(node.operand, depth), self.pos(node))
        if isinstance(node, ast.UnaryOp):
            return IntLit(self.int_value(node), self.pos(node))
        if isinstance(node, ast.Subscript):
            obj = self.expr(node.value, depth)
            return Index(obj, self.int_value(node.slice), self.after(node.value))
        raise self.err(node, f"unsupported expression ({type(node).__name__})")

    def operator(self, ops: dict, op: ast.AST, left: ast.expr) -> str:
        if type(op) not in ops:
            raise self.err(self.after(left), f"unsupported operator ({type(op).__name__})")
        return ops[type(op)]

    @staticmethod
    def is_call(node: ast.expr, name: str, arity: int) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == name
            and len(node.args) == arity
            and not node.keywords
        )

    def int_value(self, node: ast.expr) -> int:
        """An integer literal, optionally negated."""
        sign = 1
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            sign, node = -1, node.operand
        if not (isinstance(node, ast.Constant) and type(node.value) is int):
            raise self.err(node, "expected an integer literal")
        if node.value.bit_length() > 14_000:  # str() refuses more than 4300 digits
            raise self.err(node, "integer literal too long")
        return sign * node.value

    def string(self, node: ast.expr) -> str:
        if not (isinstance(node, ast.Constant) and type(node.value) is str):
            raise self.err(node, "expected a string literal")
        if _CONTROL.search(node.value):
            raise self.err(node, "control character in string literal")
        return node.value


# -- the forms of Python the grammar leaves out ----------------------------------

_STRING = re.compile(r""""(?:[^"\\\n]|\\[\\"'])*"|'(?:[^'\\\n]|\\[\\"'])*'""")
_NUMBER = re.compile(r"(?<!\w)\d[\w.]*")
_DECIMAL = re.compile(rf"0|[1-9]\d{{0,{MAX_DIGITS - 1}}}")
_ANNOTATION = (
    r"\w+|Domain\[int,range\(-?\d+,-?\d+\)\]|Domain\[str,\"\"(?:,\"\")*\]|list\[\w+,-?\d+\]"
)
_FIELD = re.compile(rf"\w+:(?:{_ANNOTATION}|Unique\[(?:{_ANNOTATION})\])")
_CODE_TOKEN = re.compile(r"\w+|\S")
_KEYWORDS = frozenset(keyword.kwlist)


def outside_grammar(converter: _Converter) -> str | None:
    """Which form of the text, which the converter accepted, the grammar
    leaves out, if any."""
    lines = converter.lines
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line) + 1)

    def at(line: int, col: int) -> int:  # a text offset from a node position
        return starts[line - 1] + converter.column(line, col)

    def start(node: ast.AST) -> int:
        return at(node.lineno, node.col_offset)

    def end(node: ast.AST) -> int:
        return at(node.end_lineno, node.end_col_offset)

    # strings as '"  "' and comments as spaces, so that what remains is code
    text = "\n".join(lines)
    masked = list(text)
    for node in ast.walk(converter.tree):
        if isinstance(node, ast.Constant) and type(node.value) is str:
            segment = text[start(node) : end(node)]
            if not _STRING.fullmatch(segment):
                return f"string literal {segment!r}"
            masked[start(node) + 1 : end(node) - 1] = " " * (len(segment) - 2)
    masked = re.sub(r"#[^\n]*", lambda m: " " * len(m.group()), "".join(masked))

    def glue(a: int, b: int) -> str:
        return re.sub(r"\s+", "", masked[a:b])

    if re.search(r"[^\t\n -~]|[\\;]", masked):
        return "a character outside the grammar"
    for number in _NUMBER.finditer(masked):
        if not _DECIMAL.fullmatch(number.group()):
            return f"integer literal {number.group()!r}"
    # grouping parentheses open at once: '(' after a name other than a
    # keyword opens a call or a parameter list
    open_brackets: list[bool] = []
    previous = ""
    for token in _CODE_TOKEN.findall(masked):
        if token in "([":
            grouping = token == "(" and not (previous.isidentifier() and previous not in _KEYWORDS)
            open_brackets.append(grouping)
            if sum(open_brackets) > MAX_NESTING:
                return "parentheses nested too deeply"
        elif token in ")]" and open_brackets:
            open_brackets.pop()
        previous = token
    for decl in converter.tree.body:
        body_start = start(decl.body[0])
        if isinstance(decl, ast.ClassDef):
            if glue(start(decl), body_start) != f"class{decl.name}:":
                return "class header"
        else:
            arg = decl.args.args[0]
            header = rf"def{decl.name}\({arg.arg}:{arg.annotation.id}\)(->None)?:"
            if not re.fullmatch(header, glue(start(decl), body_start)):
                return "def header"
        for item in decl.body:
            if masked[starts[item.lineno - 1] : start(item)].strip():
                return "a body on its header's line"
            field = isinstance(item, ast.AnnAssign) and glue(start(item), end(item))
            if field and not _FIELD.fullmatch(field):
                return "field declaration"
            if isinstance(item, ast.Assign) and not re.fullmatch(
                r"\w+=\(*", glue(start(item), start(item.value))
            ):
                return "assignment target"
            if isinstance(item, ast.Assert) and not re.fullmatch(
                r"assert\(*", glue(start(item), start(item.test))
            ):
                return "assert"
            if isinstance(item, ast.Expr) and start(item) != start(item.value):
                return "assume"
            for node in ast.walk(item):
                if isinstance(node, ast.Call) and not (
                    re.fullmatch(r"\w+\(\(*", glue(start(node), start(node.args[0])))
                    and re.fullmatch(r"\)*\)", glue(end(node.args[-1]), end(node)))
                ):
                    return "call"
                if isinstance(node, ast.Subscript) and not (
                    re.fullmatch(r"\)*\[", glue(end(node.value), start(node.slice)))
                    and glue(end(node.slice), end(node)) == "]"
                ):
                    return "index"
                if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
                    if glue(start(node), start(node.operand)) != "-":
                        return "negated literal"
    return None

