"""Recursive-descent parser for the search DSL.

The grammar is a closed subset: class declarations with annotated fields,
function definitions whose bodies contain only assignments, assume(...) calls
and assert statements, and a fixed expression language. Anything else --
loops, imports, calls other than nondet/abs/assume, chained comparisons --
is a syntax error.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import DslSyntaxError
from . import lexer
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
    Pos,
    Stmt,
    StrLit,
    height,
)

BUILTINS = frozenset({"assume", "nondet", "abs"})

_COMPARE_OPS = frozenset({"==", "!=", "<", "<=", ">", ">="})

# Deepest expression nesting accepted, measured two ways and each held to the
# limit. The parser's own recursion: a statement's expression is level 1, and
# each parenthesis, call argument and `not` adds one. The height of the
# statement's expression tree, in edges: every operator, call, field access
# and index adds one, so a long `+` chain or `.field` chain counts one level
# per link although the parser builds it in a loop. Every later stage (check,
# lower, solve, find_second, C emission) recurses on the expression tree, and
# a program at this depth passes all of them under the default recursion
# limit. Without the limit the parser itself overflows the stack between 100
# and 150 levels of parentheses, and the later stages on a 1000-term sum.
MAX_NESTING = 50


@dataclass(frozen=True)
class SourceText:
    """A unit of DSL source plus a label used in diagnostics."""

    text: str
    origin: str = "<string>"


def parse(source: SourceText | str) -> DslProgram:
    """Parse source text into a DslProgram or raise DslSyntaxError."""
    if isinstance(source, str):
        source = SourceText(source)
    tokens = lexer.tokenize(source.text, source.origin)
    return _Parser(tokens, source.origin).parse_program()


class _Parser:
    def __init__(self, tokens: list[lexer.Token], origin: str):
        self.tokens = tokens
        self.origin = origin
        self.i = 0
        self.depth = 0

    # -- token plumbing --------------------------------------------------

    def peek(self) -> lexer.Token:
        return self.tokens[self.i]

    def advance(self) -> lexer.Token:
        tok = self.tokens[self.i]
        if tok.kind != lexer.EOF:
            self.i += 1
        return tok

    def check(self, kind: str, text: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def match(self, kind: str, text: str | None = None) -> lexer.Token | None:
        if self.check(kind, text):
            return self.advance()
        return None

    def expect(self, kind: str, text: str | None = None, what: str | None = None) -> lexer.Token:
        tok = self.peek()
        if tok.kind == kind and (text is None or tok.text == text):
            return self.advance()
        expected = what or (text if text is not None else kind)
        raise self.err(f"expected {expected!r}, found {self._describe(tok)}", tok)

    @staticmethod
    def _describe(tok: lexer.Token) -> str:
        if tok.kind in (lexer.NEWLINE, lexer.INDENT, lexer.DEDENT, lexer.EOF):
            return tok.kind.lower()
        return repr(tok.text)

    def err(self, msg: str, tok: lexer.Token | None = None) -> DslSyntaxError:
        tok = tok or self.peek()
        return DslSyntaxError(msg, self.origin, tok.line, tok.col)

    def int_of(self, tok: lexer.Token) -> int:
        """The value of an integer token. Python refuses to convert a digit
        string longer than its limit (4300 digits by default)."""
        try:
            return int(tok.text)
        except ValueError:
            raise self.err("integer literal too long", tok) from None

    def pos(self, tok: lexer.Token) -> Pos:
        return Pos(tok.line, tok.col)

    # -- grammar ---------------------------------------------------------

    def parse_program(self) -> DslProgram:
        classes: list[ClassDecl] = []
        functions: list[FuncDecl] = []
        while not self.check(lexer.EOF):
            if self.check(lexer.NAME, "class"):
                classes.append(self.parse_class())
            elif self.check(lexer.NAME, "def"):
                functions.append(self.parse_func())
            else:
                raise self.err(
                    f"expected a class or function definition, found {self._describe(self.peek())}"
                )
        return DslProgram(tuple(classes), tuple(functions))

    def parse_class(self) -> ClassDecl:
        start = self.expect(lexer.NAME, "class")
        name = self.expect(lexer.NAME, what="class name").text
        self._reserved_check(name, start)
        self.expect(lexer.OP, ":")
        self.expect(lexer.NEWLINE)
        self.expect(lexer.INDENT, what="an indented class body")
        fields: list[FieldDecl] = []
        while not self.check(lexer.DEDENT):
            fields.append(self.parse_field())
        self.expect(lexer.DEDENT)
        return ClassDecl(name, tuple(fields), self.pos(start))

    def parse_field(self) -> FieldDecl:
        name_tok = self.expect(lexer.NAME, what="field name")
        self._reserved_check(name_tok.text, name_tok)
        self.expect(lexer.OP, ":")
        unique, base, domain, list_len = self.parse_annotation()
        self.expect(lexer.NEWLINE)
        return FieldDecl(name_tok.text, base, unique, domain, list_len, self.pos(name_tok))

    def parse_annotation(self) -> tuple[bool, str, IntRange | EnumValues | None, int | None]:
        tok = self.peek()
        if self.match(lexer.NAME, "Unique"):
            self.expect(lexer.OP, "[")
            inner = self.peek()
            if inner.kind == lexer.NAME and inner.text == "Unique":
                raise self.err("'Unique' cannot be nested", inner)
            unique, base, domain, list_len = self.parse_annotation()
            if list_len is not None:
                raise self.err("'Unique' cannot wrap a list annotation", tok)
            self.expect(lexer.OP, "]")
            return True, base, domain, None
        if self.match(lexer.NAME, "Domain"):
            self.expect(lexer.OP, "[")
            base_tok = self.expect(lexer.NAME, what="base type")
            base = base_tok.text
            if base not in ("int", "str"):
                raise self.err("'Domain' base type must be 'int' or 'str'", base_tok)
            self.expect(lexer.OP, ",")
            domain = self.parse_domain_args(base)
            self.expect(lexer.OP, "]")
            return False, base, domain, None
        if self.match(lexer.NAME, "list"):
            self.expect(lexer.OP, "[")
            elem_tok = self.expect(lexer.NAME, what="element class name")
            self.expect(lexer.OP, ",")
            size_tok = self.expect(lexer.INT, what="list size")
            size = self.int_of(size_tok)
            if size <= 0:
                raise self.err("list size must be positive", size_tok)
            self.expect(lexer.OP, "]")
            return False, elem_tok.text, None, size
        name_tok = self.expect(lexer.NAME, what="type annotation")
        return False, name_tok.text, None, None

    def parse_domain_args(self, base: str) -> IntRange | EnumValues:
        if base == "int":
            self.expect(lexer.NAME, "range")
            self.expect(lexer.OP, "(")
            lo = self.parse_int_literal()
            self.expect(lexer.OP, ",")
            hi = self.parse_int_literal()
            self.expect(lexer.OP, ")")
            return IntRange(lo, hi)
        values = [self.expect(lexer.STRING, what="string literal").text]
        while self.match(lexer.OP, ","):
            values.append(self.expect(lexer.STRING, what="string literal").text)
        return EnumValues(tuple(values))

    def parse_int_literal(self) -> int:
        neg = self.match(lexer.OP, "-") is not None
        tok = self.expect(lexer.INT, what="integer literal")
        value = self.int_of(tok)
        return -value if neg else value

    def parse_func(self) -> FuncDecl:
        start = self.expect(lexer.NAME, "def")
        name = self.expect(lexer.NAME, what="function name").text
        self._reserved_check(name, start)
        self.expect(lexer.OP, "(")
        param = self.expect(lexer.NAME, what="parameter name").text
        self._reserved_check(param, start)
        self.expect(lexer.OP, ":")
        param_type = self.expect(lexer.NAME, what="parameter type").text
        self.expect(lexer.OP, ")")
        if self.match(lexer.OP, "->"):
            self.expect(lexer.NAME, "None")
        self.expect(lexer.OP, ":")
        self.expect(lexer.NEWLINE)
        self.expect(lexer.INDENT, what="an indented function body")
        body: list[Stmt] = []
        while not self.check(lexer.DEDENT):
            body.append(self.parse_stmt())
        self.expect(lexer.DEDENT)
        return FuncDecl(name, param, param_type, tuple(body), self.pos(start))

    def _reserved_check(self, name: str, tok: lexer.Token) -> None:
        if name in BUILTINS or name in lexer.KEYWORDS:
            raise self.err(f"{name!r} is reserved", tok)

    def parse_stmt(self) -> Stmt:
        tok = self.peek()
        if tok.kind == lexer.NAME and tok.text == "assert":
            self.advance()
            expr = self.parse_expr()
            if self.match(lexer.OP, ","):
                raise self.err("assert messages are not supported")
            self.expect(lexer.NEWLINE)
            return Assert(expr, self.pos(tok))
        if tok.kind == lexer.NAME and tok.text == "assume":
            self.advance()
            self.expect(lexer.OP, "(")
            expr = self.parse_expr()
            self.expect(lexer.OP, ")")
            self.expect(lexer.NEWLINE)
            return Assume(expr, self.pos(tok))
        if tok.kind == lexer.NAME and self.tokens[self.i + 1].text == "=" and self.tokens[
            self.i + 1
        ].kind == lexer.OP:
            self._reserved_check(tok.text, tok)
            self.advance()
            self.advance()
            value = self.parse_expr()
            self.expect(lexer.NEWLINE)
            return Assign(tok.text, value, self.pos(tok))
        raise self.err(
            "expected an assignment, 'assume(...)' or 'assert' statement, "
            f"found {self._describe(tok)}"
        )

    # -- expressions (precedence: or < and < not < compare < add < mul) ---

    def parse_expr(self) -> Expr:
        start = self.peek()
        self.nest()
        expr = self.parse_or()
        self.depth -= 1
        if not self.depth and height(expr) > MAX_NESTING:
            raise self.too_deep(start)
        return expr

    def nest(self) -> None:
        """Enter one more level of nesting, within MAX_NESTING."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.too_deep()

    def too_deep(self, tok: lexer.Token | None = None) -> DslSyntaxError:
        return self.err(f"expression nested too deeply (more than {MAX_NESTING} levels)", tok)

    def parse_or(self) -> Expr:
        first_tok = self.peek()
        operands = [self.parse_and()]
        while self.match(lexer.NAME, "or"):
            operands.append(self.parse_and())
        if len(operands) == 1:
            return operands[0]
        return BoolOp("or", tuple(operands), self.pos(first_tok))

    def parse_and(self) -> Expr:
        first_tok = self.peek()
        operands = [self.parse_not()]
        while self.match(lexer.NAME, "and"):
            operands.append(self.parse_not())
        if len(operands) == 1:
            return operands[0]
        return BoolOp("and", tuple(operands), self.pos(first_tok))

    def parse_not(self) -> Expr:
        tok = self.peek()
        if self.match(lexer.NAME, "not"):
            self.nest()
            expr = Not(self.parse_not(), self.pos(tok))
            self.depth -= 1
            return expr
        return self.parse_comparison()

    def parse_comparison(self) -> Expr:
        left = self.parse_arith()
        tok = self.peek()
        if tok.kind == lexer.OP and tok.text in _COMPARE_OPS:
            self.advance()
            right = self.parse_arith()
            nxt = self.peek()
            if nxt.kind == lexer.OP and nxt.text in _COMPARE_OPS:
                raise self.err("chained comparisons are not supported", nxt)
            return Compare(tok.text, left, right, self.pos(tok))
        return left

    def parse_arith(self) -> Expr:
        left = self.parse_term()
        while True:
            tok = self.peek()
            if tok.kind == lexer.OP and tok.text in ("+", "-"):
                self.advance()
                right = self.parse_term()
                left = Binary(tok.text, left, right, self.pos(tok))
            else:
                return left

    def parse_term(self) -> Expr:
        left = self.parse_atom()
        while True:
            tok = self.peek()
            if tok.kind == lexer.OP and tok.text == "*":
                self.advance()
                right = self.parse_atom()
                left = Binary("*", left, right, self.pos(tok))
            else:
                return left

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == lexer.OP and tok.text == "-":
            self.advance()
            lit = self.expect(lexer.INT, what="integer literal after unary '-'")
            return self.parse_trailers(IntLit(-self.int_of(lit), self.pos(tok)))
        if tok.kind == lexer.INT:
            self.advance()
            return self.parse_trailers(IntLit(self.int_of(tok), self.pos(tok)))
        if tok.kind == lexer.STRING:
            self.advance()
            return self.parse_trailers(StrLit(tok.text, self.pos(tok)))
        if tok.kind == lexer.OP and tok.text == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect(lexer.OP, ")")
            return self.parse_trailers(inner)
        if tok.kind == lexer.NAME:
            if tok.text in ("nondet", "abs"):
                self.advance()
                self.expect(lexer.OP, "(")
                arg = self.parse_expr()
                self.expect(lexer.OP, ")")
                node = Nondet(arg, self.pos(tok)) if tok.text == "nondet" else Abs(
                    arg, self.pos(tok)
                )
                return self.parse_trailers(node)
            if tok.text in lexer.KEYWORDS or tok.text == "assume":
                raise self.err(f"unexpected {tok.text!r} in expression", tok)
            self.advance()
            return self.parse_trailers(LocalRef(tok.text, self.pos(tok)))
        raise self.err(f"expected an expression, found {self._describe(tok)}", tok)

    def parse_trailers(self, expr: Expr) -> Expr:
        while True:
            tok = self.peek()
            if tok.kind == lexer.OP and tok.text == ".":
                self.advance()
                name = self.expect(lexer.NAME, what="field name")
                expr = FieldAccess(expr, name.text, self.pos(tok))
            elif tok.kind == lexer.OP and tok.text == "[":
                self.advance()
                idx = self.expect(lexer.INT, what="integer index")
                self.expect(lexer.OP, "]")
                expr = Index(expr, self.int_of(idx), self.pos(tok))
            elif tok.kind == lexer.OP and tok.text == "(":
                raise self.err("only 'nondet' and 'abs' may be called", tok)
            else:
                return expr
