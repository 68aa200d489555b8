"""Indentation-sensitive lexer for the search DSL.

Produces a flat token stream with explicit NEWLINE / INDENT / DEDENT tokens,
Python-style. Newlines inside brackets are implicit line joins, so a field
annotation may span several lines. Comments are discarded.
"""

from __future__ import annotations

from typing import NamedTuple

from ..errors import DslSyntaxError

# Token kinds
NAME = "NAME"
INT = "INT"
STRING = "STRING"
NEWLINE = "NEWLINE"
INDENT = "INDENT"
DEDENT = "DEDENT"
OP = "OP"
EOF = "EOF"

KEYWORDS = frozenset({"class", "def", "assert", "and", "or", "not", "None"})

# Two-character operators are tried before one-character ones.
_OPERATORS = frozenset(
    ("->", "==", "!=", "<=", ">=", "<", ">", "=", "+", "-", "*", "(", ")", "[", "]", ":", ",", ".")
)

_OPEN = {"(": ")", "[": "]"}
_CLOSE = {")": "(", "]": "["}


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


def tokenize(text: str, origin: str = "<string>") -> list[Token]:
    """Lex ``text`` into tokens, raising DslSyntaxError on malformed input."""
    tokens: list[Token] = []
    indents = [0]
    brackets: list[Token] = []
    lines = text.split("\n")
    line_no = 0

    def err(msg: str, line: int, col: int) -> DslSyntaxError:
        return DslSyntaxError(msg, origin, line, col)

    for raw in lines:
        line_no += 1
        if raw.endswith("\r"):  # tolerate CRLF input
            raw = raw[:-1]
        i = 0
        n = len(raw)

        if not brackets:
            # Measure indentation on a fresh logical line.
            while i < n and raw[i] == " ":
                i += 1
            if i < n and raw[i] == "\t":
                raise err("tab character in indentation", line_no, i + 1)
            if i >= n or raw[i] == "#":
                continue  # blank or comment-only line
            width = i
            if width > indents[-1]:
                indents.append(width)
                tokens.append(Token(INDENT, "", line_no, 1))
            else:
                while width < indents[-1]:
                    indents.pop()
                    tokens.append(Token(DEDENT, "", line_no, 1))
                if width != indents[-1]:
                    raise err("unindent does not match any outer level", line_no, i + 1)
        else:
            # Continuation line inside brackets: indentation is insignificant.
            while i < n and raw[i] in " \t":
                i += 1
            if i >= n or raw[i] == "#":
                continue

        produced = False
        while i < n:
            ch = raw[i]
            if ch == " " or ch == "\t":
                i += 1
                continue
            if ch == "#":
                break
            col = i + 1
            if ch.isdigit():
                j = i
                while j < n and raw[j].isdigit():
                    j += 1
                if j < n and (raw[j].isalpha() or raw[j] == "_"):
                    raise err(f"invalid number literal {raw[i:j + 1]!r}", line_no, col)
                tokens.append(Token(INT, raw[i:j], line_no, col))
                i = j
            elif ch.isalpha() or ch == "_":
                j = i
                while j < n and (raw[j].isalnum() or raw[j] == "_"):
                    j += 1
                tokens.append(Token(NAME, raw[i:j], line_no, col))
                i = j
            elif ch in ("'", '"'):
                quote = ch
                j = i + 1
                buf = []
                while True:
                    if j >= n:
                        raise err("unterminated string literal", line_no, col)
                    c = raw[j]
                    if c == "\\":
                        if j + 1 >= n:
                            raise err("unterminated string literal", line_no, col)
                        esc = raw[j + 1]
                        if esc in ("\\", "'", '"'):
                            buf.append(esc)
                        else:
                            raise err(f"unsupported escape \\{esc}", line_no, j + 1)
                        j += 2
                    elif c == quote:
                        j += 1
                        break
                    else:
                        buf.append(c)
                        j += 1
                tokens.append(Token(STRING, "".join(buf), line_no, col))
                i = j
            else:
                op = raw[i : i + 2]
                if op not in _OPERATORS:
                    op = ch
                if op not in _OPERATORS:
                    raise err(f"unexpected character {ch!r}", line_no, col)
                tok = Token(OP, op, line_no, col)
                if op in _OPEN:
                    brackets.append(tok)
                elif op in _CLOSE:
                    if not brackets or brackets[-1].text != _CLOSE[op]:
                        raise err(f"unmatched {op!r}", line_no, col)
                    brackets.pop()
                tokens.append(tok)
                i += len(op)
            produced = True

        if produced and not brackets:
            tokens.append(Token(NEWLINE, "", line_no, n + 1))

    if brackets:
        b = brackets[-1]
        raise err(f"unclosed {b.text!r} opened here", b.line, b.col)
    while len(indents) > 1:
        indents.pop()
        tokens.append(Token(DEDENT, "", line_no + 1, 1))
    tokens.append(Token(EOF, "", line_no + 1, 1))
    return tokens
