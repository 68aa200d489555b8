"""Error types shared across the compiler, solver, and pipeline.

All user-facing compiler diagnostics render in the stable format
``origin:line:col: category: message`` so golden tests can pin them down.
"""

from __future__ import annotations


class LogicForgeError(Exception):
    """Base class for all errors raised by this package."""


class DslSyntaxError(LogicForgeError):
    """Malformed source: bad tokens, bad indentation, unsupported syntax."""

    def __init__(self, message: str, origin: str, line: int, col: int):
        super().__init__(message)
        self.message = message
        self.origin = origin
        self.line = line
        self.col = col

    def diagnostic(self) -> str:
        return f"{self.origin}:{self.line}:{self.col}: syntax: {self.message}"

    def __str__(self) -> str:
        return self.diagnostic()


# Categories a semantic error may carry (closed set).
SEMANTIC_CATEGORIES = frozenset(
    {
        "NoEntryFunction",
        "MultipleEntryFunctions",
        "UnknownName",
        "TypeMismatch",
        "ValueOutsideDomain",
        "BadNondetTarget",
        "UniqueWithoutDomain",
    }
)


class SemanticError(LogicForgeError):
    """A well-formed parse tree that violates the language's static rules."""

    def __init__(self, category: str, message: str, origin: str, line: int, col: int):
        assert category in SEMANTIC_CATEGORIES, category
        super().__init__(message)
        self.category = category
        self.message = message
        self.origin = origin
        self.line = line
        self.col = col

    def diagnostic(self) -> str:
        return f"{self.origin}:{self.line}:{self.col}: {self.category}: {self.message}"

    def __str__(self) -> str:
        return self.diagnostic()


class InternalError(LogicForgeError):
    """A bug: an invariant the frontend should have established does not hold."""


class DecodeError(LogicForgeError):
    """An assignment cannot be decoded into a solution table."""


class BudgetExceeded(LogicForgeError):
    """Solve gave up on a decision or wall-clock budget (distinct from Unsat)."""

    def __init__(self, message: str, decisions: int = 0, elapsed: float = 0.0):
        super().__init__(message)
        self.decisions = decisions
        self.elapsed = elapsed


class CapExceeded(LogicForgeError):
    """The brute-force enumeration bound would be violated."""


class ShapeError(LogicForgeError):
    """A candidate table does not match the shape of the program's result class."""


class FormatError(LogicForgeError):
    """The expected-format descriptor references a column the table lacks."""


class TransportError(LogicForgeError):
    """The chat-completion endpoint could not be reached or returned an error."""


class ExtractionError(LogicForgeError):
    """A model reply contained no fenced code block to extract."""


class GenerationError(LogicForgeError):
    """A puzzle with a certified-unique solution could not be produced."""


class DatasetError(LogicForgeError):
    """A dataset file could not be read or no line of it parsed."""


class SchemaError(LogicForgeError):
    """One dataset line does not match the task schema."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
        self.message = message
