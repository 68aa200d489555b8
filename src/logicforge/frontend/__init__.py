"""Frontend: parsing (Python's own parser plus a converter to the DSL AST),
pretty-printing, and semantic checking."""

from .ast import DslProgram
from .check import CheckedProgram, check
from .parser import SourceText, parse
from .pretty import pretty

__all__ = ["DslProgram", "CheckedProgram", "SourceText", "check", "parse", "pretty"]
