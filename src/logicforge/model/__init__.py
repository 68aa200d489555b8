"""Constraint model: lowering, the integer IR, and solution decoding."""

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
    Scope,
    SelectorVar,
    Var,
    validate_model,
)
from .decode import SolutionTable, decode
from .lower import lower

__all__ = [
    "CAbs",
    "CBin",
    "CBool",
    "CCmp",
    "CElem",
    "CExpr",
    "CLit",
    "CVar",
    "ConstraintModel",
    "InstanceLayout",
    "Scope",
    "SelectorVar",
    "SolutionTable",
    "Var",
    "decode",
    "lower",
    "validate_model",
]
