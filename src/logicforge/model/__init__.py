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
    SelectorVar,
    Var,
    dump_model,
    validate_model,
)
from .decode import SolutionTable, decode, encode
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
    "SelectorVar",
    "SolutionTable",
    "Var",
    "decode",
    "dump_model",
    "encode",
    "lower",
    "validate_model",
]
