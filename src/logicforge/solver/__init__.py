"""Native finite-domain constraint solver plus the brute-force test oracle."""

from .brute import brute_force
from .engine import (
    AmbiguityReport,
    Budget,
    SolveOutcome,
    SolveStats,
    Status,
    eval_cexpr,
    find_second,
    solve,
    verify,
)

__all__ = [
    "AmbiguityReport",
    "Budget",
    "SolveOutcome",
    "SolveStats",
    "Status",
    "brute_force",
    "eval_cexpr",
    "find_second",
    "solve",
    "verify",
]
