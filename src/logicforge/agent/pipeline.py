"""The solving pipeline: formalize, compile, solve, format, with retries.

A formalizer (LLM-backed, deterministic, or a test fake) produces DSL source
in two steps: the result data structure, then the constraint validator. Any
failure along an attempt -- unparseable source, a semantic error, an
unsatisfiable model, a blown solver budget, or (when enabled) a detected
second solution -- abandons the attempt and restarts from the data-structure
step with no feedback to the formalizer.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field as dc_field
from enum import Enum
from typing import Protocol

from ..errors import (
    BudgetExceeded,
    DslSyntaxError,
    ExtractionError,
    FormatError,
    LogicForgeError,
    SemanticError,
    TransportError,
)
from ..frontend.check import check
from ..frontend.parser import SourceText, parse
from ..model.decode import SolutionTable, decode
from ..model.lower import lower
from ..solver.engine import Budget, compile_model, find_second, solve

log = logging.getLogger(__name__)


class Formalizer(Protocol):
    """Turns puzzle prose into DSL source, in two steps."""

    def gen_data_structure(self, puzzle_text: str, expected_format: "ExpectedFormat") -> SourceText:
        ...

    def gen_constraints(self, data_structure_source: SourceText, puzzle_text: str) -> SourceText:
        ...


@dataclass(frozen=True)
class ExpectedFormat:
    """Output column order; ``position`` optionally renames the position
    column of the decoded table in the formatted document."""

    columns: tuple[str, ...]
    position: str | None = None

    def to_json_dict(self) -> dict:
        d: dict = {"columns": list(self.columns)}
        if self.position is not None:
            d["position"] = self.position
        return d

    @staticmethod
    def from_json_dict(d: dict) -> "ExpectedFormat":
        return ExpectedFormat(tuple(d["columns"]), d.get("position"))


@dataclass(frozen=True)
class PipelineConfig:
    max_attempts: int = 5
    budget: Budget = dc_field(default_factory=Budget)
    ambiguity_check: bool = False

    def __post_init__(self):
        if self.max_attempts < 1:
            raise LogicForgeError(f"max_attempts must be at least 1, not {self.max_attempts}")


class PipelineStatus(Enum):
    SOLVED = "Solved"
    FAILED_FORMALIZE = "FailedFormalize"  # no program: transport or extraction failed
    FAILED_SYNTAX = "FailedSyntax"
    FAILED_SEMANTIC = "FailedSemantic"
    FAILED_UNSAT = "FailedUnsat"
    FAILED_BUDGET = "FailedBudget"
    FAILED_AMBIGUOUS = "FailedAmbiguous"


@dataclass
class PipelineResult:
    status: PipelineStatus
    attempts: int
    solution: SolutionTable | None
    formatted: dict | None
    log: list[tuple[str, str]]  # one (stage, summary) per attempt

    def to_json_dict(self) -> dict:
        return {
            "status": self.status.value,
            "attempts": self.attempts,
            "solution": self.solution.to_json_dict() if self.solution else None,
            "formatted": self.formatted,
            "log": [list(entry) for entry in self.log],
        }


class _AttemptFailed(Exception):
    def __init__(self, stage: str, status: PipelineStatus, summary: str):
        super().__init__(summary)
        self.stage = stage
        self.status = status
        self.summary = summary


def run_pipeline(
    puzzle_text: str,
    expected_format: ExpectedFormat,
    formalizer: Formalizer,
    config: PipelineConfig | None = None,
) -> PipelineResult:
    if not puzzle_text.strip():
        raise ValueError("puzzle text must be non-empty")
    config = config or PipelineConfig()
    attempt_log: list[tuple[str, str]] = []
    status = PipelineStatus.FAILED_SYNTAX
    for attempt in range(1, config.max_attempts + 1):
        try:
            table, formatted = _run_attempt(
                puzzle_text, expected_format, formalizer, config, attempt
            )
        except _AttemptFailed as failed:
            attempt_log.append((failed.stage, failed.summary))
            status = failed.status
            log.debug("attempt %d failed at %s: %s", attempt, failed.stage, failed.summary)
            continue
        attempt_log.append(("solved", ""))
        return PipelineResult(PipelineStatus.SOLVED, attempt, table, formatted, attempt_log)
    return PipelineResult(status, config.max_attempts, None, None, attempt_log)


def _run_attempt(
    puzzle_text: str,
    expected_format: ExpectedFormat,
    formalizer: Formalizer,
    config: PipelineConfig,
    attempt: int,
) -> tuple[SolutionTable, dict]:
    origin = f"formalizer attempt #{attempt}"
    try:
        data_structure = formalizer.gen_data_structure(puzzle_text, expected_format)
        constraints = formalizer.gen_constraints(data_structure, puzzle_text)
    except (TransportError, ExtractionError) as exc:
        raise _AttemptFailed("formalize", PipelineStatus.FAILED_FORMALIZE, str(exc))

    source = SourceText(data_structure.text + "\n" + constraints.text, origin)
    try:
        program = check(parse(source), origin)
    except DslSyntaxError as exc:
        raise _AttemptFailed("parse", PipelineStatus.FAILED_SYNTAX, exc.diagnostic())
    except SemanticError as exc:
        raise _AttemptFailed("check", PipelineStatus.FAILED_SEMANTIC, exc.diagnostic())

    model = lower(program)
    view = compile_model(model)  # one solver build for solve and find_second
    try:
        outcome = solve(view, config.budget)
    except BudgetExceeded as exc:
        raise _AttemptFailed("solve", PipelineStatus.FAILED_BUDGET, str(exc))
    if not outcome.is_sat:
        raise _AttemptFailed("solve", PipelineStatus.FAILED_UNSAT, "constraints are unsatisfiable")

    assert outcome.assignment is not None
    if config.ambiguity_check:
        # one budget per attempt: the ambiguity search gets what solve left
        try:
            report = find_second(view, outcome.assignment, config.budget.after(outcome.stats))
        except BudgetExceeded as exc:
            raise _AttemptFailed("ambiguity", PipelineStatus.FAILED_BUDGET, str(exc))
        if report.ambiguous:
            raise _AttemptFailed(
                "ambiguity", PipelineStatus.FAILED_AMBIGUOUS, "a second solution table exists"
            )

    table = decode(model, outcome.assignment)
    try:
        formatted = format_output(table, expected_format)
    except FormatError as exc:
        raise _AttemptFailed("format", PipelineStatus.FAILED_SEMANTIC, str(exc))
    return table, formatted


def format_output(table: SolutionTable, expected_format: ExpectedFormat) -> dict:
    """Render a table as ``{"rows": [{column: value, ...}, ...]}`` with rows
    in position order and columns per the descriptor."""
    rows = []
    for i in range(len(table.rows)):
        row = table.rows[i]
        out: dict[str, int | str] = {}
        for col in expected_format.columns:
            if col == expected_format.position and table.position_field is not None:
                out[col] = row[table.position_field]
            elif col in row:
                out[col] = row[col]
            else:
                raise FormatError(f"table has no column {col!r}")
        rows.append(out)
    return {"rows": rows}
