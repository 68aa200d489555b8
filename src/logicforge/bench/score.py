"""Accuracy metrics: exact-table puzzle accuracy and per-cell accuracy.

Cells are keyed by (position value, feature name), so row ordering never
penalises correct content. A task with no predicted table contributes zero
correct cells but its full cell count to the denominator.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import GenerationError, LogicForgeError
from ..model.decode import SolutionTable

EASY_SHAPES = frozenset({(2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3)})
HARD_SHAPES = frozenset(
    (e, f) for e in range(3, 7) for f in range(2, 7) if (e, f) not in EASY_SHAPES
)


class EmptyInput(LogicForgeError):
    pass


def classify_shape(n_entities: int, n_features: int) -> str:
    if (n_entities, n_features) in EASY_SHAPES:
        return "easy"
    return "hard"


def parse_size(size: str) -> tuple[int, int]:
    """``"NxM"`` as (entities N, features M)."""
    parts = size.lower().split("x")
    try:
        entities, feats = map(int, parts)
    except ValueError:
        raise GenerationError(f"size {size!r} is not of the form NxM, e.g. 4x4") from None
    return entities, feats


@dataclass(frozen=True)
class TaskResult:
    task_id: str
    size: str
    status: str
    truth: SolutionTable
    predicted: SolutionTable | None = None
    attempts: int = 0
    elapsed: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "task_id": self.task_id,
            "size": self.size,
            "status": self.status,
            "attempts": self.attempts,
            "elapsed": self.elapsed,
            "predicted": self.predicted.to_json_dict() if self.predicted else None,
        }


@dataclass
class SplitScore:
    count: int = 0
    puzzles_correct: int = 0
    cells_correct: int = 0
    cells_total: int = 0

    @property
    def puzzle_accuracy(self) -> float:
        return self.puzzles_correct / self.count if self.count else 0.0

    @property
    def cell_accuracy(self) -> float:
        return self.cells_correct / self.cells_total if self.cells_total else 0.0

    def to_json_dict(self) -> dict:
        return {
            "count": self.count,
            "puzzle_accuracy": self.puzzle_accuracy,
            "cell_accuracy": self.cell_accuracy,
        }


@dataclass
class EvalReport:
    results: list[TaskResult]
    overall: SplitScore
    easy: SplitScore
    hard: SplitScore
    status_counts: dict[str, int]
    wall_clock: float = 0.0

    @property
    def puzzle_accuracy(self) -> float:
        return self.overall.puzzle_accuracy

    @property
    def cell_accuracy(self) -> float:
        return self.overall.cell_accuracy

    def to_json_dict(self, include_wall_clock: bool = True) -> dict:
        d = {
            "tasks": self.overall.count,
            "puzzle_accuracy": self.puzzle_accuracy,
            "cell_accuracy": self.cell_accuracy,
            "easy": self.easy.to_json_dict(),
            "hard": self.hard.to_json_dict(),
            "status_counts": dict(sorted(self.status_counts.items())),
        }
        if include_wall_clock:
            d["wall_clock"] = self.wall_clock
        return d


def score(results: list[TaskResult]) -> EvalReport:
    if not results:
        raise EmptyInput("no task results to score")
    overall, easy, hard = SplitScore(), SplitScore(), SplitScore()
    status_counts: dict[str, int] = {}
    for r in results:
        status_counts[r.status] = status_counts.get(r.status, 0) + 1
        truth_cells = r.truth.cells()
        total = len(truth_cells)
        if r.predicted is not None:
            predicted_cells = r.predicted.cells()
            correct = sum(
                1 for key, value in truth_cells.items() if predicted_cells.get(key) == value
            )
            exact = r.predicted == r.truth
        else:
            correct = 0
            exact = False
        shape = classify_shape(*parse_size(r.size))
        for split in (overall, easy if shape == "easy" else hard):
            split.count += 1
            split.puzzles_correct += 1 if exact else 0
            split.cells_correct += correct
            split.cells_total += total
    return EvalReport(results, overall, easy, hard, status_counts)
