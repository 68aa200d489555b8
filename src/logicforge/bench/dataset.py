"""Task dataset files: one JSON object per line.

Schema per line: ``{"id", "size", "text", "format", "truth"}`` plus an
optional ``"instance"`` carrying the structured puzzle, which is what lets
the oracle formalizer run against a dataset. External benchmark formats can
be adapted by converting them to this schema.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from ..agent.pipeline import ExpectedFormat
from ..errors import DatasetError, GenerationError, SchemaError
from ..model.decode import SolutionTable
from .puzzle import POSITION_FIELD, PuzzleInstance
from .score import parse_size

_REQUIRED = ("id", "size", "text", "format", "truth")


@dataclass(frozen=True)
class PuzzleTask:
    id: str
    size: str
    text: str
    fmt: ExpectedFormat
    truth: SolutionTable
    instance: PuzzleInstance | None = None

    def to_json_dict(self) -> dict:
        d = {
            "id": self.id,
            "size": self.size,
            "text": self.text,
            "format": self.fmt.to_json_dict(),
            "truth": self.truth.to_json_dict(),
        }
        if self.instance is not None:
            d["instance"] = self.instance.to_json_dict()
        return d

    @staticmethod
    def from_json_dict(d: dict) -> "PuzzleTask":
        missing = [k for k in _REQUIRED if k not in d]
        if missing:
            raise ValueError(f"missing keys: {', '.join(missing)}")
        size = str(d["size"])
        try:
            parse_size(size)
        except GenerationError as exc:
            raise ValueError(str(exc)) from None
        return PuzzleTask(
            str(d["id"]),
            size,
            str(d["text"]),
            ExpectedFormat.from_json_dict(d["format"]),
            SolutionTable.from_json_dict(d["truth"]),
            PuzzleInstance.from_json_dict(d["instance"]) if "instance" in d else None,
        )


def task_from_instance(instance: PuzzleInstance) -> PuzzleTask:
    fmt = ExpectedFormat(
        (POSITION_FIELD,) + tuple(f.name for f in instance.features)
    )
    return PuzzleTask(
        instance.id, instance.size, instance.text, fmt, instance.truth, instance
    )


def load_dataset(path: str | Path) -> tuple[list[PuzzleTask], list[SchemaError]]:
    """Parse a JSONL dataset. Malformed lines are collected as SchemaErrors;
    raises DatasetError when the file is unreadable or no line parses."""
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    tasks: list[PuzzleTask] = []
    errors: list[SchemaError] = []
    n_lines = 0
    for line_no, line in enumerate(raw.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        n_lines += 1
        try:
            tasks.append(PuzzleTask.from_json_dict(json.loads(line)))
        except (ValueError, KeyError, TypeError) as exc:
            errors.append(SchemaError(str(exc), line_no))
    if n_lines and not tasks:
        raise DatasetError(f"no line of {path} matches the task schema")
    return tasks, errors


def save_dataset(tasks: list[PuzzleTask], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for task in tasks:
            fh.write(json.dumps(task.to_json_dict(), sort_keys=True) + "\n")
