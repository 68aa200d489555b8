"""Turn solver assignments into solution tables.

Rows are ordered by the single unique integer field when the result class has
one (the position field), otherwise by instance index. Cells are keyed by
(position value, column) so that two assignments that permute instances but
describe the same table compare equal.
"""

from __future__ import annotations

from ..errors import DecodeError
from ..records import Frozen
from .constraints import ConstraintModel

Cell = int | str


class SolutionTable(Frozen):
    def __init__(
        self,
        columns: tuple[str, ...],
        rows: tuple[dict[str, Cell], ...],
        position_field: str | None = None,
    ):
        vars(self).update(columns=columns, rows=rows, position_field=position_field)

    def row_key(self, index: int) -> Cell:
        if self.position_field is not None:
            return self.rows[index][self.position_field]
        return index

    def cells(self) -> dict[tuple[Cell, str], Cell]:
        """Cell map keyed by (row key, column), excluding the position column."""
        out: dict[tuple[Cell, str], Cell] = {}
        for i, row in enumerate(self.rows):
            key = self.row_key(i)
            for col in self.columns:
                if col != self.position_field:
                    out[(key, col)] = row[col]
        return out

    def key(self) -> tuple:
        """Canonical hashable identity, independent of row storage order."""
        return (
            self.columns,
            self.position_field,
            tuple(
                tuple(row[c] for c in self.columns)
                for row in sorted(self.rows, key=self._sort_key)
            ),
        )

    def _sort_key(self, row: dict[str, Cell]):
        if self.position_field is not None:
            return row[self.position_field]
        return 0  # storage order already meaningful

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SolutionTable):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def to_json_dict(self) -> dict:
        d = {"columns": list(self.columns), "rows": [dict(r) for r in self.rows]}
        if self.position_field is not None:
            d["position_field"] = self.position_field
        return d

    @staticmethod
    def from_json_dict(d: dict) -> "SolutionTable":
        columns, rows = json_columns(d["columns"]), tuple(dict(r) for r in d["rows"])
        if any(c not in row for row in rows for c in columns):
            raise ValueError(f"a row lacks one of the columns {list(columns)}")
        position = d.get("position_field")
        if position is not None and position not in columns:
            raise ValueError(f"position field {position!r} is not a column")
        return SolutionTable(columns, rows, position)


def json_columns(value) -> tuple[str, ...]:
    """A JSON list of column names; raises ValueError for anything else."""
    if not isinstance(value, list) or not all(isinstance(c, str) for c in value):
        raise ValueError(f"columns must be a list of strings, not {value!r}")
    return tuple(value)


def decode(model: ConstraintModel, assignment: dict[int, int]) -> SolutionTable:
    """Decode a total assignment over model.vars into a SolutionTable."""
    layout = model.layout
    rows = []
    for row in layout.rows:
        cells: dict[str, Cell] = {}
        for col in layout.columns:
            vid = row[col]
            if vid not in assignment:
                raise DecodeError(f"assignment is missing var {vid} ({model.vars[vid].name})")
            cells[col] = model.vars[vid].render(assignment[vid])
        rows.append(cells)
    if layout.position_field is not None:
        rows.sort(key=lambda r: r[layout.position_field])
    return SolutionTable(layout.columns, tuple(rows), layout.position_field)

