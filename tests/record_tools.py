"""The one record tool that only tests use: a copy with some fields changed."""

from __future__ import annotations

from logicforge.records import Record


def replace(record: Record, **changes) -> Record:
    """A new record of ``record``'s class with ``changes`` to some of its
    fields and every other field, ``pos`` included, as it is."""
    fields = {name: getattr(record, name) for name in record._fields}
    return type(record)(**{**fields, **changes})
