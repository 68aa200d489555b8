"""Shared fixtures: the 4x4 worked example as source text and as a
structured puzzle instance, plus compilation helpers. Under CI (the ``CI``
environment variable set), a failing hypothesis property prints the blob that
reproduces it."""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest
from hypothesis import settings

import logicforge
from logicforge.bench.puzzle import (
    AT_POSITION,
    DIRECTLY_LEFT,
    LEFT_OF,
    NOT_AT_POSITION,
    POSITION_FIELD,
    SAME_PERSON,
    Clue,
    Feature,
    PuzzleInstance,
    clue_holds,
)
from logicforge.bench.render import render_text
from logicforge.frontend import SourceText, check, parse
from logicforge.model import decode, lower
from logicforge.model.decode import SolutionTable

DATA_DIR = Path(__file__).parent / "data"

# every other setting is the active one's: hypothesis versions that load a
# "ci" profile of their own under CI keep it
settings.register_profile("ci", settings(), print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")

ZEBRA_FEATURES = (
    Feature("name", ("alice", "eric", "arnold", "peter")),
    Feature("occupation", ("artist", "engineer", "teacher", "doctor")),
    Feature("book", ("fantasy", "science fiction", "mystery", "romance")),
    Feature("phone", ("google pixel 6", "iphone 13", "oneplus 9", "samsung galaxy s21")),
)

# feature -> values by house position (houses 1..4 left to right)
ZEBRA_TRUTH = {
    "name": ("alice", "peter", "eric", "arnold"),
    "occupation": ("engineer", "artist", "teacher", "doctor"),
    "book": ("romance", "fantasy", "science fiction", "mystery"),
    "phone": ("google pixel 6", "samsung galaxy s21", "iphone 13", "oneplus 9"),
}

ZEBRA_CLUES = (
    Clue(DIRECTLY_LEFT, "occupation", "engineer", "phone", "samsung galaxy s21"),
    Clue(AT_POSITION, "book", "fantasy", pos=2),
    Clue(NOT_AT_POSITION, "name", "alice", pos=2),
    Clue(SAME_PERSON, "name", "eric", "occupation", "teacher"),
    Clue(SAME_PERSON, "phone", "samsung galaxy s21", "book", "fantasy"),
    Clue(SAME_PERSON, "phone", "iphone 13", "book", "science fiction"),
    Clue(LEFT_OF, "book", "science fiction", "phone", "oneplus 9"),
    Clue(SAME_PERSON, "phone", "oneplus 9", "name", "arnold"),
    Clue(SAME_PERSON, "occupation", "doctor", "book", "mystery"),
    Clue(SAME_PERSON, "phone", "iphone 13", "occupation", "teacher"),
)


def build_instance(
    puzzle_id: str,
    features: tuple[Feature, ...],
    clues: tuple[Clue, ...],
    truth: dict[str, tuple[str, ...]],
) -> PuzzleInstance:
    n = len(features[0].values)
    assert all(clue_holds(c, truth, n) for c in clues), "clue inconsistent with truth"
    columns = (POSITION_FIELD,) + tuple(f.name for f in features)
    rows = tuple(
        {POSITION_FIELD: i + 1, **{f.name: truth[f.name][i] for f in features}}
        for i in range(n)
    )
    table = SolutionTable(columns, rows, POSITION_FIELD)
    instance = PuzzleInstance(puzzle_id, n, len(features), features, clues, "", table)
    return PuzzleInstance(
        puzzle_id, n, len(features), features, clues, render_text(instance), table
    )


@pytest.fixture(scope="session")
def zebra_instance() -> PuzzleInstance:
    return build_instance("zebra-4x4", ZEBRA_FEATURES, ZEBRA_CLUES, ZEBRA_TRUTH)


@pytest.fixture(scope="session")
def zebra_source() -> SourceText:
    path = DATA_DIR / "zebra_4x4.lpy"
    return SourceText(path.read_text(encoding="utf-8"), str(path))


@pytest.fixture(scope="session")
def zebra_program(zebra_source):
    return check(parse(zebra_source), zebra_source.origin)


@pytest.fixture(scope="session")
def zebra_model(zebra_program):
    return lower(zebra_program)


def compile_source(text: str):
    """parse + check + lower in one step for inline test programs."""
    program = check(parse(SourceText(text, "<test>")), "<test>")
    return program, lower(program)


def nested_condition(local: str, levels: int) -> str:
    """An always-true condition on ``local.house_number`` whose expression
    tree is ``levels`` edges high (``levels`` >= 2): each ``not (... and``
    adds two levels, a ``not`` at the bottom one more."""
    pairs, extra = divmod(levels - 2, 2)
    field = f"{local}.house_number"
    return (
        f"not ({field} < 1 and " * pairs
        + (f"not {field} < 1" if extra else f"{field} > 0")
        + ")" * pairs
    )


def chained_condition(local: str, levels: int) -> str:
    """An always-true condition on ``local.house_number`` whose expression
    tree is ``levels`` edges high: a comparison over a left-deep sum, which
    the parser builds in a loop, one level per ``+``."""
    return f"{local}.house_number" + " + 0" * (levels - 2) + " > 0"


def lines_executed(function, *args) -> tuple[int, object]:
    """Line events in logicforge's own code during ``function(*args)``, and
    its result: a count of work that does not depend on the host's speed."""
    package = str(Path(logicforge.__file__).parent)
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(package) else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        result = function(*args)
    finally:
        sys.settrace(previous)
    return count, result
