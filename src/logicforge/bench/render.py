"""Deterministic rendering of puzzle instances: DSL source and prose.

The DSL renderer doubles as the oracle formalizer, a stand-in for an LLM
that encodes every clue exactly. All emitted string values are lowercase.
"""

from __future__ import annotations

from ..frontend.ast import Assert, Assume, Stmt
from ..frontend.parser import SourceText
from .puzzle import (
    AT_POSITION,
    DIRECTLY_LEFT,
    LEFT_OF,
    NEXT_TO,
    NOT_AT_POSITION,
    POSITION_FIELD,
    SAME_PERSON,
    Clue,
    Feature,
    PuzzleInstance,
)

ENTITY_CLASS = "House"
CONTAINER_CLASS = "PuzzleSolution"
LIST_FIELD = "houses"


def render_data_structure(features: tuple[Feature, ...], n: int) -> SourceText:
    lines = [f"class {ENTITY_CLASS}:"]
    lines.append(f"    {POSITION_FIELD}: Unique[Domain[int, range(1, {n + 1})]]")
    for f in features:
        values = ", ".join(f'"{v.lower()}"' for v in f.values)
        lines.append(f"    {f.name}: Unique[Domain[str, {values}]]")
    lines.append("")
    lines.append(f"class {CONTAINER_CLASS}:")
    lines.append(f"    {LIST_FIELD}: list[{ENTITY_CLASS}, {n}]")
    lines.append("")
    return SourceText("\n".join(lines), "oracle:data_structure")


def render_constraints(clues: tuple[Clue, ...] | list[Clue]) -> SourceText:
    lines = [f"def validate(solution: {CONTAINER_CLASS}) -> None:"]
    counter = 0

    def fresh(prefix: str) -> str:
        nonlocal counter
        counter += 1
        return f"{prefix}_{counter}"

    def select(feat: str, value: str) -> str:
        name = fresh(feat.replace(" ", "_"))
        lines.append(f"    {name} = nondet(solution.{LIST_FIELD})")
        lines.append(f'    assume({name}.{feat} == "{value.lower()}")')
        return name

    for clue in clues:
        a = select(clue.feat_a, clue.value_a)
        if clue.kind == SAME_PERSON:
            lines.append(f'    assert {a}.{clue.feat_b} == "{clue.value_b.lower()}"')
        elif clue.kind == AT_POSITION:
            lines.append(f"    assert {a}.{POSITION_FIELD} == {clue.pos}")
        elif clue.kind == NOT_AT_POSITION:
            lines.append(f"    assert {a}.{POSITION_FIELD} != {clue.pos}")
        else:
            b = select(clue.feat_b, clue.value_b)
            if clue.kind == DIRECTLY_LEFT:
                lines.append(
                    f"    assert {a}.{POSITION_FIELD} == {b}.{POSITION_FIELD} - 1"
                )
            elif clue.kind == LEFT_OF:
                lines.append(f"    assert {a}.{POSITION_FIELD} < {b}.{POSITION_FIELD}")
            else:
                assert clue.kind == NEXT_TO
                lines.append(
                    f"    assert abs({a}.{POSITION_FIELD} - {b}.{POSITION_FIELD}) == 1"
                )
    if not clues:
        # keep the program parseable and check-clean; constrains nothing
        name = fresh("anyone")
        lines.append(f"    {name} = nondet(solution.{LIST_FIELD})")
        lines.append(f"    assume({name}.{POSITION_FIELD} >= 1)")
    lines.append("")
    return SourceText("\n".join(lines), "oracle:constraints")


def clue_ends(body: tuple[Stmt, ...]) -> list[int]:
    """For a validator body rendered by ``render_constraints``, the number of
    assumes and asserts up to and including each clue's one assert."""
    conditions = [s for s in body if isinstance(s, (Assume, Assert))]
    return [i + 1 for i, s in enumerate(conditions) if isinstance(s, Assert)]


def render_instance_dsl(
    features: tuple[Feature, ...], clues, n: int
) -> SourceText:
    ds = render_data_structure(features, n)
    cs = render_constraints(clues)
    return SourceText(ds.text + "\n" + cs.text, "oracle:program")


def render_dsl(instance: PuzzleInstance) -> SourceText:
    """The oracle formalizer's full program for an instance."""
    return render_instance_dsl(instance.features, instance.clues, instance.n_entities)


class OracleFormalizer:
    """Exact two-step formalizer for one known instance; ignores the prose."""

    def __init__(self, instance: PuzzleInstance):
        self.instance = instance

    def gen_data_structure(self, puzzle_text: str, expected_format) -> SourceText:
        return render_data_structure(self.instance.features, self.instance.n_entities)

    def gen_constraints(self, data_structure_source: SourceText, puzzle_text: str) -> SourceText:
        return render_constraints(self.instance.clues)


# --- prose -----------------------------------------------------------------


def _subject(feat: str, value: str) -> str:
    if feat == "name":
        return value.capitalize()
    return f"the person whose {feat} is {value}"


def clue_text(clue: Clue) -> str:
    a = _subject(clue.feat_a, clue.value_a)
    if clue.kind == SAME_PERSON:
        return f"{a} is {_subject(clue.feat_b, clue.value_b)}."
    if clue.kind == AT_POSITION:
        return f"{a} is in house {clue.pos}."
    if clue.kind == NOT_AT_POSITION:
        return f"{a} is not in house {clue.pos}."
    b = _subject(clue.feat_b, clue.value_b)
    if clue.kind == DIRECTLY_LEFT:
        return f"{a} is directly left of {b}."
    if clue.kind == LEFT_OF:
        return f"{a} is somewhere to the left of {b}."
    assert clue.kind == NEXT_TO
    return f"{a} is next to {b}."


def render_text(instance: PuzzleInstance) -> str:
    n = instance.n_entities
    lines = [
        f"There are {n} houses, numbered 1 to {n} from left to right. "
        "Each house is occupied by a different person.",
        "Each house has a unique attribute for each characteristic:",
    ]
    for f in instance.features:
        lines.append(f"- {f.name}: {', '.join(f.values)}")
    lines.append("")
    lines.append("Clues:")
    for i, clue in enumerate(instance.clues, 1):
        text = clue_text(clue)
        lines.append(f"{i}. {text[0].upper()}{text[1:]}")
    return "\n".join(lines)
