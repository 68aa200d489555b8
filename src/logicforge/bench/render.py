"""Deterministic rendering of puzzle instances: DSL programs and prose.

The DSL builder doubles as the oracle formalizer, a stand-in for an LLM
that encodes every clue exactly. It builds the program as a DSL syntax tree
and ``pretty`` prints its text; string values are kept as the instance
stores them.
"""

from __future__ import annotations

from ..frontend.ast import (
    INT,
    STR,
    Abs,
    Assert,
    Assign,
    Assume,
    Binary,
    ClassDecl,
    Compare,
    DslProgram,
    EnumValues,
    FieldAccess,
    FieldDecl,
    FuncDecl,
    IntLit,
    IntRange,
    LocalRef,
    Nondet,
    Stmt,
    StrLit,
)
from ..frontend.parser import SourceText
from ..frontend.pretty import pretty
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

# subtrees every validator shares; no code mutates an AST node once built
_PARAM = "solution"
_ANY_ROW = Nondet(FieldAccess(LocalRef(_PARAM), LIST_FIELD))
_ONE = IntLit(1)


def _classes(features: tuple[Feature, ...], n: int) -> tuple[ClassDecl, ...]:
    fields = [FieldDecl(POSITION_FIELD, INT, True, IntRange(1, n + 1))]
    fields.extend(FieldDecl(f.name, STR, True, EnumValues(f.values)) for f in features)
    rows = FieldDecl(LIST_FIELD, ENTITY_CLASS, list_len=n)
    return ClassDecl(ENTITY_CLASS, tuple(fields)), ClassDecl(CONTAINER_CLASS, (rows,))


def _validator(clues: tuple[Clue, ...] | list[Clue]) -> tuple[FuncDecl, list[int]]:
    """The validator of the clues, and their ends as ``build_program`` gives them."""
    body: list[Stmt] = []
    ends: list[int] = []
    rows = 0  # rows selected so far, with one assume each

    def select(feat: str, value: str) -> LocalRef:
        """A row chosen by its value of ``feat``."""
        nonlocal rows
        rows += 1
        row = LocalRef(f"{feat.replace(' ', '_')}_{rows}")
        body.append(Assign(row.name, _ANY_ROW))
        body.append(Assume(Compare("==", FieldAccess(row, feat), StrLit(value))))
        return row

    for clue in clues:
        a = select(clue.feat_a, clue.value_a)
        a_pos = FieldAccess(a, POSITION_FIELD)
        if clue.kind == SAME_PERSON:
            holds = Compare("==", FieldAccess(a, clue.feat_b), StrLit(clue.value_b))
        elif clue.kind == AT_POSITION:
            holds = Compare("==", a_pos, IntLit(clue.pos))
        elif clue.kind == NOT_AT_POSITION:
            holds = Compare("!=", a_pos, IntLit(clue.pos))
        else:
            b_pos = FieldAccess(select(clue.feat_b, clue.value_b), POSITION_FIELD)
            if clue.kind == DIRECTLY_LEFT:
                holds = Compare("==", a_pos, Binary("-", b_pos, _ONE))
            elif clue.kind == LEFT_OF:
                holds = Compare("<", a_pos, b_pos)
            else:
                assert clue.kind == NEXT_TO
                holds = Compare("==", Abs(Binary("-", a_pos, b_pos)), _ONE)
        body.append(Assert(holds))
        ends.append(rows + len(ends) + 1)  # its assumes, the asserts before it and its own
    if not clues:
        # keep the program check-clean; constrains nothing
        anyone = LocalRef("anyone_1")
        body.append(Assign(anyone.name, _ANY_ROW))
        body.append(Assume(Compare(">=", FieldAccess(anyone, POSITION_FIELD), _ONE)))
    return FuncDecl("validate", _PARAM, CONTAINER_CLASS, tuple(body)), ends


def build_program(
    features: tuple[Feature, ...], clues: tuple[Clue, ...] | list[Clue], n: int
) -> tuple[DslProgram, list[int]]:
    """The oracle program of the clues, and for each clue the number of
    assumes and asserts up to and including its one assert: lowering emits
    one constraint per assume or assert, in program order."""
    validator, ends = _validator(clues)
    return DslProgram(_classes(features, n), (validator,)), ends


def render_data_structure(features: tuple[Feature, ...], n: int) -> SourceText:
    return SourceText(pretty(DslProgram(_classes(features, n), ())), "oracle:data_structure")


def render_constraints(clues: tuple[Clue, ...] | list[Clue]) -> SourceText:
    validator, _ = _validator(clues)
    return SourceText(pretty(DslProgram((), (validator,))), "oracle:constraints")


def render_instance_dsl(
    features: tuple[Feature, ...], clues, n: int
) -> SourceText:
    program, _ = build_program(features, clues, n)
    return SourceText(pretty(program), "oracle:program")


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
