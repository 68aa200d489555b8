"""Logic-grid puzzle instances and the seeded generator.

A puzzle assigns one value per feature to each of n positions ("houses",
numbered 1..n left to right). The generator draws a random ground-truth
table, samples clues that are true of it, extends the set until the solution
is provably unique, then greedily drops clues that uniqueness does not need.
The candidate program is rendered, parsed, checked and lowered once, its
solver model is built once, and its constraint list is cut into one index
range per clue. A uniqueness check switches the chosen clues' constraints on
and the others off (a ``ModelView``), and runs one second-solution search
against the truth table. A final solve over the same kind of view confirms
that the kept clues accept their own truth, so every emitted instance is
solvable and unambiguous.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from ..errors import BudgetExceeded, GenerationError, InternalError
from ..frontend.check import check
from ..frontend.parser import parse
from ..model.decode import SolutionTable, decode, encode
from ..model.lower import lower
from ..solver.engine import Budget, CompiledModel, ModelView, find_second, solve

POSITION_FIELD = "house_number"

# Six feature pools with six values each; a puzzle of f features uses the
# first n values of f pools. All values lowercase by convention.
FEATURE_POOLS: dict[str, tuple[str, ...]] = {
    "name": ("alice", "eric", "arnold", "peter", "carol", "bob"),
    "occupation": ("artist", "engineer", "teacher", "doctor", "nurse", "lawyer"),
    "book": ("fantasy", "science fiction", "mystery", "romance", "biography", "horror"),
    "phone": (
        "google pixel 6",
        "iphone 13",
        "oneplus 9",
        "samsung galaxy s21",
        "xiaomi mi 11",
        "huawei p50",
    ),
    "smoothie": ("watermelon", "blueberry", "cherry", "dragonfruit", "lime", "desert"),
    "lunch": ("stew", "pizza", "grilled cheese", "stir fry", "soup", "spaghetti"),
}

SAME_PERSON = "same_person"
AT_POSITION = "at_position"
NOT_AT_POSITION = "not_at_position"
DIRECTLY_LEFT = "directly_left"
LEFT_OF = "left_of"
NEXT_TO = "next_to"

CLUE_KINDS = (SAME_PERSON, AT_POSITION, NOT_AT_POSITION, DIRECTLY_LEFT, LEFT_OF, NEXT_TO)


@dataclass(frozen=True)
class Clue:
    kind: str
    feat_a: str
    value_a: str
    feat_b: str | None = None  # None for positional clues
    value_b: str | None = None
    pos: int | None = None  # 1-based house number for positional clues

    def to_json_dict(self) -> dict:
        d: dict = {"kind": self.kind, "feat_a": self.feat_a, "value_a": self.value_a}
        if self.feat_b is not None:
            d["feat_b"] = self.feat_b
            d["value_b"] = self.value_b
        if self.pos is not None:
            d["pos"] = self.pos
        return d

    @staticmethod
    def from_json_dict(d: dict) -> "Clue":
        return Clue(
            d["kind"], d["feat_a"], d["value_a"], d.get("feat_b"), d.get("value_b"), d.get("pos")
        )


@dataclass(frozen=True)
class Feature:
    name: str
    values: tuple[str, ...]


@dataclass(frozen=True)
class PuzzleInstance:
    id: str
    n_entities: int
    n_features: int
    features: tuple[Feature, ...]
    clues: tuple[Clue, ...]
    text: str
    truth: SolutionTable

    @property
    def size(self) -> str:
        return f"{self.n_entities}x{self.n_features}"

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "n_entities": self.n_entities,
            "n_features": self.n_features,
            "features": [{"name": f.name, "values": list(f.values)} for f in self.features],
            "clues": [c.to_json_dict() for c in self.clues],
            "text": self.text,
            "truth": self.truth.to_json_dict(),
        }

    @staticmethod
    def from_json_dict(d: dict) -> "PuzzleInstance":
        return PuzzleInstance(
            d["id"],
            d["n_entities"],
            d["n_features"],
            tuple(Feature(f["name"], tuple(f["values"])) for f in d["features"]),
            tuple(Clue.from_json_dict(c) for c in d["clues"]),
            d["text"],
            SolutionTable.from_json_dict(d["truth"]),
        )


def clue_holds(clue: Clue, truth: dict[str, tuple[str, ...]], n: int) -> bool:
    """Whether a clue is true of a ground-truth table (feature -> values by
    position index 0..n-1)."""

    def pos_of(feat: str, value: str) -> int:
        return truth[feat].index(value)

    a = pos_of(clue.feat_a, clue.value_a)
    if clue.kind == SAME_PERSON:
        return a == pos_of(clue.feat_b, clue.value_b)
    if clue.kind == AT_POSITION:
        return a == clue.pos - 1
    if clue.kind == NOT_AT_POSITION:
        return a != clue.pos - 1
    b = pos_of(clue.feat_b, clue.value_b)
    if clue.kind == DIRECTLY_LEFT:
        return a == b - 1
    if clue.kind == LEFT_OF:
        return a < b
    assert clue.kind == NEXT_TO
    return abs(a - b) == 1


def generate_puzzle(
    seed: int | str,
    n_entities: int,
    n_features: int,
    puzzle_id: str | None = None,
    budget: Budget | None = None,
) -> PuzzleInstance:
    """Deterministically generate a puzzle with a certified-unique solution.

    ``budget`` bounds each uniqueness check's search, and the final solve."""
    if not (2 <= n_entities <= 6 and 2 <= n_features <= 6):
        raise GenerationError(
            f"unsupported shape {n_entities}x{n_features}: entities and features must be in 2..6"
        )
    rng = random.Random(f"logicforge:{seed}:{n_entities}x{n_features}")
    budget = budget or Budget()

    pool_names = list(FEATURE_POOLS)
    features = tuple(
        Feature(name, FEATURE_POOLS[name][:n_entities]) for name in pool_names[:n_features]
    )
    truth: dict[str, tuple[str, ...]] = {}
    for f in features:
        values = list(f.values)
        rng.shuffle(values)
        truth[f.name] = tuple(values)

    truth_table = _truth_table(features, truth, n_entities)
    candidates = _sample_candidates(rng, features, truth, n_entities)
    clues = _minimal_unique_set(rng, candidates, features, truth_table, n_entities, budget)

    instance = PuzzleInstance(
        id=puzzle_id or f"{n_entities}x{n_features}-{seed}",
        n_entities=n_entities,
        n_features=n_features,
        features=features,
        clues=tuple(clues),
        text="",
        truth=truth_table,
    )
    from .render import render_text  # late import: render depends on this module

    return replace(instance, text=render_text(instance))


def _truth_table(
    features: tuple[Feature, ...], truth: dict[str, tuple[str, ...]], n: int
) -> SolutionTable:
    columns = (POSITION_FIELD,) + tuple(f.name for f in features)
    rows = tuple(
        {POSITION_FIELD: i + 1, **{f.name: truth[f.name][i] for f in features}}
        for i in range(n)
    )
    return SolutionTable(columns, rows, POSITION_FIELD)


def _sample_candidates(
    rng: random.Random,
    features: tuple[Feature, ...],
    truth: dict[str, tuple[str, ...]],
    n: int,
) -> list[Clue]:
    """Candidate clues true of the truth table, with a quota per clue kind."""
    feature_names = [f.name for f in features]

    def rand_feat(exclude: str | None = None) -> str:
        options = [f for f in feature_names if f != exclude]
        return rng.choice(options)

    candidates: list[Clue] = []
    # same-person links between two features of one entity
    for _ in range(2 * n):
        fa = rand_feat()
        fb = rand_feat(exclude=fa)
        i = rng.randrange(n)
        candidates.append(Clue(SAME_PERSON, fa, truth[fa][i], fb, truth[fb][i]))
    # relational clues over positions
    for _ in range(2 * n):
        fa, fb = rand_feat(), rand_feat()
        i = rng.randrange(n - 1)
        j = rng.randrange(i + 1, n)
        kind = rng.choice((DIRECTLY_LEFT, LEFT_OF, NEXT_TO))
        if kind == DIRECTLY_LEFT:
            j = i + 1
        if kind == NEXT_TO and rng.random() < 0.5:
            # next-to is symmetric; state it in either order
            candidates.append(Clue(NEXT_TO, fa, truth[fa][i + 1], fb, truth[fb][i]))
            continue
        if kind == NEXT_TO:
            j = i + 1
        candidates.append(Clue(kind, fa, truth[fa][i], fb, truth[fb][j]))
    # negative and positive position pins
    for _ in range(n):
        f = rand_feat()
        i = rng.randrange(n)
        wrong = rng.choice([p for p in range(n) if p != i])
        candidates.append(Clue(NOT_AT_POSITION, f, truth[f][i], pos=wrong + 1))
    for f in feature_names:
        for i in range(n):
            candidates.append(Clue(AT_POSITION, f, truth[f][i], pos=i + 1))

    assert all(clue_holds(c, truth, n) for c in candidates)
    # dedupe, keep first occurrence
    unique: dict[tuple, Clue] = {}
    for c in candidates:
        unique.setdefault((c.kind, c.feat_a, c.value_a, c.feat_b, c.value_b, c.pos), c)
    return list(unique.values())


def _compile_candidates(
    features: tuple[Feature, ...], clues: list[Clue], n: int
) -> tuple[CompiledModel, list[range]]:
    """Lower the program of every candidate clue once, build its solver model
    once, and cut its constraint list into one index range per clue:
    lowering emits one constraint per assume or assert, in program order."""
    from .render import clue_ends, render_instance_dsl  # late import: render depends on this module

    program = check(parse(render_instance_dsl(features, clues, n)))
    model = lower(program)
    ends = clue_ends(program.entry.body)
    slices = [range(start, end) for start, end in zip([0] + ends, ends)]
    if len(slices) != len(clues) or sum(map(len, slices)) != len(model.constraints):
        raise InternalError(f"{len(clues)} clues lowered into {len(slices)} assert slices")
    return CompiledModel(model), slices


def _view(compiled: CompiledModel, slices: list[range], indices) -> ModelView:
    """The candidate model with only the given clues' constraints on."""
    return compiled.view(i for clue in indices for i in slices[clue])


def _minimal_unique_set(
    rng: random.Random,
    candidates: list[Clue],
    features: tuple[Feature, ...],
    truth: SolutionTable,
    n: int,
    budget: Budget,
) -> list[Clue]:
    """A locally minimal set of candidate clues whose only solution is
    ``truth``, in shuffled order.

    The candidates are compiled once. Each uniqueness check is one
    ``find_second`` over a view of that one compiled model with the chosen
    clues' constraints on; the final ``solve`` confirms the kept clues
    accept their own truth."""
    relational = [c for c in candidates if c.kind != AT_POSITION]
    pins = [c for c in candidates if c.kind == AT_POSITION]
    rng.shuffle(relational)
    rng.shuffle(pins)
    selected = relational + pins
    compiled, slices = _compile_candidates(features, selected, n)
    first = encode(compiled.model, truth)

    def is_unique(indices) -> bool:
        return not find_second(_view(compiled, slices, indices), first, budget).ambiguous

    try:
        # grow until unique: all relational clues first, then pins one by one
        size = len(relational)
        while not is_unique(range(size)):
            if size == len(selected):
                raise GenerationError("could not certify uniqueness even with all pins")
            size += 1

        # greedily drop what uniqueness does not need (locally minimal, not global)
        order = list(range(size))
        rng.shuffle(order)
        kept = set(order)
        for idx in order:
            if len(kept) == 1:
                break
            if is_unique(kept - {idx}):
                kept.remove(idx)
        outcome = solve(_view(compiled, slices, kept), budget)
    except BudgetExceeded as exc:
        raise GenerationError(f"uniqueness check exceeded the solver budget: {exc}")
    if not outcome.is_sat or decode(compiled.model, outcome.assignment) != truth:
        raise GenerationError("sampled clues rejected their own truth table")
    result = [selected[i] for i in sorted(kept)]
    rng.shuffle(result)
    return result
