"""Logic-grid puzzle instances and the seeded generator.

A puzzle assigns one value per feature to each of n positions ("houses",
numbered 1..n left to right). The generator draws a random ground-truth
table, samples clues that are true of it, extends the set until the solution
is provably unique, then greedily drops clues that uniqueness does not need.
The candidate program is built as a DSL syntax tree, checked and lowered
once, its solver model is built once, and its constraint list is cut into
one index range per clue. A uniqueness check switches the chosen clues'
constraints on and the others off (a ``ModelView``), and runs one
second-solution search against the truth table. Each check's view is
derived (``ModelView.plus``) from a view of clues it shares with other
checks, so its search starts from that view's root fixpoint and propagates
only the clues it adds: in the grow phase, the previous check's view; in the
drop phase, the view of the clues not yet tried. A final solve over a plain
view confirms that the kept clues accept their own truth, so every emitted
instance is solvable and unambiguous.

The generator also keeps the tables other than the truth that it already
knows: the truth's single swaps (two positions' values of one feature
exchanged) and each second table a search returned. Each is stored once as
a bitmask of the candidate clues it breaks. A check whose clues a known
table all satisfies is answered "ambiguous" without a search, as in model
rotation for minimal unsatisfiable subsets (Marques-Silva and Lynce, SAT
2011). A "unique" verdict is always a search.
"""

from __future__ import annotations

import itertools
import random

from ..errors import BudgetExceeded, GenerationError
from ..frontend.check import check
from ..frontend.parser import parse  # noqa: F401 - uncalled; the perfbench tracer wraps it
from ..model.decode import SolutionTable, decode
from ..model.lower import lower
from ..records import Frozen
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


class Clue(Frozen):
    def __init__(
        self,
        kind: str,
        feat_a: str,
        value_a: str,
        feat_b: str | None = None,  # None for positional clues
        value_b: str | None = None,
        pos: int | None = None,  # 1-based house number for positional clues
    ):
        vars(self).update(kind=kind, feat_a=feat_a, value_a=value_a)
        vars(self).update(feat_b=feat_b, value_b=value_b, pos=pos)

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


class Feature(Frozen):
    def __init__(self, name: str, values: tuple[str, ...]):
        vars(self).update(name=name, values=values)


class PuzzleInstance(Frozen):
    def __init__(
        self,
        id: str,
        n_entities: int,
        n_features: int,
        features: tuple[Feature, ...],
        clues: tuple[Clue, ...],
        text: str,
        truth: SolutionTable,
    ):
        vars(self).update(id=id, n_entities=n_entities, n_features=n_features, features=features)
        vars(self).update(clues=clues, text=text, truth=truth)

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


def _violated(clues: list[Clue], table: dict[str, tuple[str, ...]], n: int) -> int:
    """The bitmask of the clues that are false of a table: bit k for
    ``clues[k]``."""
    return sum(1 << k for k, clue in enumerate(clues) if not clue_holds(clue, table, n))


def _swaps(
    clues: list[Clue], truth: dict[str, tuple[str, ...]], n: int
) -> list[tuple[dict[str, tuple[str, ...]], int]]:
    """Each single swap of the truth, the values at two positions of one
    feature exchanged, with the bitmask of the clues it breaks. A swap moves
    only the two values it exchanges, so only the clues that name one of
    them are read again; every other clue keeps its bit of the truth's own
    mask, which is not empty when a candidate is false of the truth."""
    truth_mask = _violated(clues, truth, n)
    naming: dict[tuple[str, str], list[int]] = {}
    for k, clue in enumerate(clues):
        naming.setdefault((clue.feat_a, clue.value_a), []).append(k)
        if clue.feat_b is not None:
            naming.setdefault((clue.feat_b, clue.value_b), []).append(k)
    swaps = []
    for feat, values in truth.items():
        for i, j in itertools.combinations(range(n), 2):
            column = list(values)
            column[i], column[j] = values[j], values[i]
            table = {**truth, feat: tuple(column)}
            mask = truth_mask
            for k in {*naming.get((feat, values[i]), ()), *naming.get((feat, values[j]), ())}:
                if clue_holds(clues[k], table, n):
                    mask &= ~(1 << k)
                else:
                    mask |= 1 << k
            swaps.append((table, mask))
    return swaps


def check_shape(n_entities: int, n_features: int) -> None:
    """Refuse a shape the generator does not make."""
    if not (2 <= n_entities <= 6 and 2 <= n_features <= 6):
        raise GenerationError(
            f"unsupported shape {n_entities}x{n_features}: entities and features must be in 2..6"
        )


def generate_puzzle(
    seed: int | str,
    n_entities: int,
    n_features: int,
    puzzle_id: str | None = None,
    budget: Budget | None = None,
) -> PuzzleInstance:
    """Deterministically generate a puzzle with a certified-unique solution.

    ``budget`` bounds each uniqueness check's search, and the final solve."""
    check_shape(n_entities, n_features)
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

    from .render import render_text  # late import: render depends on this module

    head = (puzzle_id or f"{n_entities}x{n_features}-{seed}", n_entities, n_features, features)
    text = render_text(PuzzleInstance(*head, tuple(clues), "", truth_table))
    return PuzzleInstance(*head, tuple(clues), text, truth_table)


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
    """Check and lower the program of every candidate clue once, build its
    solver model once, and cut its constraint list into one index range per
    clue, as the program builder counts them."""
    from .render import build_program  # late import: render depends on this module

    program, ends = build_program(features, clues, n)
    model = lower(check(program))
    slices = [range(start, end) for start, end in zip([0] + ends, ends)]
    return CompiledModel(model), slices


def _view(compiled: CompiledModel, slices: list[range], indices) -> ModelView:
    """The candidate model with only the given clues' constraints on."""
    return compiled.view(i for clue in indices for i in slices[clue])


def _known_second(known: set[int], checked: int) -> bool:
    """Whether some known table, given by the bitmask of the clues it
    breaks, satisfies every clue in the bitmask ``checked``."""
    return any(not mask & checked for mask in known)


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

    The candidates are compiled once. A uniqueness check is "ambiguous"
    without a search when a known table satisfies each of its clues: one of
    the truth's single swaps, or a second table an earlier check found.
    In the drop phase such a table breaks only the clue being dropped, so
    that clue is kept; in the grow phase it breaks none of the clues so far,
    so the next pin is added. Any other check is one ``find_second`` over a
    view of that one compiled model with the chosen clues' constraints on,
    and every "unique" verdict comes from one. The grow phase derives each
    view from the one before with the next pin added. The drop phase tries
    the clues in ``order`` against the suffix views ``S_p``, the clues
    ``order[p:]`` on, each derived from ``S_{p+1}`` and ``S_n`` the empty
    view: the check of ``order[p]`` is ``S_{p+1}`` plus the clues kept among
    ``order[:p]``. The final ``solve`` confirms the kept clues accept their
    own truth."""
    relational = [c for c in candidates if c.kind != AT_POSITION]
    pins = [c for c in candidates if c.kind == AT_POSITION]
    rng.shuffle(relational)
    rng.shuffle(pins)
    selected = relational + pins
    compiled, slices = _compile_candidates(features, selected, n)

    def columns(table: SolutionTable) -> dict[str, tuple[str, ...]]:
        return {f.name: tuple(row[f.name] for row in table.rows) for f in features}

    known = {mask for _, mask in _swaps(selected, columns(truth), n)}

    def is_unique(indices, view: ModelView) -> bool:
        checked = sum(1 << k for k in indices)
        if _known_second(known, checked):
            return False
        report = find_second(view, truth, budget)
        if report.ambiguous:
            known.add(_violated(selected, columns(report.second), n))
        return not report.ambiguous

    try:
        # grow until unique: all relational clues first, then pins one by
        # one, each view derived from the one before
        size = len(relational)
        grown = _view(compiled, slices, range(size))
        while not is_unique(range(size), grown):
            if size == len(selected):
                raise GenerationError("could not certify uniqueness even with all pins")
            grown = grown.plus(slices[size])
            size += 1

        # greedily drop what uniqueness does not need (locally minimal, not
        # global); suffixes[p] has the clues order[p:] on, and the check of
        # order[p] is derived from suffixes[p + 1]
        order = list(range(size))
        rng.shuffle(order)
        suffixes = [compiled.view(())]
        for idx in reversed(order):
            suffixes.append(suffixes[-1].plus(slices[idx]))
        suffixes.reverse()
        kept = set(order)
        for p, idx in enumerate(order):
            if len(kept) == 1:
                break
            earlier = [i for k in order[:p] if k in kept for i in slices[k]]
            if is_unique(kept - {idx}, suffixes[p + 1].plus(earlier)):
                kept.remove(idx)
        outcome = solve(_view(compiled, slices, kept), budget)
    except BudgetExceeded as exc:
        raise GenerationError(f"uniqueness check exceeded the solver budget: {exc}")
    if not outcome.is_sat or decode(compiled.model, outcome.assignment) != truth:
        raise GenerationError("sampled clues rejected their own truth table")
    result = [selected[i] for i in sorted(kept)]
    rng.shuffle(result)
    return result
