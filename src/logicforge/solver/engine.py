"""Native finite-domain solver: backtracking search with propagation.

There is one search, depth-first over explicit domains with
minimum-remaining-values variable order (ties to the lowest id) and ascending
value order; selector variables are branched only after every regular
variable is fixed, only if some constraint references them, and only until
they complete a solution. ``solve`` takes its first solution. This makes
outcomes and decision counts fully deterministic, and a model with extra
unreferenced selectors searches exactly like the same model without them.

Each domain is one int bit mask: bit ``i`` is the value ``base + i``. A
selector's base is 0, so its bits are its values. A variable's base is the
lowest declared value among the variables it shares an elem table or an
all-different group with, so the masks that one propagator ORs together
share bit positions, and a mask is as wide as its variable's value range,
not as large as its values. The search state is the list of masks, so a
child state is a plain list copy, and membership, union and shift tests are
word operations.

A model is compiled once (``CompiledModel``): each constraint's propagator,
the watch lists, the mask bases and the declared masks. Each search runs over
a ``ModelView``, the compiled model with a subset of its constraints switched
on, as in solving under assumptions (Eén and Sörensson, SAT 2003): the
constraints that are off are never scheduled, and the selectors only they
reference are not branched. ``solve`` and ``find_second`` compile a
plain ``ConstraintModel`` with every constraint on (``compile_model``; the
pipeline calls it once per attempt and hands the view to both); the puzzle
generator compiles its candidate program once and switches clue slices per
check.

Propagation runs one work list of propagators, the all-different groups
first and then the constraints that are on, to a fixpoint. It is
event-driven (Schulte and Stuckey, TOPLAS 2008): a propagator watches the ids
it reads and prunes, and after a search decision only the watchers of the
decided id, and then of each id they narrow, run again. The parent state is
a fixpoint of every propagator, so one whose ids did not change would change
nothing. Each search state also carries one int mask of inert items, which
are never scheduled: the items that are off, and each dedicated propagator
whose last run left a state that entails it (Schulte and Stuckey's subsumed
propagators: ``E == L`` once its selector is fixed and its var is the
literal, ``E != L`` once its selector is fixed and its var lacks the literal,
a pair once both selectors and both vars are fixed, ``V1 < V2`` once
``max(V1) < min(V2)``, a group once every var is fixed). Such an item would
change nothing in the state's subtree; a child copies the mask, so
backtracking restores it. The items still run in the order of a full pass
over the work list followed by a FIFO queue, minus runs that change nothing,
so each removal, contradiction point and propagation count is that of the
full pass. The work list, the watch lists and the inert mask are int masks
with bit ``i`` for item ``i``. The propagators:

* three-valued constraint evaluation over possible-value sets detects
  contradictions and prunes, via singleton tests, both selector values whose
  implied element constraints cannot hold and values of directly referenced
  variables (bounds-and-membership filtering for comparisons and arithmetic);
* all-different groups remove assigned values from peers and apply
  Hall-interval reasoning over the value range, to intervals of fewer
  values than the group has vars (a wider one can prune nothing and cannot
  fail, so the pass is linear in the range, not quadratic).

A group's propagator reads and narrows only its group's masks, bit by bit,
so its run is a pure function of them, and the same in every model: every
var of a group has the same mask base (``_bases``), so the pass works on bit
positions alone and never reads a base, an id or any other var. One table
per process (``_GROUP_TABLE``) holds the runs of every model's groups, keyed
by the tuple of the group's masks: a lazy form of precomputed stateless
propagators (Gent, Jefferson, Linton, Miguel and Nightingale, "Generating
special-purpose stateless propagators for arbitrary constraints", CP 2010).
A miss runs the group pass and records the positions within the group of
the vars it narrowed, with their masks, the propagations it counted, and
whether it left the group entailed or failed; a hit replays the record, the
masks at a failure point included, so every state, count and contradiction
point is that of the plain run. Distinct
models meet the same group states: the generator's uniqueness checks, and
every program written for a puzzle of the same shape. The table starts
empty, is emptied when it reaches ``_GROUP_TABLE_CAP`` entries, and takes
only groups whose declared masks fit in ``_TABLED_MASK_BITS`` bits, so that
a program over ``range(0, 10**5)`` stores no huge keys for the life of the
process; a wider group, or one that names a var twice, runs its pass each
time.

The Hall-interval pass tests each var against an interval by the var's
lowest and highest value, kept as two small ints, and builds an interval's
mask only where the interval prunes, so its cost per interval does not grow
with the width of the masks. The time budget is read at each decision and
every ``_CLOCK_EVERY`` units of propagation work: an item run, or one
interval start of a Hall pass. So neither one propagation call nor one pass
over a wide group can outrun the budget by more than that.

The fixpoint of a root is unique (every propagator only narrows, and
removes at least as much from a narrower state), so it does not depend on
the order the items run in, nor does its removal count. The compiled model caches the fixpoint of the groups and the
row order on the declared domains, with its removal count and inert items,
and an ordered search (``find_second``'s) starts from a copy of it, where
only the active constraints are stale. A root that fails from there is
propagated again from the declared domains, so that the count stops where a
full pass fails.

The singleton tests of the generic evaluator re-walk the constraint tree once
per tested value. When the model is compiled, each constraint whose shape the
lowering or the row order of ``find_second`` emits gets a dedicated
propagator instead (E is ``elem(selector, table)``, L a literal, V a
variable):

* ``E == L`` and ``E != L``;
* ``E1 == E2 - L``, ``E1 < E2`` and ``abs(E1 - E2) == L`` over two distinct
  selectors, when the value sets stay within ``_SET_CAP`` so that the generic
  arithmetic is exact, and the literal shifts a mask by less than its width;
* ``V1 < V2`` over two distinct variables.

A dedicated propagator removes exactly the values the generic singleton tests
remove, in the same order, and fails in the same states, so fixpoints,
decision and propagation counts and assignments do not depend on which one
ran. Lowering writes each comparison one way, so a clue reaches them however
it is spelled. The generic evaluator, which converts masks to value sets at
its boundary, serves only shapes that neither emits (``and``, ``or``, ``<=``,
the same selector on both sides, wide arithmetic, ...).

Pruning only ever uses over-approximations of reachable values, so no value
belonging to a satisfying assignment is removed.

Uniqueness (``find_second``) is one depth-first search under one deadline: the
search of ``solve`` continued past each solution over the regular variables,
until a solution decodes to a table other than the first one. When rows are
interchangeable under the constraints that are on and carry a unique position
field, the search also orders consecutive rows by position (a lexicographic
symmetry-breaking constraint), so each table is met once rather than once per
row permutation. The row-order propagators are compiled by the first search
that needs them, so a plain ``solve`` builds none.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from functools import partial
from operator import itemgetter
from typing import Callable, Iterator, NoReturn

from ..errors import BudgetExceeded, InternalError
from ..model.constraints import (
    CAbs,
    CBin,
    CBool,
    CCmp,
    CElem,
    CExpr,
    CLit,
    CVar,
    ConstraintModel,
    domain_size,
    walk_cexpr,
)
from ..model.decode import decode


@dataclass(frozen=True)
class Budget:
    max_decisions: int = 10_000_000
    max_time: float = 30.0

    def after(self, spent: SolveStats) -> Budget:
        """What is left of this budget once a search has spent ``spent``."""
        return Budget(self.max_decisions - spent.decisions, self.max_time - spent.elapsed)


class Status(Enum):
    SAT = "sat"
    UNSAT = "unsat"


@dataclass
class SolveStats:
    decisions: int = 0
    propagations: int = 0
    elapsed: float = 0.0


@dataclass(frozen=True)
class SolveOutcome:
    status: Status
    assignment: dict[int, int] | None
    stats: SolveStats

    @property
    def is_sat(self) -> bool:
        return self.status is Status.SAT


@dataclass(frozen=True)
class AmbiguityReport:
    first: dict[int, int]
    second: dict[int, int] | None
    stats: SolveStats  # of the uniqueness search

    @property
    def ambiguous(self) -> bool:
        return self.second is not None


# --- concrete evaluation -------------------------------------------------------


def eval_cexpr(expr: CExpr, values) -> int | bool:
    """Evaluate under a total assignment (list or dict indexed by id)."""
    if isinstance(expr, CLit):
        return expr.value
    if isinstance(expr, CVar):
        return values[expr.var]
    if isinstance(expr, CElem):
        return values[expr.table[values[expr.selector]]]
    if isinstance(expr, CBin):
        left = eval_cexpr(expr.left, values)
        right = eval_cexpr(expr.right, values)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        return left * right
    if isinstance(expr, CAbs):
        return abs(eval_cexpr(expr.arg, values))
    if isinstance(expr, CCmp):
        left = eval_cexpr(expr.left, values)
        right = eval_cexpr(expr.right, values)
        return _CMP[expr.op](left, right)
    assert isinstance(expr, CBool)
    if expr.op == "and":
        return all(eval_cexpr(p, values) for p in expr.parts)
    return any(eval_cexpr(p, values) for p in expr.parts)


_CMP: dict[str, Callable[[int, int], bool]] = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
}


def verify(model: ConstraintModel, assignment: dict[int, int]) -> bool:
    """Independent check that an assignment satisfies every constraint,
    every all-different group, and every domain."""
    return _verify(model, assignment, model.constraints)


def _verify(model: ConstraintModel, assignment: dict[int, int], constraints) -> bool:
    for v in model.vars:
        if assignment.get(v.id) not in v.values():
            return False
    for s in model.selectors:
        if not (0 <= assignment.get(s.id, -1) < s.list_len):
            return False
    for group in model.alldiff_groups:
        seen = [assignment[v] for v in group]
        if len(set(seen)) != len(seen):
            return False
    return all(eval_cexpr(c, assignment) for c in constraints)


# --- abstract evaluation -------------------------------------------------------

_SET_CAP = 512  # beyond this, collapse to a contiguous range (still sound)


def _apply_bin(op: str, ls: frozenset[int] | set[int], rs) -> set[int]:
    if len(ls) * len(rs) > _SET_CAP:
        lo_l, hi_l, lo_r, hi_r = min(ls), max(ls), min(rs), max(rs)
        if op == "+":
            return set(range(lo_l + lo_r, hi_l + hi_r + 1))
        if op == "-":
            return set(range(lo_l - hi_r, hi_l - lo_r + 1))
        corners = [a * b for a in (lo_l, hi_l) for b in (lo_r, hi_r)]
        return set(range(min(corners), max(corners) + 1))
    if op == "+":
        return {a + b for a in ls for b in rs}
    if op == "-":
        return {a - b for a in ls for b in rs}
    return {a * b for a in ls for b in rs}


def _cmp_sets(op: str, ls, rs) -> tuple[bool, bool]:
    """(can be true, can be false) for a comparison over value sets."""
    if op == "==":
        both = bool(ls & rs)
        single = len(ls) == 1 == len(rs) and ls == rs
        return both, not single
    if op == "!=":
        can_eq, can_ne = _cmp_sets("==", ls, rs)
        return can_ne, can_eq
    lo_l, hi_l, lo_r, hi_r = min(ls), max(ls), min(rs), max(rs)
    if op == "<":
        return lo_l < hi_r, hi_l >= lo_r
    assert op == "<="
    return lo_l <= hi_r, hi_l > lo_r


_BYTE_BITS = tuple(tuple(i for i in range(8) if byte >> i & 1) for byte in range(256))


def _bits(mask: int):
    """Positions of the set bits of ``mask``, ascending. One table serves
    each byte, so nothing grows with the masks seen."""
    if mask < 256:
        return _BYTE_BITS[mask]
    out: list[int] = []
    base = 0
    while mask:
        out += [base + i for i in _BYTE_BITS[mask & 255]]
        mask >>= 8
        base += 8
    return out


class Contradiction(Exception):
    pass


_CLOCK_EVERY = 32  # units of propagation work between two reads of the deadline

# The runs of all-different groups, shared by every model and search in the
# process: the tuple of a group's masks -> (the (position in the group, mask)
# of each var the run narrowed, the propagations it counted, its entailed
# flag or None where it failed). Threads share it without a lock: a dict's
# get, set and clear are atomic, and two threads that miss the same key store
# equal entries, so a race costs at most a run done twice.
_GROUP_TABLE: dict = {}
# Entries held at most; a full table is emptied, so that the models in use
# fill it again. An entry takes about 320 bytes, so 4096 take about 1.3 MB.
# Generating 35 puzzles of 4x4 to 6x6 makes 6130 distinct keys; 87% of group
# runs hit with no cap, 87% with this one, 85% with a cap of 1024.
_GROUP_TABLE_CAP = 4096
_TABLED_MASK_BITS = 64  # a group whose declared masks are wider runs untabled


@dataclass
class _ConstraintMeta:
    expr: CExpr
    selectors: list[tuple[int, tuple[int, ...]]]  # (selector id, var table)
    bare_vars: list[int]  # vars referenced outside elem tables (direct_vars)
    watched: list[int]  # every id whose domain change re-triggers this


def _constraint_meta(expr: CExpr) -> _ConstraintMeta:
    selectors: dict[int, tuple[int, ...]] = {}
    bare: set[int] = set()
    watched: set[int] = set()
    for node in walk_cexpr(expr):
        if isinstance(node, CVar):
            bare.add(node.var)
            watched.add(node.var)
        elif isinstance(node, CElem):
            selectors[node.selector] = node.table
            watched.add(node.selector)
            watched.update(node.table)
    return _ConstraintMeta(
        expr, sorted(selectors.items()), sorted(bare), sorted(watched)
    )


def _bases(lows: list[int], ties) -> list[int]:
    """The mask base of each id: the lowest of ``lows`` (each id's lowest
    declared value, 0 for a selector) over the variables it is tied to,
    directly or through others, by one of ``ties``."""
    base = list(lows)
    changed = True
    while changed:  # one pass when every tie holds one domain, as lowered
        changed = False
        for ids in ties:
            low = min([base[v] for v in ids])
            for v in ids:
                if base[v] != low:
                    base[v] = low
                    changed = True
    return base


def _elem_values(doms, sel: int, table) -> int:
    """Mask of the values elem(sel, table) can take."""
    out = 0
    for i in _bits(doms[sel]):
        out |= doms[table[i]]
    return out


def _elem_values_except(doms, sel: int, table, var: int) -> tuple[int, bool]:
    """Mask of the values of elem(sel, table) reached through vars other
    than ``var``, and whether ``var`` itself is reachable."""
    out = 0
    hit = False
    for i in _bits(doms[sel]):
        v = table[i]
        if v == var:
            hit = True
        else:
            out |= doms[v]
    return out, hit


def _elem_pair(expr: CCmp) -> tuple[CElem, CElem, str, int] | None:
    """Match ``E1 < E2``, ``E1 == E2 - L`` and ``abs(E1 - E2) == L`` over two
    distinct selectors: (E1, E2, the shape ``<``, ``-`` or ``abs``, L)."""
    left, right = expr.left, expr.right
    if expr.op == "<" and isinstance(left, CElem) and isinstance(right, CElem):
        e1, e2, shape, k = left, right, "<", 0
    elif (
        expr.op == "=="
        and isinstance(left, CElem)
        and isinstance(right, CBin)
        and right.op == "-"
        and isinstance(right.left, CElem)
        and isinstance(right.right, CLit)
    ):
        e1, e2, shape, k = left, right.left, "-", right.right.value
    elif (
        expr.op == "=="
        and isinstance(right, CLit)
        and isinstance(left, CAbs)
        and isinstance(left.arg, CBin)
        and left.arg.op == "-"
        and isinstance(left.arg.left, CElem)
        and isinstance(left.arg.right, CElem)
    ):
        e1, e2, shape, k = left.arg.left, left.arg.right, "abs", right.value
    else:
        return None
    return (e1, e2, shape, k) if e1.selector != e2.selector else None


# Relations over a value mask xs of one side and ys of the other, where bit j
# of ys is value d + j in the bits of xs (d: the difference of the bases);
# each is truthy when some x of xs and y of ys satisfy it. A shift t matches
# bit j of ys with bit j + t of xs.


def _less(d: int, xs: int, ys: int) -> bool:
    """min(xs) < max(ys): the lowest bit of xs below the highest of ys."""
    return (xs & -xs).bit_length() < ys.bit_length() + d


def _equals_minus(t: int, xs: int, ys: int) -> int:
    """x == y - L, where t = d - L."""
    return xs & (ys << t if t >= 0 else ys >> -t)


def _abs_difference_is(t1: int, t2: int, xs: int, ys: int) -> int:
    """abs(x - y) == L for L >= 0, where t1 = d + L and t2 = d - L."""
    return xs & ((ys << t1 if t1 >= 0 else ys >> -t1) | (ys << t2 if t2 >= 0 else ys >> -t2))


def _never(xs: int, ys: int) -> bool:
    """abs(x - y) == L for L < 0."""
    return False


class CompiledModel:
    """What the solver builds once per model, for any number of searches over
    any subsets of its constraints: each constraint's meta and propagator,
    the watch lists, mask bases, declared masks and width, and, from the
    first search that orders rows, the row-order propagators.

    The work list holds the all-different groups first, then one item per
    constraint in model order, then the row order."""

    def __init__(self, model: ConstraintModel):
        self.model = model
        self.n_vars = len(model.vars)
        self.n_ids = model.n_ids
        self.meta = [_constraint_meta(c) for c in model.constraints]
        # each id's declared values run from its lowest (an enum code's is 0)
        lows = [getattr(v.domain, "lo", 0) for v in model.vars] + [0] * len(model.selectors)
        sizes = [domain_size(v.domain) for v in model.vars] + [s.list_len for s in model.selectors]
        # the tables a dedicated propagator ORs are those of meta.selectors
        # (one per selector); clues repeat the same few, so each is joined once
        ties = {*model.alldiff_groups, *(t for m in self.meta for _, t in m.selectors)}
        self.base = _bases(lows, ties)
        # so each declared mask is a run of bits, built without its values
        self.declared = [((1 << n) - 1) << (lo - b) for n, lo, b in zip(sizes, lows, self.base)]
        # no literal shifts a mask by this much or more
        self.width = max(m.bit_length() for m in self.declared)
        # (function, arguments) per work-list item; unbound, so that a model
        # holds no reference cycle and is freed as soon as it is dropped
        self.propagators: list[tuple[Callable[..., bool], tuple]] = []
        # per id, the mask of the items that watch it: bit i is item i
        self.watchers: list[int] = [0] * self.n_ids
        for group in model.alldiff_groups:
            # a group's runs are looked up in _GROUP_TABLE (_propagate_group)
            # when its masks are narrow; a repeated var would make one key
            # stand for two different runs
            narrow = max(self.declared[v] for v in group).bit_length() <= _TABLED_MASK_BITS
            if narrow and len(set(group)) == len(group):
                self._add((_Search._propagate_group, (group, itemgetter(*group))), group)
            else:
                self._add((_Search._group_pass, (group,)), group)
        self.n_groups = len(model.alldiff_groups)
        for m in self.meta:
            self._add(self._propagator(m), m.watched)
        # constraints that tie a row to its slot keep the row order off
        self.row_tied = model.row_tied(m.bare_vars for m in self.meta)
        self.position_vars = model.position_vars()
        self._row_order: int | None = None
        self._ordered_root: tuple[list[int] | None, int, int] | None = None
        self._first: dict[int, int] | None = None
        self._first_key: tuple = ()

    def _add(self, propagator: tuple[Callable[..., bool], tuple], watched) -> None:
        bit = 1 << len(self.propagators)
        self.propagators.append(propagator)
        for ident in watched:
            self.watchers[ident] |= bit

    def view(self, active) -> "ModelView":
        """This model with only the constraints at ``active`` (indices into
        ``model.constraints``) on."""
        on = tuple(sorted(set(active)))
        if on and not (0 <= on[0] and on[-1] < len(self.model.constraints)):
            raise InternalError(f"constraint indices {on[0]}..{on[-1]} outside the model")
        return ModelView(self, on)

    def referenced_selectors(self, active: tuple[int, ...]) -> list[int]:
        """The selectors some active constraint references, ascending; any
        other selector leaves every solution as it is."""
        return sorted({s for i in active for s, _ in self.meta[i].selectors})

    def orders_rows(self, active: tuple[int, ...]) -> bool:
        """Whether the rows are interchangeable under the active constraints
        and carry a unique position field (``rows_orderable`` of the model
        cut to them): ordering them by position then gives each solution
        table exactly one encoding."""
        return self.position_vars is not None and self.row_tied.isdisjoint(active)

    def row_order(self) -> int:
        """The mask of the work-list items of ``pos[i] < pos[i+1]`` over
        consecutive rows, built by the first search that orders rows."""
        if self._row_order is None:
            start = len(self.propagators)
            pos = self.position_vars
            for a, b in zip(pos, pos[1:]):
                meta = _constraint_meta(CCmp("<", CVar(a), CVar(b)))
                self.meta.append(meta)
                self._add(self._propagator(meta), meta.watched)
            self._row_order = (1 << len(self.propagators)) - (1 << start)
        return self._row_order

    def ordered_root(self) -> tuple[list[int] | None, int, int]:
        """The fixpoint of the all-different groups and the row order on the
        declared domains, computed once: (its masks, the values it removed,
        its inert items), with None for masks when it fails. Every ordered
        search runs these items, so it can start from here."""
        if self._ordered_root is None:
            search = _Search(self.view(()), Budget(), ordered=True)
            doms = self.initial_state()
            inert = search.propagate(doms, search.off, search.on)
            if inert is None:
                self._ordered_root = None, 0, 0
            else:
                self._ordered_root = doms, search.stats.propagations, inert ^ search.off
        return self._ordered_root

    def table_key(self, assignment: dict[int, int]) -> tuple:
        """The decoded table's key. The generator checks every clue subset
        against one truth assignment, so the last one is decoded once."""
        if assignment != self._first:
            self._first, self._first_key = dict(assignment), decode(self.model, assignment).key()
        return self._first_key

    # -- domain plumbing ---------------------------------------------------

    def mask(self, ident: int, values) -> int:
        """The mask of ``values`` of ``ident``, each at least its base."""
        base = self.base[ident]
        out = 0
        for value in values:
            out |= 1 << (value - base)
        return out

    def values(self, ident: int, mask: int) -> list[int]:
        """The values of a mask of ``ident``, ascending."""
        base = self.base[ident]
        return [base + i for i in _bits(mask)]

    def initial_state(self) -> list[int]:
        return list(self.declared)

    # -- propagator matching -------------------------------------------------

    def _propagator(self, meta: _ConstraintMeta) -> tuple[Callable[..., bool], tuple]:
        """The dedicated propagator for meta's shape, else the generic one, as
        an unbound _Search method and the arguments that follow (doms, dirty)."""
        expr = meta.expr
        if isinstance(expr, CCmp):
            left, right = expr.left, expr.right
            if (
                expr.op == "<"
                and isinstance(left, CVar)
                and isinstance(right, CVar)
                and left.var != right.var
            ):
                d = self.base[right.var] - self.base[left.var]
                return _Search._propagate_less_vars, (left.var, right.var, d)
            if isinstance(right, CLit) and expr.op in ("==", "!=") and isinstance(left, CElem):
                method = _Search._propagate_elem_eq if expr.op == "==" else _Search._propagate_elem_ne
                i = right.value - self.base[left.table[0]]
                bit = 1 << i if 0 <= i < self.width else 0
                return method, (left.selector, left.table, bit)
            pair = _elem_pair(expr)
            relation = self._pair_relation(*pair) if pair else None
            if relation is not None:
                e1, e2 = pair[:2]
                return _Search._propagate_elem_pair, (
                    e1.selector,
                    e1.table,
                    e2.selector,
                    e2.table,
                    relation,
                )
        return _Search._propagate_generic, (meta,)

    def _pair_relation(self, e1: CElem, e2: CElem, shape: str, k: int):
        """The relation between the value masks of e1 and e2 for a matched
        pair shape, or None where the generic evaluator serves: where its
        arithmetic could exceed _SET_CAP and widen a set to its range, which
        an exact relation would not do, or where L shifts a mask by the
        widest mask's width or more (no two values can then satisfy it)."""
        d = self.base[e2.table[0]] - self.base[e1.table[0]]
        if shape == "<":
            return partial(_less, d)
        r1, r2 = self._reach(e1), self._reach(e2)
        if shape == "-":
            if r2.bit_count() > _SET_CAP:
                return None
            shifts: tuple[int, ...] = (d - k,)
        else:
            if r1.bit_count() * r2.bit_count() > _SET_CAP:
                return None
            if k < 0:
                return _never
            shifts = (d + k, d - k)
        if any(abs(t) >= self.width for t in shifts):
            return None
        return partial(_equals_minus if shape == "-" else _abs_difference_is, *shifts)

    def _reach(self, elem: CElem) -> int:
        """The mask of values elem can take under the declared domains (the
        domains propagation starts from and only ever narrows)."""
        out = 0
        for v in elem.table:
            out |= self.declared[v]
        return out


@dataclass(frozen=True)
class ModelView:
    """A compiled model with only the constraints at ``active`` on: ascending
    indices into ``compiled.model.constraints``. It is what ``solve`` and
    ``find_second`` search; a plain model is compiled with all of them on."""

    compiled: CompiledModel
    active: tuple[int, ...]

    def verify(self, assignment: dict[int, int]) -> bool:
        """``verify`` over the active constraints only."""
        constraints = self.compiled.model.constraints
        return _verify(self.compiled.model, assignment, [constraints[i] for i in self.active])


def compile_model(model: ConstraintModel) -> ModelView:
    """``model`` compiled once with every constraint on: a view that any
    number of ``solve`` and ``find_second`` calls can share."""
    return CompiledModel(model).view(range(len(model.constraints)))


def _view(model: ConstraintModel | ModelView) -> ModelView:
    return model if isinstance(model, ModelView) else compile_model(model)


class _Search:
    """One search over a view: its budget, clock, counters and trace, and
    the work-list items that are on. Each search state carries a mask of
    inert items, which are never scheduled: the items that are off, and
    those whose domains entail them (Schulte and Stuckey's subsumed
    propagators), which would change nothing in the state's subtree."""

    def __init__(self, view: ModelView, budget: Budget, trace=None, ordered: bool = False):
        compiled = self.compiled = view.compiled
        self.view = view
        self.budget = budget
        self.trace = trace
        self.stats = SolveStats()
        self.n_vars = compiled.n_vars
        self.base = compiled.base
        # masks of work-list items: bit i is item i
        groups = compiled.n_groups
        self.constraints = 0
        for i in view.active:
            self.constraints |= 1 << (groups + i)
        self.on = self.constraints | ((1 << groups) - 1)
        self.ordered = ordered and compiled.orders_rows(view.active)
        if self.ordered:
            self.on |= compiled.row_order()
        self.propagators = compiled.propagators
        self.watchers = compiled.watchers
        self.off = ((1 << len(self.propagators)) - 1) ^ self.on
        self.branched_selectors = compiled.referenced_selectors(view.active)
        # ``clock`` restarts these; a search that only propagates keeps them
        self.start = time.perf_counter()
        self.deadline = self.start + budget.max_time
        self.countdown = _CLOCK_EVERY  # units of work until the deadline is read

    def _remove(self, doms: list[int], ident: int, mask: int, dirty: set[int]) -> None:
        """Remove ``mask``, a non-empty subset of ``ident``'s domain, with one
        propagation counted per value."""
        dom = doms[ident] & ~mask
        self.stats.propagations += mask.bit_count()
        if not dom:
            raise Contradiction()
        doms[ident] = dom
        dirty.add(ident)

    # -- abstract evaluation over current domains --------------------------

    def _aset(self, expr: CExpr, doms, pin_id: int, pin_val: int) -> set[int]:
        if isinstance(expr, CLit):
            return {expr.value}
        if isinstance(expr, CVar):
            if expr.var == pin_id:
                return {pin_val}
            return set(self.compiled.values(expr.var, doms[expr.var]))
        if isinstance(expr, CElem):
            if expr.selector == pin_id:
                choices = [pin_val]
            else:
                choices = _bits(doms[expr.selector])
            out: set[int] = set()
            for j in choices:
                v = expr.table[j]
                if v == pin_id:
                    out.add(pin_val)
                else:
                    out.update(self.compiled.values(v, doms[v]))
            return out
        if isinstance(expr, CBin):
            return _apply_bin(
                expr.op,
                self._aset(expr.left, doms, pin_id, pin_val),
                self._aset(expr.right, doms, pin_id, pin_val),
            )
        assert isinstance(expr, CAbs)
        return {abs(v) for v in self._aset(expr.arg, doms, pin_id, pin_val)}

    def _abool(self, expr: CExpr, doms, pin_id: int = -1, pin_val: int = 0) -> tuple[bool, bool]:
        if isinstance(expr, CCmp):
            ls = self._aset(expr.left, doms, pin_id, pin_val)
            rs = self._aset(expr.right, doms, pin_id, pin_val)
            return _cmp_sets(expr.op, ls, rs)
        if isinstance(expr, CBool):
            pairs = [self._abool(p, doms, pin_id, pin_val) for p in expr.parts]
            if expr.op == "and":
                return all(t for t, _ in pairs), any(f for _, f in pairs)
            return any(t for t, _ in pairs), all(f for _, f in pairs)
        raise InternalError(f"non-boolean constraint root: {expr!r}")

    # -- propagation --------------------------------------------------------

    def propagate(self, doms: list[int], inert: int, stale: int) -> int | None:
        """Run the items that are on to fixpoint from ``doms``, a fixpoint of
        every item but those of the mask ``stale``. Returns the inert mask of
        the fixpoint, ``inert`` and the items that became entailed, or None
        on contradiction.

        A scan walks the stale items in index order, then a FIFO queue takes
        the items that a removal re-triggers after the scan passed them; a
        watcher of an id a run narrows is stale too. An item that is not
        stale would read what it read at the fixpoint, and an inert one is
        entailed, so neither would change anything: every call from the same
        state makes the removals of a full pass (all items stale, none inert
        but the items that are off) in the same order, counts the same
        propagations and fails at the same point."""
        propagators, watchers = self.propagators, self.watchers
        ahead = (stale | inert) ^ inert  # the stale items ahead of the scan
        busy = inert | ahead  # inert items, stale items ahead of the scan, queued items
        queue: deque[int] = deque()  # single-bit masks
        dirty: set[int] = set()
        try:
            while True:
                if ahead:
                    bit = ahead & -ahead
                    ahead ^= bit
                    passed = (bit << 1) - 1  # the items the scan passed
                elif queue:
                    bit = queue.popleft()
                    passed = -1  # the scan is done
                else:
                    return busy  # nothing is stale: the inert items
                self.countdown -= 1
                if not self.countdown:
                    self._read_clock()
                propagator, args = propagators[bit.bit_length() - 1]
                if not propagator(self, doms, dirty, *args):
                    busy ^= bit  # an entailed item stays busy: inert
                if not dirty:
                    continue
                for ident in sorted(dirty):
                    new = (watchers[ident] | busy) ^ busy
                    if new:
                        busy |= new
                        behind = new & passed
                        ahead |= new ^ behind
                        while behind:  # queued in index order
                            low = behind & -behind
                            queue.append(low)
                            behind ^= low
                dirty.clear()
        except Contradiction:
            return None

    def root(self) -> tuple[list[int], int] | None:
        """The root state, propagated, and its inert mask; None when it
        fails. An ordered search starts from the model's cached fixpoint of
        the groups and the row order, where only the active constraints are
        stale. The root fixpoint is unique, so it is the one a full pass
        reaches, with the same removals counted; where it fails, the full
        pass runs instead, so that the count stops where the full pass fails."""
        if self.ordered:
            cached, removed, entailed = self.compiled.ordered_root()
            if cached is not None:
                doms = list(cached)
                before = self.stats.propagations
                inert = self.propagate(doms, self.off | entailed, self.constraints)
                if inert is not None:
                    self.stats.propagations += removed
                    return doms, inert
                self.stats.propagations = before
        doms = self.compiled.initial_state()
        inert = self.propagate(doms, self.off, self.on)
        return None if inert is None else (doms, inert)

    # Each propagator removes, per id, one batch: the values it would remove
    # one by one. No test within a batch reads the id being pruned, so the
    # removals, counts and contradiction points are those of single removals.

    def _propagate_group(
        self, doms: list[int], dirty: set[int], group: tuple[int, ...], masks_of
    ) -> bool:
        """The group's run, looked up in ``_GROUP_TABLE`` by the group's masks
        (``masks_of(doms)``). A miss runs ``_group_pass`` and records it; a
        hit replays the record, failure point included."""
        key = masks_of(doms)
        entry = _GROUP_TABLE.get(key)
        if entry is None:
            before = self.stats.propagations
            narrowed: set[int] = set()
            try:
                entailed = self._group_pass(doms, narrowed, group)
            except Contradiction:
                entailed = None
            dirty |= narrowed
            if len(_GROUP_TABLE) >= _GROUP_TABLE_CAP:
                _GROUP_TABLE.clear()  # the models in use fill it again
            changed = tuple((i, doms[v]) for i, v in enumerate(group) if v in narrowed)
            _GROUP_TABLE[key] = changed, self.stats.propagations - before, entailed
        else:
            changed, count, entailed = entry
            for i, mask in changed:
                v = group[i]
                doms[v] = mask
                dirty.add(v)
            self.stats.propagations += count
        if entailed is None:
            raise Contradiction()
        return entailed

    def _group_pass(self, doms: list[int], dirty: set[int], group: tuple[int, ...]) -> bool:
        # assigned values leave every peer
        for v in group:
            val = doms[v]
            if not val & (val - 1):
                for w in group:
                    if w != v and doms[w] & val:
                        self._remove(doms, w, val, dirty)
        # Hall intervals over the remaining value range
        union = 0
        for v in group:
            union |= doms[v]
        bits = _bits(union)
        size = len(group)
        if len(bits) < size:
            raise Contradiction()
        # a var lies outside [low, high] when its lowest bit is below low or
        # its highest above high: small ints, however wide the masks
        lows = [(doms[v] & -doms[v]).bit_length() - 1 for v in group]
        highs = [doms[v].bit_length() - 1 for v in group]
        positions = range(size)
        # an interval of size values or more is never overfull, and is tight
        # only with every var inside it, when no var is left to prune
        for ai, low in enumerate(bits):
            self.countdown -= 1
            if not self.countdown:
                self._read_clock()
            for bi in range(ai, min(ai + size - 1, len(bits))):
                high = bits[bi]
                outside = [i for i in positions if lows[i] < low or highs[i] > high]
                capacity = bi - ai + 1
                inside = size - len(outside)
                if inside > capacity:
                    raise Contradiction()
                if inside == capacity:
                    interval = ((2 << high) - 1) ^ ((1 << low) - 1)
                    for i in outside:
                        v = group[i]
                        hit = doms[v] & interval
                        if hit:
                            self._remove(doms, v, hit, dirty)
                            dom = doms[v]
                            lows[i] = (dom & -dom).bit_length() - 1
                            highs[i] = dom.bit_length() - 1
        # entailed once every var is fixed (to distinct values, or it failed)
        for v in group:
            if doms[v] & (doms[v] - 1):
                return False
        return True

    def _propagate_generic(self, doms: list[int], dirty: set[int], meta: _ConstraintMeta) -> bool:
        if not self._abool(meta.expr, doms)[0]:
            raise Contradiction()
        for sel, table in meta.selectors:
            if doms[sel] & (doms[sel] - 1):
                self._prune_generic(doms, dirty, meta.expr, sel)
        test_vars = dict.fromkeys(meta.bare_vars)
        for sel, table in meta.selectors:
            choice = doms[sel]
            if not choice & (choice - 1):
                test_vars[table[choice.bit_length() - 1]] = None
        for v in test_vars:
            if doms[v] & (doms[v] - 1):
                self._prune_generic(doms, dirty, meta.expr, v)
        return False  # entailment is not tested

    def _prune_generic(self, doms: list[int], dirty: set[int], expr: CExpr, ident: int) -> None:
        """Remove the values of ``ident`` whose singleton test fails."""
        base = self.base[ident]
        bad = 0
        for i in _bits(doms[ident]):
            if not self._abool(expr, doms, ident, base + i)[0]:
                bad |= 1 << i
        if bad:
            self._remove(doms, ident, bad, dirty)

    # -- dedicated propagators -----------------------------------------------
    #
    # Each one mirrors _propagate_generic step by step for one constraint
    # shape: the same initial entailment check, then the selector values in
    # selector-id order, then the variables those fixed selectors (or the
    # constraint itself) name, each value tested in domain order. ``bit`` is
    # a literal's single-bit mask in the bits of its table's vars, 0 when it
    # lies outside every mask. Each returns whether the state it leaves
    # entails the constraint, so that no narrower state lets it prune.

    def _propagate_elem_eq(self, doms: list[int], dirty: set[int], sel: int, table, bit: int) -> bool:
        choices = doms[sel]
        hits = 0  # selector bits whose var can take the literal
        for i in _bits(choices):
            if doms[table[i]] & bit:
                hits |= 1 << i
        if not hits:
            raise Contradiction()
        if hits != choices:
            self._remove(doms, sel, choices ^ hits, dirty)
        if not hits & (hits - 1):
            var = table[hits.bit_length() - 1]
            if doms[var] != bit:
                self._remove(doms, var, doms[var] ^ bit, dirty)
            return True  # the selector is fixed and its var is the literal
        return False

    def _propagate_elem_ne(self, doms: list[int], dirty: set[int], sel: int, table, bit: int) -> bool:
        choices = doms[sel]
        fixed = 0  # selector bits whose var is fixed to the literal
        for i in _bits(choices):
            if doms[table[i]] == bit:
                fixed |= 1 << i
        if fixed == choices:
            raise Contradiction()
        if fixed:
            self._remove(doms, sel, fixed, dirty)
            choices ^= fixed
        if not choices & (choices - 1):
            var = table[choices.bit_length() - 1]
            if doms[var] & bit and doms[var] != bit:
                self._remove(doms, var, bit, dirty)
            return True  # the selector is fixed and its var lacks the literal
        return False

    def _propagate_elem_pair(
        self, doms: list[int], dirty: set[int], s1: int, t1, s2: int, t2, relation
    ) -> bool:
        """relation(xs, ys) says whether values xs of elem(s1, t1) and ys of
        elem(s2, t2) can satisfy the constraint; s1 != s2."""
        if not relation(_elem_values(doms, s1, t1), _elem_values(doms, s2, t2)):
            raise Contradiction()
        ordered = ((s1, t1), (s2, t2)) if s1 < s2 else ((s2, t2), (s1, t1))
        # pinning one selector leaves the other side's value set unchanged
        for sel, _ in ordered:
            choices = doms[sel]
            if not choices & (choices - 1):
                continue
            bad = 0
            if sel == s1:
                ys = _elem_values(doms, s2, t2)
                for i in _bits(choices):
                    if not relation(doms[t1[i]], ys):
                        bad |= 1 << i
            else:
                xs = _elem_values(doms, s1, t1)
                for i in _bits(choices):
                    if not relation(xs, doms[t2[i]]):
                        bad |= 1 << i
            if bad:
                self._remove(doms, sel, bad, dirty)
        test_vars: dict[int, None] = {}
        for sel, table in ordered:
            choice = doms[sel]
            if not choice & (choice - 1):
                test_vars[table[choice.bit_length() - 1]] = None
        for var in test_vars:
            dom = doms[var]
            if not dom & (dom - 1):
                continue
            xs, x_hit = _elem_values_except(doms, s1, t1, var)
            ys, y_hit = _elem_values_except(doms, s2, t2, var)
            bad = 0
            for i in _bits(dom):
                a = 1 << i
                if not relation(xs | a if x_hit else xs, ys | a if y_hit else ys):
                    bad |= a
            if bad:
                self._remove(doms, var, bad, dirty)
        # entailed once both selectors and both vars are fixed
        for sel, table in ordered:
            choice = doms[sel]
            if choice & (choice - 1):
                return False
            dom = doms[table[choice.bit_length() - 1]]
            if dom & (dom - 1):
                return False
        return True

    def _propagate_less_vars(
        self, doms: list[int], dirty: set[int], a: int, b: int, d: int
    ) -> bool:
        """V_a < V_b over two distinct vars: the row order of find_second;
        d is base(b) - base(a). Once the check holds, min(a) < max(b) survive
        both prunings, so each var's removals do not depend on the other's,
        nor on their order."""
        xs, ys = doms[a], doms[b]
        if not _less(d, xs, ys):
            raise Contradiction()
        top = ys.bit_length() - 1 + d  # max(b) as a bit of a, above min(a)
        above = xs >> top << top
        if above:
            self._remove(doms, a, above, dirty)
        low = (xs & -xs).bit_length() - 1 - d  # min(a) as a bit of b, below max(b)
        below = ys & ((2 << low) - 1) if low >= 0 else 0
        if below:
            self._remove(doms, b, below, dirty)
        # entailed once max(a) < min(b)
        return doms[a].bit_length() < (doms[b] & -doms[b]).bit_length() + d

    # -- search --------------------------------------------------------------

    def _pick(self, doms: list[int]) -> int | None:
        best = None
        best_size = None
        for ident in range(self.n_vars):
            size = doms[ident].bit_count()
            if size > 1 and (best_size is None or size < best_size):
                best, best_size = ident, size
        if best is not None:
            return best
        for ident in self.branched_selectors:
            size = doms[ident].bit_count()
            if size > 1 and (best_size is None or size < best_size):
                best, best_size = ident, size
        return best

    def _tick(self) -> None:
        self.stats.decisions += 1
        if self.stats.decisions > self.budget.max_decisions:
            raise BudgetExceeded(
                "decision budget exhausted",
                self.stats.decisions,
                time.perf_counter() - self.start,
            )
        if time.perf_counter() > self.deadline:
            self._out_of_time()

    def _read_clock(self) -> None:
        """Restart the countdown; raise once the deadline has passed."""
        self.countdown = _CLOCK_EVERY
        if time.perf_counter() > self.deadline:
            self._out_of_time()

    def _out_of_time(self) -> NoReturn:
        raise BudgetExceeded(
            "time budget exhausted", self.stats.decisions, time.perf_counter() - self.start
        )

    def solutions(self, doms: list[int], inert: int) -> Iterator[list[int]]:
        """Depth-first search from ``doms``, a fixpoint with ``inert`` its
        inert mask, yielding one solution per
        assignment of the regular variables: below the last regular
        variable, selectors are branched only until they complete a
        solution, so solutions that differ only in selectors are found once."""
        ident = self._pick(doms)
        if ident is None:
            yield [base + d.bit_length() - 1 for base, d in zip(self.base, doms)]
            return
        base = self.base[ident]
        for i in _bits(doms[ident]):
            self._tick()
            if self.trace:
                self.trace(f"decide {ident}={base + i}")
            child = list(doms)
            child[ident] = 1 << i
            child_inert = self.propagate(child, inert, self.watchers[ident])
            if child_inert is not None:
                for found in self.solutions(child, child_inert):
                    yield found
                    if ident >= self.n_vars:
                        return
            if self.trace:
                self.trace(f"backtrack {ident}={base + i}")

    @contextmanager
    def clock(self):
        """Start the time budget; record the elapsed time on exit."""
        self.start = time.perf_counter()
        self.deadline = self.start + self.budget.max_time
        try:
            yield
        finally:
            self.stats.elapsed = time.perf_counter() - self.start

    def run(self) -> SolveOutcome:
        with self.clock():
            root = self.root()
            solution = next(self.solutions(*root), None) if root else None
        if solution is None:
            return SolveOutcome(Status.UNSAT, None, self.stats)
        assignment = dict(enumerate(solution))
        if not self.view.verify(assignment):
            raise InternalError("solver returned an assignment that fails verification")
        return SolveOutcome(Status.SAT, assignment, self.stats)


def solve(
    model: ConstraintModel | ModelView, budget: Budget | None = None, trace=None
) -> SolveOutcome:
    """Find a first satisfying assignment, or prove Unsat by complete search.

    Raises BudgetExceeded when the decision or time budget runs out: the
    caller must treat that as "unknown", never as Unsat.
    """
    return _Search(_view(model), budget or Budget(), trace).run()


def propagate_domains(
    model: ConstraintModel, domains: dict[int, list[int]] | None = None
) -> dict[int, list[int]] | None:
    """Run propagation alone (no search) from the declared domains, narrowed
    to ``domains`` where given, and return the pruned domains, or None on
    contradiction. A given value outside the declared domain is ignored.
    Intended for tests and debugging."""
    view = _view(model)
    compiled = view.compiled
    doms = compiled.initial_state()
    for ident, values in (domains or {}).items():
        declared = set(model.domain_of(ident))
        doms[ident] = compiled.mask(ident, (v for v in values if v in declared))
    if not all(doms):
        return None
    search = _Search(view, Budget())
    if search.propagate(doms, search.off, search.on) is None:
        return None
    return {i: compiled.values(i, d) for i, d in enumerate(doms)}


# --- ambiguity -------------------------------------------------------------------


def find_second(
    model: ConstraintModel | ModelView, first: dict[int, int], budget: Budget | None = None
) -> AmbiguityReport:
    """Search for a second assignment whose decoded table differs from the
    first one's, or prove there is none. Selector variables never count
    toward distinctness, and row permutations of the same table are not
    reported as ambiguity.

    One depth-first search under one budget walks the solutions of the
    active constraints until one decodes to a table other than ``first``'s.
    When the rows are interchangeable under them (``orders_rows``), the
    search also orders the rows by position, so each table is met once.
    Raises BudgetExceeded when the budget runs out first.
    """
    view = _view(model)
    compiled = view.compiled
    first_key = compiled.table_key(first)
    solver = _Search(view, budget or Budget(), ordered=True)
    second = None
    with solver.clock():
        root = solver.root()
        if root:
            for solution in solver.solutions(*root):
                assignment = dict(enumerate(solution))
                if decode(compiled.model, assignment).key() != first_key:
                    second = assignment
                    break
    if second is not None and not view.verify(second):
        raise InternalError("uniqueness search returned an assignment that fails verification")
    return AmbiguityReport(first, second, solver.stats)
