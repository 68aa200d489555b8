"""Native finite-domain solver: backtracking search with propagation.

There is one search, depth-first over explicit domains with
minimum-remaining-values variable order (ties to the lowest id) and ascending
value order; selector variables are branched only after every regular
variable is fixed, only if some constraint references them, and only until
they complete a solution. When rows are interchangeable under the
constraints that are on and carry a unique position field, the search also
orders consecutive rows by position (a lexicographic symmetry-breaking
constraint; Crawford, Ginsberg, Luks and Roy, KR 1996), so each solution
table is met once rather than once per row permutation. ``solve`` takes its
first solution. This makes outcomes and decision counts fully deterministic,
and a model with extra unreferenced selectors searches exactly like the same
model without them.

Each domain is one int bit mask: bit ``i`` is the value ``base + i``. A
selector's base is 0, so its bits are its values. A variable's base is the
lowest declared value among the variables it shares an elem table or an
all-different group with, so the masks that one propagator ORs together
share bit positions, and a mask is as wide as its variable's value range,
not as large as its values. The search state is the list of masks, so a
child state is a plain list copy, and membership, union and shift tests are
word operations.

A model is compiled once (``CompiledModel``): each constraint's propagator,
the watch lists, the mask bases and the declared masks. The ids a constraint
reads come from the scope lowering recorded for it (each ``(selector,
table)`` pair and each var named outside a table), so nothing after lowering
walks a constraint tree to find them. Each search runs over
a ``ModelView``, the compiled model with a subset of its constraints switched
on, as in solving under assumptions (Eén and Sörensson, SAT 2003): the
constraints that are off are never scheduled, and the selectors only they
reference are not branched. ``solve`` and ``find_second`` compile a
plain ``ConstraintModel`` with every constraint on (``compile_model``; the
pipeline calls it once per attempt and hands the view to both); the puzzle
generator compiles its candidate program once and switches clue slices per
check, deriving each check's view from one whose clues it shares.

Propagation runs one work list of propagators, the all-different groups
first and then the constraints that are on, to a fixpoint. It is
event-driven (Schulte and Stuckey, TOPLAS 2008): a propagator watches the ids
it reads and prunes, and after a search decision only the watchers of the
decided id, and then of each id they narrow, run again. The parent state is
a fixpoint of every propagator, so one whose ids did not change would change
nothing. Each search state also carries one int mask of inert items, which
are never scheduled: the items that are off, and each dedicated propagator
whose last run left a state that entails it (Schulte and Stuckey's subsumed
propagators: a literal mask once its selector is fixed, leaving its var in
the mask, a pair once both selectors and both vars are fixed, ``V1 < V2``
once ``max(V1) < min(V2)``, a group once every var is fixed). Such an item
would change nothing in the state's subtree; a child copies the mask, so
backtracking restores it. The items still run in the order of a full pass
over the work list followed by a FIFO queue, minus runs that change nothing,
so each removal, contradiction point and propagation count is that of the
full pass. The work list, the watch lists and the inert mask are int masks
with bit ``i`` for item ``i``. The propagators:

* three-valued constraint evaluation over possible-value sets detects
  contradictions and prunes by singleton tests over the constraint's scope:
  first the values of each selector that is not fixed, in ascending order,
  whose implied element constraints cannot hold, then the values of the vars
  it names and of the picked var of every table of each fixed selector
  (bounds-and-membership filtering for comparisons and arithmetic);
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
the order the items run in, nor does its removal count. So a view can be
derived from another (``ModelView.plus``), its parent, and a search over it
that orders rows starts from a copy of the parent's root fixpoint, where
only the constraints it added are stale, and counts the parent's removals
plus its own. Every view from ``CompiledModel.view`` has the empty view as
its parent, whose fixpoint is that of the groups and the row order on the
declared domains. The compiled model caches the fixpoint of each view that
serves as a parent, with its removal count and inert items; the first
search that needs one computes it under its own deadline, and nothing is
cached when that deadline passes. A root that fails from there is
propagated again from the declared domains, so that the count stops where a
full pass fails.

The singleton tests of the generic evaluator re-walk the constraint tree once
per tested value. So when the model is compiled, each constraint is read as
the relation it states, however it is spelled (E is ``elem(selector, table)``,
each named once, the rest literals), and gets a dedicated propagator where
the relation is one of two families:

* one element against literals (``E == L``, ``L <= E``, ``E + 1 != L``, or
  an ``or`` of such over one element): E takes a value of a literal mask;
* two elements of distinct selectors: a difference set, ``E1 - E2`` in D
  (``==`` gives one difference, ``abs(E1 - E2) == L`` two or none, an ``or``
  over the pair the union), or a threshold, ``E1 - E2 < m`` (``<`` and
  ``<=`` with any offset);

and so does ``V1 < V2`` over two distinct variables, the row order. An
``==`` is read only where no set the generic arithmetic builds can pass
``_SET_CAP`` and widen to its range. Each removes exactly the values the
generic singleton tests remove, in the same order, and fails in the same
states, so no fixpoint, count or assignment depends on which one ran. The
generic evaluator serves the rest (``and``, one selector on both sides, ...).

Pruning only ever uses over-approximations of reachable values, so no value
belonging to a satisfying assignment is removed.

Uniqueness (``find_second``) is one depth-first search under one deadline:
the solutions of ``solve``'s search, walked until one decodes to a table
other than the first table. ``solve`` leaves them suspended on the compiled
model from its own solution on, keyed by the active constraints, and a
``find_second`` over the same constraints walks them under its own budget:
the sequence a search from the root walks, so only the counters depend on
which one ran. A search holds no reference to its model, so the model and
the search it keeps form no reference cycle.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from functools import partial, reduce
from itertools import chain
from math import prod
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
    Scope,
)
from ..model.decode import SolutionTable, decode


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
    second: SolutionTable | None
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
        # None would make the range test walk every value
        value = assignment.get(v.id)
        if value is None or value not in v.values():
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
    each byte, so nothing grows with the masks seen, and the mask is split
    into bytes once, so a call is linear in its width."""
    if mask < 256:
        return _BYTE_BITS[mask]
    out: list[int] = []
    for k, byte in enumerate(mask.to_bytes((mask.bit_length() + 7) // 8, "little")):
        if byte:
            base = 8 * k
            out += [base + i for i in _BYTE_BITS[byte]]
    return out


def _values(base: int, mask: int) -> list[int]:
    """The values of a mask whose bit ``i`` is the value ``base + i``, ascending."""
    return [base + i for i in _bits(mask)]


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


def _bases(lows: list[int], ties) -> list[int]:
    """The mask base of each id: the lowest of ``lows`` (each id's lowest
    declared value, 0 for a selector) over the variables it is tied to,
    directly or through others, by one of ``ties``."""
    base = list(lows)
    changed = True
    while changed:  # one pass when every tie holds one domain, as lowered
        changed = False
        for ids in ties:
            low = min(map(base.__getitem__, ids))
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


# Relations over value masks xs and ys, bit j of ys being value d + j in the
# bits of xs (d: the difference of the bases), truthy when some x of xs and y
# of ys satisfy them. A shift t matches bit j of ys with bit j + t of xs.


def _less(d: int, xs: int, ys: int) -> bool:
    """min(xs) < max(ys), the lowest bit of xs below the highest of ys; x - y < m at d + m."""
    return (xs & -xs).bit_length() < ys.bit_length() + d


def _shifted(shifts: tuple[int, ...], xs: int, ys: int) -> bool:
    """x - y in a set of differences, each k at the shift t = d + k."""
    for t in shifts:
        if xs & (ys << t if t >= 0 else ys >> -t):
            return True
    return False


def _sum(expr: CExpr, sign: int, terms: list) -> int | None:
    """``sign`` times ``expr`` read as a sum of elements and literals: each
    element is appended to ``terms`` with its sign, and the literal part is
    returned; None where ``expr`` is no such sum."""
    kind = type(expr)
    if kind is CLit:
        return sign * expr.value
    if kind is CElem:
        terms.append((sign, expr))
        return 0
    if kind is not CBin or expr.op == "*":
        return None
    left = _sum(expr.left, sign, terms)
    right = _sum(expr.right, -sign if expr.op == "-" else sign, terms)
    return None if left is None or right is None else left + right


def _union(a: tuple | None, b: tuple | None) -> tuple | None:
    """The reading of ``a or b``: one element's literal masks joined, or one
    pair's difference sets in either operand order; None for the rest."""
    if a is None or b is None or (a[1] is not None and not isinstance(a[2], set)):
        return None  # a threshold joins nothing
    (x, y, ra), (x2, y2, rb) = a, b
    if (x2, y2) == (y, x) and isinstance(rb, set):
        x2, y2, rb = x, y, {-k for k in rb}
    return (x, y, ra | rb) if (x2, y2) == (x, y) and type(rb) is type(ra) else None


def _literal_mask(op: str, sign: int, i: int, width: int) -> int:
    """The mask of the bits j below ``width`` with ``j op i``, or ``i op j``
    where ``sign`` is -1: a bit, its complement, a prefix or a suffix."""
    bit = 1 << i if 0 <= i < width else 0
    if op == "==":
        return bit
    full = (1 << width) - 1
    if op == "!=":
        return full ^ bit
    n = i + (op == "<=") if sign > 0 else i + (op == "<")  # the bits below n, or from n up
    prefix = (1 << min(max(n, 0), width)) - 1
    return prefix if sign > 0 else full ^ prefix


class CompiledModel:
    """What the solver builds once per model, for any number of searches over
    any subsets of its constraints: each constraint's propagator, the
    row-order propagators, the watch lists, mask bases, declared masks and
    width. It reads the ids of each constraint from its scope. It also keeps
    the root fixpoints of the views that serve as parents (``fixpoint``) and
    the search ``solve`` left suspended (``suspended``).

    The work list holds the all-different groups first, then one item per
    constraint in model order, then the row order."""

    def __init__(self, model: ConstraintModel):
        self.model = model
        self.n_vars = len(model.vars)
        self.n_ids = model.n_ids
        # each id's declared values are a range (an enum's codes start at 0)
        ranges = [v.values() for v in model.vars] + [s.values() for s in model.selectors]
        # a propagator ORs the masks of an elem table, so every table of every
        # scope is a tie; clues repeat the same few, so each is joined once
        ties = {*model.alldiff_groups, *(t for scope in model.scopes for _, t in scope.elems)}
        self.base = _bases([r.start for r in ranges], ties)
        # so each declared mask is a run of bits, built without its values
        self.declared = [((1 << len(r)) - 1) << (r.start - b) for r, b in zip(ranges, self.base)]
        # no literal shifts a mask by this much or more
        self.width = max(self.declared).bit_length()
        # (function, arguments) per work-list item; unbound, so that a model
        # holds no reference cycle and is freed as soon as it is dropped
        self.propagators: list[tuple[Callable[..., bool], tuple]] = []
        # per id, the mask of the items that watch it: bit i is item i
        self.watchers: list[int] = [0] * self.n_ids
        for group in model.alldiff_groups:
            # a group's runs are looked up in _GROUP_TABLE (_propagate_group)
            # when its masks are narrow; a repeated var would make one key
            # stand for two different runs
            narrow = max(map(self.declared.__getitem__, group)).bit_length() <= _TABLED_MASK_BITS
            if narrow and len(set(group)) == len(group):
                self._add((_Search._propagate_group, (group, itemgetter(*group))), group)
            else:
                self._add((_Search._group_pass, (group,)), group)
        self.n_groups = len(model.alldiff_groups)
        for expr, scope in zip(model.constraints, model.scopes):
            watched = list(scope.vars)
            for sel, table in scope.elems:
                watched.append(sel)
                watched += table
            self._add(self._propagator(expr, scope), watched)
        # with more than one row, a constraint that names a row var directly
        # ties that row to its slot, and keeps the row order off
        rows = model.layout.rows
        row_vars = {v for row in rows for v in row.values()} if len(rows) > 1 else set()
        self.row_tied = {i for i, s in enumerate(model.scopes) if not row_vars.isdisjoint(s.vars)}
        self.position_vars = model.position_vars()
        # the row order, pos[i] < pos[i+1] over consecutive rows: the mask
        # of its items, which a search runs where ``orders_rows`` holds
        start = len(self.propagators)
        pos = self.position_vars or []
        for a, b in zip(pos, pos[1:]):
            self._add((_Search._propagate_less_vars, (a, b, self.base[b] - self.base[a])), (a, b))
        self.row_order = (1 << len(self.propagators)) - (1 << start)
        # the active constraints of a parent view -> its root fixpoint
        self.roots: dict[tuple[int, ...], tuple[list[int] | None, int, int]] = {}
        # the active constraints of the view ``solve`` last found a solution
        # over -> (its search, the search's solutions from that one on); one
        # entry at most, taken by ``find_second`` with an atomic pop
        self.suspended: dict[tuple[int, ...], tuple] = {}

    def _add(self, propagator: tuple[Callable[..., bool], tuple], watched) -> None:
        bit = 1 << len(self.propagators)
        self.propagators.append(propagator)
        watchers = self.watchers
        for ident in watched:
            watchers[ident] |= bit

    def view(self, active) -> "ModelView":
        """This model with only the constraints at ``active`` (indices into
        ``model.constraints``) on: the empty view ``view(())`` plus them."""
        on = self._indices(active)
        return ModelView(self, on, ModelView(self, ()) if on else None)

    def _indices(self, active) -> tuple[int, ...]:
        on = tuple(sorted(set(active)))
        if on and not (0 <= on[0] and on[-1] < len(self.model.constraints)):
            raise InternalError(f"constraint indices {on[0]}..{on[-1]} outside the model")
        return on

    def items(self, active: tuple[int, ...]) -> int:
        """The mask of the work-list items of the constraints at ``active``."""
        mask = 0
        for i in active:
            mask |= 1 << (self.n_groups + i)
        return mask

    def referenced_selectors(self, active: tuple[int, ...]) -> list[int]:
        """The selectors some active constraint references, ascending; any
        other selector leaves every solution as it is."""
        scopes = self.model.scopes
        return sorted({s for i in active for s, _ in scopes[i].elems})

    def orders_rows(self, active: tuple[int, ...]) -> bool:
        """Whether the rows are interchangeable under the active constraints,
        none of which names a row var directly (``row_tied``), and carry a
        unique position field whose vars form an all-different group:
        ordering them by position then gives each solution table exactly one
        encoding."""
        return self.position_vars is not None and self.row_tied.isdisjoint(active)

    def fixpoint(self, view: "ModelView", search: "_Search") -> tuple[list[int] | None, int, int]:
        """The root fixpoint of ``view``, a parent of the view ``search``
        runs over, which orders rows as its child does: (its masks, the
        values it removed from the declared domains, its inert items that
        are on), with None for masks when it fails. It is computed once per
        set of active constraints, from its own parent's fixpoint where it
        has one (``_Search.root``), so along a chain of derived views each
        fixpoint propagates only the constraints its view added. It is
        computed under the clock of ``search``, the first search that asks,
        and a ``BudgetExceeded`` caches nothing."""
        pending = []  # the views up to the nearest cached one or the empty view
        ancestor: ModelView | None = view
        while ancestor is not None and ancestor.active not in self.roots:
            pending.append(ancestor)
            ancestor = ancestor.parent
        for ancestor in reversed(pending):
            helper = _Search(ancestor, search.budget)
            helper.start, helper.deadline = search.start, search.deadline
            root = helper.root(ancestor)
            if root is None:
                self.roots[ancestor.active] = None, 0, 0
            else:
                doms, inert = root
                self.roots[ancestor.active] = doms, helper.stats.propagations, inert ^ helper.off
        return self.roots[view.active]

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
        return _values(self.base[ident], mask)

    def initial_state(self) -> list[int]:
        return list(self.declared)

    # -- propagator matching -------------------------------------------------

    def _propagator(self, expr: CExpr, scope: Scope) -> tuple[Callable[..., bool], tuple]:
        """The dedicated propagator for the relation ``expr`` states, else the
        generic one, as an unbound _Search method and the arguments that
        follow (doms, dirty)."""
        reading = self._reading(expr)
        if reading is None:
            if (
                isinstance(expr, CCmp)
                and expr.op == "<"
                and isinstance(expr.left, CVar)
                and isinstance(expr.right, CVar)
                and expr.left.var != expr.right.var
            ):
                a, b = expr.left.var, expr.right.var
                return _Search._propagate_less_vars, (a, b, self.base[b] - self.base[a])
            return _Search._propagate_generic, (expr, scope)
        x, y, relation = reading
        if y is None:
            return _Search._propagate_elem_in, (x.selector, x.table, relation)
        d = self.base[y.table[0]] - self.base[x.table[0]]
        if isinstance(relation, set):
            # a shift by the widest mask's width or more meets no bit
            shifts = sorted(d + k for k in relation if abs(d + k) < self.width)
            relation = partial(_shifted, tuple(shifts))
        else:
            relation = partial(_less, d + relation)
        return _Search._propagate_elem_pair, (x.selector, x.table, y.selector, y.table, relation)

    def _reading(self, expr: CExpr) -> tuple | None:
        """The relation ``expr`` states over elements it names once each, the
        rest literals: ``(x, None, mask)``, x takes a value of the literal
        mask; ``(x, y, diffs)``, x - y is in ``diffs``; ``(x, y, m)``, x - y < m,
        x and y of distinct selectors. None for the rest, and for an ``==``
        where a generic set could pass _SET_CAP and widen to its range."""
        if type(expr) is not CCmp:
            if type(expr) is CBool and expr.op == "or":
                return reduce(_union, map(self._reading, expr.parts))
            return None
        op, left, right = expr.op, expr.left, expr.right
        absolute = op == "==" and type(left) is CAbs
        if absolute:
            left = left.arg
        terms: list[tuple[int, CElem]] = []
        c = _sum(left, 1, terms)
        if c is None:
            return None
        n = len(terms)
        rest = _sum(right, -1, terms)  # so the terms, c and rest sum to left - right
        if rest is None or (absolute and len(terms) != n):
            return None
        if op == "==" and self.width ** len(terms) > _SET_CAP:
            # the generic evaluator widens a sum whose two sets' sizes multiply
            # past the cap; on a side they are at most the product of its
            # elements' declared value counts, each at most the width
            declared = self.declared
            for side, part in ((left, terms[:n]), (right, terms[n:])):
                sizes = (_elem_values(declared, e.selector, e.table).bit_count() for _, e in part)
                if type(side) is CBin and prod(sizes) > _SET_CAP:
                    return None
        if len(terms) == 1 and not absolute:  # sign * x + c + rest op 0
            sign, x = terms[0]
            i = -sign * (c + rest) - self.base[x.table[0]]
            return x, None, _literal_mask(op, sign, i, self.width)
        if len(terms) != 2 or op == "!=":
            return None
        (s1, x), (s2, y) = terms
        if s1 == s2 or x.selector == y.selector:
            return None
        if s1 < 0:
            x, y = y, x
        if absolute:  # abs(x - y + c) == -rest
            return x, y, {-rest - c, rest - c} if rest <= 0 else set()
        return x, y, {-c - rest} if op == "==" else (op == "<=") - c - rest


@dataclass(frozen=True)
class ModelView:
    """A compiled model with only the constraints at ``active`` on: ascending
    indices into ``compiled.model.constraints``. It is what ``solve`` and
    ``find_second`` search; a plain model is compiled with all of them on.

    A view other than the empty one has a parent, a view whose constraints
    it has all on: the empty view for a view from ``CompiledModel.view``,
    and the view it was derived from for one from ``plus``. A search over a
    view that orders rows starts from its parent's root fixpoint, which the
    compiled model caches (``CompiledModel.fixpoint``)."""

    compiled: CompiledModel
    active: tuple[int, ...]
    parent: ModelView | None = field(default=None, repr=False, compare=False)

    def plus(self, indices) -> ModelView:
        """This view with the constraints at ``indices`` on as well, derived
        from it: a search over the result that orders rows propagates only
        the added constraints from this view's root fixpoint."""
        return ModelView(self.compiled, self.compiled._indices((*self.active, *indices)), self)

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
    the work-list items that are on, the row order among them where
    ``orders_rows`` holds. Each search state carries a mask of inert items,
    which are never scheduled: the items that are off, and those whose
    domains entail them (Schulte and Stuckey's subsumed propagators), which
    would change nothing in the state's subtree. The search keeps the
    compiled model's lists, not the model, so that a model can keep a
    suspended search without a reference cycle."""

    def __init__(self, view: ModelView, budget: Budget, trace=None):
        compiled = view.compiled
        self.budget = budget
        self.trace = trace
        self.stats = SolveStats()
        self.n_vars = compiled.n_vars
        self.base = compiled.base
        # masks of work-list items: bit i is item i
        self.constraints = compiled.items(view.active)
        self.on = self.constraints | ((1 << compiled.n_groups) - 1)
        self.ordered = compiled.orders_rows(view.active)
        if self.ordered:
            self.on |= compiled.row_order
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
            return set(_values(self.base[expr.var], doms[expr.var]))
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
                    out.update(_values(self.base[v], doms[v]))
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

    def root(self, view: ModelView) -> tuple[list[int], int] | None:
        """The root state of ``view``, propagated, and its inert mask; None
        when it fails. An ordered search starts from the root fixpoint of
        the view's parent, where only the constraints the view added are
        stale. The root fixpoint is unique, so it is the one a full pass
        reaches, with the parent's removals and its own counted; where it
        fails, the full pass runs instead, so that the count stops where the
        full pass fails."""
        compiled, parent = view.compiled, view.parent
        if self.ordered and parent is not None:
            cached, removed, entailed = compiled.fixpoint(parent, self)
            if cached is not None:
                doms = list(cached)
                before = self.stats.propagations
                stale = self.constraints ^ compiled.items(parent.active)
                inert = self.propagate(doms, self.off | entailed, stale)
                if inert is not None:
                    self.stats.propagations += removed
                    return doms, inert
                self.stats.propagations = before
        doms = compiled.initial_state()
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

    def _propagate_generic(self, doms: list[int], dirty: set[int], expr: CExpr, scope: Scope) -> bool:
        """Singleton tests over the scope: each selector that is not fixed,
        ascending, then the vars ``expr`` names and the picked var of every
        table of each fixed selector, in the scope's order."""
        if not self._abool(expr, doms)[0]:
            raise Contradiction()
        tested = -1  # a selector's tables are adjacent in the scope
        for sel, _ in scope.elems:
            if sel != tested and doms[sel] & (doms[sel] - 1):
                self._prune_generic(doms, dirty, expr, sel)
            tested = sel
        test_vars = dict.fromkeys(scope.vars)
        for sel, table in scope.elems:
            choice = doms[sel]
            if not choice & (choice - 1):
                test_vars[table[choice.bit_length() - 1]] = None
        for v in test_vars:
            if doms[v] & (doms[v] - 1):
                self._prune_generic(doms, dirty, expr, v)
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
    # Each one mirrors _propagate_generic step by step for one relation: the
    # same initial entailment check, then the selector values in selector-id
    # order, then the variables those fixed selectors (or the constraint
    # itself) name, each value tested in domain order. Each returns whether
    # the state it leaves entails the constraint, so that no narrower state
    # lets it prune.

    def _propagate_elem_in(
        self, doms: list[int], dirty: set[int], sel: int, table, allow: int
    ) -> bool:
        """elem(sel, table) takes a value of the mask ``allow``."""
        choices = doms[sel]
        hits = 0  # selector bits whose var can take a value of the mask
        for i in _bits(choices):
            if doms[table[i]] & allow:
                hits |= 1 << i
        if not hits:
            raise Contradiction()
        if hits != choices:
            self._remove(doms, sel, choices ^ hits, dirty)
        if hits & (hits - 1):
            return False
        var = table[hits.bit_length() - 1]
        drop = doms[var] & ~allow
        if drop:
            self._remove(doms, var, drop, dirty)
        return True  # the selector is fixed and its var lies within the mask

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
        """V_a < V_b over two distinct vars: the row order; d is
        base(b) - base(a). Once the check holds, min(a) < max(b) survive
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
        for ids in (range(self.n_vars), self.branched_selectors):
            best = best_size = None
            for ident in ids:
                size = doms[ident].bit_count()
                if size > 1 and (best_size is None or size < best_size):
                    best, best_size = ident, size
            if best is not None:
                return best
        return None

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

    def from_root(self, view: ModelView) -> Iterator[list[int]]:
        """Propagate the root of ``view`` (under ``clock``) and return the
        solutions below it, none where it fails. The iterator holds no
        reference to ``view``."""
        root = self.root(view)
        return self.solutions(*root) if root else iter(())

    def resume(self, budget: Budget) -> None:
        """Go on as a new search would: under ``budget``, with counters from
        zero and no trace. ``clock`` starts the budget."""
        self.budget = budget
        self.stats = SolveStats()
        self.trace = None

    @contextmanager
    def clock(self):
        """Start the time budget; record the elapsed time on exit."""
        self.start = time.perf_counter()
        self.deadline = self.start + self.budget.max_time
        try:
            yield
        finally:
            self.stats.elapsed = time.perf_counter() - self.start


def solve(
    model: ConstraintModel | ModelView, budget: Budget | None = None, trace=None
) -> SolveOutcome:
    """Find a first satisfying assignment, or prove Unsat by complete search.

    Where the rows are interchangeable (``orders_rows``), the search orders
    them by position, so each table has one encoding. After a solution, the
    search stays suspended on the compiled model for ``find_second``.

    Raises BudgetExceeded when the decision or time budget runs out: the
    caller must treat that as "unknown", never as Unsat.
    """
    view = _view(model)
    search = _Search(view, budget or Budget(), trace)
    with search.clock():
        found = search.from_root(view)
        solution = next(found, None)
    if solution is None:
        return SolveOutcome(Status.UNSAT, None, search.stats)
    assignment = dict(enumerate(solution))
    if not view.verify(assignment):
        raise InternalError("solver returned an assignment that fails verification")
    view.compiled.suspended = {view.active: (search, chain((solution,), found))}
    return SolveOutcome(Status.SAT, assignment, search.stats)


# --- ambiguity -------------------------------------------------------------------


def find_second(
    model: ConstraintModel | ModelView, first: SolutionTable, budget: Budget | None = None
) -> AmbiguityReport:
    """Search for a second solution table, one other than ``first``, or prove
    there is none. Selector variables never count toward distinctness, and
    row permutations of the same table are not reported as ambiguity.

    One depth-first search under one budget walks the solutions of the
    active constraints until one decodes to a table other than ``first``,
    and checks that one with ``verify``. When the rows are interchangeable
    under them (``orders_rows``), the search orders the rows by position,
    so each table is met once. Where ``solve`` left its search suspended
    over the same constraints, the walk goes on there from ``solve``'s own
    solution, as a search from the root would; the report counts only the
    part it ran. Raises BudgetExceeded when the budget runs out.
    """
    view = _view(model)
    compiled = view.compiled
    first_key = first.key()
    budget = budget or Budget()
    suspended = compiled.suspended.pop(view.active, None)
    if suspended is None:
        search, found = _Search(view, budget), None
    else:
        search, found = suspended
        search.resume(budget)
    assignment = second = None
    with search.clock():
        for solution in found or search.from_root(view):
            assignment = dict(enumerate(solution))
            table = decode(compiled.model, assignment)
            if table.key() != first_key:
                second = table
                break
    if second is not None and not view.verify(assignment):
        raise InternalError("uniqueness search returned an assignment that fails verification")
    return AmbiguityReport(second, search.stats)
