"""Native finite-domain solver: backtracking search with propagation.

There is one search, depth-first over explicit domains with
minimum-remaining-values variable order (ties to the lowest id) and ascending
value order; selector variables are branched only after every regular
variable is fixed, only if some constraint references them, and only until
they complete a solution. ``solve`` takes its first solution. This makes
outcomes and decision counts fully deterministic, and a model with extra
unreferenced selectors searches exactly like the same model without them.

Propagation runs one work list of propagators, the all-different groups
first and then the constraints, to a fixpoint:

* three-valued constraint evaluation over possible-value sets detects
  contradictions and prunes, via singleton tests, both selector values whose
  implied element constraints cannot hold and values of directly referenced
  variables (bounds-and-membership filtering for comparisons and arithmetic);
* all-different groups remove assigned values from peers and apply
  Hall-interval reasoning over the value range.

The singleton tests of the generic evaluator re-walk the constraint tree once
per tested value. When the solver is built, each constraint whose shape the
lowering emits gets a dedicated propagator instead (E is
``elem(selector, table)``, L a literal):

* ``E == L`` and ``E != L``;
* ``E1 == E2 - L``, ``E1 < E2`` and ``abs(E1 - E2) == L`` over two distinct
  selectors, when the value sets stay within ``_SET_CAP`` so that the generic
  arithmetic is exact.

A dedicated propagator removes exactly the values the generic singleton tests
remove, in the same order, and fails in the same states, so fixpoints,
decision and propagation counts and assignments do not depend on which one
ran. Every other shape (``and``, ``or``, ``not``, ``<=``, the same selector
on both sides, wide arithmetic, ...) uses the generic evaluator.

Pruning only ever uses over-approximations of reachable values, so no value
belonging to a satisfying assignment is removed.

Uniqueness (``find_second``) is one depth-first search under one deadline: the
search of ``solve`` continued past each solution over the regular variables,
until a solution decodes to a table other than the first one. When rows are
interchangeable and carry a unique position field, the searched model also
orders consecutive rows by position (a lexicographic symmetry-breaking
constraint), so each table is met once rather than once per row permutation.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial
from typing import Callable, Iterator

from ..errors import BudgetExceeded, InternalError
from ..model.constraints import (
    CAbs,
    CBin,
    CBool,
    CCmp,
    CElem,
    CExpr,
    CLit,
    CNot,
    CVar,
    ConstraintModel,
    walk_cexpr,
)
from ..model.decode import decode


@dataclass(frozen=True)
class Budget:
    max_decisions: int = 10_000_000
    max_time: float = 30.0


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
    if isinstance(expr, CBool):
        if expr.op == "and":
            return all(eval_cexpr(p, values) for p in expr.parts)
        return any(eval_cexpr(p, values) for p in expr.parts)
    assert isinstance(expr, CNot)
    return not eval_cexpr(expr.arg, values)


_CMP: dict[str, Callable[[int, int], bool]] = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def verify(model: ConstraintModel, assignment: dict[int, int]) -> bool:
    """Independent check that an assignment satisfies every constraint,
    every all-different group, and every domain."""
    for v in model.vars:
        if assignment.get(v.id) not in set(v.values()):
            return False
    for s in model.selectors:
        if not (0 <= assignment.get(s.id, -1) < s.list_len):
            return False
    for group in model.alldiff_groups:
        seen = [assignment[v] for v in group]
        if len(set(seen)) != len(seen):
            return False
    return all(eval_cexpr(c, assignment) for c in model.constraints)


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
    if op == "<=":
        return lo_l <= hi_r, hi_l > lo_r
    if op == ">":
        return hi_l > lo_r, lo_l <= hi_r
    assert op == ">="
    return hi_l >= lo_r, lo_l < hi_r


class _State:
    """Mutable search state: one explicit domain per id (vars then selectors)."""

    __slots__ = ("doms",)

    def __init__(self, doms: list[list[int]]):
        self.doms = doms

    def copy(self) -> "_State":
        return _State([d[:] for d in self.doms])


class Contradiction(Exception):
    pass


@dataclass
class _ConstraintMeta:
    expr: CExpr
    selectors: list[tuple[int, tuple[int, ...]]]  # (selector id, var table)
    bare_vars: list[int]  # vars referenced outside elem tables
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


def _elem_values(doms, sel: int, table) -> set[int]:
    out: set[int] = set()
    for j in doms[sel]:
        out.update(doms[table[j]])
    return out


def _elem_values_except(doms, sel: int, table, var: int) -> tuple[set[int], bool]:
    """Values of elem(sel, table) reached through vars other than ``var``,
    and whether ``var`` itself is reachable."""
    out: set[int] = set()
    hit = False
    for j in doms[sel]:
        v = table[j]
        if v == var:
            hit = True
        else:
            out.update(doms[v])
    return out, hit


def _elem_pair(expr: CCmp, reach: Callable[[CElem], int]):
    """Match ``E1 < E2``, ``E1 == E2 - L`` and ``abs(E1 - E2) == L`` over two
    distinct selectors: (E1, E2, relation over the two sides' value sets).

    ``reach`` bounds how many values an elem can take. No match where the
    generic evaluator's arithmetic could exceed _SET_CAP and widen a set to
    its range, which an exact relation would not do."""
    left, right = expr.left, expr.right
    if expr.op == "<" and isinstance(left, CElem) and isinstance(right, CElem):
        e1, e2, relation = left, right, _less
    elif (
        expr.op == "=="
        and isinstance(left, CElem)
        and isinstance(right, CBin)
        and right.op == "-"
        and isinstance(right.left, CElem)
        and isinstance(right.right, CLit)
    ):
        e1, e2, k = left, right.left, right.right.value
        if reach(e2) > _SET_CAP:
            return None
        relation = partial(_equals_minus, k)
    elif (
        expr.op == "=="
        and isinstance(right, CLit)
        and isinstance(left, CAbs)
        and isinstance(left.arg, CBin)
        and left.arg.op == "-"
        and isinstance(left.arg.left, CElem)
        and isinstance(left.arg.right, CElem)
    ):
        e1, e2, k = left.arg.left, left.arg.right, right.value
        if reach(e1) * reach(e2) > _SET_CAP:
            return None
        relation = partial(_abs_difference_is, k)
    else:
        return None
    return (e1, e2, relation) if e1.selector != e2.selector else None


def _less(xs: set[int], ys: set[int]) -> bool:
    return min(xs) < max(ys)


def _equals_minus(k: int, xs: set[int], ys: set[int]) -> bool:
    return any(y - k in xs for y in ys)


def _abs_difference_is(k: int, xs: set[int], ys: set[int]) -> bool:
    return k >= 0 and any(y + k in xs or y - k in xs for y in ys)


class _Solver:
    def __init__(self, model: ConstraintModel, budget: Budget, trace=None):
        self.model = model
        self.budget = budget
        self.trace = trace
        self.stats = SolveStats()
        self.n_vars = len(model.vars)
        self.n_ids = model.n_ids
        self.meta = [_constraint_meta(c) for c in model.constraints]
        # (function, arguments) per all-different group, then per constraint;
        # unbound, so that a solver holds no reference cycle and is freed as
        # soon as it is dropped
        self.propagators = [(_Solver._propagate_group, (group,)) for group in model.alldiff_groups]
        self.propagators += [_propagator(m, model) for m in self.meta]
        watched = list(model.alldiff_groups) + [m.watched for m in self.meta]
        self.watchers: list[list[int]] = [[] for _ in range(self.n_ids)]
        for item, ids in enumerate(watched):
            for ident in ids:
                self.watchers[ident].append(item)
        # a selector no constraint references leaves every solution as it is
        self.branched_selectors = [s for s in range(self.n_vars, self.n_ids) if self.watchers[s]]

    # -- domain plumbing ---------------------------------------------------

    def initial_state(self) -> _State:
        return _State([sorted(self.model.domain_of(i)) for i in range(self.n_ids)])

    def _remove(self, state: _State, ident: int, value: int, dirty: set[int]) -> None:
        dom = state.doms[ident]
        dom.remove(value)
        self.stats.propagations += 1
        if not dom:
            raise Contradiction()
        dirty.add(ident)

    # -- abstract evaluation over current domains --------------------------

    def _aset(self, expr: CExpr, doms, pin_id: int, pin_val: int) -> set[int]:
        if isinstance(expr, CLit):
            return {expr.value}
        if isinstance(expr, CVar):
            if expr.var == pin_id:
                return {pin_val}
            return set(doms[expr.var])
        if isinstance(expr, CElem):
            if expr.selector == pin_id:
                choices = (pin_val,)
            else:
                choices = doms[expr.selector]
            out: set[int] = set()
            for j in choices:
                v = expr.table[j]
                if v == pin_id:
                    out.add(pin_val)
                else:
                    out.update(doms[v])
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
            if expr.op == "and":
                can_true, can_false = True, False
                for p in expr.parts:
                    t, f = self._abool(p, doms, pin_id, pin_val)
                    can_true = can_true and t
                    can_false = can_false or f
            else:
                can_true, can_false = False, True
                for p in expr.parts:
                    t, f = self._abool(p, doms, pin_id, pin_val)
                    can_true = can_true or t
                    can_false = can_false and f
            return can_true, can_false
        if isinstance(expr, CNot):
            t, f = self._abool(expr.arg, doms, pin_id, pin_val)
            return f, t
        raise InternalError(f"non-boolean constraint root: {expr!r}")

    # -- propagation --------------------------------------------------------

    def propagate(self, state: _State) -> bool:
        """Run to fixpoint. Returns False on contradiction. The fixpoint is
        unique (all propagators are monotone), so processing order only
        affects intermediate work, never the result."""
        queued = [True] * len(self.propagators)
        queue = deque(range(len(queued)))
        try:
            while queue:
                item = queue.popleft()
                queued[item] = False
                dirty: set[int] = set()
                propagator, args = self.propagators[item]
                propagator(self, state, dirty, *args)
                for ident in sorted(dirty):
                    for watcher in self.watchers[ident]:
                        if not queued[watcher]:
                            queued[watcher] = True
                            queue.append(watcher)
            return True
        except Contradiction:
            return False

    def _propagate_group(self, state: _State, dirty: set[int], group: tuple[int, ...]) -> None:
        doms = state.doms
        # assigned values leave every peer
        for v in group:
            if len(doms[v]) == 1:
                val = doms[v][0]
                for w in group:
                    if w != v and val in doms[w]:
                        self._remove(state, w, val, dirty)
        # Hall intervals over the remaining value range
        union = sorted({val for v in group for val in doms[v]})
        if len(union) < len(group):
            raise Contradiction()
        for ai in range(len(union)):
            for bi in range(ai, len(union)):
                lo, hi = union[ai], union[bi]
                capacity = bi - ai + 1
                inside = [v for v in group if doms[v][0] >= lo and doms[v][-1] <= hi]
                if len(inside) > capacity:
                    raise Contradiction()
                if len(inside) == capacity:
                    for v in group:
                        if v in inside:
                            continue
                        for val in [x for x in doms[v] if lo <= x <= hi]:
                            self._remove(state, v, val, dirty)

    def _propagate_generic(self, state: _State, dirty: set[int], meta: _ConstraintMeta) -> None:
        doms = state.doms
        can_true, _ = self._abool(meta.expr, doms)
        if not can_true:
            raise Contradiction()
        for sel, table in meta.selectors:
            if len(doms[sel]) > 1:
                for j in list(doms[sel]):
                    if not self._abool(meta.expr, doms, sel, j)[0]:
                        self._remove(state, sel, j, dirty)
        test_vars = dict.fromkeys(meta.bare_vars)
        for sel, table in meta.selectors:
            if len(doms[sel]) == 1:
                test_vars[table[doms[sel][0]]] = None
        for v in test_vars:
            if len(doms[v]) > 1:
                for a in list(doms[v]):
                    if not self._abool(meta.expr, doms, v, a)[0]:
                        self._remove(state, v, a, dirty)

    # -- dedicated propagators -----------------------------------------------
    #
    # Each one mirrors _propagate_generic step by step for one constraint
    # shape: the same initial entailment check, then the selector values in
    # selector-id order, then the variables those fixed selectors (or the
    # constraint itself) name, each value tested in domain order.

    def _propagate_elem_eq(self, state: _State, dirty: set[int], sel: int, table, lit: int) -> None:
        doms = state.doms
        choices = doms[sel]
        if not any(lit in doms[table[j]] for j in choices):
            raise Contradiction()
        if len(choices) > 1:
            for j in list(choices):
                if lit not in doms[table[j]]:
                    self._remove(state, sel, j, dirty)
        if len(choices) == 1:
            var = table[choices[0]]
            if len(doms[var]) > 1:
                for a in list(doms[var]):
                    if a != lit:
                        self._remove(state, var, a, dirty)

    def _propagate_elem_ne(self, state: _State, dirty: set[int], sel: int, table, lit: int) -> None:
        doms = state.doms
        choices = doms[sel]
        fixed = [lit]
        if all(doms[table[j]] == fixed for j in choices):
            raise Contradiction()
        if len(choices) > 1:
            for j in list(choices):
                if doms[table[j]] == fixed:
                    self._remove(state, sel, j, dirty)
        if len(choices) == 1:
            var = table[choices[0]]
            if len(doms[var]) > 1 and lit in doms[var]:
                self._remove(state, var, lit, dirty)

    def _propagate_elem_pair(
        self, state: _State, dirty: set[int], s1: int, t1, s2: int, t2, relation
    ) -> None:
        """relation(xs, ys) says whether values xs of elem(s1, t1) and ys of
        elem(s2, t2) can satisfy the constraint; s1 != s2."""
        doms = state.doms
        if not relation(_elem_values(doms, s1, t1), _elem_values(doms, s2, t2)):
            raise Contradiction()
        # pinning one selector leaves the other side's value set unchanged
        for sel in sorted((s1, s2)):
            if len(doms[sel]) <= 1:
                continue
            if sel == s1:
                ys = _elem_values(doms, s2, t2)
                for j in list(doms[s1]):
                    if not relation(set(doms[t1[j]]), ys):
                        self._remove(state, s1, j, dirty)
            else:
                xs = _elem_values(doms, s1, t1)
                for j in list(doms[s2]):
                    if not relation(xs, set(doms[t2[j]])):
                        self._remove(state, s2, j, dirty)
        test_vars: dict[int, None] = {}
        for sel, table in sorted(((s1, t1), (s2, t2))):
            if len(doms[sel]) == 1:
                test_vars[table[doms[sel][0]]] = None
        for var in test_vars:
            if len(doms[var]) <= 1:
                continue
            xs, x_hit = _elem_values_except(doms, s1, t1, var)
            ys, y_hit = _elem_values_except(doms, s2, t2, var)
            for a in list(doms[var]):
                if not relation(xs | {a} if x_hit else xs, ys | {a} if y_hit else ys):
                    self._remove(state, var, a, dirty)

    # -- search --------------------------------------------------------------

    def _pick(self, state: _State) -> int | None:
        best = None
        best_size = None
        for ident in range(self.n_vars):
            size = len(state.doms[ident])
            if size > 1 and (best_size is None or size < best_size):
                best, best_size = ident, size
        if best is not None:
            return best
        for ident in self.branched_selectors:
            size = len(state.doms[ident])
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
            raise BudgetExceeded(
                "time budget exhausted",
                self.stats.decisions,
                time.perf_counter() - self.start,
            )

    def solutions(self, state: _State) -> Iterator[list[int]]:
        """Depth-first search from ``state``, yielding one solution per
        assignment of the regular variables: below the last regular
        variable, selectors are branched only until they complete a
        solution, so solutions that differ only in selectors are found once."""
        ident = self._pick(state)
        if ident is None:
            yield [d[0] for d in state.doms]
            return
        for value in list(state.doms[ident]):
            self._tick()
            if self.trace:
                self.trace(f"decide {ident}={value}")
            child = state.copy()
            child.doms[ident] = [value]
            if self.propagate(child):
                for found in self.solutions(child):
                    yield found
                    if ident >= self.n_vars:
                        return
            if self.trace:
                self.trace(f"backtrack {ident}={value}")

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
            state = self.initial_state()
            solution = next(self.solutions(state), None) if self.propagate(state) else None
        if solution is None:
            return SolveOutcome(Status.UNSAT, None, self.stats)
        assignment = {i: solution[i] for i in range(self.n_ids)}
        if not verify(self.model, assignment):
            raise InternalError("solver returned an assignment that fails verification")
        return SolveOutcome(Status.SAT, assignment, self.stats)


def _propagator(meta: _ConstraintMeta, model: ConstraintModel) -> tuple[Callable[..., None], tuple]:
    """The dedicated propagator for meta's shape, else the generic one, as
    an unbound _Solver method and the arguments that follow (state, dirty)."""
    expr = meta.expr
    if isinstance(expr, CCmp):
        left, right = expr.left, expr.right
        if isinstance(right, CLit) and expr.op in ("==", "!=") and isinstance(left, CElem):
            method = _Solver._propagate_elem_eq if expr.op == "==" else _Solver._propagate_elem_ne
            return method, (left.selector, left.table, right.value)

        def reach(elem: CElem) -> int:
            """How many values elem can take under the declared domains (the
            domains propagation starts from and only ever narrows)."""
            return len({value for v in elem.table for value in model.domain_of(v)})

        pair = _elem_pair(expr, reach)
        if pair is not None:
            e1, e2, relation = pair
            return _Solver._propagate_elem_pair, (e1.selector, e1.table, e2.selector, e2.table, relation)
    return _Solver._propagate_generic, (meta,)


def solve(model: ConstraintModel, budget: Budget | None = None, trace=None) -> SolveOutcome:
    """Find a first satisfying assignment, or prove Unsat by complete search.

    Raises BudgetExceeded when the decision or time budget runs out: the
    caller must treat that as "unknown", never as Unsat.
    """
    return _Solver(model, budget or Budget(), trace).run()


def propagate_domains(
    model: ConstraintModel, domains: dict[int, list[int]] | None = None
) -> dict[int, list[int]] | None:
    """Run propagation alone (no search) from the declared domains, narrowed
    to ``domains`` where given, and return the pruned domains, or None on
    contradiction. Intended for tests and debugging."""
    solver = _Solver(model, Budget())
    state = solver.initial_state()
    if domains:
        for ident, dom in domains.items():
            state.doms[ident] = sorted(dom)
    if not solver.propagate(state):
        return None
    return {i: list(d) for i, d in enumerate(state.doms)}


# --- ambiguity -------------------------------------------------------------------


def find_second(
    model: ConstraintModel, first: dict[int, int], budget: Budget | None = None
) -> AmbiguityReport:
    """Search for a second assignment whose decoded table differs from the
    first one's, or prove there is none. Selector variables never count
    toward distinctness, and row permutations of the same table are not
    reported as ambiguity.

    One depth-first search under one budget walks the solutions of the
    row-ordered model (``_row_ordered``) until one decodes to a table other
    than ``first``'s. Raises BudgetExceeded when the budget runs out first.
    """
    model = _row_ordered(model)
    first_key = decode(model, first).key()
    solver = _Solver(model, budget or Budget())
    second = None
    with solver.clock():
        state = solver.initial_state()
        if solver.propagate(state):
            for solution in solver.solutions(state):
                assignment = dict(enumerate(solution))
                if decode(model, assignment).key() != first_key:
                    second = assignment
                    break
    if second is not None and not verify(model, second):
        raise InternalError("uniqueness search returned an assignment that fails verification")
    return AmbiguityReport(first, second, solver.stats)


def _row_ordered(model: ConstraintModel) -> ConstraintModel:
    """``model`` plus ``pos[i] < pos[i+1]`` over consecutive rows when its
    rows are interchangeable (``rows_orderable``): every solution table then
    has exactly one encoding. Otherwise ``model`` itself."""
    if not model.rows_orderable():
        return model
    pf = model.layout.position_field
    pos = [row.fields[pf] for row in model.layout.rows]
    order = [CCmp("<", CVar(a), CVar(b)) for a, b in zip(pos, pos[1:])]
    return replace(model, constraints=list(model.constraints) + order)
