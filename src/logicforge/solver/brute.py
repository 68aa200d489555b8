"""Exhaustive enumeration oracle, independent of the search solver.

Enumerates every instance table the domains and all-different groups allow
(injective selections per group, cartesian products elsewhere) and keeps the
tables for which some selector assignment satisfies all constraints. Used to
certify solver results and puzzle uniqueness at desk scale.

When the result class has a position field and constraints reach instances
only through selectors, tables are enumerated directly by giving the rows each
combination of the position domain in ascending order: every table then
appears exactly once instead of once per row permutation.

Tables are built depth first, one factor (a group or a free variable) at a
time, and each constraint cluster is tested as soon as every variable it reads
is set, so a partial table that fails one is not extended: a join as in bucket
elimination (Dechter, AIJ 1999). Values are Python ints, so arithmetic is
exact. The only thing taken from the engine is ``eval_cexpr``, the concrete
evaluator ``verify`` uses; nothing of propagation or search is shared.
"""

from __future__ import annotations

import itertools
import math

from ..errors import CapExceeded, InternalError
from ..model.constraints import CElem, CExpr, CVar, ConstraintModel, walk_cexpr
from ..model.decode import decode
from .engine import eval_cexpr

DEFAULT_CAP = 10_000_000
_SELECTOR_CAP = 100_000


def brute_force(model: ConstraintModel, cap: int = DEFAULT_CAP) -> list[dict[int, int]]:
    """All satisfying tables as assignments over the regular variables.

    Raises CapExceeded when the enumeration (product of domain sizes after
    all-different factorisation) would exceed ``cap``.
    """
    n_vars = len(model.vars)
    grouped: set[int] = set()
    for group in model.alldiff_groups:
        for v in group:
            if v in grouped:
                raise InternalError("brute force requires disjoint alldiff groups")
            grouped.add(v)

    # with interchangeable rows, every table has one encoding: positions
    # ascending in row order, one combination of the position domain
    positions = model.position_vars() if model.rows_orderable() else None

    count = 1
    factors: list[tuple[tuple[int, ...], list[tuple[int, ...]]]] = []
    for group in model.alldiff_groups:
        values = model.vars[group[0]].values()
        if positions is not None and set(group) == set(positions):
            group, choices = positions, list(itertools.combinations(values, len(group)))
        else:
            choices = list(itertools.permutations(values, len(group)))
        count *= len(choices)
        if count > cap:
            raise CapExceeded(f"enumeration exceeds cap of {cap}")
        factors.append((tuple(group), choices))
    for v in model.vars:
        if v.id in grouped:
            continue
        values = v.values()
        count *= len(values)
        if count > cap:
            raise CapExceeded(f"enumeration exceeds cap of {cap}")
        factors.append(((v.id,), [(value,) for value in values]))

    # each cluster is tested at the depth of the last factor it reads
    depth_of = {vid: depth for depth, (ids, _) in enumerate(factors) for vid in ids}
    ready: list[list] = [[] for _ in range(len(factors) + 1)]
    for sels, constraints in _selector_clusters(model):
        domains = [model.selectors[s - n_vars].values() for s in sels]
        if math.prod(len(d) for d in domains) > _SELECTOR_CAP:
            raise CapExceeded("selector combinations exceed the enumeration bound")
        # stage k holds the constraints whose last selector is sels[k - 1]
        stages: list[list[CExpr]] = [[] for _ in range(len(sels) + 1)]
        reads: set[int] = set()
        for c in constraints:
            stage = 0
            for node in walk_cexpr(c):
                if isinstance(node, CVar):
                    reads.add(node.var)
                elif isinstance(node, CElem):
                    reads.update(node.table)
                    stage = max(stage, sels.index(node.selector) + 1)
            stages[stage].append(c)
        depth = max((depth_of[v] + 1 for v in reads), default=0)
        ready[depth].append((tuple(zip(sels, domains)), stages))

    # the table so far, then the selector picks, indexed by id
    current: list[int] = [0] * model.n_ids
    solutions: list[dict[int, int]] = []
    seen_tables: set[tuple] = set()

    def extend(depth: int) -> None:
        if not all(_satisfiable(current, picks, stages) for picks, stages in ready[depth]):
            return
        if depth == len(factors):
            assignment = {vid: current[vid] for vid in range(n_vars)}
            if positions is None and model.layout.position_field is not None:
                key = decode(model, assignment).key()
                if key in seen_tables:
                    return
                seen_tables.add(key)
            solutions.append(assignment)
            return
        ids, choices = factors[depth]
        for choice in choices:
            for vid, value in zip(ids, choice):
                current[vid] = value
            extend(depth + 1)

    extend(0)
    return solutions


def _satisfiable(
    values: list[int],
    picks: tuple[tuple[int, range], ...],
    stages: list[list[CExpr]],
    k: int = 0,
) -> bool:
    """Whether some choice of the selectors in ``picks[k:]`` satisfies every
    constraint in ``stages[k:]``, picking one selector at a time."""
    if not all(eval_cexpr(c, values) for c in stages[k]):
        return False
    if k == len(picks):
        return True
    sel, domain = picks[k]
    for pick in domain:
        values[sel] = pick
        if _satisfiable(values, picks, stages, k + 1):
            return True
    return False


def _selector_clusters(model: ConstraintModel):
    """Group constraints by shared selectors: within a cluster the selector
    choice must be consistent, across clusters it is independent."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        parent[find(a)] = find(b)

    constraint_sels: list[list[int]] = []
    for c in model.constraints:
        sels = sorted(
            {node.selector for node in walk_cexpr(c) if isinstance(node, CElem)}
        )
        constraint_sels.append(sels)
        for s in sels[1:]:
            union(sels[0], s)

    clusters: dict[int, tuple[list[int], list[CExpr]]] = {}
    free_constraints: list[CExpr] = []
    for c, sels in zip(model.constraints, constraint_sels):
        if not sels:
            free_constraints.append(c)
            continue
        root = find(sels[0])
        entry = clusters.setdefault(root, ([], []))
        for s in sels:
            if s not in entry[0]:
                entry[0].append(s)
        entry[1].append(c)
    result = []
    if free_constraints:
        result.append(((), free_constraints))
    for root in sorted(clusters):
        sels, constraints = clusters[root]
        result.append((tuple(sorted(sels)), constraints))
    return result
