"""Exhaustive enumeration oracle, independent of the search solver.

Enumerates every instance table the domains and all-different groups allow
(injective selections per group, cartesian products elsewhere) and keeps the
tables for which some selector assignment satisfies all constraints. Used to
certify solver results and puzzle uniqueness at desk scale.

When the result class has a position field and constraints reach instances
only through selectors, tables are enumerated directly by giving the rows each
combination of the position domain in ascending order: every table then
appears exactly once instead of once per row permutation. The oracle walks
each constraint for the ids it reads, and does not use lowering's scopes.

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

    walks = [_walk(c) for c in model.constraints]
    # rows are interchangeable when no constraint names a row var directly;
    # then every table has one encoding: positions ascending in row order,
    # one combination of the position domain
    rows = model.layout.rows
    row_vars = {v for row in rows for v in row.values()} if len(rows) > 1 else set()
    interchangeable = all(row_vars.isdisjoint(named) for _, named, _ in walks)
    positions = model.position_vars() if interchangeable else None

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
    for sels, indices in _selector_clusters(walks):
        domains = [model.selectors[s - n_vars].values() for s in sels]
        if math.prod(len(d) for d in domains) > _SELECTOR_CAP:
            raise CapExceeded("selector combinations exceed the enumeration bound")
        # stage k holds the constraints whose last selector is sels[k - 1]
        stages: list[list[CExpr]] = [[] for _ in range(len(sels) + 1)]
        reads: set[int] = set()
        for i in indices:
            selectors, _, read = walks[i]
            reads |= read
            stages[sels.index(max(selectors)) + 1 if selectors else 0].append(model.constraints[i])
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


def _walk(expr: CExpr) -> tuple[set[int], set[int], set[int]]:
    """The selectors ``expr`` reads, the vars it names outside elem tables,
    and every var it reads."""
    selectors, named, tables = set(), set(), set()
    for node in walk_cexpr(expr):
        if isinstance(node, CVar):
            named.add(node.var)
        elif isinstance(node, CElem):
            selectors.add(node.selector)
            tables.update(node.table)
    return selectors, named, named | tables


def _selector_clusters(walks) -> list[tuple[tuple[int, ...], list[int]]]:
    """Group constraints, given the ``_walk`` of each, by shared selectors:
    within a cluster the selector choice must be consistent, across clusters
    it is independent. Each cluster is its selectors and the indices of its
    constraints, both ascending; the constraints that read no selector come
    first, as a cluster with none."""
    free: list[int] = []
    clusters: list[tuple[set[int], list[int]]] = []
    for i, (selectors, _, _) in enumerate(walks):
        if not selectors:
            free.append(i)
            continue
        sels, indices = set(selectors), [i]
        for cluster in [c for c in clusters if not c[0].isdisjoint(selectors)]:
            clusters.remove(cluster)
            sels |= cluster[0]
            indices += cluster[1]
        clusters.append((sels, indices))
    joined = sorted((tuple(sorted(sels)), sorted(indices)) for sels, indices in clusters)
    return ([((), free)] if free else []) + joined
