"""Exhaustive enumeration oracle, independent of the search solver.

Enumerates every instance table the domains and all-different groups allow
(injective selections per group, cartesian products elsewhere) and keeps the
tables for which some selector assignment satisfies all constraints. Used to
certify solver results and puzzle uniqueness at desk scale.

When the result class has a position field and constraints reach instances
only through selectors, tables are enumerated directly by fixing the position
group to ascending order: every table then appears exactly once instead of
once per row permutation. Evaluation is vectorized with numpy over blocks of
candidate tables.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ..errors import CapExceeded, InternalError
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
    domain_size,
    walk_cexpr,
)

DEFAULT_CAP = 10_000_000
_BLOCK = 1 << 16
_SELECTOR_CAP = 100_000


@dataclass(frozen=True)
class _Factor:
    var_ids: tuple[int, ...]
    choices: np.ndarray  # shape (n_choices, len(var_ids))


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

    # with interchangeable rows and exactly one position per row, every
    # table has one encoding: positions ascending from the lowest value
    rows, pf = model.layout.rows, model.layout.position_field
    canonical = model.rows_orderable() and domain_size(model.vars[rows[0].fields[pf]].domain) == len(rows)
    pinned_group: frozenset[int] = frozenset()
    factors: list[_Factor] = []
    fixed: dict[int, int] = {}
    if canonical:
        pinned_group = frozenset(row.fields[pf] for row in rows)
        for i, row in enumerate(rows):
            vid = row.fields[pf]
            fixed[vid] = min(model.vars[vid].values()) + i

    count = 1
    for group in model.alldiff_groups:
        if set(group) == set(pinned_group):
            continue
        values = model.vars[group[0]].values()
        perms = list(itertools.permutations(values, len(group)))
        count *= len(perms)
        if count > cap:
            raise CapExceeded(f"enumeration exceeds cap of {cap}")
        factors.append(_Factor(tuple(group), np.array(perms, dtype=np.int32)))
    for v in model.vars:
        if v.id in grouped or v.id in fixed:
            continue
        values = v.values()
        count *= len(values)
        if count > cap:
            raise CapExceeded(f"enumeration exceeds cap of {cap}")
        factors.append(_Factor((v.id,), np.array(values, dtype=np.int32).reshape(-1, 1)))

    clusters = _selector_clusters(model)
    solutions: list[dict[int, int]] = []
    seen_tables: set[tuple] = set()

    for start in range(0, count, _BLOCK):
        block = min(_BLOCK, count - start)
        table_idx = np.arange(start, start + block, dtype=np.int64)
        values = np.empty((block, n_vars), dtype=np.int32)
        for vid, val in fixed.items():
            values[:, vid] = val
        stride = 1
        for factor in reversed(factors):
            n_choices = factor.choices.shape[0]
            sel = (table_idx // stride) % n_choices
            values[:, list(factor.var_ids)] = factor.choices[sel]
            stride *= n_choices
        mask = np.ones(block, dtype=bool)
        for cluster_sels, cluster_constraints in clusters:
            mask &= _cluster_mask(model, values, cluster_sels, cluster_constraints)
            if not mask.any():
                break
        for row in np.flatnonzero(mask):
            assignment = {vid: int(values[row, vid]) for vid in range(n_vars)}
            if not canonical and model.layout.position_field is not None:
                from ..model.decode import decode

                key = decode(model, assignment).key()
                if key in seen_tables:
                    continue
                seen_tables.add(key)
            solutions.append(assignment)
    return solutions


def _selector_clusters(model: ConstraintModel):
    """Group constraints by shared selectors: within a cluster the selector
    choice must be consistent, across clusters it is independent."""
    n_vars = len(model.vars)
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


def _cluster_mask(
    model: ConstraintModel,
    values: np.ndarray,
    sels: tuple[int, ...],
    constraints: list[CExpr],
) -> np.ndarray:
    block = values.shape[0]
    if not sels:
        mask = np.ones(block, dtype=bool)
        for c in constraints:
            mask &= _vec_eval_bool(c, values, {})
        return mask
    domains = [model.selectors[s - len(model.vars)].values() for s in sels]
    if math.prod(len(d) for d in domains) > _SELECTOR_CAP:
        raise CapExceeded("selector combinations exceed the enumeration bound")
    mask = np.zeros(block, dtype=bool)
    for combo in itertools.product(*domains):
        if mask.all():
            break
        pick = dict(zip(sels, combo))
        combo_ok = np.ones(block, dtype=bool)
        for c in constraints:
            combo_ok &= _vec_eval_bool(c, values, pick)
            if not combo_ok.any():
                break
        mask |= combo_ok
    return mask


def _vec_eval_int(expr: CExpr, values: np.ndarray, pick: dict[int, int]) -> np.ndarray:
    if isinstance(expr, CLit):
        return np.int32(expr.value)
    if isinstance(expr, CVar):
        return values[:, expr.var]
    if isinstance(expr, CElem):
        return values[:, expr.table[pick[expr.selector]]]
    if isinstance(expr, CBin):
        left = _vec_eval_int(expr.left, values, pick)
        right = _vec_eval_int(expr.right, values, pick)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        return left * right
    assert isinstance(expr, CAbs)
    return np.abs(_vec_eval_int(expr.arg, values, pick))


def _vec_eval_bool(expr: CExpr, values: np.ndarray, pick: dict[int, int]) -> np.ndarray:
    if isinstance(expr, CCmp):
        left = _vec_eval_int(expr.left, values, pick)
        right = _vec_eval_int(expr.right, values, pick)
        if expr.op == "==":
            return left == right
        if expr.op == "!=":
            return left != right
        if expr.op == "<":
            return left < right
        if expr.op == "<=":
            return left <= right
        if expr.op == ">":
            return left > right
        return left >= right
    if isinstance(expr, CBool):
        block = values.shape[0]
        if not expr.parts:
            fill = expr.op == "and"
            return np.full(block, fill, dtype=bool)
        out = _vec_eval_bool(expr.parts[0], values, pick)
        for p in expr.parts[1:]:
            if expr.op == "and":
                out = out & _vec_eval_bool(p, values, pick)
            else:
                out = out | _vec_eval_bool(p, values, pick)
        return out
    if isinstance(expr, CNot):
        return ~_vec_eval_bool(expr.arg, values, pick)
    raise InternalError(f"non-boolean constraint root: {expr!r}")
