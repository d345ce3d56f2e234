"""Pareto dominance primitives (minimization convention).

Definitions follow the paper §III-B1: configuration ``c1`` *dominates*
``c2`` if it is no worse in every objective and strictly better in at least
one; two configurations are *non-dominated* (w.r.t. each other) if neither
dominates; a set of mutually non-dominated configurations is a Pareto set.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Sequence

import numpy as np

__all__ = [
    "dominates",
    "pairwise_dominance",
    "non_dominated",
    "non_dominated_mask",
    "front_ranks",
    "sort_fronts",
    "first_front",
    "non_dominated_sort",
    "crowding",
    "crowding_distance",
]


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True iff objective vector *a* dominates *b* (all ≤, at least one <)."""
    if len(a) != len(b):
        raise ValueError("objective vectors must have equal length")
    not_worse = all(x <= y for x, y in zip(a, b))
    strictly_better = any(x < y for x, y in zip(a, b))
    return not_worse and strictly_better


def pairwise_dominance(
    a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Row-aligned dominance between two (N, m) objective arrays.

    Returns ``(a_dominates_b, b_dominates_a)`` boolean masks — row ``i``
    of the first mask is exactly ``dominates(a[i], b[i])``.  One
    broadcasted comparison replaces 2·N scalar :func:`dominates` calls in
    the GDE3 selection hot loop.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("objective arrays must have equal shape")
    a_le = a <= b
    a_lt = a < b
    a_dom = a_le.all(axis=1) & a_lt.any(axis=1)
    # b ≤ a is the complement of a < b elementwise; reuse the comparisons
    b_dom = (~a_lt).all(axis=1) & (~a_le).any(axis=1)
    return a_dom, b_dom


def _non_dominated_mask_2d(objs: np.ndarray) -> np.ndarray:
    """O(N log N) sweep for the bi-objective case: sort by the first
    objective, keep points strictly improving the running second-objective
    minimum (exact duplicates are all retained).  The sweep reads Python
    floats from ``tolist()``: the same comparisons as on NumPy scalars,
    without a NumPy scalar per element access."""
    n = objs.shape[0]
    mask = [False] * n
    order = np.lexsort((objs[:, 1], objs[:, 0])).tolist()
    first = objs[:, 0].tolist()
    second = objs[:, 1].tolist()
    best1 = math.inf
    i = 0
    while i < n:
        # group of equal first objective
        j = i
        v0 = first[order[i]]
        group_min = math.inf
        while j < n and first[order[j]] == v0:
            if second[order[j]] < group_min:
                group_min = second[order[j]]
            j += 1
        if group_min < best1:
            for k in range(i, j):
                idx = order[k]
                if second[idx] == group_min:
                    mask[idx] = True
            best1 = group_min
        i = j
    return np.array(mask, dtype=bool)


#: row-block size of the vectorized general-m sweep.  Smaller blocks let
#: the survivor filter discard dominated rows sooner (shrinking every
#: later candidate set); larger ones amortize per-block Python overhead.
#: 64 is the empirical sweet spot at populations of a few hundred points
#: (see ``benchmarks/test_select_speedup.py``).
_BLOCK = 64


def _non_dominated_mask_general(objs: np.ndarray) -> np.ndarray:
    """Vectorized general-m mask: lexicographically sorted blocked sweep.

    A dominator is elementwise ≤ with one strict <, so it sorts strictly
    before its victim lexicographically (identical rows dominate neither
    way).  Processing rows in that order, each block only needs one
    broadcasted dominance test against the survivors found so far plus
    the block itself — by transitivity every dominated point has a
    *non-dominated* dominator, so testing against survivors loses
    nothing.  Fronts are small in practice, which keeps the candidate
    side near ``_BLOCK`` rows instead of all N, and peak memory at
    ``O((F + _BLOCK) · _BLOCK · m)`` for front size F.  Output-identical
    to the per-row scalar sweep it replaced, which
    ``tests/optimizer_oracle.py`` keeps as its reference."""
    n, m = objs.shape
    # np.lexsort's last key is primary: reverse so column 0 sorts first
    order = np.lexsort(objs.T[::-1])
    rows = objs[order]
    keep = np.empty(n, dtype=bool)
    survivors = np.empty((0, m))
    for lo in range(0, n, _BLOCK):
        block = rows[lo : lo + _BLOCK]  # (b, m) candidate rows
        cand = np.concatenate([survivors, block])
        # dom[j, i]: candidate j dominates block row i.  Accumulating
        # per-objective 2-D outer comparisons sidesteps the (k, b, m)
        # intermediates (and their axis reductions) a single broadcast
        # would materialize.
        le_all = np.less_equal.outer(cand[:, 0], block[:, 0])
        lt_any = np.less.outer(cand[:, 0], block[:, 0])
        for j in range(1, m):
            le_all &= np.less_equal.outer(cand[:, j], block[:, j])
            lt_any |= np.less.outer(cand[:, j], block[:, j])
        kept = ~(le_all & lt_any).any(axis=0)
        keep[lo : lo + _BLOCK] = kept
        survivors = np.concatenate([survivors, block[kept]])
    mask = np.empty(n, dtype=bool)
    mask[order] = keep
    return mask


def non_dominated_mask(objs: np.ndarray) -> np.ndarray:
    """Boolean mask of the non-dominated rows of an (N, m) objective array.

    Bi-objective inputs use an O(N log N) sweep (brute-force fronts have
    ~10^5 points); the general case is a blocked broadcasted all-pairs
    dominance test — O(N²·m) element operations but a handful of NumPy
    calls per block instead of a Python-level pass per row.
    """
    objs = np.asarray(objs, dtype=float)
    n = objs.shape[0]
    if n == 0:
        return np.zeros(0, dtype=bool)
    if objs.shape[1] == 2:
        return _non_dominated_mask_2d(objs)
    return _non_dominated_mask_general(objs)


def non_dominated(items: Sequence, key=lambda x: x) -> list:
    """The non-dominated subset of *items*; ``key`` extracts the objective
    vector.  Duplicate objective vectors are all retained."""
    if not items:
        return []
    objs = np.array([key(it) for it in items], dtype=float)
    mask = non_dominated_mask(objs)
    return [it for it, keep in zip(items, mask) if keep]


def front_ranks(points: Sequence[Sequence[float]]) -> list[int]:
    """Non-dominated front index of each bi-objective point (0 = the
    Pareto front), in one pass.

    Points are visited sorted by (f0, f1), stably.  Each front's last
    visited point has the largest f0 in the front so far, so a later point
    is dominated by that front exactly when the last point's f1 is ≤ its
    own and the two are not equal; the last points' f1 never decrease from
    front to front, so the first front that does not dominate a point is a
    bisection away.  Exact duplicates are visited back to back and share a
    front.  The same fronts as peeling off :func:`non_dominated_mask` once
    per front (``tests/optimizer_oracle.py`` keeps that loop)."""
    rank = [0] * len(points)
    tail: list = []  # each front's last visited point
    tail_f1: list[float] = []  # its second objective, non-decreasing
    for i in sorted(range(len(points)), key=points.__getitem__):
        p = points[i]
        k = bisect_right(tail_f1, p[1])
        if k and tail[k - 1] == p:
            k -= 1  # an exact duplicate of that front's last point
        if k == len(tail):
            tail.append(p)
            tail_f1.append(p[1])
        else:
            tail[k] = p
            tail_f1[k] = p[1]
        rank[i] = k
    return rank


def sort_fronts(points: Sequence[Sequence[float]]) -> list[list[int]]:
    """Indices of *points* (rows of objectives) grouped by non-dominated
    front, best front first, ascending within a front.  Bi-objective
    points take one :func:`front_ranks` pass; otherwise each front is
    peeled off the rest with :func:`non_dominated_mask`."""
    n = len(points)
    if n == 0:
        return []
    if len(points[0]) == 2:
        ranks = front_ranks(points)
        fronts: list[list[int]] = [[] for _ in range(max(ranks) + 1)]
        for i, r in enumerate(ranks):
            fronts[r].append(i)
        return fronts
    objs = np.array(points, dtype=float)
    remaining = np.arange(n)
    fronts = []
    while remaining.size:
        mask = non_dominated_mask(objs[remaining])
        fronts.append(remaining[mask].tolist())
        remaining = remaining[~mask]
    return fronts


def first_front(points: Sequence[Sequence[float]]) -> list[int]:
    """Ascending indices of the non-dominated rows of *points* (exact
    duplicates all retained): rank 0 of :func:`front_ranks` for two
    objectives, :func:`non_dominated_mask` otherwise."""
    if not points:
        return []
    if len(points[0]) == 2:
        return [i for i, r in enumerate(front_ranks(points)) if r == 0]
    return np.flatnonzero(non_dominated_mask(np.array(points, dtype=float))).tolist()


def non_dominated_sort(objs: np.ndarray) -> list[np.ndarray]:
    """Non-dominated sorting: list of index arrays, best front first."""
    objs = np.asarray(objs, dtype=float)
    return [np.array(f, dtype=int) for f in sort_fronts(objs.tolist())]


def crowding(points: Sequence[Sequence[float]]) -> list[float]:
    """NSGA-II crowding distance of each point, on Python floats.

    Boundary points get infinite distance; interior points the sum of
    their neighbours' gaps per objective, each divided by the objective's
    span, added objective by objective in stable sort order — the float
    operations of the NumPy formulation, in its order."""
    n = len(points)
    if n <= 2:
        return [math.inf] * n
    dist = [0.0] * n
    for col in zip(*points):
        order = sorted(range(n), key=col.__getitem__)
        span = col[order[-1]] - col[order[0]]
        dist[order[0]] = math.inf
        dist[order[-1]] = math.inf
        if span <= 0:
            continue
        for a, i, b in zip(order, order[1:-1], order[2:]):
            dist[i] += (col[b] - col[a]) / span
    return dist


def crowding_distance(objs: np.ndarray) -> np.ndarray:
    """:func:`crowding` of each row of an (N, m) objective array."""
    return np.array(crowding(np.asarray(objs, dtype=float).tolist()), dtype=float)
