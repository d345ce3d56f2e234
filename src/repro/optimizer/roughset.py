"""Rough-Set-based search-space reduction (paper §III-B4, Fig. 5).

From the most recent population, split configurations into non-dominated
("squares") and dominated ("triangles").  Per parameter dimension, the new
boundary is the largest hyper-rectangle **limited by dominated points** that
still encloses all non-dominated points:

* lower bound = the largest dominated-point coordinate that is still ≤ the
  smallest non-dominated coordinate (falling back to the current search
  space's bound when no dominated point lies below);
* upper bound symmetrically.

The reduction is re-applied every iteration so the box can follow the
front as the population improves ("we continuously update the reduced
search space ... to gradually steer the search towards the area where the
optimal Pareto set is located").

This mechanism needs no domain knowledge — only the coordinates of already
evaluated configurations — which is the paper's stated advantage over
model-based space pruning.
"""

from __future__ import annotations

import numpy as np

from repro.optimizer.config import Configuration, objective_matrix, value_matrix
from repro.optimizer.pareto import non_dominated_mask
from repro.optimizer.space import Boundary

__all__ = ["rough_set_boundary"]


def rough_set_boundary(
    population: list[Configuration],
    full: Boundary,
    min_span_fraction: float = 0.1,
    protect: frozenset[str] | set[str] = frozenset(),
) -> Boundary:
    """Reduced boundary from *population* within the *full* space.

    ``protect`` names dimensions that are never reduced.  The driver
    protects the ``threads`` dimension by default: the Pareto front of
    (time, resources) contains one arm per thread count, and a box that
    clamps the thread range ejects whole arms irrecoverably (trials are
    snapped into the box, so excluded thread counts can never re-enter the
    population).  The paper illustrates its reduction on transformation
    parameters (Fig. 5) and reports fronts covering many more thread counts
    than a collapsed box could produce (|S| up to 28.6); an ablation
    benchmark (`bench_ablation_roughset`) shows what happens without the
    protection.

    ``min_span_fraction`` keeps each dimension's reduced span at a minimum
    fraction of the full span (re-centred around the non-dominated points).
    With small populations in few dimensions the raw largest-rectangle rule
    can collapse the box to near a point after a handful of iterations,
    choking the DE operator on duplicate configurations; the floor keeps the
    "imperfect knowledge" character of the rough approximation (the boundary
    region around the non-dominated set stays explorable) while still
    discarding the bulk of the space.

    Degenerate cases (no dominated points, or a fully non-dominated
    population) keep the full bounds in the affected dimensions.
    """
    if not population:
        return full
    vecs = value_matrix(population, full.space.names)
    nd_mask = non_dominated_mask(objective_matrix(population))
    if nd_mask.all() or not nd_mask.any():
        return full

    nd = vecs[nd_mask]
    dom = vecs[~nd_mask]
    # every dimension at once; each step is a compare, min or max except
    # the anti-collapse pad, which does the same float operations per
    # dimension as a scalar loop would, so the box is exact
    nd_min = nd.min(axis=0)
    nd_max = nd.max(axis=0)
    # the largest dominated coordinate still <= the front's smallest, and
    # the smallest still >= its largest (±inf where there is none)
    below = np.where(dom <= nd_min, dom, -np.inf).max(axis=0)
    above = np.where(dom >= nd_max, dom, np.inf).min(axis=0)
    # numerical safety: never exclude the non-dominated points
    lo = np.minimum(np.maximum(full.lo, below), nd_min)
    hi = np.maximum(np.minimum(full.hi, above), nd_max)
    # anti-collapse floor
    min_span = (full.hi - full.lo) * min_span_fraction
    span = hi - lo
    short = span < min_span
    pad = 0.5 * (min_span - span)
    lo = np.where(short, np.maximum(full.lo, lo - pad), lo)
    hi = np.where(short, np.minimum(full.hi, hi + pad), hi)
    protected = np.array([name in protect for name in full.space.names])
    lo = np.where(protected, full.lo, lo)
    hi = np.where(protected, full.hi, hi)
    return Boundary(space=full.space, lo=lo, hi=hi)
