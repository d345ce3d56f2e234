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

from repro.optimizer.config import Configuration
from repro.optimizer.pareto import first_front
from repro.optimizer.space import Boundary

__all__ = ["rough_set_boundary"]


def rough_set_boundary(
    population: list[Configuration],
    full: Boundary,
    min_span_fraction: float = 0.1,
    protect: frozenset[str] | set[str] = frozenset(),
    front: list[int] | None = None,
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

    ``front`` gives the ascending positions of the population's
    non-dominated members when the caller has ranked it already
    (:attr:`GDE3.front <repro.optimizer.gde3.GDE3.front>`); otherwise they
    are found here.

    Degenerate cases (no dominated points, or a fully non-dominated
    population) keep the full bounds in the affected dimensions.
    """
    if not population:
        return full
    if front is None:
        front = first_front([c.objectives for c in population])
    if not front or len(front) == len(population):
        return full
    nd_set = set(front)
    dominated = [i for i in range(len(population)) if i not in nd_set]
    # each configuration's values are sorted by name
    position = {name: j for j, name in enumerate(sorted(full.space.names))}
    lo_out, hi_out = [], []
    # per dimension, the compare / min / max / pad steps on Python scalars
    # (values are ints, exact as floats): the float operations of the
    # per-dimension NumPy loop, so the box is exact
    for name, full_lo, full_hi in zip(
        full.space.names, full.lo.tolist(), full.hi.tolist()
    ):
        if name in protect:
            lo_out.append(full_lo)
            hi_out.append(full_hi)
            continue
        j = position[name]
        nd = [population[i].values[j][1] for i in front]
        dom = [population[i].values[j][1] for i in dominated]
        nd_min = min(nd)
        nd_max = max(nd)
        lo, hi = full_lo, full_hi
        # the largest dominated coordinate still <= the front's smallest,
        # and the smallest still >= its largest
        below = [x for x in dom if x <= nd_min]
        above = [x for x in dom if x >= nd_max]
        if below:
            lo = max(lo, max(below))
        if above:
            hi = min(hi, min(above))
        # numerical safety: never exclude the non-dominated points
        lo = min(lo, nd_min)
        hi = max(hi, nd_max)
        # anti-collapse floor
        min_span = (full_hi - full_lo) * min_span_fraction
        span = hi - lo
        if span < min_span:
            pad = 0.5 * (min_span - span)
            lo = max(full_lo, lo - pad)
            hi = min(full_hi, hi + pad)
        lo_out.append(lo)
        hi_out.append(hi)
    return Boundary(
        space=full.space,
        lo=np.array(lo_out, dtype=float),
        hi=np.array(hi_out, dtype=float),
    )
