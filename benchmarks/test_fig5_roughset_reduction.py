"""Figures 4 & 5 — RS-GDE3's iterative search-space reduction.

The paper illustrates how the rough-set mechanism shrinks the search space
around the non-dominated solutions each iteration while GDE3 improves the
population.  We trace an actual mm run: the boundary-box volume fraction
per iteration and the evaluation budget.

Shape targets: the tile-dimension box shrinks by orders of magnitude
within a few iterations (the whole point of the reduction), never excludes
the current non-dominated set, and the protected thread dimension keeps
its full range.
"""

from __future__ import annotations

import numpy as np
from conftest import print_banner

from repro.experiments import make_setup
from repro.machine import WESTMERE
from repro.optimizer import RSGDE3
from repro.optimizer.gde3 import GDE3
from repro.optimizer.pareto import non_dominated
from repro.optimizer.roughset import rough_set_boundary
from repro.util.rng import derive_rng


def trace_run(generations: int = 12):
    setup = make_setup("mm", WESTMERE)
    problem = setup.problem(seed=5)
    gde3 = GDE3(problem)
    rng = derive_rng(5, "fig5")
    full = problem.space.full_boundary()
    pop = problem.evaluate_batch(full.sample(rng, gde3.settings.population_size))
    names = problem.space.names
    thr_idx = names.index("threads")

    rows = []
    box = full
    for gen in range(generations):
        box = rough_set_boundary(pop, full, protect={"threads"})
        front = non_dominated(pop, key=lambda c: c.objectives)
        # every front point inside the box?
        contained = all(box.contains(c.vector(names)) for c in front)
        rows.append(
            {
                "gen": gen,
                "volume": box.volume_fraction(),
                "front": len(front),
                "thr_span": (box.lo[thr_idx], box.hi[thr_idx]),
                "contained": contained,
                "evaluations": problem.evaluations,
            }
        )
        trials = problem.evaluate_batch(gde3.propose(pop, box, rng))
        pop = gde3.select(pop, trials)
    return rows, problem.space.full_boundary()


def test_fig5_boundary_reduction_dynamics(benchmark):
    rows, full = benchmark.pedantic(trace_run, rounds=1, iterations=1)

    print_banner("FIGURES 4/5 — rough-set boundary dynamics (mm, Westmere)")
    print(" gen | box volume | |front| | threads span | E so far")
    for r in rows:
        bar = "#" * max(1, int(-np.log10(max(r["volume"], 1e-12)) * 4))
        print(
            f" {r['gen']:3d} | {r['volume']:10.2e} | {r['front']:7d} | "
            f"[{r['thr_span'][0]:.0f}, {r['thr_span'][1]:.0f}]      | {r['evaluations']:5d}  {bar}"
        )

    # the reduction is drastic: by mid-run the box covers <1% of the space
    assert rows[-1]["volume"] < 0.01
    assert min(r["volume"] for r in rows) < rows[0]["volume"]
    # the box never drops a non-dominated point
    assert all(r["contained"] for r in rows)
    # the protected thread dimension keeps its full span
    names_full_span = (full.lo[-1], full.hi[-1])
    assert all(r["thr_span"] == names_full_span for r in rows)
