"""GDE3 — Generalized Differential Evolution 3 (Kukkonen & Lampinen, 2005).

The paper (§III-B3) selects GDE3 "due to its acceptable robustness and fast
convergence rate" and runs it with CR = F = 0.5 and a population of 30.

One generation (this module) works on a population of evaluated
configurations within a boundary box ``B``:

1. for each member ``a``, pick distinct ``b, c, d`` and build the trial
   ``r_i = b_i + F (c_i − d_i)`` with crossover probability CR (plus one
   forced index) — the paper's Algorithm 1 — then snap ``r`` into ``B``
   via ``getClosestTo``;
2. evaluate all trials (as a batch — the paper evaluates configurations in
   parallel);
3. selection: the trial replaces a dominating-or-dominated target the usual
   DE way; mutually non-dominated trial/target pairs are both kept and the
   population is truncated back to size NP by non-dominated sorting with
   crowding distance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.optimizer.config import Configuration, objective_matrix, value_matrix
from repro.optimizer.pareto import (
    crowding,
    pairwise_dominance,
    sort_fronts,
)
from repro.optimizer.problem import TuningProblem
from repro.optimizer.space import Boundary
from repro.util.draws import Draws

__all__ = ["GDE3Settings", "GDE3", "survivors"]


@dataclass(frozen=True)
class GDE3Settings:
    """Algorithm constants (paper defaults)."""

    population_size: int = 30
    cr: float = 0.5
    f: float = 0.5

    def __post_init__(self) -> None:
        if self.population_size < 4:
            raise ValueError("GDE3 needs a population of at least 4")
        if not (0.0 <= self.cr <= 1.0):
            raise ValueError("CR must be in [0, 1]")
        if self.f <= 0:
            raise ValueError("F must be positive")


@dataclass
class GDE3:
    """GDE3 generations over a tuning problem."""

    problem: TuningProblem
    settings: GDE3Settings = field(default_factory=GDE3Settings)
    #: positions of the non-dominated members of the last :meth:`select`
    #: result, ascending; None when it kept every survivor unranked
    front: list[int] | None = field(default=None, init=False, repr=False, compare=False)

    def propose(
        self,
        population: list[Configuration],
        boundary: Boundary,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Generate one trial vector per population member (Algorithm 1),
        snapped into the boundary.  Kept separate from :meth:`select` so a
        multi-region coordinator can evaluate the trials of several regions
        with shared program executions.

        Each member costs exactly its RNG draws — partners, forced index,
        crossover uniforms and, when the trial collapses onto its target,
        the jitter — in that order, replayed from the raw PCG64 stream by
        :class:`~repro.util.draws.Draws` with the values and final state
        of the direct ``Generator`` calls; the arithmetic runs on Python
        floats, which for rows of 2–4 coordinates beats per-row NumPy
        calls."""
        rows = value_matrix(population, self.problem.space.names).tolist()
        n = len(rows)
        dim = self.problem.space.dim
        f, cr = self.settings.f, self.settings.cr
        snap = boundary.snap
        lo, hi = boundary.lo.tolist(), boundary.hi.tolist()
        trials = []
        with Draws(rng) as draws:
            choice3, integers, randoms = draws.choice3, draws.integers, draws.randoms
            for i, a in enumerate(rows):
                # three distinct partners other than i: draw from the n - 1
                # other members and skip over i
                p, q, r = choice3(n - 1)
                b = rows[p + (p >= i)]
                c = rows[q + (q >= i)]
                d = rows[r + (r >= i)]
                # binomial crossover of the donor b + F(c - d), one forced index
                forced = integers(dim)
                cross = randoms(dim)
                trial = snap(
                    [
                        bj + f * (cj - dj) if u < cr or j == forced else aj
                        for j, (aj, bj, cj, dj, u) in enumerate(zip(a, b, c, d, cross))
                    ]
                )
                if trial == a:
                    # integer snapping collapsed the trial onto its target —
                    # re-randomize one coordinate inside the box to keep the
                    # generation from re-evaluating known points
                    j = integers(dim)
                    trial[j] = draws.uniform(lo[j], hi[j] + 1.0)
                    trial = snap(trial)
                trials.append(trial)
        return np.array(trials, dtype=float).reshape(n, dim)

    def select(
        self,
        population: list[Configuration],
        trial_configs: list[Configuration],
    ) -> list[Configuration]:
        """GDE3 selection: dominating trials replace their targets,
        dominated trials are dropped, mutually non-dominated pairs are both
        kept; the population is truncated back to NP by non-dominated
        sorting with crowding distance.

        A truncation ranks the survivors; it leaves the positions of the
        returned population's non-dominated members in :attr:`front`, so
        the rough-set update and the generation's |S| and V reuse that
        ranking.  Without one (every pair decided, so at most NP
        survivors) nothing is ranked and :attr:`front` is None."""
        np_size = self.settings.population_size
        next_pop: list[Configuration] = []
        for target, trial, t_dom, a_dom in zip(
            population, trial_configs, *_pair_dominance(trial_configs, population)
        ):
            if t_dom:
                next_pop.append(trial)
            elif a_dom:
                next_pop.append(target)
            else:
                next_pop.append(target)
                next_pop.append(trial)

        self.front = None
        if len(next_pop) > np_size:
            kept, n_front = survivors([c.objectives for c in next_pop], np_size)
            next_pop = [next_pop[i] for i in kept]
            self.front = list(range(n_front))
        return next_pop


def _pair_dominance(
    trials: list[Configuration], targets: list[Configuration]
) -> tuple[list[bool], list[bool]]:
    """(trial dominates target, target dominates trial) per aligned pair.
    Two objectives compare as Python floats; more take one broadcasted
    :func:`pairwise_dominance` (``tests/optimizer_oracle.py`` keeps the
    scalar :func:`dominates` loop as the baseline)."""
    n = min(len(trials), len(targets))
    if n and len(trials[0].objectives) == 2:
        t_dom, a_dom = [], []
        for trial, target in zip(trials, targets):
            t0, t1 = trial.objectives
            a0, a1 = target.objectives
            t_dom.append(t0 <= a0 and t1 <= a1 and (t0 < a0 or t1 < a1))
            a_dom.append(a0 <= t0 and a1 <= t1 and (a0 < t0 or a1 < t1))
        return t_dom, a_dom
    t_dom, a_dom = pairwise_dominance(
        objective_matrix(trials[:n]), objective_matrix(targets[:n])
    )
    return t_dom.tolist(), a_dom.tolist()


def survivors(points: list, size: int) -> tuple[list[int], int]:
    """GDE3's and NSGA-II's survivor selection over objective rows: the
    indices of the first *size* points by non-dominated rank, the last
    admitted front thinned by crowding distance (largest first, ties in
    index order), and how many of them — the leading ones — are
    non-dominated."""
    fronts = sort_fronts(points)
    kept: list[int] = []
    for front in fronts:
        if len(kept) + len(front) <= size:
            kept.extend(front)
            continue
        remaining = size - len(kept)
        if remaining > 0:
            dist = crowding([points[i] for i in front])
            order = sorted(range(len(front)), key=lambda k: -dist[k])
            kept.extend(front[k] for k in order[:remaining])
        break
    return kept, min(len(fronts[0]), size) if fronts else 0
