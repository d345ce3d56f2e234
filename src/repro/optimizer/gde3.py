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

from repro.optimizer.config import Configuration
from repro.optimizer.pareto import (
    crowding_distance,
    dominates,
    non_dominated_sort,
    pairwise_dominance,
)
from repro.optimizer.problem import TuningProblem
from repro.optimizer.space import Boundary

__all__ = ["GDE3Settings", "GDE3", "truncate"]


def _objective_rows(configs: list[Configuration]) -> np.ndarray:
    """(N, m) objective array of *configs* — np.fromiter over a flat
    generator skips np.array's per-tuple inspection, which matters in
    the per-generation selection hot loop."""
    if not configs:
        return np.empty((0, 2))
    m = len(configs[0].objectives)
    flat = np.fromiter(
        (x for c in configs for x in c.objectives),
        dtype=float,
        count=len(configs) * m,
    )
    return flat.reshape(len(configs), m)


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

    def propose(
        self,
        population: list[Configuration],
        boundary: Boundary,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Generate one trial vector per population member (Algorithm 1),
        snapped into the boundary.  Kept separate from :meth:`select` so a
        multi-region coordinator can evaluate the trials of several regions
        with shared program executions."""
        names = self.problem.space.names
        pop_vecs = np.stack([c.vector(names) for c in population])
        n = len(population)

        trials = np.empty_like(pop_vecs[:n])
        for i in range(n):
            b, c, d = self._pick_three(n, i, rng)
            trials[i] = self._de_trial(
                pop_vecs[i], pop_vecs[b], pop_vecs[c], pop_vecs[d], rng
            )
            trials[i] = boundary.get_closest_to(trials[i])
            if np.array_equal(trials[i], pop_vecs[i]):
                # integer snapping collapsed the trial onto its target —
                # re-randomize one coordinate inside the box to keep the
                # generation from re-evaluating known points
                j = int(rng.integers(pop_vecs.shape[1]))
                jitter = trials[i].copy()
                jitter[j] = rng.uniform(boundary.lo[j], boundary.hi[j] + 1.0)
                trials[i] = boundary.get_closest_to(jitter)
        return trials

    def select(
        self,
        population: list[Configuration],
        trial_configs: list[Configuration],
    ) -> list[Configuration]:
        """GDE3 selection: dominating trials replace their targets,
        dominated trials are dropped, mutually non-dominated pairs are both
        kept; the population is truncated back to NP by non-dominated
        sorting with crowding distance."""
        np_size = self.settings.population_size
        # one broadcasted trial-vs-target comparison instead of 2·N scalar
        # dominates() calls (see _select_pairs_scalar, the guarded baseline)
        n = min(len(population), len(trial_configs))
        trial_dom, target_dom = pairwise_dominance(
            _objective_rows(trial_configs[:n]),
            _objective_rows(population[:n]),
        )
        next_pop: list[Configuration] = []
        for target, trial, t_dom, a_dom in zip(
            population, trial_configs, trial_dom.tolist(), target_dom.tolist()
        ):
            if t_dom:
                next_pop.append(trial)
            elif a_dom:
                next_pop.append(target)
            else:
                next_pop.append(target)
                next_pop.append(trial)

        if len(next_pop) > np_size:
            next_pop = truncate(next_pop, np_size)
        return next_pop

    @staticmethod
    def _select_pairs_scalar(
        population: list[Configuration], trial_configs: list[Configuration]
    ) -> list[Configuration]:
        """The pre-vectorization pairwise phase of :meth:`select` (before
        truncation) — the scalar baseline the selection micro-benchmark
        asserts output-identity and speedup against."""
        next_pop: list[Configuration] = []
        for target, trial in zip(population, trial_configs):
            if dominates(trial.objectives, target.objectives):
                next_pop.append(trial)
            elif dominates(target.objectives, trial.objectives):
                next_pop.append(target)
            else:
                next_pop.append(target)
                next_pop.append(trial)
        return next_pop

    # ------------------------------------------------------------------

    def _pick_three(
        self, n: int, exclude: int, rng: np.random.Generator
    ) -> tuple[int, int, int]:
        pool = [j for j in range(n) if j != exclude]
        picks = rng.choice(len(pool), size=3, replace=False)
        return tuple(pool[p] for p in picks)  # type: ignore[return-value]

    def _de_trial(
        self,
        a: np.ndarray,
        b: np.ndarray,
        c: np.ndarray,
        d: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Algorithm 1: binomial crossover of the donor ``b + F(c-d)``."""
        dim = a.shape[0]
        forced = int(rng.integers(dim))
        donor = b + self.settings.f * (c - d)
        mask = rng.random(dim) < self.settings.cr
        mask[forced] = True
        return np.where(mask, donor, a)


def truncate(pop: list[Configuration], size: int) -> list[Configuration]:
    """The first *size* members of *pop* by non-dominated rank, the last
    admitted front thinned by crowding distance (GDE3's and NSGA-II's
    survivor selection)."""
    objs = np.array([c.objectives for c in pop])
    kept: list[int] = []
    for front in non_dominated_sort(objs):
        if len(kept) + len(front) <= size:
            kept.extend(front.tolist())
            continue
        remaining = size - len(kept)
        if remaining > 0:
            dist = crowding_distance(objs[front])
            order = np.argsort(-dist, kind="stable")
            kept.extend(front[order[:remaining]].tolist())
        break
    return [pop[i] for i in kept]
