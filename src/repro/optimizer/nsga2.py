"""NSGA-II baseline.

The paper situates RS-GDE3 against classical evolutionary multi-objective
algorithms ("Genetic Algorithms [10], [11], [16]").  This module provides a
standard NSGA-II (Deb et al., 2002) over the same integer parameter space —
binary-tournament selection on (rank, crowding), SBX crossover, polynomial
mutation — used by the ablation benchmarks to show what the rough-set
reduction and the DE operator buy over a stock GA.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.obs import DISABLED
from repro.optimizer.config import Configuration, value_matrix
from repro.optimizer.gde3 import survivors
from repro.optimizer.pareto import crowding, non_dominated, sort_fronts
from repro.optimizer.problem import TuningProblem
from repro.optimizer.rsgde3 import ConvergenceLog, OptimizerResult, _dedupe
from repro.util.draws import Draws
from repro.util.rng import derive_rng

__all__ = ["NSGA2", "NSGA2Settings"]


@dataclass(frozen=True)
class NSGA2Settings:
    population_size: int = 30
    crossover_prob: float = 0.9
    crossover_eta: float = 15.0
    mutation_eta: float = 20.0
    generations: int = 25


@dataclass
class NSGA2:
    problem: TuningProblem
    settings: NSGA2Settings = field(default_factory=NSGA2Settings)

    def run(self, seed: int = 0) -> OptimizerResult:
        obs = getattr(self.problem, "observability", None) or DISABLED
        rng = derive_rng(seed, "nsga2")
        space = self.problem.space
        full = space.full_boundary()
        np_size = self.settings.population_size

        with obs.tracer.span("optimizer.run", algorithm="nsga2", seed=seed) as span:
            # same telemetry (and fixed V reference) as RS-GDE3
            log = ConvergenceLog(self.problem, obs, "nsga2")
            pop = self.problem.evaluate_batch(full.sample(rng, np_size))
            log.record(pop)
            for _ in range(self.settings.generations):
                offspring_vecs = self._make_offspring(pop, rng)
                offspring = self.problem.evaluate_batch(offspring_vecs)
                previous, merged = pop, pop + offspring
                kept, n_front = survivors([c.objectives for c in merged], np_size)
                pop = [merged[i] for i in kept]
                log.record(pop, previous, list(range(n_front)))

            front = _dedupe(non_dominated(pop, key=lambda c: c.objectives))
            span.set(
                generations=self.settings.generations,
                evaluations=log.evaluations,
                front_size=len(front),
            )
        return OptimizerResult(
            front=tuple(front),
            evaluations=log.evaluations,
            generations=self.settings.generations,
            convergence=tuple(log.records),
        )

    # ------------------------------------------------------------------

    def _rank_and_crowd(self, pop: list[Configuration]) -> tuple[list[int], list[float]]:
        objs = [c.objectives for c in pop]
        rank = [0] * len(pop)
        crowd = [0.0] * len(pop)
        for r, front in enumerate(sort_fronts(objs)):
            for i, d in zip(front, crowding([objs[i] for i in front])):
                rank[i] = r
                crowd[i] = d
        return rank, crowd

    def _tournament(self, rank, crowd, draws: Draws) -> int:
        i, j = draws.integers(len(rank)), draws.integers(len(rank))
        if rank[i] != rank[j]:
            return i if rank[i] < rank[j] else j
        return i if crowd[i] >= crowd[j] else j

    def _make_offspring(self, pop: list[Configuration], rng) -> np.ndarray:
        """One generation of offspring.  The draws come from
        :class:`~repro.util.draws.Draws` (the values of the direct
        ``Generator`` calls); the SBX and mutation arithmetic stays in
        NumPy, whose SIMD ``power`` may round differently from Python's
        ``**``."""
        space = self.problem.space
        vecs = value_matrix(pop, space.names)
        full = space.full_boundary()
        rank, crowd = self._rank_and_crowd(pop)
        out = []
        with Draws(rng) as draws:
            while len(out) < self.settings.population_size:
                p1 = vecs[self._tournament(rank, crowd, draws)]
                p2 = vecs[self._tournament(rank, crowd, draws)]
                c1, c2 = self._sbx(p1, p2, draws)
                out.append(self._mutate(c1, full, draws))
                if len(out) < self.settings.population_size:
                    out.append(self._mutate(c2, full, draws))
        # no draw happens between the snaps, so snap the stack in one call
        return full.snap_rows(np.stack(out))

    def _sbx(self, p1, p2, draws: Draws):
        if draws.random() > self.settings.crossover_prob:
            return p1.copy(), p2.copy()
        eta = self.settings.crossover_eta
        u = np.array(draws.randoms(p1.shape[0]))
        beta = np.where(
            u <= 0.5,
            (2 * u) ** (1.0 / (eta + 1)),
            (1.0 / (2 * (1 - u))) ** (1.0 / (eta + 1)),
        )
        c1 = 0.5 * ((1 + beta) * p1 + (1 - beta) * p2)
        c2 = 0.5 * ((1 - beta) * p1 + (1 + beta) * p2)
        return c1, c2

    def _mutate(self, v, full, draws: Draws):
        eta = self.settings.mutation_eta
        prob = 1.0 / max(1, v.shape[0])
        span = full.hi - full.lo
        u = np.array(draws.randoms(v.shape[0]))
        do = np.array(draws.randoms(v.shape[0])) < prob
        delta = np.where(
            u < 0.5,
            (2 * u) ** (1.0 / (eta + 1)) - 1.0,
            1.0 - (2 * (1 - u)) ** (1.0 / (eta + 1)),
        )
        return np.where(do, v + delta * span, v)
