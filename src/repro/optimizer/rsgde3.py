"""RS-GDE3 — the paper's static optimizer (Fig. 4).

The driver alternates GDE3 generations with rough-set boundary updates:

.. code-block:: none

    population ← random sample of the full space (evaluated)
    B ← full space
    repeat
        population ← GDE3 generation within B
        B ← rough-set reduction from the current population
    until the solutions have not improved for 3 consecutive iterations

"Improvement" is measured by the hypervolume of the population's
non-dominated front (with a fixed normalization established from the
initial population), matching the paper's stopping rule "when the solutions
do not improve for three consecutive iterations".

:class:`RSGDE3State` is the loop as an ask/tell state machine;
:meth:`RSGDE3.run` drives one state through the problem's evaluation
engine and the multi-region tuner drives one per region.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.obs import DISABLED, ConvergenceRecord, emit_generation, population_delta
from repro.optimizer.archive import ParetoArchive
from repro.optimizer.config import Configuration, objective_matrix
from repro.optimizer.gde3 import GDE3, GDE3Settings
from repro.optimizer.pareto import non_dominated
from repro.optimizer.problem import TuningProblem
from repro.optimizer.roughset import rough_set_boundary
from repro.optimizer.space import Boundary
from repro.util.rng import derive_rng

__all__ = ["RSGDE3", "RSGDE3Settings", "RSGDE3State", "OptimizerResult", "ConvergenceLog"]


@dataclass(frozen=True)
class RSGDE3Settings:
    """Driver constants.

    :param gde3: inner GDE3 settings (NP=30, CR=F=0.5 per the paper).
    :param patience: consecutive non-improving iterations before stopping
        (3 in the paper).
    :param max_generations: hard safety cap.
    :param hv_epsilon: relative hypervolume gain below which a generation
        counts as non-improving.
    :param protect: parameter names exempt from the rough-set reduction
        (see :func:`repro.optimizer.roughset.rough_set_boundary`); an empty
        set reproduces the unprotected ablation.
    """

    gde3: GDE3Settings = field(default_factory=GDE3Settings)
    patience: int = 3
    max_generations: int = 200
    hv_epsilon: float = 1e-6
    protect: frozenset[str] = frozenset({"threads"})
    #: seed part of the initial population from cache-capacity reasoning
    #: (see :mod:`repro.optimizer.seeding`); 0.0 reproduces the paper's
    #: uniform random initialization
    informed_seed_fraction: float = 0.0


@dataclass(frozen=True)
class OptimizerResult:
    """Outcome of one optimizer run.

    :param front: the Pareto set S of non-dominated configurations.
    :param evaluations: E — configurations evaluated during the run.
    :param generations: GDE3 generations executed.
    :param boundary_history: rough-set box volume fraction per iteration
        (diagnostics for the Fig. 4/5 reproduction).
    """

    front: tuple[Configuration, ...]
    evaluations: int
    generations: int
    boundary_history: tuple[float, ...] = ()
    #: full per-generation telemetry (E, |S|, V, accepted/dominated) — the
    #: paper's V-vs-E trajectory as first-class data
    convergence: tuple[ConvergenceRecord, ...] = ()

    @property
    def size(self) -> int:
        return len(self.front)

    @property
    def hv_history(self) -> tuple[tuple[int, float], ...]:
        """(evaluations so far, population-front hypervolume) per
        generation — the convergence trace reduced to its V-vs-E curve."""
        return tuple((r.evaluations, r.hypervolume) for r in self.convergence)


class ConvergenceLog:
    """One :class:`ConvergenceRecord` per generation of a population-based
    run, also emitted as an ``optimizer.generation`` event under *label*.
    V is measured against a fixed reference: 1.1 × the first population's
    worst value per objective."""

    def __init__(self, problem: TuningProblem, obs, label: str) -> None:
        self.problem = problem
        self.obs = obs
        self.label = label
        self.evals_before = problem.evaluations
        self.ref: np.ndarray | None = None
        self.records: list[ConvergenceRecord] = []

    @property
    def evaluations(self) -> int:
        """E spent since the log was opened."""
        return self.problem.evaluations - self.evals_before

    def record(
        self,
        population: list[Configuration],
        previous: list[Configuration] | None = None,
        front: list[int] | None = None,
    ) -> ConvergenceRecord:
        """Record *population*, which replaced *previous* (None for the
        initial sample); *front* optionally lists the positions of its
        non-dominated members."""
        if self.ref is None:
            self.ref = objective_matrix(population).max(axis=0) * 1.1
        if front is None:
            points = [c.objectives for c in population]
        else:
            points = [population[i].objectives for i in front]
        # one staircase pass for |S| and V together — bit-identical to the
        # non_dominated + hypervolume pair
        front_size, hv = ParetoArchive.stats_of(points, self.ref)
        if previous is None:
            accepted, dominated = len(population), 0
        else:
            accepted, dominated = population_delta(previous, population)
        record = ConvergenceRecord(
            generation=len(self.records),
            evaluations=self.evaluations,
            front_size=front_size,
            hypervolume=hv,
            accepted=accepted,
            dominated=dominated,
        )
        self.records.append(record)
        emit_generation(self.obs, self.label, record)
        return record


class RSGDE3State:
    """One RS-GDE3 run as an ask/tell state machine (the Fig. 4 loop).

    :meth:`ask` returns the vectors to evaluate next: the initial sample,
    then one GDE3 trial per member within the rough-set box.  :meth:`tell`
    takes their evaluated configurations: selection, box update, stopping
    rule.  The state sees only its own RNG stream and measurements, so its
    results do not depend on who evaluates in between or when.

    :param rng: the run's RNG stream, derived by the caller.
    :param label: algorithm name on the ``optimizer.generation`` events.
    """

    def __init__(
        self,
        problem: TuningProblem,
        settings: RSGDE3Settings,
        rng: np.random.Generator,
        obs=DISABLED,
        label: str = "rsgde3",
    ) -> None:
        self.problem = problem
        self.settings = settings
        self.rng = rng
        self.gde3 = GDE3(problem, settings.gde3)
        self.full = problem.space.full_boundary()
        self.boundary: Boundary = self.full
        self.population: list[Configuration] | None = None
        self.log = ConvergenceLog(problem, obs, label)
        self.boundary_history: list[float] = []
        self.best_hv = 0.0
        self.stalled = 0
        self.finished = False

    @property
    def generation(self) -> int:
        """Last told generation (0 = the initial sample, -1 = none yet)."""
        return len(self.log.records) - 1

    def ask(self) -> np.ndarray:
        """The (B, dim) parameter vectors to evaluate next."""
        if self.population is not None:
            return self.gde3.propose(self.population, self.boundary, self.rng)
        size = self.settings.gde3.population_size
        fraction = self.settings.informed_seed_fraction
        if fraction > 0:
            from repro.optimizer.seeding import mixed_initial_vectors

            return mixed_initial_vectors(
                self.problem.space,
                self.problem.target.model,
                size,
                self.rng,
                informed_fraction=fraction,
            )
        return self.full.sample(self.rng, size)

    def tell(self, configs: list[Configuration]) -> ConvergenceRecord:
        """Fold the evaluated configurations of the last :meth:`ask` back
        in: selection, rough-set update, telemetry, stopping rule."""
        previous = self.population
        front = None
        if previous is None:
            self.population = configs
        else:
            self.population = self.gde3.select(previous, configs)
            front = self.gde3.front  # the selection's ranking, if any
        self.boundary = rough_set_boundary(
            self.population, self.full, protect=self.settings.protect, front=front
        )
        self.boundary_history.append(self.boundary.volume_fraction())
        record = self.log.record(self.population, previous, front)
        # "improvement" = relative hypervolume gain over the best so far;
        # stop after `patience` non-improving generations
        if previous is None or record.hypervolume > self.best_hv * (
            1.0 + self.settings.hv_epsilon
        ):
            self.best_hv = record.hypervolume
            self.stalled = 0
        else:
            self.stalled += 1
        self.finished = (
            self.stalled >= self.settings.patience
            or self.generation >= self.settings.max_generations
        )
        return record

    def result(self) -> OptimizerResult:
        front = non_dominated(self.population, key=lambda c: c.objectives)
        return OptimizerResult(
            front=tuple(_dedupe(front)),
            evaluations=self.log.evaluations,
            generations=self.generation,
            boundary_history=tuple(self.boundary_history),
            convergence=tuple(self.log.records),
        )


@dataclass
class RSGDE3:
    """The combined optimizer."""

    problem: TuningProblem
    settings: RSGDE3Settings = field(default_factory=RSGDE3Settings)

    def run(self, seed: int = 0) -> OptimizerResult:
        obs = getattr(self.problem, "observability", None) or DISABLED
        with obs.tracer.span("optimizer.run", algorithm="rsgde3", seed=seed) as span:
            state = RSGDE3State(
                self.problem, self.settings, derive_rng(seed, "rsgde3"), obs
            )
            while not state.finished:
                state.tell(self.problem.evaluate_batch(state.ask()))
            result = state.result()
            span.set(
                generations=result.generations,
                evaluations=result.evaluations,
                front_size=result.size,
                hypervolume=state.best_hv,
            )
        return result


def _dedupe(front: list[Configuration]) -> list[Configuration]:
    """Drop configurations with identical parameter assignments."""
    seen = set()
    out = []
    for c in sorted(front, key=lambda c: c.objectives):
        if c.values in seen:
            continue
        seen.add(c.values)
        out.append(c)
    return out
