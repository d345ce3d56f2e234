"""The tuning problem: parameter space × objective function.

Adapts a region's :class:`~repro.transform.skeleton.TransformationSkeleton`
and a :class:`~repro.evaluation.simulator.SimulatedTarget` to the generic
multi-objective interface the solvers consume: ``f : C → R^m`` mapping a
parameter vector to (time, resources).

The paper's objective function "executes the resulting version and collects
measurements" — here the execution is the simulated measurement; the
evaluation ledger of the target provides the ``E`` metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.evaluation.measurements import Row
from repro.evaluation.parallel_eval import EvaluationEngine
from repro.evaluation.simulator import SimulatedTarget
from repro.obs import DISABLED, Observability
from repro.optimizer.config import Configuration
from repro.optimizer.space import ParameterSpace
from repro.transform.skeleton import TransformationSkeleton

__all__ = ["TuningProblem"]


@dataclass
class TuningProblem:
    """One region's multi-objective tuning problem.

    :param space: the skeleton's parameters (tile sizes + threads [+ …]).
    :param target: the measurement substrate.
    :param skeleton: retained so solutions can be instantiated into code.
    :param tri_objective: optimize (time, resources, energy) instead of
        (time, resources); requires a target with ``measure_energy=True``.
    :param engine: the evaluation engine batches are routed through; None
        builds a serial engine over *target* on first use.  Hand in a
        multi-worker engine to evaluate generations in parallel.
    :param obs: observability handle the optimizers report convergence
        telemetry through; None means disabled (zero overhead).
    """

    space: ParameterSpace
    target: SimulatedTarget
    skeleton: TransformationSkeleton | None = None
    tri_objective: bool = False
    engine: EvaluationEngine | None = None
    obs: Observability | None = None

    def __post_init__(self) -> None:
        if self.tri_objective and not self.target.measure_energy:
            raise ValueError(
                "tri-objective tuning needs a target with measure_energy=True"
            )
        if self.engine is not None and self.engine.target is not self.target:
            raise ValueError("engine must evaluate against this problem's target")

    @classmethod
    def from_skeleton(
        cls,
        skeleton: TransformationSkeleton,
        target: SimulatedTarget,
        tri_objective: bool = False,
        engine: EvaluationEngine | None = None,
        obs: Observability | None = None,
    ) -> "TuningProblem":
        return cls(
            space=ParameterSpace(skeleton.parameters),
            target=target,
            skeleton=skeleton,
            tri_objective=tri_objective,
            engine=engine,
            obs=obs,
        )

    @property
    def observability(self) -> Observability:
        """The run's observability handle (the shared disabled handle when
        none was injected)."""
        return self.obs or DISABLED

    @property
    def evaluation_engine(self) -> EvaluationEngine:
        """The engine all batch evaluations go through (created serially on
        first use if none was injected)."""
        if self.engine is None:
            self.engine = EvaluationEngine(self.target, obs=self.obs)
        return self.engine

    @property
    def num_objectives(self) -> int:
        return 3 if self.tri_objective else 2

    @property
    def evaluations(self) -> int:
        """E — configurations evaluated so far."""
        return self.target.evaluations

    # ------------------------------------------------------------------

    def split_values(self, values: dict[str, int]) -> tuple[dict[str, int], int]:
        """(tile_sizes, threads) from a flat parameter assignment."""
        tiles = {
            name[len("tile_"):]: v
            for name, v in values.items()
            if name.startswith("tile_")
        }
        threads = int(values.get("threads", 1))
        return tiles, threads

    def evaluate(self, values: dict[str, int]) -> Configuration:
        """One configuration, given a value for every parameter: a B = 1
        :meth:`evaluate_batch`."""
        return self.evaluate_batch(np.array([[values[n] for n in self.space.names]]))[0]

    @cached_property
    def _columns(self) -> tuple:
        """:meth:`decode`'s column maps: each band loop's ``tile_`` column
        (0 and masked if absent: the loop runs at its extent), the mask,
        the extents, the ``threads`` column (None: 1 thread), and the
        name-sorted column order with its names."""
        names = self.space.names
        tiles = [f"tile_{v}" for v in self.target.band]
        threads = names.index("threads") if "threads" in names else None
        order = sorted(range(len(names)), key=names.__getitem__)
        return (
            [names.index(t) if t in names else 0 for t in tiles],
            np.array([t not in names for t in tiles]),
            np.array([self.target.model.extent[v] for v in self.target.band]),
            threads,
            order,
            tuple(names[j] for j in order),
        )

    def decode(self, vectors: np.ndarray) -> tuple[list[list[int]], list[tuple]]:
        """Decode (B, dim) parameter vectors, rounded half to even like
        ``int(round(x))``, into each row's values in name order and the
        target's canonical keys — the front half of :meth:`evaluate_batch`,
        exposed so a cross-region scheduler can route the engine call
        itself.  A NaN or infinite entry raises as ``int(round(x))`` does."""
        vectors = np.asarray(vectors, dtype=float).reshape(len(vectors), self.space.dim)
        finite = np.isfinite(vectors)
        if not finite.all():
            int(vectors[~finite][0])  # ValueError for NaN, OverflowError for inf
        ints = np.rint(vectors).astype(np.int64)
        tile_cols, missing, extent, thread_col, order, _ = self._columns
        tiles = np.where(missing, extent, ints[:, tile_cols])
        threads = np.ones(len(ints), np.int64) if thread_col is None else ints[:, thread_col]
        return ints[:, order].tolist(), self.target.keys_of(tiles, threads)

    def configurations(
        self, values: list[list[int]], keys: list[tuple], rows: list[Row]
    ) -> list[Configuration]:
        """Pair :meth:`decode`'s value rows with the objective vectors of
        their keys' measured rows — ``(time, threads × time)``, plus the
        energy when tri-objective — the back half of :meth:`evaluate_batch`."""
        names = self._columns[-1]
        if self.tri_objective:
            vectors = [(t, key[-1] * t, e) for key, (t, _, e) in zip(keys, rows)]
        else:
            vectors = [(t, key[-1] * t) for key, (t, _, _) in zip(keys, rows)]
        return [
            Configuration(tuple(zip(names, vals)), vector)
            for vals, vector in zip(values, vectors)
        ]

    def evaluate_batch(self, vectors: np.ndarray) -> list[Configuration]:
        """Evaluate (B, dim) parameter vectors through the evaluation
        engine — the paper's parallel evaluation of each generation's
        configurations (dedup → dispatch to workers → serial commit).
        """
        values, keys = self.decode(vectors)
        result = self.evaluation_engine.evaluate_batch(keys)
        return self.configurations(values, keys, result.rows)
