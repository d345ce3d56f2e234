"""Simultaneous tuning of several regions of one program.

Paper §III-A: "the optimizer conducts auto-tuning by iteratively selecting
sets of configurations for each of the regions ... During the evaluation, a
single execution of the resulting program is sufficient to obtain
measurements for all simultaneously tuned regions."

:class:`MultiRegionTuner` drives one
:class:`~repro.optimizer.rsgde3.RSGDE3State` per region — the same ask/tell
loop single-region tuning runs — through one of two evaluation paths with
bit-identical results:

* :meth:`MultiRegionTuner.run` — the cross-region scheduler: every active
  region's generation batch is fused into **one shared**
  :class:`~repro.evaluation.parallel_eval.EvaluationEngine` session, so
  the worker pool drains all regions' trials together instead of idling
  between per-region barriers.  Identical cost-model fingerprints dedup
  across regions (one dispatch serves every region that shares one, each
  still committing to its own ledger).  With ``pipeline=True`` a region
  whose selection finishes early proposes its next generation while
  slower regions' chunks are still in flight, bounded to one generation
  of lag (``pipeline=False`` keeps the lock-step barrier on the same code
  path).  Because measurement noise is hash-derived per key and regions
  are data-independent, fronts, per-region ``E`` and ``program_runs`` are
  bit-identical for any worker count, chunk size or completion
  interleaving.

* :meth:`MultiRegionTuner.run_lockstep` — the serial reference: each
  program generation evaluates the regions one after another through the
  plain ``evaluate_batch`` path.  The scheduler is verified against it and
  the multi-region benchmark uses it as its baseline.

The payoff is the ledger: ``program_runs`` grows by ``max_r |trials_r|``
per generation instead of ``Σ_r |trials_r|`` — tuning jacobi-2d's two
spatial regions costs barely more program executions than tuning one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.regions import extract_regions
from repro.evaluation.cost import RegionCostModel
from repro.evaluation.measurements import MeasurementProtocol
from repro.evaluation.parallel_eval import EngineStats, EvaluationEngine
from repro.evaluation.simulator import SimulatedTarget
from repro.frontend.kernels import Kernel
from repro.ir.nodes import Function
from repro.machine.model import MachineModel, WESTMERE
from repro.obs import DISABLED, Observability
from repro.optimizer.problem import TuningProblem
from repro.optimizer.rsgde3 import OptimizerResult, RSGDE3Settings, RSGDE3State
from repro.transform.skeleton import default_skeleton
from repro.util.rng import derive_rng

__all__ = ["MultiRegionTuner", "MultiRegionResult"]


@dataclass(frozen=True)
class MultiRegionResult:
    """Outcome of one multi-region tuning run.

    :param results: per-region optimizer results (fronts + per-region E).
    :param program_runs: distinct program executions spent — the shared
        cost; compare against ``sum(r.evaluations for r in results)``,
        which is what separate tuning would have paid.
    :param engine_stats: aggregated evaluation accounting across every
        region's batches (None for runs predating the scheduler).
    """

    results: tuple[OptimizerResult, ...]
    program_runs: int
    generations: int
    engine_stats: EngineStats | None = None

    @property
    def total_region_evaluations(self) -> int:
        return sum(r.evaluations for r in self.results)

    @property
    def sharing_factor(self) -> float:
        """How many region measurements each program run amortized."""
        if self.program_runs == 0:
            return 1.0
        return self.total_region_evaluations / self.program_runs

    def summary(self) -> str:
        """Human-readable per-region table plus the shared-cost totals."""
        lines = [
            f"{'region':>6}  {'|S|':>4}  {'E':>6}  {'generations':>11}",
        ]
        for idx, res in enumerate(self.results):
            lines.append(
                f"{idx:>6}  {res.size:>4}  {res.evaluations:>6}  "
                f"{res.generations:>11}"
            )
        lines.append(
            f"program runs: {self.program_runs}  "
            f"(Σ region E = {self.total_region_evaluations}, "
            f"sharing ×{self.sharing_factor:.2f})"
        )
        return "\n".join(lines)


@dataclass
class MultiRegionTuner:
    """Lock-step RS-GDE3 over all tunable regions of a function.

    :param function: the program (e.g. jacobi-2d with two spatial nests).
    :param sizes: problem-size bindings.
    :param machine: simulated target platform (callers that tune for a
        specific machine must pass it — the WESTMERE default exists for
        machine-agnostic tests and examples only).
    :param workers: the widest shared evaluation pool for :meth:`run`; it
        is used only when the region targets declare per-configuration
        latency (the engine's pool rule), and 1 keeps the whole pipeline
        serial (still fused, still bit-identical).
    :param pipeline: allow one generation of cross-region lag in
        :meth:`run` (off = lock-step barrier on the same code path).
    :param protocol: measurement protocol handed to every region target
        (the benchmark injects per-configuration overhead through this).
    :param disk_cache: persistent measurement cache shared by all
        region targets.
    :param obs: observability handle (scheduler spans and events).
    """

    function: Function
    sizes: dict[str, int]
    machine: MachineModel = field(default_factory=lambda: WESTMERE)
    settings: RSGDE3Settings = field(default_factory=RSGDE3Settings)
    seed: int = 0
    noise: float = 0.015
    kernel: Kernel | None = None
    workers: int | str = 1
    pipeline: bool = False
    protocol: MeasurementProtocol | None = None
    disk_cache: object | None = None
    obs: Observability | None = None

    def _build_problems(self) -> list[TuningProblem]:
        regions = extract_regions(self.function)
        if not regions:
            raise ValueError(f"no tunable regions in {self.function.name!r}")
        problems = []
        for region in regions:
            skeleton = default_skeleton(
                region, self.sizes, self.machine.total_cores
            )
            model = RegionCostModel(
                region,
                self.sizes,
                self.machine,
                parallel_spec=skeleton.parallel_spec(),
            )
            target = SimulatedTarget(
                model,
                seed=self.seed,
                noise=self.noise,
                protocol=self.protocol,
                disk_cache=self.disk_cache,
            )
            problems.append(TuningProblem.from_skeleton(skeleton, target))
        return problems

    # -- fused cross-region scheduler ----------------------------------

    def run(self, seed: int = 0) -> MultiRegionResult:
        """Tune all regions through one shared evaluation session.

        Every region's generation batch lands in the same work queue;
        the pool stays busy until the whole generation drains.  Results
        are bit-identical to :meth:`run_lockstep` for any ``workers`` and
        ``pipeline`` setting.
        """
        obs = self.obs or DISABLED
        states = self._states(seed, obs)
        max_lag = 1 if self.pipeline else 0
        engine = EvaluationEngine(states[0].problem.target, max_workers=self.workers, obs=obs)
        #: region index → decoded value rows of its batch in flight
        in_flight: dict[int, list[list[int]]] = {}

        def submit(idx: int) -> None:
            problem = states[idx].problem
            in_flight[idx], keys = problem.decode(states[idx].ask())
            engine.fused_submit(problem.target, keys, region=str(idx))

        with obs.tracer.span(
            "scheduler.run",
            regions=len(states),
            workers=self.workers,
            pipeline=self.pipeline,
        ) as span:
            try:
                for idx in range(len(states)):  # everyone's initial sample, fused
                    submit(idx)
                while in_flight:
                    for batch in engine.fused_wait():
                        idx = int(batch.region)
                        st = states[idx]
                        st.tell(st.problem.configurations(
                            in_flight.pop(idx), batch.keys, batch.rows
                        ))
                    # bounded lag: a region may run ahead of the slowest
                    # unfinished region by at most max_lag generations
                    running = [i for i, st in enumerate(states) if not st.finished]
                    min_gen = min((states[i].generation for i in running), default=0)
                    for i in running:
                        if i not in in_flight and states[i].generation - min_gen <= max_lag:
                            submit(i)
                result = self._result(states, engine.stats)
            finally:
                engine.close()
            span.set(
                generations=result.generations,
                program_runs=result.program_runs,
                shared_hits=result.engine_stats.shared_hits,
            )
        return result

    # -- serial lock-step reference ------------------------------------

    def run_lockstep(self, seed: int = 0) -> MultiRegionResult:
        """The serial per-region loop the scheduler is verified against
        (and the wall-clock baseline of the multi-region benchmark)."""
        states = self._states(seed, self.obs or DISABLED)
        while not all(st.finished for st in states):
            for st in states:
                if not st.finished:
                    st.tell(st.problem.evaluate_batch(st.ask()))
        return self._result(
            states, *(st.problem.evaluation_engine.stats for st in states)
        )

    def _states(self, seed: int, obs: Observability) -> list[RSGDE3State]:
        return [
            RSGDE3State(
                problem,
                self.settings,
                derive_rng(seed, "multiregion", idx),
                obs,
                label=f"multiregion[{idx}]",
            )
            for idx, problem in enumerate(self._build_problems())
        ]

    def _result(self, states: list[RSGDE3State], *engine_stats) -> MultiRegionResult:
        """Per-region results, the shared program-run count (one execution
        per zipped trial row of the busiest region) and a snapshot of the
        merged engine accounting."""
        stats = EngineStats()
        for s in engine_stats:
            stats.merge(s)
        generations = max(st.generation for st in states)
        return MultiRegionResult(
            results=tuple(st.result() for st in states),
            program_runs=self.settings.gde3.population_size * (1 + generations),
            generations=generations,
            engine_stats=stats,
        )

