"""The compiler driver: input code → multi-versioned tuned output.

Implements the workflow of the paper's Fig. 3:

1. load the input (a registered kernel, C-like source, or an IR function),
2. analyze it into tunable regions with transformation skeletons,
3. run the static multi-objective optimizer against the (simulated) target
   platform,
4. hand the Pareto set to the multi-versioning backend,
5. expose the result to the runtime system as a version table.

Example::

    driver = TuningDriver(machine=WESTMERE, seed=42)
    tuned = driver.tune_kernel("mm")
    print(tuned.summary())
    table = tuned.build_version_table()      # executable versions
    unit = tuned.emit_c()                    # multi-versioned C source
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.analysis.regions import TunableRegion, extract_regions
from repro.backend.meta import VersionMeta
from repro.evaluation.cost import RegionCostModel
from repro.evaluation.disk_cache import MeasurementDiskCache
from repro.evaluation.parallel_eval import EngineStats, EvaluationEngine
from repro.evaluation.simulator import SimulatedTarget
from repro.frontend.kernels import Kernel, get_kernel
from repro.frontend.parser import parse_function
from repro.ir.nodes import Function
from repro.machine.model import MachineModel, WESTMERE
from repro.obs import DISABLED, Observability
from repro.optimizer.nsga2 import NSGA2
from repro.optimizer.problem import TuningProblem
from repro.optimizer.random_search import random_search
from repro.optimizer.rsgde3 import RSGDE3, OptimizerResult, RSGDE3Settings
from repro.runtime.version_table import Version, VersionTable
from repro.transform.skeleton import TransformationSkeleton, default_skeleton
from repro.util.tables import Table

if TYPE_CHECKING:
    from repro.backend.multiversion import MultiVersionUnit

__all__ = ["TuningDriver", "TunedKernel"]


@dataclass
class TunedKernel:
    """The outcome of tuning one region: Pareto set + builders.

    :param result: optimizer outcome (front, E, generations).
    :param sequential_time: the fastest *sequential* configuration's time —
        the ``t_s`` reference for speedup/efficiency reporting.
    :param baseline_time: untiled sequential time (the "-O3" row).
    """

    kernel: Kernel | None
    function: Function
    region: TunableRegion
    skeleton: TransformationSkeleton
    machine: MachineModel
    sizes: dict[str, int]
    target: SimulatedTarget
    result: OptimizerResult
    sequential_time: float
    baseline_time: float
    engine: EvaluationEngine | None = None
    obs: Observability | None = None

    @property
    def name(self) -> str:
        return self.function.name

    @property
    def engine_stats(self) -> EngineStats | None:
        """Cumulative evaluation-engine accounting for this tuning run."""
        return self.engine.stats if self.engine is not None else None

    # ------------------------------------------------------------------

    def version_metas(self) -> list[VersionMeta]:
        """Pareto points as version metadata, fastest first."""
        front = sorted(self.result.front, key=lambda c: c.objectives[0])
        metas = []
        for idx, cfg in enumerate(front):
            values = cfg.as_dict()
            tiles = tuple(
                sorted(
                    (name[len("tile_"):], v)
                    for name, v in values.items()
                    if name.startswith("tile_")
                )
            )
            metas.append(
                VersionMeta(
                    index=idx,
                    time=cfg.objectives[0],
                    resources=cfg.objectives[1],
                    threads=int(values.get("threads", 1)),
                    tile_sizes=tiles,
                    values=tuple(sorted(values.items())),
                    energy=cfg.objectives[2] if len(cfg.objectives) > 2 else None,
                )
            )
        return metas

    def _variants(self) -> list[tuple[Function, VersionMeta]]:
        out = []
        for meta in self.version_metas():
            transformed = self.skeleton.instantiate(dict(meta.values))
            out.append((transformed.apply(), meta))
        return out

    def build_version_table(self, executable: bool = True) -> VersionTable:
        """Version table for the runtime; with ``executable`` the versions
        carry compiled Python bodies (exact semantics, small-size speed),
        without it they are built from the metadata alone."""
        if not executable:
            versions = tuple(Version(meta=meta) for meta in self.version_metas())
            return VersionTable(region_name=self.name, versions=versions)
        from repro.backend.pygen import compile_function

        versions = tuple(
            Version(meta=meta, fn=compile_function(fn, name=f"{self.name}_v{meta.index}"))
            for fn, meta in self._variants()
        )
        return VersionTable(region_name=self.name, versions=versions)

    def emit_c(self) -> MultiVersionUnit:
        """The multi-versioned C translation unit (paper Fig. 6)."""
        from repro.backend.multiversion import build_multiversion_c

        return build_multiversion_c(self.name, self._variants())

    def preview_selections(
        self, policies: tuple[str, ...] = ("fastest", "efficient", "balanced")
    ) -> dict[str, int]:
        """Query each named selection policy once against the tuned
        version table, emitting one ``runtime.selection`` decision event
        per policy — the runtime half of an end-to-end trace without
        executing the region.

        :returns: policy name → chosen version index.
        """
        from repro.runtime.scheduler import RegionExecutor
        from repro.runtime.selection import policy_by_name

        obs = self.obs or DISABLED
        with obs.tracer.span("runtime.preview", region=self.name):
            table = self.build_version_table(executable=False)
            executor = RegionExecutor(table, obs=self.obs)
            chosen = {}
            for name in policies:
                executor.set_policy(policy_by_name(name))
                chosen[name] = executor.select().meta.index
        return chosen

    def summary(self) -> str:
        t = Table(
            ["version", "threads", "tiles", "time [s]", "cpu-s", "speedup", "efficiency"],
            title=(
                f"{self.name} on {self.machine.name}: |S|={self.result.size}, "
                f"E={self.result.evaluations}, untiled={self.baseline_time:.4g}s"
            ),
        )
        for meta in self.version_metas():
            speedup = self.sequential_time / meta.time
            t.add_row(
                [
                    meta.index,
                    meta.threads,
                    " ".join(f"{k}={v}" for k, v in meta.tile_sizes),
                    meta.time,
                    meta.resources,
                    round(speedup, 2),
                    round(speedup / meta.threads, 3),
                ]
            )
        return t.render()


@dataclass
class TuningDriver:
    """Front door of the framework.

    :param machine: simulated target platform.
    :param seed: seed for measurement noise and the stochastic optimizers.
    :param noise: relative measurement jitter of the simulated target.
    :param settings: RS-GDE3 driver settings.
    :param workers: the widest evaluation-engine pool (``"auto"``: three
        quarters of the visible cores).  Above 1, a generation is evaluated
        on a thread pool only where that overlaps waits (per-configuration
        latency on the target); results and the E metric are bit-identical
        to the serial default.
    :param obs: observability handle — compiler phases become spans and
        the optimizer/engine telemetry flows into its tracer as events;
        None (the default) disables tracing at zero cost.
    :param cache_dir: directory of the persistent measurement cache
        (``--cache-dir``); None disables.  A repeated run against the same
        kernel/machine/seed serves every previously measured configuration
        from disk with E unchanged.
    """

    machine: MachineModel = field(default_factory=lambda: WESTMERE)
    seed: int = 0
    noise: float = 0.015
    settings: RSGDE3Settings = field(default_factory=RSGDE3Settings)
    workers: int | str = 1
    obs: Observability | None = None
    cache_dir: str | None = None
    _disk_cache: MeasurementDiskCache | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def disk_cache(self) -> MeasurementDiskCache | None:
        """The driver's shared persistent cache handle (lazily opened)."""
        if self.cache_dir is None:
            return None
        if self._disk_cache is None:
            self._disk_cache = MeasurementDiskCache(self.cache_dir)
        return self._disk_cache

    # ------------------------------------------------------------------

    def tune_kernel(
        self,
        name: str,
        sizes: dict[str, int] | None = None,
        optimizer: str = "rsgde3",
        run_seed: int = 0,
        with_energy: bool = False,
    ) -> TunedKernel:
        """Tune a registered benchmark kernel (mm, dsyrk, jacobi2d,
        stencil3d, nbody).

        :param with_energy: add energy as a third objective (§III-B1 names
            it as an example objective) — the Pareto set then trades off
            time, cpu-seconds and joules simultaneously.
        """
        kernel = get_kernel(name)
        merged = kernel.sizes(sizes)
        return self._tune(
            kernel.function,
            merged,
            kernel=kernel,
            optimizer=optimizer,
            run_seed=run_seed,
            flops_per_iteration=kernel.flops_per_point,
            with_energy=with_energy,
        )

    def tune_source(
        self,
        source: str,
        sizes: dict[str, int],
        optimizer: str = "rsgde3",
        run_seed: int = 0,
    ) -> TunedKernel:
        """Tune a kernel given as C-like source (the paper's entry point)."""
        return self._tune(parse_function(source), sizes, optimizer=optimizer, run_seed=run_seed)

    def tune_function(
        self,
        fn: Function,
        sizes: dict[str, int],
        optimizer: str = "rsgde3",
        run_seed: int = 0,
    ) -> TunedKernel:
        """Tune an IR function directly."""
        return self._tune(fn, sizes, optimizer=optimizer, run_seed=run_seed)

    def tune_multiregion(
        self,
        fn: Function,
        sizes: dict[str, int],
        run_seed: int = 0,
        pipeline: bool = False,
        kernel: Kernel | None = None,
    ):
        """Tune every region of *fn* simultaneously through the fused
        cross-region scheduler (``--multiregion``): one shared evaluation
        session drains all regions' generation batches together, on this
        driver's machine/workers/cache configuration."""
        from repro.driver.multiregion import MultiRegionTuner

        tuner = MultiRegionTuner(
            function=fn,
            sizes=sizes,
            machine=self.machine,
            settings=self.settings,
            seed=self.seed,
            noise=self.noise,
            kernel=kernel,
            workers=self.workers,
            pipeline=pipeline,
            disk_cache=self.disk_cache,
            obs=self.obs,
        )
        return tuner.run(seed=run_seed)

    # ------------------------------------------------------------------

    def make_problem(
        self,
        fn: Function,
        sizes: dict[str, int],
        kernel: Kernel | None = None,
        flops_per_iteration: float | None = None,
        region_index: int = 0,
        with_energy: bool = False,
    ) -> tuple[TuningProblem, TunableRegion, TransformationSkeleton]:
        """Analysis + skeleton + simulated target for a function's region.

        Exposed separately so benchmarks can drive brute-force sweeps with
        the same problem construction the driver uses.
        """
        regions = extract_regions(fn)
        if not regions:
            raise ValueError(f"no tunable region found in {fn.name!r}")
        region = regions[region_index]
        band = kernel.tile_loops if kernel is not None else None
        skeleton = default_skeleton(
            region, sizes, self.machine.total_cores, band=band
        )
        model = RegionCostModel(
            region,
            sizes,
            self.machine,
            flops_per_iteration=flops_per_iteration,
            parallel_spec=skeleton.parallel_spec(),
        )
        target = SimulatedTarget(
            model,
            seed=self.seed,
            noise=self.noise,
            measure_energy=with_energy,
            disk_cache=self.disk_cache,
        )
        engine = EvaluationEngine(target, max_workers=self.workers, obs=self.obs)
        problem = TuningProblem.from_skeleton(
            skeleton, target, tri_objective=with_energy, engine=engine, obs=self.obs
        )
        return problem, region, skeleton

    def _tune(
        self,
        fn: Function,
        sizes: dict[str, int],
        kernel: Kernel | None = None,
        optimizer: str = "rsgde3",
        run_seed: int = 0,
        flops_per_iteration: float | None = None,
        with_energy: bool = False,
    ) -> TunedKernel:
        obs = self.obs or DISABLED
        with obs.tracer.span("driver.analyze", kernel=fn.name):
            problem, region, skeleton = self.make_problem(
                fn,
                sizes,
                kernel=kernel,
                flops_per_iteration=flops_per_iteration,
                with_energy=with_energy,
            )
        with obs.tracer.span(
            "driver.optimize", kernel=fn.name, optimizer=optimizer
        ):
            try:
                if optimizer == "rsgde3":
                    result = RSGDE3(problem, self.settings).run(seed=run_seed)
                elif optimizer == "nsga2":
                    result = NSGA2(problem).run(seed=run_seed)
                elif optimizer == "random":
                    budget = self.settings.gde3.population_size * 25
                    result = random_search(problem, budget=budget, seed=run_seed)
                else:
                    raise KeyError(
                        f"unknown optimizer {optimizer!r} (rsgde3 | nsga2 | random)"
                    )
            finally:
                # the tune is done evaluating: release the engine's worker
                # pool (its stats stay readable on the TunedKernel)
                problem.engine.close()

        with obs.tracer.span("driver.finalize", kernel=fn.name):
            target = problem.target
            seq_candidates = [
                c for c in result.front if c.as_dict().get("threads", 1) == 1
            ]
            if seq_candidates:
                t_seq = min(c.time for c in seq_candidates)
            else:
                # fall back: fastest front tiles at one thread
                best = min(result.front, key=lambda c: c.time)
                tiles, _ = problem.split_values(best.as_dict())
                t_seq = target.true_time(tiles, 1)
            baseline = target.model.baseline_time()

        return TunedKernel(
            kernel=kernel,
            function=fn,
            region=region,
            skeleton=skeleton,
            machine=self.machine,
            sizes=dict(sizes),
            target=target,
            result=result,
            sequential_time=t_seq,
            baseline_time=baseline,
            engine=problem.engine,
            obs=self.obs,
        )
