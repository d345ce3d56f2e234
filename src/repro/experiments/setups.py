"""Experiment setup: kernels × machines at paper scale.

An :class:`ExperimentSetup` bundles everything one benchmark needs: the
region, cost model, simulated target, skeleton/problem constructors and the
brute-force tile grid.  Grid resolutions approximate the paper's sweeps
(mm used >14,000 tile configurations; our defaults land in the same order
of magnitude while keeping the full harness fast on one core).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.regions import TunableRegion, extract_regions
from repro.evaluation.cost import RegionCostModel
from repro.evaluation.parallel_eval import EvaluationEngine
from repro.evaluation.simulator import SimulatedTarget
from repro.frontend.kernels import Kernel, get_kernel
from repro.machine.model import MachineModel
from repro.optimizer.brute_force import grid_candidates
from repro.optimizer.problem import TuningProblem
from repro.transform.skeleton import TransformationSkeleton, default_skeleton

__all__ = ["EXPERIMENT_KERNELS", "ExperimentSetup", "make_setup", "brute_force_grid"]

#: kernels in the paper's evaluation order (Table VI)
EXPERIMENT_KERNELS = ("mm", "dsyrk", "jacobi2d", "stencil3d", "nbody")

#: brute-force grid points per tile dimension, chosen so the total
#: evaluation counts land at the paper's 10^4 scale regardless of the
#: kernel's tile-space dimensionality (mm: 13^3 x 5 threads ~ 11k;
#: jacobi-2d: 40^2 x 5 ~ 8k; n-body: 3600 x 6 ~ 21.6k, cf. the paper's
#: 21,780)
_GRID_POINTS = {3: 13, 2: 40, 1: 3600}


def brute_force_grid(kernel: Kernel, region: TunableRegion, sizes: dict[str, int]) -> dict[str, list[int]]:
    """Regular tile grid per tuned loop, upper-bounded at extent/2 (the
    paper's static restriction)."""
    band = kernel.tile_loops
    points = _GRID_POINTS.get(len(band), 13)
    grid = {}
    for v in band:
        extent = region.domain.extent(v, sizes)
        # multi-dim bands use the paper's extent/2 upper bound; a single
        # tuned (reduction) dimension sweeps up to the full extent so the
        # "no blocking" configuration is part of the search space
        hi = extent if len(band) == 1 else max(1, extent // 2)
        grid[v] = grid_candidates(1, hi, points)
    return grid


@dataclass
class ExperimentSetup:
    """One (kernel, machine) experiment instance."""

    kernel: Kernel
    machine: MachineModel
    sizes: dict[str, int]
    region: TunableRegion
    seed: int = 0
    noise: float = 0.015

    _model: RegionCostModel | None = field(default=None, repr=False)

    def skeleton(self, thread_choices: tuple[int, ...] = ()) -> TransformationSkeleton:
        return default_skeleton(
            self.region,
            self.sizes,
            self.machine.total_cores,
            thread_choices=thread_choices,
            band=self.kernel.tile_loops,
        )

    @property
    def model(self) -> RegionCostModel:
        if self._model is None:
            self._model = RegionCostModel(
                self.region,
                self.sizes,
                self.machine,
                flops_per_iteration=self.kernel.flops_per_point,
                parallel_spec=self.skeleton().parallel_spec(),
            )
        return self._model

    def target(self, seed: int | None = None, disk_cache=None) -> SimulatedTarget:
        return SimulatedTarget(
            self.model,
            seed=self.seed if seed is None else seed,
            noise=self.noise,
            disk_cache=disk_cache,
        )

    def problem(
        self,
        seed: int | None = None,
        thread_choices: tuple[int, ...] = (),
        workers: int | str = 1,
        obs=None,
        disk_cache=None,
    ) -> TuningProblem:
        target = self.target(seed, disk_cache=disk_cache)
        return TuningProblem.from_skeleton(
            self.skeleton(thread_choices),
            target,
            engine=EvaluationEngine(target, max_workers=workers, obs=obs),
            obs=obs,
        )

    def tile_grid(self) -> dict[str, list[int]]:
        return brute_force_grid(self.kernel, self.region, self.sizes)

    @property
    def thread_counts(self) -> tuple[int, ...]:
        return self.machine.default_thread_counts()


def make_setup(
    kernel_name: str,
    machine: MachineModel,
    sizes: dict[str, int] | None = None,
    seed: int = 0,
    noise: float = 0.015,
) -> ExperimentSetup:
    kernel = get_kernel(kernel_name)
    merged = kernel.sizes(sizes)
    region = extract_regions(kernel.function)[0]
    return ExperimentSetup(
        kernel=kernel,
        machine=machine,
        sizes=merged,
        region=region,
        seed=seed,
        noise=noise,
    )
