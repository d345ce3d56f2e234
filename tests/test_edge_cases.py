"""Edge cases and failure injection across the pipeline: degenerate problem
sizes, extreme noise, single-point spaces, minimal tables."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import extract_regions
from repro.backend.meta import VersionMeta
from repro.driver import TuningDriver
from repro.evaluation import EvaluationEngine, RegionCostModel, SimulatedTarget
from repro.frontend import get_kernel
from repro.machine import BARCELONA, WESTMERE
from repro.optimizer import (
    GDE3Settings,
    RSGDE3,
    TuningProblem,
    brute_force_search,
    random_search,
)
from repro.optimizer.pareto import dominates
from repro.optimizer.rsgde3 import RSGDE3Settings
from repro.runtime import (
    FastestPolicy,
    MostEfficientPolicy,
    RegionExecutor,
    Version,
    VersionTable,
    WeightedSumPolicy,
)
from repro.transform import default_skeleton

FAST = RSGDE3Settings(
    gde3=GDE3Settings(population_size=8), max_generations=6, patience=2
)


class TestTinyProblems:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_driver_handles_tiny_sizes(self, n):
        driver = TuningDriver(machine=WESTMERE, seed=1, settings=FAST)
        tuned = driver.tune_kernel("mm", sizes={"N": n})
        assert tuned.result.size >= 1
        table = tuned.build_version_table()
        k = get_kernel("mm")
        rng = np.random.default_rng(0)
        inputs = k.make_inputs({"N": n}, rng)
        arrs = {name: a.copy() for name, a in inputs.items()}
        table.fastest()(arrs, {"N": n})
        ref = k.reference(inputs, {"N": n})
        assert np.allclose(arrs["C"], ref["C"])

    def test_degenerate_tile_space(self):
        """N=2 makes every tile bound collapse to [1,1]."""
        k = get_kernel("mm")
        region = extract_regions(k.function)[0]
        sk = default_skeleton(region, {"N": 2}, 4)
        for p in sk.parameters:
            if p.name.startswith("tile_"):
                assert p.lo == p.hi == 1

    def test_cost_model_single_iteration_domain(self):
        k = get_kernel("mm")
        region = extract_regions(k.function)[0]
        m = RegionCostModel(region, {"N": 1}, WESTMERE)
        assert m.time({"i": 1, "j": 1, "k": 1}, 1) > 0


class TestExtremeNoise:
    def test_front_still_mutually_nondominated(self):
        k = get_kernel("mm")
        region = extract_regions(k.function)[0]
        sk = default_skeleton(region, {"N": 300}, BARCELONA.total_cores)
        model = RegionCostModel(region, {"N": 300}, BARCELONA,
                                parallel_spec=sk.parallel_spec())
        target = SimulatedTarget(model, seed=3, noise=0.3)  # 30% jitter
        problem = TuningProblem.from_skeleton(sk, target)
        res = RSGDE3(problem, FAST).run(seed=1)
        assert res.size >= 1
        for a in res.front:
            for b in res.front:
                assert not dominates(a.objectives, b.objectives)

    def test_zero_noise_exact_model_times(self):
        k = get_kernel("mm")
        region = extract_regions(k.function)[0]
        model = RegionCostModel(region, {"N": 300}, WESTMERE)
        target = SimulatedTarget(model, seed=0, noise=0.0)
        key = target.config_key({"i": 16, "j": 16, "k": 16}, 4)
        (obj,) = EvaluationEngine(target).evaluate_batch([key]).objectives
        assert obj.time == pytest.approx(model.time({"i": 16, "j": 16, "k": 16}, 4))


class TestDegenerateSearches:
    def test_brute_force_grid_larger_than_extent(self):
        k = get_kernel("mm")
        region = extract_regions(k.function)[0]
        sk = default_skeleton(region, {"N": 8}, 4)
        model = RegionCostModel(region, {"N": 8}, WESTMERE,
                                parallel_spec=sk.parallel_spec())
        problem = TuningProblem.from_skeleton(sk, SimulatedTarget(model, seed=0))
        grid = {v: [1, 2, 4] for v in "ijk"}
        res, _ = brute_force_search(problem, grid, [1, 4])
        assert res.size >= 1

    def test_random_search_tiny_budget(self):
        k = get_kernel("mm")
        region = extract_regions(k.function)[0]
        sk = default_skeleton(region, {"N": 100}, 4)
        model = RegionCostModel(region, {"N": 100}, WESTMERE,
                                parallel_spec=sk.parallel_spec())
        problem = TuningProblem.from_skeleton(sk, SimulatedTarget(model, seed=0))
        res = random_search(problem, budget=1, seed=0)
        assert res.evaluations == 1 and res.size == 1

    def test_population_larger_than_space(self):
        """NP=8 in a space with ~4 distinct configurations: the ledger
        deduplicates but the search must still terminate."""
        k = get_kernel("mm")
        region = extract_regions(k.function)[0]
        sk = default_skeleton(region, {"N": 3}, 2)
        model = RegionCostModel(region, {"N": 3}, WESTMERE,
                                parallel_spec=sk.parallel_spec())
        problem = TuningProblem.from_skeleton(sk, SimulatedTarget(model, seed=0))
        res = RSGDE3(problem, FAST).run(seed=0)
        assert res.size >= 1
        assert res.evaluations <= problem.space.cardinality()


class TestMinimalTables:
    def test_single_version_table(self):
        meta = VersionMeta(index=0, time=1.0, resources=1.0, threads=1, tile_sizes=())
        table = VersionTable("r", (Version(meta=meta),))
        for policy in (FastestPolicy(), MostEfficientPolicy(), WeightedSumPolicy()):
            assert policy.select(table).meta.index == 0

    def test_identical_versions_weighted_sum_stable(self):
        metas = [
            VersionMeta(index=i, time=1.0, resources=1.0, threads=1, tile_sizes=())
            for i in range(3)
        ]
        table = VersionTable("r", tuple(Version(meta=m) for m in metas))
        # degenerate normalization (all equal) must not divide by zero
        assert WeightedSumPolicy().select(table).meta.index == 0


class TestLedgerConsistency:
    def test_batch_then_single_consistent(self):
        """A config first measured in a batch returns the identical value
        when re-queried as a single configuration, without a second
        evaluation."""
        k = get_kernel("mm")
        region = extract_regions(k.function)[0]
        sk = default_skeleton(region, {"N": 200}, 8)
        model = RegionCostModel(region, {"N": 200}, WESTMERE,
                                parallel_spec=sk.parallel_spec())
        problem = TuningProblem.from_skeleton(sk, SimulatedTarget(model, seed=12))
        values = {"tile_i": 16, "tile_j": 32, "tile_k": 8, "threads": 4}
        batch = problem.evaluate_batch(np.array([[values[n] for n in problem.space.names]]))
        single = problem.evaluate(values)
        assert single.objectives == batch[0].objectives
        assert problem.target.cached_objectives({"i": 16, "j": 32, "k": 8}, 4).time == single.time
        assert problem.evaluations == 1
