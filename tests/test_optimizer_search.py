"""Tests for the search machinery: spaces, problems, GDE3, rough-set
reduction, RS-GDE3, and the baseline strategies."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import extract_regions
from repro.evaluation import RegionCostModel, SimulatedTarget
from repro.frontend import get_kernel
from repro.machine import BARCELONA, WESTMERE
from repro.optimizer import (
    Boundary,
    Configuration,
    GDE3,
    GDE3Settings,
    NSGA2,
    ParameterSpace,
    RSGDE3,
    TuningProblem,
    brute_force_search,
    compare_fronts,
    grid_candidates,
    hypervolume,
    random_search,
    rough_set_boundary,
)
from repro.optimizer.metrics import igd
from repro.optimizer.rsgde3 import RSGDE3Settings
from repro.transform import default_skeleton
from repro.transform.skeleton import Parameter
from repro.util.rng import derive_rng


def make_problem(seed=0, machine=WESTMERE, n=512, kernel="mm"):
    k = get_kernel(kernel)
    region = extract_regions(k.function)[0]
    sizes = {key: n for key in k.default_size if key in ("N", "n")}
    sizes.update({key: v for key, v in k.default_size.items() if key not in sizes})
    sk = default_skeleton(region, sizes, machine.total_cores)
    model = RegionCostModel(region, sizes, machine, flops_per_iteration=k.flops_per_point)
    return TuningProblem.from_skeleton(sk, SimulatedTarget(model, seed=seed))


class TestParameterSpace:
    def test_names_and_dim(self):
        p = make_problem()
        assert p.space.names == ("tile_i", "tile_j", "tile_k", "threads")
        assert p.space.dim == 4

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            ParameterSpace((Parameter("a", 1, 2), Parameter("a", 1, 2)))

    def test_sample_within_domain(self):
        p = make_problem()
        rng = derive_rng(0)
        samples = p.space.full_boundary().sample(rng, 50)
        assert samples.shape == (50, p.space.dim)
        for row in samples:
            for val, param in zip(row, p.space.parameters):
                lo, hi = param.span()
                assert lo <= val <= hi
                assert val in param.choices if param.is_categorical else val == int(val)

    def test_cardinality(self):
        space = ParameterSpace((Parameter("a", 1, 10), Parameter("b", 1, 5, choices=(1, 3, 5))))
        assert space.cardinality() == 30

    def test_clamp_vector(self):
        p = make_problem()
        clamped = p.space.clamp_vector(np.array([1e9, -5, 3.6, 7.2]))
        assert clamped[0] == p.space.parameter("tile_i").hi
        assert clamped[1] == 1
        assert clamped[2] == 4


class TestBoundary:
    def test_get_closest_clips(self):
        p = make_problem()
        full = p.space.full_boundary()
        b = Boundary(space=p.space, lo=full.lo + 10, hi=full.hi - 10)
        snapped = b.get_closest_to(full.lo)
        assert (snapped >= b.lo).all()

    def test_invalid_rejected(self):
        p = make_problem()
        full = p.space.full_boundary()
        with pytest.raises(ValueError):
            Boundary(space=p.space, lo=full.hi, hi=full.lo)

    def test_volume_fraction(self):
        p = make_problem()
        full = p.space.full_boundary()
        assert full.volume_fraction() == pytest.approx(1.0)
        half = Boundary(space=p.space, lo=full.lo, hi=(full.lo + full.hi) / 2)
        assert half.volume_fraction() < 0.2

    def test_contains(self):
        p = make_problem()
        full = p.space.full_boundary()
        assert full.contains(full.lo)

    def test_categorical_snap(self):
        space = ParameterSpace((Parameter("t", 1, 40, choices=(1, 5, 10, 20, 40)),))
        full = space.full_boundary()
        assert full.get_closest_to(np.array([12.0]))[0] == 10
        narrow = Boundary(space=space, lo=np.array([18.0]), hi=np.array([25.0]))
        assert narrow.get_closest_to(np.array([40.0]))[0] == 20


class TestTuningProblem:
    def test_evaluate_counts(self):
        p = make_problem()
        c = p.evaluate({"tile_i": 8, "tile_j": 8, "tile_k": 8, "threads": 4})
        assert p.evaluations == 1
        assert c.time > 0 and c.resources == pytest.approx(4 * c.time)

    def test_split_values(self):
        p = make_problem()
        tiles, threads = p.split_values({"tile_i": 3, "tile_j": 4, "tile_k": 5, "threads": 7})
        assert tiles == {"i": 3, "j": 4, "k": 5} and threads == 7

    def test_batch_matches_single(self):
        pa, pb = make_problem(seed=4), make_problem(seed=4)
        values = {"tile_i": 16, "tile_j": 32, "tile_k": 8, "threads": 10}
        single = pa.evaluate(values)
        vec = np.array([[16, 32, 8, 10]], dtype=float)
        batch = pb.evaluate_batch(vec)[0]
        assert single.objectives == batch.objectives

    def test_configuration_accessors(self):
        c = Configuration.make({"threads": 3, "tile_i": 5}, (1.0, 3.0))
        assert c.value("threads") == 3
        assert c.as_dict()["tile_i"] == 5
        with pytest.raises(KeyError):
            c.value("zz")
        assert (c.vector(["tile_i", "threads"]) == [5.0, 3.0]).all()


class TestGDE3:
    def test_settings_validated(self):
        with pytest.raises(ValueError):
            GDE3Settings(population_size=3)
        with pytest.raises(ValueError):
            GDE3Settings(cr=1.5)
        with pytest.raises(ValueError):
            GDE3Settings(f=0.0)

    @staticmethod
    def _initial(g, boundary, rng):
        return g.problem.evaluate_batch(
            boundary.sample(rng, g.settings.population_size)
        )

    @staticmethod
    def _generation(g, pop, boundary, rng):
        trials = g.problem.evaluate_batch(g.propose(pop, boundary, rng))
        return g.select(pop, trials)

    def test_population_size_maintained(self):
        p = make_problem()
        g = GDE3(p, GDE3Settings(population_size=12))
        rng = derive_rng(1)
        full = p.space.full_boundary()
        pop = self._initial(g, full, rng)
        assert len(pop) == 12
        for _ in range(3):
            pop = self._generation(g, pop, full, rng)
            assert len(pop) <= 12

    def test_generation_never_degrades_front(self):
        """Selection keeps dominating configurations: the front's
        hypervolume never decreases across generations."""
        from repro.optimizer.hypervolume import hypervolume

        p = make_problem(seed=7)
        g = GDE3(p, GDE3Settings(population_size=16))
        rng = derive_rng(2)
        full = p.space.full_boundary()
        pop = self._initial(g, full, rng)
        ref = np.array([c.objectives for c in pop]).max(axis=0) * 1.2
        prev = hypervolume(np.array([c.objectives for c in pop]), ref)
        for _ in range(5):
            pop = self._generation(g, pop, full, rng)
            cur = hypervolume(np.array([c.objectives for c in pop]), ref)
            assert cur >= prev - 1e-12
            prev = cur

    def test_trials_within_boundary(self):
        p = make_problem()
        g = GDE3(p, GDE3Settings(population_size=8))
        rng = derive_rng(3)
        full = p.space.full_boundary()
        lo = full.lo + (full.hi - full.lo) * 0.25
        hi = full.lo + (full.hi - full.lo) * 0.75
        box = Boundary(space=p.space, lo=lo, hi=hi)
        pop = self._initial(g, box, rng)
        pop = self._generation(g, pop, box, rng)
        names = p.space.names
        # all *new* configurations must lie in the box (original members may
        # remain); check via trial reconstruction: every member either came
        # from the initial box population or is inside the box
        for c in pop:
            assert box.contains(c.vector(names))


class TestRoughSet:
    def _configs(self, vecs, objs, space):
        names = space.names
        return [
            Configuration.make(dict(zip(names, v)), tuple(o))
            for v, o in zip(vecs, objs)
        ]

    def test_bounds_from_dominated_neighbours(self):
        space = ParameterSpace((Parameter("x", 0, 100), Parameter("y", 0, 100)))
        full = space.full_boundary()
        # non-dominated points at x=40..60; dominated at x=20 and x=90
        vecs = [(40, 50), (60, 50), (20, 50), (90, 50)]
        objs = [(1, 2), (2, 1), (5, 5), (6, 6)]
        box = rough_set_boundary(self._configs(vecs, objs, space), full, min_span_fraction=0.0)
        assert box.lo[0] == 20 and box.hi[0] == 90

    def test_encloses_all_nondominated(self):
        space = ParameterSpace((Parameter("x", 0, 100),))
        full = space.full_boundary()
        vecs = [(10,), (90,), (50,)]
        objs = [(1, 3), (3, 1), (5, 5)]
        box = rough_set_boundary(self._configs(vecs, objs, space), full)
        assert box.lo[0] <= 10 and box.hi[0] >= 90

    def test_all_nondominated_keeps_full(self):
        space = ParameterSpace((Parameter("x", 0, 100),))
        full = space.full_boundary()
        vecs = [(10,), (90,)]
        objs = [(1, 3), (3, 1)]
        box = rough_set_boundary(self._configs(vecs, objs, space), full)
        assert box.lo[0] == full.lo[0] and box.hi[0] == full.hi[0]

    def test_empty_population_keeps_full(self):
        space = ParameterSpace((Parameter("x", 0, 100),))
        full = space.full_boundary()
        assert rough_set_boundary([], full) is full

    def test_protected_dimension_untouched(self):
        space = ParameterSpace((Parameter("x", 0, 100), Parameter("threads", 1, 40)))
        full = space.full_boundary()
        vecs = [(40, 10), (60, 12), (20, 1), (90, 40)]
        objs = [(1, 2), (2, 1), (5, 5), (6, 6)]
        box = rough_set_boundary(
            self._configs(vecs, objs, space), full, protect={"threads"}
        )
        assert box.lo[1] == 1 and box.hi[1] == 40
        assert box.lo[0] > 0  # x still reduced

    def test_min_span_floor(self):
        space = ParameterSpace((Parameter("x", 0, 100),))
        full = space.full_boundary()
        vecs = [(50,), (49,), (51,)]
        objs = [(1, 1), (5, 5), (6, 6)]
        box = rough_set_boundary(
            self._configs(vecs, objs, space), full, min_span_fraction=0.2
        )
        assert box.hi[0] - box.lo[0] >= 0.2 * 100 - 1e-9

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_property_box_always_contains_front(self, data):
        space = ParameterSpace((Parameter("x", 0, 50), Parameter("y", 0, 50)))
        full = space.full_boundary()
        n = data.draw(st.integers(min_value=2, max_value=20))
        vecs = [
            (data.draw(st.integers(0, 50)), data.draw(st.integers(0, 50)))
            for _ in range(n)
        ]
        objs = [
            (data.draw(st.floats(0, 10)), data.draw(st.floats(0, 10)))
            for _ in range(n)
        ]
        configs = self._configs(vecs, objs, space)
        box = rough_set_boundary(configs, full)
        from repro.optimizer.pareto import non_dominated

        front = non_dominated(configs, key=lambda c: c.objectives)
        for c in front:
            assert box.contains(c.vector(space.names))


class TestRSGDE3:
    def test_runs_and_reports(self):
        p = make_problem(seed=11)
        res = RSGDE3(p).run(seed=1)
        assert res.size >= 1
        assert res.evaluations > 30  # more than the initial sample
        assert res.generations >= RSGDE3Settings().patience
        assert len(res.boundary_history) == res.generations + 1

    def test_front_mutually_nondominated(self):
        from repro.optimizer.pareto import dominates

        p = make_problem(seed=12)
        res = RSGDE3(p).run(seed=2)
        for a in res.front:
            for b in res.front:
                assert not dominates(a.objectives, b.objectives)

    def test_deterministic_given_seeds(self):
        r1 = RSGDE3(make_problem(seed=13)).run(seed=3)
        r2 = RSGDE3(make_problem(seed=13)).run(seed=3)
        assert [c.objectives for c in r1.front] == [c.objectives for c in r2.front]
        assert r1.evaluations == r2.evaluations

    def test_beats_random_on_average(self):
        """Paper Table VI: RS-GDE3 clearly outperforms random search at
        equal evaluation budgets."""
        rs_runs, rnd_runs = [], []
        for rep in range(3):
            r = RSGDE3(make_problem(seed=20 + rep)).run(seed=rep)
            rs_runs.append(r)
            rnd_runs.append(
                random_search(make_problem(seed=40 + rep), budget=r.evaluations, seed=rep)
            )
        metrics = {
            m.name: m for m in compare_fronts({"rsgde3": rs_runs, "random": rnd_runs})
        }
        assert metrics["rsgde3"].hypervolume > metrics["random"].hypervolume

    def test_evaluation_budget_reasonable(self):
        """90-99% fewer evaluations than a paper-scale brute force."""
        p = make_problem(seed=14)
        res = RSGDE3(p).run(seed=4)
        assert res.evaluations < 3000

    def test_front_hv_with_escaped_envelope(self):
        """Regression for the fixed-ref early-stopping interaction: the
        driver pins ``ref`` from the initial population, so later fronts can
        escape that envelope in one objective.  Such points must be clipped
        (contributing their in-box share: zero for the escaped coordinate),
        never make the hypervolume NaN/negative, and must not mask the gain
        of points that *did* improve inside the box."""
        ref = np.array([1.0, 1.0])

        def front_hv(objs):
            configs = [Configuration.make({"x": i}, o) for i, o in enumerate(objs)]
            return hypervolume(np.array([c.objectives for c in configs]), ref)

        hv0 = front_hv([(0.6, 0.6)])
        # next generation: one point escapes ref in objective 2 while a
        # second improves strictly inside the initial envelope
        hv1 = front_hv([(0.2, 1.8), (0.4, 0.4)])
        assert hv1 > hv0  # improvement registers; patience is not tripped
        # a fully escaped front degrades to zero, not to an error
        hv2 = front_hv([(0.2, 1.8), (1.5, 0.3)])
        assert hv2 == 0.0

    def test_escaped_envelope_run_converges(self):
        """End-to-end: a tiny-noise problem whose GDE3 offspring routinely
        leave the initial objective envelope still terminates by patience
        with a finite hv_history (no NaN from the fixed-ref normalization)."""
        p = make_problem(seed=21)
        res = RSGDE3(p, RSGDE3Settings(max_generations=30)).run(seed=5)
        hvs = [hv for _, hv in res.hv_history]
        assert all(np.isfinite(hv) and hv >= 0.0 for hv in hvs)
        assert res.size >= 1 and res.generations <= 30


class TestBaselines:
    def test_grid_candidates(self):
        g = grid_candidates(1, 700, 15)
        assert g[0] == 1 and g[-1] == 700 and len(g) == 15
        assert grid_candidates(1, 5, 10) == [1, 2, 3, 4, 5]
        with pytest.raises(ValueError):
            grid_candidates(5, 1, 3)

    def test_brute_force_counts_grid(self):
        p = make_problem(seed=15)
        grid = {v: [8, 64, 256] for v in "ijk"}
        res, data = brute_force_search(p, grid, [1, 10], keep_data=True)
        assert res.evaluations == 27 * 2
        assert len(data) == 54
        assert data.thread_counts() == [1, 10]

    def test_brute_force_best_lookup(self):
        p = make_problem(seed=16)
        grid = {v: [8, 64, 256] for v in "ijk"}
        _, data = brute_force_search(p, grid, [1, 10], keep_data=True)
        values, t = data.best_for_threads(10)
        assert t > 0 and values["threads"] == 10
        with pytest.raises(KeyError):
            data.best_for_threads(39)

    def test_brute_force_missing_axis_rejected(self):
        p = make_problem(seed=17)
        with pytest.raises(KeyError):
            brute_force_search(p, {"i": [8]}, [1])

    def test_random_search_budget(self):
        p = make_problem(seed=18)
        res = random_search(p, budget=100, seed=0)
        assert res.evaluations == 100
        assert res.size >= 1
        with pytest.raises(ValueError):
            random_search(p, budget=0)

    def test_nsga2_runs(self):
        p = make_problem(seed=19)
        res = NSGA2(p).run(seed=0)
        assert res.size >= 1 and res.evaluations > 0


class TestMetrics:
    def test_compare_fronts_shared_normalization(self):
        from repro.optimizer.rsgde3 import OptimizerResult

        # f1's points pointwise-dominate f2's single point
        f1 = OptimizerResult(
            front=(Configuration.make({"a": 1}, (1.0, 1.5)),
                   Configuration.make({"a": 2}, (1.5, 1.0))),
            evaluations=10,
            generations=1,
        )
        f2 = OptimizerResult(
            front=(Configuration.make({"a": 3}, (1.5, 1.5)),
                   Configuration.make({"a": 4}, (2.0, 1.0)),
                   Configuration.make({"a": 5}, (1.0, 2.0))),
            evaluations=20,
            generations=1,
        )
        ms = {m.name: m for m in compare_fronts({"x": [f1], "y": [f2]})}
        assert ms["x"].hypervolume > ms["y"].hypervolume
        assert ms["x"].evaluations == 10 and ms["y"].size == 3

    def test_compare_empty_raises(self):
        with pytest.raises(ValueError):
            compare_fronts({"x": []})

    def test_igd(self):
        ref = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert igd(ref, ref) == 0.0
        off = np.array([[0.5, 0.5]])
        assert igd(off, ref) == pytest.approx(np.sqrt(0.5))
        assert igd(np.zeros((0, 2)), ref) == float("inf")
