"""Tests for the evaluation substrate: objectives, measurement protocol,
the analytical cost model (including cache-simulator cross-validation and
the paper's qualitative phenomena) and the simulated target."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import extract_regions
from repro.evaluation import (
    EvaluationEngine,
    Measurement,
    MeasurementProtocol,
    Objectives,
    RegionCostModel,
    SimulatedTarget,
    efficiency,
    resource_usage,
    speedup,
)
from repro.evaluation.measurements import row_measurement, row_objectives
from repro.experiments import make_setup
from repro.frontend import get_kernel, parse_function
from repro.ir.interp import run_function
from repro.machine import BARCELONA, WESTMERE, CacheHierarchy, CacheSim
from repro.machine.cache import AddressTraceRecorder
from repro.machine.model import LAPTOP, SERVER2S, CacheLevel, MachineModel
from repro.transform import replace_at_path, tile
from repro.util.ndtri import ndtri
from repro.util.rng import spawn_seed
from repro.util.stats import median
from tests.cost_oracle import ScalarCostModel

ORACLE_MACHINES = (WESTMERE, BARCELONA)
ORACLE_KERNELS = ("mm", "dsyrk", "jacobi2d", "stencil3d", "nbody")
SAXPY = """
void saxpy(int N, double a, double x[N], double y[N]) {
    for (int i = 0; i < N; i++)
        y[i] = a * x[i] + y[i];
}
"""


def as_keys(target, configs):
    """Canonical keys of ``(tile_sizes, threads)`` pairs — the engine's input."""
    return [target.config_key(tiles, threads) for tiles, threads in configs]


def measure(target, tiles, threads):
    """One configuration through the evaluation engine (a B = 1 batch)."""
    key = target.config_key(tiles, threads)
    return EvaluationEngine(target).evaluate_batch([key]).objectives[0]


def noise_factors(target, key, reps):
    """The lognormal noise factors of *key*'s repetitions, from their
    definition: ``exp(noise · ndtri((spawn_seed(seed, key, rep) + 0.5) / 2**64))``."""
    u = np.array([(spawn_seed(target.seed, key, rep) + 0.5) / float(1 << 64) for rep in range(reps)])
    return np.exp(target.noise * ndtri(u))


def reference_measurement(target, key):
    """The measurement of one canonical key, restated per key: the scalar
    oracle's model time times each repetition's noise factor, median of k."""
    tiles = dict(zip(target.band, key[:-1]))
    true_time = ScalarCostModel(target.model).time(tiles, key[-1], collapsed=target.collapsed)
    samples = tuple((true_time * noise_factors(target, key, target.protocol.repetitions)).tolist())
    return Measurement(value=median(samples), samples=samples)


class TestObjectives:
    def test_vector(self):
        o = Objectives(time=2.0, threads=4)
        assert (o.time, o.resources) == (2.0, 8.0)

    def test_speedup_efficiency(self):
        assert speedup(0.5, 2.0) == 4.0
        assert efficiency(0.5, 4, 2.0) == 1.0
        assert resource_usage(0.5, 4) == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            speedup(0.0, 1.0)
        with pytest.raises(ValueError):
            efficiency(1.0, 0, 1.0)


class TestMeasurementProtocol:
    def test_median_of_k(self):
        samples = iter([3.0, 1.0, 2.0])
        p = MeasurementProtocol(repetitions=3)
        m = p.measure(lambda: next(samples))
        assert m.value == 2.0 and m.repetitions == 3

    def test_rejects_nonpositive_sample(self):
        p = MeasurementProtocol(repetitions=1)
        with pytest.raises(ValueError):
            p.measure(lambda: 0.0)

    def test_rejects_bad_repetitions(self):
        with pytest.raises(ValueError):
            MeasurementProtocol(repetitions=0)

    def test_spread(self):
        samples = iter([1.0, 2.0, 3.0])
        m = MeasurementProtocol(3).measure(lambda: next(samples))
        assert m.spread == pytest.approx(1.0)


class TestCostModelBasics:
    def test_time_positive(self, mm_model):
        assert mm_model.time({"i": 32, "j": 288, "k": 9}, 10) > 0

    def test_untiled_default(self, mm_model):
        assert mm_model.time({}, 1) == mm_model.baseline_time()

    def test_more_threads_faster_mm(self, mm_model):
        tiles = {"i": 64, "j": 128, "k": 16}
        t1 = mm_model.time(tiles, 1)
        t10 = mm_model.time(tiles, 10)
        assert t10 < t1 / 5  # decent scaling for cache-friendly tiles

    def test_sublinear_scaling(self, mm_model):
        """Efficiency decays with threads (paper Table III)."""
        tiles = {"i": 64, "j": 128, "k": 16}
        t1 = mm_model.time(tiles, 1)
        t40 = mm_model.time(tiles, 40)
        eff40 = (t1 / t40) / 40
        assert 0.4 < eff40 < 0.95

    def test_tiling_headroom_over_baseline(self, mm_model):
        """The paper's 'enormous potential of tiling': a good tiling beats
        the untiled baseline by a large factor."""
        good = mm_model.time({"i": 96, "j": 128, "k": 8}, 1)
        assert mm_model.baseline_time() / good > 5

    def test_tile_sizes_clipped_to_extent(self, mm_model):
        assert mm_model.time({"i": 10**9, "j": 10**9, "k": 10**9}, 1) == pytest.approx(
            mm_model.baseline_time()
        )
        # beyond int64 as well
        assert mm_model.time({"i": 10**30, "j": -(10**30)}, 1) == mm_model.time({"j": 1}, 1)

    def test_load_imbalance_penalty(self, mm_model):
        """Huge tiles leave too few parallel iterations for 40 threads."""
        few_iters = mm_model.time({"i": 700, "j": 700, "k": 16}, 40)  # P = 4
        many_iters = mm_model.time({"i": 64, "j": 128, "k": 16}, 40)
        assert few_iters > 2 * many_iters

    def test_sweep_factor_multiplies(self):
        k = get_kernel("jacobi2d")
        region = extract_regions(k.function)[0]
        m1 = RegionCostModel(region, {"N": 500, "T": 1}, WESTMERE)
        m10 = RegionCostModel(region, {"N": 500, "T": 10}, WESTMERE)
        tiles = {"i": 50, "j": 50}
        assert m10.time(tiles, 1) == pytest.approx(10 * m1.time(tiles, 1))

    def test_all_kernels_all_machines(self, kernel, machine):
        region = extract_regions(kernel.function)[0]
        m = RegionCostModel(
            region, kernel.default_size, machine,
            flops_per_iteration=kernel.flops_per_point,
        )
        tiles = {v: 16 for v in m.band}
        for thr in machine.default_thread_counts():
            assert m.time(tiles, thr) > 0


class TestPaperPhenomena:
    """The qualitative effects the paper's evaluation rests on."""

    def test_optimal_tiles_depend_on_thread_count_barcelona(self):
        """Fig 2 / Table II: per-thread-count optima differ, because the
        shared L3 capacity per thread shrinks (here: on Barcelona's small
        2 MB L3 the effect is strongest)."""
        k = get_kernel("mm")
        region = extract_regions(k.function)[0]
        m = RegionCostModel(region, {"N": 1400}, BARCELONA)
        cands = [8, 16, 32, 64, 128, 256, 350, 700]
        best = {}
        for thr in (1, 32):
            best[thr] = min(
                ((m.time({"i": ti, "j": tj, "k": tk}, thr), (ti, tj, tk))
                 for ti in cands for tj in cands for tk in cands)
            )[1]
        assert best[1] != best[32]

    def test_cross_thread_penalty(self):
        """Running tiles tuned for 1 thread with all cores loses performance
        (paper: 15-18% on mm, up to 4x on n-body)."""
        k = get_kernel("mm")
        region = extract_regions(k.function)[0]
        m = RegionCostModel(region, {"N": 1400}, BARCELONA)
        cands = [8, 16, 32, 64, 128, 256, 350, 700]
        def best(thr):
            return min(
                ((m.time({"i": ti, "j": tj, "k": tk}, thr), (ti, tj, tk))
                 for ti in cands for tj in cands for tk in cands)
            )
        t1, tiles1 = best(1)
        t32, _ = best(32)
        cross = m.time(dict(zip("ijk", tiles1)), 32)
        assert cross >= t32  # tuned wins
        assert cross / t32 > 1.02  # and the penalty is visible

    def test_nbody_cache_fit_asymmetry(self):
        """Table V: n-body's particle arrays fit each thread's share of
        Westmere's 30 MB L3 (j-blocking barely matters) but overflow the
        share of Barcelona's 2 MB L3 once a socket fills (huge penalty).
        Tested at one full socket per machine with identical parallel
        granularity (same i tile) so only the cache effect differs."""
        k = get_kernel("nbody")
        region = extract_regions(k.function)[0]
        sizes = k.default_size
        unblocked = {"i": 256, "j": sizes["n"]}
        blocked = {"i": 256, "j": 4096}
        for mach, threads, min_ratio, max_ratio in (
            (WESTMERE, 10, 0.0, 1.35),
            (BARCELONA, 4, 1.5, 1e9),
        ):
            m = RegionCostModel(region, sizes, mach, flops_per_iteration=k.flops_per_point)
            ratio = m.time(unblocked, threads) / m.time(blocked, threads)
            assert min_ratio <= ratio <= max_ratio, (mach.name, ratio)

    def test_efficiency_speedup_tradeoff_shape(self, mm_model):
        """Fig 1 / Table III: speedup grows, efficiency falls monotonically
        across the paper's thread counts."""
        tiles = {"i": 64, "j": 128, "k": 16}
        t = {thr: mm_model.time(tiles, thr) for thr in (1, 5, 10, 20, 40)}
        speedups = [t[1] / t[thr] for thr in (1, 5, 10, 20, 40)]
        effs = [s / thr for s, thr in zip(speedups, (1, 5, 10, 20, 40))]
        assert all(a < b for a, b in zip(speedups, speedups[1:]))
        assert all(a > b for a, b in zip(effs, effs[1:]))

    def test_jacobi_bandwidth_saturation(self):
        """A bandwidth-bound sweep stops scaling within a socket — the
        mechanism that drops high-thread configs off the Pareto front."""
        k = get_kernel("jacobi2d")
        region = extract_regions(k.function)[0]
        m = RegionCostModel(
            region, k.default_size, WESTMERE, flops_per_iteration=k.flops_per_point
        )
        tiles = {"i": 256, "j": 256}
        t5 = m.time(tiles, 5)
        t10 = m.time(tiles, 10)
        assert t10 > 0.7 * t5  # nowhere near 2x


class TestBatchEqualsScalar:
    """``time_batch`` and ``energy_batch`` against the scalar formulation in
    ``tests/cost_oracle.py``: exactly equal (``==``), for every Table VI
    kernel on both paper machines and every collapse depth."""

    @pytest.fixture(scope="class")
    def models(self):
        out = {}
        for name in ORACLE_KERNELS:
            k = get_kernel(name)
            region = extract_regions(k.function)[0]
            for machine in ORACLE_MACHINES:
                m = RegionCostModel(
                    region, k.default_size, machine, flops_per_iteration=k.flops_per_point
                )
                out[name, machine.name] = m, ScalarCostModel(m)
        return out

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        kernel=st.sampled_from(ORACLE_KERNELS),
        machine=st.sampled_from(ORACLE_MACHINES),
        collapsed=st.sampled_from([None, 1, 2]),
    )
    def test_property_batch_matches_scalar(self, models, data, kernel, machine, collapsed):
        m, oracle = models[kernel, machine.name]
        n = data.draw(st.integers(min_value=1, max_value=8))
        tiles = np.array(
            [
                [data.draw(st.integers(min_value=1, max_value=m.extent[v] + 8)) for v in m.band]
                for _ in range(n)
            ]
        )
        threads = np.array(
            [data.draw(st.integers(min_value=1, max_value=machine.total_cores)) for _ in range(n)]
        )
        times = m.time_batch(tiles, threads, collapsed=collapsed)
        same_times, energies = m.energy_batch(tiles, threads, collapsed=collapsed)
        assert np.array_equal(same_times, times)
        for b in range(n):
            config = ({v: int(tiles[b, i]) for i, v in enumerate(m.band)}, int(threads[b]))
            assert times[b] == oracle.time(*config, collapsed=collapsed)
            assert energies[b] == oracle.energy(*config, collapsed=collapsed)

    @pytest.mark.parametrize("collapsed", [None, 1, 2])
    def test_every_kernel_and_machine(self, models, collapsed):
        """The property above, on a fixed random batch for each of the 10
        kernel × machine models, so every combination is checked."""
        rng = np.random.default_rng(17)
        for m, oracle in models.values():
            ext = np.array([m.extent[v] for v in m.band])
            tiles = np.column_stack([rng.integers(1, e + 1, 24) for e in ext])
            threads = rng.integers(1, m.machine.total_cores + 1, 24)
            times, energies = m.energy_batch(tiles, threads, collapsed=collapsed)
            for row, thr, t, e in zip(tiles.tolist(), threads.tolist(), times, energies):
                config = (dict(zip(m.band, row)), thr)
                assert t == oracle.time(*config, collapsed=collapsed)
                assert e == oracle.energy(*config, collapsed=collapsed)

    def test_single_configuration_wrappers(self, models):
        """``time``, ``energy`` and ``baseline_time`` are B = 1 calls, equal
        to the oracle's scalar evaluation (the untiled baseline included)."""
        for m, oracle in models.values():
            tiles = {v: 16 for v in m.band}
            for threads in (1, m.machine.cores_per_socket, m.machine.total_cores):
                assert m.time(tiles, threads) == oracle.time(tiles, threads)
                assert m.energy(tiles, threads) == oracle.energy(tiles, threads)
            assert m.baseline_time() == oracle.baseline_time()

    @pytest.mark.parametrize("machine", [WESTMERE, BARCELONA, LAPTOP, SERVER2S], ids=lambda m: m.name)
    def test_one_loop_band(self, machine):
        """A parsed one-loop source (n = 1) under every parallel spec:
        batch, B = 1 and scalar oracle agree exactly, loop overhead
        included (without its iteration term the model would read
        0.003772 s instead of 0.003897 s at N = 10^6, tile 1, 1 thread)."""
        (region,) = extract_regions(parse_function(SAXPY))
        rng = np.random.default_rng(23)
        specs = [None, ("collapse", 1), ("collapse", 2), ("none", None), ("tile", "i"), ("point", "i")]
        for N in (1000, 10**6):
            for spec in specs:
                m = RegionCostModel(region, {"N": N}, machine, parallel_spec=spec)
                oracle = ScalarCostModel(m)
                tiles = np.concatenate([[[1], [N]], rng.integers(1, N + 1, (22, 1))])
                threads = rng.integers(1, machine.total_cores + 1, 24)
                times, energies = m.energy_batch(tiles, threads)
                for (tile,), thr, t, e in zip(tiles.tolist(), threads.tolist(), times, energies):
                    assert t == oracle.time({"i": tile}, thr) == m.time({"i": tile}, thr)
                    assert e == oracle.energy({"i": tile}, thr)

    def test_single_configuration_rejects_unplaceable_threads(self, mm_model):
        for threads in (0, WESTMERE.total_cores + 1):
            with pytest.raises(ValueError):
                mm_model.time({}, threads)

    def test_batch_shape_validation(self, mm_model):
        with pytest.raises(ValueError):
            mm_model.time_batch(np.zeros((3, 2)), np.ones(3))
        with pytest.raises(ValueError):
            mm_model.time_batch(np.ones((3, 3)), np.ones(4))


class TestCacheSimValidation:
    """Cross-validation of the analytical traffic model against the
    trace-driven cache simulator on a miniature mm."""

    @staticmethod
    def _machine(l1=2 * 1024, l2=16 * 1024):
        return MachineModel(
            name="Tiny",
            sockets=1,
            cores_per_socket=1,
            freq_hz=1e9,
            flops_per_cycle=1.0,
            levels=(
                CacheLevel("L1", l1, 64, 2, shared=False, fetch_bw=1e9),
                CacheLevel("L2", l2, 64, 4, shared=True, fetch_bw=1e9),
            ),
            dram_bw_per_socket=1e9,
            dram_bw_per_core=1e9,
        )

    def _simulated_misses(self, nest_transform, n=24):
        k = get_kernel("mm")
        region = extract_regions(k.function)[0]
        fn = (
            replace_at_path(k.function, region.path, nest_transform(region.nest))
            if nest_transform
            else k.function
        )
        rec = AddressTraceRecorder()
        for name in ("A", "B", "C"):
            rec.register(name, (n, n))
        rng = np.random.default_rng(0)
        inputs = k.make_inputs({"N": n}, rng)
        run_function(fn, inputs, {"N": n}, trace_hook=rec.record)
        machine = self._machine()
        hier = CacheHierarchy.from_machine(machine)
        rec.replay(hier)
        return {lv.name: lv.miss_bytes for lv in hier.levels}

    def _analytic_traffic(self, tiles, n=24):
        k = get_kernel("mm")
        region = extract_regions(k.function)[0]
        m = ScalarCostModel(RegionCostModel(region, {"N": n}, self._machine()))
        # the per-level traffic of the scalar formulation's reuse units
        band = m.band
        t = {v: min(max(1, tiles.get(v, n)), n) for v in band}
        trips = {v: math.ceil(n / t[v]) for v in band}
        spans_units = m._unit_spans(t)
        whole = {v: n for v in band}
        out = {}
        prev = math.inf
        for level in m.machine.levels:
            cap = level.size
            ws_whole = sum(s.footprint_bytes(whole, level.line_size) for s in m.streams)
            if ws_whole <= cap:
                traffic = m._compulsory_traffic(whole, level.line_size)
            else:
                s_idx = m._fitting_unit(spans_units, cap, level.line_size)
                traffic = max(
                    m._unit_traffic(spans_units[s_idx], s_idx, t, trips, level.line_size),
                    m._compulsory_traffic(whole, level.line_size),
                )
            traffic = min(traffic, prev)
            prev = traffic
            out[level.name] = traffic
        return out

    def test_untiled_l1_traffic_within_factor(self):
        sim = self._simulated_misses(None)
        ana = self._analytic_traffic({})
        assert ana["L1"] / sim["L1"] == pytest.approx(1.0, abs=0.8)

    def test_tiling_reduces_l1_misses_in_both(self):
        tiles = {"i": 8, "j": 8, "k": 8}
        sim_untiled = self._simulated_misses(None)
        sim_tiled = self._simulated_misses(lambda nest: tile(nest, tiles))
        ana_untiled = self._analytic_traffic({})
        ana_tiled = self._analytic_traffic(tiles)
        assert sim_tiled["L1"] < sim_untiled["L1"]
        assert ana_tiled["L1"] < ana_untiled["L1"]
        # improvement factors agree within ~3x
        sim_gain = sim_untiled["L1"] / sim_tiled["L1"]
        ana_gain = ana_untiled["L1"] / ana_tiled["L1"]
        assert ana_gain / sim_gain == pytest.approx(1.0, abs=0.7)


class TestSimulatedTarget:
    def test_deterministic(self, mm_model):
        t1 = measure(SimulatedTarget(mm_model, seed=5), {"i": 32, "j": 64, "k": 8}, 10)
        t2 = measure(SimulatedTarget(mm_model, seed=5), {"i": 32, "j": 64, "k": 8}, 10)
        assert t1 == t2

    def test_seed_changes_noise(self, mm_model):
        t1 = measure(SimulatedTarget(mm_model, seed=1), {"i": 32, "j": 64, "k": 8}, 10)
        t2 = measure(SimulatedTarget(mm_model, seed=2), {"i": 32, "j": 64, "k": 8}, 10)
        assert t1.time != t2.time

    def test_noise_magnitude(self, mm_model):
        tgt = SimulatedTarget(mm_model, seed=3, noise=0.02)
        obj = measure(tgt, {"i": 32, "j": 64, "k": 8}, 10)
        truth = tgt.true_time({"i": 32, "j": 64, "k": 8}, 10)
        assert abs(obj.time - truth) / truth < 0.1

    def test_ledger_counts_unique_configs(self, mm_target):
        measure(mm_target, {"i": 32, "j": 64, "k": 8}, 10)
        measure(mm_target, {"i": 32, "j": 64, "k": 8}, 10)  # cache hit
        measure(mm_target, {"i": 32, "j": 64, "k": 8}, 20)
        assert mm_target.evaluations == 2

    def test_reset_ledger(self, mm_target):
        measure(mm_target, {"i": 32, "j": 64, "k": 8}, 10)
        mm_target.reset_ledger()
        assert mm_target.evaluations == 0

    def test_batch_matches_single(self, mm_model):
        """A two-configuration batch gives each configuration the time a
        batch of one gives it."""
        tgt_a = SimulatedTarget(mm_model, seed=9)
        tgt_b = SimulatedTarget(mm_model, seed=9)
        configs = [({"i": 32, "j": 64, "k": 8}, 10), ({"i": 16, "j": 128, "k": 4}, 20)]
        batch = EvaluationEngine(tgt_a).evaluate_batch(as_keys(tgt_a, configs))
        singles = [measure(tgt_b, *config) for config in configs]
        assert list(batch.objectives) == singles

    def test_measurement_protocol_used(self, mm_target):
        measure(mm_target, {"i": 32, "j": 64, "k": 8}, 10)
        m = mm_target.measurement({"i": 32, "j": 64, "k": 8}, 10)
        assert m.repetitions == mm_target.protocol.repetitions
        assert min(m.samples) <= m.value <= max(m.samples)

    def test_reads_never_evaluate(self, mm_target):
        """``measurement`` and ``cached_objectives`` only read the ledger:
        an unevaluated configuration raises and E stays 0."""
        for read in (mm_target.measurement, mm_target.cached_objectives):
            with pytest.raises(KeyError):
                read({"i": 32, "j": 64, "k": 8}, 10)
        assert mm_target.evaluations == 0


class TestEvaluateBatch:
    def test_preserves_order(self, mm_target):
        be = EvaluationEngine(mm_target)
        configs = [({"i": 32, "j": 64, "k": 8}, t) for t in (1, 10, 40)]
        res = be.evaluate_batch(as_keys(be.target, configs))
        assert [o.threads for o in res.objectives] == [1, 10, 40]
        assert res.new_evaluations == 3

    def test_thread_pool_path(self, mm_target):
        be = EvaluationEngine(mm_target, max_workers=4)
        configs = [({"i": 16 * t, "j": 64, "k": 8}, 10) for t in range(1, 9)]
        res = be.evaluate_batch(as_keys(be.target, configs))
        assert len(res.objectives) == 8


class TestVectorizedNoise:
    """compute_keys derives its noise matrix in one batch; the rows must be
    bit-identical to the per-key definition of the noise and of a
    measurement (``noise_factors``, ``reference_measurement``)."""

    def test_noise_matrix_matches_scalar_rows(self, mm_target):
        keys = [(32, 64, 8, 10), (16, 128, 4, 20), (8, 8, 8, 1), (32, 64, 8, 20)]
        reps = mm_target.protocol.repetitions
        matrix = mm_target._noise_factor_matrix(keys, reps)
        assert matrix.shape == (len(keys), reps)
        for row, key in zip(matrix, keys):
            assert np.array_equal(row, noise_factors(mm_target, key, reps))

    def test_compute_keys_matches_reference(self, mm_model):
        tgt = SimulatedTarget(mm_model, seed=13)
        keys = [(32, 64, 8, 10), (16, 128, 4, 20), (64, 8, 16, 40)]
        for key, row in zip(keys, tgt.compute_keys(keys)):
            value, samples, energy = row
            assert row_measurement(row) == reference_measurement(tgt, key)
            assert value == median(samples) and energy is None
            assert row_objectives(key, row) == Objectives(time=value, threads=key[-1])

    def test_compute_keys_energy_matches_reference(self):
        """With ``measure_energy`` the batch's energies are the scalar
        oracle's model energy scaled by the time's median noise factor."""
        for name in ORACLE_KERNELS:
            problem = make_setup(name, BARCELONA).problem()
            model = problem.target.model
            tgt = SimulatedTarget(model, seed=4, measure_energy=True)
            oracle = ScalarCostModel(model)
            rows = problem.space.full_boundary().sample(np.random.default_rng(2), 12)
            _, keys = problem.decode(rows)
            for key, row in zip(keys, tgt.compute_keys(keys)):
                meas = row_measurement(row)
                assert meas == reference_measurement(tgt, key)
                tiles = dict(zip(tgt.band, key[:-1]))
                true_energy = oracle.energy(tiles, key[-1])
                assert row[2] == true_energy * (meas.value / oracle.time(tiles, key[-1]))

    def test_noise_uniforms_match_spawn_seed_at_scale(self, mm_target):
        """The batched digest → uniform conversion equals the per-key
        ``(spawn_seed(seed, key, rep) + 0.5) / 2**64`` exactly on 10^5
        (key, repetition) pairs, about half of whose digests exceed 2^63
        (where uint64 → float64 must round like Python's int + float)."""
        from repro.util.rng import spawn_seed

        rng = np.random.default_rng(5)
        reps = 5
        keys = [
            tuple(int(x) for x in rng.integers(1, 4000, size=3)) + (int(rng.integers(1, 80)),)
            for _ in range(20_000)
        ]
        keys += [(2**40, -3, 0, 1), (1, 1, 1, 10**12)]
        u = mm_target._noise_uniforms(keys, reps)
        seeds = [[spawn_seed(mm_target.seed, key, rep) for rep in range(reps)] for key in keys]
        expected = np.array([[(s + 0.5) / float(1 << 64) for s in row] for row in seeds])
        assert u.shape == expected.shape == (len(keys), reps)
        assert np.array_equal(u, expected)
        high = sum(s >= 1 << 63 for row in seeds for s in row)
        assert 0.4 * u.size < high < 0.6 * u.size

    def test_compute_keys_empty(self, mm_target):
        assert mm_target.compute_keys([]) == []

    @pytest.mark.parametrize("kernel, machine, energy", [
        ("mm", WESTMERE, False), ("stencil3d", BARCELONA, True),
    ])
    def test_compute_keys_any_partition_matches_bulk(self, kernel, machine, energy):
        """Measurement noise is hash-derived per key, so splitting a batch
        into ``compute_keys`` calls of any size — 1 (per-key dispatch), 3,
        or the engine's ``ceil(B/workers)`` pooled chunk — gives exactly
        the bulk call's rows, bit for bit."""
        problem = make_setup(kernel, machine).problem()
        tgt = SimulatedTarget(problem.target.model, seed=6, measure_energy=energy)
        rows = problem.space.full_boundary().sample(np.random.default_rng(8), 40)
        keys = list(dict.fromkeys(problem.decode(rows)[1]))
        bulk = tgt.compute_keys(keys)
        for size in (1, 3) + tuple(math.ceil(len(keys) / w) for w in (2, 4, 8)):
            parts = [tgt.compute_keys(keys[i : i + size]) for i in range(0, len(keys), size)]
            assert [row for part in parts for row in part] == bulk, size
