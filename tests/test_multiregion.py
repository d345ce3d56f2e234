"""Tests for simultaneous multi-region tuning (paper §III-A: one program
execution measures all tuned regions at once)."""

from __future__ import annotations

import pytest

from repro.driver.multiregion import MultiRegionResult, MultiRegionTuner
from repro.evaluation.measurements import MeasurementProtocol
from repro.frontend import get_kernel
from repro.frontend.parser import parse_function
from repro.machine import WESTMERE
from repro.optimizer.gde3 import GDE3Settings
from repro.optimizer.rsgde3 import RSGDE3Settings

FAST = RSGDE3Settings(
    gde3=GDE3Settings(population_size=12), max_generations=10, patience=2
)

#: two textually identical nests over the same arrays — the regions' cost
#: models share one fingerprint, so the scheduler's cross-region dedup
#: serves one region's trials from the other's computations
TWIN_NESTS = """
void twins(int N, double A[N][N], double B[N][N]) {
    for (int i = 0; i < N; i++)
        for (int j = 0; j < N; j++)
            B[i][j] += 2.0 * A[i][j];
    for (int i = 0; i < N; i++)
        for (int j = 0; j < N; j++)
            B[i][j] += 2.0 * A[i][j];
}
"""


#: per-configuration latency makes the engine's pool rule hold: a test that
#: loops over ``PROTOCOLS`` runs the scheduler once inline (``None``) and once
#: on the pool, against a lock-step reference under the same protocol
LATENCY = MeasurementProtocol(overhead_s=1e-4)
PROTOCOLS = (None, LATENCY)


def jacobi_tuner(**kw):
    k = get_kernel("jacobi2d")
    kw.setdefault("sizes", {"N": 500, "T": 5})
    return MultiRegionTuner(
        function=k.function, machine=WESTMERE, settings=FAST, seed=7, **kw
    )


def fronts(res: MultiRegionResult):
    return [tuple(c.objectives for c in r.front) for r in res.results]


@pytest.fixture(scope="module")
def jacobi_result():
    k = get_kernel("jacobi2d")
    tuner = MultiRegionTuner(
        function=k.function,
        sizes={"N": 1000, "T": 10},
        machine=WESTMERE,
        settings=FAST,
        seed=3,
    )
    return tuner.run(seed=1)


class TestMultiRegionTuner:
    def test_one_result_per_region(self, jacobi_result):
        assert len(jacobi_result.results) == 2

    def test_each_region_has_front(self, jacobi_result):
        for r in jacobi_result.results:
            assert r.size >= 1
            assert r.evaluations > 0

    def test_program_runs_amortized(self, jacobi_result):
        """The whole point: program runs << sum of region evaluations."""
        total = jacobi_result.total_region_evaluations
        assert jacobi_result.program_runs < total
        assert jacobi_result.sharing_factor > 1.2

    def test_program_runs_lower_bound(self, jacobi_result):
        """Every region evaluation needed *some* program run: the busiest
        region's evaluation count bounds the runs from below."""
        busiest = max(r.evaluations for r in jacobi_result.results)
        assert jacobi_result.program_runs >= busiest * 0.9

    def test_deterministic(self):
        k = get_kernel("jacobi2d")

        def run():
            tuner = MultiRegionTuner(
                function=k.function,
                sizes={"N": 500, "T": 5},
                machine=WESTMERE,
                settings=FAST,
                seed=7,
            )
            return tuner.run(seed=2)

        r1, r2 = run(), run()
        assert r1.program_runs == r2.program_runs
        for a, b in zip(r1.results, r2.results):
            assert [c.objectives for c in a.front] == [c.objectives for c in b.front]

    def test_rejects_function_without_regions(self):
        from repro.ir.builder import array, assign, func, var

        fn = func("flat", [array("A", 4)], assign(var("A")[0], 1.0))
        tuner = MultiRegionTuner(function=fn, sizes={}, machine=WESTMERE, settings=FAST)
        with pytest.raises(ValueError):
            tuner.run()

    def test_single_region_program_matches_plain_shape(self):
        """A single-region program degenerates to ordinary tuning: the
        program-run count tracks that region's evaluations."""
        k = get_kernel("mm")
        tuner = MultiRegionTuner(
            function=k.function,
            sizes={"N": 400},
            machine=WESTMERE,
            settings=FAST,
            seed=5,
        )
        res = tuner.run(seed=3)
        assert len(res.results) == 1
        assert res.program_runs >= res.results[0].evaluations


class TestCrossRegionScheduler:
    """The fused scheduler must be bit-identical to the serial lock-step
    reference for any worker count, partition of its batches into
    ``compute_keys`` calls and lag setting."""

    @pytest.fixture(scope="class")
    def lockstep(self):
        return jacobi_tuner().run_lockstep(seed=2)

    @pytest.fixture(scope="class")
    def lockstep_runs(self, lockstep):
        """``(protocol, lock-step reference)`` for each of ``PROTOCOLS``."""
        latency = jacobi_tuner(protocol=LATENCY).run_lockstep(seed=2)
        return [(None, lockstep), (LATENCY, latency)]

    @pytest.mark.parametrize("workers", [1, 4, 8])
    @pytest.mark.parametrize("chunk_size", [1, None])
    def test_bit_identity_across_workers_and_chunks(
        self, lockstep_runs, split_compute, workers, chunk_size
    ):
        split_compute(chunk_size)
        for protocol, ref in lockstep_runs:
            got = jacobi_tuner(workers=workers, protocol=protocol).run(seed=2)
            assert fronts(got) == fronts(ref)
            assert [r.evaluations for r in got.results] == [
                r.evaluations for r in ref.results
            ]
            assert got.program_runs == ref.program_runs
            assert got.generations == ref.generations

    @pytest.mark.parametrize("workers", [1, 8])
    def test_pipelined_equals_lockstep(self, lockstep_runs, workers):
        """Bounded-lag pipelining (lag ≤ 1 generation) changes only the
        schedule, never the results: regions are data-independent and
        measurement noise is hash-derived per key."""
        for protocol, ref in lockstep_runs:
            got = jacobi_tuner(
                workers=workers, pipeline=True, protocol=protocol
            ).run(seed=2)
            assert fronts(got) == fronts(ref)
            assert [r.evaluations for r in got.results] == [
                r.evaluations for r in ref.results
            ]
            assert got.program_runs == ref.program_runs

    def test_convergence_records_match_lockstep(self, lockstep):
        got = jacobi_tuner(workers=8, pipeline=True).run(seed=2)
        for a, b in zip(got.results, lockstep.results):
            assert a.convergence == b.convergence
            assert a.hv_history == b.hv_history

    def test_engine_stats_aggregated(self):
        res = jacobi_tuner(workers=4).run(seed=2)
        s = res.engine_stats
        assert s is not None
        assert s.configs == (
            s.dispatched + s.cache_hits + s.deduped + s.disk_hits + s.shared_hits
        )
        # every region's every generation went through the shared session
        assert s.batches == sum(len(r.convergence) for r in res.results)

    def test_summary_renders(self):
        res = jacobi_tuner(workers=2).run(seed=2)
        text = res.summary()
        assert "program runs" in text
        assert "sharing" in text


class TestCrossRegionDedup:
    """Two identical nests ⇒ identical cost-model fingerprints ⇒ one
    dispatch serves both regions (each still pays its own ledger E)."""

    @pytest.fixture(scope="class")
    def twin_fn(self):
        return parse_function(TWIN_NESTS)

    def make(self, twin_fn, **kw):
        return MultiRegionTuner(
            function=twin_fn,
            sizes={"N": 600},
            machine=WESTMERE,
            settings=FAST,
            seed=5,
            **kw,
        )

    def test_fingerprints_equal(self, twin_fn):
        tuner = self.make(twin_fn)
        problems = tuner._build_problems()
        assert len(problems) == 2
        assert problems[0].target.fingerprint() == problems[1].target.fingerprint()

    def test_shared_hits_and_exact_ledger(self, twin_fn):
        for protocol in PROTOCOLS:
            ref = self.make(twin_fn, protocol=protocol).run_lockstep(seed=4)
            got = self.make(twin_fn, workers=4, protocol=protocol).run(seed=4)
            # sharing never distorts the ledger: per-region E, program_runs
            # and fronts are exactly the lock-step values
            assert fronts(got) == fronts(ref)
            assert [r.evaluations for r in got.results] == [
                r.evaluations for r in ref.results
            ]
            assert got.program_runs == ref.program_runs
            stats = got.engine_stats
            assert stats.shared_hits > 0
            assert stats.configs == (
                stats.dispatched
                + stats.cache_hits
                + stats.deduped
                + stats.disk_hits
                + stats.shared_hits
            )
            # what one region shared, the other did not dispatch
            assert stats.dispatched < ref.engine_stats.dispatched

    def test_program_runs_formula(self, twin_fn):
        """program_runs = NP × (1 + generations): the paper's amortized
        cost — one program execution per zipped trial row."""
        np_size = FAST.gde3.population_size
        for protocol in PROTOCOLS:
            got = self.make(twin_fn, workers=4, protocol=protocol).run(seed=4)
            assert got.program_runs == np_size * (1 + got.generations)
