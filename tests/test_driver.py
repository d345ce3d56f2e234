"""Integration tests: the end-to-end compiler driver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.driver import TunedKernel, TuningDriver
from repro.frontend import get_kernel
from repro.machine import BARCELONA, WESTMERE
from repro.optimizer.rsgde3 import RSGDE3Settings
from repro.optimizer.gde3 import GDE3Settings


FAST_SETTINGS = RSGDE3Settings(
    gde3=GDE3Settings(population_size=16), max_generations=12, patience=2
)


@pytest.fixture(scope="module")
def tuned_mm():
    driver = TuningDriver(machine=WESTMERE, seed=42, settings=FAST_SETTINGS)
    return driver.tune_kernel("mm", sizes={"N": 700})


class TestTuneKernel:
    def test_produces_front(self, tuned_mm):
        assert tuned_mm.result.size >= 2
        assert tuned_mm.result.evaluations > 16

    def test_baseline_slower_than_tuned(self, tuned_mm):
        fastest = min(m.time for m in tuned_mm.version_metas())
        assert tuned_mm.baseline_time > fastest

    def test_sequential_reference_sane(self, tuned_mm):
        assert 0 < tuned_mm.sequential_time <= tuned_mm.baseline_time * 1.5

    def test_metas_sorted_by_time(self, tuned_mm):
        times = [m.time for m in tuned_mm.version_metas()]
        assert times == sorted(times)

    def test_summary_renders(self, tuned_mm):
        text = tuned_mm.summary()
        assert "mm on Westmere" in text and "efficiency" in text

    def test_unknown_kernel_raises(self):
        with pytest.raises(KeyError):
            TuningDriver().tune_kernel("fft")

    def test_unknown_optimizer_raises(self):
        with pytest.raises(KeyError):
            TuningDriver(settings=FAST_SETTINGS).tune_kernel(
                "mm", sizes={"N": 200}, optimizer="sa"
            )


class TestVersionTableIntegration:
    def test_executable_versions_run_correctly(self, tuned_mm, rng):
        table = tuned_mm.build_version_table()
        assert len(table) == tuned_mm.result.size
        k = get_kernel("mm")
        inputs = k.make_inputs(k.test_size, rng)
        ref = k.reference(inputs, k.test_size)
        # execute the fastest and the most efficient version
        for version in (table.fastest(), table.most_efficient()):
            arrs = {n: v.copy() for n, v in inputs.items()}
            version(arrs, k.test_size)
            assert np.allclose(arrs["C"], ref["C"])

    def test_metadata_only_table(self, tuned_mm):
        table = tuned_mm.build_version_table(executable=False)
        with pytest.raises(RuntimeError):
            table.fastest()({}, {})

    def test_metadata_table_matches_the_variants(self, tuned_mm):
        table = tuned_mm.build_version_table(executable=False)
        assert [v.meta for v in table.versions] == [m for _, m in tuned_mm._variants()]

    def test_preview_picks_the_executable_tables_versions(self, tuned_mm, monkeypatch):
        """The preview reads metadata only: it instantiates no IR variant,
        and each policy picks what it picks on the executable table."""
        from repro.runtime.scheduler import RegionExecutor
        from repro.runtime.selection import policy_by_name

        policies = ("fastest", "efficient", "balanced")
        executor = RegionExecutor(tuned_mm.build_version_table())
        expected = {}
        for name in policies:
            executor.set_policy(policy_by_name(name))
            expected[name] = executor.select().meta.index

        def fail(*args, **kwargs):
            raise AssertionError("the preview instantiated a variant")

        monkeypatch.setattr(type(tuned_mm.skeleton), "instantiate", fail)
        assert tuned_mm.preview_selections(policies) == expected

    def test_emit_c_unit(self, tuned_mm):
        unit = tuned_mm.emit_c()
        assert unit.kernel == "mm"
        assert len(unit.versions) == tuned_mm.result.size
        assert "mm_dispatch" in unit.source


class TestTuneSource:
    def test_c_source_roundtrip(self):
        src = """
        void gemm(int N, double A[N][N], double B[N][N], double C[N][N]) {
            for (int i = 0; i < N; i++)
                for (int j = 0; j < N; j++)
                    for (int k = 0; k < N; k++)
                        C[i][j] += A[i][k] * B[k][j];
        }
        """
        driver = TuningDriver(machine=BARCELONA, seed=1, settings=FAST_SETTINGS)
        tuned = driver.tune_source(src, sizes={"N": 300})
        assert tuned.name == "gemm"
        assert tuned.result.size >= 1

    def test_function_entry(self):
        k = get_kernel("dsyrk")
        driver = TuningDriver(machine=WESTMERE, seed=2, settings=FAST_SETTINGS)
        tuned = driver.tune_function(k.function, sizes={"N": 300})
        assert tuned.name == "dsyrk"


class TestOptimizerSwitches:
    @pytest.mark.parametrize("opt", ["rsgde3", "nsga2", "random"])
    def test_all_optimizers_run(self, opt):
        driver = TuningDriver(machine=WESTMERE, seed=3, settings=FAST_SETTINGS)
        tuned = driver.tune_kernel("mm", sizes={"N": 200}, optimizer=opt)
        assert tuned.result.size >= 1


class TestEngineLifetime:
    def test_tune_releases_thread_pool(self, monkeypatch):
        """A tune closes its engine: the pool its latency-bound target used
        is released once it returns, and the engine's accounting stays
        readable."""
        import threading

        import repro.driver.compiler as compiler
        from repro.evaluation.measurements import MeasurementProtocol

        class LatencyTarget(compiler.SimulatedTarget):
            def __init__(self, *args, **kwargs):
                super().__init__(
                    *args, protocol=MeasurementProtocol(overhead_s=0.001), **kwargs
                )

        def pool_threads():
            return {t for t in threading.enumerate() if t.name.startswith("repro-eval")}

        monkeypatch.setattr(compiler, "SimulatedTarget", LatencyTarget)
        before = pool_threads()
        driver = TuningDriver(machine=WESTMERE, seed=1, settings=FAST_SETTINGS, workers=2)
        for _ in range(2):
            tuned = driver.tune_kernel("mm", sizes={"N": 300})
            assert tuned.engine_stats.dispatched > 0
            # the pool rule held (workers > 1, latency), so the tune pooled
            assert tuned.engine.max_workers == 2
            assert tuned.engine.target.protocol.overhead_s > 0
            assert tuned.engine._pool is None
            assert not pool_threads() - before
