"""Tests for the parallel evaluation engine: classify → compute → commit
correctness under concurrency, for ``evaluate_batch`` (a one-batch session)
and the fused multi-target session alike; the one failure policy (a failed
``compute_keys`` call, inline or pooled, rescued per key in the caller's
thread, then ``EvaluationError``); the pool rule; ledger thread-safety; and
the optimizer routing.

All seeds are fixed so the concurrency assertions are deterministic: the
simulated target derives measurement noise from (key, repetition) hashes,
so any evaluation order — and any worker count — must produce bit-identical
objectives and the exact same E.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.evaluation.parallel_eval import (
    RESCUE_ATTEMPTS,
    EngineStats,
    EvaluationEngine,
    EvaluationError,
    FlakyFaultPolicy,
    auto_workers,
)
from repro.evaluation.measurements import MeasurementProtocol
from repro.evaluation.simulator import SimulatedTarget
from repro.experiments import make_setup
from repro.machine.model import WESTMERE
from repro.optimizer import RSGDE3
from repro.optimizer.rsgde3 import RSGDE3Settings
from repro.optimizer.gde3 import GDE3Settings


#: per-configuration latency makes the engine's pool rule hold: a test that
#: loops over ``PROTOCOLS`` runs its batches once inline (``None``) and once
#: on the pool, with the same expected results
LATENCY = MeasurementProtocol(overhead_s=1e-4)
PROTOCOLS = (None, LATENCY)


def fresh_target(mm_model, seed=0, protocol=None):
    return SimulatedTarget(mm_model, seed=seed, protocol=protocol)


def as_keys(target, configs):
    """Canonical keys of ``(tile_sizes, threads)`` pairs — the engine's input."""
    return [target.config_key(tiles, threads) for tiles, threads in configs]


def some_configs(n, duplicate_every=3):
    """n configs with deliberate duplicates sprinkled in."""
    configs = []
    for i in range(n):
        if duplicate_every and i % duplicate_every == 2:
            configs.append(configs[i - 1])
        else:
            configs.append(({"i": 8 + 8 * i, "j": 64, "k": 8}, 10))
    return configs


class TestDedupPipeline:
    def test_unique_configs_counted_once(self, mm_model):
        target = fresh_target(mm_model)
        engine = EvaluationEngine(target)
        configs = some_configs(9, duplicate_every=3)
        unique = len({target.config_key(t, thr) for t, thr in configs})
        res = engine.evaluate_batch(as_keys(engine.target, configs))
        assert len(res.objectives) == 9
        assert res.new_evaluations == unique
        assert target.evaluations == unique
        assert res.stats.deduped == 9 - unique
        assert res.stats.dispatched == unique

    def test_cache_hits_do_not_dispatch(self, mm_model):
        target = fresh_target(mm_model)
        engine = EvaluationEngine(target)
        configs = some_configs(6, duplicate_every=0)
        engine.evaluate_batch(as_keys(engine.target, configs))
        before = target.evaluations
        res = engine.evaluate_batch(as_keys(engine.target, configs))
        assert res.new_evaluations == 0
        assert res.stats.cache_hits == 6
        assert res.stats.dispatched == 0
        assert target.evaluations == before

    def test_duplicates_get_identical_objectives(self, mm_model):
        target = fresh_target(mm_model)
        engine = EvaluationEngine(target)
        res = engine.evaluate_batch(
            as_keys(engine.target, [({"i": 32, "j": 64, "k": 8}, 10)] * 4)
        )
        assert len({o.time for o in res.objectives}) == 1

    def test_stats_accounting_invariant(self, mm_model):
        target = fresh_target(mm_model)
        engine = EvaluationEngine(target, max_workers=4)
        for n in (5, 9, 17):
            engine.evaluate_batch(as_keys(engine.target, some_configs(n)))
        s = engine.stats
        assert s.configs == s.dispatched + s.cache_hits + s.deduped
        assert s.new_evaluations == target.evaluations
        assert s.batches == 3
        assert s.wall_time_s > 0

    def test_order_preserved(self, mm_model):
        target = fresh_target(mm_model)
        engine = EvaluationEngine(target, max_workers=4)
        configs = [({"i": 32, "j": 64, "k": 8}, t) for t in (1, 10, 40, 10)]
        res = engine.evaluate_batch(as_keys(engine.target, configs))
        assert [o.threads for o in res.objectives] == [1, 10, 40, 10]


class TestConcurrencyStress:
    """16 workers, duplicate-laden batches: E exact, results bit-identical
    to the serial path."""

    WORKERS = 16

    def _batches(self):
        rng = np.random.default_rng(42)
        batches = []
        for _ in range(6):
            n = int(rng.integers(8, 40))
            tiles = rng.integers(1, 512, size=(n, 3))
            threads = rng.choice([1, 5, 10, 20, 40], size=n)
            configs = [
                ({"i": int(a), "j": int(b), "k": int(c)}, int(t))
                for (a, b, c), t in zip(tiles, threads)
            ]
            # deliberate duplicates, within and across batches
            configs += configs[: n // 2]
            batches.append(configs)
        return batches

    def test_parallel_bit_identical_to_serial(self, mm_model):
        for protocol in PROTOCOLS:
            serial_target = fresh_target(mm_model, seed=11, protocol=protocol)
            parallel_target = fresh_target(mm_model, seed=11, protocol=protocol)
            serial = EvaluationEngine(serial_target, max_workers=1)
            parallel = EvaluationEngine(parallel_target, max_workers=self.WORKERS)

            for configs in self._batches():
                rs = serial.evaluate_batch(as_keys(serial.target, configs))
                rp = parallel.evaluate_batch(as_keys(parallel.target, configs))
                assert rs.new_evaluations == rp.new_evaluations
                for a, b in zip(rs.objectives, rp.objectives):
                    assert a.time == b.time  # bit-identical, not approx
                    assert a.threads == b.threads
            assert serial_target.evaluations == parallel_target.evaluations
            assert parallel.stats.failed == 0

    def test_exact_evaluation_count(self, mm_model):
        for protocol in PROTOCOLS:
            target = fresh_target(mm_model, seed=5, protocol=protocol)
            engine = EvaluationEngine(target, max_workers=self.WORKERS)
            seen = set()
            for configs in self._batches():
                engine.evaluate_batch(as_keys(engine.target, configs))
                seen.update(target.config_key(t, thr) for t, thr in configs)
            assert target.evaluations == len(seen)

    def test_target_ledger_thread_safe_for_external_callers(self, mm_model):
        """Concurrent single-configuration evaluations by independent
        callers (one engine each, one shared target) must neither lose
        ``evaluations += 1`` increments nor double-count a configuration
        via a check-then-set cache."""
        target = fresh_target(mm_model, seed=3)
        configs = [({"i": 16 * (i % 8 + 1), "j": 64, "k": 8}, 10) for i in range(64)]
        unique = len({target.config_key(t, thr) for t, thr in configs})

        barrier = threading.Barrier(16)

        def worker(chunk):
            barrier.wait()
            engine = EvaluationEngine(target)
            for tiles, thr in chunk:
                engine.evaluate_batch([target.config_key(tiles, thr)])

        threads = [
            threading.Thread(target=worker, args=(configs[i::16],))
            for i in range(16)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert target.evaluations == unique


class TestFaultTolerance:
    """The one failure policy.  The fault tests that need the pool give the
    target per-configuration latency (``LATENCY``), so the pool rule holds."""

    def test_transient_fault_is_retried(self, mm_model):
        """A failed pooled call is retried per key in the caller's thread."""
        target = fresh_target(mm_model, protocol=LATENCY)
        policy = FlakyFaultPolicy(fail_attempts=1)
        engine = EvaluationEngine(target, max_workers=4, fault_policy=policy)
        res = engine.evaluate_batch(
            as_keys(engine.target, some_configs(6, duplicate_every=0))
        )
        engine.close()
        assert res.new_evaluations == 6
        assert engine.stats.failed == 6
        assert engine.stats.retried == 0  # every first rescue attempt passed
        assert sorted(a for _, a, serial in policy.calls if serial) == [2] * 6

    def test_retried_results_bit_identical(self, mm_model):
        clean_target = fresh_target(mm_model, seed=2, protocol=LATENCY)
        flaky_target = fresh_target(mm_model, seed=2, protocol=LATENCY)
        clean = EvaluationEngine(clean_target)
        flaky = EvaluationEngine(
            flaky_target,
            max_workers=4,
            fault_policy=FlakyFaultPolicy(fail_attempts=2),
        )
        configs = some_configs(8, duplicate_every=0)
        a = clean.evaluate_batch(as_keys(clean.target, configs))
        b = flaky.evaluate_batch(as_keys(flaky.target, configs))
        flaky.close()
        assert [o.time for o in a.objectives] == [o.time for o in b.objectives]
        assert clean_target.evaluations == flaky_target.evaluations

    def test_persistent_pool_failure_rescued_serially(self, mm_model):
        target = fresh_target(mm_model, protocol=LATENCY)
        policy = FlakyFaultPolicy(fail_attempts=99)  # pool always fails
        engine = EvaluationEngine(target, max_workers=4, fault_policy=policy)
        later = [({"i": 200 + 8 * i, "j": 64, "k": 8}, 20) for i in range(4)]
        for configs in (some_configs(5, duplicate_every=0), later):
            res = engine.evaluate_batch(as_keys(engine.target, configs))
            assert res.new_evaluations == len(configs)  # rescue computed them all
            assert res.stats.failed == len(configs)
        engine.close()

    def test_terminal_failure_raises(self, mm_model):
        target = fresh_target(mm_model, protocol=LATENCY)
        policy = FlakyFaultPolicy(fail_attempts=99, fail_serial=True)
        engine = EvaluationEngine(target, max_workers=2, fault_policy=policy)
        keys = as_keys(engine.target, some_configs(3, duplicate_every=0))
        with pytest.raises(EvaluationError):
            engine.evaluate_batch(keys)
        # the first key got the call's attempt, then every rescue attempt
        attempts = [a for key, a, _ in policy.calls if key == keys[0]]
        assert attempts == list(range(1, 2 + RESCUE_ATTEMPTS))
        assert RESCUE_ATTEMPTS == 3
        # the failure dropped the session: nothing stays in flight, so the
        # same keys evaluate once the fault clears
        assert not engine.fused_active and not engine._inflight
        policy.fail_attempts, policy.fail_serial = 0, False
        assert engine.evaluate_batch(keys).new_evaluations == 3
        engine.close()

    def test_serial_engine_with_fault_policy(self, mm_model):
        """workers=1 engines run the same failure policy inline."""
        target = fresh_target(mm_model)
        policy = FlakyFaultPolicy(fail_attempts=99)  # serial attempts pass
        engine = EvaluationEngine(target, max_workers=1, fault_policy=policy)
        res = engine.evaluate_batch(
            as_keys(engine.target, some_configs(3, duplicate_every=0))
        )
        assert res.new_evaluations == 3
        assert res.stats.failed == 3


class TestEngineConfig:
    def test_auto_workers(self, mm_model):
        assert auto_workers() >= 1
        engine = EvaluationEngine(fresh_target(mm_model), max_workers="auto")
        assert engine.max_workers == auto_workers()

    def test_invalid_workers_rejected(self, mm_model):
        with pytest.raises(ValueError):
            EvaluationEngine(fresh_target(mm_model), max_workers=0)

    def test_engine_parameters(self):
        import inspect

        assert list(inspect.signature(EvaluationEngine).parameters) == [
            "target", "max_workers", "fault_policy", "obs",
        ]

    def test_stats_merge(self):
        a = EngineStats(batches=1, configs=3, dispatched=2, cache_hits=1)
        b = EngineStats(batches=2, configs=4, deduped=1, wall_time_s=0.5)
        a.merge(b)
        assert (a.batches, a.configs, a.dispatched, a.deduped) == (3, 7, 2, 1)
        assert "configs=7" in a.summary()
        assert a.as_dict()["cache_hits"] == 1


class TestOptimizerRouting:
    """The optimizers all evaluate through the engine now."""

    def test_problem_builds_serial_engine_lazily(self):
        injected = make_setup("mm", WESTMERE).problem(seed=0)
        assert injected.evaluation_engine.target is injected.target
        bare = type(injected).from_skeleton(injected.skeleton, injected.target)
        assert bare.engine is None
        assert bare.evaluation_engine.max_workers == 1
        assert bare.engine is bare.evaluation_engine  # cached after first use

    def test_problem_rejects_foreign_engine(self, mm_model):
        setup = make_setup("mm", WESTMERE)
        problem = setup.problem(seed=0)
        other = EvaluationEngine(fresh_target(mm_model))
        with pytest.raises(ValueError):
            type(problem).from_skeleton(
                problem.skeleton, problem.target, engine=other
            )

    def test_evaluate_batch_records_stats(self):
        problem = make_setup("mm", WESTMERE).problem(seed=0, workers=4)
        rng = np.random.default_rng(0)
        vectors = problem.space.full_boundary().sample(rng, 12)
        configs = problem.evaluate_batch(vectors)
        assert len(configs) == 12
        assert problem.evaluation_engine.stats.configs == 12

    @pytest.mark.parametrize("kernel", ["mm", "dsyrk", "jacobi2d", "stencil3d", "nbody"])
    def test_rsgde3_parity_serial_vs_8_workers(self, kernel):
        """Acceptance: workers=8 must produce a bit-identical Pareto front
        and the exact same E as workers=1, on every kernel."""
        settings = RSGDE3Settings(
            gde3=GDE3Settings(population_size=12), max_generations=8
        )
        results = {}
        for workers in (1, 8):
            problem = make_setup(kernel, WESTMERE).problem(seed=17, workers=workers)
            results[workers] = (RSGDE3(problem, settings).run(seed=4), problem)
        r1, p1 = results[1]
        r8, p8 = results[8]
        assert r1.evaluations == r8.evaluations
        assert p1.target.evaluations == p8.target.evaluations
        assert [c.values for c in r1.front] == [c.values for c in r8.front]
        assert [c.objectives for c in r1.front] == [c.objectives for c in r8.front]
        assert r1.hv_history == r8.hv_history


class TestEngineStatsUnit:
    """Direct unit coverage for the accounting dataclass."""

    def test_merge_sums_every_field(self):
        from dataclasses import fields

        a = EngineStats(**{f.name: i + 1 for i, f in enumerate(fields(EngineStats))})
        b = EngineStats(**{f.name: 10 * (i + 1) for i, f in enumerate(fields(EngineStats))})
        a.merge(b)
        for i, f in enumerate(fields(EngineStats)):
            assert getattr(a, f.name) == 11 * (i + 1), f.name

    def test_merge_with_empty_is_identity(self):
        a = EngineStats(batches=2, configs=5, dispatched=4, wall_time_s=0.25)
        before = a.as_dict()
        a.merge(EngineStats())
        assert a.as_dict() == before

    def test_as_dict_lists_every_field(self):
        from dataclasses import fields

        d = EngineStats(batches=1, retried=2, failed=3).as_dict()
        assert set(d) == {f.name for f in fields(EngineStats)}
        assert (d["batches"], d["retried"], d["failed"]) == (1, 2, 3)

    def test_summary_renders_key_counters(self):
        s = EngineStats(
            batches=4, configs=40, dispatched=30, cache_hits=6,
            deduped=4, retried=2, failed=1, wall_time_s=0.5,
        ).summary()
        for part in (
            "batches=4", "configs=40", "dispatched=30", "cache_hits=6",
            "deduped=4", "retried=2", "failed=1", "wall=0.500s",
        ):
            assert part in s


class TestChunkedDispatch:
    """Chunked vectorized dispatch must be bit-identical to the serial path
    for every worker count and every partition of a batch into
    ``compute_keys`` calls (``chunk_size``, applied on the target by the
    ``split_compute`` fixture), with and without fault injection."""

    def _reference(self, mm_model, configs, protocol=None):
        target = fresh_target(mm_model, seed=21, protocol=protocol)
        return EvaluationEngine(target).evaluate_batch(as_keys(target, configs)), target

    def _configs(self, n=48):
        rng = np.random.default_rng(7)
        tiles = rng.integers(1, 400, size=(n, 3))
        threads = rng.choice([1, 5, 10, 20, 40], size=n)
        configs = [
            ({"i": int(a), "j": int(b), "k": int(c)}, int(t))
            for (a, b, c), t in zip(tiles, threads)
        ]
        return configs + configs[: n // 4]  # duplicates too

    @pytest.mark.parametrize("workers", [1, 2, 8])
    @pytest.mark.parametrize("chunk_size", [None, 1, 3])
    def test_bit_identical_for_any_chunking(
        self, mm_model, split_compute, workers, chunk_size
    ):
        configs = self._configs()
        refs = [self._reference(mm_model, configs, protocol) for protocol in PROTOCOLS]
        split_compute(chunk_size)
        for protocol, (ref, ref_target) in zip(PROTOCOLS, refs):
            target = fresh_target(mm_model, seed=21, protocol=protocol)
            engine = EvaluationEngine(target, max_workers=workers)
            res = engine.evaluate_batch(as_keys(engine.target, configs))
            engine.close()
            assert res.objectives == ref.objectives  # bit-identical
            assert target.evaluations == ref_target.evaluations  # E exact
            s = engine.stats
            assert s.configs == s.dispatched + s.cache_hits + s.deduped + s.disk_hits

    @pytest.mark.parametrize("workers", [2, 8])
    @pytest.mark.parametrize("chunk_size", [None, 1, 3])
    def test_fault_parity_under_chunking(
        self, mm_model, split_compute, workers, chunk_size
    ):
        """A failed pooled chunk is rescued per key — the result must still
        match the clean serial run exactly."""
        configs = self._configs(24)
        ref, ref_target = self._reference(mm_model, configs, LATENCY)
        split_compute(chunk_size)
        target = fresh_target(mm_model, seed=21, protocol=LATENCY)
        engine = EvaluationEngine(
            target,
            max_workers=workers,
            fault_policy=FlakyFaultPolicy(fail_attempts=1),
        )
        res = engine.evaluate_batch(as_keys(engine.target, configs))
        engine.close()
        assert res.objectives == ref.objectives
        assert target.evaluations == ref_target.evaluations
        assert engine.stats.failed == engine.stats.dispatched > 0
        assert engine.stats.retried == 0

    def test_chunk_sizes_cover_batch_exactly(self, mm_model):
        engine = EvaluationEngine(fresh_target(mm_model), max_workers=4)
        keys = [(i,) for i in range(10)]
        chunks = engine._chunks(keys)
        assert [k for c in chunks for k in c] == keys
        assert len(chunks) <= 4
        assert max(len(c) for c in chunks) == 3  # ceil(10/4)
        assert [len(c) for c in engine._chunks(keys[:3])] == [1, 1, 1]

    def test_close_is_idempotent_for_thread_backend(self, mm_model):
        engine = EvaluationEngine(fresh_target(mm_model, protocol=LATENCY), max_workers=2)
        engine.evaluate_batch(
            as_keys(engine.target, some_configs(4, duplicate_every=0))
        )
        assert engine._pool is not None
        engine.close()
        engine.close()
        assert engine._pool is None


def _eval_threads() -> set:
    """The live threads of any engine's pool."""
    return {t for t in threading.enumerate() if t.name.startswith("repro-eval")}


class TestPoolLifetime:
    """The engine's one thread pool is created on the first pooled batch,
    reused by every later one, and released by ``close()``."""

    def test_pool_cached_across_batches_and_released(self, mm_model):
        before = _eval_threads()
        configs = [({"i": 16 * (i + 1), "j": 64, "k": 8}, 10) for i in range(24)]
        ref_target = fresh_target(mm_model, seed=9)
        ref = EvaluationEngine(ref_target).evaluate_batch(as_keys(ref_target, configs))
        target = fresh_target(
            mm_model, seed=9, protocol=MeasurementProtocol(overhead_s=0.001)
        )
        engine = EvaluationEngine(target, max_workers=2)
        try:
            res = engine.evaluate_batch(as_keys(target, configs[:12]))
            pool = engine._pool
            assert pool is not None
            # a second batch of new keys goes through the same pool
            res2 = engine.evaluate_batch(as_keys(target, configs[12:]))
            assert res2.stats.dispatched == 12
            assert engine._pool is pool
            assert res.objectives + res2.objectives == ref.objectives
            assert target.evaluations == ref_target.evaluations
            assert _eval_threads() - before
        finally:
            engine.close()
        assert engine._pool is None
        assert not _eval_threads() - before


class TestEngineObservability:
    """evaluate_batch reports into the injected Observability handle."""

    def test_batch_event_carries_accounting(self, mm_model):
        from repro.obs import FakeClock, Observability

        obs = Observability.tracing(clock=FakeClock(tick=1e-3))
        engine = EvaluationEngine(fresh_target(mm_model), obs=obs)
        res = engine.evaluate_batch(
            as_keys(engine.target, some_configs(9, duplicate_every=3))
        )
        (event,) = obs.tracer.records()
        assert (event["type"], event["name"]) == ("event", "engine.batch")
        assert event["attrs"] == {"region": "", **res.stats.as_dict()}
        assert event["attrs"]["configs"] == 9
        assert event["attrs"]["dispatched"] == res.stats.dispatched == 6
        assert event["attrs"]["deduped"] == res.stats.deduped == 3
        assert event["attrs"]["wall_time_s"] > 0

    def test_metrics_accumulate_across_batches(self, mm_model):
        from repro.obs import Observability

        obs = Observability.tracing()
        engine = EvaluationEngine(fresh_target(mm_model), obs=obs)
        engine.evaluate_batch(
            as_keys(engine.target, some_configs(6, duplicate_every=0))
        )
        # all cached
        engine.evaluate_batch(as_keys(engine.target, some_configs(6, duplicate_every=0)))
        m = obs.metrics.as_dict()  # folded from the two engine.batch events
        assert m["repro_engine_batches_total"] == 2
        assert m["repro_engine_configs_total"] == 12
        assert m["repro_engine_cache_hits_total"] == 6
        assert m["repro_engine_batch_seconds"]["count"] == 2
        assert len(obs.tracer.records()) == 2

    def test_merge_sums_every_field(self):
        from dataclasses import fields

        names = [f.name for f in fields(EngineStats)]
        a = EngineStats(**{n: i + 1 for i, n in enumerate(names)})
        b = EngineStats(**{n: 100 * (i + 1) for i, n in enumerate(names)})
        a.merge(b)
        assert a.as_dict() == {n: 101 * (i + 1) for i, n in enumerate(names)}

    def test_enabled_registry_receives_every_batch_value(self, mm_model):
        from repro.obs import Observability

        obs = Observability.tracing()
        engine = EvaluationEngine(fresh_target(mm_model), obs=obs)
        res = engine.evaluate_batch(
            as_keys(engine.target, some_configs(9, duplicate_every=3))
        )
        stats = res.stats
        expected = {
            "repro_engine_batches_total": 1,
            "repro_engine_configs_total": 9,
            "repro_engine_dispatched_total": stats.dispatched,
            "repro_engine_cache_hits_total": stats.cache_hits,
            "repro_engine_deduped_total": stats.deduped,
            "repro_engine_disk_hits_total": stats.disk_hits,
            "repro_engine_shared_hits_total": stats.shared_hits,
            "repro_engine_retries_total": stats.retried,
            "repro_engine_failed_total": stats.failed,
            "repro_engine_batch_seconds": {"sum": stats.wall_time_s, "count": 1},
        }
        assert obs.metrics.as_dict() == expected
        assert stats.dispatched == 6 and stats.deduped == 3

    def test_disabled_handle_builds_no_accounting(self, mm_model, monkeypatch):
        from repro.obs import NullTracer

        def fail(*args, **kwargs):
            raise AssertionError("disabled observability did work")

        monkeypatch.setattr(NullTracer, "event", fail)
        monkeypatch.setattr(EngineStats, "as_dict", fail)
        engine = EvaluationEngine(fresh_target(mm_model))
        res = engine.evaluate_batch(as_keys(engine.target, some_configs(6)))
        assert res.stats.configs == 6 and engine.stats.batches == 1


class TestFusedSession:
    """The multi-target fused session: several regions' batches share one
    pool, dedup by fingerprint, and commit deterministically."""

    def drain(self, engine):
        done = []
        while engine.fused_active:
            done.extend(engine.fused_wait())
        return done

    def test_single_batch_matches_evaluate_batch(self, mm_model):
        configs = some_configs(9, duplicate_every=3)
        ref_target = fresh_target(mm_model)
        ref = EvaluationEngine(ref_target).evaluate_batch(as_keys(ref_target, configs))

        target = fresh_target(mm_model)
        engine = EvaluationEngine(target, max_workers=4)
        batch = engine.fused_submit(target, as_keys(target, configs), region="r0")
        self.drain(engine)
        engine.close()
        assert batch.done
        assert batch.objectives == ref.objectives
        assert target.evaluations == ref_target.evaluations
        assert batch.stats.deduped == ref.stats.deduped
        assert batch.stats.dispatched == ref.stats.dispatched

    @pytest.mark.parametrize("workers", [1, 4, 8])
    def test_two_targets_bit_identical(self, mm_model, workers):
        for protocol in PROTOCOLS:
            refs = []
            for seed in (0, 1):
                t = fresh_target(mm_model, seed=seed, protocol=protocol)
                refs.append(
                    (t, EvaluationEngine(t).evaluate_batch(
                        as_keys(t, some_configs(12))
                    ))
                )

            targets = [
                fresh_target(mm_model, seed=s, protocol=protocol) for s in (0, 1)
            ]
            engine = EvaluationEngine(targets[0], max_workers=workers)
            batches = [
                engine.fused_submit(t, as_keys(t, some_configs(12)), region=str(i))
                for i, t in enumerate(targets)
            ]
            self.drain(engine)
            engine.close()
            for batch, target, (ref_t, ref) in zip(batches, targets, refs):
                assert batch.objectives == ref.objectives
                assert target.evaluations == ref_t.evaluations

    def test_equal_fingerprints_share_one_dispatch(self, mm_model):
        configs = some_configs(10, duplicate_every=0)
        for protocol in PROTOCOLS:
            a = fresh_target(mm_model, protocol=protocol)
            b = fresh_target(mm_model, protocol=protocol)
            assert a.fingerprint() == b.fingerprint()
            fp = a.fingerprint()
            session = {a.config_key(*c) for c in configs}
            engine = EvaluationEngine(a, max_workers=4)
            ba = engine.fused_submit(a, as_keys(a, configs), region="a")
            # only fused_wait moves results out of flight, so b's batch is
            # classified against a's keys exactly as submit left them: still
            # in flight on the pool, or already computed inline
            if protocol is None:
                assert engine._results[fp].keys() == session
                assert not engine._inflight[fp]
            else:
                assert engine._inflight[fp] == session
                assert not engine._results[fp]
            bb = engine.fused_submit(b, as_keys(b, configs), region="b")
            self.drain(engine)
            assert not engine._inflight[fp]
            engine.close()
            assert ba.objectives == bb.objectives
            assert ba.stats.dispatched == 10 and ba.stats.shared_hits == 0
            assert bb.stats.dispatched == 0 and bb.stats.shared_hits == 10
            # the shared computation still commits to b's own ledger
            assert b.evaluations == 10
            for stats in (ba.stats, bb.stats):
                assert stats.configs == (
                    stats.dispatched
                    + stats.cache_hits
                    + stats.deduped
                    + stats.disk_hits
                    + stats.shared_hits
                )

    def test_session_results_persist_across_generations(self, mm_model):
        """A key computed generations ago is still served as shared_hits."""
        a = fresh_target(mm_model)
        b = fresh_target(mm_model)
        engine = EvaluationEngine(a, max_workers=2)
        engine.fused_submit(
            a, as_keys(a, some_configs(6, duplicate_every=0)), region="a"
        )
        self.drain(engine)
        later = engine.fused_submit(
            b, as_keys(b, some_configs(6, duplicate_every=0)), region="b"
        )
        self.drain(engine)
        engine.close()
        assert later.stats.shared_hits == 6
        assert later.stats.dispatched == 0

    def test_failed_chunk_rescued_serially(self, mm_model):
        target = fresh_target(mm_model, protocol=LATENCY)
        policy = FlakyFaultPolicy(fail_attempts=1)
        ref_target = fresh_target(mm_model, protocol=LATENCY)
        ref = EvaluationEngine(ref_target).evaluate_batch(
            as_keys(ref_target, some_configs(8))
        )

        engine = EvaluationEngine(target, max_workers=4, fault_policy=policy)
        batch = engine.fused_submit(
            target, as_keys(target, some_configs(8)), region="r"
        )
        self.drain(engine)
        engine.close()
        assert batch.objectives == ref.objectives
        assert batch.stats.failed > 0

    def test_evaluate_batch_is_a_one_batch_session(self, mm_model):
        """evaluate_batch drains only its own batch: a pending fused batch
        stays pending for fused_wait, and once nothing is pending the
        session keeps no results."""
        a = fresh_target(mm_model, protocol=LATENCY)
        b = fresh_target(mm_model, seed=1, protocol=LATENCY)
        engine = EvaluationEngine(b, max_workers=2)
        fused = engine.fused_submit(a, as_keys(a, some_configs(6)), region="a")
        res = engine.evaluate_batch(as_keys(b, some_configs(6)))
        assert res.done and not fused.done and engine.fused_active
        assert self.drain(engine) == [fused]
        assert engine._results  # a fused session shares across generations
        engine.evaluate_batch(as_keys(b, some_configs(8)))
        assert not engine._results and not engine._inflight
        engine.close()

    def test_fused_reset_clears_state(self, mm_model):
        target = fresh_target(mm_model)
        engine = EvaluationEngine(target, max_workers=2)
        engine.fused_submit(target, as_keys(target, some_configs(5)), region="r")
        self.drain(engine)
        assert engine._results
        engine.fused_reset()
        assert not engine._results and not engine.fused_active
        engine.close()

    def test_scheduler_batch_events_and_metrics(self, mm_model):
        from repro.obs import Observability

        obs = Observability.tracing()
        target = fresh_target(mm_model)
        engine = EvaluationEngine(target, max_workers=2, obs=obs)
        engine.fused_submit(
            target, as_keys(target, some_configs(9, duplicate_every=3)), region="r7"
        )
        self.drain(engine)
        engine.close()
        events = [
            r
            for r in obs.tracer.records()
            if r["type"] == "event" and r["name"] == "engine.batch"
        ]
        assert len(events) == 1
        attrs = events[0]["attrs"]
        assert attrs["region"] == "r7"
        assert attrs["configs"] == 9
        m = obs.metrics.as_dict()
        assert m["repro_engine_batches_total"] == 1
        assert m["repro_engine_configs_total"] == 9
        assert not any(name.startswith("repro_scheduler_") for name in m)


class RecordingTarget(SimulatedTarget):
    """A simulated target that records which thread runs each
    ``compute_keys`` call (class-wide, so targets built inside the
    multi-region tuner are recorded too)."""

    threads: list = []

    def compute_keys(self, keys):
        RecordingTarget.threads.append(threading.current_thread())
        return super().compute_keys(keys)


class TestPoolRule:
    """A pool is used only when it can overlap waits: per-configuration
    latency on the target.  Otherwise every computation
    runs on the caller's thread, one ``compute_keys`` call per batch (a
    fault policy does not change that).  Objectives are bit-identical either
    way."""

    @pytest.fixture(autouse=True)
    def _fresh_record(self, monkeypatch):
        monkeypatch.setattr(RecordingTarget, "threads", [])

    @staticmethod
    def _pooled_threads():
        me = threading.current_thread()
        return [t for t in RecordingTarget.threads if t is not me]

    def _reference(self, mm_model, seed, configs, protocol=None):
        target = SimulatedTarget(mm_model, seed=seed, protocol=protocol)
        return EvaluationEngine(target).evaluate_batch(
            as_keys(target, configs)
        ).objectives

    def _engine_cases(self):
        return [
            ({}, None, False),
            ({}, LATENCY, True),
            ({"fault_policy": FlakyFaultPolicy()}, None, False),
            ({"fault_policy": FlakyFaultPolicy()}, LATENCY, True),
        ]

    @pytest.mark.parametrize("workers", [2, 8])
    def test_evaluate_batch(self, mm_model, workers):
        configs = some_configs(24)
        for kwargs, protocol, pooled in self._engine_cases():
            RecordingTarget.threads = []
            target = RecordingTarget(mm_model, seed=4, protocol=protocol)
            engine = EvaluationEngine(target, max_workers=workers, **kwargs)
            res = engine.evaluate_batch(as_keys(engine.target, configs))
            assert res.objectives == self._reference(mm_model, 4, configs, protocol)
            if pooled:
                assert self._pooled_threads() == RecordingTarget.threads, kwargs
            else:
                assert RecordingTarget.threads == [threading.current_thread()]

    @pytest.mark.parametrize("workers", [2, 8])
    def test_fused_session(self, mm_model, workers):
        configs = some_configs(12)
        for kwargs, protocol, pooled in self._engine_cases():
            RecordingTarget.threads = []
            targets = [
                RecordingTarget(mm_model, seed=s, protocol=protocol) for s in (0, 1)
            ]
            engine = EvaluationEngine(targets[0], max_workers=workers, **kwargs)
            batches = [
                engine.fused_submit(t, as_keys(t, configs), region=str(i))
                for i, t in enumerate(targets)
            ]
            while engine.fused_active:
                engine.fused_wait()
            engine.close()
            for batch, seed in zip(batches, (0, 1)):
                assert batch.objectives == self._reference(
                    mm_model, seed, configs, protocol
                )
            if pooled:
                assert self._pooled_threads() == RecordingTarget.threads, kwargs
            else:
                me = threading.current_thread()
                assert RecordingTarget.threads == [me, me]

    @pytest.mark.parametrize("chunk_size", [None, 1, 3])
    def test_pooled_chunking_bit_identical(self, mm_model, split_compute, chunk_size):
        """A pooled batch of B unique keys goes out as ``ceil(B/workers)``-key
        chunks: 16 keys on 4 workers are 4 ``compute_keys`` calls, all on
        pool threads, bit-identical however the target splits each one."""
        configs = some_configs(24)
        ref = self._reference(mm_model, 4, configs, LATENCY)
        split_compute(chunk_size)
        target = RecordingTarget(mm_model, seed=4, protocol=LATENCY)
        engine = EvaluationEngine(target, max_workers=4)
        res = engine.evaluate_batch(as_keys(engine.target, configs))
        engine.close()
        assert res.stats.dispatched == 16
        assert res.objectives == ref
        assert len(RecordingTarget.threads) == 4
        assert self._pooled_threads() == RecordingTarget.threads

    def test_inline_failure_is_rescued_per_key(self, mm_model, monkeypatch):
        configs = some_configs(6, duplicate_every=0)
        target = SimulatedTarget(mm_model, seed=4)
        original = SimulatedTarget.compute_keys

        def fail_bulk(self, keys):
            if len(keys) > 1:
                raise RuntimeError("bulk call failed")
            return original(self, keys)

        monkeypatch.setattr(SimulatedTarget, "compute_keys", fail_bulk)
        engine = EvaluationEngine(target, max_workers=4)
        res = engine.evaluate_batch(as_keys(engine.target, configs))
        monkeypatch.undo()
        assert res.stats.failed == 6
        assert res.new_evaluations == 6
        assert res.objectives == self._reference(mm_model, 4, configs)

    @pytest.mark.parametrize("workers", [2, 8])
    def test_tune_multiregion(self, monkeypatch, workers):
        import repro.driver.multiregion as multiregion
        from repro.driver.compiler import TuningDriver
        from repro.frontend import get_kernel

        monkeypatch.setattr(multiregion, "SimulatedTarget", RecordingTarget)
        kernel = get_kernel("jacobi2d")
        settings = RSGDE3Settings(
            gde3=GDE3Settings(population_size=8), max_generations=3, patience=100
        )

        def signature(res):
            return (
                [tuple(c.objectives for c in r.front) for r in res.results],
                [r.evaluations for r in res.results],
                res.program_runs,
            )

        def run(workers, protocol=None):
            RecordingTarget.threads = []
            if protocol is None:
                driver = TuningDriver(machine=WESTMERE, workers=workers, settings=settings)
                return signature(
                    driver.tune_multiregion(kernel.function, {"N": 200, "T": 5})
                )
            tuner = multiregion.MultiRegionTuner(
                function=kernel.function,
                sizes={"N": 200, "T": 5},
                machine=WESTMERE,
                settings=settings,
                workers=workers,
                protocol=protocol,
            )
            return signature(tuner.run())

        reference = run(1)
        assert run(workers) == reference
        assert RecordingTarget.threads
        assert self._pooled_threads() == []
        pooled = run(workers, LATENCY)
        assert RecordingTarget.threads
        assert self._pooled_threads() == RecordingTarget.threads
        assert pooled == run(1, LATENCY)
