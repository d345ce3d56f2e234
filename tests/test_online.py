"""Tests for the online (bandit) version selector."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend.meta import VersionMeta
from repro.runtime import Version, VersionTable
from repro.runtime.online import BanditSelector
from repro.util.rng import derive_rng


def table_with_times(predicted: list[float]) -> VersionTable:
    metas = [
        VersionMeta(index=i, time=t, resources=t, threads=1, tile_sizes=())
        for i, t in enumerate(predicted)
    ]
    return VersionTable("r", tuple(Version(meta=m) for m in metas))


def simulate(selector: BanditSelector, table: VersionTable, true_times: list[float], steps: int, rng):
    picks = []
    for _ in range(steps):
        v = selector.select(table)
        wall = true_times[v.meta.index] * float(np.exp(rng.normal(0, 0.05)))
        selector.observe(v.meta.index, wall)
        picks.append(v.meta.index)
    return picks


class TestBanditBasics:
    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            BanditSelector(strategy="thompson")

    def test_invalid_observation_rejected(self):
        sel = BanditSelector()
        with pytest.raises(ValueError):
            sel.observe(0, 0.0)

    def test_prior_mean_without_observations(self):
        table = table_with_times([0.5, 1.0])
        sel = BanditSelector()
        assert sel.mean_time(table[0]) == pytest.approx(0.5)

    def test_observations_shift_posterior(self):
        table = table_with_times([0.5, 1.0])
        sel = BanditSelector(prior_weight=1.0)
        for _ in range(9):
            sel.observe(0, 2.0)
        # posterior: (9*2.0 + 1*0.5) / 10 = 1.85
        assert sel.mean_time(table[0]) == pytest.approx(1.85)

    def test_describe(self):
        sel = BanditSelector()
        sel.observe(0, 1.0)
        assert "n=1" in sel.describe()


class TestConvergence:
    def test_ucb_converges_to_truly_fastest(self):
        """Metadata says v0 is fastest, production says v2: the bandit must
        shift its picks to v2."""
        table = table_with_times([0.10, 0.12, 0.14])
        true_times = [0.30, 0.28, 0.05]  # reality inverted
        sel = BanditSelector(strategy="ucb1", seed=1)
        rng = derive_rng(5)
        picks = simulate(sel, table, true_times, steps=200, rng=rng)
        late = picks[-50:]
        assert late.count(2) > 40, f"late picks: {late}"

    def test_epsilon_greedy_converges_too(self):
        table = table_with_times([0.10, 0.12, 0.14])
        true_times = [0.30, 0.28, 0.05]
        sel = BanditSelector(strategy="epsilon", epsilon=0.15, seed=2)
        rng = derive_rng(6)
        picks = simulate(sel, table, true_times, steps=300, rng=rng)
        late = picks[-60:]
        assert late.count(2) > len(late) * 0.6

    def test_explores_every_arm(self):
        table = table_with_times([0.10, 0.11, 0.12, 0.13])
        true_times = [0.10, 0.11, 0.12, 0.13]
        sel = BanditSelector(strategy="ucb1", seed=3, exploration=1.0)
        rng = derive_rng(7)
        simulate(sel, table, true_times, steps=100, rng=rng)
        assert all(sel.observations(i) > 0 for i in range(4))

    def test_correct_prior_keeps_fastest(self):
        """When the metadata is right, the bandit should not regress."""
        table = table_with_times([0.05, 0.10, 0.20])
        true_times = [0.05, 0.10, 0.20]
        sel = BanditSelector(strategy="ucb1", seed=4)
        rng = derive_rng(8)
        picks = simulate(sel, table, true_times, steps=150, rng=rng)
        assert picks[-30:].count(0) > 24


class TestExecutorIntegration:
    def test_bandit_as_policy_with_recorded_walls(self):
        """Plug the bandit into the executor loop: select -> (pretend) run
        -> observe, using metadata-only versions."""
        table = table_with_times([0.10, 0.12])
        true_times = [0.50, 0.05]
        sel = BanditSelector(strategy="ucb1", seed=9)
        rng = derive_rng(10)
        for _ in range(80):
            v = sel.select(table)
            wall = true_times[v.meta.index] * float(np.exp(rng.normal(0, 0.05)))
            sel.observe(v.meta.index, wall)
        assert sel.select(table).meta.index == 1


class TestVectorizedParity:
    """select() computes every arm's UCB score in one vectorized
    expression; select_scalar() is the per-arm loop kept as the
    differential oracle.  The two must pick the same version at every step
    of any observation stream."""

    def test_select_matches_scalar_oracle_throughout(self):
        table = table_with_times([0.5, 0.3, 0.8, 0.4])
        b = BanditSelector(seed=11)
        rng = derive_rng(11, "parity")
        for step in range(300):
            assert b.select(table) is b.select_scalar(table), step
            arm = int(rng.integers(len(table)))
            b.observe(arm, 0.1 + float(rng.random()))

    def test_parity_with_unobserved_arms(self):
        table = table_with_times([0.5, 0.3, 0.8])
        b = BanditSelector(seed=1)
        # arm 1 never observed; arm 99 observed but absent from the table
        for _ in range(5):
            b.observe(0, 0.7)
            b.observe(2, 0.2)
            b.observe(99, 0.01)
        assert b.select(table) is b.select_scalar(table)

    def test_parity_before_any_observation(self):
        table = table_with_times([0.5, 0.3, 0.8])
        b = BanditSelector(seed=2)
        assert b.select(table) is b.select_scalar(table)

    def test_epsilon_strategy_delegates(self):
        table = table_with_times([0.5, 0.3])
        b = BanditSelector(strategy="epsilon", seed=3)
        for _ in range(20):
            assert b.select_scalar(table).meta.index in (0, 1)


class TestBatchedObservation:
    def test_statistics_welford(self):
        b = BanditSelector()
        for wall in (1.0, 2.0, 3.0):
            b.observe(0, wall)
        count, mean, m2 = b.statistics()[0]
        assert count == 3
        assert mean == pytest.approx(2.0)
        assert m2 == pytest.approx(2.0)  # sum of squared deviations


class TestBanditConcurrency:
    def test_concurrent_observe_and_select(self):
        """16 threads hammering observe/select concurrently: selection
        never raises and not a single observation is lost."""
        import threading

        table = table_with_times([0.5, 0.3, 0.8, 0.4])
        b = BanditSelector(seed=7)
        per_thread, n_threads = 300, 16
        errors = []

        def run(tid):
            rng = derive_rng(tid, "worker")
            try:
                for i in range(per_thread):
                    v = b.select(table)
                    assert v.meta.index in range(len(table))
                    b.observe(
                        int(rng.integers(len(table))), 0.1 + float(rng.random())
                    )
                    if i % 50 == 0:
                        b.select_scalar(table)
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(t,)) for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        stats = b.statistics()
        assert sum(count for count, _, _ in stats.values()) == per_thread * n_threads
