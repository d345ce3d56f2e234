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

    @pytest.mark.parametrize(
        "wall", [float("nan"), float("inf"), float("-inf"), 0.0, -0.5]
    )
    def test_non_finite_observation_rejected(self, wall):
        """A NaN or an infinity would poison the arm's mean for good."""
        sel = BanditSelector()
        sel.observe(0, 0.25)
        with pytest.raises(ValueError, match="wall_time"):
            sel.observe(0, wall)
        with pytest.raises(ValueError, match="wall_time"):
            sel.observe(1, wall)
        assert sel.statistics() == {0: (1, 0.25, 0.0)}

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


class TestFloatScoringParity:
    """select() scores the arms on Python floats; select_scalar() is the
    NumPy per-arm loop kept as the differential oracle.  The two must pick
    the same version at every step of any observation stream."""

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

    @pytest.mark.parametrize("n_arms", [13, 16])
    def test_benchmark_shaped_stream(self, n_arms):
        """A table as large as a tuned Pareto set, observed through its own
        choices (as the runtime does), with lognormal observation noise."""
        rng = derive_rng(n_arms, "shape")
        table = table_with_times(list(rng.uniform(0.01, 0.5, n_arms)))
        true_times = rng.uniform(0.01, 0.5, n_arms)
        b = BanditSelector(seed=n_arms)
        for step in range(2000):
            v = b.select(table)
            assert v is b.select_scalar(table), step
            wall = true_times[v.meta.index] * float(np.exp(rng.normal(0, 0.015)))
            b.observe(v.meta.index, wall)

    def test_tied_prior_times(self):
        """Equal prior times (and a zero prior span, so the scale falls back
        to the largest time): ties go to the first arm in table order."""
        table = table_with_times([0.2, 0.1, 0.2, 0.1, 0.1, 0.2] * 3)
        b = BanditSelector(seed=5)
        assert b.select(table) is b.select_scalar(table) is table[1]
        flat = table_with_times([0.3] * 14)
        assert b.select(flat) is b.select_scalar(flat) is flat[0]
        rng = derive_rng(5, "ties")
        for step in range(400):
            for t in (table, flat):
                assert b.select(t) is b.select_scalar(t), step
            b.observe(int(rng.integers(18)), 0.1 * (1 + int(rng.integers(3))))

    def test_arms_first_observed_mid_stream(self):
        """Arms join the statistics one by one (each bumps the alignment
        epoch), some of them absent from the table."""
        table = table_with_times([0.05 * (1 + i % 5) for i in range(14)])
        b = BanditSelector(seed=6)
        rng = derive_rng(6, "epochs")
        order = [int(i) for i in rng.permutation(20)]  # 14..19 not in the table
        for step, arm in enumerate(order):
            epoch, new = b._epoch, b.observations(arm) == 0
            b.observe(arm, 0.05 + float(rng.random()) * 0.1)
            assert b._epoch == epoch + new
            for _ in range(10):
                v = b.select(table)
                assert v is b.select_scalar(table), step
                b.observe(v.meta.index, 0.05 + float(rng.random()) * 0.1)

    def test_recalibrated_table_swapped_mid_stream(self):
        """An executor swaps in a recalibrated table (a new versions tuple,
        new prior times) mid-stream: the per-table caches follow it."""
        from repro.runtime import RegionExecutor

        table = table_with_times([0.02 * (i + 1) for i in range(15)])
        b = BanditSelector(seed=7)
        ex = RegionExecutor(table, policy=b)
        rng = derive_rng(7, "swap")
        true_times = rng.uniform(0.01, 0.3, 15)
        swaps = 0
        for step in range(1500):
            v = ex.select()
            assert v is b.select_scalar(ex.table), step
            wall = true_times[v.meta.index] * float(np.exp(rng.normal(0, 0.05)))
            ex.monitor.record("r", v.meta.index, 1, v.meta.time, wall)
            b.observe(v.meta.index, wall)
            if step % 250 == 249:
                swaps += ex.recalibrate() > 0
        assert swaps == 6

    def test_zero_prior_weight_explores_unobserved_first(self):
        """Without a prior, a never-observed arm scores NaN and is picked
        first, in table order, by both paths."""
        table = table_with_times([0.5, 0.3, 0.8, 0.4])
        b = BanditSelector(prior_weight=0.0, seed=8)
        for arm in (0, 2):
            b.observe(arm, 0.3)
        assert b.select(table) is b.select_scalar(table) is table[1]
        for arm in (1, 3):
            b.observe(arm, 0.9)
        for step in range(50):
            v = b.select(table)
            assert v is b.select_scalar(table), step
            b.observe(v.meta.index, 0.1 + 0.1 * v.meta.index)

    def test_negative_prior_weight_rejected(self):
        with pytest.raises(ValueError, match="prior_weight"):
            BanditSelector(prior_weight=-1.0)

    @pytest.mark.parametrize("prior_weight", [1.0, 0.0, 2.5])
    def test_several_arms_observed_between_selects(self, prior_weight):
        """Between two selects, 0-5 observations of different arms (some
        of them absent from the table, some repeated)."""
        table = table_with_times(list(derive_rng(9, "multi").uniform(0.01, 0.5, 14)))
        b = BanditSelector(prior_weight=prior_weight, seed=9)
        rng = derive_rng(9, "multi-stream")
        for step in range(800):
            assert b.select(table) is b.select_scalar(table), step
            for _ in range(int(rng.integers(0, 6))):
                b.observe(int(rng.integers(17)), 0.01 + float(rng.random()) * 0.5)

    @pytest.mark.parametrize("prior_weight", [1.0, 0.0])
    def test_tables_swapped_and_arms_added_mid_stream(self, prior_weight):
        """Recalibrated tables (new versions tuples and prior times) swap
        in and out while new arms join the statistics (epoch bumps): at
        every step both paths agree on whichever table is current."""
        from repro.runtime import RegionExecutor, RuntimeMonitor

        n = 15
        table = table_with_times([0.02 * (i + 1) for i in range(n)])
        b = BanditSelector(prior_weight=prior_weight, seed=10)
        monitor = RuntimeMonitor()
        ex = RegionExecutor(table, policy=b, monitor=monitor)
        rng = derive_rng(10, "swap-add")
        true_times = rng.uniform(0.01, 0.3, n)
        pending = [int(i) for i in rng.permutation(n)]
        tables = [table]
        for step in range(1200):
            if step % 40 == 0 and pending:
                arm = pending.pop()
                epoch = b._epoch
                b.observe(arm, float(true_times[arm]))
                assert b._epoch >= epoch
            if step % 97 == 0:
                ex.table = tables[int(rng.integers(len(tables)))]  # swap back
            for t in tables[-3:]:
                assert b.select(t) is b.select_scalar(t), step
            v = ex.select()
            assert v is b.select_scalar(ex.table), step
            wall = float(true_times[v.meta.index] * np.exp(rng.normal(0, 0.05)))
            monitor.record("r", v.meta.index, 1, v.meta.time, wall)
            b.observe(v.meta.index, wall)
            if step % 150 == 149 and ex.recalibrate(min_samples=2):
                tables.append(ex.table)
        assert len(tables) > 4
        assert not pending


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
