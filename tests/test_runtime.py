"""Tests for the runtime system: version tables, selection policies,
executor and monitor."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend.meta import VersionMeta
from repro.runtime import (
    BanditSelector,
    EfficiencyFloorPolicy,
    ExecutionRecord,
    FastestPolicy,
    MostEfficientPolicy,
    RegionExecutor,
    RuntimeMonitor,
    ThreadCapPolicy,
    TimeCapPolicy,
    Version,
    VersionTable,
    WeightedSumPolicy,
    compile_policy,
    policy_by_name,
)


def meta(i, time, threads, resources=None, energy=None):
    return VersionMeta(
        index=i,
        time=time,
        resources=resources if resources is not None else time * threads,
        threads=threads,
        tile_sizes=(("i", 8),),
        energy=energy,
    )


@pytest.fixture
def table():
    """A plausible mm-like Pareto table: faster versions use more threads
    and cost more cpu-seconds."""
    metas = [
        meta(0, 0.05, 40),   # 2.0 cpu-s
        meta(1, 0.08, 20),   # 1.6
        meta(2, 0.14, 10),   # 1.4
        meta(3, 0.60, 2),    # 1.2
        meta(4, 1.10, 1),    # 1.1
    ]
    return VersionTable(
        region_name="mm",
        versions=tuple(Version(meta=m) for m in metas),
    )


class TestVersionTable:
    def test_len_iter_getitem(self, table):
        assert len(table) == 5
        assert [v.meta.index for v in table] == [0, 1, 2, 3, 4]
        assert table[3].meta.threads == 2
        with pytest.raises(IndexError):
            table[99]

    def test_fastest_most_efficient(self, table):
        assert table.fastest().meta.index == 0
        assert table.most_efficient().meta.index == 4

    def test_requires_versions(self):
        with pytest.raises(ValueError):
            VersionTable(region_name="x", versions=())

    def test_duplicate_indices_rejected(self):
        vs = (Version(meta=meta(0, 1.0, 1)), Version(meta=meta(0, 2.0, 2)))
        with pytest.raises(ValueError):
            VersionTable(region_name="x", versions=vs)

    def test_summary_mentions_all(self, table):
        text = table.pareto_summary()
        for i in range(5):
            assert f"v{i}:" in text

    def test_metadata_only_version_raises_on_call(self, table):
        with pytest.raises(RuntimeError):
            table[0]({}, {})


class TestPolicies:
    def test_fastest(self, table):
        assert FastestPolicy().select(table).meta.index == 0

    def test_most_efficient(self, table):
        assert MostEfficientPolicy().select(table).meta.index == 4

    def test_weighted_extremes_match_pure_policies(self, table):
        assert WeightedSumPolicy(1.0, 0.0).select(table).meta.index == 0
        assert WeightedSumPolicy(0.0, 1.0).select(table).meta.index == 4

    def test_weighted_balanced_interior(self, table):
        idx = WeightedSumPolicy(0.5, 0.5).select(table).meta.index
        assert idx not in (0,)  # not the extreme time point

    def test_time_cap(self, table):
        # cheapest version meeting a 0.2 s deadline is v2 (10 threads)
        assert TimeCapPolicy(cap=0.2).select(table).meta.index == 2

    def test_time_cap_infeasible_falls_back_to_fastest(self, table):
        assert TimeCapPolicy(cap=0.001).select(table).meta.index == 0

    def test_thread_cap_explicit(self, table):
        assert ThreadCapPolicy(cap=10).select(table).meta.index == 2

    def test_thread_cap_from_context(self, table):
        v = ThreadCapPolicy().select(table, {"available_cores": 2})
        assert v.meta.index == 3

    def test_thread_cap_no_fit_takes_smallest(self, table):
        metas = [meta(0, 0.1, 8), meta(1, 0.2, 4)]
        t = VersionTable("x", tuple(Version(meta=m) for m in metas))
        assert ThreadCapPolicy(cap=1).select(t).meta.index == 1

    def test_efficiency_floor(self, table):
        # efficiencies vs t_seq=1.1: v0 .55, v1 .6875, v2 .7857, v3 .9167, v4 1
        assert EfficiencyFloorPolicy(floor=0.9).select(table).meta.index == 3
        assert EfficiencyFloorPolicy(floor=0.75).select(table).meta.index == 2

    def test_efficiency_floor_without_sequential(self):
        # no 1-thread entry: falls back to fewest cpu-seconds (v1: 0.6 < 0.8)
        metas = [meta(0, 0.1, 8), meta(1, 0.15, 4)]
        t = VersionTable("x", tuple(Version(meta=m) for m in metas))
        assert EfficiencyFloorPolicy().select(t).meta.index == 1

    def test_policy_by_name(self):
        assert isinstance(policy_by_name("fastest"), FastestPolicy)
        assert isinstance(policy_by_name("efficient"), MostEfficientPolicy)
        assert isinstance(policy_by_name("balanced"), WeightedSumPolicy)
        with pytest.raises(KeyError):
            policy_by_name("nope")

    def test_policy_by_name_parameterized(self, table):
        p = policy_by_name("time_cap:0.2")
        assert isinstance(p, TimeCapPolicy) and p.cap == 0.2
        assert p.select(table).meta.index == 2

        p = policy_by_name("thread_cap:8")
        assert isinstance(p, ThreadCapPolicy) and p.cap == 8

        p = policy_by_name("efficiency_floor:0.7")
        assert isinstance(p, EfficiencyFloorPolicy) and p.floor == 0.7

        from repro.runtime import EnergyCapPolicy

        p = policy_by_name("energy_cap:100")
        assert isinstance(p, EnergyCapPolicy) and p.cap == 100.0

    def test_policy_by_name_optional_parameters(self):
        # thread_cap / efficiency_floor have context/default fallbacks
        assert policy_by_name("thread_cap").cap is None
        assert policy_by_name("efficiency_floor").floor == 0.8

    def test_policy_by_name_errors(self):
        with pytest.raises(KeyError, match="needs a parameter"):
            policy_by_name("time_cap")
        with pytest.raises(KeyError, match="needs a parameter"):
            policy_by_name("energy_cap")
        with pytest.raises(KeyError, match="invalid parameter"):
            policy_by_name("thread_cap:many")
        with pytest.raises(KeyError, match="takes no parameter"):
            policy_by_name("fastest:3")
        with pytest.raises(KeyError, match="available"):
            policy_by_name("deadline:1.0")

    def test_weighted_sum_empty_table_clear_error(self):
        with pytest.raises(ValueError, match="empty version table"):
            WeightedSumPolicy().select([])

    def test_describe(self, table):
        assert "0.5" in WeightedSumPolicy().describe()
        assert "time_cap" in TimeCapPolicy(0.1).describe()


class TestMonitor:
    def test_context_empty_by_default(self):
        assert RuntimeMonitor().context() == {}

    def test_set_available_cores(self):
        m = RuntimeMonitor()
        m.set_available_cores(8)
        assert m.context() == {"available_cores": 8}
        with pytest.raises(ValueError):
            m.set_available_cores(0)

    def test_record_and_aggregate(self):
        m = RuntimeMonitor()
        m.record("mm", 0, 4, 0.1, 0.12)
        m.record("mm", 1, 2, 0.2, 0.25)
        assert m.selections() == [0, 1]
        assert m.total_cpu_seconds() == pytest.approx(0.12 * 4 + 0.25 * 2)

    @pytest.mark.parametrize(
        "wall", [float("nan"), float("inf"), float("-inf"), -1e-9, -2.0]
    )
    def test_record_rejects_non_finite_or_negative_wall_time(self, wall):
        m = RuntimeMonitor()
        with pytest.raises(ValueError, match="wall_time"):
            m.record("mm", 0, 4, 0.1, wall)
        assert m.history == []

    def test_record_accepts_zero_wall_time(self):
        """A FakeClock that does not advance times a call as 0.0."""
        m = RuntimeMonitor()
        m.record("mm", 0, 4, 0.1, 0.0)
        assert m.wall_medians("mm") == {0: (1, 0.0)}

    @pytest.mark.parametrize("wall", [float("nan"), float("inf"), -3.0])
    def test_history_appended_directly_is_checked_on_fold(self, wall):
        """A bad record appended to the history list itself is rejected
        when the index folds it in; recalibrate raises instead of writing
        an order-dependent median into the metadata."""
        m = RuntimeMonitor()
        m.record("mm", 0, 4, 0.1, 2.0)
        m.history.append(ExecutionRecord("mm", 0, 4, 0.1, wall, 0.0))
        m.history.append(ExecutionRecord("mm", 0, 4, 0.1, 1.0, 0.0))
        ex = RegionExecutor(
            VersionTable("mm", (Version(meta=meta(0, 0.1, 4)),)), monitor=m
        )
        with pytest.raises(ValueError, match=r"history\[1\]: wall_time"):
            ex.recalibrate(min_samples=1)
        with pytest.raises(ValueError, match="wall_time"):
            m.wall_medians("mm")  # still poisoned: no record was skipped
        m.history[1] = ExecutionRecord("mm", 0, 4, 0.1, 3.0, 0.0)
        assert m.wall_medians("mm") == {0: (3, 2.0)}

    @pytest.mark.parametrize("seed", range(4))
    def test_wall_medians_match_stats_median(self, seed):
        """Even and odd counts with duplicate wall times: the indexed
        medians equal repro.util.stats.median bit for bit."""
        from repro.util.stats import median

        rng = np.random.default_rng([seed, 30])
        m = RuntimeMonitor()
        # few distinct values, so duplicates are common
        pool = rng.uniform(0.01, 1.0, 5)
        for _ in range(int(rng.integers(1, 80))):
            m.record("mm", int(rng.integers(4)), 2, 0.1, float(rng.choice(pool)))
        got = m.wall_medians("mm")
        walls_of = {}
        for r in m.records():
            walls_of.setdefault(r.version_index, []).append(r.wall_time)
        assert got.keys() == walls_of.keys()
        for index, walls in walls_of.items():
            count, med = got[index]
            assert count == len(walls)
            assert med.hex() == median(walls).hex()

    def test_wall_medians_memoised_until_a_record_of_the_region(self):
        m = RuntimeMonitor()
        m.record("mm", 0, 4, 0.1, 0.2)
        first = m.wall_medians("mm")
        memo = m._medians["mm"]
        first[0] = (9, 9.0)  # a copy of the memo
        assert m.wall_medians("mm") == {0: (1, 0.2)}
        m.record("jacobi", 0, 4, 0.1, 0.3)
        assert m.wall_medians("mm") == {0: (1, 0.2)}
        assert m._medians["mm"] is memo  # another region's record
        m.record("mm", 0, 4, 0.1, 0.4)
        assert m.wall_medians("mm") == {0: (2, 0.5 * (0.2 + 0.4))}
        assert m._medians["mm"] is not memo
        assert m.wall_medians("nbody") == {}


class TestRegionExecutor:
    def _executable_table(self):
        from repro.analysis import extract_regions
        from repro.backend import compile_function
        from repro.frontend import get_kernel
        from repro.transform import default_skeleton

        k = get_kernel("mm")
        region = extract_regions(k.function)[0]
        sk = default_skeleton(region, k.test_size, max_threads=4)
        versions = []
        for i, thr in enumerate((4, 1)):
            values = {"tile_i": 4, "tile_j": 4, "tile_k": 4, "threads": thr}
            fn = sk.instantiate(values).apply()
            versions.append(
                Version(
                    meta=meta(i, 0.1 * (i + 1), thr),
                    fn=compile_function(fn, name=f"mm_v{i}"),
                )
            )
        return k, VersionTable("mm", tuple(versions))

    def test_execute_records_history(self, rng):
        k, table = self._executable_table()
        ex = RegionExecutor(table)
        inputs = k.make_inputs(k.test_size, rng)
        arrs = {n: v.copy() for n, v in inputs.items()}
        v = ex.execute(arrs, k.test_size)
        assert ex.monitor.history[-1].version_index == v.meta.index
        ref = k.reference(inputs, k.test_size)
        assert np.allclose(arrs["C"], ref["C"])

    def test_dynamic_reselection_on_core_change(self):
        """The abstract's scenario: circumstances change, the runtime picks
        a different version."""
        _, table = self._executable_table()
        ex = RegionExecutor(table, policy=ThreadCapPolicy())
        ex.monitor.set_available_cores(4)
        first = ex.select().meta.index
        ex.monitor.set_available_cores(1)
        second = ex.select().meta.index
        assert first != second

    def test_policy_swap(self, table):
        ex = RegionExecutor(table)
        ex.set_policy(FastestPolicy())
        assert ex.select().meta.index == 0
        ex.set_policy(MostEfficientPolicy())
        assert ex.select().meta.index == 4


class TestRecalibration:
    def _table(self):
        metas = [meta(0, 0.05, 4), meta(1, 0.2, 1)]
        return VersionTable("mm", tuple(Version(meta=m) for m in metas))

    def test_updates_after_enough_samples(self):
        ex = RegionExecutor(self._table())
        for wall in (0.10, 0.11, 0.12):
            ex.monitor.record("mm", 0, 4, 0.05, wall)
        updated = ex.recalibrate(min_samples=3)
        assert updated == 1
        v0 = ex.table[0].meta
        assert v0.time == pytest.approx(0.11)
        assert v0.resources == pytest.approx(0.44)
        # v1 untouched (no samples)
        assert ex.table[1].meta.time == 0.2

    def test_too_few_samples_no_update(self):
        ex = RegionExecutor(self._table())
        ex.monitor.record("mm", 0, 4, 0.05, 0.5)
        assert ex.recalibrate(min_samples=3) == 0
        assert ex.table[0].meta.time == 0.05

    def test_other_regions_ignored(self):
        ex = RegionExecutor(self._table())
        for _ in range(5):
            ex.monitor.record("other", 0, 4, 0.05, 9.9)
        assert ex.recalibrate(min_samples=3) == 0

    def test_selection_changes_after_recalibration(self):
        """Observed reality flips the fastest version."""
        ex = RegionExecutor(self._table(), policy=FastestPolicy())
        assert ex.select().meta.index == 0
        for wall in (0.9, 1.0, 1.1):  # v0 is actually slow in production
            ex.monitor.record("mm", 0, 4, 0.05, wall)
        ex.recalibrate(min_samples=3)
        assert ex.select().meta.index == 1

    def test_energy_scaled_proportionally(self):
        m = VersionMeta(index=0, time=0.1, resources=0.4, threads=4,
                        tile_sizes=(), energy=10.0)
        table = VersionTable("mm", (Version(meta=m),))
        ex = RegionExecutor(table)
        for wall in (0.2, 0.2, 0.2):
            ex.monitor.record("mm", 0, 4, 0.1, wall)
        ex.recalibrate()
        assert ex.table[0].meta.energy == pytest.approx(20.0)


class TestMonitorClock:
    """The monitor's time source is injectable (same Clock protocol as the
    tracer), so execution-record timestamps can be pinned in tests."""

    def test_default_is_system_clock(self):
        from repro.obs import SystemClock

        assert isinstance(RuntimeMonitor().clock, SystemClock)

    def test_fake_clock_pins_timestamps(self):
        from repro.obs import FakeClock

        m = RuntimeMonitor(clock=FakeClock(t=100.0, tick=1.0))
        m.record("mm", 0, 4, 0.1, 0.12)
        m.record("mm", 1, 2, 0.2, 0.25)
        assert [r.timestamp for r in m.history] == [100.0, 101.0]

    def test_executor_times_with_monitor_clock(self, rng):
        """execute() walls are measured on the monitor's clock — with a
        ticking FakeClock every invocation takes exactly one tick."""
        from repro.obs import FakeClock

        helper = TestRegionExecutor()
        k, table = helper._executable_table()
        monitor = RuntimeMonitor(clock=FakeClock(tick=0.5))
        ex = RegionExecutor(table, monitor=monitor)
        arrs = {n: v.copy() for n, v in k.make_inputs(k.test_size, rng).items()}
        ex.execute(arrs, k.test_size)
        rec = monitor.history[-1]
        assert rec.wall_time == 0.5  # perf() ticked once during the run
        assert rec.timestamp == 1.0  # third read of the same counter


def _hexed(table):
    """A table's metadata with every float as ``float.hex`` (bit-exact)."""
    return [
        (
            v.meta.index,
            float(v.meta.time).hex(),
            float(v.meta.resources).hex(),
            None if v.meta.energy is None else float(v.meta.energy).hex(),
            v.meta.threads,
            v.fn,
        )
        for v in table.versions
    ]


class TestRecalibrationOracle:
    """The indexed recalibrate() against the whole-history scan it replaced
    (tests/runtime_oracle.py): same updated count, same new table (the same
    table object when nothing was updated), over random multi-region
    histories."""

    REGIONS = ("mm", "jacobi", "nbody")

    @staticmethod
    def _table(region, rng, n=6):
        """*n* versions; every other one carries energy metadata."""
        metas = [
            meta(
                i,
                float(rng.uniform(0.01, 1.0)),
                int(rng.choice((1, 2, 4, 8))),
                energy=float(rng.uniform(0.5, 5.0)) if i % 2 else None,
            )
            for i in range(n)
        ]
        return VersionTable(region, tuple(Version(meta=m) for m in metas))

    @staticmethod
    def _records(rng, n, n_versions=6):
        regions = TestRecalibrationOracle.REGIONS
        return [
            ExecutionRecord(
                regions[int(rng.integers(len(regions)))],
                int(rng.integers(n_versions)),
                2,
                0.1,
                float(rng.uniform(0.01, 2.0)),
                float(t),
            )
            for t in range(n)
        ]

    @staticmethod
    def _assert_matches(ex, min_samples):
        from tests.runtime_oracle import recalibrated

        before = ex.table
        want_updated, want_table = recalibrated(
            before, ex.monitor.records(), min_samples
        )
        assert ex.recalibrate(min_samples=min_samples) == want_updated
        if want_updated == 0:
            assert ex.table is before
        else:
            assert ex.table is not before
            assert ex.table.region_name == want_table.region_name
            assert ex.table.versions == want_table.versions
            assert _hexed(ex.table) == _hexed(want_table)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_histories_with_seeded_monitor(self, seed):
        """A monitor built with history= and then recorded into, several
        regions sharing it, recalibrated after every chunk."""
        rng = np.random.default_rng([seed, 28])
        monitor = RuntimeMonitor(history=self._records(rng, int(rng.integers(0, 40))))
        executors = [
            RegionExecutor(self._table(r, rng), monitor=monitor)
            for r in self.REGIONS
        ]
        for _ in range(8):
            for rec in self._records(rng, int(rng.integers(0, 30))):
                monitor.record(*rec[:5])
            for ex in executors:
                self._assert_matches(ex, int(rng.integers(1, 6)))

    def test_zero_updates_keep_the_table_object(self):
        rng = np.random.default_rng(1)
        monitor = RuntimeMonitor()
        ex = RegionExecutor(self._table("mm", rng), monitor=monitor)
        self._assert_matches(ex, 3)  # empty history
        monitor.record("mm", 0, 2, 0.1, 0.2)
        monitor.record("mm", 1, 2, 0.1, 0.3)
        monitor.record("jacobi", 0, 2, 0.1, 0.3)
        self._assert_matches(ex, 2)  # one sample per version: no update

    def test_partial_update_with_energy_none_and_scaled(self):
        rng = np.random.default_rng(2)
        table = self._table("mm", rng)
        monitor = RuntimeMonitor()
        ex = RegionExecutor(table, monitor=monitor)
        # version 0 (energy None) and 1 (energy metadata) reach 3 samples,
        # version 2 stays at 2
        for wall in (0.3, 0.1, 0.2):
            monitor.record("mm", 0, 2, 0.1, wall)
            monitor.record("mm", 1, 2, 0.1, wall * 2)
        monitor.record("mm", 2, 2, 0.1, 0.4)
        monitor.record("mm", 2, 2, 0.1, 0.5)
        self._assert_matches(ex, 3)
        new = ex.table.versions
        assert new[0].meta.time == 0.2 and new[0].meta.energy is None
        assert new[1].meta.energy == pytest.approx(
            table[1].meta.energy * 0.4 / table[1].meta.time
        )
        assert new[2:] == table.versions[2:]

    def test_history_appended_directly_and_replaced(self):
        """The index picks up records appended to the history list itself,
        and rebuilds when the list is replaced."""
        rng = np.random.default_rng(3)
        monitor = RuntimeMonitor()
        ex = RegionExecutor(self._table("mm", rng), monitor=monitor)
        monitor.history.extend(self._records(rng, 60))
        self._assert_matches(ex, 2)
        monitor.history = self._records(rng, 45)
        self._assert_matches(ex, 2)
        del monitor.history[10:]
        self._assert_matches(ex, 1)

    def test_two_executors_after_replaced_and_cut_history(self):
        """Two executors sharing a source table and a monitor match the
        oracle at every history state, across a replaced and a cut
        history."""
        rng = np.random.default_rng(13)
        table = self._table("mm", rng)
        monitor = RuntimeMonitor()
        a = RegionExecutor(table, monitor=monitor)
        b = RegionExecutor(table, FastestPolicy(), monitor=monitor)
        for change in (
            lambda: monitor.history.extend(self._records(rng, 90)),
            lambda: setattr(monitor, "history", self._records(rng, 70)),
            lambda: monitor.history.__delitem__(slice(30, None)),
            lambda: monitor.history.extend(self._records(rng, 40)),
        ):
            change()
            self._assert_matches(a, 2)
            self._assert_matches(b, 2)

    @pytest.mark.parametrize("min_samples", [1, 3, 5])
    def test_executors_sharing_a_monitor(self, min_samples):
        """Three executors with different policies over one source table
        and one monitor, recalibrating back to back: each table equals the
        oracle's."""
        rng = np.random.default_rng([min_samples, 30])
        table = self._table("mm", rng, n=8)
        monitor = RuntimeMonitor()
        executors = [
            RegionExecutor(table, policy, monitor=monitor)
            for policy in (WeightedSumPolicy(), ThreadCapPolicy(), BanditSelector())
        ]
        for _ in range(10):
            for rec in self._records(rng, int(rng.integers(0, 25)), n_versions=8):
                monitor.record("mm", *rec[1:5])
            for ex in executors:
                self._assert_matches(ex, min_samples)
        assert executors[0].table is not table

    def test_different_source_tables(self):
        """Executors of one region whose source tables differ (energy
        metadata included) each scale by their own times: same history
        state, different new tables, each equal to the oracle's."""
        rng = np.random.default_rng(31)
        first = self._table("mm", rng)
        second = self._table("mm", rng)
        monitor = RuntimeMonitor()
        a = RegionExecutor(first, monitor=monitor)
        b = RegionExecutor(second, monitor=monitor)
        for wall in (0.3, 0.1, 0.2, 0.2):
            for v in range(6):
                monitor.record("mm", v, 2, 0.1, wall * (v + 1))
        self._assert_matches(a, 3)
        self._assert_matches(b, 3)
        assert _hexed(a.table) != _hexed(b.table)
        assert any(v.meta.energy is not None for v in a.table.versions)

    @pytest.mark.parametrize("n", [2, 3, 6, 7])
    def test_even_and_odd_counts_with_duplicates(self, n):
        rng = np.random.default_rng([n, 32])
        monitor = RuntimeMonitor()
        ex = RegionExecutor(self._table("mm", rng), monitor=monitor)
        for v in range(6):
            for wall in rng.choice((0.125, 0.25, 0.1, 0.3), n):
                monitor.record("mm", v, 2, 0.1, float(wall))
        self._assert_matches(ex, n)

    def test_concurrent_recording(self):
        """Writers record while recalibrate() runs, with thread switches
        forced often: every intermediate call succeeds, and once the
        writers stop, the index holds exactly the complete history."""
        import sys
        import threading

        rng = np.random.default_rng(4)
        monitor = RuntimeMonitor()
        executors = [
            RegionExecutor(self._table(r, rng), monitor=monitor)
            for r in self.REGIONS
        ]
        per_thread = 400
        errors = []

        def writer(tid):
            wrng = np.random.default_rng([tid, 5])
            for rec in self._records(wrng, per_thread):
                monitor.record(*rec[:5])

        def recalibrator():
            try:
                for i in range(60):
                    executors[i % 3].recalibrate(min_samples=2)
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(t,)) for t in range(4)]
        threads.append(threading.Thread(target=recalibrator))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert monitor.invocations == 4 * per_thread
        indexed = sum(
            count
            for region in self.REGIONS
            for count, _ in monitor.wall_medians(region).values()
        )
        assert indexed == 4 * per_thread
        twin = RegionExecutor(executors[0].table, monitor=monitor)
        for ex in executors:
            self._assert_matches(ex, 2)
        self._assert_matches(twin, 2)

    @pytest.mark.parametrize("min_samples", [0, -1])
    def test_min_samples_below_one_rejected(self, table, min_samples):
        """A version that never ran has no median: min_samples < 1 is
        rejected before any sample is read."""
        ex = RegionExecutor(table)
        ex.monitor.record("mm", 0, 40, 0.05, 0.06)
        with pytest.raises(ValueError, match="min_samples"):
            ex.recalibrate(min_samples=min_samples)
        assert ex.table is table


class TestExecutionRecord:
    def test_fields_construction_immutability_and_repr(self):
        fields = ("region", "version_index", "threads", "predicted_time",
                  "wall_time", "timestamp")
        assert ExecutionRecord._fields == fields
        pos = ExecutionRecord("mm", 1, 4, 0.1, 0.2, 3.0)
        kw = ExecutionRecord(region="mm", version_index=1, threads=4,
                             predicted_time=0.1, wall_time=0.2, timestamp=3.0)
        assert pos == kw and hash(pos) == hash(kw)
        assert pos.wall_time == 0.2
        with pytest.raises(AttributeError):
            pos.wall_time = 1.0
        assert repr(pos) == (
            "ExecutionRecord(region='mm', version_index=1, threads=4, "
            "predicted_time=0.1, wall_time=0.2, timestamp=3.0)"
        )


class TestSelectionEvents:
    def test_select_emits_decision_event(self, table):
        from repro.obs import FakeClock, Observability

        obs = Observability.tracing(clock=FakeClock(tick=0.1))
        ex = RegionExecutor(table, policy=FastestPolicy(), obs=obs)
        ex.monitor.set_available_cores(16)
        v = ex.select()
        (event,) = obs.tracer.records()
        assert event["name"] == "runtime.selection"
        attrs = event["attrs"]
        assert attrs["region"] == "mm"
        assert attrs["policy"] == FastestPolicy().describe()
        assert attrs["context"] == {"available_cores": 16}
        assert attrs["version"] == v.meta.index
        assert attrs["predicted_time"] == v.meta.time
        assert attrs["actual_time"] is None
        assert obs.metrics.as_dict()["repro_runtime_selections_total"] == 1

    def test_execute_emits_actual_time(self, rng):
        from repro.obs import FakeClock, Observability

        helper = TestRegionExecutor()
        k, table = helper._executable_table()
        obs = Observability.tracing(clock=FakeClock(tick=0.1))
        monitor = RuntimeMonitor(clock=FakeClock(tick=0.5))
        ex = RegionExecutor(table, monitor=monitor, obs=obs)
        arrs = {n: v.copy() for n, v in k.make_inputs(k.test_size, rng).items()}
        ex.execute(arrs, k.test_size)
        (event,) = obs.tracer.records()
        assert event["attrs"]["actual_time"] == 0.5
        m = obs.metrics.as_dict()
        assert m["repro_runtime_executions_total"] == 1
        assert m["repro_runtime_wall_seconds"]["count"] == 1


class TestWeightedSumDegenerate:
    """Zero-span normalization: tables where an objective carries no signal
    must select cleanly (no division by zero, no NaN scores)."""

    def test_single_version_table(self):
        t = VersionTable("x", (Version(meta=meta(0, 0.5, 2)),))
        assert WeightedSumPolicy().select(t).meta.index == 0
        assert WeightedSumPolicy(1.0, 0.0).select(t).meta.index == 0

    def test_all_equal_table(self):
        metas = [meta(i, 0.5, 2, resources=1.0) for i in range(4)]
        t = VersionTable("x", tuple(Version(meta=m) for m in metas))
        # every score is exactly 0.0 — the first version wins the tie
        assert WeightedSumPolicy().select(t).meta.index == 0

    def test_one_degenerate_objective(self):
        # equal times, distinct resources: only the resource term decides
        metas = [meta(0, 0.5, 4), meta(1, 0.5, 2), meta(2, 0.5, 1)]
        t = VersionTable("x", tuple(Version(meta=m) for m in metas))
        assert WeightedSumPolicy(0.9, 0.1).select(t).meta.index == 2

    def test_compiled_agrees_on_degenerate_tables(self):
        from repro.runtime import compile_policy

        for metas in (
            [meta(0, 0.5, 2)],
            [meta(i, 0.5, 2, resources=1.0) for i in range(4)],
            [meta(0, 0.5, 4), meta(1, 0.5, 2), meta(2, 0.5, 1)],
        ):
            t = VersionTable("x", tuple(Version(meta=m) for m in metas))
            for policy in (WeightedSumPolicy(), WeightedSumPolicy(0.9, 0.1)):
                assert compile_policy(policy, t).select({}) is policy.select(t)


class TestVersionTableCaches:
    def test_columns_cached_and_read_only(self, table):
        cols = table.columns()
        assert table.columns() is cols
        assert not cols.times.flags.writeable
        with pytest.raises(ValueError):
            cols.times[0] = 9.9
        assert list(cols.indices) == [0, 1, 2, 3, 4]

    def test_replacing_versions_invalidates_caches(self, table):
        cols = table.columns()
        table.versions = table.versions[:3]
        assert table.columns() is not cols
        assert len(table.columns().times) == 3


class TestCompiledExecutor:
    def test_compiled_selection_cached_by_identity(self, table):
        ex = RegionExecutor(table, policy=FastestPolicy())
        c = ex.compiled_selection()
        assert c is not None
        assert ex.compiled_selection() is c

    def test_set_policy_invalidates(self, table):
        ex = RegionExecutor(table, policy=FastestPolicy())
        assert ex.select().meta.index == 0
        ex.set_policy(MostEfficientPolicy())
        assert ex.select().meta.index == 4

    def test_compiled_and_oracle_selections_agree(self, table):
        for policy in (
            FastestPolicy(),
            MostEfficientPolicy(),
            WeightedSumPolicy(),
            TimeCapPolicy(0.2),
            ThreadCapPolicy(),
            EfficiencyFloorPolicy(),
        ):
            ex = RegionExecutor(table, policy=policy)
            for cores in (None, 2, 10, 40):
                if cores is not None:
                    ex.monitor.set_available_cores(cores)
                want = policy.select(ex.table, ex.monitor.context())
                assert ex.select() is want, (policy, cores)

    def test_recalibrate_invalidates_compiled_cache(self, table):
        """After recalibrate() builds a new table, the stale compiled
        decision must not survive: observed times flip the fastest
        version."""
        ex = RegionExecutor(table, policy=FastestPolicy())
        assert ex.select().meta.index == 0
        before = ex.compiled_selection()
        # production says v0 is actually slow and v2 is very fast
        for _ in range(3):
            ex.monitor.record("mm", 0, 40, 0.05, 0.9)
            ex.monitor.record("mm", 2, 10, 0.14, 0.01)
        assert ex.recalibrate() == 2
        assert ex.compiled_selection() is not before
        assert ex.select().meta.index == 2


class TestMonitorBatching:
    def test_preseeded_history_counts_in_aggregates(self):
        seed = [
            ExecutionRecord("mm", 0, 2, 0.1, 0.2, 0.0),
            ExecutionRecord("mm", 1, 4, 0.1, 0.3, 1.0),
        ]
        m = RuntimeMonitor(history=list(seed))
        assert m.invocations == 2
        assert m.total_cpu_seconds() == pytest.approx(0.2 * 2 + 0.3 * 4)

    def test_concurrent_ingestion_loses_nothing(self):
        """8 threads recording at once, with thread switches forced often:
        not one record may be lost."""
        import sys
        import threading

        m = RuntimeMonitor()
        per_thread, n_threads = 500, 8

        def run(tid):
            for _ in range(per_thread):
                m.record("mm", tid % 3, 2, 0.1, 0.1)

        threads = [
            threading.Thread(target=run, args=(t,)) for t in range(n_threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(m.records()) == per_thread * n_threads
        assert sum(m.version_counts().values()) == per_thread * n_threads


class TestRecalibrateConcurrent:
    def test_recalibrate_under_concurrent_recording(self, table):
        """recalibrate() snapshots the history while other threads keep
        recording: it must never raise and every record must survive."""
        import threading

        ex = RegionExecutor(table, policy=FastestPolicy())
        stop = threading.Event()
        errors = []

        def writer(tid):
            i = 0
            while not stop.is_set():
                ex.monitor.record("mm", tid % 5, 2, 0.1, 0.1 + 0.01 * tid)
                i += 1
            return i

        def recalibrator():
            try:
                for _ in range(20):
                    ex.recalibrate(min_samples=3)
                    ex.select()
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)
            finally:
                stop.set()

        writers = [threading.Thread(target=writer, args=(t,)) for t in range(4)]
        rec = threading.Thread(target=recalibrator)
        for t in writers:
            t.start()
        rec.start()
        rec.join()
        for t in writers:
            t.join()
        assert errors == []
        assert ex.monitor.invocations == len(ex.monitor.records())


#: every selection-policy shape the registry can produce: the four plain
#: names plus each parameterized family, with and without the optional
#: argument where allowed.  The differential-oracle tests below run each of
#: them — a compiled policy that drifts from its scalar select() fails here.
REGISTRY_POLICIES = [
    "fastest",
    "efficient",
    "balanced",
    "greenest",
    "time_cap:0.1",
    "time_cap:10",
    "thread_cap",
    "thread_cap:2",
    "thread_cap:3",
    "efficiency_floor",
    "efficiency_floor:0.3",
    "energy_cap:1.5",
    "energy_cap:0.001",
]

CONTEXTS = [{}, {"available_cores": 1}, {"available_cores": 3},
            {"available_cores": 8}, {"available_cores": 64}]


def make_table(region="mm"):
    """mm-like Pareto table with a sequential entry, duplicate thread
    counts, and partial energy metadata — every policy family has both a
    feasible and an infeasible regime on it."""
    metas = [
        meta(0, 0.05, 8, energy=2.0),
        meta(1, 0.08, 4, energy=1.0),
        meta(2, 0.09, 4),
        meta(3, 0.14, 2, energy=0.9),
        meta(4, 1.10, 1, energy=3.0),
    ]
    return VersionTable(
        region_name=region, versions=tuple(Version(meta=m) for m in metas)
    )


def degenerate_tables():
    """Edge-case tables the compiled path must agree on too."""
    single = VersionTable("single", (Version(meta=meta(0, 0.5, 2)),))
    equal = VersionTable(
        "equal",
        tuple(Version(meta=meta(i, 0.5, 2, resources=1.0)) for i in range(3)),
    )
    no_seq = VersionTable(
        "noseq", tuple(Version(meta=meta(i, 0.1 * (i + 1), 2)) for i in range(3))
    )
    return [single, equal, no_seq]


class TestCompiledOracle:
    @pytest.mark.parametrize("name", REGISTRY_POLICIES)
    def test_compiled_matches_scalar_for_registry_policy(self, name):
        """The differential oracle: for every registered policy shape, the
        compiled selection must equal the per-call select() on every table
        and context."""
        policy = policy_by_name(name)
        for table in [make_table()] + degenerate_tables():
            compiled = compile_policy(policy, table)
            assert compiled is not None, f"{name} must compile"
            for ctx in CONTEXTS:
                want = policy.select(table, ctx)
                got = compiled.select(ctx)
                assert got is want, (name, table.region_name, ctx)

    def test_bandit_does_not_compile(self):
        assert compile_policy(BanditSelector(), make_table()) is None

    def test_objects_without_compile_do_not_compile(self):
        class Legacy:
            pass

        assert compile_policy(Legacy(), make_table()) is None
