"""Tests for the persistent cross-run measurement cache."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.evaluation import (
    EvaluationEngine,
    MeasurementDiskCache,
    SimulatedTarget,
    disk_cache,
)
from repro.evaluation.disk_cache import SCHEMA_VERSION, _batch_line, _Shard
from repro.evaluation.measurements import Measurement
from repro.evaluation.objectives import Objectives
from repro.experiments.setups import make_setup
from repro.machine.model import BARCELONA, WESTMERE


@pytest.fixture(scope="module")
def mm_model():
    return make_setup("mm", WESTMERE).model


def _target(model, tmp_root=None, seed=7, schema=None, **kw):
    cache = None
    if tmp_root is not None:
        cache = (
            MeasurementDiskCache(tmp_root)
            if schema is None
            else MeasurementDiskCache(tmp_root, schema_version=schema)
        )
    return SimulatedTarget(model, seed=seed, disk_cache=cache, **kw)


def as_keys(target, configs):
    """Canonical keys of ``(tile_sizes, threads)`` pairs — the engine's input."""
    return [target.config_key(tiles, threads) for tiles, threads in configs]


def measure(target, tiles, threads):
    """One configuration through the evaluation engine (a B = 1 batch)."""
    key = target.config_key(tiles, threads)
    return EvaluationEngine(target).evaluate_batch([key]).objectives[0]


def _configs(target, n=60, seed=1):
    rng = np.random.default_rng(seed)
    return [
        (
            {v: int(rng.integers(1, 300)) for v in target.band},
            int(rng.choice([1, 2, 4, 8])),
        )
        for _ in range(n)
    ]


class TestRoundTrip:
    def test_two_fresh_targets_share_measurements(self, mm_model, tmp_path):
        """The acceptance scenario: a second fresh target (a new 'process
        run') serves every configuration from disk, bit-identically, with
        zero model evaluations dispatched and E unchanged."""
        configs = _configs(_target(mm_model))

        cold = _target(mm_model, tmp_path)
        e_cold = EvaluationEngine(cold, max_workers=4)
        r_cold = e_cold.evaluate_batch(as_keys(e_cold.target, configs))
        assert e_cold.stats.disk_hits == 0
        assert e_cold.stats.dispatched > 0

        warm = _target(mm_model, tmp_path)
        e_warm = EvaluationEngine(warm, max_workers=4)
        r_warm = e_warm.evaluate_batch(as_keys(e_warm.target, configs))
        assert r_warm.objectives == r_cold.objectives
        assert e_warm.stats.dispatched == 0
        assert e_warm.stats.disk_hits == e_cold.stats.dispatched
        # E is identical cold vs warm — disk hits still count as
        # evaluations the optimizer asked for
        assert warm.evaluations == cold.evaluations
        s = e_warm.stats
        assert s.configs == s.dispatched + s.cache_hits + s.deduped + s.disk_hits

    @pytest.mark.parametrize("energy", [False, True], ids=["time", "energy"])
    def test_computed_and_disk_served_results_carry_the_same_types(
        self, mm_model, tmp_path, energy
    ):
        """A computed result and its disk-served copy compare equal and hold
        Python scalars: float times, samples and energy, int threads."""
        configs = _configs(_target(mm_model), n=12)
        runs = []
        for _ in ("cold", "warm"):
            target = _target(mm_model, tmp_path, measure_energy=energy)
            result = EvaluationEngine(target).evaluate_batch(as_keys(target, configs))
            runs.append((result.objectives, [target.measurement(*c) for c in configs]))
        (cold_objs, cold_meas), (warm_objs, warm_meas) = runs
        assert warm_objs == cold_objs and warm_meas == cold_meas
        for obj, meas in zip(cold_objs + warm_objs, cold_meas + warm_meas):
            assert type(obj.time) is float and type(obj.threads) is int
            assert type(obj.energy) is (float if energy else type(None))
            assert type(meas.value) is float
            assert {type(s) for s in meas.samples} == {float}

    def test_matches_uncached_target_exactly(self, mm_model, tmp_path):
        configs = _configs(_target(mm_model))
        plain = _target(mm_model)
        ref = EvaluationEngine(plain).evaluate_batch(as_keys(plain, configs))

        cold = _target(mm_model, tmp_path)
        EvaluationEngine(cold).evaluate_batch(as_keys(cold, configs))
        warm = _target(mm_model, tmp_path)
        got = EvaluationEngine(warm, max_workers=2).evaluate_batch(
            as_keys(warm, configs)
        )
        assert got.objectives == ref.objectives

    def test_single_configuration_uses_disk(self, mm_model, tmp_path):
        t1 = _target(mm_model, tmp_path)
        obj1 = measure(t1, {"i": 64, "j": 64, "k": 8}, 4)
        t2 = _target(mm_model, tmp_path)
        obj2 = measure(t2, {"i": 64, "j": 64, "k": 8}, 4)
        assert obj1 == obj2
        assert t2.disk_cache.hits == 1
        assert t2.evaluations == 1

    def test_samples_round_trip_exactly(self, mm_model, tmp_path):
        t1 = _target(mm_model, tmp_path)
        measure(t1, {"i": 50, "j": 50, "k": 50}, 8)
        m1 = t1.measurement({"i": 50, "j": 50, "k": 50}, 8)
        t2 = _target(mm_model, tmp_path)
        measure(t2, {"i": 50, "j": 50, "k": 50}, 8)
        m2 = t2.measurement({"i": 50, "j": 50, "k": 50}, 8)
        assert t2.disk_cache.hits == 1
        assert m1 == m2  # value and every sample, bit-identical


class TestKeying:
    def test_schema_version_invalidates(self, mm_model, tmp_path):
        configs = _configs(_target(mm_model), n=20)
        cold = _target(mm_model, tmp_path)
        EvaluationEngine(cold).evaluate_batch(as_keys(cold, configs))
        bumped = _target(mm_model, tmp_path, schema=SCHEMA_VERSION + 1)
        e = EvaluationEngine(bumped)
        e.evaluate_batch(as_keys(e.target, configs))
        assert e.stats.disk_hits == 0
        assert e.stats.dispatched == len(
            {bumped.config_key(t, thr) for t, thr in configs}
        )

    def test_shard_header_records_the_cache_schema(self, mm_model, tmp_path):
        import json

        target = _target(mm_model, tmp_path, schema=SCHEMA_VERSION + 1)
        measure(target, {"i": 32, "j": 32, "k": 32}, 4)
        (shard,) = tmp_path.glob("*.jsonl")
        header = json.loads(shard.read_text().splitlines()[0])
        assert header["schema"] == SCHEMA_VERSION + 1

    def test_seed_separates_shards(self, mm_model, tmp_path):
        t1 = _target(mm_model, tmp_path, seed=7)
        measure(t1, {"i": 32, "j": 32, "k": 32}, 4)
        t2 = _target(mm_model, tmp_path, seed=8)
        measure(t2, {"i": 32, "j": 32, "k": 32}, 4)
        assert t2.disk_cache.hits == 0  # different noise seed, new shard

    def test_noise_and_energy_separate_shards(self, mm_model, tmp_path):
        base = _target(mm_model, tmp_path)
        measure(base, {"i": 32, "j": 32, "k": 32}, 4)
        for kw in ({"noise": 0.05}, {"measure_energy": True}):
            other = _target(mm_model, tmp_path, **kw)
            measure(other, {"i": 32, "j": 32, "k": 32}, 4)
            assert other.disk_cache.hits == 0, kw

    def test_machine_separates_fingerprints(self, mm_model):
        other = make_setup("mm", BARCELONA).model
        assert mm_model.fingerprint() != other.fingerprint()

    def test_model_fingerprint_is_stable(self, mm_model):
        # rebuilt model of the same setup → same fingerprint (this is what
        # lets a second process find the first one's shard)
        rebuilt = make_setup("mm", WESTMERE).model
        assert mm_model.fingerprint() == rebuilt.fingerprint()

    def test_target_fingerprint_depends_on_inputs(self, mm_model):
        base = SimulatedTarget(mm_model, seed=7)
        assert base.fingerprint() == SimulatedTarget(mm_model, seed=7).fingerprint()
        assert base.fingerprint() != SimulatedTarget(mm_model, seed=8).fingerprint()
        assert (
            base.fingerprint()
            != SimulatedTarget(mm_model, seed=7, noise=0.1).fingerprint()
        )


class TestRobustness:
    def test_corrupt_lines_are_skipped(self, mm_model, tmp_path):
        t1 = _target(mm_model, tmp_path)
        measure(t1, {"i": 32, "j": 32, "k": 32}, 4)
        measure(t1, {"i": 64, "j": 64, "k": 64}, 8)
        (shard_path,) = list(tmp_path.glob("*.jsonl"))
        with open(shard_path, "a", encoding="utf-8") as fh:
            fh.write("{truncated\n")
            fh.write('{"k": "not-a-list", "v": 1.0, "s": []}\n')
        t2 = _target(mm_model, tmp_path)
        assert measure(t2, {"i": 32, "j": 32, "k": 32}, 4) == t1.lookup(
            t1.config_key({"i": 32, "j": 32, "k": 32}, 4)
        )
        assert t2.disk_cache.hits == 1

    def test_record_after_torn_tail_survives(self, mm_model, tmp_path):
        """A writer that died mid-record leaves a final line with no
        newline; the next store must start a fresh line instead of being
        glued onto the torn one (and lost with it on reload)."""
        t = _target(mm_model)
        fp = t.fingerprint()

        def item(threads):
            """(key, row) to store, and the (Objectives, Measurement) served."""
            tiles = {"i": 32, "j": 32, "k": 32}
            key = t.config_key(tiles, threads)
            obj, meas = measure(t, tiles, threads), t.measurement(tiles, threads)
            return (key, t.lookup_rows([key])[key]), (obj, meas)

        (first, first_served), (second, second_served) = item(4), item(8)
        MeasurementDiskCache(tmp_path).store_many(fp, [first])
        (shard_path,) = list(tmp_path.glob("*.jsonl"))
        with open(shard_path, "a", encoding="utf-8") as fh:
            fh.write('{"n": 1, "k": "0100')  # torn: no closing brace, no newline

        assert MeasurementDiskCache(tmp_path).store_many(fp, [second]) == 1
        fresh = MeasurementDiskCache(tmp_path)
        assert fresh.fetch(fp, first[0]) == first_served
        assert fresh.fetch(fp, second[0]) == second_served

    def test_missing_directory_is_fine(self, mm_model, tmp_path):
        t = _target(mm_model, tmp_path / "does" / "not" / "exist" / "yet")
        measure(t, {"i": 32, "j": 32, "k": 32}, 4)
        assert t.disk_cache.stores == 1

    def test_store_is_idempotent(self, mm_model, tmp_path):
        cache = MeasurementDiskCache(tmp_path)
        t = SimulatedTarget(mm_model, seed=7, disk_cache=cache)
        measure(t, {"i": 32, "j": 32, "k": 32}, 4)
        key = t.config_key({"i": 32, "j": 32, "k": 32}, 4)
        item = (key, t.lookup_rows([key])[key])
        assert t.disk_store_many([item]) == 0  # already present

    def test_energy_round_trips(self, mm_model, tmp_path):
        t1 = _target(mm_model, tmp_path, measure_energy=True)
        obj1 = measure(t1, {"i": 48, "j": 48, "k": 48}, 8)
        assert obj1.energy is not None
        t2 = _target(mm_model, tmp_path, measure_energy=True)
        obj2 = measure(t2, {"i": 48, "j": 48, "k": 48}, 8)
        assert obj2 == obj1 and obj2.energy == obj1.energy


class TestConcurrency:
    def test_counters_do_not_lose_updates(self, mm_model, tmp_path):
        """8 threads × 500 fetches: every fetch is counted exactly once."""
        import sys
        import threading

        target = _target(mm_model, tmp_path)
        measure(target, {"i": 32, "j": 32, "k": 32}, 4)  # one stored key
        cache, fp = target.disk_cache, target.fingerprint()
        hit_key = target.config_key({"i": 32, "j": 32, "k": 32}, 4)
        cache.hits = cache.misses = 0
        start = threading.Barrier(8, timeout=30)

        def worker(w):
            start.wait()
            for i in range(500):
                cache.fetch(fp, hit_key if i % 2 else (w, i, 1, 1))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            threads = [threading.Thread(target=worker, args=(w,)) for w in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert cache.hits + cache.misses == 4000
        assert cache.hits == 2000


def _record(writer: int, i: int):
    """A synthetic stored measurement ``(key, row)``; 64 samples make each
    line long."""
    samples = [writer * 1000.0 + i + r / 8 for r in range(64)]
    return (writer, i, 1, 1), (samples[0], samples, None)


def _served(writer: int, i: int):
    """The (Objectives, Measurement) ``fetch_many`` serves for ``_record``."""
    _, (value, samples, _) = _record(writer, i)
    return Objectives(time=value, threads=1), Measurement(value=value, samples=tuple(samples))


def _append_records(root, fp, writer, n, per_call, start=None):
    """Process body: append *n* records to *fp*'s shard, *per_call* at a
    time, after every writer has reached *start*."""
    cache = MeasurementDiskCache(root)
    if start is not None:
        start.wait()
    for first in range(0, n, per_call):
        cache.store_many(
            fp, [_record(writer, i) for i in range(first, first + per_call)]
        )


class TestProcesses:
    """Several processes sharing one shard file."""

    FP = "shared-target"

    @staticmethod
    def _run(ctx, *jobs):
        procs = [ctx.Process(target=_append_records, args=job) for job in jobs]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
        assert [p.exitcode for p in procs] == [0] * len(procs)

    def test_two_writers_lose_and_glue_nothing(self, tmp_path):
        import json
        import multiprocessing

        ctx = multiprocessing.get_context("spawn")
        start = ctx.Barrier(2, timeout=120)
        batches, per_call = 50, 4
        n = batches * per_call
        self._run(
            ctx,
            (tmp_path, self.FP, 1, n, per_call, start),
            (tmp_path, self.FP, 2, n, per_call, start),
        )
        (shard_path,) = tmp_path.glob("*.jsonl")
        lines = shard_path.read_text().splitlines()
        records = [json.loads(line) for line in lines]  # nothing glued
        assert sum("schema" in r for r in records) == 1
        assert records[0]["fingerprint"]
        # one line per put_many: the header plus every batch of both writers
        assert len(lines) == 1 + 2 * batches
        assert [r["n"] for r in records[1:]] == [per_call] * (2 * batches)
        fresh = MeasurementDiskCache(tmp_path)
        keys = [(w, i, 1, 1) for w in (1, 2) for i in range(n)]
        hits = fresh.fetch_many(self.FP, keys)
        assert hits == {(w, i, 1, 1): _served(w, i) for w in (1, 2) for i in range(n)}

    def test_reader_sees_a_foreign_append_without_reopening(self, tmp_path):
        import multiprocessing

        ctx = multiprocessing.get_context("spawn")
        reader = MeasurementDiskCache(tmp_path)
        own = [_record(0, i) for i in range(3)]
        assert reader.store_many(self.FP, own) == 3
        foreign = [(9, i, 1, 1) for i in range(10)]
        assert reader.fetch_many(self.FP, foreign) == {}

        self._run(ctx, (tmp_path, self.FP, 9, 10, 5))
        hits = reader.fetch_many(self.FP, foreign + [key for key, *_ in own])
        assert len(hits) == 13
        assert hits[(9, 4, 1, 1)] == _served(9, 4)
        assert reader.hits == 13 and reader.misses == 10
        # the foreign records also count as present for the next append
        assert reader.store_many(self.FP, [_record(9, 0), _record(0, 5)]) == 1


class TestShardFormat:
    """The shard appends one JSON line per committed batch, its columns the
    hex of little-endian int64 keys and float64 times, samples and
    energies: floats round-trip bit for bit, each ``put_many`` is one
    line, and a damaged line loses only its own batch."""

    FP = "format-target"

    @staticmethod
    def _items(n=300, seed=1, energy=False):
        """Random (key, row) records, energy None or float throughout."""
        rng = np.random.default_rng(seed)
        items = []
        for _ in range(n):
            key = tuple(int(x) for x in rng.integers(1, 5000, 3)) + (int(rng.integers(1, 80)),)
            samples = np.exp(rng.normal(-6, 6, 5)).tolist()
            e = float(np.exp(rng.normal(0, 8))) if energy else None
            items.append((key, (sorted(samples)[2], samples, e)))
        return items

    @staticmethod
    def _bits(rows):
        """Every float of *rows* as its bytes, None kept as None."""
        return [
            (np.float64(t).tobytes(), np.array(s).tobytes(), e if e is None else np.float64(e).tobytes())
            for t, s, e in rows
        ]

    def test_floats_round_trip_bit_exactly(self, tmp_path):
        inf, nan = float("inf"), float("nan")
        plain = [
            ((1, 2, 3, 4), (5e-324, [5e-324, 1e308, -0.0], None)),
            ((5, 6, 7, 8), (1e308, [inf, -inf, nan], None)),
        ]
        with_energy = [
            ((9, 10, 11, 12), (0.1, [0.1, 0.2, 0.3], 1e308)),
            ((13, 14, 15, 16), (nan, [nan, 5e-324, inf], 5e-324)),
            ((17, 18, 19, 2**62), (-inf, [1e-300, 2.5, 1e16], nan)),
        ]
        for batch in (plain, with_energy):
            assert MeasurementDiskCache(tmp_path).store_many(self.FP, batch) == len(batch)
        fresh = MeasurementDiskCache(tmp_path)
        for batch in (plain, with_energy):
            keys = [key for key, _ in batch]
            got = fresh.fetch_rows(self.FP, keys)
            assert list(got) == keys
            assert self._bits(got.values()) == self._bits(row for _, row in batch)
            for time, samples, energy in got.values():
                assert type(time) is float and {type(x) for x in samples} == {float}
                assert energy is None if batch is plain else type(energy) is float

    def test_each_put_many_appends_one_batch_line(self, tmp_path):
        batches = [self._items(28, seed=s, energy=s % 2 == 1) for s in range(5)]
        cache = MeasurementDiskCache(tmp_path)
        for batch in batches:
            assert cache.store_many(self.FP, batch) == len(batch)
        (path,) = tmp_path.glob("*.jsonl")
        header, *lines = path.read_bytes().split(b"\n")[:-1]
        assert json.loads(header) == {
            "schema": SCHEMA_VERSION, "fingerprint": cache.shard_for(self.FP).fingerprint
        }
        assert len(lines) == len(batches)
        for line, batch in zip(lines, batches):
            d = json.loads(line)
            assert set(d) == {"n", "k", "v", "s", "e"} and d["n"] == len(batch)
            keys, rows = zip(*batch)
            assert bytes.fromhex(d["k"]) == np.array(keys, dtype="<i8").tobytes()
            assert bytes.fromhex(d["v"]) == np.array([r[0] for r in rows], dtype="<f8").tobytes()
            assert (d["e"] is None) == (rows[0][2] is None)
        # a batch of keys already stored appends nothing
        assert cache.store_many(self.FP, batches[0]) == 0
        assert len(path.read_bytes().split(b"\n")) == len(batches) + 2

    def test_a_batch_it_cannot_encode_raises_and_writes_nothing(self, tmp_path):
        cache = MeasurementDiskCache(tmp_path)
        cache.store_many(self.FP, self._items(3))
        (path,) = tmp_path.glob("*.jsonl")
        before = path.read_bytes()
        row = (1.0, [1.0], None)
        with pytest.raises(OverflowError):
            cache.store_many(self.FP, [((1, 2**63), row)])
        with pytest.raises(ValueError):
            cache.store_many(self.FP, [((1, 1), row), ((1, 2), (1.0, [1.0], 2.0))])
        with pytest.raises(ValueError):
            cache.store_many(self.FP, [((1, 1), row), ((1, 2), (1.0, [1.0, 2.0], None))])
        assert path.read_bytes() == before
        assert len(MeasurementDiskCache(tmp_path).shard_for(self.FP)) == 3

    def test_lines_equal_json_dumps(self):
        """The frozen per-record formatter, the perf gate's baseline, writes
        ``json.dumps``' bytes."""
        from tests.measurement_oracle import record_line

        def dumps(key, row):
            return json.dumps({"k": list(key), "v": row[0], "s": list(row[1]), "e": row[2]})

        items = self._items() + self._items(20, energy=True) + [
            ((1, 2, 3, 4), (5e-324, [5e-324, 1e308, 1e-07], None)),
            ((1, 2), (float("inf"), [float("nan"), -float("inf")], None)),
            ((3, 4), (1.5, [1, 2.0], 7)),
            ((5, 6), (np.float64(0.1), [np.float64(0.2)], np.float64(0.3))),
        ]
        for key, row in items:
            assert record_line(key, row) == dumps(key, row)

    def test_directory_is_made_once(self, tmp_path, monkeypatch):
        import pathlib

        made = []
        mkdir = pathlib.Path.mkdir

        def counting(self, *args, **kwargs):
            made.append(self)
            return mkdir(self, *args, **kwargs)

        monkeypatch.setattr(pathlib.Path, "mkdir", counting)
        cache = MeasurementDiskCache(tmp_path / "sub")
        items = self._items(30)
        for start in range(0, 30, 10):
            cache.store_many(self.FP, items[start : start + 10])
        assert made == [tmp_path / "sub"]

    # -- load: damaged lines lose only their own batch ----------------------

    def _shard(self, tmp_path, lines, tail=b""):
        """A shard file of *lines* (bytes, each newline-terminated) and an
        unterminated *tail*; returns (path, fingerprint)."""
        fp = "shard-fingerprint"
        header = json.dumps({"schema": SCHEMA_VERSION, "fingerprint": fp}).encode()
        path = tmp_path / "shard.jsonl"
        path.write_bytes(b"".join(line + b"\n" for line in [header, *lines]) + tail)
        return path, fp

    @staticmethod
    def _load(path, fp):
        shard = _Shard(path, fp, SCHEMA_VERSION)
        len(shard)  # parses the file
        return shard._records

    def _damaged(self):
        """name → (lines, tail, the batches a load must keep)."""
        batches = [self._items(5, seed=s, energy=s % 2 == 1) for s in range(8)]
        good = [_batch_line(batch).encode() for batch in batches]
        extra = json.loads(_batch_line(self._items(3, seed=99, energy=True)))

        def bad(**fields):
            return json.dumps({**extra, **fields}).encode()

        foreign = json.dumps({"schema": SCHEMA_VERSION, "fingerprint": "other"}).encode()
        inserted = {
            "clean": [],
            "corrupt middle line": [b'{"n": 2, "k": "0100'],
            "non-dict line": [b"[1, 2]", b'"text"', b"null"],
            "empty line": [b""],
            "not utf-8": [b"\xff\xfe not utf-8"],
            "bad hex": [bad(k="zz" * 24), bad(s=extra["s"][:-1]), bad(e=17)],
            "wrong byte count": [
                bad(k=extra["k"][:-16]),
                bad(v=extra["v"] + "00" * 8),
                bad(s=extra["s"][:-8]),
                bad(e=extra["e"][:-16]),
                bad(k=""),
            ],
            "mismatched n": [bad(n=n) for n in (2, 4, 0, -1, 3.0, "3", None, True, 10**30)],
            "bad fields": [
                bad(k=[1, 2, 3, 4]),
                json.dumps({k: v for k, v in extra.items() if k != "e"}).encode(),
                json.dumps({k: v for k, v in extra.items() if k != "n"}).encode(),
            ],
        }
        cases = {
            name: (good[:4] + lines + good[4:], b"", batches)
            for name, lines in inserted.items()
        }
        keep = batches[:4] + batches[6:]
        cases["two batches glued"] = (good[:4] + [good[4] + good[5]] + good[6:], b"", keep)
        cases["two values on one line"] = (
            good[:4] + [good[4] + b", " + good[5]] + good[6:], b"", keep
        )
        cases["foreign header"] = (good[:4] + [foreign] + good[4:], b"", [])
        cases["torn tail"] = (good, b'{"n": 1, "k": "07000000', batches)
        return cases

    def test_damaged_lines_lose_only_their_own_batch(self, tmp_path):
        for name, (lines, tail, kept) in self._damaged().items():
            path, fp = self._shard(tmp_path, lines, tail)
            want = {key: (row[0], list(row[1]), row[2]) for batch in kept for key, row in batch}
            assert self._load(path, fp) == want, name

    def test_append_after_damage_survives(self, tmp_path):
        """A shard whose tail is torn takes the next batch on a line of its
        own, and a fresh load sees every intact batch."""
        cases = self._damaged()
        lines, tail, kept = cases["torn tail"]
        path, fp = self._shard(tmp_path, lines, tail)
        shard = _Shard(path, fp, SCHEMA_VERSION)
        late = self._items(4, seed=50)
        assert shard.put_many(late) == 4
        want = {key: (row[0], list(row[1]), row[2]) for batch in [*kept, late] for key, row in batch}
        assert self._load(path, fp) == want

    def test_bulk_parse_falls_back_only_on_damage(self, tmp_path, monkeypatch):
        """A clean tail is one ``json.loads``; a damaged one is parsed line
        by line."""
        calls = []
        parse_line = disk_cache._parse_line
        monkeypatch.setattr(
            disk_cache, "_parse_line", lambda line: calls.append(line) or parse_line(line)
        )
        fall_back = {
            "corrupt middle line", "empty line", "not utf-8",
            "two batches glued", "two values on one line",
        }
        for name, (lines, tail, _) in self._damaged().items():
            calls.clear()
            path, fp = self._shard(tmp_path, lines, tail)
            self._load(path, fp)
            assert bool(calls) == (name in fall_back), name
