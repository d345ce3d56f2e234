"""The simulated target platform: configuration → measured objectives.

Combines the deterministic :class:`~repro.evaluation.cost.RegionCostModel`
with run-to-run noise and the paper's median-of-k protocol (§V-B1).  Noise
is *hash-derived*: each (configuration, repetition) pair maps through a
keyed blake2b hash to a uniform variate, which the inverse normal CDF turns
into a lognormal factor, so a measurement is independent of evaluation
order and of how a batch is split.

:meth:`SimulatedTarget.compute_keys` is the one measurement path: it
measures a batch of canonical keys purely, with one cost-model call, into
plain rows (:data:`~repro.evaluation.measurements.Row`), and the
:class:`~repro.evaluation.parallel_eval.EvaluationEngine` runs it between
its ledger lookup, disk-cache read, commit and disk-cache write, for a
single configuration too.  The target keeps the evaluation ledger, whose
``evaluations`` is the paper's ``E`` (Table VI: "the number of points
evaluated for obtaining a solution set").  All ledger mutation goes through
the locked :meth:`~SimulatedTarget.commit_many`, so concurrent evaluators
never lose or double-count an evaluation.  The read APIs
(:meth:`~SimulatedTarget.lookup`, :meth:`~SimulatedTarget.cached_objectives`,
:meth:`~SimulatedTarget.measurement`) never evaluate, and are the only
places that build :class:`Objectives` and :class:`Measurement` records from
rows.  A :class:`~repro.evaluation.disk_cache.MeasurementDiskCache`, keyed
by the target's :meth:`~SimulatedTarget.fingerprint`, extends the memo
across processes; disk hits commit like any other measurement, so ``E`` is
the same cold or warm.
"""

from __future__ import annotations

import itertools
import threading
import time as _time
from collections.abc import Mapping, Sequence

import numpy as np

from repro.evaluation.cost import RegionCostModel
from repro.evaluation.measurements import Measurement, MeasurementProtocol, Row
from repro.evaluation.measurements import row_measurement, row_objectives
from repro.evaluation.objectives import Objectives
from repro.util.ndtri import ndtri
from repro.util.rng import content_hash, seed_hasher

__all__ = ["SimulatedTarget"]

_U64 = float(1 << 64)


class SimulatedTarget:
    """Evaluates (tile sizes, threads) configurations on a simulated machine.

    :param model: per-region analytical cost model.
    :param seed: base seed of the noise process; same seed → identical
        measurements.
    :param noise: relative measurement jitter (sigma of the lognormal).
    :param protocol: sampling protocol (median of k).
    :param collapsed: worksharing collapse depth forwarded to the model.
    :param disk_cache: optional persistent measurement cache shared
        across process runs (see
        :class:`~repro.evaluation.disk_cache.MeasurementDiskCache`).
    """

    def __init__(
        self,
        model: RegionCostModel,
        seed: int = 0,
        noise: float = 0.015,
        protocol: MeasurementProtocol | None = None,
        collapsed: int | None = None,
        measure_energy: bool = False,
        disk_cache=None,
    ) -> None:
        self.model = model
        self.seed = int(seed)
        self.noise = float(noise)
        self.protocol = protocol or MeasurementProtocol()
        self.collapsed = collapsed
        self.measure_energy = bool(measure_energy)
        self.disk_cache = disk_cache
        self.evaluations = 0
        self._rows: dict[tuple, Row] = {}
        self._fingerprint: str | None = None
        self._lock = threading.Lock()
        self._extent = np.array([model.extent[v] for v in model.band], dtype=np.int64)

    @property
    def machine(self):
        return self.model.machine

    @property
    def band(self) -> tuple[str, ...]:
        return self.model.band

    def keys_of(self, tiles, threads) -> list[tuple]:
        """Canonical keys of a whole batch: the (B, len(band)) *tiles*
        matrix in band order, clipped into [1, extent], then the (B,)
        *threads*, every entry a Python ``int``."""
        clipped = np.clip(np.asarray(tiles, dtype=np.int64), 1, self._extent)
        rows = np.column_stack([clipped, np.asarray(threads, dtype=np.int64)])
        return list(map(tuple, rows.tolist()))

    def config_key(self, tile_sizes: dict[str, int], threads: int) -> tuple:
        """:meth:`keys_of` for one configuration; band loops missing from
        *tile_sizes* run at their full extent."""
        ext = self.model.extent
        return self.keys_of([[tile_sizes.get(v, ext[v]) for v in self.band]], [threads])[0]

    def fingerprint(self) -> str:
        """Content hash of everything that determines a measurement: the
        cost model's fingerprint plus the noise seed/level, protocol,
        collapse depth and energy mode.  Equal fingerprints → bit-identical
        measurements for every canonical key, which is what licenses the
        persistent disk cache to serve them across processes."""
        if self._fingerprint is None:
            self._fingerprint = content_hash(
                "simulated-target",
                self.model.fingerprint(),
                self.seed,
                self.noise,
                self.protocol,
                self.collapsed,
                self.measure_energy,
            )
        return self._fingerprint

    # -- persistent cache --------------------------------------------------

    @property
    def has_disk_cache(self) -> bool:
        return self.disk_cache is not None

    def disk_fetch_many(self, keys: Sequence[tuple]) -> dict[tuple, Row]:
        """``key → row`` for those *keys* the persistent cache holds (one
        shard read for the whole batch)."""
        if self.disk_cache is None or not keys:
            return {}
        return self.disk_cache.fetch_rows(self.fingerprint(), keys)

    def disk_store_many(self, items: list[tuple[tuple, Row]]) -> int:
        """Persist freshly computed ``(key, row)`` measurements; returns
        entries written."""
        if self.disk_cache is None or not items:
            return 0
        return self.disk_cache.store_many(self.fingerprint(), items)

    # -- noise ----------------------------------------------------------

    def _noise_factor_matrix(self, keys: Sequence[tuple], reps: int) -> np.ndarray:
        """(len(keys), reps) lognormal factors ``exp(noise · ndtri(u))`` of
        one batch, elementwise over :meth:`_noise_uniforms` (the per-key,
        per-repetition definition is restated in
        ``tests/test_evaluation.py``)."""
        return np.exp(self.noise * ndtri(self._noise_uniforms(keys, reps)))

    def _noise_uniforms(self, keys: Sequence[tuple], reps: int) -> np.ndarray:
        """(len(keys), reps) matrix of ``(spawn_seed(seed, key, rep) + 0.5) / 2**64``.

        The seed prefix is hashed once and forked per key, then per
        repetition, feeding blake2b the same byte stream as
        :func:`~repro.util.rng.spawn_seed` (each key's
        ``b"\\x00" + repr(key)`` in one update, the repetitions' suffixes
        built once per call).  The digests become uniforms in one array
        operation: uint64 → float64 rounds exactly like Python's
        ``int + 0.5``.
        """
        prefix = seed_hasher(self.seed)
        rep_suffixes = [b"\x00" + repr(rep).encode() for rep in range(reps)]
        digests = []
        for key in keys:
            key_prefix = prefix.copy()
            key_prefix.update(b"\x00" + repr(key).encode())
            for suffix in rep_suffixes:
                h = key_prefix.copy()
                h.update(suffix)
                digests.append(h.digest())
        seeds = np.frombuffer(b"".join(digests), dtype="<u8").reshape(len(keys), reps)
        return (seeds.astype(np.float64) + 0.5) / _U64

    # -- pure computation (no ledger mutation) ----------------------------

    def compute_keys(self, keys: Sequence[tuple]) -> list[Row]:
        """Measure canonical keys **purely** — the ledger is not touched —
        into one row ``(time, samples, energy)`` per key.

        This is the worker half of the engine's dedup → dispatch → commit
        pipeline: because the noise is hash-derived per (key, repetition),
        the result of a key is independent of evaluation order and of how a
        batch is partitioned across workers, so any chunking of *keys* is
        bit-identical to one bulk call (``time_batch`` and ``energy_batch``
        are row-elementwise).  With ``measure_energy`` one ``energy_batch``
        call gives the whole batch's times and energies.
        Callers are responsible for recording results via :meth:`commit_many`.
        """
        if not len(keys):
            return []
        matrix = np.array(keys, dtype=np.int64)
        tiles, threads = matrix[:, :-1], matrix[:, -1]
        if self.measure_energy:
            true_times, true_energies = self.model.energy_batch(
                tiles, threads, collapsed=self.collapsed
            )
        else:
            true_times = self.model.time_batch(tiles, threads, collapsed=self.collapsed)
        reps = self.protocol.repetitions
        overhead = self.protocol.overhead_s
        if overhead > 0:
            # the simulated pipeline latency is per configuration no matter
            # how the batch is chunked
            _time.sleep(overhead * len(keys))
        # one hash-derived factor matrix and one median sweep for the whole
        # chunk; for odd k the middle of the sorted samples is np.median's
        # value bit for bit
        samples = true_times[:, None] * self._noise_factor_matrix(keys, reps)
        if reps % 2:
            medians = np.sort(samples, axis=1)[:, reps // 2]
        else:
            medians = np.median(samples, axis=1)
        energies = itertools.repeat(None)
        if self.measure_energy:
            # energy measurements share the run's jitter: scale the model
            # energy by the same median noise factor as the time
            energies = (true_energies * (medians / true_times)).tolist()
        return list(zip(medians.tolist(), samples.tolist(), energies))

    # -- the single-writer ledger ------------------------------------------

    def lookup(self, key: tuple) -> Objectives | None:
        """Memoized result of a canonical key, or None."""
        row = self.lookup_rows([key]).get(key)
        return None if row is None else row_objectives(key, row)

    def lookup_rows(self, keys: Sequence[tuple]) -> dict[tuple, Row]:
        """The ledger's rows of those *keys* it holds (one lock)."""
        with self._lock:
            rows = self._rows
            return {key: rows[key] for key in keys if key in rows}

    def commit_many(self, rows: Mapping[tuple, Row]) -> int:
        """Record computed measurements in the ledger under one lock;
        returns how many keys were new (and therefore counted towards
        ``E``).  Atomic: a key can never be counted twice, and no increment
        is ever lost."""
        with self._lock:
            ledger = self._rows
            before = len(ledger)
            for key, row in rows.items():
                ledger.setdefault(key, row)
            new = len(ledger) - before
            self.evaluations += new
            return new

    def _evaluated(self, tile_sizes: dict[str, int], threads: int) -> tuple[tuple, Row]:
        """(key, row) of an evaluated configuration; KeyError otherwise."""
        key = self.config_key(tile_sizes, threads)
        row = self.lookup_rows([key]).get(key)
        if row is None:
            raise KeyError(f"configuration {key} has not been evaluated")
        return key, row

    def cached_objectives(self, tile_sizes: dict[str, int], threads: int) -> Objectives:
        """The full Objectives record of an evaluated configuration."""
        return row_objectives(*self._evaluated(tile_sizes, threads))

    # -- introspection ----------------------------------------------------

    def true_time(self, tile_sizes: dict[str, int], threads: int) -> float:
        """Noise-free model time (not counted as an evaluation)."""
        return self.model.time(tile_sizes, threads, collapsed=self.collapsed)

    def measurement(self, tile_sizes: dict[str, int], threads: int) -> Measurement:
        """The raw samples of an evaluated configuration (a ledger read,
        like :meth:`cached_objectives`: it never evaluates)."""
        return row_measurement(self._evaluated(tile_sizes, threads)[1])

    def reset_ledger(self) -> None:
        """Clear the evaluation count and cache (fresh experiment run)."""
        with self._lock:
            self.evaluations = 0
            self._rows.clear()
