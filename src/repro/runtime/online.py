"""Online version selection: learning from production measurements.

The paper's related work distinguishes offline searching (its own
approach) from "(2) online tuning of program parameters".  Multi-versioning
makes a hybrid natural: the static optimizer ships the Pareto set, and the
runtime *learns which version is actually fastest in production* — the
tuning-time measurements may be stale (different co-runners, input shapes,
frequencies).

:class:`BanditSelector` treats the versions as arms of a stochastic bandit
and minimizes observed time with UCB1 (or ε-greedy) on top of the metadata
prior.  It composes with :class:`~repro.runtime.scheduler.RegionExecutor`
as a policy: exploration happens on real invocations, and the observed
medians can be folded back via ``executor.recalibrate()``.

Statistics live in Python lists (counts / running means / Welford M2 per
arm) guarded by one lock, so executors on many threads can feed
observations without losing a single count.  :meth:`select` copies them
under the lock and scores the arms on Python floats: a table holds 13–16
versions, too few for per-call NumPy temporaries to pay off.  The table's
prior times and scale are cached per versions tuple, beside the alignment
of table positions onto statistic slots.
:meth:`select_scalar` keeps the NumPy per-arm loop in-tree as the
differential oracle — both paths apply the same floating-point operations
in the same order, so their selection sequences are identical.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from repro.runtime.selection import SelectionPolicy
from repro.runtime.version_table import Version, VersionTable
from repro.util.rng import derive_rng

__all__ = ["BanditSelector"]


@dataclass
class BanditSelector(SelectionPolicy):
    """A learning selection policy minimizing observed wall time.

    :param strategy: ``"ucb1"`` (default) or ``"epsilon"`` (ε-greedy).
    :param epsilon: exploration rate for the ε-greedy strategy.
    :param exploration: UCB exploration weight (in units of the observed
        time scale).
    :param prior_weight: how many pseudo-observations the metadata time
        contributes per version (0 ignores the static prediction; negative
        weights are rejected).
    :param seed: randomness for ε-greedy exploration.

    Feed observations with :meth:`observe` (the executor's recorded wall
    time); :meth:`select` then balances exploitation and exploration.
    Thread-safe: concurrent ``observe``/``select`` calls never lose an
    observation and never raise.
    """

    strategy: str = "ucb1"
    epsilon: float = 0.1
    exploration: float = 0.5
    prior_weight: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.strategy not in ("ucb1", "epsilon"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.prior_weight < 0:
            raise ValueError(f"prior_weight must be >= 0, got {self.prior_weight!r}")
        self._rng = derive_rng(self.seed, "bandit")
        self._lock = threading.Lock()
        # per-arm statistics, slot-indexed; _slots maps version index -> slot
        self._slots: dict[int, int] = {}
        self._counts: list[int] = []
        self._means: list[float] = []
        self._m2: list[float] = []
        self._total = 0
        # cached alignment of a table's version order onto slots; the
        # epoch bumps whenever a new arm appears
        self._epoch = 0
        self._aligned: tuple[tuple[Version, ...], int, list[int]] | None = None
        # cached prior times (table order) and UCB scale of a table
        self._priors: tuple[tuple[Version, ...], list[float], float] | None = None

    # ------------------------------------------------------------------

    def _slot_locked(self, version_index: int) -> int:
        slot = self._slots.get(version_index)
        if slot is None:
            slot = len(self._slots)
            self._slots[version_index] = slot
            self._counts.append(0)
            self._means.append(0.0)
            self._m2.append(0.0)
            self._epoch += 1
        return slot

    def observe(self, version_index: int, wall_time: float) -> None:
        """Record one production measurement of a version."""
        if not 0.0 < wall_time < math.inf:
            raise ValueError(
                f"wall_time must be finite and positive, got {wall_time!r}"
            )
        # a NumPy scalar (say float32) would carry its own precision into
        # the statistics; they are float64, as the oracle's arrays are
        wall_time = float(wall_time)
        with self._lock:
            slot = self._slot_locked(version_index)
            self._counts[slot] += 1
            delta = wall_time - self._means[slot]
            self._means[slot] += delta / self._counts[slot]
            self._m2[slot] += delta * (wall_time - self._means[slot])
            self._total += 1

    # -- statistics ------------------------------------------------------

    def mean_time(self, version: Version) -> float:
        """Posterior-mean time: metadata prior blended with observations."""
        with self._lock:
            slot = self._slots.get(version.meta.index)
            n = int(self._counts[slot]) if slot is not None else 0
            s = n * self._means[slot] if slot is not None else 0.0
        w = self.prior_weight
        denom = n + w
        if denom <= 0:
            return version.meta.time
        return (s + w * version.meta.time) / denom

    def observations(self, version_index: int) -> int:
        with self._lock:
            slot = self._slots.get(version_index)
            return int(self._counts[slot]) if slot is not None else 0

    def statistics(self) -> dict[int, tuple[int, float, float]]:
        """``version index -> (count, mean, M2)`` snapshot."""
        with self._lock:
            return {
                idx: (
                    int(self._counts[slot]),
                    float(self._means[slot]),
                    float(self._m2[slot]),
                )
                for idx, slot in self._slots.items()
            }

    # ------------------------------------------------------------------

    def _alignment(self, table: VersionTable) -> list[int]:
        """Slot of each table position (-1 = never observed), cached per
        (versions tuple, arm epoch)."""
        cached = self._aligned
        if (
            cached is not None
            and cached[0] is table.versions
            and cached[1] == self._epoch
        ):
            return cached[2]
        slots = [self._slots.get(v.meta.index, -1) for v in table.versions]
        self._aligned = (table.versions, self._epoch, slots)
        return slots

    def _prior(self, table: VersionTable) -> tuple[list[float], float]:
        """The table's prior times (table order) and UCB scale, cached per
        versions tuple."""
        cached = self._priors
        if cached is not None and cached[0] is table.versions:
            return cached[1], cached[2]
        times = table.columns().times
        scale = times.max() - times.min()
        scale = float(scale or times.max() or 1.0)
        prior = times.tolist()
        self._priors = (table.versions, prior, scale)
        return prior, scale

    def _snapshot(self, table: VersionTable) -> tuple[np.ndarray, np.ndarray, int]:
        """(counts, sums) aligned to table order plus the grand total,
        captured atomically."""
        with self._lock:
            slots = np.array(self._alignment(table), dtype=np.int64)
            if not self._counts:
                zeros = np.zeros(len(slots), dtype=np.int64)
                return zeros, np.zeros(len(slots)), self._total
            observed = slots >= 0
            safe = np.where(observed, slots, 0)
            counts = np.where(observed, np.array(self._counts, dtype=np.int64)[safe], 0)
            sums = np.where(observed, counts * np.array(self._means)[safe], 0.0)
            return counts, sums, self._total

    def select(self, table: VersionTable, context: dict | None = None) -> Version:
        if self.strategy == "epsilon":
            if self._rng.random() < self.epsilon:
                versions = list(table)
                return versions[int(self._rng.integers(len(versions)))]
            counts, sums, _ = self._snapshot(table)
            w = self.prior_weight
            means = (sums + w * table.columns().times) / (counts + w)
            return table.versions[int(np.argmin(means))]
        prior, scale = self._prior(table)
        with self._lock:
            slots = self._alignment(table)
            counts = self._counts[:]
            means = self._means[:]
            total = self._total
        w = self.prior_weight
        weight = self.exploration * scale
        # np.log, not math.log: the two differ in the last bit for some
        # arguments, and select_scalar takes NumPy's
        log_term = 2 * float(np.log(float(max(1, total) + 1)))
        best, best_pos = None, 0
        for pos, slot in enumerate(slots):
            if slot >= 0:
                count = counts[slot]
                n, s = count + w, count * means[slot]
            elif w:
                n, s = w, 0.0
            else:
                # a never-observed arm without a prior scores NaN, which
                # the first-minimum rule (np.argmin) picks
                return table.versions[pos]
            score = (s + w * prior[pos]) / n - weight * math.sqrt(log_term / n)
            if best is None or score < best:
                best, best_pos = score, pos
        return table.versions[best_pos]

    def select_scalar(self, table: VersionTable, context: dict | None = None) -> Version:
        """Per-arm scoring loop on NumPy scalars — the differential oracle
        for :meth:`select`.  Reads the same statistics through the same
        floating-point operations, one arm at a time; the chosen version is
        always identical to :meth:`select`'s."""
        if self.strategy == "epsilon":
            return self.select(table, context)
        cols = table.columns()
        prior = cols.times
        scale = prior.max() - prior.min()
        scale = scale or prior.max() or 1.0
        counts, sums, total = self._snapshot(table)
        w = self.prior_weight
        best, best_pos = None, 0
        for pos in range(len(table.versions)):
            n = counts[pos] + w
            if not n:
                return table.versions[pos]  # NaN score, as in select()
            mean = (sums[pos] + w * prior[pos]) / n
            bonus = self.exploration * scale * np.sqrt(
                2 * np.log(max(1, total) + 1) / n
            )
            score = mean - bonus
            if best is None or score < best:
                best, best_pos = score, pos
        return table.versions[best_pos]

    def describe(self) -> str:
        return f"bandit({self.strategy}, n={self._total})"
