"""Runtime monitoring: execution history and (simulated) system state.

The Insieme runtime lets components consult "real-time system monitoring
results for their decision-making processes".  Here the monitor records
which version ran when (and how long it took) and tracks the mutable system
context — currently the number of cores available to the process — which the
context-sensitive policies (e.g. :class:`ThreadCapPolicy`) read.

Time comes from an injectable :class:`~repro.obs.clock.Clock` (the same
protocol the tracer uses), so tests can pin ``ExecutionRecord.timestamp``
with a :class:`~repro.obs.clock.FakeClock` instead of matching against
``time.time()``.

Executors sharing a monitor may record from several threads: one lock
guards the history, :meth:`RuntimeMonitor.record` appends under it, and
every query (:meth:`invocations`, :meth:`version_counts`,
:meth:`total_cpu_seconds`, :meth:`wall_medians`) reads a consistent
snapshot of the complete history.

Recalibration needs one region's median wall time per version.  Rather
than copy and sort samples on every call, the monitor keeps an index of
*sorted* wall times per (region, version index): a read folds in the
records appended since the previous read (so the index also covers a
history passed in at construction or appended to directly, and is rebuilt
when the history list is replaced or cut), inserting each sample in order
with :func:`bisect.insort`.  :meth:`wall_medians` reads ``(count,
median)`` per version off the sorted lists and memoises them until another
record of the region is folded in, so executors sharing a monitor that
recalibrate one after another compute them once.

Wall times must be finite and non-negative (a sorted index needs a total
order, and a NaN would make any median depend on the order of the
samples): :meth:`record` rejects other values, and so does the fold for
records appended to the history directly.
"""

from __future__ import annotations

import math
import threading
from bisect import insort
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.obs.clock import Clock, SystemClock

__all__ = ["ExecutionRecord", "RuntimeMonitor"]


class ExecutionRecord(NamedTuple):
    """One region invocation (a named tuple: immutable and cheap to build,
    since every invocation makes one)."""

    region: str
    version_index: int
    threads: int
    predicted_time: float
    wall_time: float
    timestamp: float


def _bad_wall_time(wall_time: float, where: str = "") -> ValueError:
    return ValueError(
        f"{where}wall_time must be finite and non-negative, got {wall_time!r}"
    )


@dataclass
class RuntimeMonitor:
    """Execution ledger plus system context.

    :param available_cores: cores the scheduler may use right now; external
        events (co-scheduled jobs) update it via :meth:`set_available_cores`,
        after which executors re-select versions.
    :param clock: time source for record timestamps (and for executors
        timing invocations); inject a FakeClock for deterministic tests.
    """

    available_cores: int = 0
    history: list[ExecutionRecord] = field(default_factory=list)
    clock: Clock = field(default_factory=SystemClock)

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        # region -> version index -> sorted wall times of history[:_indexed]
        self._sorted: dict[str, dict[int, list[float]]] = {}
        # region -> memoised medians, dropped when a record of it folds in
        self._medians: dict[str, dict[int, tuple[int, float]]] = {}
        self._indexed = 0
        self._indexed_history = self.history

    # -- system context --------------------------------------------------

    def context(self) -> dict:
        ctx: dict = {}
        if self.available_cores > 0:
            ctx["available_cores"] = self.available_cores
        return ctx

    def set_available_cores(self, cores: int) -> None:
        if cores < 1:
            raise ValueError("available cores must be positive")
        self.available_cores = cores

    # -- ingestion -------------------------------------------------------

    def record(
        self,
        region: str,
        version_index: int,
        threads: int,
        predicted_time: float,
        wall_time: float,
    ) -> None:
        """Record one invocation (one locked append)."""
        if not 0.0 <= wall_time < math.inf:
            raise _bad_wall_time(wall_time)
        with self._lock:
            self.history.append(
                ExecutionRecord(
                    region, version_index, threads, predicted_time, wall_time,
                    self.clock.now(),
                )
            )

    # -- queries ---------------------------------------------------------

    def selections(self) -> list[int]:
        return [r.version_index for r in self.records()]

    def records(self) -> list[ExecutionRecord]:
        """Consistent snapshot of the execution history."""
        with self._lock:
            return list(self.history)

    def wall_medians(self, region: str) -> dict[int, tuple[int, float]]:
        """``version index -> (count, median)`` wall time of *region*'s
        invocations (:func:`repro.util.stats.median`'s formula on the sorted
        index, memoised until another record of *region* is folded in)."""
        with self._lock:
            self._fold_locked()
            medians = self._medians.get(region)
            if medians is None:
                medians = self._medians[region] = {}
                for index, xs in self._sorted.get(region, {}).items():
                    n = len(xs)
                    mid = n // 2
                    medians[index] = (
                        n, float(xs[mid]) if n % 2 else 0.5 * (xs[mid - 1] + xs[mid])
                    )
            return dict(medians)

    def _fold_locked(self) -> None:
        """Fold the records appended since the last read into the sorted
        index (rebuilding it when the history was replaced or cut)."""
        history = self.history
        if history is not self._indexed_history or self._indexed > len(history):
            self._sorted, self._medians, self._indexed = {}, {}, 0
            self._indexed_history = history
        sorted_ = self._sorted
        stale = self._medians
        start = self._indexed
        for pos, r in enumerate(history[start:], start):
            wall = r.wall_time
            if not 0.0 <= wall < math.inf:
                self._indexed = pos
                raise _bad_wall_time(wall, f"history[{pos}]: ")
            region = sorted_.get(r.region)
            if region is None:
                region = sorted_[r.region] = {}
            xs = region.get(r.version_index)
            if xs is None:
                region[r.version_index] = [wall]
            else:
                insort(xs, wall)
            stale.pop(r.region, None)
        self._indexed = len(history)

    @property
    def invocations(self) -> int:
        """Number of recorded invocations."""
        with self._lock:
            return len(self.history)

    def total_cpu_seconds(self) -> float:
        return sum(r.wall_time * r.threads for r in self.records())

    def version_counts(self) -> dict[tuple[str, int], int]:
        """``(region, version index) -> invocation count``."""
        return dict(Counter((r.region, r.version_index) for r in self.records()))
