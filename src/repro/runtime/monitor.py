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
:meth:`total_cpu_seconds`, :meth:`wall_times`) reads a consistent snapshot
of the complete history.

Recalibration needs one region's wall times per version.  Rather than scan
the whole history on every call, the monitor keeps an index of wall times
per (region, version index); a read folds in the records appended since
the previous read, so the index also covers a history passed in at
construction or appended to directly.
"""

from __future__ import annotations

import threading
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
        # region -> version index -> wall times of history[:_indexed]
        self._walls: dict[str, dict[int, list[float]]] = {}
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

    def wall_times(self, region: str) -> dict[int, list[float]]:
        """``version index -> wall times`` of *region*'s invocations, in
        recording order: one locked copy of that region's index."""
        with self._lock:
            history = self.history
            if history is not self._indexed_history or self._indexed > len(history):
                # the history was replaced or cut: rebuild from scratch
                self._walls, self._indexed = {}, 0
                self._indexed_history = history
            walls = self._walls
            for r in history[self._indexed:]:
                walls.setdefault(r.region, {}).setdefault(r.version_index, []).append(
                    r.wall_time
                )
            self._indexed = len(history)
            return {i: list(ws) for i, ws in walls.get(region, {}).items()}

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
