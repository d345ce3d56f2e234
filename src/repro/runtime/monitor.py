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
:meth:`total_cpu_seconds`) reads a consistent snapshot of the complete
history.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass, field

from repro.obs.clock import Clock, SystemClock

__all__ = ["ExecutionRecord", "RuntimeMonitor"]


@dataclass(frozen=True)
class ExecutionRecord:
    """One region invocation."""

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
                    region=region,
                    version_index=version_index,
                    threads=threads,
                    predicted_time=predicted_time,
                    wall_time=wall_time,
                    timestamp=self.clock.now(),
                )
            )

    # -- queries ---------------------------------------------------------

    def selections(self) -> list[int]:
        return [r.version_index for r in self.records()]

    def records(self) -> list[ExecutionRecord]:
        """Consistent snapshot of the execution history."""
        with self._lock:
            return list(self.history)

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
