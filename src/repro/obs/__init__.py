"""``repro.obs`` — end-to-end tracing and metrics.

The observability layer the rest of the framework reports into:

* :mod:`repro.obs.clock` — injectable time sources (deterministic tests);
* :mod:`repro.obs.tracer` — span tracer with JSONL export, plus the
  zero-overhead :class:`NullTracer` default;
* :mod:`repro.obs.metrics` — counters, gauges and histograms folded from
  the trace events, with Prometheus text exposition;
* :mod:`repro.obs.convergence` — per-generation optimizer telemetry
  (the paper's V-vs-E trajectories as first-class data);
* :mod:`repro.obs.summary` — trace-file summarization backing the
  ``repro trace`` subcommand.

Instrumented components take one :class:`Observability` handle holding a
tracer; a run's metrics are a fold over the events its tracer recorded.
Components built without one fall back to the shared :data:`DISABLED`
handle, whose null tracer costs nothing on the hot path and records
nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.clock import Clock, FakeClock, SystemClock
from repro.obs.convergence import ConvergenceRecord, emit_generation, population_delta
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry, fold
from repro.obs.summary import load_trace, summarize_trace, trace_summary_for_path
from repro.obs.tracer import NullTracer, Span, TraceError, Tracer

__all__ = [
    "Observability",
    "Clock",
    "SystemClock",
    "FakeClock",
    "Tracer",
    "NullTracer",
    "Span",
    "TraceError",
    "MetricsRegistry",
    "fold",
    "Counter",
    "Gauge",
    "Histogram",
    "ConvergenceRecord",
    "population_delta",
    "emit_generation",
    "load_trace",
    "summarize_trace",
    "trace_summary_for_path",
]


@dataclass
class Observability:
    """The handle instrumented components report through.

    :param tracer: a collecting :class:`Tracer` or the no-op
        :class:`NullTracer`.
    """

    tracer: Tracer | NullTracer = field(default_factory=NullTracer)

    @property
    def enabled(self) -> bool:
        """Whether span/event tracing is active."""
        return getattr(self.tracer, "enabled", False)

    @property
    def metrics(self) -> MetricsRegistry:
        """The run's metrics, folded from the events recorded so far."""
        return fold(self.tracer.records())

    @classmethod
    def tracing(cls, clock: Clock | None = None) -> "Observability":
        """A collecting tracer (with an optional injected clock)."""
        return cls(tracer=Tracer(clock=clock))


#: shared inert instance used as the fallback when a component was built
#: without an explicit handle: its null tracer records nothing, so nothing
#: leaks from one run into the next
DISABLED = Observability()
