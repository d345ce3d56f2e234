"""Metrics folded from the trace: counters, gauges, histograms.

The trace records each fact once, as an event (``engine.batch``,
``optimizer.generation``, ``runtime.selection``); the metrics are derived
from those events rather than updated beside them.  :data:`FOLDS` maps
each event name to the instrument updates one such event makes, and
:func:`fold` replays a tracer's records through it into a fresh
:class:`MetricsRegistry`, rendered with :meth:`MetricsRegistry.exposition`
in the Prometheus text format, so the output of ``repro tune ...
--metrics`` can be diffed, scraped, or pushed as-is.  A fold runs on one
thread, after the run, so the instruments take no locks.
"""

from __future__ import annotations

from bisect import bisect_left

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "FOLDS", "fold"]

#: default histogram buckets (seconds): spans µs-scale engine batches up to
#: multi-second tuning phases
DEFAULT_BUCKETS = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0
)


def _fmt(value: float) -> str:
    """Prometheus-style number formatting (integers without a dot)."""
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class Counter:
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0.0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def expose(self) -> list[str]:
        return [f"{self.name} {_fmt(self._value)}"]


class Gauge:
    """A value that can go up and down."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1) -> None:
        self._value += amount

    def dec(self, amount: float = 1) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value

    def expose(self) -> list[str]:
        return [f"{self.name} {_fmt(self._value)}"]


class Histogram:
    """Cumulative-bucket histogram of observed values."""

    kind = "histogram"

    def __init__(
        self, name: str, help: str = "", buckets: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> None:
        if list(buckets) != sorted(buckets) or len(set(buckets)) != len(buckets):
            raise ValueError("histogram buckets must be strictly increasing")
        self.name = name
        self.help = help
        self.buckets = tuple(float(b) for b in buckets)
        self._counts = [0] * (len(self.buckets) + 1)  # +1 for +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        idx = bisect_left(self.buckets, value)
        self._counts[idx] += 1
        self._sum += value
        self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def expose(self) -> list[str]:
        lines = []
        cumulative = 0
        for bound, n in zip(self.buckets, self._counts):
            cumulative += n
            lines.append(f'{self.name}_bucket{{le="{_fmt(bound)}"}} {cumulative}')
        cumulative += self._counts[-1]
        lines.append(f'{self.name}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{self.name}_sum {_fmt(self._sum)}")
        lines.append(f"{self.name}_count {self._count}")
        return lines


class MetricsRegistry:
    """Name → instrument map with get-or-create accessors."""

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, cls, name: str, help: str, **kwargs):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = self._instruments[name] = cls(name, help, **kwargs)
        elif not isinstance(instrument, cls):
            raise TypeError(
                f"metric {name!r} is a {instrument.kind}, not a {cls.kind}"
            )
        return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", buckets: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get(Histogram, name, help, buckets=buckets)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    def as_dict(self) -> dict[str, float | dict]:
        """Flat snapshot (histograms report sum and count)."""
        out: dict[str, float | dict] = {}
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            if isinstance(instrument, Histogram):
                out[name] = {"sum": instrument.sum, "count": instrument.count}
            else:
                out[name] = instrument.value
        return out

    def exposition(self) -> str:
        """Prometheus text exposition of every registered instrument."""
        lines = []
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            if instrument.help:
                lines.append(f"# HELP {name} {instrument.help}")
            lines.append(f"# TYPE {name} {instrument.kind}")
            lines.extend(instrument.expose())
        return "\n".join(lines) + ("\n" if lines else "")


#: event name → the instrument updates one such event makes, as (kind,
#: event attribute, metric, help): a ``counter`` adds the attribute's
#: value, a ``count`` adds 1, a ``gauge`` takes the value and a
#: ``histogram`` observes it.  An update is skipped when its attribute is
#: null in the event; a ``count`` without an attribute counts every event.
FOLDS: dict[str, tuple[tuple[str, str | None, str, str], ...]] = {
    "engine.batch": (
        ("counter", "batches", "repro_engine_batches_total", "evaluation batches processed"),
        ("counter", "configs", "repro_engine_configs_total", "configurations submitted"),
        ("counter", "dispatched", "repro_engine_dispatched_total",
         "unique configurations computed"),
        ("counter", "cache_hits", "repro_engine_cache_hits_total",
         "configurations served from the memo cache"),
        ("counter", "deduped", "repro_engine_deduped_total",
         "in-batch duplicate configurations"),
        ("counter", "disk_hits", "repro_engine_disk_hits_total",
         "configurations served from the persistent disk cache"),
        ("counter", "shared_hits", "repro_engine_shared_hits_total",
         "configurations served by a sibling region's computation"),
        ("counter", "retried", "repro_engine_retries_total", "failed per-key rescue attempts"),
        ("counter", "failed", "repro_engine_failed_total", "configurations rescued per key"),
        ("histogram", "wall_time_s", "repro_engine_batch_seconds",
         "wall time per evaluation batch"),
    ),
    "optimizer.generation": (
        ("count", None, "repro_optimizer_generations_total", "optimizer generations executed"),
        ("gauge", "hypervolume", "repro_optimizer_hypervolume",
         "population-front hypervolume V(S)"),
        ("gauge", "front_size", "repro_optimizer_front_size", "non-dominated front size |S|"),
        ("gauge", "evaluations", "repro_optimizer_evaluations",
         "evaluations E spent by the current run"),
    ),
    "runtime.selection": (
        ("count", None, "repro_runtime_selections_total", "version-selection decisions"),
        ("count", "actual_time", "repro_runtime_executions_total", "region invocations executed"),
        ("histogram", "actual_time", "repro_runtime_wall_seconds", "observed region wall time"),
    ),
}


def fold(records) -> MetricsRegistry:
    """The metrics of a run: every event among *records* (a tracer's
    records, in recorded order) applied through :data:`FOLDS` to a fresh
    registry."""
    registry = MetricsRegistry()
    for record in records:
        if record["type"] != "event":
            continue
        for kind, attr, name, help_text in FOLDS.get(record["name"], ()):
            value = 1 if attr is None else record["attrs"][attr]
            if value is None:
                continue
            if kind == "gauge":
                registry.gauge(name, help_text).set(value)
            elif kind == "histogram":
                registry.histogram(name, help_text).observe(value)
            else:
                registry.counter(name, help_text).inc(value if kind == "counter" else 1)
    return registry
