"""A small metrics registry: counters, gauges, histograms.

Instruments are created lazily through the registry (``metrics.counter(
"repro_engine_batches_total")``) and rendered with
:meth:`MetricsRegistry.exposition` in the Prometheus text format, so the
output of ``repro tune ... --metrics`` can be diffed, scraped, or pushed
as-is.  All instruments are thread-safe (the engine's worker pool and the
runtime executor may update them concurrently) and cheap enough to stay on
unconditionally — tracing is the opt-in half of the observability layer,
metrics are always collected.
"""

from __future__ import annotations

import threading
from bisect import bisect_left

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "NullMetricsRegistry"]

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
        self._lock = threading.Lock()

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        with self._lock:
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
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1) -> None:
        with self._lock:
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
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        idx = bisect_left(self.buckets, value)
        with self._lock:
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

    #: whether updates are kept; callers skip building them when not
    enabled = True

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _get(self, cls, name: str, help: str, **kwargs):
        with self._lock:
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


class _NullInstrument:
    """Accepts every counter, gauge and histogram update and keeps none."""

    def inc(self, amount: float = 1) -> None:
        pass

    dec = set = observe = inc


_NULL_INSTRUMENT = _NullInstrument()


class NullMetricsRegistry(MetricsRegistry):
    """A registry that records nothing: every accessor returns one shared
    inert instrument and nothing is ever registered, so a handle built
    without a run of its own cannot accumulate state across runs."""

    enabled = False

    def _get(self, cls, name: str, help: str, **kwargs):
        return _NULL_INSTRUMENT
