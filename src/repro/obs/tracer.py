"""Span-based tracing with JSONL export.

A :class:`Tracer` records two kinds of telemetry:

* **spans** — timed scopes opened with ``tracer.span(name, **attrs)`` as a
  context manager.  Spans nest: the span opened most recently on the same
  thread becomes the parent, so a trace reconstructs the call tree
  (driver phase → optimizer run).
* **events** — instantaneous records (``tracer.event(name, **attrs)``)
  attached to the currently open span, e.g. one per optimizer generation,
  committed evaluation batch or runtime selection decision.

Records accumulate in memory and are written with :meth:`Tracer.write_jsonl`
— one JSON object per line, led by a ``meta`` header.  Timestamps come from
an injectable :class:`~repro.obs.clock.Clock` so traces written under a
:class:`~repro.obs.clock.FakeClock` are byte-deterministic.

The default in every instrumented component is :class:`NullTracer`, whose
``span``/``event`` are constant no-ops returning a shared inert span —
the disabled path costs a method call and nothing else (the overhead
benchmark ``benchmarks/test_obs_overhead.py`` holds it under 2 % of the
tuning wall time).
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

from repro.obs.clock import Clock, SystemClock

__all__ = ["Span", "Tracer", "NullTracer", "NULL_SPAN", "TraceError"]

#: trace file format version, bumped on incompatible schema changes
TRACE_FORMAT = 1


class TraceError(RuntimeError):
    """A trace file is missing, unreadable, or not valid JSONL."""


def _jsonable(value):
    """Coerce attribute values into JSON-serializable built-ins."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    item = getattr(value, "item", None)  # numpy scalars
    if callable(item):
        return _jsonable(item())
    return str(value)


class Span:
    """One timed scope.  Use via ``with tracer.span(...) as span:``."""

    __slots__ = ("tracer", "name", "span_id", "parent_id", "start", "attrs")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self.tracer = tracer
        self.name = name
        self.span_id = tracer._next_id()
        self.parent_id: int | None = None
        self.start = 0.0
        self.attrs = attrs

    def set(self, **attrs) -> None:
        """Attach (or overwrite) attributes on the open span."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        self.parent_id = self.tracer._current_span_id()
        self.start = self.tracer.clock.perf()
        self.tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = self.tracer.clock.perf()
        self.tracer._pop(self)
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self.tracer._record(
            {
                "type": "span",
                "name": self.name,
                "id": self.span_id,
                "parent": self.parent_id,
                "start": self.start,
                "end": end,
                "duration": end - self.start,
                "attrs": _jsonable(self.attrs),
            }
        )
        return False


class _NullSpan:
    """Inert span shared by every :class:`NullTracer` call."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs) -> None:
        pass


NULL_SPAN = _NullSpan()


class NullTracer:
    """The zero-overhead disabled tracer (the default everywhere)."""

    enabled = False

    def span(self, name: str, **attrs) -> _NullSpan:
        return NULL_SPAN

    def event(self, name: str, **attrs) -> None:
        pass

    def records(self) -> list[dict]:
        return []


class Tracer:
    """Collecting tracer.  Thread-safe: spans/events may be recorded from
    worker threads; parenthood follows each thread's own span stack (a
    worker without an open span parents to the root)."""

    enabled = True

    def __init__(self, clock: Clock | None = None) -> None:
        self.clock: Clock = clock or SystemClock()
        self._records: list[dict] = []
        self._lock = threading.Lock()
        self._ids = iter(range(1, 1 << 62)).__next__
        self._local = threading.local()

    # -- recording ------------------------------------------------------

    def span(self, name: str, **attrs) -> Span:
        return Span(self, name, attrs)

    def event(self, name: str, **attrs) -> None:
        self._record(
            {
                "type": "event",
                "name": name,
                "span": self._current_span_id(),
                "t": self.clock.perf(),
                "attrs": _jsonable(attrs),
            }
        )

    # -- internal plumbing ----------------------------------------------

    def _next_id(self) -> int:
        with self._lock:
            return self._ids()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _current_span_id(self) -> int | None:
        stack = self._stack()
        return stack[-1].span_id if stack else None

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def _record(self, record: dict) -> None:
        with self._lock:
            self._records.append(record)

    # -- export ---------------------------------------------------------

    def records(self) -> list[dict]:
        """Snapshot of everything recorded so far (spans close-ordered)."""
        with self._lock:
            return list(self._records)

    def write_jsonl(self, path: str | Path, meta: dict | None = None) -> int:
        """Write the trace as JSON Lines; returns the number of records.

        The first line is a ``meta`` header carrying the format version
        plus caller-supplied context (kernel, machine, argv, ...).
        """
        header = {"type": "meta", "format": TRACE_FORMAT}
        if meta:
            header.update(_jsonable(meta))
        records = self.records()
        lines = [json.dumps(header, sort_keys=True)]
        lines.extend(json.dumps(r, sort_keys=True) for r in records)
        try:
            Path(path).write_text("\n".join(lines) + "\n")
        except OSError as exc:
            raise TraceError(f"cannot write trace file {path}: {exc}") from exc
        return len(records)
