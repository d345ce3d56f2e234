"""Trace-file loading and summarization (the ``repro trace`` subcommand).

Reads a JSONL trace written by :meth:`repro.obs.tracer.Tracer.write_jsonl`
and renders the three views the paper's analysis needs: where the wall
time went (phase breakdown over the span tree), how the optimizer
converged (the V-vs-E trajectory from ``optimizer.generation`` events),
and what the evaluation engine / runtime did (per-region accounting from
the ``engine.batch`` events, ``runtime.selection`` decisions).

Malformed input raises :class:`~repro.obs.tracer.TraceError` with the
offending line number — the CLI turns that into a clean one-line error
instead of a stack trace.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.metrics import FOLDS
from repro.obs.tracer import TraceError
from repro.util.tables import Table

__all__ = ["load_trace", "summarize_trace", "trace_summary_for_path"]


def load_trace(path: str | Path) -> list[dict]:
    """Parse a JSONL trace file into its records.

    :raises TraceError: if the file is missing, unreadable, empty, or any
        line is not a JSON object with a ``type`` field.
    """
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise TraceError(f"cannot read trace file {path}: {exc}") from exc

    records: list[dict] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceError(
                f"corrupt trace file {path}: line {lineno} is not valid JSON "
                f"({exc.msg})"
            ) from exc
        if not isinstance(record, dict) or "type" not in record:
            raise TraceError(
                f"corrupt trace file {path}: line {lineno} is not a trace "
                "record (expected a JSON object with a 'type' field)"
            )
        records.append(record)
    if not records:
        raise TraceError(f"trace file {path} is empty")
    return records


# ----------------------------------------------------------------------


def _spans(records: list[dict], name: str | None = None) -> list[dict]:
    return [
        r
        for r in records
        if r.get("type") == "span" and (name is None or r.get("name") == name)
    ]


def _events(records: list[dict], name: str) -> list[dict]:
    return [r for r in records if r.get("type") == "event" and r.get("name") == name]


def _phase_table(records: list[dict]) -> str | None:
    """Wall-time breakdown over top-level spans (no parent in the trace)."""
    spans = _spans(records)
    if not spans:
        return None
    ids = {s["id"] for s in spans}
    roots = [s for s in spans if s.get("parent") not in ids]
    by_name: dict[str, list[dict]] = {}
    for s in roots:
        by_name.setdefault(s["name"], []).append(s)
    total = sum(s.get("duration", 0.0) for s in roots) or 1.0

    t = Table(["phase", "spans", "total [s]", "share"], title="Phase breakdown")
    order = sorted(
        by_name, key=lambda n: -sum(s.get("duration", 0.0) for s in by_name[n])
    )
    for name in order:
        dur = sum(s.get("duration", 0.0) for s in by_name[name])
        t.add_row([name, len(by_name[name]), dur, f"{100 * dur / total:.1f}%"])
    return t.render()


def _convergence_table(records: list[dict]) -> str | None:
    events = _events(records, "optimizer.generation")
    if not events:
        return None
    t = Table(
        ["algorithm", "gen", "E", "|S|", "V(S)", "accepted", "dominated"],
        title="Convergence trajectory",
    )
    for e in events:
        a = e.get("attrs", {})
        hv = a.get("hypervolume", float("nan"))
        t.add_row(
            [
                a.get("algorithm", "?"),
                a.get("generation", "?"),
                a.get("evaluations", "?"),
                a.get("front_size", "?"),
                f"{hv:.4g}" if isinstance(hv, (int, float)) else hv,
                a.get("accepted", 0),
                a.get("dominated", 0),
            ]
        )
    return t.render()


def _engine_table(records: list[dict]) -> str | None:
    """Evaluation accounting per region, from the ``engine.batch`` event the
    engine emits as it commits each batch (``-``: batches evaluated through
    ``evaluate_batch``, which carry no region label).  The columns are the
    attributes :data:`~repro.obs.metrics.FOLDS` sums into the engine
    counters, so each column summed over the regions is its counter."""
    events = _events(records, "engine.batch")
    if not events:
        return None
    updates = FOLDS["engine.batch"]
    keys = [attr for kind, attr, _, _ in updates if kind == "counter"]
    wall = next(attr for kind, attr, _, _ in updates if kind == "histogram")
    by_region: dict[str, dict] = {}
    for e in events:
        a = e.get("attrs", {})
        row = by_region.setdefault(
            str(a.get("region") or "-"), {wall: 0.0, **{k: 0 for k in keys}}
        )
        row[wall] += float(a.get(wall) or 0.0)
        for k in keys:
            row[k] += int(a.get(k) or 0)
    t = Table(["region", *keys, "wall [s]"], title="Evaluation-engine accounting")
    for region in sorted(by_region):
        row = by_region[region]
        t.add_row([region, *[row[k] for k in keys], row[wall]])
    return t.render()


def _selection_table(records: list[dict]) -> str | None:
    events = _events(records, "runtime.selection")
    if not events:
        return None
    t = Table(
        ["policy", "decisions", "versions chosen", "avg predicted [s]"],
        title="Runtime selection decisions",
    )
    by_policy: dict[str, list[dict]] = {}
    for e in events:
        by_policy.setdefault(e.get("attrs", {}).get("policy", "?"), []).append(e)
    for policy in sorted(by_policy):
        attrs = [e.get("attrs", {}) for e in by_policy[policy]]
        versions = sorted({str(a.get("version", "?")) for a in attrs})
        predicted = [a.get("predicted_time") for a in attrs]
        predicted = [p for p in predicted if isinstance(p, (int, float))]
        avg = sum(predicted) / len(predicted) if predicted else float("nan")
        t.add_row([policy, len(attrs), ",".join(versions), avg])
    return t.render()


def summarize_trace(records: list[dict]) -> str:
    """Render the phase/convergence/engine/runtime summary of a trace."""
    meta = next((r for r in records if r.get("type") == "meta"), {})
    lines = []
    context = " ".join(
        f"{k}={meta[k]}" for k in ("kernel", "machine", "command") if k in meta
    )
    n_spans = len(_spans(records))
    n_events = sum(1 for r in records if r.get("type") == "event")
    lines.append(
        f"trace: {n_spans} spans, {n_events} events"
        + (f" ({context})" if context else "")
    )
    for section in (
        _phase_table(records),
        _convergence_table(records),
        _engine_table(records),
        _selection_table(records),
    ):
        if section is not None:
            lines.append("")
            lines.append(section)
    return "\n".join(lines)


def trace_summary_for_path(path: str | Path) -> str:
    """Load + summarize in one call (raises :class:`TraceError`)."""
    return summarize_trace(load_trace(path))
