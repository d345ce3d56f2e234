"""Print the last perf-trajectory line against the one before it.

``benchmarks/trajectory.jsonl`` holds one line per change: the commit, the
host probe and the untraced end-to-end medians of every perfbench
workload.  This script prints, per workload, each end-to-end metric named
in ``BENCHMARK.json`` for the previous and the last line, their ratio
(last / previous) and whether that ratio is a gain or a loss for the
metric's direction.  It is a report, not a gate::

    python benchmarks/trajectory.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def end_to_end_metrics() -> list[tuple[str, str]]:
    """``(name, better)`` of every end-to-end metric, in declared order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["better"]) for m in spec["end_to_end"]]


def diff_rows(previous: dict, last: dict, metrics) -> list[tuple]:
    """One ``(workload, metric, previous, last, ratio, verdict)`` row per
    metric present on both lines."""
    rows = []
    for workload, now in last["workloads"].items():
        before = previous["workloads"].get(workload)
        if before is None:
            continue
        for name, better in metrics:
            if name not in now or name not in before:
                continue
            a, b = before[name], now[name]
            ratio = b / a if a else float("nan")
            if a == b:
                verdict = "same"
            elif (b < a) == (better == "lower"):
                verdict = "better"
            else:
                verdict = "worse"
            rows.append((workload, name, a, b, ratio, verdict))
    return rows


def main() -> int:
    path = ROOT / "benchmarks" / "trajectory.jsonl"
    lines = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
    if len(lines) < 2:
        print(f"{path}: fewer than two lines, nothing to compare")
        return 0
    previous, last = lines[-2], lines[-1]
    print(
        f"{previous['commit']} -> {last['commit']}  "
        f"(host probe {previous['host.probe_ms']:.3f} -> {last['host.probe_ms']:.3f} ms)"
    )
    print(f"{'workload':<18} {'metric':<17} {'previous':>12} {'last':>12} {'ratio':>7}")
    for workload, name, a, b, ratio, verdict in diff_rows(
        previous, last, end_to_end_metrics()
    ):
        print(f"{workload:<18} {name:<17} {a:12.4g} {b:12.4g} {ratio:7.3f}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
