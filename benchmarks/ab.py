"""Paired before/after perfbench runs of a base revision and the working tree.

Exports ``<base>``'s ``src/`` with ``git archive`` and copies the working
tree's ``src/``, each into its own temporary directory beside a copy of the
working tree's ``perfbench/`` (``perfbench/run.py`` imports the ``src/``
next to it, so each side must run its own copy).  Both trees are
byte-compiled the same way.  It then runs ``perfbench/run.py --trace 0`` on
each side in pairs that alternate which side runs first, pair *i* at seed
*i*, and prints per end-to-end metric of ``BENCHMARK.json`` the median of
the per-pair ratios (change / base), the number of pairs in which the change
was better, each side's medians and the distance between its quartiles
(IQR), and each run's host probe::

    python benchmarks/ab.py --base HEAD~1 --workload runtime-invoke --pairs 6 --seconds 10

It exits non-zero when a run fails or when E, |S|, V or ``ok_frac`` differ
between the two sides.  ``--append`` adds one line per side to
``benchmarks/trajectory.jsonl`` (the base first), in the format
``benchmarks/trajectory.py`` reads.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = ROOT / "benchmarks" / "trajectory.jsonl"
#: quality metrics that must be identical on both sides
IDENTICAL = ("evaluations_E", "front_size_S", "hypervolume_V", "ok_frac")


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def end_to_end_metrics() -> list[tuple[str, str]]:
    """``(name, better)`` of every end-to-end metric, in declared order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["better"]) for m in spec["end_to_end"]]


def export_side(tree: Path, base: str | None) -> None:
    """``src/`` of *base* (the working tree's when ``None``) and a copy of
    the working tree's ``perfbench/`` under *tree*, byte-compiled."""
    tree.mkdir(parents=True)
    if base is None:
        shutil.copytree(ROOT / "src", tree / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    else:
        archive = tree / "src.tar"
        with archive.open("wb") as out:
            subprocess.run(["git", "archive", "--format=tar", base, "src"],
                           cwd=ROOT, check=True, stdout=out)
        with tarfile.open(archive) as tar:
            tar.extractall(tree, filter="data")
        archive.unlink()
    shutil.copytree(ROOT / "perfbench", tree / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "*.pyc", "out"))
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(tree)], check=True)


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run: its metrics, host probe and missing
    hooks."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree.name} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()}")
    result = json.loads(lines[-1])
    detail = json.loads(
        (tree / "perfbench" / "out" / f"result-{workload}-seed{seed}-trace0.json")
        .read_text()
    )
    return {
        "correct": result["correct"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "probe_ms": detail["drift"]["host.probe_ms"],
        "host": detail["host"],
        "missing_hooks": detail["missing_hooks"],
    }


def better(a: float, b: float, direction: str) -> bool:
    return b < a if direction == "lower" else b > a


def iqr(xs: list[float]) -> float:
    """Distance between the quartiles of *xs* (0 for a single run)."""
    if len(xs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q3 - q1


def summarize(pairs: list[tuple[dict, dict]], metrics) -> tuple[list[str], list[str]]:
    """Report lines and problems (quality drift, failed checks)."""
    lines = [f"{'metric':<17} {'ratio p50':>9} {'better':>7}"
             "   base -> change (medians)   [base IQR / change IQR]"]
    for name, direction in metrics:
        before = [base["metrics"][name] for base, _ in pairs]
        after = [change["metrics"][name] for _, change in pairs]
        ratios = [y / x if x else float("nan") for x, y in zip(before, after)]
        wins = sum(better(x, y, direction) for x, y in zip(before, after))
        lines.append(
            f"{name:<17} {statistics.median(ratios):9.4f} {wins:>3}/{len(pairs):<3}"
            f"   {statistics.median(before):.6g} -> {statistics.median(after):.6g}"
            f"   [{iqr(before):.4g} / {iqr(after):.4g}]"
        )
    problems = []
    for i, (base, change) in enumerate(pairs, 1):
        for side, run in (("base", base), ("change", change)):
            if not run["correct"]:
                problems.append(f"pair {i}: the {side} run failed its checks")
        for name in IDENTICAL:
            x, y = base["metrics"][name], change["metrics"][name]
            if x != y:
                problems.append(f"pair {i}: {name} differs: base {x!r}, change {y!r}")
    return lines, problems


def trajectory_line(commit: str, note: str, runs: list[dict], workload: str,
                    metrics) -> dict:
    """One trajectory line: per-metric medians over *runs*."""
    host = runs[0]["host"]
    return {
        "commit": commit,
        "note": note,
        "host": {k: host[k] for k in ("nproc", "python", "numpy")},
        "host.probe_ms": round(statistics.median(r["probe_ms"] for r in runs), 4),
        "seeds": list(range(1, len(runs) + 1)),
        "trace": 0,
        "workloads": {
            workload: {"runs": len(runs)} | {
                name: round(statistics.median(r["metrics"][name] for r in runs), 6)
                for name, _ in metrics
            }
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=6)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--append", action="store_true",
                        help="append the base and change lines to trajectory.jsonl")
    parser.add_argument("--note", default="",
                        help="the change line's note in trajectory.jsonl")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    base_rev = git("rev-parse", "--short", args.base)
    change_rev = git("rev-parse", "--short", "HEAD")
    if git("status", "--porcelain", "--", "src"):
        change_rev += "+wt"
    metrics = end_to_end_metrics()
    scratch = Path(tempfile.mkdtemp(prefix="ab-"))
    try:
        base_tree, change_tree = scratch / "base", scratch / "change"
        export_side(base_tree, args.base)
        export_side(change_tree, None)
        pairs = []
        for i in range(1, args.pairs + 1):
            order = [(base_tree, 0), (change_tree, 1)]
            if i % 2 == 0:
                order.reverse()
            pair = [None, None]
            for tree, side in order:
                pair[side] = run_side(tree, args.workload, i, args.seconds)
            base, change = pair
            pairs.append((base, change))
            print(f"pair {i} (seed {i}, {'change' if i % 2 == 0 else 'base'} first): "
                  f"throughput {base['metrics']['throughput_per_s']:.6g} -> "
                  f"{change['metrics']['throughput_per_s']:.6g}, host probe "
                  f"{base['probe_ms']:.3f} / {change['probe_ms']:.3f} ms", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"\n{args.workload}: {base_rev} -> {change_rev}, {args.pairs} pairs of "
          f"{args.seconds:g} s per side")
    lines, problems = summarize(pairs, metrics)
    print("\n".join(lines))
    for side, i in (("base", 0), ("change", 1)):
        missing = sorted({h for pair in pairs for h in pair[i]["missing_hooks"]})
        for hook in missing:
            print(f"{side}: missing hook (its metric reads 0): {hook}")
    for line in problems:
        print(f"FAIL: {line}", file=sys.stderr)

    if args.append and not problems:
        with TRAJECTORY.open("a") as out:
            for commit, note, side in (
                (base_rev, f"base of {change_rev}, re-measured by ab.py", 0),
                (change_rev, args.note, 1),
            ):
                line = trajectory_line(commit, note, [p[side] for p in pairs],
                                       args.workload, metrics)
                out.write(json.dumps(line) + "\n")
        print(f"appended 2 lines to {TRAJECTORY.relative_to(ROOT)}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
