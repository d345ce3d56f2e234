#!/usr/bin/env python
"""Which functions of ``src/repro`` do the user paths never call?

Runs the repository's user paths, each in a fresh interpreter with a
call profiler installed, and prints every ``def`` under ``src/repro`` that
none of them entered, per module, with its line count.  The paths are:

* ``cli`` — every ``repro`` subcommand: ``kernels``, ``machines``, ``tune``
  for every kernel and with each optimizer, ``--energy``, ``--multiregion
  --pipeline``, a cold and a warm ``--cache-dir``, ``--emit-c``,
  ``--json``, ``--trace`` and ``--metrics``; ``tune-file`` (single and
  multi-region); ``trace``; and ``report``;
* ``examples`` — every ``examples/*.py``;
* ``claims`` — the paper-claim benchmarks (Tables I–VI, Figs 1/2/5/8/9,
  the ablations, the extensions, the cache-simulator validation), run with
  ``--benchmark-disable``: pytest-benchmark switches the profiler off
  around the code it times, which would make every call the benchmarks
  time read as unreached;
* ``perfbench`` — the three workloads of the end-to-end benchmark, each
  for a few seconds, from a copy of ``perfbench/`` so that its output
  directory stays untouched.

The profiler is installed by a generated ``sitecustomize.py`` on the
children's ``PYTHONPATH`` (it takes the place of any other
``sitecustomize``), with ``sys.setprofile`` for the main thread and
``threading.setprofile`` for every thread started later (a worker pool's),
so the interpreters that a path starts itself (perfbench's set-up probes)
are traced too.  A function is matched to its ``def`` by file and first
line (the first decorator's line for a decorated one).  Nested functions
inside an unreached function are not listed separately.

This is a report, not a gate: it exits 0 whatever it finds.  Running the
``examples`` group rewrites ``examples/custom_multiversioned.c``, as
running the examples does.

Usage::

    python tools/reach.py        # 1-2 min on 2 cores
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

GROUPS = ("cli", "examples", "claims", "perfbench")

#: the profiler every child interpreter installs at start-up; it records
#: code objects, and at exit writes the (file, first line) of those under
#: the package to one JSON file per process
SITECUSTOMIZE = '''\
import atexit, json, os, sys, threading

_seen = set()


def _profile(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)


@atexit.register
def _dump():
    sys.setprofile(None)
    root = os.environ["REACH_PACKAGE"] + os.sep
    rows = set()
    for code in list(_seen):
        path = os.path.realpath(code.co_filename)
        if path.startswith(root):
            rows.add((path, code.co_firstlineno))
    out = os.path.join(os.environ["REACH_OUT"], f"{os.getpid()}.json")
    with open(out, "w") as f:
        json.dump(sorted(rows), f)


sys.setprofile(_profile)
threading.setprofile(_profile)
'''

TWO_NESTS = """\
void twins(int N, double A[N][N], double B[N][N]) {
    for (int i = 0; i < N; i++)
        for (int j = 0; j < N; j++)
            A[i][j] = A[i][j] + 1.0;
    for (int i = 0; i < N; i++)
        for (int j = 0; j < N; j++)
            B[i][j] = B[i][j] * 2.0;
}
"""

CLAIM_BENCHMARKS = (
    "benchmarks/test_tab*.py",
    "benchmarks/test_fig*.py",
    "benchmarks/test_ablation*.py",
    "benchmarks/test_ext*.py",
    "benchmarks/test_validation_cachesim.py",
)


def cli_runs(work: Path) -> list[list[str]]:
    """``python -m repro`` argument lists for every subcommand and option."""
    (work / "twins.c").write_text(TWO_NESTS)
    tune = ["-m", "repro", "tune"]
    cache = str(work / "cache")
    runs = [
        ["-m", "repro", "kernels"],
        ["-m", "repro", "machines"],
        tune + ["mm", "--size", "N=300", "--engine-stats", "--json", str(work / "mm.json"),
                "--emit-c", str(work / "mm.c"), "--trace", str(work / "mm.jsonl"),
                "--metrics"],
        tune + ["mm", "--size", "N=300", "--metrics"],
        tune + ["mm", "--size", "N=300", "--optimizer", "nsga2"],
        tune + ["mm", "--size", "N=300", "--optimizer", "random"],
        tune + ["mm", "--size", "N=300", "--energy", "--machine", "barcelona"],
        tune + ["mm", "--size", "N=300", "--cache-dir", cache, "--engine-stats"],
        tune + ["mm", "--size", "N=300", "--cache-dir", cache, "--engine-stats"],
        tune + ["mm", "--size", "N=300", "--cache-dir", cache, "--no-cache"],
        tune + ["jacobi2d", "--multiregion", "--pipeline", "--workers", "2",
                "--trace", str(work / "mr.jsonl"), "--metrics", "--json",
                str(work / "mr.json")],
        ["-m", "repro", "tune-file", str(work / "twins.c"), "--size", "N=400",
         "--emit-c", str(work / "twins_mv.c")],
        ["-m", "repro", "tune-file", str(work / "twins.c"), "--size", "N=400",
         "--multiregion"],
        ["-m", "repro", "trace", str(work / "mm.jsonl")],
        ["-m", "repro", "trace", str(work / "mr.jsonl")],
        ["-m", "repro", "report", "--repetitions", "1", "--workers", "2",
         "--out", str(work / "report.md")],
    ]
    for kernel in ("dsyrk", "jacobi2d", "nbody", "stencil3d"):
        runs.append(tune + [kernel])
    return runs


def group_runs(group: str, work: Path) -> list[list[str]]:
    if group == "cli":
        return cli_runs(work)
    if group == "examples":
        return [[str(p)] for p in sorted((ROOT / "examples").glob("*.py"))]
    if group == "claims":
        files = sorted(str(p) for pattern in CLAIM_BENCHMARKS for p in ROOT.glob(pattern))
        return [["-m", "pytest", *files, "-p", "no:cacheprovider", "-q",
                 "--benchmark-disable"]]
    if group == "perfbench":
        # run.py finds the package at ../src from its own directory
        copy = work / "bench"
        shutil.copytree(ROOT / "perfbench", copy / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        (copy / "src").symlink_to(SRC)
        run = str(copy / "perfbench" / "run.py")
        return [[run, "--workload", w, "--seconds", "3"]
                for w in ("table6-cold", "multiregion-cache", "runtime-invoke")]
    raise ValueError(f"unknown group {group!r}")


def trace_runs(work: Path) -> tuple[set[tuple[str, int]], int]:
    """Run every path of every group; the (file, first line) pairs they reached
    and the number of failed runs."""
    site, out = work / "site", work / "reached"
    site.mkdir()
    out.mkdir()
    (site / "sitecustomize.py").write_text(SITECUSTOMIZE)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(site), str(SRC)])
    env["REACH_OUT"] = str(out)
    env["REACH_PACKAGE"] = str(PACKAGE.resolve())
    failed = 0
    for group in GROUPS:
        for args in group_runs(group, work):
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  text=True)
            status = "ok" if proc.returncode == 0 else f"FAILED ({proc.returncode})"
            failed += proc.returncode != 0
            shown = " ".join(
                a.replace(str(work), "$TMP").replace(f"{ROOT}{os.sep}", "") for a in args
            )
            print(f"[{group}] {shown}: {status}, {time.perf_counter() - start:.1f} s",
                  file=sys.stderr)
            if proc.returncode:
                print(proc.stderr[-2000:], file=sys.stderr)
    reached = set()
    for path in out.glob("*.json"):
        reached.update((f, line) for f, line in json.loads(path.read_text()))
    return reached, failed


def definitions(path: Path):
    """``(qualified name, first line, last line, nested defs)`` of each
    top-level ``def`` and method in *path*, nesting kept."""

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                yield name, first, child.end_lineno, list(walk(child, name + "."))
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, prefix + child.name + ".")

    return list(walk(ast.parse(path.read_text()), ""))


def unreached(reached: set[tuple[str, int]]) -> dict[str, list[tuple[str, int, int]]]:
    """Per module (path relative to ``src``), the outermost unreached defs
    as ``(name, first line, last line)``."""
    report = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        real = os.path.realpath(path)
        missing = []

        def visit(defs):
            for name, first, last, nested in defs:
                if (real, first) in reached:
                    visit(nested)
                else:
                    missing.append((name, first, last))

        visit(definitions(path))
        if missing:
            report[str(path.relative_to(SRC))] = missing
    return report


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        reached, failed = trace_runs(Path(tmp))
    report = unreached(reached)

    total_lines = sum(p.read_text().count("\n") for p in PACKAGE.rglob("*.py"))
    n_defs = n_lines = 0
    print(f"Functions under src/repro that no run of {', '.join(GROUPS)} called")
    for module, missing in report.items():
        lines = sum(last - first + 1 for _, first, last in missing)
        n_defs += len(missing)
        n_lines += lines
        print(f"\n{module}: {len(missing)} unreached, {lines} lines")
        for name, first, last in missing:
            print(f"  {first:>5}-{last:<5} {name} ({last - first + 1})")
    print(f"\ntotal: {n_defs} unreached functions, {n_lines} of {total_lines} lines"
          + (f"; {failed} runs FAILED" if failed else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
