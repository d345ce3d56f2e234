"""End-to-end benchmark of tuning and runtime dispatch, with a traced run
for per-layer attribution.

Run from the repository root::

    python3 perfbench/run.py --workload table6-cold --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no hooks installed;
``--trace 1`` runs the same job list with every other pass traced and
reports the per-layer metrics.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it are a readable summary, and ``perfbench/out/`` receives the full
result (per-job times, host facts, drift diagnostics) and, when traced, the
spans.  See ``perfbench/NOTES.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: set-up is repeated in this many fresh interpreters; setup_s is the median
SETUP_PROBES = 3
#: ``import repro.cli`` is timed in this many fresh interpreters
IMPORT_PROBES = 3
#: the tail percentile keeps at least this many jobs beyond it
TAIL_BEYOND = 10
#: seconds by which a traced job's accounting may miss (float rounding)
IDENTITY_TOLERANCE = 1e-6
#: host-probe time (ms) of the reference host speed that job times are
#: scaled to, fixed among the run medians (1.8-2.7 ms) of the host where the
#: bounds were measured
PROBE_REF_MS = 2.2
#: a job's host speed is the median probe of this many jobs centred on it
PROBE_WINDOW = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "job_ms_p50": "ms",
    "job_ms_tail": "ms",
    "throughput_per_s": "1/s",
    "evaluations_E": "count",
    "front_size_S": "count",
    "hypervolume_V": "ratio",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}

#: layer time metrics, seconds per traced job (busy time on every thread)
JOB_TIMES = (
    "analysis.extract_s", "transform.skeleton_s", "cost.model_build_s",
    "optimizer.propose_s", "optimizer.select_s", "optimizer.roughset_s",
    "optimizer.archive_s", "simulator.compute_s", "cost.time_batch_s",
    "parallel_eval.self_s", "parallel_eval.wait_s",
    "disk_cache.read_s", "disk_cache.write_s",
    "runtime.select_s", "runtime.record_s", "runtime.observe_s",
    "runtime.recalibrate_s",
)
#: layer time metrics, seconds spent in the traced set-up
SETUP_TIMES = ("backend.build_table_s",)
#: counts, per traced job
JOB_COUNTS = (
    "optimizer.generations", "optimizer.trials", "cost.calls",
    "parallel_eval.batches", "parallel_eval.configs", "parallel_eval.dispatched",
    "parallel_eval.memo_hits", "parallel_eval.deduped", "parallel_eval.disk_hits",
    "parallel_eval.shared_hits", "disk_cache.records_written", "runtime.compiles",
)
#: ratios: name -> (numerator count, denominator count)
RATIOS = {
    "optimizer.accept_frac": ("optimizer.accepted", "optimizer.trials"),
    "cost.configs_per_call": ("cost.configs", "cost.calls"),
    "parallel_eval.compute_frac": ("parallel_eval.dispatched", "parallel_eval.configs"),
    "disk_cache.hit_frac": ("disk_cache.hits", "disk_cache.fetches"),
}


def per_layer_units() -> dict[str, str]:
    units = {"startup.import_s": "s"}
    units.update({m: "s" for m in JOB_TIMES + SETUP_TIMES})
    units.update({m: "count" for m in JOB_COUNTS})
    units.update({m: "ratio" for m in RATIOS})
    units.update({
        "obs.trace_overhead_frac": "ratio",
        "other.self_s": "s",
        "python.gc_s": "s",
        "host.probe_ms": "ms",
    })
    return units


# -- host diagnostics ---------------------------------------------------------


def host_probe() -> float:
    """A fixed pure-Python plus small-NumPy loop, in ms: it moves with the
    host's speed and with nothing in ``repro``."""
    import numpy as np

    start = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    a = np.arange(256, dtype=float)
    for _ in range(200):
        a = np.sqrt(a * a + 1.0)
    return (time.perf_counter() - start) * 1000.0


class GcTimer:
    """Collector time while a job runs, from ``gc.callbacks``."""

    def __init__(self) -> None:
        self.total = 0.0
        self._start = None
        gc.callbacks.append(self._callback)

    def _callback(self, phase, info) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        elif self._start is not None:
            self.total += time.perf_counter() - self._start
            self._start = None

    def close(self) -> None:
        gc.callbacks.remove(self._callback)


def host_facts() -> dict:
    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "machine": platform.machine(),
    }


# -- fresh-interpreter probes -------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def time_setup(workload: str, seed: int) -> float:
    """Seconds from launching a fresh interpreter until it has imported
    everything and set the workload up, i.e. until its first job could
    start."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, env=_child_env(),
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.close()
        code = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
    return elapsed


def time_import() -> float:
    """``import repro.cli`` in a fresh interpreter, seconds."""
    code = ("import time; t = time.perf_counter(); import repro.cli; "
            "print(time.perf_counter() - t)")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        cwd=ROOT, env=_child_env(), timeout=60, check=True,
    )
    return float(out.stdout.strip())


# -- the measured run ---------------------------------------------------------


def job_order(seed: int, kinds: int, passes: int) -> list[tuple[int, int]]:
    """``(pass, kind)`` pairs: every pass runs every kind once, in an order
    drawn from the workload seed, so host drift hits every kind alike."""
    import numpy as np

    order = []
    for p in range(passes):
        perm = np.random.default_rng([seed, p, 3]).permutation(kinds)
        order += [(p, int(k)) for k in perm]
    return order


def passes_for(workload, seconds: float) -> int:
    return max(2, round(seconds / workload.nominal_pass_s))


def scale_to_reference(jobs) -> None:
    """Store in each job its time at the reference host speed, ``ref_ms``:
    its measured time x :data:`PROBE_REF_MS` / the median host probe of the
    :data:`PROBE_WINDOW` jobs centred on it.  The host's speed drifts by a
    quarter over minutes and the probe drifts with it, so scaled times
    compare across runs where measured ones cannot."""
    probes = [j["probe_ms"] for j in jobs]
    half = PROBE_WINDOW // 2
    for i, job in enumerate(jobs):
        speed = statistics.median(probes[max(0, i - half):i + half + 1])
        job["ref_ms"] = job["ms"] * PROBE_REF_MS / speed


def job_times(jobs) -> list[float]:
    """Job times in ms at the reference host speed; a failed job counts as
    infinitely slow."""
    return [j["ref_ms"] if j["ok"] else math.inf for j in jobs]


def throughput(jobs) -> float:
    """Work completed per second of job time at the reference host speed."""
    seconds = sum(j["ref_ms"] for j in jobs) / 1000.0
    return sum(j["work"] for j in jobs if j["ok"]) / max(seconds, 1e-12)


def drift(jobs) -> dict[str, float]:
    """Host-drift diagnostics of a run: the median host probe and the mean
    collector time per job."""
    return {
        "host.probe_ms": statistics.median(j["probe_ms"] for j in jobs),
        "python.gc_s": statistics.fmean(j["gc_s"] for j in jobs),
    }


def tail(times: list[float]) -> tuple[float, float]:
    """``(value, percentile)`` of the highest percentile with at least
    :data:`TAIL_BEYOND` jobs beyond it (the maximum when too few ran)."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def measure(workload, seed: int, passes: int, trace: bool, kinds=None,
            before_pass=None) -> dict:
    """Run the workload's job list *passes* times; returns the raw record.

    *kinds* restricts the job list (the benchmark's own tests use it); with
    *trace* every odd pass runs with the hooks installed.  *before_pass(p)*
    runs untimed at the start of every pass.
    """
    from layers import Tracer, install, uninstall

    kinds = list(range(len(workload.kinds))) if kinds is None else list(kinds)
    tracer = Tracer() if trace else None
    missing: list[str] = []
    setup_trace = None
    if trace:
        patches, missing = install(tracer)
        tracer.begin("setup")
        try:
            workload.setup()
        finally:
            setup_trace = tracer.end()
            uninstall(patches)
    else:
        workload.setup()

    order = [(p, kinds[k]) for p, k in job_order(seed, len(kinds), passes)]
    gc_timer = GcTimer()
    jobs, job_traces, first = [], [], {}
    patches = None
    try:
        for index, (p, kind) in enumerate(order):
            if before_pass is not None and (index == 0 or order[index - 1][0] != p):
                before_pass(p)
            traced = trace and p % 2 == 1
            if traced and patches is None:
                patches, _ = install(tracer)
            elif not traced and patches is not None:
                uninstall(patches)
                patches = None
            ctx = workload.prepare(kind)
            probe = host_probe()
            gc.collect()
            gc_timer.total = 0.0
            job_id = f"{index}:{workload.describe(kind)}"
            if traced:
                tracer.begin(job_id)
            start = time.perf_counter()
            try:
                result, error = workload.run(ctx), None
            except Exception:
                result, error = None, traceback.format_exc()
            elapsed = time.perf_counter() - start
            if traced:
                job_traces.append(tracer.end())
            gc_s = gc_timer.total
            workload.cleanup(ctx)

            if error is None:
                digest = workload.digest(result)
                if kind in first:
                    reason = None if digest == first[kind][0] else (
                        "result differs from this job's first run")
                    reason = reason or workload.check(kind, result, False)
                else:
                    reason = workload.check(kind, result, True)
                    first[kind] = (digest, result)
            else:
                reason = "raised: " + error.strip().splitlines()[-1]
                print(error, file=sys.stderr)
            jobs.append({
                "job": job_id, "pass": p, "kind": workload.describe(kind),
                "traced": traced, "ms": elapsed * 1000.0, "ok": reason is None,
                "reason": reason, "work": workload.work(result) if error is None else 0,
                "probe_ms": probe, "gc_s": gc_s,
            })
            if reason is not None:
                print(f"job {job_id} failed its check: {reason}", file=sys.stderr)
    finally:
        if patches is not None:
            uninstall(patches)
        gc_timer.close()

    scale_to_reference(jobs)
    return {
        "jobs": jobs,
        "first": {k: v[1] for k, v in first.items()},
        "job_traces": job_traces,
        "setup_trace": setup_trace,
        "missing_hooks": missing,
        "tracer": tracer,
    }


def end_to_end(workload, record: dict, setup_s: float) -> dict[str, float]:
    jobs = record["jobs"]
    times = job_times(jobs)
    evaluations, sizes, volumes = workload.quality(record["first"])
    tail_ms, _ = tail(times)
    return {
        "setup_s": setup_s,
        "job_ms_p50": statistics.median(times),
        "job_ms_tail": tail_ms,
        "throughput_per_s": throughput(jobs),
        "evaluations_E": float(evaluations),
        "front_size_S": statistics.fmean(sizes) if sizes else 0.0,
        "hypervolume_V": statistics.fmean(volumes) if volumes else 0.0,
        "ok_frac": sum(j["ok"] for j in jobs) / len(jobs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def trace_errors(job_traces, workers: int) -> list[str]:
    """Traced jobs whose accounting breaks one of two rules.

    The layer self times on the job's thread plus ``other.self_s`` equal
    the traced job time by construction (a span's self time is its
    duration minus its children's), so that rule only guards the
    bookkeeping.  The busy time on the evaluation pool's threads can exceed
    *workers* x the job time only when spans are charged to the wrong job
    or twice.
    """
    bad = []
    for jt in job_traces:
        total = sum(jt.self_s.values()) + jt.other_s
        if abs(total - jt.wall_s) > IDENTITY_TOLERANCE or jt.other_s < -IDENTITY_TOLERANCE:
            bad.append(f"{jt.job}: layers {total:.9f}s vs job {jt.wall_s:.9f}s")
        pool = sum(jt.busy_s.values()) - sum(jt.self_s.values())
        if pool > workers * jt.wall_s + IDENTITY_TOLERANCE:
            bad.append(f"{jt.job}: {pool:.6f}s busy on pool threads, more than "
                       f"{workers} x job {jt.wall_s:.6f}s")
    return bad


def per_layer(record: dict, import_s: float) -> dict[str, float]:
    traces = record["job_traces"]
    jobs = record["jobs"]
    n = max(1, len(traces))
    busy, counts = defaultdict(float), defaultdict(float)
    for jt in traces:
        for key, value in jt.busy_s.items():
            busy[key] += value
        for key, value in jt.counts.items():
            counts[key] += value
    metrics = {"startup.import_s": import_s}
    metrics.update({m: busy[m] / n for m in JOB_TIMES})
    setup = record["setup_trace"]
    metrics.update({m: setup.busy_s.get(m, 0.0) if setup else 0.0 for m in SETUP_TIMES})
    metrics.update({m: counts[m] / n for m in JOB_COUNTS})
    for name, (num, den) in RATIOS.items():
        metrics[name] = counts[num] / counts[den] if counts[den] else 0.0

    plain = throughput([j for j in jobs if not j["traced"]])
    traced = throughput([j for j in jobs if j["traced"]])
    metrics["obs.trace_overhead_frac"] = plain / traced - 1.0 if traced else 0.0
    metrics["other.self_s"] = sum(jt.other_s for jt in traces) / n
    metrics.update(drift(jobs))
    return metrics


def _number(value: float) -> float:
    # a failed job is an infinite time; JSON has no infinity
    return value if math.isfinite(value) else 1e12


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="import and set up only, print 'ready' and exit")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    scratch = OUT / f"scratch-{os.getpid()}"
    if args.setup_probe:
        workloads.make_workload(args.workload, args.seed, scratch).setup()
        print("ready", flush=True)
        return 0

    OUT.mkdir(exist_ok=True)
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workload = workloads.make_workload(args.workload, args.seed, scratch)
    passes = passes_for(workload, args.seconds)
    # fresh-interpreter probes are spread over the passes, so setup_s and
    # the job times average the host's speed over the same stretch of time
    import_samples, setup_samples = [], []
    if args.trace:
        samples, probes = import_samples, IMPORT_PROBES
        probe = time_import
    else:
        samples, probes = setup_samples, SETUP_PROBES
        probe = lambda: time_setup(args.workload, args.seed)  # noqa: E731
    at = [i * passes // probes for i in range(probes)]

    def before_pass(p: int) -> None:
        samples.extend(probe() for _ in range(at.count(p)))

    try:
        record = measure(workload, args.seed, passes, bool(args.trace),
                         before_pass=before_pass)
    finally:
        if scratch.exists():
            import shutil

            shutil.rmtree(scratch, ignore_errors=True)

    jobs = record["jobs"]
    failed = sum(1 for j in jobs if not j["ok"])
    _, tail_pct = tail(job_times(jobs))
    problems = []
    if args.trace:
        problems += trace_errors(record["job_traces"], workload.workers)
        metrics = per_layer(record, statistics.median(import_samples))
        units = per_layer_units()
        record["tracer"].dump(OUT / f"spans-{stamp}.jsonl")
    else:
        metrics = end_to_end(workload, record, statistics.median(setup_samples))
        units = END_TO_END_UNITS
    correct = failed == 0 and not problems

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(jobs)} jobs "
          f"({passes} passes x {len(workload.kinds)} kinds), {failed} failed")
    print(f"job_ms_tail is p{tail_pct:.4g} of {len(jobs)} jobs "
          f"({min(TAIL_BEYOND, len(jobs) - 1)} beyond it)")
    for name in units:
        print(f"  {name:<28} {metrics[name]:>14.6g} {units[name]}")
    diagnostics = drift(jobs)
    print(f"  host drift: probe median {diagnostics['host.probe_ms']:.4g} ms, "
          f"gc {diagnostics['python.gc_s'] * 1000:.4g} ms per job; job times are "
          f"scaled to a {PROBE_REF_MS} ms probe, measured job p50 "
          f"{statistics.median(j['ms'] for j in jobs):.6g} ms")
    for line in record["missing_hooks"]:
        print(f"  missing hook (its metric reads 0): {line}")
    for line in problems:
        print(f"  trace accounting broken: {line}", file=sys.stderr)

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": passes, "host": host_facts(),
        "setup_samples_s": setup_samples, "import_samples_s": import_samples,
        "tail_percentile": tail_pct, "metrics": metrics, "drift": diagnostics,
        "missing_hooks": record["missing_hooks"], "problems": problems,
        "jobs": jobs,
    }
    if record["tracer"] is not None:
        detail["spans_dropped"] = record["tracer"].dropped
    (OUT / f"result-{stamp}.json").write_text(json.dumps(detail, indent=1))

    print(json.dumps({
        "correct": correct,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {
            name: {"value": _number(metrics[name]), "unit": units[name]} for name in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
