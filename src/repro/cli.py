"""Command-line interface.

::

    python -m repro kernels
    python -m repro machines
    python -m repro tune mm --machine westmere --emit-c mm_tuned.c
    python -m repro tune mm --size N=700 --energy --optimizer rsgde3 --json out.json
    python -m repro tune mm --trace out.jsonl --metrics
    python -m repro tune-file kernel.c --size N=1400 --machine barcelona
    python -m repro tune-file program.c --multiregion --size N=800 --workers 8
    python -m repro trace out.jsonl

The ``tune`` commands run the full pipeline (analysis → RS-GDE3 →
multi-versioning) against a simulated target machine and print the Pareto
summary; ``--emit-c`` additionally writes the multi-versioned C translation
unit and ``--json`` the machine-readable result.  ``--trace FILE`` records
an end-to-end JSONL trace (driver phases, optimizer generations, engine
batches, runtime selections) and ``--metrics`` prints the run's metrics in
Prometheus text format; ``repro trace FILE`` summarizes a recorded trace.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

# only what the parser needs is imported here; each subcommand imports
# its own dependencies, so a command loads no module it does not use
from repro.evaluation.disk_cache import DEFAULT_CACHE_DIR
from repro.frontend.kernels import ALL_KERNELS, get_kernel

if TYPE_CHECKING:
    from repro.obs import Observability

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multi-objective auto-tuning framework (SC'12 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("kernels", help="list the registered benchmark kernels")
    sub.add_parser("machines", help="list the simulated target machines")

    def add_cache_options(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--cache-dir",
            nargs="?",
            const=DEFAULT_CACHE_DIR,
            default=None,
            metavar="DIR",
            help="persist measurements across runs in DIR (bare flag uses "
            f"{DEFAULT_CACHE_DIR}); repeated runs serve cached "
            "configurations from disk without re-evaluating the model",
        )
        p.add_argument(
            "--no-cache",
            action="store_true",
            help="ignore --cache-dir (force every measurement to recompute)",
        )

    def add_obs_options(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--trace",
            metavar="FILE",
            help="record an end-to-end JSONL trace here (summarize it "
            "later with 'repro trace FILE')",
        )
        p.add_argument(
            "--metrics",
            action="store_true",
            help="print the run's metrics (Prometheus text format) at the end",
        )

    report = sub.add_parser(
        "report", help="run the fast reproduction subset, write markdown"
    )
    report.add_argument("--out", metavar="FILE", help="write here instead of stdout")
    report.add_argument("--seed", type=int, default=0)
    report.add_argument("--repetitions", type=int, default=3)
    report.add_argument(
        "--workers",
        default="1",
        metavar="N",
        help="evaluation-engine workers (integer or 'auto' = 3/4 of cores)",
    )
    add_obs_options(report)
    add_cache_options(report)

    trace = sub.add_parser(
        "trace", help="summarize a JSONL trace recorded with --trace"
    )
    trace.add_argument("path", help="trace file written by --trace")

    def add_tune_options(p: argparse.ArgumentParser) -> None:
        add_obs_options(p)
        add_cache_options(p)
        p.add_argument("--machine", default="westmere", help="westmere | barcelona")
        p.add_argument(
            "--size",
            action="append",
            default=[],
            metavar="NAME=VALUE",
            help="problem-size binding (repeatable), e.g. --size N=700",
        )
        p.add_argument(
            "--optimizer",
            default="rsgde3",
            choices=["rsgde3", "nsga2", "random"],
        )
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--workers",
            default="1",
            metavar="N",
            help="evaluation thread pool of up to N workers (integer or "
            "'auto' = 3/4 of cores), used only where it overlaps waits "
            "(per-configuration latency on the target); results are "
            "bit-identical to the serial default",
        )
        p.add_argument(
            "--engine-stats",
            action="store_true",
            help="print evaluation-engine accounting after tuning",
        )
        p.add_argument(
            "--energy",
            action="store_true",
            help="tune (time, resources, energy) instead of (time, resources)",
        )
        p.add_argument(
            "--multiregion",
            action="store_true",
            help="tune every region of the program simultaneously through "
            "the fused cross-region scheduler (one shared worker pool, "
            "program runs amortized across regions); rsgde3 only",
        )
        p.add_argument(
            "--pipeline",
            action="store_true",
            help="with --multiregion: let a region that finishes its "
            "generation early run up to one generation ahead of slower "
            "regions (results stay bit-identical)",
        )
        p.add_argument("--emit-c", metavar="FILE", help="write multi-versioned C here")
        p.add_argument("--json", metavar="FILE", help="write the result as JSON here")

    tune = sub.add_parser("tune", help="tune a registered kernel")
    tune.add_argument("kernel", choices=sorted(ALL_KERNELS))
    add_tune_options(tune)

    tune_file = sub.add_parser("tune-file", help="tune a C-like source file")
    tune_file.add_argument("path", help="file with one kernel function")
    add_tune_options(tune_file)

    return parser


def _parse_workers(value: str) -> int | str:
    if value == "auto":
        return "auto"
    try:
        workers = int(value)
    except ValueError:
        raise SystemExit(
            f"--workers expects an integer or 'auto', got {value!r}"
        ) from None
    if workers < 1:
        raise SystemExit("--workers must be >= 1")
    return workers


def _build_obs(args) -> Observability | None:
    """One observability handle per invocation: a collecting tracer when
    ``--trace`` or ``--metrics`` was given (a bare ``--metrics`` folds the
    events of a trace that is never written), and None (fully disabled)
    otherwise."""
    from repro.obs import Observability

    if not (getattr(args, "trace", None) or getattr(args, "metrics", False)):
        return None
    if args.trace:
        # fail before the (long) run, not after it — a clear error beats a
        # stack trace once the tuning time is already spent
        try:
            with open(args.trace, "w"):
                pass
        except OSError as exc:
            raise SystemExit(f"cannot write trace file {args.trace}: {exc}") from None
    return Observability.tracing()


def _finish_obs(args, obs: Observability | None, meta: dict, out) -> None:
    """Write the trace file and/or print the metrics folded from it after
    a traced run."""
    from repro.obs import TraceError

    if obs is None:
        return
    if getattr(args, "trace", None):
        try:
            n = obs.tracer.write_jsonl(args.trace, meta=meta)
        except TraceError as exc:
            raise SystemExit(str(exc)) from None
        print(f"wrote {args.trace} ({n} trace records)", file=out)
    if getattr(args, "metrics", False):
        print(obs.metrics.exposition(), file=out, end="")


def _parse_sizes(entries: list[str]) -> dict[str, int]:
    sizes = {}
    for entry in entries:
        if "=" not in entry:
            raise SystemExit(f"--size expects NAME=VALUE, got {entry!r}")
        name, _, value = entry.partition("=")
        try:
            sizes[name.strip()] = int(value)
        except ValueError:
            raise SystemExit(f"--size value must be an integer: {entry!r}") from None
    return sizes


def _cmd_kernels(out) -> int:
    from repro.util.tables import Table

    t = Table(["kernel", "tuned loops", "computation", "memory", "default size"])
    for name in sorted(ALL_KERNELS):
        k = get_kernel(name)
        t.add_row(
            [
                name,
                ",".join(k.tile_loops),
                k.complexity[0],
                k.complexity[1],
                " ".join(f"{a}={b}" for a, b in k.default_size.items()),
            ]
        )
    print(t.render(), file=out)
    return 0


def _cmd_machines(out) -> int:
    from repro.machine.model import BARCELONA, WESTMERE
    from repro.util.tables import Table

    t = Table(["machine", "sockets x cores", "L1/L2/L3", "thread counts"])
    for m in (WESTMERE, BARCELONA):
        t.add_row(
            [
                m.name,
                f"{m.sockets} x {m.cores_per_socket}",
                f"{m.level('L1').size // 1024}K/{m.level('L2').size // 1024}K/"
                f"{m.level('L3').size // (1024 * 1024)}M",
                ",".join(map(str, m.default_thread_counts())),
            ]
        )
    print(t.render(), file=out)
    return 0


def _cache_dir(args) -> str | None:
    if getattr(args, "no_cache", False):
        return None
    return getattr(args, "cache_dir", None)


def _cmd_tune(args, out) -> int:
    from repro.driver.compiler import TuningDriver
    from repro.machine.model import machine_by_name

    machine = machine_by_name(args.machine)
    obs = _build_obs(args)
    driver = TuningDriver(
        machine=machine,
        seed=args.seed,
        workers=_parse_workers(args.workers),
        obs=obs,
        cache_dir=_cache_dir(args),
    )
    sizes = _parse_sizes(args.size)

    if args.multiregion:
        return _cmd_tune_multiregion(args, out, machine, obs, driver, sizes)
    if args.pipeline:
        raise SystemExit("--pipeline requires --multiregion")

    if args.command == "tune":
        tuned = driver.tune_kernel(
            args.kernel,
            sizes=sizes or None,
            optimizer=args.optimizer,
            run_seed=args.seed,
            with_energy=args.energy,
        )
    else:
        source = Path(args.path).read_text()
        if not sizes:
            raise SystemExit("tune-file requires --size bindings for the symbolic extents")
        tuned = driver.tune_source(
            source, sizes=sizes, optimizer=args.optimizer, run_seed=args.seed
        )

    if args.trace:
        # exercise the runtime layer so the trace is end to end: one
        # selection decision per core policy against the tuned table
        tuned.preview_selections()

    print(tuned.summary(), file=out)

    stats = tuned.engine_stats
    if args.engine_stats and stats is not None:
        print(
            f"engine: workers={tuned.engine.max_workers} {stats.summary()}",
            file=out,
        )
        if driver.disk_cache is not None:
            print(driver.disk_cache.summary(), file=out)

    if args.emit_c:
        unit = tuned.emit_c()
        Path(args.emit_c).write_text(unit.source)
        print(f"wrote {args.emit_c} ({len(unit.versions)} versions)", file=out)

    if args.json:
        payload = {
            "kernel": tuned.name,
            "machine": machine.name,
            "optimizer": args.optimizer,
            "evaluations": tuned.result.evaluations,
            "generations": tuned.result.generations,
            "baseline_time": tuned.baseline_time,
            "sequential_time": tuned.sequential_time,
            "front": [
                {
                    "values": dict(c.values),
                    "objectives": list(c.objectives),
                }
                for c in tuned.result.front
            ],
        }
        if stats is not None:
            payload["engine"] = {
                "workers": tuned.engine.max_workers,
                **stats.as_dict(),
            }
        Path(args.json).write_text(json.dumps(payload, indent=1))
        print(f"wrote {args.json}", file=out)

    _finish_obs(
        args,
        obs,
        meta={
            "command": args.command,
            "kernel": tuned.name,
            "machine": machine.name,
            "optimizer": args.optimizer,
            "seed": args.seed,
            "workers": str(args.workers),
        },
        out=out,
    )
    return 0


def _cmd_tune_multiregion(args, out, machine, obs, driver, sizes) -> int:
    """``tune --multiregion`` / ``tune-file --multiregion``: all regions
    of the program at once through the fused cross-region scheduler."""
    if args.optimizer != "rsgde3":
        raise SystemExit(
            f"--multiregion tunes with rsgde3 only (got --optimizer {args.optimizer})"
        )
    if args.energy:
        raise SystemExit("--multiregion does not support --energy yet")
    if args.emit_c:
        raise SystemExit("--multiregion does not support --emit-c yet")

    if args.command == "tune":
        from repro.frontend.kernels import get_kernel

        kernel = get_kernel(args.kernel)
        fn, merged, name = kernel.function, kernel.sizes(sizes or None), args.kernel
    else:
        from repro.frontend.parser import parse_function

        if not sizes:
            raise SystemExit(
                "tune-file requires --size bindings for the symbolic extents"
            )
        fn = parse_function(Path(args.path).read_text())
        merged, name = sizes, fn.name

    result = driver.tune_multiregion(
        fn, merged, run_seed=args.seed, pipeline=args.pipeline
    )

    print(f"{name} on {machine.name}: {len(result.results)} regions", file=out)
    print(result.summary(), file=out)
    if args.engine_stats and result.engine_stats is not None:
        print(f"engine: workers={args.workers} {result.engine_stats.summary()}", file=out)
        if driver.disk_cache is not None:
            print(driver.disk_cache.summary(), file=out)

    if args.json:
        payload = {
            "kernel": name,
            "machine": machine.name,
            "optimizer": args.optimizer,
            "multiregion": True,
            "pipeline": args.pipeline,
            "program_runs": result.program_runs,
            "generations": result.generations,
            "sharing_factor": result.sharing_factor,
            "regions": [
                {
                    "evaluations": r.evaluations,
                    "generations": r.generations,
                    "front": [
                        {
                            "values": dict(c.values),
                            "objectives": list(c.objectives),
                        }
                        for c in r.front
                    ],
                }
                for r in result.results
            ],
        }
        if result.engine_stats is not None:
            payload["engine"] = {
                "workers": str(args.workers),
                **result.engine_stats.as_dict(),
            }
        Path(args.json).write_text(json.dumps(payload, indent=1))
        print(f"wrote {args.json}", file=out)

    _finish_obs(
        args,
        obs,
        meta={
            "command": args.command,
            "kernel": name,
            "machine": machine.name,
            "optimizer": args.optimizer,
            "multiregion": "true",
            "seed": args.seed,
            "workers": str(args.workers),
        },
        out=out,
    )
    return 0


def _cmd_report(args, out) -> int:
    from repro.report import generate_report

    obs = _build_obs(args)
    text = generate_report(
        repetitions=args.repetitions,
        seed=args.seed,
        workers=_parse_workers(args.workers),
        obs=obs,
        cache_dir=_cache_dir(args),
    )
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}", file=out)
    else:
        print(text, file=out)
    _finish_obs(
        args,
        obs,
        meta={"command": "report", "seed": args.seed, "workers": str(args.workers)},
        out=out,
    )
    return 0


def _cmd_trace(args, out) -> int:
    from repro.obs import TraceError, trace_summary_for_path

    try:
        print(trace_summary_for_path(args.path), file=out)
    except TraceError as exc:
        raise SystemExit(str(exc)) from None
    return 0


def main(argv: list[str] | None = None, out=sys.stdout) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "kernels":
            return _cmd_kernels(out)
        if args.command == "machines":
            return _cmd_machines(out)
        if args.command == "report":
            return _cmd_report(args, out)
        if args.command == "trace":
            return _cmd_trace(args, out)
        return _cmd_tune(args, out)
    except BrokenPipeError:
        # downstream closed early (| head, | less q) — not an error; point
        # stdout at devnull so the interpreter's exit flush stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
