"""The benchmark's workloads, driven through ``repro``'s public entry points.

Each workload has a fixed job list of *kinds* (one Table VI cell, one
multi-region program, one invocation stream).  A run repeats that list in
passes; the workload seed only orders each pass and seeds the invocation
streams.  Tuning seeds are the ``repro tune`` defaults (seed 0, run seed 0),
so E, |S| and V repeat exactly for every workload seed.

The workload protocol, used by ``run.py``:

* ``setup()`` — untimed set-up (counted in ``setup_s``);
* ``prepare(kind)`` → context, untimed, before each job;
* ``run(context)`` → result, the timed job;
* ``cleanup(context)``, untimed;
* ``check(kind, result, first)`` → None when correct, else the reason;
  *first* is set on the first run of a kind, later runs must also repeat
  the first one's ``digest(result)``;
* ``quality(results)`` → ``(E, front sizes, volumes)`` over the job list;
* ``work(result)`` → units completed, for ``throughput_per_s``.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.driver.compiler import TuningDriver
from repro.experiments import EXPERIMENT_KERNELS
from repro.frontend import get_kernel
from repro.machine import BARCELONA, WESTMERE
from repro.optimizer.hypervolume import normalized_hypervolume
from repro.runtime.monitor import RuntimeMonitor
from repro.runtime.online import BanditSelector
from repro.runtime.scheduler import RegionExecutor
from repro.runtime.selection import policy_by_name

__all__ = ["WORKLOADS", "make_workload", "check_front", "check_warm", "front_volume"]

MACHINES = (WESTMERE, BARCELONA)


# -- shared checks and quality measures ---------------------------------------


def _dominates(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def check_front(front, parameters=None) -> str | None:
    """A Pareto set is non-empty, mutually non-dominated (plain O(n²)
    pairwise test) and, given the skeleton's parameters, inside their
    bounds.  Returns None when it passes, else the reason."""
    if not front:
        return "empty front"
    for a in front:
        for b in front:
            if a is not b and _dominates(b.objectives, a.objectives):
                return f"dominated point {a.values} in the front"
    if parameters is not None:
        bounds = {p.name: p for p in parameters}
        for c in front:
            values = c.as_dict()
            if set(values) != set(bounds):
                return f"parameters {sorted(values)} differ from the skeleton's"
            for name, v in values.items():
                p = bounds[name]
                inside = v in p.choices if p.choices else p.lo <= v <= p.hi
                if not inside:
                    return f"{name}={v} outside the skeleton's bounds"
    return None


#: Fixed ideal/nadir box per tuned region for V(S), as ``((ideal time,
#: ideal resources), (nadir time, nadir resources))``.  Taken from the fronts
#: the job lists produce with the tuning seeds above: 0.8 x the front's
#: minimum and 1.25 x its maximum per objective, rounded outwards to three
#: digits.  Fixed boxes make V move when a change shifts or scales the
#: fronts, not only when it changes their shape; runtime-invoke tunes the
#: Westmere cells of table6-cold and shares their boxes.
REFERENCE_BOXES = {
    "mm/Westmere": ((0.0393, 0.987), (0.772, 2.47)),
    "dsyrk/Westmere": ((0.0381, 0.978), (1.53, 2.39)),
    "jacobi2d/Westmere": ((0.462, 4.58), (7.16, 28.9)),
    "stencil3d/Westmere": ((0.0146, 0.219), (0.344, 0.919)),
    "nbody/Westmere": ((0.367, 10.0), (15.8, 23.0)),
    "mm/Barcelona": ((0.0695, 1.01), (1.6, 3.48)),
    "dsyrk/Barcelona": ((0.0681, 1.0), (1.58, 3.41)),
    "jacobi2d/Barcelona": ((0.817, 7.87), (12.3, 40.9)),
    "stencil3d/Barcelona": ((0.0256, 0.249), (0.391, 1.29)),
    "nbody/Barcelona": ((0.678, 10.3), (16.3, 34.0)),
    "jacobi2d/Westmere/region0": ((0.462, 4.53), (7.1, 29.0)),
    "jacobi2d/Westmere/region1": ((0.441, 4.33), (6.78, 27.6)),
    "jacobi2d/Barcelona/region0": ((0.821, 7.79), (12.2, 41.1)),
    "jacobi2d/Barcelona/region1": ((0.779, 7.56), (11.9, 39.0)),
    "2mm/Westmere/region0": ((0.00993, 0.268), (0.419, 0.621)),
    "2mm/Westmere/region1": ((0.00962, 0.259), (0.406, 0.602)),
    "2mm/Barcelona/region0": ((0.0207, 0.302), (0.473, 1.04)),
    "2mm/Barcelona/region1": ((0.0181, 0.271), (0.424, 0.91)),
}


def front_volume(front, region: str) -> float:
    """V(S) of one region's front: the Table VI normaliser applied with the
    region's fixed box from :data:`REFERENCE_BOXES`."""
    ideal, nadir = REFERENCE_BOXES[region]
    objs = np.array([c.objectives for c in front], dtype=float)
    return float(normalized_hypervolume(objs, np.array(ideal), np.array(nadir)))


def _front_key(front) -> tuple:
    return tuple((c.values, c.objectives) for c in front)


def _digest(*parts) -> str:
    return hashlib.sha1(repr(parts).encode()).hexdigest()[:16]


# -- table6-cold --------------------------------------------------------------


@dataclass(frozen=True)
class _Tuned:
    evaluations: int
    front: tuple
    parameters: tuple


class Table6Cold:
    """RS-GDE3 ``tune_kernel`` over the 10 Table VI cells: default
    settings, ``workers=1``, no disk cache, a fresh driver per job."""

    name = "table6-cold"
    nominal_pass_s = 2.0
    workers = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.kinds = [(k, m) for m in MACHINES for k in EXPERIMENT_KERNELS]

    def describe(self, kind: int) -> str:
        kernel, machine = self.kinds[kind]
        return f"{kernel}/{machine.name}"

    def setup(self) -> None:
        pass

    def prepare(self, kind: int):
        return kind

    def run(self, kind: int) -> _Tuned:
        kernel, machine = self.kinds[kind]
        tuned = TuningDriver(machine=machine, workers=self.workers).tune_kernel(kernel)
        return _Tuned(
            tuned.result.evaluations, tuned.result.front, tuned.skeleton.parameters
        )

    def cleanup(self, kind: int) -> None:
        pass

    def check(self, kind: int, result: _Tuned, first: bool) -> str | None:
        return check_front(result.front, result.parameters)

    def digest(self, result: _Tuned) -> str:
        return _digest(result.evaluations, _front_key(result.front))

    def quality(self, results: dict) -> tuple[int, list, list]:
        return (
            sum(r.evaluations for r in results.values()),
            [len(r.front) for r in results.values()],
            [front_volume(r.front, self.describe(k)) for k, r in results.items()],
        )

    def work(self, result) -> int:
        return 1


# -- multiregion-cache --------------------------------------------------------


def check_warm(cold, warm) -> str | None:
    """The warm re-tune is served entirely from disk and repeats the cold
    half's fronts and per-region E."""
    if warm.engine_stats is None or warm.engine_stats.dispatched != 0:
        dispatched = None if warm.engine_stats is None else warm.engine_stats.dispatched
        return f"warm re-tune dispatched {dispatched} configurations"
    if [r.evaluations for r in warm.results] != [r.evaluations for r in cold.results]:
        return "warm per-region E differs from the cold half"
    if [_front_key(r.front) for r in warm.results] != [
        _front_key(r.front) for r in cold.results
    ]:
        return "warm fronts differ from the cold half"
    for r in cold.results:
        reason = check_front(r.front)
        if reason:
            return reason
    return None


class MultiregionCache:
    """``tune_multiregion`` of a two-region program at ``workers=2`` into a
    fresh cache directory, then the warm ``--cache-dir`` re-tune from it;
    both halves are one job."""

    name = "multiregion-cache"
    nominal_pass_s = 2.4
    workers = 2

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch
        self.kinds = [(p, m) for p in ("jacobi2d", "2mm") for m in MACHINES]

    def describe(self, kind: int) -> str:
        program, machine = self.kinds[kind]
        return f"{program}/{machine.name}"

    def setup(self) -> None:
        pass

    def prepare(self, kind: int):
        self.scratch.mkdir(parents=True, exist_ok=True)
        return kind, tempfile.mkdtemp(prefix="cache-", dir=self.scratch)

    def run(self, ctx):
        kind, cache_dir = ctx
        program, machine = self.kinds[kind]
        kernel = get_kernel(program)
        halves = []
        for _ in ("cold", "warm"):
            driver = TuningDriver(machine=machine, workers=self.workers, cache_dir=cache_dir)
            halves.append(
                driver.tune_multiregion(kernel.function, kernel.default_size, kernel=kernel)
            )
        return tuple(halves)

    def cleanup(self, ctx) -> None:
        shutil.rmtree(ctx[1], ignore_errors=True)

    def check(self, kind: int, result, first: bool) -> str | None:
        return check_warm(*result)

    def digest(self, result) -> str:
        cold, _ = result
        return _digest([(r.evaluations, _front_key(r.front)) for r in cold.results])

    def quality(self, results: dict) -> tuple[int, list, list]:
        regions = [
            (f"{self.describe(kind)}/region{i}", r)
            for kind, (cold, _) in results.items()
            for i, r in enumerate(cold.results)
        ]
        return (
            sum(r.evaluations for _, r in regions),
            [r.size for _, r in regions],
            [front_volume(r.front, name) for name, r in regions],
        )

    def work(self, result) -> int:
        return 1


# -- runtime-invoke -----------------------------------------------------------

POLICIES = ("balanced", "thread_cap", "bandit")
BANDIT = POLICIES.index("bandit")
#: available cores per invocation, drawn uniformly like the core choices of
#: the repository's dispatch-throughput benchmark
CORE_CHOICES = (1, 2, 4, 8, 16)
#: sigma of the lognormal factor between a version's tuned time and its
#: observed time: ``SimulatedTarget``'s default measurement noise
OBSERVED_NOISE = 0.015


@dataclass(frozen=True)
class Stream:
    """One job's seeded invocation stream (plain lists, so the timed loop
    touches no NumPy scalars)."""

    regions: list
    policies: list
    cores: list
    factors: list
    #: invocation indices whose selection is checked against the oracle
    sample: frozenset


class RuntimeInvoke:
    """Replays seeded region-invocation streams through the runtime:
    ``set_available_cores`` → ``RegionExecutor.select`` →
    ``RuntimeMonitor.record`` (→ ``BanditSelector.observe``), with
    ``recalibrate`` every few hundred invocations.  Region bodies are not
    run in the timed loop; set-up runs every version once instead."""

    name = "runtime-invoke"
    nominal_pass_s = 1.25
    workers = 1
    machine = WESTMERE
    jobs_per_pass = 10
    #: stream length and recalibration cadence are the benchmark's own
    #: choices; NOTES.md records how throughput depends on them
    invocations = 5000
    recalibrate_every = 250
    oracle_sample = 64

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.kinds = list(range(self.jobs_per_pass))
        self.tuned = []
        self.tables = []
        self.setup_failures: list[str] = []

    def describe(self, kind: int) -> str:
        return f"stream{kind}"

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        for name in EXPERIMENT_KERNELS:
            tuned = TuningDriver(machine=self.machine).tune_kernel(name)
            table = tuned.build_version_table()
            kernel = get_kernel(name)
            inputs = kernel.make_inputs(kernel.test_size, rng)
            expected = kernel.reference(inputs, kernel.test_size)
            for version in table:
                arrays = {k: v.copy() for k, v in inputs.items()}
                version(arrays, kernel.test_size)
                for out in kernel.output_arrays:
                    if not np.allclose(arrays[out], expected[out]):
                        self.setup_failures.append(
                            f"{name} version {version.meta.index}: {out} differs "
                            "from kernel.reference"
                        )
            self.tuned.append(tuned)
            self.tables.append(table)
        # observed time of a version comes from its tuned (not recalibrated)
        # prediction, so streams replay identically
        self.base_times = [[v.meta.time for v in t] for t in self.tables]

    def stream(self, kind: int) -> Stream:
        rng = np.random.default_rng([self.seed, kind, 2])
        n = self.invocations
        return Stream(
            regions=rng.integers(0, len(self.tables), n).tolist(),
            policies=rng.integers(0, len(POLICIES), n).tolist(),
            cores=rng.choice(CORE_CHOICES, n).tolist(),
            factors=rng.lognormal(0.0, OBSERVED_NOISE, n).tolist(),
            sample=frozenset(rng.choice(n, self.oracle_sample, replace=False).tolist()),
        )

    def fresh_state(self, kind: int):
        """Per-job runtime state: one monitor per region shared by that
        region's three executors (compiled ``balanced``, context-sensitive
        ``thread_cap``, stateful bandit)."""
        monitors, executors = [], []
        for r, table in enumerate(self.tables):
            monitor = RuntimeMonitor()
            bandit = BanditSelector(seed=self.seed * 1000 + kind * 10 + r)
            monitors.append(monitor)
            executors.append([
                RegionExecutor(table, policy_by_name("balanced"), monitor=monitor),
                RegionExecutor(table, policy_by_name("thread_cap"), monitor=monitor),
                RegionExecutor(table, bandit, monitor=monitor),
            ])
        return monitors, executors

    def prepare(self, kind: int):
        return kind, self.stream(kind), self.fresh_state(kind)

    def replay(self, stream: Stream, state, oracle: dict | None = None) -> list:
        """Drive one stream through the runtime; returns the chosen version
        index per invocation.  With *oracle*, the scalar
        ``policy.select(table, context)`` choice at each sampled invocation
        is stored in it."""
        monitors, executors = state
        base_times = self.base_times
        chosen = []
        every = self.recalibrate_every
        for i, (r, p, cores, factor) in enumerate(
            zip(stream.regions, stream.policies, stream.cores, stream.factors)
        ):
            monitor = monitors[r]
            monitor.set_available_cores(cores)
            executor = executors[r][p]
            version = executor.select()
            meta = version.meta
            if oracle is not None and i in stream.sample:
                policy, table = executor.policy, executor.table
                pick = policy.select_scalar if p == BANDIT else policy.select
                oracle[i] = pick(table, monitor.context()).meta.index
            wall = base_times[r][meta.index] * factor
            monitor.record(executor.table.region_name, meta.index, meta.threads,
                           meta.time, wall)
            if p == BANDIT:
                executor.policy.observe(meta.index, wall)
            chosen.append(meta.index)
            if (i + 1) % every == 0:
                for ex in executors[(i // every) % len(executors)]:
                    ex.recalibrate()
        return chosen

    def run(self, ctx) -> list:
        kind, stream, state = ctx
        return self.replay(stream, state)

    def cleanup(self, ctx) -> None:
        pass

    def check(self, kind: int, chosen: list, first: bool) -> str | None:
        if self.setup_failures:
            return "set-up check failed: " + self.setup_failures[0]
        if not first:
            return None  # run.py compares it with the first, checked run
        return self.check_selections(kind, chosen)

    def check_selections(self, kind: int, chosen: list) -> str | None:
        """Replay the stream untimed with fresh state; every selection must
        repeat and each sampled one must equal the scalar oracle."""
        stream = self.stream(kind)
        oracle: dict[int, int] = {}
        again = self.replay(stream, self.fresh_state(kind), oracle)
        for i in sorted(stream.sample):
            if chosen[i] != oracle[i]:
                return (f"invocation {i}: selected version {chosen[i]}, "
                        f"oracle selects {oracle[i]}")
        if again != chosen:
            return "replayed selections differ from the timed run"
        return None

    def digest(self, chosen: list) -> str:
        return _digest(chosen)

    def quality(self, results: dict) -> tuple[int, list, list]:
        fronts = [t.result.front for t in self.tuned]
        return (
            sum(t.result.evaluations for t in self.tuned),
            [len(f) for f in fronts],
            [front_volume(f, f"{name}/{self.machine.name}")
             for name, f in zip(EXPERIMENT_KERNELS, fronts)],
        )

    def work(self, chosen: list) -> int:
        return len(chosen)


WORKLOADS = ("table6-cold", "multiregion-cache", "runtime-invoke")


def make_workload(name: str, seed: int, scratch: Path):
    if name == "table6-cold":
        return Table6Cold(seed)
    if name == "multiregion-cache":
        return MultiregionCache(seed, scratch)
    if name == "runtime-invoke":
        return RuntimeInvoke(seed)
    raise KeyError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
