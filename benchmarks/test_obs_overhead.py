"""Observability overhead guard: disabled tracing must cost < 2 %.

Every instrumented component defaults to the shared ``DISABLED`` handle,
whose tracer is a ``NullTracer``.  Metrics are folded from recorded events
after a run, so the disabled path holds no metric code at all; a plain
tuning run still executes the null span calls and reads ``tracer.enabled``
before each event site (and skips the event).  A naive A/B wall-clock
comparison of two full tuning runs is noise-bound at this effect size, so
the guard is built the deterministic way:

1. benchmark a representative RS-GDE3 tuning run with observability
   disabled (the production default) — the reference wall time;
2. census the disabled path by re-running the identical workload under a
   counting null tracer (same ledger, same seeds — the counts are exact):
   its ``enabled`` checks, null span opens and null events;
3. microbenchmark the disabled-path primitives (null span open/close,
   null event, an ``enabled`` check);
4. assert touchpoints x primitive cost < 2 % of the reference wall time.

The runtime's per-invocation path is held to a stricter rule: on the
disabled handle, ``RegionExecutor.select()`` builds no event attributes
(no ``policy.describe()``) and records no event at all.
"""

from __future__ import annotations

import time

import repro.obs
from repro.backend.meta import VersionMeta
from repro.experiments import make_setup
from repro.machine import WESTMERE
from repro.obs import NullTracer, Observability
from repro.optimizer import RSGDE3
from repro.optimizer.gde3 import GDE3Settings
from repro.optimizer.rsgde3 import RSGDE3Settings
from repro.runtime import (
    BanditSelector,
    RegionExecutor,
    RuntimeMonitor,
    ThreadCapPolicy,
    Version,
    VersionTable,
    WeightedSumPolicy,
)

from conftest import print_banner

_SETTINGS = RSGDE3Settings(gde3=GDE3Settings(population_size=16), max_generations=8)


class _CountingNullTracer(NullTracer):
    """The disabled path's tracer, counting what is asked of it: reads of
    ``enabled``, span opens and events."""

    def __init__(self) -> None:
        self.checks = 0
        self.spans = 0
        self.events = 0

    @property
    def enabled(self) -> bool:
        self.checks += 1
        return False

    def span(self, name: str, **attrs):
        self.spans += 1
        return super().span(name, **attrs)

    def event(self, name: str, **attrs) -> None:
        self.events += 1


def _tune_once(obs: Observability | None = None):
    problem = make_setup("mm", WESTMERE).problem(seed=7, obs=obs)
    return RSGDE3(problem, _SETTINGS).run(seed=3)


def _per_call(fn, n: int = 50_000) -> float:
    t0 = time.perf_counter()
    for _ in range(n):
        fn()
    return (time.perf_counter() - t0) / n


def test_disabled_observability_under_2_percent(benchmark):
    result = benchmark(_tune_once)
    assert result.evaluations > 0
    wall = benchmark.stats["mean"]

    # exact census of the disabled path: identical workload, counting tracer
    tracer = _CountingNullTracer()
    counted = _tune_once(obs=Observability(tracer=tracer))
    assert counted.convergence == result.convergence  # same workload
    assert tracer.spans > 0 and tracer.checks > 0

    # disabled-path primitive costs
    null = NullTracer()

    def null_span():
        with null.span("x", a=1) as s:
            s.set(b=2)

    span_cost = _per_call(null_span)
    event_cost = _per_call(lambda: null.event("x", a=1))
    check_cost = _per_call(lambda: null.enabled)

    overhead = tracer.spans * span_cost + tracer.events * event_cost
    overhead += tracer.checks * check_cost
    share = overhead / wall

    print_banner("Observability overhead (tracing disabled)")
    print(f"tuning wall (obs disabled):  {wall * 1e3:9.3f} ms")
    print(
        f"touchpoints:                 {tracer.spans} spans, {tracer.events} events, "
        f"{tracer.checks} tracer.enabled checks"
    )
    print(
        f"primitive costs:             span={span_cost * 1e9:.0f}ns "
        f"event={event_cost * 1e9:.0f}ns check={check_cost * 1e9:.0f}ns"
    )
    print(f"estimated overhead:          {overhead * 1e6:.1f} us ({share:.4%})")

    assert share < 0.02, (
        f"disabled observability costs {share:.2%} of the tuning wall time "
        "(budget: 2%)"
    )


def test_runtime_select_disabled_path_is_free(monkeypatch):
    """5,000 ``RegionExecutor.select()`` calls on the default handle, over
    a compiled, a context-sensitive and a learning policy: not one event
    built and not one ``policy.describe()``."""
    tracer = _CountingNullTracer()
    monkeypatch.setattr(repro.obs.DISABLED, "tracer", tracer)
    described = []
    for cls in (WeightedSumPolicy, ThreadCapPolicy, BanditSelector):
        monkeypatch.setattr(cls, "describe", lambda self: described.append(self))

    metas = [
        VersionMeta(index=i, time=0.01 * (16 - i), resources=0.01 * (16 - i) * t,
                    threads=t, tile_sizes=())
        for i, t in enumerate([1, 2, 4, 8] * 4)
    ]
    table = VersionTable("mm", tuple(Version(meta=m) for m in metas))
    monitor = RuntimeMonitor()
    bandit = BanditSelector(seed=1)
    executors = [
        RegionExecutor(table, policy, monitor=monitor)
        for policy in (WeightedSumPolicy(), ThreadCapPolicy(), bandit)
    ]
    for i in range(5000):
        monitor.set_available_cores((1, 2, 4, 8, 16)[i % 5])
        version = executors[i % 3].select()
        if i % 3 == 2:
            bandit.observe(version.meta.index, version.meta.time)

    print_banner("Runtime selection, disabled observability")
    print(
        f"5000 selects: {tracer.checks} tracer.enabled checks, "
        f"{tracer.events} events, {len(described)} describe() calls"
    )
    assert tracer.events == 0
    assert described == []
    assert tracer.checks == 5000  # the counting tracer was the one consulted
