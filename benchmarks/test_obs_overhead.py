"""Observability overhead guard: disabled tracing must cost < 2 %.

Every instrumented component defaults to the shared ``DISABLED`` handle: a
``NullTracer`` and a ``NullMetricsRegistry``.  So a plain tuning run still
executes the null span/event calls, reads ``metrics.enabled`` before each
block of metric updates (and skips the block), and makes whatever metric
updates no such check guards, on the null registry's inert instrument.  A
naive A/B wall-clock comparison of two full tuning runs is noise-bound at
this effect size, so the guard is built the deterministic way:

1. benchmark a representative RS-GDE3 tuning run with observability
   disabled (the production default) — the reference wall time;
2. census the tracer touchpoints by re-running the identical workload under
   a collecting tracer on a FakeClock (same ledger, same seeds — the
   span/event counts are exact; every event is charged, though the disabled
   path skips those guarded by ``tracer.enabled``);
3. count the metric touchpoints by re-running it once more with a counting
   null registry: the ``metrics.enabled`` checks and the instrument
   look-ups (each call site updates the instrument it looks up, once);
4. microbenchmark the disabled-path primitives (null span open/close,
   null event, an ``enabled`` check, a null-registry look-up plus update);
5. assert touchpoints x primitive cost < 2 % of the reference wall time.

The runtime's per-invocation path is held to a stricter rule: on the
disabled handle, ``RegionExecutor.select()`` builds no event attributes
(no ``policy.describe()``) and looks up no metric at all.
"""

from __future__ import annotations

import time

import repro.obs
from repro.backend.meta import VersionMeta
from repro.experiments import make_setup
from repro.machine import WESTMERE
from repro.obs import FakeClock, NullMetricsRegistry, NullTracer, Observability
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


class _CountingNullRegistry(NullMetricsRegistry):
    """The disabled path's registry, counting what is asked of it: reads of
    ``enabled`` and instrument look-ups."""

    def __init__(self) -> None:
        super().__init__()
        self.checks = 0
        self.ops = 0

    @property
    def enabled(self) -> bool:
        self.checks += 1
        return False

    def _get(self, cls, name: str, help: str, **kwargs):
        self.ops += 1
        return super()._get(cls, name, help, **kwargs)


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

    # exact tracer census: identical workload, collecting tracer
    obs = Observability.tracing(clock=FakeClock(tick=1e-6))
    traced = _tune_once(obs=obs)
    assert traced.convergence == result.convergence  # same workload
    records = obs.tracer.records()
    n_spans = sum(1 for r in records if r["type"] == "span")
    n_events = sum(1 for r in records if r["type"] == "event")
    assert n_spans > 0 and n_events > 0

    # exact metric census: identical workload, disabled tracer and metrics
    registry = _CountingNullRegistry()
    counted = _tune_once(obs=Observability(metrics=registry))
    assert counted.convergence == result.convergence  # same workload
    assert registry.checks > 0

    # disabled-path primitive costs
    tracer = NullTracer()

    def null_span():
        with tracer.span("x", a=1) as s:
            s.set(b=2)

    null = NullMetricsRegistry()
    span_cost = _per_call(null_span)
    event_cost = _per_call(lambda: tracer.event("x", a=1))
    check_cost = _per_call(lambda: null.enabled)
    metric_cost = max(
        _per_call(lambda: null.counter("c_total").inc()),
        _per_call(lambda: null.gauge("g").set(1.0)),
        _per_call(lambda: null.histogram("h").observe(0.01)),
    )

    overhead = n_spans * span_cost + n_events * event_cost
    overhead += registry.checks * check_cost + registry.ops * metric_cost
    share = overhead / wall

    print_banner("Observability overhead (tracing disabled)")
    print(f"tuning wall (obs disabled):  {wall * 1e3:9.3f} ms")
    print(
        f"touchpoints:                 {n_spans} spans, {n_events} events, "
        f"{registry.checks} metrics.enabled checks, {registry.ops} metric ops"
    )
    print(
        f"primitive costs:             span={span_cost * 1e9:.0f}ns "
        f"event={event_cost * 1e9:.0f}ns check={check_cost * 1e9:.0f}ns "
        f"metric_op={metric_cost * 1e9:.0f}ns"
    )
    print(f"estimated overhead:          {overhead * 1e6:.1f} us ({share:.4%})")

    assert share < 0.02, (
        f"disabled observability costs {share:.2%} of the tuning wall time "
        "(budget: 2%)"
    )


def test_runtime_select_disabled_path_is_free(monkeypatch):
    """5,000 ``RegionExecutor.select()`` calls on the default handle, over
    a compiled, a context-sensitive and a learning policy: not one metric
    look-up and not one ``policy.describe()``."""
    registry = _CountingNullRegistry()
    monkeypatch.setattr(repro.obs.DISABLED, "metrics", registry)
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
        f"5000 selects: {registry.checks} metrics.enabled checks, "
        f"{registry.ops} metric look-ups, {len(described)} describe() calls"
    )
    assert registry.ops == 0
    assert described == []
    assert registry.checks > 0  # the counting registry was the one consulted
