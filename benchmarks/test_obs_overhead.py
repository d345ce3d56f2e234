"""Observability overhead guard: disabled tracing must cost < 2 %.

Every instrumented component defaults to the shared ``DISABLED`` handle, so
a plain tuning run still executes the NullTracer span/event calls and the
(always-on) metric updates.  A naive A/B wall-clock comparison of two full
tuning runs is noise-bound at this effect size, so the guard is built the
deterministic way:

1. benchmark a representative RS-GDE3 tuning run with observability
   disabled (the production default) — the reference wall time;
2. census the instrumentation touchpoints by re-running the identical
   workload under a collecting tracer on a FakeClock (same ledger, same
   seeds — the span/event counts are exact, not estimates);
3. microbenchmark the disabled-path primitives (null span open/close,
   null event, counter/gauge/histogram updates);
4. assert touchpoints x primitive cost < 2 % of the reference wall time.
"""

from __future__ import annotations

import time

from repro.experiments import make_setup
from repro.machine import WESTMERE
from repro.obs import FakeClock, MetricsRegistry, NullTracer, Observability
from repro.optimizer import RSGDE3
from repro.optimizer.gde3 import GDE3Settings
from repro.optimizer.rsgde3 import RSGDE3Settings

from conftest import print_banner

_SETTINGS = RSGDE3Settings(gde3=GDE3Settings(population_size=16), max_generations=8)

#: generous upper bounds on metric updates per touchpoint (the engine does
#: ~10 counter/histogram operations per ``engine.batch`` event,
#: emit_generation 4 per event; rounding both up keeps the bound
#: conservative)
_METRIC_OPS_PER_SPAN = 16
_METRIC_OPS_PER_BATCH = 16
_METRIC_OPS_PER_EVENT = 8


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

    # exact touchpoint census: identical workload, collecting tracer
    obs = Observability.tracing(clock=FakeClock(tick=1e-6))
    traced = _tune_once(obs=obs)
    assert traced.convergence == result.convergence  # same workload
    records = obs.tracer.records()
    n_spans = sum(1 for r in records if r["type"] == "span")
    n_batches = sum(
        1 for r in records if r["type"] == "event" and r["name"] == "engine.batch"
    )
    n_events = sum(1 for r in records if r["type"] == "event") - n_batches
    assert n_spans > 0 and n_batches > 0 and n_events > 0

    # disabled-path primitive costs
    tracer = NullTracer()

    def null_span():
        with tracer.span("x", a=1) as s:
            s.set(b=2)

    registry = MetricsRegistry()
    counter = registry.counter("c_total")
    gauge = registry.gauge("g")
    histogram = registry.histogram("h")

    span_cost = _per_call(null_span)
    event_cost = _per_call(lambda: tracer.event("x", a=1))
    metric_cost = max(
        _per_call(counter.inc),
        _per_call(lambda: gauge.set(1.0)),
        _per_call(lambda: histogram.observe(0.01)),
    )

    overhead = n_spans * (span_cost + _METRIC_OPS_PER_SPAN * metric_cost)
    overhead += n_batches * (event_cost + _METRIC_OPS_PER_BATCH * metric_cost)
    overhead += n_events * (event_cost + _METRIC_OPS_PER_EVENT * metric_cost)
    share = overhead / wall

    print_banner("Observability overhead (tracing disabled)")
    print(f"tuning wall (obs disabled):  {wall * 1e3:9.3f} ms")
    print(
        f"touchpoints:                 {n_spans} spans, {n_batches} engine "
        f"batches, {n_events} other events"
    )
    print(
        f"primitive costs:             span={span_cost * 1e9:.0f}ns "
        f"event={event_cost * 1e9:.0f}ns metric_op={metric_cost * 1e9:.0f}ns"
    )
    print(f"worst-case overhead:         {overhead * 1e6:.1f} us ({share:.4%})")

    assert share < 0.02, (
        f"disabled observability costs {share:.2%} of the tuning wall time "
        "(budget: 2%)"
    )
