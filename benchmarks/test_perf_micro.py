"""Framework micro-benchmarks (multi-round timings of the hot paths).

Unlike the table/figure reproductions (single-shot by design), these use
pytest-benchmark's statistics to track the framework's own performance:
the cost model (one configuration, and batches at brute-force and at
tuning sizes, the latter against the frozen oracle in
``tests/cost_oracle.py``), configuration measurement through the engine,
``compute_keys`` on a tuning batch and disk-shard load and write in
tuning-sized batches (against the frozen measurement path and per-record
shard format in ``tests/measurement_oracle.py``), the
noise factors of a tuning batch (against SciPy's ``ndtri`` where it
is installed), one GDE3 generation, GDE3 trial
construction (against both its per-row NumPy form and its
``Generator``-call form), the bookkeeping of one evaluated generation and
one ``tell`` (all against the frozen oracle in
``tests/optimizer_oracle.py``), non-dominated
filtering at brute-force scale, hypervolume, and precompiled runtime
selection (against the per-call ``policy.select``).  Regression guards assert
the throughput floors the experiment harness relies on.
"""

from __future__ import annotations

import statistics
import timeit

import numpy as np
import pytest

from repro.backend.meta import VersionMeta
from repro.evaluation import EvaluationEngine
from repro.evaluation.disk_cache import SCHEMA_VERSION, _Shard
from repro.evaluation.measurements import row_measurement, row_objectives
from repro.experiments import make_setup
from repro.machine import WESTMERE
from repro.optimizer import GDE3, hypervolume, rough_set_boundary
from repro.optimizer.pareto import non_dominated_mask
from repro.optimizer.rsgde3 import RSGDE3Settings, RSGDE3State
from repro.runtime import Version, VersionTable, compile_policy, policy_by_name
from repro.util.ndtri import ndtri
from repro.util.rng import derive_rng
from tests.cost_oracle import time_batch as oracle_time_batch
from tests.measurement_oracle import ShardLoader, append_records
from tests.measurement_oracle import compute_keys as oracle_compute_keys
from tests.optimizer_oracle import evaluate_batch as oracle_evaluate_batch
from tests.optimizer_oracle import propose as oracle_propose
from tests.optimizer_oracle import propose_generator_draws as oracle_propose_draws
from tests.optimizer_oracle import tell as oracle_tell
from tests.test_tell_oracle import assert_same_tell, tell


@pytest.fixture(scope="module")
def setup():
    return make_setup("mm", WESTMERE)


def test_perf_cost_model_scalar(benchmark, setup):
    model = setup.model
    tiles = {"i": 64, "j": 128, "k": 16}
    result = benchmark(lambda: model.time(tiles, 10))
    assert result > 0
    # the harness needs thousands of scalar evaluations per second
    assert benchmark.stats["mean"] < 5e-3


def test_perf_cost_model_batch(benchmark, setup):
    model = setup.model
    rng = derive_rng(0)
    B = 4096
    tiles = np.stack(
        [rng.integers(1, 700, B), rng.integers(1, 700, B), rng.integers(1, 700, B)],
        axis=1,
    )
    threads = rng.choice([1, 5, 10, 20, 40], B)

    out = benchmark(lambda: model.time_batch(tiles, threads))
    assert len(out) == B
    # brute-force sweeps require >100k evals/s through the batch path
    assert B / benchmark.stats["mean"] > 100_000


def test_perf_cost_model_batch_tuning_size(benchmark, setup):
    """``time_batch`` at the batch size tuning actually issues (RS-GDE3
    asks for about 28 new configurations per call): output-identical to the
    frozen per-stream oracle and at least 2x faster than it."""
    model = setup.model
    rng = derive_rng(1)
    B = 28
    tiles = rng.integers(1, 2001, size=(B, 3))
    threads = rng.choice([1, 5, 10, 20, 40], B)

    out = benchmark(lambda: model.time_batch(tiles, threads))
    assert np.array_equal(out, oracle_time_batch(model, tiles, threads))

    def best(fn, number=50):
        return min(timeit.repeat(fn, number=number, repeat=7)) / number

    plan_s = best(lambda: model.time_batch(tiles, threads))
    oracle_s = best(lambda: oracle_time_batch(model, tiles, threads))
    print(
        f"\ntime_batch B={B}: plan {plan_s * 1e3:.3f} ms, "
        f"oracle {oracle_s * 1e3:.3f} ms ({oracle_s / plan_s:.1f}x)"
    )
    assert oracle_s / plan_s >= 2.0


def test_perf_measured_evaluation(benchmark, setup):
    """One fresh configuration through the evaluation engine."""
    target = setup.target(seed=123)
    engine = EvaluationEngine(target)
    counter = [0]

    def measure_fresh():
        counter[0] += 1
        key = target.config_key({"i": counter[0] % 600 + 1, "j": 64, "k": 16}, 10)
        return engine.evaluate_batch([key]).objectives[0]

    obj = benchmark(measure_fresh)
    assert obj.time > 0


def _interleaved_ratio(new, old, number, rounds=7):
    """(new s, old s, old/new) per call: medians of *rounds* interleaved
    timings, so host drift hits both sides."""
    new_s, old_s = [], []
    for _ in range(rounds):
        new_s.append(timeit.timeit(new, number=number) / number)
        old_s.append(timeit.timeit(old, number=number) / number)
    new_s, old_s = statistics.median(new_s), statistics.median(old_s)
    return new_s, old_s, old_s / new_s


def test_perf_compute_keys_tuning_size(benchmark, setup):
    """``compute_keys`` on one tuning batch (28 mm/Westmere keys x 5
    repetitions): rows that convert to exactly the frozen oracle's
    ``(Objectives, Measurement)`` pairs (``tests/measurement_oracle.py``:
    per-key records, ``np.median``, the plan's per-stream and per-level
    loops), and at least 1.1x faster than it.  Both sides hash the same
    noise, which bounds the ratio: it read 1.18-1.72, median 1.43, over 5
    runs of this test on a 2-core container (host probe 2.7-2.9 ms)."""
    problem = setup.problem(seed=7)
    target = problem.target
    _, keys = problem.decode(problem.space.full_boundary().sample(derive_rng(28), 28))
    assert len(set(keys)) == 28

    rows = benchmark(lambda: target.compute_keys(keys))
    records = [(row_objectives(k, r), row_measurement(r)) for k, r in zip(keys, rows)]
    assert records == oracle_compute_keys(target, keys)

    new_s, old_s, ratio = _interleaved_ratio(
        lambda: target.compute_keys(keys), lambda: oracle_compute_keys(target, keys), 100, 9
    )
    print(
        f"\ncompute_keys B=28: {new_s * 1e6:.0f} us, "
        f"oracle {old_s * 1e6:.0f} us ({ratio:.2f}x)"
    )
    assert ratio >= 1.1


def test_perf_disk_shard_io(benchmark, setup, tmp_path):
    """About 1,000 mm/Westmere records written as the engine writes them:
    batches of 28 (the tuning batch size), one ``put_many`` and so one
    batch line each.  Loading the shard gives the same records as the
    frozen per-record path (``record_line`` + ``ShardLoader``, in
    ``tests/measurement_oracle.py``) gives for the same batches, and both
    load and store are at least 2x faster than that path (medians of
    interleaved runs; 7.3-8.0x and 3.2-4.3x over 9 runs on a 2-core
    container).  Prints the load and store times per record."""
    problem = setup.problem(seed=7)
    target = problem.target
    _, keys = problem.decode(problem.space.full_boundary().sample(derive_rng(3), 1000))
    keys = list(dict.fromkeys(keys))
    items = list(zip(keys, target.compute_keys(keys)))
    assert len(items) > 900
    batches = [items[i : i + 28] for i in range(0, len(items), 28)]
    counter = iter(range(10**6))

    def store():
        shard = _Shard(tmp_path / f"store-{next(counter)}.jsonl", "fp", SCHEMA_VERSION)
        for batch in batches:
            shard.put_many(batch)
        return shard.path

    def old_store():
        path = tmp_path / f"old-{next(counter)}.jsonl"
        for batch in batches:
            append_records(path, "fp", batch)
        return path

    def load():
        shard = _Shard(path, "fp", SCHEMA_VERSION)
        len(shard)
        return shard

    path, old_path = store(), old_store()
    assert len(path.read_bytes().splitlines()) == 1 + len(batches)
    shard = benchmark(load)
    want = ShardLoader(old_path, "fp").load()
    assert {k: (row_objectives(k, r), row_measurement(r)) for k, r in shard._records.items()} == want
    assert len(want) == len(items)

    load_s, old_load_s, load_ratio = _interleaved_ratio(
        load, lambda: ShardLoader(old_path, "fp").load(), 5
    )
    store_s, old_store_s, store_ratio = _interleaved_ratio(store, old_store, 2)
    n = len(items)
    print(
        f"\nshard of {n} in batches of 28: load {load_s / n * 1e6:.2f} us/record, "
        f"per-record {old_load_s / n * 1e6:.2f} ({load_ratio:.2f}x); store "
        f"{store_s / n * 1e6:.2f} us/record, per-record "
        f"{old_store_s / n * 1e6:.2f} ({store_ratio:.2f}x)"
    )
    assert load_ratio >= 2.0
    assert store_ratio >= 2.0


def test_perf_noise_factor_matrix(benchmark, setup):
    """The noise factors of one tuning batch (28 mm/Westmere keys x 5
    repetitions): the same bytes as SciPy's ``ndtri`` gives, and the NumPy
    port's ``ndtri`` at most 0.75x the cost of hashing the uniforms it
    transforms, so the port adds little to every ``compute_keys`` call."""
    problem = setup.problem(seed=7)
    target = problem.target
    rows = problem.space.full_boundary().sample(derive_rng(28), 28)
    keys = [
        target.config_key(dict(zip(target.band, row[:-1])), int(row[-1])) for row in rows
    ]
    reps = target.protocol.repetitions
    assert (len(keys), reps) == (28, 5)

    factors = benchmark(lambda: target._noise_factor_matrix(keys, reps))
    u = target._noise_uniforms(keys, reps)
    try:
        from scipy.special import ndtri as scipy_ndtri
    except ImportError:
        scipy_ndtri = None
    if scipy_ndtri is not None:
        want = np.exp(target.noise * scipy_ndtri(u))
        assert factors.tobytes() == want.tobytes()

    def per_call(fn, number=50):
        return timeit.timeit(fn, number=number) / number

    port_s = hash_s = float("inf")
    for _ in range(7):  # interleaved, so host drift hits both sides
        port_s = min(port_s, per_call(lambda: ndtri(u)))
        hash_s = min(hash_s, per_call(lambda: target._noise_uniforms(keys, reps)))
    print(
        f"\nnoise 28x5: ndtri {port_s * 1e6:.1f} us, "
        f"uniforms {hash_s * 1e6:.1f} us ({port_s / hash_s:.2f}x)"
    )
    assert port_s <= 0.75 * hash_s


def test_perf_gde3_generation(benchmark, setup):
    problem = setup.problem(seed=7)
    gde3 = GDE3(problem)
    rng = derive_rng(7)
    full = problem.space.full_boundary()
    pop = problem.evaluate_batch(full.sample(rng, gde3.settings.population_size))

    def generation():
        trials = problem.evaluate_batch(gde3.propose(pop, full, rng))
        return gde3.select(list(pop), trials)

    result = benchmark(generation)
    assert len(result) <= gde3.settings.population_size


def test_perf_gde3_propose(benchmark, setup):
    """``GDE3.propose`` at the paper's NP = 30 inside a rough-set box:
    the same trials and generator state as the frozen per-row oracle, and
    at least 1.6x faster than it."""
    problem = setup.problem(seed=7)
    gde3 = GDE3(problem)
    full = problem.space.full_boundary()
    pop = problem.evaluate_batch(
        full.sample(derive_rng(7), gde3.settings.population_size)
    )
    box = rough_set_boundary(pop, full, protect={"threads"})

    def fresh():
        return np.random.default_rng(11)

    out = benchmark(lambda: gde3.propose(pop, box, fresh()))
    assert out.shape == (len(pop), problem.space.dim)
    new_rng, old_rng = fresh(), fresh()
    new = gde3.propose(pop, box, new_rng)
    assert new.tobytes() == oracle_propose(gde3, pop, box, old_rng).tobytes()
    assert new_rng.bit_generator.state == old_rng.bit_generator.state

    def per_call(fn, number=20):
        return timeit.timeit(fn, number=number) / number

    new_s = old_s = float("inf")
    for _ in range(7):  # interleaved, so host drift hits both sides
        new_s = min(new_s, per_call(lambda: gde3.propose(pop, box, fresh())))
        old_s = min(old_s, per_call(lambda: oracle_propose(gde3, pop, box, fresh())))
    print(
        f"\npropose NP=30: {new_s * 1e3:.3f} ms, "
        f"oracle {old_s * 1e3:.3f} ms ({old_s / new_s:.1f}x)"
    )
    assert old_s / new_s >= 1.6


def test_perf_gde3_propose_draws(setup):
    """``GDE3.propose`` with its draws replayed from the raw PCG64 stream
    against the same code calling ``Generator.choice``, ``integers``,
    ``random`` and ``uniform`` (the frozen copy in
    ``tests/optimizer_oracle.py``), at NP = 30 inside a rough-set box: the
    same trials and generator state, and at least 1.8x faster in the median
    of 60 paired timings.  Generators are built before the clock starts, so
    only ``propose`` is timed."""
    problem = setup.problem(seed=7)
    gde3 = GDE3(problem)
    full = problem.space.full_boundary()
    pop = problem.evaluate_batch(
        full.sample(derive_rng(7), gde3.settings.population_size)
    )
    box = rough_set_boundary(pop, full, protect={"threads"})

    def fresh():
        return np.random.default_rng(11)

    def oracle(population, boundary, rng):
        return oracle_propose_draws(gde3, population, boundary, rng)

    new_rng, old_rng = fresh(), fresh()
    new = gde3.propose(pop, box, new_rng)
    assert new.tobytes() == oracle(pop, box, old_rng).tobytes()
    assert new_rng.bit_generator.state == old_rng.bit_generator.state

    def per_call(propose, number=10):
        rngs = iter([fresh() for _ in range(number)])
        return timeit.timeit(lambda: propose(pop, box, next(rngs)), number=number) / number

    # each ratio times both sides back to back, so host load that lasts
    # longer than a pair cancels; the median drops the pairs it split
    new_s, old_s = [], []
    for _ in range(60):
        new_s.append(per_call(gde3.propose))
        old_s.append(per_call(oracle))
    ratio = statistics.median(o / n for o, n in zip(old_s, new_s))
    print(
        f"\npropose NP=30, raw-stream draws: {min(new_s) * 1e3:.3f} ms, "
        f"Generator calls {min(old_s) * 1e3:.3f} ms (median ratio {ratio:.2f}x)"
    )
    assert ratio >= 1.8


def test_perf_evaluate_batch_bookkeeping(benchmark, setup):
    """``TuningProblem.evaluate_batch`` on one 30-row mm generation against
    a warm ledger: every row is a memo hit, so only the decode, the keys,
    the ledger read and the Configurations are timed.  The same
    Configurations as the frozen per-row oracle, and at least 3x faster
    than it (median of 3 interleaved runs)."""
    problem = setup.problem(seed=7)
    vectors = problem.space.full_boundary().sample(derive_rng(30), 30)
    warm = problem.evaluate_batch(vectors)
    evaluations = problem.evaluations

    out = benchmark(lambda: problem.evaluate_batch(vectors))
    assert out == warm == oracle_evaluate_batch(problem, vectors)
    assert problem.evaluations == evaluations  # all memo hits

    def per_call(fn, number=200):
        return timeit.timeit(fn, number=number) / number

    new_s, old_s = [], []
    for _ in range(3):  # interleaved, so host drift hits both sides
        new_s.append(per_call(lambda: problem.evaluate_batch(vectors)))
        old_s.append(per_call(lambda: oracle_evaluate_batch(problem, vectors)))
    new_s, old_s = statistics.median(new_s), statistics.median(old_s)
    print(
        f"\nevaluate_batch B=30 (warm): {new_s * 1e6:.0f} us, "
        f"oracle {old_s * 1e6:.0f} us ({old_s / new_s:.1f}x)"
    )
    assert old_s / new_s >= 3.0


def test_perf_tell(benchmark, setup):
    """One RS-GDE3 ``tell`` at NP = 30 on a captured mm generation:
    selection, rough-set box, its volume fraction and |S|/V from one front
    ranking.  The same population, box bytes and values as the frozen
    NumPy path, and at least 2x faster than it (median of 3 interleaved
    runs)."""
    problem = setup.problem(seed=7)
    state = RSGDE3State(problem, RSGDE3Settings(), derive_rng(7, "rsgde3"))
    state.tell(problem.evaluate_batch(state.ask()))
    for _ in range(5):  # a mid-run generation inside a reduced box
        previous, configs = state.population, problem.evaluate_batch(state.ask())
        state.tell(configs)
    args = (state.gde3, previous, configs, state.full, state.settings.protect,
            state.log.ref)

    out = benchmark(lambda: tell(*args))
    assert_same_tell(out, oracle_tell(*args))

    def per_call(fn, number=300):
        return timeit.timeit(fn, number=number) / number

    new_s, old_s = [], []
    for _ in range(3):  # interleaved, so host drift hits both sides
        new_s.append(per_call(lambda: tell(*args)))
        old_s.append(per_call(lambda: oracle_tell(*args)))
    new_s, old_s = statistics.median(new_s), statistics.median(old_s)
    print(
        f"\ntell NP=30: {new_s * 1e6:.0f} us, "
        f"oracle {old_s * 1e6:.0f} us ({old_s / new_s:.1f}x)"
    )
    assert old_s / new_s >= 2.0


def test_perf_non_dominated_mask_large(benchmark):
    rng = derive_rng(3)
    objs = rng.random((50_000, 2))
    mask = benchmark(lambda: non_dominated_mask(objs))
    assert mask.any()
    # the 2-D sweep must stay comfortably sub-second at brute-force scale
    assert benchmark.stats["mean"] < 1.0


def test_perf_hypervolume_2d(benchmark):
    rng = derive_rng(4)
    pts = rng.random((500, 2))
    ref = np.array([1.1, 1.1])
    hv = benchmark(lambda: hypervolume(pts, ref))
    assert 0 < hv < 1.21


def _metadata_table(n_versions: int = 12, seed: int = 0) -> VersionTable:
    """A metadata-only Pareto-ish table: faster versions use more threads,
    every third version lacks energy metadata."""
    rng = np.random.default_rng(seed)
    versions = []
    for i in range(n_versions):
        threads = int(2 ** (i % 5))
        time_s = float(0.1 / (i + 1) * (1.0 + 0.05 * rng.random()))
        energy = float(time_s * threads * 20.0) if i % 3 else None
        meta = VersionMeta(index=i, time=time_s, resources=time_s * threads,
                           threads=threads, tile_sizes=(("i", 8 * (i + 1)),),
                           energy=energy)
        versions.append(Version(meta=meta))
    return VersionTable(region_name="mm", versions=tuple(versions))


def test_perf_compiled_selection():
    """Runtime selection over 20,000 seeded ``available_cores`` contexts on
    a 12-version table: ``compile_policy(p, t).select(ctx)`` returns the
    same Version objects as the per-call ``p.select(t, ctx)``, and is at
    least 5x faster on each policy (median of 3 interleaved runs)."""
    table = _metadata_table()
    cores = derive_rng(12, "contexts").choice([1, 2, 4, 8, 16], 20_000)
    contexts = [{"available_cores": int(c)} for c in cores]
    for name in ("balanced", "thread_cap", "time_cap:0.05"):
        policy = policy_by_name(name)
        compiled = compile_policy(policy, table)

        def fast():
            return [compiled.select(ctx) for ctx in contexts]

        def slow():
            return [policy.select(table, ctx) for ctx in contexts]

        assert all(a is b for a, b in zip(fast(), slow(), strict=True))
        new_s, old_s = [], []
        for _ in range(3):  # interleaved, so host drift hits both sides
            new_s.append(timeit.timeit(fast, number=1))
            old_s.append(timeit.timeit(slow, number=1))
        new_s, old_s = statistics.median(new_s), statistics.median(old_s)
        print(
            f"\nselect {name}, 20000 contexts: compiled {new_s * 1e3:.1f} ms, "
            f"per-call {old_s * 1e3:.1f} ms ({old_s / new_s:.1f}x)"
        )
        assert old_s / new_s >= 5.0, name
