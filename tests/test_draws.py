"""``repro.util.draws.Draws`` against direct NumPy ``Generator`` calls.

The replay must give the values NumPy's transforms give on the same raw
PCG64 stream and leave the generator in the same state, buffered 32-bit
half included, so that the draws after it agree as well.  The optimizers'
callers are checked against the frozen ``Generator``-call forms in
``tests/optimizer_oracle.py``: ``GDE3.propose`` over 1,064 seeds with NP
4–60 and dim 1–7, ``Boundary.sample`` at counts 1–64 and NSGA-II's
offspring.  If a NumPy release changes one of these transforms, these tests
fail while the golden pins (which pin the replay) still pass.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.experiments import make_setup
from repro.machine import WESTMERE
from repro.optimizer import GDE3, Boundary, Configuration, ParameterSpace
from repro.optimizer.nsga2 import NSGA2
from repro.optimizer.roughset import rough_set_boundary
from repro.transform.skeleton import Parameter
from repro.util.draws import _BLOCK as BLOCK
from repro.util.draws import Draws
from tests import optimizer_oracle as oracle
from tests.test_optimizer_oracle import CountingRNG


def assert_same_stream(new: np.random.Generator, old: np.random.Generator) -> None:
    """Equal state, then equal next five draws: 32-bit ones first, so a
    wrongly restored buffered half shows, then doubles."""
    assert new.bit_generator.state == old.bit_generator.state
    assert new.integers(1000, size=5).tolist() == old.integers(1000, size=5).tolist()
    assert new.random(5).tolist() == old.random(5).tolist()


def pair(seed: int, buffered: bool = False):
    """Two generators on one seed; with *buffered*, both have drawn one
    32-bit value, so their buffered half is full."""
    new, old = np.random.default_rng(seed), np.random.default_rng(seed)
    if buffered:
        new.integers(7)
        old.integers(7)
        assert new.bit_generator.state["has_uint32"] == 1
    return new, old


# ------------------------------------------------------------ the transforms


def skip_to_refill(draws: Draws, old: np.random.Generator, before: int) -> None:
    """Draw doubles on both sides until *before* raw values are left in the
    replay's first block, so that its refill falls inside the draws that
    follow."""
    draws.randoms(BLOCK - before)
    old.random(BLOCK - before)


def test_integers_match_including_rejection_and_full_range():
    """Lemire's bounded draw: a one-value range draws nothing, ranges near
    2**32 reject often, and ``2**32`` itself is a plain 32-bit draw.  The
    block refill falls at every point of the 45 draws."""
    bounds = [1, 2, 3, 7, 29, 1000, 3_000_000_000, 2**32 - 1, 2**32]
    for seed in range(40):
        new, old = pair(seed, buffered=seed % 2 == 1)
        with Draws(new) as draws:
            skip_to_refill(draws, old, seed % 20)  # 45 draws take >= 20 raw values
            got = [draws.integers(k) for k in bounds * 5]
        assert got == [int(old.integers(k)) for k in bounds * 5]
        assert_same_stream(new, old)


def test_choice3_matches_floyd_and_shuffle():
    """Every population 3–64 (3 draws one index fewer: its first Floyd
    step has a single value), large ones, and ranges that reject; the
    block refill falls at every point of the sequence."""
    sizes = [*range(3, 65), 10_000, 2**20, 3_000_000_000, 2**32 - 1]
    for seed in range(166):  # the sequence takes >= 165 raw values
        new, old = pair(seed, buffered=seed % 3 == 0)
        with Draws(new) as draws:
            skip_to_refill(draws, old, seed)
            got = [draws.choice3(n) for n in sizes]
        assert got == [old.choice(n, 3, replace=False).tolist() for n in sizes]
        assert_same_stream(new, old)
    with pytest.raises(ValueError):
        Draws(np.random.default_rng(0)).choice3(2)


def test_mixed_draws_across_block_refills():
    """Every method interleaved, with the block refill at every point of
    the sequence, so that each kind of draw meets it, array draws included
    (they take the rest of the block plus fresh values)."""
    lo, hi = np.array([1.0, 0.5, -3.0]), np.array([64.0, 24.0, 7.0])
    for seed in range(110):  # the sequence takes >= 108 raw values
        new, old = pair(seed, buffered=seed % 2 == 0)
        with Draws(new) as draws:
            skip_to_refill(draws, old, seed)
            got = []
            for k in range(6):
                got.append(draws.choice3(5 + k))
                got.append(draws.integers(3 + k))
                got.append(draws.random())
                got.append(draws.randoms(k))
                got.append(draws.uniform(-1.5, 2.0 + k))
                got.append(draws.uniform_rows(lo, hi, k + 1).tobytes())
        want = []
        for k in range(6):
            want.append(old.choice(5 + k, 3, replace=False).tolist())
            want.append(int(old.integers(3 + k)))
            want.append(float(old.random()))
            want.append(old.random(k).tolist())
            want.append(float(old.uniform(-1.5, 2.0 + k)))
            want.append(old.uniform(lo, hi, size=(k + 1, 3)).tobytes())
        assert got == want
        assert_same_stream(new, old)


def test_buffered_half_round_trips():
    """Start and end with the buffered half full or empty, in all four
    combinations; a replay that draws nothing leaves the state alone."""
    for start in (False, True):
        for draws_32 in (1, 2):
            new, old = pair(5, buffered=start)
            with Draws(new) as draws:
                got = [draws.integers(9) for _ in range(draws_32)]
            assert got == [int(old.integers(9)) for _ in range(draws_32)]
            assert new.bit_generator.state["has_uint32"] == int(start != (draws_32 == 1))
            assert_same_stream(new, old)
        new, old = pair(5, buffered=start)
        with Draws(new):
            pass
        assert_same_stream(new, old)


def test_non_pcg64_generator_raises():
    for bit_generator in (np.random.MT19937(0), np.random.Philox(0), np.random.SFC64(0)):
        with pytest.raises(TypeError):
            Draws(np.random.Generator(bit_generator))


# ------------------------------------------------------------ GDE3.propose


def _space(dim: int) -> ParameterSpace:
    """Small integer ranges, so that many trials collapse onto their
    target and take the jitter branch."""
    return ParameterSpace(tuple(Parameter(f"x{j}", 1, 3 + 5 * j) for j in range(dim)))


def _population(space: ParameterSpace, vecs) -> list[Configuration]:
    return [
        Configuration.make(dict(zip(space.names, map(int, v))), (float(k % 5), float(-k % 7)))
        for k, v in enumerate(vecs)
    ]


def check_propose(space, population, box, seed: int, buffered: bool) -> tuple[int, int]:
    """``propose`` == the ``Generator``-call form in values, state and the
    draws after it; return the oracle's jitter count and the buffered half
    after the generation."""
    gde3 = GDE3(problem=SimpleNamespace(space=space))
    new, old = pair(seed, buffered)
    counting = CountingRNG(old)
    got = gde3.propose(population, box, new)
    want = oracle.propose_generator_draws(gde3, population, box, counting)
    assert got.tobytes() == want.tobytes()
    ends_buffered = new.bit_generator.state["has_uint32"]
    assert_same_stream(new, old)
    return counting.uniform_calls, ends_buffered


def test_propose_matches_generator_calls():
    """1,064 seeds over NP 4–60 and dim 1–7, half of them starting with the
    buffered half full, inside the full box and a narrowed one.  At NP = 60
    and dim 7 one generation consumes more than one 256-value block."""
    jitters = 0
    ends = set()
    for seed in range(1064):
        np_size = 4 + seed % 57
        dim = 1 + (seed // 57) % 7
        space = _space(dim)
        full = space.full_boundary()
        rng = np.random.default_rng(10_000 + seed)
        population = _population(space, oracle.space_sample(space, rng, np_size))
        box = full if seed % 2 else Boundary(
            space=space, lo=full.lo, hi=np.maximum(full.lo, full.hi - 2.0)
        )
        n_jitter, end = check_propose(space, population, box, seed, buffered=seed % 4 < 2)
        jitters += n_jitter
        ends.add((seed % 4 < 2, end))
    assert jitters > 1000
    assert ends == {(False, 0), (False, 1), (True, 0), (True, 1)}


def test_propose_forced_jitter_branch():
    """One repeated point: every donor equals its target, so every trial
    collapses and draws the jitter coordinate."""
    for dim in range(1, 8):
        space = _space(dim)
        point = [[p.lo + 1 for p in space.parameters]]
        population = _population(space, np.repeat(point, 30, axis=0))
        for seed in range(4):
            n_jitter, _ = check_propose(
                space, population, space.full_boundary(), seed, buffered=seed % 2 == 1
            )
            assert n_jitter == 30


def test_propose_rejects_non_pcg64_generator():
    space = _space(3)
    population = _population(space, oracle.space_sample(space, np.random.default_rng(0), 8))
    gde3 = GDE3(problem=SimpleNamespace(space=space))
    with pytest.raises(TypeError):
        gde3.propose(population, space.full_boundary(), np.random.Generator(np.random.MT19937(1)))


# ------------------------------------------------ Boundary.sample, NSGA-II


@pytest.fixture(scope="module")
def mm_problem():
    return make_setup("mm", WESTMERE).problem(seed=7)


def test_boundary_sample_counts_1_to_64(mm_problem):
    full = mm_problem.space.full_boundary()
    rng = np.random.default_rng(3)
    box = rough_set_boundary(
        mm_problem.evaluate_batch(full.sample(rng, 30)), full, protect={"threads"}
    )
    for count in range(1, 65):
        for b in (full, box):
            new, old = pair(count, buffered=count % 2 == 0)
            got = b.sample(new, count)
            assert got.tobytes() == oracle.sample(b, old, count).tobytes()
            assert_same_stream(new, old)


def test_nsga2_offspring_match_generator_calls(mm_problem):
    nsga2 = NSGA2(mm_problem)
    full = mm_problem.space.full_boundary()
    for seed in range(4):
        pop = mm_problem.evaluate_batch(full.sample(np.random.default_rng(seed), 30))
        new, old = pair(seed, buffered=seed % 2 == 1)
        got = nsga2._make_offspring(pop, new)
        assert got.tobytes() == oracle.nsga2_make_offspring(nsga2, pop, old).tobytes()
        assert_same_stream(new, old)
