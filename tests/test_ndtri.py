"""Parity of the Cephes ``ndtri`` port (repro.util.ndtri) with SciPy.

Every golden pin hashes noisy times, and the noise is ``exp(noise *
ndtri(u))``, so the port must match ``scipy.special.ndtri`` bit for bit.
The SciPy comparisons skip where SciPy is not installed; the committed
reference pairs (``ndtri_reference.txt``, generated once from SciPy
1.17.1) still check parity there.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest

from repro.util.ndtri import ndtri

REFERENCE = Path(__file__).with_name("ndtri_reference.txt")

#: the branch edges of Cephes ndtri
EXPM2 = 0.13533528323661269189
EDGES = (EXPM2, 1.0 - EXPM2, math.exp(-2), 1.0 - math.exp(-2), math.exp(-32))


def bits(a) -> np.ndarray:
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def hashed_uniforms(n: int, seed: int) -> np.ndarray:
    """Uniforms built the way the simulator's noise builds them:
    ``(uint64 + 0.5) / 2**64``."""
    raw = np.random.default_rng(seed).integers(0, 2**64, size=n, dtype=np.uint64)
    return (raw.astype(np.float64) + 0.5) / float(1 << 64)


def neighbours(x: float, k: int) -> list[float]:
    """*x* and its *k* nextafter neighbours on each side."""
    out = [x]
    lo = hi = x
    for _ in range(k):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


def tail_inputs() -> np.ndarray:
    edges = [v for e in EDGES for v in neighbours(e, 64)]
    return np.concatenate([
        np.geomspace(1e-300, 0.2, 200_000),
        1.0 - np.geomspace(1e-16, 0.2, 200_000),
        np.array(edges),
        np.array([5e-324, 2.2250738585072014e-308, 1.0 - 2.0**-53, 2.0**-53]),
    ])


# -- without SciPy ------------------------------------------------------------


def test_reference_pairs_bit_identical():
    pairs = [
        line.split() for line in REFERENCE.read_text().splitlines()
        if line and not line.startswith("#")
    ]
    assert len(pairs) >= 200
    x = np.array([float.fromhex(a) for a, _ in pairs])
    want = np.array([float.fromhex(b) for _, b in pairs])
    assert np.array_equal(bits(ndtri(x)), bits(want))
    # one element at a time takes the same path as the batch
    assert all(bits(ndtri(a)) == bits(b) for a, b in zip(x[:40], want[:40]))


def test_special_values():
    assert ndtri(0.0) == -math.inf
    assert ndtri(1.0) == math.inf
    assert bits(ndtri(0.5)) == bits(0.0)
    assert np.isnan(ndtri(np.array([-0.1, 1.1, np.nan, np.inf]))).all()
    out = ndtri(np.array([0.0, 0.5, 1.0]))
    assert out.tolist() == [-math.inf, 0.0, math.inf]


def test_shapes_and_types():
    assert isinstance(ndtri(0.3), np.float64)
    assert ndtri(np.empty(0)).shape == (0,)
    grid = np.array([[0.1, 0.5], [0.9, 1e-20]])
    out = ndtri(grid)
    assert out.shape == (2, 2)
    assert np.array_equal(bits(out.ravel()), bits(ndtri(grid.ravel())))


# -- against SciPy --------------------------------------------------------------


def test_uniforms_bit_identical_to_scipy():
    special = pytest.importorskip("scipy.special")
    u = hashed_uniforms(1_000_000, seed=2012)
    mismatched = int(np.count_nonzero(bits(ndtri(u)) != bits(special.ndtri(u))))
    assert mismatched == 0


def test_tails_and_edges_bit_identical_to_scipy():
    special = pytest.importorskip("scipy.special")
    x = tail_inputs()
    mismatched = int(np.count_nonzero(bits(ndtri(x)) != bits(special.ndtri(x))))
    assert mismatched == 0
