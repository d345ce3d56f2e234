"""Inverse of the standard normal CDF, a port of Cephes ``ndtri``.

The simulator turns hash-derived uniforms into lognormal noise factors
with this function, and every pinned golden result hashes those noisy
times, so the port reproduces ``scipy.special.ndtri`` (Cephes, as built
into SciPy 1.17) bit for bit rather than approximating it:

* the same rational approximations, with the coefficients in Cephes order
  and evaluated by the same Horner recurrences (``polevl`` / ``p1evl``);
* the same operation order in every expression, so each rounding step is
  the one the C code takes;
* all three branches (the central one, ``exp(-2) < y <= 1 - exp(-2)``,
  about 73% of uniform inputs, and the two tails) run their Horner steps
  as whole-array NumPy operations;
* the tails' ``log`` is taken on Python floats with :func:`math.log`,
  which calls the C library as Cephes does.  ``numpy.log`` is *not* a
  substitute: its SIMD kernels (AVX-512 builds) may round differently
  from libm, which on one such host flipped the last bit for 133 of 2·10⁶
  inputs.  ``sqrt`` is correctly rounded everywhere, so ``numpy.sqrt``
  matches.

``tests/test_ndtri.py`` checks the port against SciPy on 10⁶ uniforms,
the tails and the branch edges, and against committed reference pairs
when SciPy is not installed.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ndtri"]

#: exp(-2): below it (and above 1 - exp(-2)) the tail expansions take over
_EXPM2 = 0.13533528323661269189
_HIGH = 1.0 - _EXPM2
_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)

# |y - 0.5| <= 3/8
_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_Q0 = (  # leading 1.0 implied (p1evl)
    1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
# z = sqrt(-2 log y) in [2, 8): y between exp(-2) and exp(-32)
_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_Q1 = (
    1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
# z in [8, 64): y between exp(-32) and exp(-2048)
_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_Q2 = (
    6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)


#: Horner coefficients, highest power first.  Rows 0-2 hold ``P`` and rows
#: 3-5 ``Q`` of the three branches: the central one, then the tail with
#: ``x = sqrt(-2 log y)`` below 8 and from 8 on.  ``P0``'s four leading
#: zeros and the ``Q``s' leading 1 (Cephes' ``p1evl``) are exact no-ops, so
#: every branch runs the same nine steps.
_PQ = np.array([
    (0.0,) * 4 + _P0, _P1, _P2, (1.0,) + _Q0, (1.0,) + _Q1, (1.0,) + _Q2,
])
_Q_ROW = 3


def ndtri(y) -> np.ndarray:
    """The ``x`` with ``Phi(x) = y``, elementwise; ``-inf`` at 0, ``inf`` at
    1 and NaN outside ``[0, 1]``.  Bit-identical to ``scipy.special.ndtri``.

    One Horner pass evaluates ``P`` and ``Q`` of every element at once, each
    element with its own branch's coefficients: its variable is
    ``(y - 0.5)**2`` in the central branch and ``z = 1 / x`` in the tails,
    where ``x`` and ``x0 = x - log(x) / x`` come from :func:`math.log`.
    """
    y = np.asarray(y, dtype=np.float64)
    flat = y.reshape(-1)
    n = flat.size
    tails = np.flatnonzero(~((flat > _EXPM2) & (flat <= _HIGH)))
    if tails.size:
        t = flat[tails]
        high = t > _HIGH
        t = np.where(high, 1.0 - t, t)
        try:
            log_t = list(map(math.log, t.tolist()))
        except ValueError:  # 0, 1 or outside [0, 1]
            return _with_special_values(y)
        x = np.sqrt(np.multiply(log_t, -2.0))
        x0 = x - np.divide(list(map(math.log, x.tolist())), x)
    d = flat - 0.5
    # the Horner variable of P (first half) and of Q (second half)
    vv = np.empty(2 * n)
    v = vv[:n]
    np.multiply(d, d, out=v)
    branch = np.zeros(n, dtype=np.intp)
    if tails.size:
        v[tails] = 1.0 / x
        branch[tails] = np.where(x < 8.0, 1, 2)
    vv[n:] = v
    c = _PQ.take(np.concatenate((branch, branch + _Q_ROW)), axis=0).T
    acc = c[0] * vv
    acc += c[1]
    for row in c[2:]:
        acc *= vv
        acc += row
    # r = y2 * P / Q in the central branch, z * P / Q in the tails
    r = acc[:n]
    r *= v
    r /= acc[n:]
    out = d * r
    out += d
    out *= _S2PI  # central: (y + y * r) * sqrt(2 pi)
    if tails.size:
        x0 -= r[tails]
        np.negative(x0, out=x0, where=~high)  # the lower tail is negative
        out[tails] = x0
    out = out.reshape(y.shape)
    return out[()] if out.ndim == 0 else out


def _with_special_values(y: np.ndarray) -> np.ndarray:
    """:func:`ndtri` of an array holding 0, 1, NaN or values outside [0, 1]."""
    inside = (y > 0.0) & (y < 1.0)
    out = np.where(y == 0.0, -np.inf, np.where(y == 1.0, np.inf, np.nan))
    # Cephes runs a NaN through and negates it on return
    nan = np.isnan(y)
    out[nan] = -y[nan]
    out[inside] = ndtri(y[inside])
    return out[()] if out.ndim == 0 else out
