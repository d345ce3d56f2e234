"""NumPy's ``Generator`` transforms, replayed on the raw PCG64 stream.

The optimizers draw one to three numbers at a time, interleaved with their
arithmetic, and a NumPy ``Generator`` call costs 2–15 µs of fixed overhead
per draw.  :class:`Draws` reads the bit generator's raw 64-bit outputs in
blocks (``bit_generator.random_raw``) as Python ints and applies the same
transforms NumPy's C code applies to them:

* ``next_uint32``: each raw value yields its low 32 bits first and keeps
  the high half buffered for the next 32-bit draw (the ``has_uint32`` and
  ``uinteger`` keys of ``bit_generator.state``);
* ``integers(k)`` and every bounded index draw: Lemire's multiply-shift on
  one 32-bit draw, with rejection below ``2**32 mod k``; a range of one
  value draws nothing;
* ``choice(n, 3, replace=False)``: Floyd's algorithm, then a
  Fisher–Yates shuffle of the three picks whose index draws are the same
  bounded draws;
* ``random()``: ``(x >> 11) * 2**-53`` on one raw value, and
  ``uniform(lo, hi)`` as ``lo + (hi - lo) * u``.

When the caller is done (:meth:`Draws.close`, or leaving the ``with``
block), the generator is put where the direct NumPy calls would have left
it: the saved state with the final buffered half, advanced by the raw
values actually consumed.  Only the raw stream is relied on — NEP 19 keeps
it stable across NumPy versions, while the transforms above may change —
so a NumPy that transforms differently shows up in ``tests/test_draws.py``
and not as silently moved tuning results.  A generator backed by another
bit generator raises ``TypeError``; :func:`repro.util.rng.derive_rng`
always builds PCG64.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Draws"]

_MASK32 = 0xFFFFFFFF
_BLOCK = 256  # raw values read per refill
_TO_DOUBLE = 1.0 / 9007199254740992.0  # 2**-53


class Draws:
    """Draw from *rng*'s PCG64 stream as NumPy's ``Generator`` methods do.

    Use it as a context manager around the draws of one batch::

        with Draws(rng) as draws:
            picks = draws.choice3(n)
            forced = draws.integers(dim)
            cross = draws.randoms(dim)

    Between entering and leaving, nothing else may draw from *rng*.  Raw
    values are read 256 at a time; each block is split once, as arrays,
    into its 32-bit halves (low first) and its doubles, so most draws are
    list lookups or slices.
    """

    __slots__ = (
        "_bg", "_saved", "_has32", "_u32", "_raw", "_halves", "_doubles",
        "_pos", "_end", "_drawn",
    )

    def __init__(self, rng: np.random.Generator) -> None:
        bg = rng.bit_generator
        if not isinstance(bg, np.random.PCG64):
            raise TypeError(f"Draws replays PCG64 streams, not {type(bg).__name__}")
        self._bg = bg
        self._saved = bg.state
        self._has32 = self._saved["has_uint32"]
        self._u32 = self._saved["uinteger"]
        self._raw = np.empty(0, dtype=np.uint64)
        self._halves: list[int] = []
        self._doubles: list[float] = []
        self._pos = self._end = self._drawn = 0

    def __enter__(self) -> "Draws":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Leave the generator in the state the direct NumPy calls would
        have: the saved state with the final buffered half, advanced by the
        raw values consumed (not the whole last block)."""
        unused = self._end - self._pos
        saved = self._saved
        if not unused and (self._has32, self._u32) == (
            saved["has_uint32"], saved["uinteger"]
        ):
            return
        self._bg.state = dict(saved, has_uint32=self._has32, uinteger=self._u32)
        # stepping the stream leaves the buffered half alone; advance()
        # would clear it
        consumed = self._drawn - unused
        if consumed:
            self._bg.random_raw(consumed)

    # -- the raw stream --------------------------------------------------

    def _refill(self) -> None:
        raw = self._bg.random_raw(_BLOCK)
        self._raw = raw
        # low half first on any host: view the little-endian bytes
        self._halves = raw.astype("<u8", copy=False).view("<u4").tolist()
        self._doubles = ((raw >> np.uint64(11)) * _TO_DOUBLE).tolist()
        self._pos, self._end = 0, _BLOCK
        self._drawn += _BLOCK

    def _take(self, count: int) -> np.ndarray:
        """The next *count* raw values as a uint64 array: the rest of the
        current block, then exactly as many fresh ones as are missing."""
        pos = self._pos
        have = self._raw[pos:pos + count]
        self._pos = pos + have.size
        missing = count - have.size
        if not missing:
            return have
        fresh = self._bg.random_raw(missing)
        self._drawn += missing
        return np.concatenate((have, fresh)) if have.size else fresh

    def _next32(self) -> int:
        if self._has32:
            self._has32 = 0
            return self._u32
        pos = self._pos
        if pos == self._end:
            self._refill()
            pos = 0
        self._pos = pos + 1
        self._has32 = 1
        self._u32 = self._halves[2 * pos + 1]
        return self._halves[2 * pos]

    def _u32s(self, count: int) -> list[int]:
        """The next *count* 32-bit draws."""
        out = []
        if self._has32 and count:
            self._has32 = 0
            out.append(self._u32)
            count -= 1
        pos = self._pos
        raws = (count + 1) >> 1
        if pos + raws > self._end:
            out.extend([self._next32() for _ in range(count)])
            return out
        if count:
            q = 2 * pos
            out += self._halves[q:q + count]
            self._pos = pos + raws
            # the last raw value's high half: buffered when count is odd,
            # drawn (and left in the state) when it is even
            self._u32 = self._halves[q + 2 * raws - 1]
            self._has32 = count & 1
        return out

    def _retry(self, values: list[int], k: int, m: int, b: int) -> tuple[int, int]:
        """Lemire's rejection for the draw on ``[0, b]`` that gave *m* from
        ``values[k - 1]``: redraw while the low half falls below
        ``2**32 mod (b + 1)``.  Each retry takes the next value of the
        list and owes one more 32-bit draw to its end."""
        excl = b + 1
        threshold = (_MASK32 - b) % excl
        while m & _MASK32 < threshold:
            values.append(self._next32())
            m = values[k] * excl
            k += 1
        return m, k

    # -- Generator methods -----------------------------------------------

    def integers(self, k: int) -> int:
        """``int(rng.integers(k))``: uniform on ``[0, k)`` (NumPy's
        ``random_bounded_uint64``: Lemire's multiply-shift with rejection
        for 32-bit ranges); a single-value range draws nothing."""
        if k <= 1:
            if k <= 0:
                raise ValueError("high <= 0")
            return 0
        if k > _MASK32:
            if k > _MASK32 + 1:
                raise ValueError("bounded draws wider than 32 bits are not replayed")
            return self._next32()
        v = self._next32()
        m = v * k
        if m & _MASK32 < k:
            m, _ = self._retry([v], 1, m, k - 1)
        return m >> 32

    def choice3(self, n: int) -> list[int]:
        """``rng.choice(n, 3, replace=False).tolist()``: Floyd's algorithm
        — step ``j`` of ``n - 3, n - 2, n - 1`` draws from ``[0, j]`` and
        takes ``j`` itself when the draw is already picked — then the
        Fisher–Yates shuffle of the three picks, each step one bounded draw
        as in :meth:`integers`.  Unrolled: this is GDE3's partner draw."""
        if n < 3:
            raise ValueError("Cannot take a larger sample than population when replace is False")
        if n > _MASK32:
            raise ValueError("bounded draws wider than 32 bits are not replayed")
        j = n - 3
        # a range of one value (j = 0) draws nothing
        values = self._u32s(5 if j else 4)
        k = 0
        a = 0
        if j:
            m = values[0] * (j + 1)
            k = 1
            if m & _MASK32 <= j:
                m, k = self._retry(values, k, m, j)
            a = m >> 32
        j += 1
        m = values[k] * (j + 1)
        k += 1
        if m & _MASK32 <= j:
            m, k = self._retry(values, k, m, j)
        b = m >> 32
        if b == a:
            b = j
        j += 1
        m = values[k] * (j + 1)
        k += 1
        if m & _MASK32 <= j:
            m, k = self._retry(values, k, m, j)
        c = m >> 32
        if c == a or c == b:
            c = j
        # the shuffle: swap position 2 with a draw from [0, 2], then
        # position 1 with a draw from [0, 1]
        m = values[k] * 3
        k += 1
        if m & _MASK32 <= 2:
            m, k = self._retry(values, k, m, 2)
        s = m >> 32
        if s == 0:
            a, c = c, a
        elif s == 1:
            b, c = c, b
        m = values[k] * 2
        if m & _MASK32 <= 1:
            m, k = self._retry(values, k + 1, m, 1)
        if not m >> 32:
            a, b = b, a
        return [a, b, c]

    def random(self) -> float:
        """``float(rng.random())``."""
        pos = self._pos
        if pos == self._end:
            self._refill()
            pos = 0
        self._pos = pos + 1
        return self._doubles[pos]

    def randoms(self, count: int) -> list[float]:
        """``rng.random(count).tolist()``."""
        pos = self._pos
        if pos + count <= self._end:
            self._pos = pos + count
            return self._doubles[pos:pos + count]
        return [self.random() for _ in range(count)]

    def uniform(self, lo: float, hi: float) -> float:
        """``float(rng.uniform(lo, hi))``."""
        return lo + (hi - lo) * self.random()

    def uniform_rows(self, lo: np.ndarray, hi: np.ndarray, count: int) -> np.ndarray:
        """``rng.uniform(lo, hi, size=(count, len(lo)))``, the bounds
        broadcast along each row: one raw value per element, in C order,
        transformed as whole arrays."""
        lo = np.asarray(lo, dtype=float)
        span = np.asarray(hi, dtype=float) - lo
        u = (self._take(count * lo.size) >> np.uint64(11)) * _TO_DOUBLE
        return lo + span * u.reshape(count, lo.size)
