"""Parameter spaces and boundary boxes.

A :class:`ParameterSpace` is the ordered list of tunable parameters of a
skeleton; a :class:`Boundary` is the (possibly rough-set-reduced) box the
search currently operates in — the ``B`` of the paper's Algorithm 1, whose
``getClosestTo`` snaps generated configurations into the box.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.transform.skeleton import Parameter
from repro.util.draws import Draws

__all__ = ["ParameterSpace", "Boundary"]


@dataclass(frozen=True)
class ParameterSpace:
    """An ordered, named integer parameter space."""

    parameters: tuple[Parameter, ...]

    def __post_init__(self) -> None:
        names = [p.name for p in self.parameters]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate parameter names: {names}")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.parameters)

    @property
    def dim(self) -> int:
        return len(self.parameters)

    def parameter(self, name: str) -> Parameter:
        for p in self.parameters:
            if p.name == name:
                return p
        raise KeyError(f"no parameter {name!r}")

    def full_boundary(self) -> "Boundary":
        lo = np.array([p.span()[0] for p in self.parameters], dtype=float)
        hi = np.array([p.span()[1] for p in self.parameters], dtype=float)
        return Boundary(space=self, lo=lo, hi=hi)

    def clamp_vector(self, vec: np.ndarray) -> np.ndarray:
        """Snap a float vector onto valid integer parameter values."""
        return np.array(
            [p.clamp(x) for p, x in zip(self.parameters, vec)], dtype=float
        )

    def to_dict(self, vec: np.ndarray) -> dict[str, int]:
        return {p.name: int(round(x)) for p, x in zip(self.parameters, vec)}

    def cardinality(self) -> int:
        """Size of the discrete search space |C|."""
        total = 1
        for p in self.parameters:
            total *= len(p.choices) if p.is_categorical else (p.hi - p.lo + 1)
        return total


@dataclass(frozen=True)
class Boundary:
    """An axis-aligned box within a parameter space (Algorithm 1's ``B``).

    The box is immutable: its snap table (:attr:`_snap`) is built from
    ``lo``/``hi`` on first use and kept for the box's lifetime.
    """

    space: ParameterSpace
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        if (self.lo > self.hi).any():
            raise ValueError("boundary has lo > hi")

    @cached_property
    def _snap(self) -> tuple[tuple, ...]:
        """Per dimension: the box ``lo``/``hi`` as Python floats, then the
        integer range ``(p.lo, p.hi)`` and ``None``, or ``None`` and the
        categorical pool — the choices inside the box, or all choices
        when none lies inside (ascending either way)."""
        table = []
        for p, lo, hi in zip(self.space.parameters, self.lo.tolist(), self.hi.tolist()):
            if p.is_categorical:
                pool = tuple(c for c in p.choices if lo <= c <= hi) or p.choices
                table.append((lo, hi, None, pool))
            else:
                table.append((lo, hi, (p.lo, p.hi), None))
        return tuple(table)

    def snap(self, row) -> list[int]:
        """:meth:`get_closest_to` for one row in Python scalars.

        Clip each coordinate into the box; integers round half-to-even
        and clamp to the parameter's range (:meth:`Parameter.clamp`),
        categoricals take the nearest pool choice, the lower one on a
        tie.  A single row has 2–4 coordinates, where NumPy's per-call
        overhead outweighs its arithmetic, so this loop is the fast path
        for one row and :meth:`snap_rows` for whole matrices.
        """
        out = []
        for x, (lo, hi, bounds, pool) in zip(row, self._snap):
            x = lo if x < lo else hi if x > hi else x
            if pool is None:
                v = round(x)
                p_lo, p_hi = bounds
                out.append(p_lo if v < p_lo else p_hi if v > p_hi else v)
            else:
                best = pool[0]
                best_d = abs(best - x)
                for c in pool[1:]:
                    d = abs(c - x)
                    if d < best_d:
                        best, best_d = c, d
                out.append(best)
        return out

    def get_closest_to(self, vec: np.ndarray) -> np.ndarray:
        """The paper's ``B.getClosestTo(r)``: clip into the box, then snap
        to valid parameter values (categoricals pick the nearest in-box
        choice, falling back to the nearest choice overall)."""
        return np.array(self.snap(np.asarray(vec, dtype=float).tolist()), dtype=float)

    def snap_rows(self, vecs: np.ndarray) -> np.ndarray:
        """:meth:`get_closest_to` applied to every row of a (B, dim)
        matrix, one column at a time: ``np.clip`` + ``np.rint`` for
        integers, ``searchsorted`` between the two neighbouring pool
        choices for categoricals (ties go to the lower one)."""
        clipped = np.clip(np.asarray(vecs, dtype=float), self.lo, self.hi)
        out = np.empty_like(clipped)
        for j, (_, _, bounds, pool) in enumerate(self._snap):
            x = clipped[:, j]
            if pool is None:
                out[:, j] = np.clip(np.rint(x), bounds[0], bounds[1])
            else:
                choices = np.array(pool, dtype=float)
                k = np.searchsorted(choices, x)  # choices[k-1] < x <= choices[k]
                below = choices[np.maximum(k - 1, 0)]
                above = choices[np.minimum(k, len(choices) - 1)]
                out[:, j] = np.where(above - x < x - below, above, below)
        return out

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """*count* uniform points of the box, snapped: the values of
        ``rng.uniform(lo, hi + 1, size=(count, dim))``, replayed from the
        raw stream by :class:`~repro.util.draws.Draws`."""
        if count <= 0:
            return np.zeros((0, self.space.dim))
        with Draws(rng) as draws:
            raw = draws.uniform_rows(self.lo, self.hi + 1.0, count)
        return self.snap_rows(raw)

    def contains(self, vec: np.ndarray) -> bool:
        return bool((vec >= self.lo).all() and (vec <= self.hi).all())

    def volume_fraction(self) -> float:
        """Fraction of the full space's volume this box covers."""
        frac = 1.0
        for p, lo, hi in zip(self.space.parameters, self.lo.tolist(), self.hi.tolist()):
            full_lo, full_hi = p.span()
            frac *= (hi - lo + 1) / (float(full_hi) - float(full_lo) + 1)
        return frac
