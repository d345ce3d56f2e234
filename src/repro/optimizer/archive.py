"""Incremental Pareto archive with exact hypervolume.

Every optimizer emits per-generation convergence telemetry (front size
|S| and hypervolume V against a fixed reference — the paper's V-vs-E
trajectories, Figs. 4–5).  Recomputing the non-dominated front and the
hypervolume from scratch each generation is an O(G·n²) hidden cost per
run; :class:`ParetoArchive` replaces it with an incremental structure:

* a **front staircase** over the original objective vectors — for the
  bi-objective case a list sorted by the first objective with strictly
  decreasing second objective, so membership tests are a binary search
  and an insert removes at most a contiguous dominated run (O(log n)
  search + an amortized-small splice).  Exact duplicates of a front
  point are all retained, matching
  :func:`~repro.optimizer.pareto.non_dominated_mask`;
* a **hypervolume staircase** over the reference-clipped points.  The
  :attr:`hypervolume` property sweeps it with *exactly* the arithmetic
  of the full :func:`~repro.optimizer.hypervolume.hypervolume` staircase
  sweep — same terms, same order — so the archive value is bit-identical
  to a full recomputation over the archived points, not merely close.

For m ≠ 2 objectives the archive transparently falls back to storing the
points and recomputing front/hypervolume on query (cached between
inserts), so callers never need to special-case the tri-objective runs.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from repro.optimizer.hypervolume import hypervolume
from repro.optimizer.pareto import first_front, non_dominated_mask

__all__ = ["ParetoArchive"]


class ParetoArchive:
    """Insert-only archive of objective vectors (minimization).

    :param reference: the fixed hypervolume reference point; points
        beyond it are kept in the front but clipped for the volume, the
        same convention :func:`hypervolume` uses.
    """

    def __init__(self, reference) -> None:
        ref = np.asarray(reference, dtype=float)
        if ref.ndim != 1 or ref.shape[0] < 2:
            raise ValueError("reference must be a 1-D point with >= 2 objectives")
        self.reference = ref
        self.m = int(ref.shape[0])
        self._fast = self.m == 2
        # the reference as Python floats for the 2-D staircases
        self._ref = tuple(ref.tolist())
        # front staircase over original coordinates (2-D fast path):
        # _fx strictly increasing, _fy strictly decreasing, _fpay[i] the
        # payloads of every exact duplicate of point i, insertion order
        self._fx: list[float] = []
        self._fy: list[float] = []
        self._fpay: list[list] = []
        self._fcount = 0
        # hypervolume staircase over reference-clipped coordinates
        self._sx: list[float] = []
        self._sy: list[float] = []
        # m != 2 fallback storage
        self._points: list[tuple[float, ...]] = []
        self._payloads: list = []
        self._dirty = False
        self._hv = 0.0
        self._front_cache: list[int] | None = [] if not self._fast else None

    # ------------------------------------------------------------------

    @classmethod
    def of(cls, points, reference) -> "ParetoArchive":
        """Archive pre-filled with *points* (no payloads)."""
        archive = cls(reference)
        archive.add_many(points)
        return archive

    @classmethod
    def stats_of(cls, points, reference) -> tuple[int, float]:
        """(front size, hypervolume) of *points* against *reference* in
        one pass — bit-identical to ``len(non_dominated(points))`` and
        ``hypervolume(points, reference)``.  Both depend only on the
        non-dominated points, so a caller that has ranked its points
        passes just those.

        Two objectives need no incremental archive: the non-dominated
        points (:func:`first_front`), clipped at the reference and swept
        in (x, y) order, keep exactly the strictly improving steps the
        volume staircase would hold, and :func:`_staircase_volume` sums
        them in its term order."""
        if isinstance(points, np.ndarray):
            points = points.tolist()
        if not (len(points) and len(points[0]) == 2 == len(reference)):
            archive = cls.of(points, reference)
            return archive.front_size, archive.hypervolume
        rx, ry = (float(r) for r in reference)
        front = [points[i] for i in first_front(points)]
        sx: list[float] = []
        sy: list[float] = []
        for x, y in sorted((min(x, rx), min(y, ry)) for x, y in front):
            if x < rx and y < (sy[-1] if sy else ry):
                sx.append(x)
                sy.append(y)
        return len(front), _staircase_volume(sx, sy, rx, ry)

    # ------------------------------------------------------------------

    def add(self, point, payload=None) -> bool:
        """Insert one objective vector; returns whether it is currently
        non-dominated (exact duplicates of a front point count as front
        members and return True)."""
        return self.add_many(np.reshape(point, (1, -1)), [payload]) == 1

    def add_many(self, points, payloads=None) -> int:
        """Insert a batch (row per point), in order; returns how many
        entered the front at insertion time.  The rows go to the
        staircases as Python floats (one ``tolist``)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.size == 0:
            return 0
        if pts.shape[1] != self.m:
            raise ValueError(
                f"point has {pts.shape[1]} objectives, archive expects {self.m}"
            )
        if payloads is None:
            payloads = [None] * pts.shape[0]
        entered = 0
        for row, payload in zip(pts.tolist(), payloads):
            if not self._fast:
                entered += self._add_fallback(tuple(row), payload)
            elif self._front_insert(row[0], row[1], payload):
                self._hv_insert(row[0], row[1])
                entered += 1
        return entered

    # -- queries --------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of archived non-dominated items (duplicates counted)."""
        return self.front_size

    @property
    def front_size(self) -> int:
        if self._fast:
            return self._fcount
        return len(self._fallback_front())

    @property
    def hypervolume(self) -> float:
        """Hypervolume of the archived front — bit-identical to
        ``hypervolume(self.front_points(), self.reference)``."""
        if self._fast:
            if self._dirty:
                self._hv = _staircase_volume(self._sx, self._sy, *self._ref)
                self._dirty = False
            return self._hv
        if self._dirty:
            pts = np.array(self._points, dtype=float)
            self._hv = hypervolume(pts, self.reference) if len(pts) else 0.0
            self._dirty = False
        return self._hv

    def front_points(self) -> np.ndarray:
        """The non-dominated points, one row per archived item (duplicates
        repeated), sorted by the first objective in the 2-D fast path."""
        if self._fast:
            rows = []
            for x, y, pay in zip(self._fx, self._fy, self._fpay):
                rows.extend([(x, y)] * len(pay))
            return np.array(rows, dtype=float).reshape(-1, 2)
        idx = self._fallback_front()
        return np.array([self._points[i] for i in idx], dtype=float).reshape(
            -1, self.m
        )

    def front(self) -> list:
        """Payloads of the non-dominated items (insertion order within a
        point, first-objective order across points in the 2-D path)."""
        if self._fast:
            out: list = []
            for pay in self._fpay:
                out.extend(pay)
            return out
        return [self._payloads[i] for i in self._fallback_front()]

    # -- 2-D front staircase (original coordinates) ---------------------

    def _front_insert(self, x: float, y: float, payload) -> bool:
        fx, fy, fpay = self._fx, self._fy, self._fpay
        j = bisect_left(fx, x)
        if j > 0 and fy[j - 1] <= y:
            return False  # strictly dominated by the predecessor
        if j < len(fx) and fx[j] == x:
            if fy[j] < y:
                return False  # dominated at equal first objective
            if fy[j] == y:
                fpay[j].append(payload)  # exact duplicate: retained
                self._fcount += 1
                return True
        # remove the contiguous run this point dominates
        k = j
        while k < len(fx) and fy[k] >= y:
            self._fcount -= len(fpay[k])
            k += 1
        del fx[j:k], fy[j:k], fpay[j:k]
        fx.insert(j, x)
        fy.insert(j, y)
        fpay.insert(j, [payload])
        self._fcount += 1
        return True

    # -- 2-D hypervolume staircase (clipped coordinates) -----------------

    def _hv_insert(self, x: float, y: float) -> None:
        rx, ry = self._ref
        cx, cy = min(x, rx), min(y, ry)
        if not (cx < rx or cy < ry):
            return  # not strictly inside the box in any dimension
        if cx >= rx:
            return  # zero-width column: never contributes, never sweeps
        sx, sy = self._sx, self._sy
        j = bisect_left(sx, cx)
        if j > 0 and sy[j - 1] <= cy:
            return  # covered by the predecessor step
        if j < len(sx) and sx[j] == cx and sy[j] <= cy:
            return  # covered at equal x
        y_left = sy[j - 1] if j > 0 else ry
        if cy >= y_left:
            return  # at or above the current coverage: no area
        k = j
        while k < len(sx) and sy[k] >= cy:
            k += 1
        del sx[j:k], sy[j:k]
        sx.insert(j, cx)
        sy.insert(j, cy)
        self._dirty = True

    # -- m != 2 fallback -------------------------------------------------

    def _add_fallback(self, p: tuple[float, ...], payload) -> bool:
        arr = np.array(p, dtype=float)
        dominated = any(
            all(q[i] <= arr[i] for i in range(self.m))
            and any(q[i] < arr[i] for i in range(self.m))
            for q in self._points
        )
        self._points.append(p)
        self._payloads.append(payload)
        self._dirty = True
        self._front_cache = None
        return not dominated

    def _fallback_front(self) -> list[int]:
        if self._front_cache is None:
            pts = np.array(self._points, dtype=float)
            if len(pts) == 0:
                self._front_cache = []
            else:
                mask = non_dominated_mask(pts)
                self._front_cache = [i for i, keep in enumerate(mask) if keep]
        return self._front_cache


def _staircase_volume(sx: list[float], sy: list[float], rx: float, ry: float) -> float:
    """Area under a 2-D staircase (x increasing, y strictly decreasing,
    clipped at the reference) — the exact sweep of :func:`hypervolume`'s
    2-D staircase, term for term, so float association matches a full
    recomputation."""
    total = 0.0
    prev_y = ry
    for x, y in zip(sx, sy):
        total += (rx - x) * (prev_y - y)
        prev_y = y
    return total
