"""Frozen reference copies of the optimizer's per-row trial construction,
box snapping and rough-set reduction, and of two retired scalar baselines.

``propose``, ``pick_three``, ``de_trial``, ``get_closest_to``, ``sample``
and ``rough_set_boundary`` are the NumPy-per-row implementations that
:meth:`repro.optimizer.gde3.GDE3.propose`,
:class:`repro.optimizer.space.Boundary` and
:func:`repro.optimizer.roughset.rough_set_boundary` used before they were
rewritten over per-box snap tables and Python-scalar rows.  They are kept
verbatim as an exact differential oracle: the rewritten code must return
equal arrays and leave the generator in the same state
(``rng.bit_generator.state``), which ``tests/test_optimizer_oracle.py``
asserts over the Table VI spaces and categorical, narrowed-box, half-way
and duplicate-population cases, and ``benchmarks/test_perf_micro.py``
times ``propose`` against it.  Call them with the object the method used
to be bound to as the first argument, e.g. ``propose(gde3, population,
boundary, rng)``.

``select_pairs_scalar`` and ``non_dominated_mask_general_scalar`` are the
pre-vectorization pairwise phase of :meth:`GDE3.select` and the per-row
general-m non-dominated sweep; ``benchmarks/test_select_speedup.py`` and
``tests/test_optimizer_pareto.py`` check the vectorized kernels against
them.

``evaluate_batch`` (with ``batch_configs``, ``config_key`` and
``make_configurations``) and ``skeleton_choice_evaluate_batch`` are the
per-row decode of :meth:`TuningProblem.evaluate_batch` and
:meth:`SkeletonChoiceProblem.evaluate_batch` before the trial matrix was
decoded and keyed as arrays: a value dict per row, a ``(tile_sizes,
threads)`` pair per row, a scalar canonical key per pair and a
``Configuration.make`` per row.  ``tests/test_problem_decode.py`` asserts
equal keys and equal, equally typed Configurations against them, and
``benchmarks/test_perf_micro.py`` times the decode against them.
"""

from __future__ import annotations

import numpy as np

from repro.optimizer.config import Configuration
from repro.optimizer.pareto import dominates, non_dominated_mask
from repro.optimizer.space import Boundary

__all__ = [
    "propose",
    "pick_three",
    "de_trial",
    "get_closest_to",
    "sample",
    "rough_set_boundary",
    "select_pairs_scalar",
    "non_dominated_mask_general_scalar",
    "config_key",
    "batch_configs",
    "make_configurations",
    "evaluate_batch",
    "skeleton_choice_evaluate_batch",
]


def propose(
    self,
    population: list[Configuration],
    boundary: Boundary,
    rng: np.random.Generator,
) -> np.ndarray:
    """Generate one trial vector per population member (Algorithm 1),
    snapped into the boundary.  Kept separate from :meth:`select` so a
    multi-region coordinator can evaluate the trials of several regions
    with shared program executions."""
    names = self.problem.space.names
    pop_vecs = np.stack([c.vector(names) for c in population])
    n = len(population)

    trials = np.empty_like(pop_vecs[:n])
    for i in range(n):
        b, c, d = pick_three(self, n, i, rng)
        trials[i] = de_trial(
            self, pop_vecs[i], pop_vecs[b], pop_vecs[c], pop_vecs[d], rng
        )
        trials[i] = get_closest_to(boundary, trials[i])
        if np.array_equal(trials[i], pop_vecs[i]):
            # integer snapping collapsed the trial onto its target —
            # re-randomize one coordinate inside the box to keep the
            # generation from re-evaluating known points
            j = int(rng.integers(pop_vecs.shape[1]))
            jitter = trials[i].copy()
            jitter[j] = rng.uniform(boundary.lo[j], boundary.hi[j] + 1.0)
            trials[i] = get_closest_to(boundary, jitter)
    return trials


def pick_three(
    self, n: int, exclude: int, rng: np.random.Generator
) -> tuple[int, int, int]:
    pool = [j for j in range(n) if j != exclude]
    picks = rng.choice(len(pool), size=3, replace=False)
    return tuple(pool[p] for p in picks)  # type: ignore[return-value]


def de_trial(
    self,
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    d: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Algorithm 1: binomial crossover of the donor ``b + F(c-d)``."""
    dim = a.shape[0]
    forced = int(rng.integers(dim))
    donor = b + self.settings.f * (c - d)
    mask = rng.random(dim) < self.settings.cr
    mask[forced] = True
    return np.where(mask, donor, a)


def get_closest_to(self, vec: np.ndarray) -> np.ndarray:
    """The paper's ``B.getClosestTo(r)``: clip into the box, then snap
    to valid parameter values (categoricals pick the nearest in-box
    choice, falling back to the nearest choice overall)."""
    clipped = np.clip(np.asarray(vec, dtype=float), self.lo, self.hi)
    out = []
    for j, p in enumerate(self.space.parameters):
        if p.is_categorical:
            in_box = [c for c in p.choices if self.lo[j] <= c <= self.hi[j]]
            pool = in_box or list(p.choices)
            out.append(min(pool, key=lambda c: abs(c - clipped[j])))
        else:
            out.append(p.clamp(clipped[j]))
    return np.array(out, dtype=float)


def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
    if count <= 0:
        return np.zeros((0, self.space.dim))
    raw = rng.uniform(self.lo, self.hi + 1.0, size=(count, self.space.dim))
    return np.stack([get_closest_to(self, row) for row in raw], axis=0)


def rough_set_boundary(
    population: list[Configuration],
    full: Boundary,
    min_span_fraction: float = 0.1,
    protect: frozenset[str] | set[str] = frozenset(),
) -> Boundary:
    """Reduced boundary from *population* within the *full* space."""
    if not population:
        return full
    names = full.space.names
    vecs = np.stack([c.vector(names) for c in population])
    objs = np.array([c.objectives for c in population])
    nd_mask = non_dominated_mask(objs)
    if nd_mask.all() or not nd_mask.any():
        return full

    nd = vecs[nd_mask]
    dom = vecs[~nd_mask]

    lo = full.lo.copy()
    hi = full.hi.copy()
    for j in range(full.space.dim):
        if names[j] in protect:
            continue
        nd_min = nd[:, j].min()
        nd_max = nd[:, j].max()
        below = dom[dom[:, j] <= nd_min, j]
        above = dom[dom[:, j] >= nd_max, j]
        if below.size:
            lo[j] = max(lo[j], below.max())
        if above.size:
            hi[j] = min(hi[j], above.min())
        # numerical safety: never exclude the non-dominated points
        lo[j] = min(lo[j], nd_min)
        hi[j] = max(hi[j], nd_max)
        # anti-collapse floor
        min_span = (full.hi[j] - full.lo[j]) * min_span_fraction
        span = hi[j] - lo[j]
        if span < min_span:
            pad = 0.5 * (min_span - span)
            lo[j] = max(full.lo[j], lo[j] - pad)
            hi[j] = min(full.hi[j], hi[j] + pad)
    return Boundary(space=full.space, lo=lo, hi=hi)


def select_pairs_scalar(
    population: list[Configuration], trial_configs: list[Configuration]
) -> list[Configuration]:
    """The pre-vectorization pairwise phase of :meth:`GDE3.select` (before
    truncation) — the scalar baseline the selection micro-benchmark
    asserts output-identity and speedup against."""
    next_pop: list[Configuration] = []
    for target, trial in zip(population, trial_configs):
        if dominates(trial.objectives, target.objectives):
            next_pop.append(trial)
        elif dominates(target.objectives, trial.objectives):
            next_pop.append(target)
        else:
            next_pop.append(target)
            next_pop.append(trial)
    return next_pop


def non_dominated_mask_general_scalar(objs: np.ndarray) -> np.ndarray:
    """The pre-vectorization per-row sweep — kept as the reference the
    micro-benchmark (``benchmarks/test_select_speedup.py``) guards the
    broadcasted path against, output-identical by construction."""
    n = objs.shape[0]
    mask = np.ones(n, dtype=bool)
    for i in range(n):
        if not mask[i]:
            continue
        o = objs[i]
        dominated_by_i = (objs >= o).all(axis=1) & (objs > o).any(axis=1)
        mask &= ~dominated_by_i
        mask[i] = True
        # if i itself is dominated by any currently-alive point, kill it
        alive = np.flatnonzero(mask)
        dominates_i = (objs[alive] <= o).all(axis=1) & (objs[alive] < o).any(axis=1)
        if dominates_i.any():
            mask[i] = False
    return mask


def config_key(target, tile_sizes: dict[str, int], threads: int) -> tuple:
    """Canonical key: tile sizes clipped into [1, extent], band order."""
    tiles = tuple(
        int(min(max(1, tile_sizes.get(v, target.model.extent[v])), target.model.extent[v]))
        for v in target.band
    )
    return tiles + (int(threads),)


def batch_configs(self, vectors: np.ndarray):
    """Decode (B, dim) parameter vectors into the per-row value dicts and
    the ``(tile_sizes, threads)`` pairs an evaluation engine consumed."""
    vectors = np.asarray(vectors)
    values_list = [
        {p.name: int(round(x)) for p, x in zip(self.space.parameters, row)}
        for row in vectors
    ]
    configs = []
    for values in values_list:
        tiles = {
            name[len("tile_"):]: v for name, v in values.items() if name.startswith("tile_")
        }
        configs.append((tiles, int(values.get("threads", 1))))
    return values_list, configs


def make_configurations(self, values_list, objectives) -> list[Configuration]:
    """Pair decoded value dicts with their measured objectives."""
    out = []
    for values, obj in zip(values_list, objectives):
        vec = obj.vector3() if self.tri_objective else obj.vector()
        out.append(Configuration.make(values, vec))
    return out


def evaluate_batch(self, vectors: np.ndarray) -> list[Configuration]:
    """The per-row ``TuningProblem.evaluate_batch``: decode, key each pair,
    evaluate through the problem's engine, pair up."""
    values_list, configs = batch_configs(self, vectors)
    keys = [config_key(self.target, tiles, thr) for tiles, thr in configs]
    result = self.evaluation_engine.evaluate_batch(keys)
    return make_configurations(self, values_list, result.objectives)


def skeleton_choice_evaluate_batch(self, vectors: np.ndarray) -> list[Configuration]:
    """``SkeletonChoiceProblem.evaluate_batch`` over the per-row
    :func:`evaluate_batch` of each sub-problem."""
    vectors = np.asarray(vectors)
    names = self.space.names
    sk_col = names.index("skeleton")
    out: list[Configuration | None] = [None] * len(vectors)
    for idx, sub in enumerate(self.sub_problems):
        rows = np.flatnonzero(np.round(vectors[:, sk_col]).astype(int) == idx)
        if rows.size == 0:
            continue
        sub_names = sub.space.names
        sub_vecs = np.stack(
            [vectors[rows][:, names.index(n)] for n in sub_names], axis=1
        )
        configs = evaluate_batch(sub, sub_vecs)
        for row, cfg in zip(rows, configs):
            values = {
                p.name: int(round(x)) for p, x in zip(self.space.parameters, vectors[row])
            }
            out[row] = Configuration.make(values, cfg.objectives)
    return out  # type: ignore[return-value]
