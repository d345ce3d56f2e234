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

``propose_generator_draws`` and ``nsga2_make_offspring`` are
:meth:`GDE3.propose` and NSGA-II's offspring as they were before their
draws were replayed from the raw PCG64 stream by
:class:`repro.util.draws.Draws`: the same code calling
``Generator.choice``, ``integers``, ``random`` and ``uniform`` directly
(``sample`` above still calls ``Generator.uniform`` for the box sample).
``tests/test_draws.py`` asserts equal bytes and an equal final generator
state against them, and ``benchmarks/test_perf_micro.py`` times
``propose`` against the first.  ``space_sample`` is the retired
``ParameterSpace.sample`` (integer and categorical columns drawn with
``Generator.integers`` and ``Generator.choice``), which tests use to build
random populations.

``select_pairs_scalar`` and ``non_dominated_mask_general_scalar`` are the
pre-vectorization pairwise phase of :meth:`GDE3.select` and the per-row
general-m non-dominated sweep; ``benchmarks/test_select_speedup.py`` and
``tests/test_optimizer_pareto.py`` check the vectorized kernels against
them.

``non_dominated_sort``, ``crowding_distance``, ``truncate``, ``select``,
``rough_set_boundary_vectorized``, ``volume_fraction`` and ``tell`` are
the NumPy forms of one RS-GDE3 ``tell`` before it ran on Python floats
from one front ranking: fronts peeled off with one ``non_dominated_mask``
each, crowding over array columns, the broadcasted trial-vs-target
comparison, the masked rough-set box, the box volume against a rebuilt
full boundary, and |S| and V recomputed over the whole population.  ``tests/test_tell_oracle.py`` asserts the same populations,
box bytes and values against them, and ``benchmarks/test_perf_micro.py``
times ``tell`` against them.

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

from repro.optimizer.config import Configuration, objective_matrix, value_matrix
from repro.optimizer.hypervolume import hypervolume
from repro.optimizer.pareto import dominates, non_dominated_mask, pairwise_dominance
from repro.optimizer.space import Boundary

__all__ = [
    "propose",
    "pick_three",
    "de_trial",
    "get_closest_to",
    "sample",
    "rough_set_boundary",
    "propose_generator_draws",
    "nsga2_make_offspring",
    "space_sample",
    "non_dominated_sort",
    "crowding_distance",
    "truncate",
    "select",
    "rough_set_boundary_vectorized",
    "volume_fraction",
    "tell",
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


def propose_generator_draws(
    self,
    population: list[Configuration],
    boundary: Boundary,
    rng: np.random.Generator,
) -> np.ndarray:
    """Generate one trial vector per population member (Algorithm 1),
    snapped into the boundary.  Kept separate from :meth:`select` so a
    multi-region coordinator can evaluate the trials of several regions
    with shared program executions.

    Each member costs exactly its RNG draws — partners, forced index,
    crossover uniforms and, when the trial collapses onto its target,
    the jitter — in that order; the arithmetic runs on Python floats,
    which for rows of 2–4 coordinates beats per-row NumPy calls."""
    rows = value_matrix(population, self.problem.space.names).tolist()
    n = len(rows)
    dim = self.problem.space.dim
    f, cr = self.settings.f, self.settings.cr
    snap = boundary.snap
    trials = []
    for i, a in enumerate(rows):
        # three distinct partners other than i: draw from the n - 1
        # other members and skip over i
        p, q, r = rng.choice(n - 1, size=3, replace=False).tolist()
        b = rows[p + (p >= i)]
        c = rows[q + (q >= i)]
        d = rows[r + (r >= i)]
        # binomial crossover of the donor b + F(c - d), one forced index
        forced = int(rng.integers(dim))
        cross = rng.random(dim).tolist()
        trial = snap(
            [
                bj + f * (cj - dj) if u < cr or j == forced else aj
                for j, (aj, bj, cj, dj, u) in enumerate(zip(a, b, c, d, cross))
            ]
        )
        if trial == a:
            # integer snapping collapsed the trial onto its target —
            # re-randomize one coordinate inside the box to keep the
            # generation from re-evaluating known points
            j = int(rng.integers(dim))
            trial[j] = rng.uniform(boundary.lo[j], boundary.hi[j] + 1.0)
            trial = snap(trial)
        trials.append(trial)
    return np.array(trials, dtype=float).reshape(n, dim)


def nsga2_make_offspring(self, pop: list[Configuration], rng) -> np.ndarray:
    space = self.problem.space
    vecs = value_matrix(pop, space.names)
    full = space.full_boundary()
    rank, crowd = self._rank_and_crowd(pop)
    out = []
    while len(out) < self.settings.population_size:
        p1 = vecs[_nsga2_tournament(rank, crowd, rng)]
        p2 = vecs[_nsga2_tournament(rank, crowd, rng)]
        c1, c2 = _nsga2_sbx(self, p1, p2, full, rng)
        out.append(_nsga2_mutate(self, c1, full, rng))
        if len(out) < self.settings.population_size:
            out.append(_nsga2_mutate(self, c2, full, rng))
    # no draw happens between the snaps, so snap the stack in one call
    return full.snap_rows(np.stack(out))


def _nsga2_tournament(rank, crowd, rng) -> int:
    i, j = rng.integers(len(rank)), rng.integers(len(rank))
    if rank[i] != rank[j]:
        return i if rank[i] < rank[j] else j
    return i if crowd[i] >= crowd[j] else j


def _nsga2_sbx(self, p1, p2, full, rng):
    if rng.random() > self.settings.crossover_prob:
        return p1.copy(), p2.copy()
    eta = self.settings.crossover_eta
    u = rng.random(p1.shape)
    beta = np.where(
        u <= 0.5,
        (2 * u) ** (1.0 / (eta + 1)),
        (1.0 / (2 * (1 - u))) ** (1.0 / (eta + 1)),
    )
    c1 = 0.5 * ((1 + beta) * p1 + (1 - beta) * p2)
    c2 = 0.5 * ((1 - beta) * p1 + (1 + beta) * p2)
    return c1, c2


def _nsga2_mutate(self, v, full, rng):
    eta = self.settings.mutation_eta
    prob = 1.0 / max(1, v.shape[0])
    span = full.hi - full.lo
    u = rng.random(v.shape)
    do = rng.random(v.shape) < prob
    delta = np.where(
        u < 0.5,
        (2 * u) ** (1.0 / (eta + 1)) - 1.0,
        1.0 - (2 * (1 - u)) ** (1.0 / (eta + 1)),
    )
    return np.where(do, v + delta * span, v)


def space_sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
    """Uniform samples (count, dim) within the full space, snapped to
    each parameter's domain (categorical parameters draw uniformly from
    their choices)."""
    cols = []
    for p in self.parameters:
        if p.is_categorical:
            cols.append(rng.choice(np.array(p.choices), size=count))
        else:
            cols.append(rng.integers(p.lo, p.hi + 1, size=count))
    return np.stack(cols, axis=1).astype(float)


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


def non_dominated_sort(objs: np.ndarray) -> list[np.ndarray]:
    """Fast non-dominated sorting: list of index arrays, best front first."""
    objs = np.asarray(objs, dtype=float)
    n = objs.shape[0]
    remaining = np.arange(n)
    fronts: list[np.ndarray] = []
    while remaining.size:
        sub = objs[remaining]
        mask = non_dominated_mask(sub)
        fronts.append(remaining[mask])
        remaining = remaining[~mask]
    return fronts


def crowding_distance(objs: np.ndarray) -> np.ndarray:
    """NSGA-II crowding distance of each row of an (N, m) objective array.

    Boundary points get infinite distance; interior points the sum of
    normalized neighbour gaps per objective."""
    objs = np.asarray(objs, dtype=float)
    n, m = objs.shape
    dist = np.zeros(n)
    if n <= 2:
        return np.full(n, np.inf)
    for j in range(m):
        order = np.argsort(objs[:, j], kind="stable")
        col = objs[order, j]
        span = col[-1] - col[0]
        dist[order[0]] = np.inf
        dist[order[-1]] = np.inf
        if span <= 0:
            continue
        gaps = (col[2:] - col[:-2]) / span
        dist[order[1:-1]] += gaps
    return dist


def truncate(pop: list[Configuration], size: int) -> list[Configuration]:
    """The first *size* members of *pop* by non-dominated rank, the last
    admitted front thinned by crowding distance (GDE3's and NSGA-II's
    survivor selection)."""
    objs = np.array([c.objectives for c in pop])
    kept: list[int] = []
    for front in non_dominated_sort(objs):
        if len(kept) + len(front) <= size:
            kept.extend(front.tolist())
            continue
        remaining = size - len(kept)
        if remaining > 0:
            dist = crowding_distance(objs[front])
            order = np.argsort(-dist, kind="stable")
            kept.extend(front[order[:remaining]].tolist())
        break
    return [pop[i] for i in kept]


def select(
    self,
    population: list[Configuration],
    trial_configs: list[Configuration],
) -> list[Configuration]:
    """GDE3 selection: dominating trials replace their targets,
    dominated trials are dropped, mutually non-dominated pairs are both
    kept; the population is truncated back to NP by non-dominated
    sorting with crowding distance."""
    np_size = self.settings.population_size
    n = min(len(population), len(trial_configs))
    trial_dom, target_dom = pairwise_dominance(
        objective_matrix(trial_configs[:n]),
        objective_matrix(population[:n]),
    )
    next_pop: list[Configuration] = []
    for target, trial, t_dom, a_dom in zip(
        population, trial_configs, trial_dom.tolist(), target_dom.tolist()
    ):
        if t_dom:
            next_pop.append(trial)
        elif a_dom:
            next_pop.append(target)
        else:
            next_pop.append(target)
            next_pop.append(trial)

    if len(next_pop) > np_size:
        next_pop = truncate(next_pop, np_size)
    return next_pop


def rough_set_boundary_vectorized(
    population: list[Configuration],
    full: Boundary,
    min_span_fraction: float = 0.1,
    protect: frozenset[str] | set[str] = frozenset(),
) -> Boundary:
    """The rough-set box over whole-population masks and per-dimension
    NumPy reductions."""
    if not population:
        return full
    vecs = value_matrix(population, full.space.names)
    nd_mask = non_dominated_mask(objective_matrix(population))
    if nd_mask.all() or not nd_mask.any():
        return full

    nd = vecs[nd_mask]
    dom = vecs[~nd_mask]
    nd_min = nd.min(axis=0)
    nd_max = nd.max(axis=0)
    below = np.where(dom <= nd_min, dom, -np.inf).max(axis=0)
    above = np.where(dom >= nd_max, dom, np.inf).min(axis=0)
    lo = np.minimum(np.maximum(full.lo, below), nd_min)
    hi = np.maximum(np.minimum(full.hi, above), nd_max)
    min_span = (full.hi - full.lo) * min_span_fraction
    span = hi - lo
    short = span < min_span
    pad = 0.5 * (min_span - span)
    lo = np.where(short, np.maximum(full.lo, lo - pad), lo)
    hi = np.where(short, np.minimum(full.hi, hi + pad), hi)
    protected = np.array([name in protect for name in full.space.names])
    lo = np.where(protected, full.lo, lo)
    hi = np.where(protected, full.hi, hi)
    return Boundary(space=full.space, lo=lo, hi=hi)


def volume_fraction(self) -> float:
    """Fraction of the full space's volume the box covers."""
    full = self.space.full_boundary()
    frac = 1.0
    for j in range(self.space.dim):
        span_full = full.hi[j] - full.lo[j] + 1
        span_here = self.hi[j] - self.lo[j] + 1
        frac *= span_here / span_full
    return float(frac)


def tell(gde3, previous, configs, full: Boundary, protect, reference):
    """One RS-GDE3 generation's ``tell`` work: the selected population,
    its rough-set box, the box's volume fraction and (|S|, V) of the
    population against *reference*, the last from the full-recomputation
    pair that the archive's one-pass statistics are bit-identical to."""
    population = select(gde3, previous, configs)
    box = rough_set_boundary_vectorized(population, full, protect=protect)
    objs = objective_matrix(population)
    stats = (int(non_dominated_mask(objs).sum()), hypervolume(objs, reference))
    return population, box, volume_fraction(box), stats


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
