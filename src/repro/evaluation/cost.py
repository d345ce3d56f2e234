"""Analytical execution-time model for tiled parallel loop nests.

This is the simulation substrate standing in for the paper's physical
Westmere and Barcelona machines (see DESIGN.md §2 for the substitution
rationale).  Given a region's affine access streams, a machine model, tile
sizes and a thread count, it predicts wall time from first principles:

1. **Reuse units.**  After tiling, execution decomposes into nested units:
   the whole problem (``W``), one full tile (``s=0``), the suffix of point
   loops from depth ``s`` (``0 < s < n``) down to a single innermost
   iteration (``s=n``).  For each cache level the model picks the largest
   unit whose working set fits the level's *effective* capacity — shared
   levels are divided by the number of threads co-resident on the socket,
   which is exactly the mechanism the paper names as the reason optimal
   tile sizes depend on thread count (§II).

2. **Traffic.**  A stream (all references of an array with identical linear
   subscript parts) is re-fetched once per iteration of every loop outside
   its reuse unit up to and including the innermost loop it depends on; its
   per-unit footprint is counted in cache lines, so strided column walks
   (e.g. ``B[k][j]`` in IJK mm) pay full lines for single elements.

3. **Time.**  Roofline-style combination: compute + loop overhead versus
   per-level fill bandwidths, per-core DRAM bandwidth, and per-socket DRAM
   bandwidth shared by the threads placed there (the source of the
   speedup/efficiency trade-off).  Load imbalance multiplies the critical
   path by ``ceil(P/T)·T/P`` with ``P`` the worksharing iteration count
   after collapsing — the mechanism that makes collapsing worthwhile and
   penalises huge tiles at large thread counts.

The model is deterministic and has one implementation, vectorized over B
configurations (:meth:`RegionCostModel.time_batch`, and
:meth:`RegionCostModel.energy_batch` for the energy objective); the
single-configuration :meth:`~RegionCostModel.time` and
:meth:`~RegionCostModel.energy` are its B = 1 calls.  The scalar,
per-configuration formulation the steps above describe is kept as an exact
oracle in ``tests/cost_oracle.py``.  Measurement noise is layered on top by
:class:`repro.evaluation.simulator.SimulatedTarget`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.analysis.features import analyze_features
from repro.analysis.polyhedral import AccessFunction
from repro.analysis.regions import TunableRegion
from repro.machine.model import MachineModel
from repro.machine.topology import place_threads
from repro.util.rng import content_hash

__all__ = ["RegionCostModel", "Stream"]


@dataclass(frozen=True)
class Stream:
    """All references of one array sharing a linear subscript part.

    :param coeff_dims: per array dimension, the (var, coeff) terms of the
        subscript's linear part.
    :param const_span: per dimension, (max-min) over the group's subscript
        constants — the halo widening of e.g. stencil reads.
    :param depends: band variables occurring anywhere in the subscripts.
    """

    array: str
    coeff_dims: tuple[tuple[tuple[str, int], ...], ...]
    const_span: tuple[int, ...]
    depends: frozenset[str]
    has_write: bool
    elem_size: int


def _footprint(extents: np.ndarray, line_elems, line_size) -> np.ndarray:
    """Bytes of the cache lines S streams touch, given their per-dimension
    extents (R, S, ...) → (S, ...): line granularity on the innermost
    dimension only (outer dimensions are strided), multiplied outer
    dimensions first, then innermost lines.  Array line sizes broadcast
    against the extents, giving every line size in one pass."""
    inner = np.ceil(extents[-1] / line_elems)
    return functools.reduce(np.multiply, [*extents[:-1], inner]) * line_size


@dataclass(frozen=True, eq=False)
class _CostPlan:
    """Configuration-independent terms of :meth:`RegionCostModel.time_batch`
    for S streams of rank <= R, n band vars and units s = 0..n, as float64
    holding exact integers: ``base`` (R, 1, 1, S, 1, 1) ``1 + const_span``
    (ranks front-padded), ``unit_coeff`` (R·S·(n+1), n) each band var's
    ``|coeff|`` where unit s spans it.  ``loop_init`` lays out the rows [1,
    trip counts, tile sizes, 0]; ``loop_rows`` (2, S, n+1) indexes into
    them the innermost outer loop stream j depends on in unit s (0 if none)
    and the span it absorbs, of extent ``merged_cap``.  Footprints come in
    pairs (R, 2, 1, S, n+1, B), the unit's extents and then with that span
    absorbed (``merged_coeff``), summed over streams with ``weight`` ×
    ``prefix[fetch_rows]``: 1 for the working set, write weight × refetches
    for the traffic.  The K rows (cache levels, then the TLB) take unit
    footprints at the line sizes ``line_size`` (``line_elems`` is ``None``
    if every whole problem fits), ``row_line`` each row's; ``comp`` (K, 1)
    is the compulsory traffic, ``whole`` whether the whole problem fits
    (``None`` if none does).  ``level_rows`` repeats the last level, whose
    second ``fetch_bw`` is DRAM's per core.  ``per_thread`` (4 + K,
    total_cores + 2) holds per thread count the threads per socket, active
    sockets, SMP/NUMA tax (1 at one thread), fork/join seconds (0 at one
    thread) and K capacities."""

    base: np.ndarray
    unit_coeff: np.ndarray
    ext: np.ndarray
    loop_init: np.ndarray
    loop_rows: np.ndarray
    merged_cap: np.ndarray
    merged_coeff: np.ndarray
    weight: np.ndarray
    fetch_rows: np.ndarray
    entry_rows: np.ndarray
    line_elems: np.ndarray | None
    line_size: np.ndarray
    row_line: np.ndarray
    comp: np.ndarray
    whole: np.ndarray | None
    level_rows: np.ndarray
    per_thread: np.ndarray
    spec: tuple
    flops: float
    flop_rate: float
    loop_cycles: np.ndarray
    fetch_bw: np.ndarray


class RegionCostModel:
    """Predicts region execution time on a machine for (tiles, threads).

    The constructor performs all per-region analysis once, into a plan that
    :meth:`time_batch` and :meth:`energy_batch` evaluate B configurations
    at a time (brute-force sweeps issue O(10^5) of them per call);
    :meth:`time` and :meth:`energy` are the same evaluation at B = 1.

    :param region: the tunable region (untransformed nest).
    :param bindings: problem-size values for all symbolic extents.
    :param machine: target machine description.
    :param flops_per_iteration: override for the arithmetic per innermost
        iteration (defaults to the static feature count).
    :param parallel_spec: how the generated code workshares, matching
        :meth:`repro.transform.skeleton.TransformationSkeleton.parallel_spec`:
        ``("collapse", n)`` — the outer *n* tile loops are coalesced into
        the parallel loop (default, n = min(2, band)); ``("tile", var)`` —
        var's tile loop alone is parallel; ``("point", var)`` — the untiled
        loop *var* is parallel (n-body's ``i`` under a hoisted ``j`` tile
        loop), incurring one fork/join per enclosing tile-loop iteration.
    """

    def __init__(
        self,
        region: TunableRegion,
        bindings: dict[str, int],
        machine: MachineModel,
        flops_per_iteration: float | None = None,
        parallel_spec: tuple[str, object] | None = None,
    ) -> None:
        self.region = region
        self.machine = machine
        self.bindings = dict(bindings)
        self.parallel_spec = parallel_spec

        feats = analyze_features(region, bindings)
        self.flops_per_iteration = (
            float(flops_per_iteration)
            if flops_per_iteration is not None
            else float(feats.flops_per_iteration)
        )
        self.sweep_factor = feats.sweep_factor
        self.total_iterations = feats.total_iterations

        self.band = tuple(lv for lv in region.domain.vars)
        self.extent = {v: region.domain.extent(v, bindings) for v in self.band}
        self.streams = self._build_streams(feats.accesses)

        arrays = region.function.arrays
        self._elem_size = max(
            (at.elem.size for at in arrays.values()), default=8
        )
        self._plan = self._build_plan()

    # ------------------------------------------------------------------
    # stream extraction
    # ------------------------------------------------------------------

    def _build_streams(self, accesses: tuple[AccessFunction, ...]) -> tuple[Stream, ...]:
        arrays = self.region.function.arrays
        groups: dict[tuple, list[AccessFunction]] = {}
        for acc in accesses:
            if acc.array not in arrays:
                continue
            key = (acc.array, acc.linear_part())
            groups.setdefault(key, []).append(acc)

        streams = []
        band_set = set(self.band)
        for (array, linear), accs in groups.items():
            rank = accs[0].rank
            coeff_dims: list[tuple[tuple[str, int], ...]] = []
            const_span: list[int] = []
            depends: set[str] = set()
            for d in range(rank):
                consts = []
                coeffs: tuple[tuple[str, int], ...] = ()
                for acc in accs:
                    sub = acc.subscripts[d]
                    if sub is None:
                        # non-affine subscript: treat as touching the dim fully
                        coeffs = ()
                        consts = [0]
                        break
                    coeffs = tuple((v, c) for v, c in sub.coeffs if v in band_set)
                    consts.append(sub.const)
                coeff_dims.append(coeffs)
                const_span.append(max(consts) - min(consts) if consts else 0)
                depends.update(v for v, _ in coeffs)
            streams.append(
                Stream(
                    array=array,
                    coeff_dims=tuple(coeff_dims),
                    const_span=tuple(const_span),
                    depends=frozenset(depends),
                    has_write=any(a.is_write for a in accs),
                    elem_size=arrays[array].elem.size,
                )
            )
        return tuple(streams)

    def _build_plan(self) -> _CostPlan:
        band, streams, machine = self.band, self.streams, self.machine
        n, S = len(band), len(streams)
        R = max([1] + [len(st.coeff_dims) for st in streams])
        base = np.ones((R, S, 1, 1))
        coeff = np.zeros((R, S, n))
        depth = np.full((S, n + 1), -1)
        for j, st in enumerate(streams):
            dims = zip(st.coeff_dims, st.const_span)  # front-padded to rank R
            for d, (coeffs, extra) in enumerate(dims, R - len(st.coeff_dims)):
                base[d, j] = 1 + extra
                for var, c in coeffs:
                    coeff[d, j, band.index(var)] += abs(c)
            for s in range(n + 1):  # the innermost outer loop it depends on
                outer = band + band[:s]
                depth[j, s] = max((k for k, v in enumerate(outer) if v in st.depends), default=-1)
        merged = np.maximum(depth, 0)
        weight = np.array([2.0 if st.has_write else 1.0 for st in streams]).reshape(S, 1, 1)
        coeff_flat = coeff.reshape(R * S, n)
        ext = np.array([self.extent[v] for v in band], dtype=np.int64)
        whole = base + (coeff_flat @ (ext - 1)).reshape(R, S, 1, 1)
        # the K rows: each cache level, then the TLB, as (line size, size)
        rows = [(lv.line_size, float(lv.size)) for lv in machine.levels]
        rows.append((machine.page_size, float(machine.tlb_reach)))
        by_line = {}
        for L in {L for L, _ in rows}:
            line_elems = np.array([max(1, L // st.elem_size) for st in streams], dtype=float)
            line_elems = line_elems.reshape(S, 1, 1)
            comp = ws = 0.0
            for w, fp in zip(weight.ravel(), _footprint(whole, line_elems, L).ravel()):
                comp += w * fp
                ws += fp
            by_line[L] = line_elems, float(comp), float(ws)
        fits = np.array([[by_line[L][2] <= size] for L, size in rows])
        lines = sorted({L for (L, _), f in zip(rows, fits) if not f})
        # the thread-count terms of counts 0..total_cores + 1 (0 is rejected)
        p = np.arange(machine.total_cores + 2)
        cps = machine.cores_per_socket
        per_socket, sockets = np.minimum(p, cps), -(-p // cps)
        fill = (per_socket - 1) / max(1, cps - 1)
        tax = 1.0 + machine.smp_tax * fill + machine.numa_tax * (sockets - 1)
        fork_join = machine.fork_join_base + machine.fork_join_per_thread * p
        per_thread = np.array([
            per_socket, sockets, np.where(p > 1, tax, 1.0), np.where(p > 1, fork_join, 0.0),
            *(size / (np.maximum(per_socket, 1) if shared else np.ones(len(p)))
              for shared, (_, size) in zip([lv.shared for lv in machine.levels] + [False], rows)),
        ])
        merged_pos = merged % n
        merged_coeff = np.where(depth >= 0, coeff[:, np.arange(S)[:, None], merged_pos], 0)
        free = np.tri(n + 1, n, -1, dtype=bool).T == 0  # (n, n+1): unit s spans var i
        # each unit's merged loop count, and the span it absorbs (1 if fixed)
        span_row = np.where(free[merged_pos, np.arange(n + 1)], n + 1 + merged_pos, 0)
        entry_rows = np.r_[0, 0 : 2 * n]
        return _CostPlan(
            base=base.reshape(R, 1, 1, S, 1, 1),
            unit_coeff=(coeff[..., None] * free).transpose(0, 1, 3, 2).reshape(-1, n),
            ext=ext,
            loop_init=np.eye(2 * n + 2, 1),
            loop_rows=np.stack([merged + 1, span_row]),
            merged_cap=ext[merged_pos][..., None],
            merged_coeff=np.stack([0 * merged_coeff, merged_coeff], 1)[:, :, None, ..., None],
            weight=np.stack([np.ones_like(weight), weight])[:, None],
            fetch_rows=np.stack([np.zeros_like(merged), merged])[:, None],
            entry_rows=np.stack([entry_rows, np.where(entry_rows > 0, entry_rows, 2 * n + 1)], 1),
            line_elems=np.stack([by_line[L][0] for L in lines]) if lines else None,
            line_size=np.array(lines, dtype=float).reshape(-1, 1, 1, 1),
            row_line=np.array([lines.index(L) if L in lines else 0 for L, _ in rows]),
            comp=np.array([[by_line[L][1]] for L, _ in rows]),
            whole=fits if fits.any() else None,
            level_rows=np.r_[: len(machine.levels), len(machine.levels) - 1],
            per_thread=per_thread,
            spec=self._worksharing(self.parallel_spec),
            flops=self.flops_per_iteration * self.total_iterations,
            flop_rate=machine.flops_per_cycle * machine.freq_hz,
            loop_cycles=np.array([[machine.loop_entry_cycles], [machine.loop_overhead_cycles]]),
            fetch_bw=np.array([[lv.fetch_bw] for lv in machine.levels]
                              + [[machine.dram_bw_per_core]], dtype=float),
        )

    def _worksharing(self, spec) -> tuple:
        """*spec* as (kind, depth or band position, the other positions);
        ``None`` collapses ``min(2, n)`` tile loops."""
        n = len(self.band)
        kind, arg = ("collapse", min(2, n)) if spec is None else spec
        if kind == "collapse":
            return kind, max(1, min(int(arg or 1), n)), None
        if kind not in ("tile", "point", "none"):
            raise ValueError(f"unknown parallel spec {spec!r}")
        pos = None if kind == "none" else self.band.index(str(arg))
        return kind, pos, [j for j in range(n) if j != pos]

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    #
    # Bit-identical to the oracles in ``tests/cost_oracle.py`` (scalar and
    # per-stream): extents are exact integers, and float operations keep
    # the oracles' order — outer counts' prefix product, ``(weight ×
    # fetches) × bytes``, in-order sums — as ``fetches × footprint`` can
    # exceed 2^53.

    def time_batch(
        self,
        tiles: np.ndarray,
        threads: np.ndarray,
        collapsed: int | None = None,
    ) -> np.ndarray:
        """Predicted wall time of B configurations, in seconds per kernel
        invocation.

        :param tiles: int array (B, len(band)) — tile sizes in band order,
            clipped into [1, extent] (the extent models an untiled loop).
        :param threads: int array (B,) — worksharing thread counts (1 =
            sequential, no parallel overhead) in 1..``total_cores + 1``;
            ValueError outside.
        :param collapsed: how many outer tile loops are collapsed into the
            worksharing loop; overrides the constructor's ``parallel_spec``.
        :returns: float array (B,) of seconds.
        """
        return self._predict(tiles, threads, collapsed)[0]

    def energy_batch(
        self,
        tiles: np.ndarray,
        threads: np.ndarray,
        collapsed: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """(time, energy) of B configurations from one evaluation, as float
        arrays (B,) of seconds and joules; arguments as :meth:`time_batch`.

        Power model: active sockets draw their idle/uncore power for the
        whole run, each busy core adds its active power, and every byte
        moved from DRAM costs a fixed energy (see the machine's
        ``*_power``/``dram_energy_per_byte`` parameters).  Energy is the
        paper's third example objective (§III-B1) and exhibits its own
        optimum: few threads waste idle power over a long runtime, many
        threads burn core power against sublinear speedup.
        """
        time, dram_bytes, active_sockets = self._predict(tiles, threads, collapsed)
        machine = self.machine
        power = (
            active_sockets * machine.idle_power_per_socket
            + np.asarray(threads, dtype=np.int64) * machine.active_power_per_core
        )
        return time, time * power + dram_bytes * machine.dram_energy_per_byte

    def time(
        self,
        tile_sizes: dict[str, int],
        threads: int,
        collapsed: int | None = None,
    ) -> float:
        """:meth:`time_batch` of one configuration; band vars omitted from
        *tile_sizes* run untiled (``tile_sizes={}`` models the untiled
        code)."""
        return float(self.time_batch(*self._one(tile_sizes, threads), collapsed)[0])

    def energy(
        self,
        tile_sizes: dict[str, int],
        threads: int,
        collapsed: int | None = None,
    ) -> float:
        """The energy half of :meth:`energy_batch` for one configuration,
        in joules; arguments as :meth:`time`."""
        return float(self.energy_batch(*self._one(tile_sizes, threads), collapsed)[1][0])

    def _one(self, tile_sizes: dict[str, int], threads: int) -> tuple[list, list]:
        """One configuration as a B = 1 batch, tile sizes clipped into
        [1, extent] before they become int64; raises ValueError for a thread
        count the machine cannot place."""
        place_threads(self.machine, threads)
        ext = self.extent
        return [[min(max(1, tile_sizes.get(v, ext[v])), ext[v]) for v in self.band]], [threads]

    def _predict(
        self,
        tiles: np.ndarray,
        threads: np.ndarray,
        collapsed: int | None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The model itself, as arrays (B,): wall time, the DRAM bytes the
        whole run moves (all threads) and the active socket count.  One
        contraction gives the extents of every (reuse unit, stream), one
        pass the footprints and unit traffic of every line size the cache
        levels and the TLB need, and one comparison each row's fitting
        unit; the thread-count terms are read from the plan."""
        machine, plan = self.machine, self._plan
        n = len(self.band)
        tiles = np.asarray(tiles, dtype=np.int64)
        threads = np.asarray(threads, dtype=np.int64)
        if tiles.ndim != 2 or tiles.shape[1] != n:
            raise ValueError(f"tiles must have shape (B, {n})")
        B = tiles.shape[0]
        if threads.shape != (B,):
            raise ValueError("threads must have shape (B,)")
        try:  # counts past the table raise IndexError, and so do those below 1
            if B and threads.min() < 1:
                raise IndexError
            per_thread = plan.per_thread.take(threads, axis=1)
        except IndexError:
            raise ValueError(f"threads must lie in 1..{machine.total_cores + 1}") from None
        per_socket, active_sockets, tax, fork_join = per_thread[:4]
        capacity = per_thread[4:, None]

        ext = plan.ext
        t = np.minimum(np.maximum(tiles, 1), ext)
        trips = -(-ext // t)  # ceil div, (B, n)

        # worksharing structure per the parallel spec
        spec = plan.spec if collapsed is None else self._worksharing(("collapse", collapsed))
        kind, arg, others = spec
        if kind == "collapse":
            par_iters = np.multiply.reduce(trips[:, :arg], axis=1)
        elif kind == "tile":
            par_iters = trips[:, arg]
        elif kind == "point":
            par_iters = ext[arg]
            # one fork/join per iteration of the tiled loops around it
            invocations = np.where(t < ext, trips, 1)[:, others]
            fork_join = fork_join * np.multiply.reduce(invocations, axis=1, dtype=float)
        else:
            par_iters = 1
        share = np.ceil(par_iters / threads) / par_iters  # exactly 1 at one thread

        # the outer loops' counts (tile loops, then point loops) between a
        # leading 1 and a trailing 0, and their prefix products: unit s
        # refetches stream j prefix[merged[j, s]] times and its footprint
        # absorbs loop merged[j, s]'s span
        loops = plan.loop_init.repeat(B, axis=1)
        loops[1 : n + 1] = trips.T
        loops[n + 1 : 2 * n + 1] = t_rows = t.T
        prefix = np.multiply.accumulate(loops, axis=0)
        if plan.line_elems is None:  # every row's whole problem fits
            traffic = np.repeat(plan.comp, B, axis=1)
        else:
            # each unit's extents (R, 1, 1, S, n_units, B): unit s fixes
            # the first s band vars at span 1
            unit_ext = (plan.unit_coeff @ (t_rows - 1)).reshape(*plan.base.shape[:4], n + 1, B)
            unit_ext += plan.base
            count, span = loops[plan.loop_rows]
            grown = np.minimum(plan.merged_cap, count * span) - span
            extents = unit_ext + plan.merged_coeff * grown  # (R, 2, 1, S, n_units, B)
            factors = plan.weight * prefix[plan.fetch_rows]  # (2, 1, S, n_units, B)
            # (working set, traffic) per line size and unit; streams summed
            # in order: n_units >= 2 keeps the stream axis outside reduce's
            # inner loop, so it never sums pairwise
            ws, unit_traffic = np.add.reduce(
                factors * _footprint(extents, plan.line_elems, plan.line_size), axis=2
            )
            # each row's smallest unit whose working set fits; fallback: last unit
            fits = ws[plan.row_line] <= capacity
            fits[:, -1] = True
            picked = unit_traffic[plan.row_line[:, None], fits.argmax(axis=1), np.arange(B)]
            traffic = np.maximum(picked, plan.comp)
            if plan.whole is not None:
                traffic = np.where(plan.whole, plan.comp, traffic)
        # each level moves at most what the level above it does; the TLB last
        level_traffic = np.minimum.accumulate(traffic[plan.level_rows], axis=0)
        tlb_traffic = traffic[-1]

        freq = machine.freq_hz
        compute_t = plan.flops * share / plan.flop_rate

        # loop overhead: entries of all 2n loops, 1 + prefix[0] + ... +
        # prefix[2n-1], and iterations of the outer 2n-1, 0 + 0 + prefix[1]
        # + ... + prefix[2n-1], summed left to right in one running sum (a
        # reduce would sum pairwise once B = 1 leaves it one axis)
        cycles = np.add.accumulate(prefix[plan.entry_rows], axis=0)[-1] * plan.loop_cycles
        overhead_t = (cycles[1] + cycles[0]) * share / freq
        overhead_t += tlb_traffic / machine.page_size * machine.tlb_miss_cycles * share / freq

        dram_traffic = level_traffic[-1]
        moved = level_traffic * share  # the last level twice: its fill and DRAM per core
        mem_t = np.maximum(
            np.maximum.reduce(moved / plan.fetch_bw, axis=0),
            moved[-1] * per_socket / machine.dram_bw_per_socket,
        )

        work_t = compute_t + overhead_t
        busy = np.maximum(work_t, mem_t) + machine.mem_overlap_residual * np.minimum(
            work_t, mem_t
        )
        # tax 1 and no fork/join at one thread, so these leave busy as is
        busy = busy * tax + fork_join
        if self.sweep_factor != 1:  # x * 1 is x
            busy, dram_traffic = busy * self.sweep_factor, dram_traffic * self.sweep_factor
        return busy, dram_traffic, active_sockets

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------

    def fingerprint(self) -> str:
        """Content hash of everything that determines :meth:`time_batch`.

        Two models with equal fingerprints produce identical times for
        every (tiles, threads) configuration, so the fingerprint can key
        a persistent measurement cache across processes.  Every repr used
        is deterministic — ``Stream.depends`` (a frozenset, whose repr
        order follows hash randomization) is sorted explicitly."""
        return content_hash(
            self.machine,
            sorted(self.bindings.items()),
            self.band,
            sorted(self.extent.items()),
            self.flops_per_iteration,
            self.sweep_factor,
            self.total_iterations,
            self.parallel_spec,
            self._elem_size,
            *(
                (st.array, st.coeff_dims, st.const_span, tuple(sorted(st.depends)),
                 st.has_write, st.elem_size)
                for st in self.streams
            ),
        )

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------

    def baseline_time(self) -> float:
        """Sequential untiled execution ("GCC -O3" reference row)."""
        return self.time({}, threads=1)
