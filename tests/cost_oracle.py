"""Frozen reference formulations of :class:`repro.evaluation.cost.RegionCostModel`.

The cost model has one implementation in the package, vectorized over B
configurations and evaluated over a precompiled plan.  Two earlier
formulations are kept here verbatim as exact differential oracles:

* :class:`ScalarCostModel` — the scalar, per-configuration model
  (``RegionCostModel._evaluate`` and its helpers, one stream, one level and
  one reuse unit at a time), the formulation the model's module docstring
  describes.  ``tests/test_evaluation.py`` asserts that ``time_batch`` and
  ``energy_batch`` equal its ``time`` and ``energy`` with ``==``, and the
  cache-simulator validations read its per-unit traffic.  Build it as
  ``ScalarCostModel(model)``: attributes it does not define (machine, band,
  extents, parallel spec, flop counts) are the wrapped model's.
* :func:`time_batch` — the per-stream, per-level batch evaluation the model
  used before the plan: the plan path must return bit-identical arrays
  (``np.array_equal``), which ``tests/test_cost_plan.py`` asserts over
  machines, kernels, parallel specs and batch shapes, and
  ``benchmarks/test_perf_micro.py`` times the plan path against it.  Call
  it as ``time_batch(model, tiles, threads)``.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.evaluation.cost import RegionCostModel, Stream
from repro.machine.topology import place_threads

__all__ = ["ScalarCostModel", "ScalarStream", "time_batch"]


@dataclasses.dataclass(frozen=True)
class ScalarStream(Stream):
    """A :class:`~repro.evaluation.cost.Stream` with its scalar footprint."""

    def footprint_bytes(self, spans: dict[str, int], line_size: int) -> float:
        """Bytes of the cache lines touched per unit execution when each loop
        var covers ``spans[var]`` consecutive values (line granularity on the
        innermost dimension only — outer dimensions are strided)."""
        ext = [
            1 + extra + sum(abs(c) * (spans.get(var, 1) - 1) for var, c in coeffs)
            for coeffs, extra in zip(self.coeff_dims, self.const_span)
        ]
        lines = math.ceil(ext[-1] / max(1, line_size // self.elem_size)) if ext else 1
        for e in ext[:-1]:
            lines *= e
        return float(lines) * line_size


class ScalarCostModel:
    """The scalar cost model over a :class:`RegionCostModel`'s analysis."""

    def __init__(self, model: RegionCostModel) -> None:
        self.model = model
        self.streams = tuple(
            ScalarStream(**{f.name: getattr(st, f.name) for f in dataclasses.fields(st)})
            for st in model.streams
        )

    def __getattr__(self, name: str):
        return getattr(self.model, name)

    def baseline_time(self) -> float:
        """Sequential untiled execution ("GCC -O3" reference row)."""
        return self.time({}, threads=1)

    def time(
        self,
        tile_sizes: dict[str, int],
        threads: int,
        collapsed: int | None = None,
    ) -> float:
        """Predicted wall time in seconds for one kernel invocation.

        :param tile_sizes: tile size per band var; vars omitted default to
            their full extent (``tile_sizes={}`` models the untiled code).
        :param threads: worksharing thread count (1 = sequential, no
            parallel overhead).
        :param collapsed: how many outer tile loops are collapsed into the
            worksharing loop; overrides the constructor's ``parallel_spec``.
        """
        return self._evaluate(tile_sizes, threads, collapsed)["time"]

    def energy(
        self,
        tile_sizes: dict[str, int],
        threads: int,
        collapsed: int | None = None,
    ) -> float:
        """Predicted energy in joules for one kernel invocation.

        Power model: active sockets draw their idle/uncore power for the
        whole run, each busy core adds its active power, and every byte
        moved from DRAM costs a fixed energy (see the machine's
        ``*_power``/``dram_energy_per_byte`` parameters).  Energy is the
        paper's third example objective (§III-B1) and exhibits its own
        optimum: few threads waste idle power over a long runtime, many
        threads burn core power against sublinear speedup.
        """
        parts = self._evaluate(tile_sizes, threads, collapsed)
        machine = self.machine
        placement = parts["placement"]
        t = parts["time"]
        power = (
            placement.active_sockets * machine.idle_power_per_socket
            + threads * machine.active_power_per_core
        )
        dram_bytes = parts["dram_bytes_total"]
        return t * power + dram_bytes * machine.dram_energy_per_byte

    def _evaluate(
        self,
        tile_sizes: dict[str, int],
        threads: int,
        collapsed: int | None = None,
    ) -> dict:
        """Shared scalar evaluation: returns time plus the component values
        the energy model needs."""
        machine = self.machine
        tiles = {v: int(min(max(1, tile_sizes.get(v, self.extent[v])), self.extent[v]))
                 for v in self.band}
        trips = {v: math.ceil(self.extent[v] / tiles[v]) for v in self.band}

        placement = place_threads(machine, threads)

        # ---- load imbalance over the worksharing loop --------------------
        par_iters, invocations = self._parallel_structure(tiles, trips, collapsed)
        if threads > 1:
            chunks = math.ceil(par_iters / threads)
            share = chunks / par_iters  # busiest thread's work fraction
        else:
            share = 1.0

        # ---- traffic per cache level -------------------------------------
        spans_units = self._unit_spans(tiles)
        whole_spans = {v: self.extent[v] for v in self.band}

        level_traffic: list[float] = []
        prev = math.inf
        for level in machine.levels:
            if level.shared:
                cap_unit = level.size / placement.max_threads_per_socket
                cap_whole = float(level.size)
            else:
                cap_unit = float(level.size)
                cap_whole = float(level.size)

            ws_whole = sum(
                s.footprint_bytes(whole_spans, level.line_size) for s in self.streams
            )
            if ws_whole <= cap_whole:
                traffic = self._compulsory_traffic(whole_spans, level.line_size)
            else:
                s_idx = self._fitting_unit(spans_units, cap_unit, level.line_size)
                traffic = self._unit_traffic(
                    spans_units[s_idx], s_idx, tiles, trips, level.line_size
                )
                compulsory = self._compulsory_traffic(whole_spans, level.line_size)
                traffic = max(traffic, compulsory)
            traffic = min(traffic, prev) if level_traffic else traffic
            prev = traffic
            level_traffic.append(traffic)

        # ---- per-thread times --------------------------------------------
        freq = machine.freq_hz
        flops = self.flops_per_iteration * self.total_iterations
        compute_t = flops * share / (machine.flops_per_cycle * freq)

        loop_iters, loop_entries = self._loop_overhead_counts(tiles, trips)
        overhead_t = (
            loop_iters * machine.loop_overhead_cycles
            + loop_entries * machine.loop_entry_cycles
        ) * share / freq

        mem_times = []
        for level, traffic in zip(machine.levels, level_traffic):
            mem_times.append(traffic * share / level.fetch_bw)

        # TLB: same reuse-unit machinery at page granularity; column walks
        # through more pages than the TLB holds pay a walk per new page.
        tlb_idx = self._fitting_unit(spans_units, machine.tlb_reach, machine.page_size)
        tlb_ws_whole = sum(
            s.footprint_bytes(whole_spans, machine.page_size) for s in self.streams
        )
        tlb_compulsory = self._compulsory_traffic(whole_spans, machine.page_size)
        if tlb_ws_whole <= machine.tlb_reach:
            tlb_traffic = tlb_compulsory
        else:
            tlb_traffic = max(
                self._unit_traffic(
                    spans_units[tlb_idx], tlb_idx, tiles, trips, machine.page_size
                ),
                tlb_compulsory,
            )
        tlb_misses = tlb_traffic / machine.page_size
        overhead_t += tlb_misses * machine.tlb_miss_cycles * share / freq

        dram_traffic = level_traffic[-1]
        mem_times.append(dram_traffic * share / machine.dram_bw_per_core)
        per_socket_threads = placement.max_threads_per_socket
        mem_times.append(
            dram_traffic * share * per_socket_threads / machine.dram_bw_per_socket
        )

        # roofline with a residual: compute and memory mostly overlap, but
        # a fraction of the smaller term stays exposed (out-of-order windows
        # are finite) — this keeps secondary traffic gradients visible even
        # for compute-bound configurations
        work_t = compute_t + overhead_t
        mem_t = max(mem_times)
        busy = max(work_t, mem_t) + machine.mem_overlap_residual * min(work_t, mem_t)

        # coherence / NUMA tax: populated sockets contend on shared chip
        # resources; extra active sockets add snoop/cross-socket coherence
        # cost.  This (plus DRAM saturation and imbalance) produces the
        # efficiency decay of the paper's Table III.
        if threads > 1:
            cps = machine.cores_per_socket
            fill = (placement.max_threads_per_socket - 1) / max(1, cps - 1)
            tax = 1.0 + machine.smp_tax * fill
            tax += machine.numa_tax * (placement.active_sockets - 1)
            busy *= tax
            busy += (
                machine.fork_join_base + machine.fork_join_per_thread * threads
            ) * invocations

        return {
            "time": busy * self.sweep_factor,
            "placement": placement,
            # total DRAM bytes moved by the whole run (all threads)
            "dram_bytes_total": dram_traffic * self.sweep_factor,
            "share": share,
        }

    def _parallel_structure(
        self,
        tiles: dict[str, int],
        trips: dict[str, int],
        collapsed: int | None,
    ) -> tuple[int, int]:
        """(worksharing iteration count P, parallel-region invocations per
        kernel call) under the configured parallel spec."""
        spec = self.parallel_spec
        if collapsed is not None:
            spec = ("collapse", collapsed)
        if spec is None:
            spec = ("collapse", min(2, len(self.band)))
        kind, arg = spec
        if kind == "collapse":
            n = max(1, min(int(arg or 1), len(self.band)))
            par = 1
            for v in self.band[:n]:
                par *= trips[v]
            return par, 1
        if kind == "tile":
            return trips[str(arg)], 1
        if kind == "point":
            var = str(arg)
            # one fork/join per iteration of the enclosing tile loops (the
            # tile loops of all tiled vars sit above the point loop)
            invocations = 1
            for v in self.band:
                if v != var and tiles[v] < self.extent[v]:
                    invocations *= trips[v]
            return self.extent[var], invocations
        if kind == "none":
            return 1, 1
        raise ValueError(f"unknown parallel spec {spec!r}")

    # -- helpers ----------------------------------------------------------

    def _unit_spans(self, tiles: dict[str, int]) -> list[dict[str, int]]:
        """Spans of the reuse units: index ``s`` fixes the first ``s`` band
        vars (span 1) and lets the rest cover a full tile."""
        units = []
        for s in range(len(self.band) + 1):
            spans = {}
            for pos, v in enumerate(self.band):
                spans[v] = 1 if pos < s else tiles[v]
            units.append(spans)
        return units

    def _fitting_unit(
        self, spans_units: list[dict[str, int]], capacity: float, line_size: int
    ) -> int:
        for s, spans in enumerate(spans_units):
            ws = sum(s_.footprint_bytes(spans, line_size) for s_ in self.streams)
            if ws <= capacity:
                return s
        return len(spans_units) - 1

    def _unit_traffic(
        self,
        spans: dict[str, int],
        s_idx: int,
        tiles: dict[str, int],
        trips: dict[str, int],
        line_size: int,
    ) -> float:
        """Total traffic when the reuse unit is the point-loop suffix at
        depth ``s_idx``.

        Per stream: let ``d`` be the innermost loop outside the unit the
        stream depends on (outer sequence = all tile loops, then the point
        loops above the unit).  The stream is re-fetched once per combined
        iteration of the loops *outside* ``d``; loop ``d`` itself is merged
        into the footprint (its span expanded by its iteration count), so
        that consecutive fetches along a contiguous dimension share cache
        lines instead of paying a full line each — this is what makes a
        column walk (``B[k][j]`` untiled) expensive and a row walk cheap."""
        outer: list[tuple[str, int]] = [(v, trips[v]) for v in self.band]
        outer += [(v, tiles[v]) for v in self.band[:s_idx]]

        total = 0.0
        for stream in self.streams:
            depth = -1
            for idx, (v, _count) in enumerate(outer):
                if v in stream.depends:
                    depth = idx
            if depth < 0:
                bytes_total = stream.footprint_bytes(spans, line_size)
            else:
                fetches = 1.0
                for idx in range(depth):
                    fetches *= outer[idx][1]
                d_var, d_count = outer[depth]
                expanded = dict(spans)
                expanded[d_var] = min(
                    self.extent[d_var], d_count * spans.get(d_var, 1)
                )
                bytes_total = fetches * stream.footprint_bytes(expanded, line_size)
            weight = 2.0 if stream.has_write else 1.0
            total += bytes_total * weight
        return total

    def _compulsory_traffic(self, whole_spans: dict[str, int], line_size: int) -> float:
        """Cold-miss floor: every touched line once (twice for written
        streams — fetch plus writeback)."""
        total = 0.0
        for stream in self.streams:
            weight = 2.0 if stream.has_write else 1.0
            total += stream.footprint_bytes(whole_spans, line_size) * weight
        return total

    def _loop_overhead_counts(
        self, tiles: dict[str, int], trips: dict[str, int]
    ) -> tuple[float, float]:
        """(iterations of non-innermost loops, loop entries) of the tiled
        nest — tile loops outermost, point loops inside.  Innermost-loop
        bookkeeping is folded into the machine's sustained flop rate, so
        only outer-level iterations and loop entries (bound computation,
        branch misprediction on exit) are charged."""
        counts = [trips[v] for v in self.band] + [tiles[v] for v in self.band]
        iters = 0.0
        entries = 1.0
        cumulative = 1.0
        for level, c in enumerate(counts):
            entries += cumulative
            cumulative *= c
            if level < len(counts) - 1:
                iters += cumulative
        return iters, entries




def time_batch(
    self,
    tiles: np.ndarray,
    threads: np.ndarray,
    collapsed: int | None = None,
) -> np.ndarray:
    """Vectorized :meth:`time`.

    :param tiles: int array (B, len(band)) — tile sizes in band order.
    :param threads: int array (B,).
    :returns: float array (B,) of seconds.
    """
    machine = self.machine
    band = self.band
    n = len(band)
    tiles = np.asarray(tiles, dtype=np.int64)
    threads = np.asarray(threads, dtype=np.int64)
    if tiles.ndim != 2 or tiles.shape[1] != n:
        raise ValueError(f"tiles must have shape (B, {n})")
    B = tiles.shape[0]
    if threads.shape != (B,):
        raise ValueError("threads must have shape (B,)")

    ext = np.array([self.extent[v] for v in band], dtype=np.int64)
    t = np.clip(tiles, 1, ext[None, :])
    trips = -(-ext[None, :] // t)  # ceil div, (B, n)

    # thread placement (vectorized over the few distinct thread counts)
    cps = machine.cores_per_socket
    max_per_socket = np.minimum(threads, cps)
    active_sockets = -(-threads // cps)

    # worksharing structure per the parallel spec
    spec = self.parallel_spec
    if collapsed is not None:
        spec = ("collapse", collapsed)
    if spec is None:
        spec = ("collapse", min(2, n))
    kind, arg = spec
    invocations = np.ones(B)
    if kind == "collapse":
        depth = max(1, min(int(arg or 1), n))
        par_iters = np.prod(trips[:, :depth], axis=1)
    elif kind == "tile":
        par_iters = trips[:, band.index(str(arg))]
    elif kind == "point":
        pos = band.index(str(arg))
        par_iters = np.full(B, ext[pos])
        for j in range(n):
            if j != pos:
                invocations = invocations * np.where(t[:, j] < ext[j], trips[:, j], 1)
    elif kind == "none":
        par_iters = np.ones(B)
    else:
        raise ValueError(f"unknown parallel spec {spec!r}")
    share = np.where(
        threads > 1, np.ceil(par_iters / threads) / par_iters, 1.0
    )

    # spans per unit: (n_units, B, n)
    n_units = n + 1
    spans = np.empty((n_units, B, n), dtype=np.int64)
    for s in range(n_units):
        spans[s] = t
        spans[s, :, :s] = 1
    whole = np.broadcast_to(ext[None, :], (B, n))

    def fp_bytes(stream: Stream, sp: np.ndarray, line_size: int) -> np.ndarray:
        """Footprint bytes for spans sp (..., n)."""
        line_elems = max(1, line_size // stream.elem_size)
        lines = None
        ndim = len(stream.coeff_dims)
        for d, (coeffs, extra) in enumerate(
            zip(stream.coeff_dims, stream.const_span)
        ):
            e = np.full(sp.shape[:-1], 1 + extra, dtype=np.float64)
            for var, coeff in coeffs:
                pos = band.index(var)
                e = e + abs(coeff) * (sp[..., pos] - 1)
            if d == ndim - 1:
                e = np.ceil(e / line_elems)
            lines = e if lines is None else lines * e
        if lines is None:
            lines = np.ones(sp.shape[:-1])
        return lines * line_size

    def unit_traffic(s: int, line_size: int) -> np.ndarray:
        """Traffic (B,) for reuse unit s at the given line size."""
        # outer sequence: n tile loops (counts=trips), s point loops (counts=t)
        out_counts = [trips[:, i] for i in range(n)] + [t[:, i] for i in range(s)]
        out_vars = list(band) + list(band[:s])
        total = np.zeros(B)
        sp = spans[s]
        for stream in self.streams:
            depth = -1
            for idx, v in enumerate(out_vars):
                if v in stream.depends:
                    depth = idx
            weight = 2.0 if stream.has_write else 1.0
            if depth < 0:
                total += weight * fp_bytes(stream, sp, line_size)
                continue
            fetches = np.ones(B)
            for idx in range(depth):
                fetches = fetches * out_counts[idx]
            d_var = out_vars[depth]
            pos = band.index(d_var)
            expanded = sp.copy()
            expanded[:, pos] = np.minimum(
                ext[pos], out_counts[depth] * sp[:, pos]
            )
            total += weight * fetches * fp_bytes(stream, expanded, line_size)
        return total

    def compulsory(line_size: int) -> np.ndarray:
        total = np.zeros(B)
        for stream in self.streams:
            weight = 2.0 if stream.has_write else 1.0
            total += weight * fp_bytes(stream, whole, line_size)
        return total

    def level_traffic_for(capacity: np.ndarray, cap_whole: float, line_size: int) -> np.ndarray:
        ws_units = np.zeros((n_units, B))
        for s in range(n_units):
            for stream in self.streams:
                ws_units[s] += fp_bytes(stream, spans[s], line_size)
        # smallest s whose working set fits; fallback: last unit
        fits = ws_units <= capacity[None, :]
        s_star = np.where(fits.any(axis=0), fits.argmax(axis=0), n_units - 1)
        traffic = np.zeros(B)
        comp = compulsory(line_size)
        for s in range(n_units):
            mask = s_star == s
            if mask.any():
                traffic[mask] = unit_traffic(s, line_size)[mask]
        traffic = np.maximum(traffic, comp)
        ws_whole = np.zeros(B)
        for stream in self.streams:
            ws_whole += fp_bytes(stream, whole, line_size)
        whole_fits = ws_whole <= cap_whole
        traffic[whole_fits] = comp[whole_fits]
        return traffic

    level_traffic = []
    prev = None
    for level in machine.levels:
        if level.shared:
            cap_unit = level.size / max_per_socket
        else:
            cap_unit = np.full(B, float(level.size))
        traffic = level_traffic_for(cap_unit, float(level.size), level.line_size)
        if prev is not None:
            traffic = np.minimum(traffic, prev)
        prev = traffic
        level_traffic.append(traffic)

    freq = machine.freq_hz
    flops = self.flops_per_iteration * self.total_iterations
    compute_t = flops * share / (machine.flops_per_cycle * freq)

    # loop overhead (non-innermost iterations + entries)
    counts = [trips[:, i] for i in range(n)] + [t[:, i].astype(float) for i in range(n)]
    iters = np.zeros(B)
    entries = np.ones(B)
    cumulative = np.ones(B)
    for level_idx, c in enumerate(counts):
        entries = entries + cumulative
        cumulative = cumulative * c
        if level_idx < len(counts) - 1:
            iters = iters + cumulative
    overhead_t = (
        iters * machine.loop_overhead_cycles + entries * machine.loop_entry_cycles
    ) * share / freq

    # TLB
    tlb_cap = np.full(B, float(machine.tlb_reach))
    tlb_traffic = level_traffic_for(tlb_cap, float(machine.tlb_reach), machine.page_size)
    overhead_t += (
        tlb_traffic / machine.page_size * machine.tlb_miss_cycles * share / freq
    )

    mem_times = [
        traffic * share / level.fetch_bw
        for level, traffic in zip(machine.levels, level_traffic)
    ]
    dram_traffic = level_traffic[-1]
    mem_times.append(dram_traffic * share / machine.dram_bw_per_core)
    mem_times.append(
        dram_traffic * share * max_per_socket / machine.dram_bw_per_socket
    )

    work_t = compute_t + overhead_t
    mem_t = mem_times[0]
    for mt in mem_times[1:]:
        mem_t = np.maximum(mem_t, mt)
    busy = np.maximum(work_t, mem_t) + machine.mem_overlap_residual * np.minimum(
        work_t, mem_t
    )

    par_mask = threads > 1
    fill = (max_per_socket - 1) / max(1, cps - 1)
    tax = 1.0 + machine.smp_tax * fill + machine.numa_tax * (active_sockets - 1)
    busy = np.where(par_mask, busy * tax, busy)
    busy = np.where(
        par_mask,
        busy
        + (machine.fork_join_base + machine.fork_join_per_thread * threads)
        * invocations,
        busy,
    )
    return busy * self.sweep_factor
