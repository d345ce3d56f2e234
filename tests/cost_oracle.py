"""Frozen reference copy of ``RegionCostModel.time_batch``.

This is the per-stream, per-level batch evaluation that the cost model
used before it was rewritten over a precompiled plan
(:class:`repro.evaluation.cost.RegionCostModel` builds the plan once per
model).  It is kept verbatim as an exact differential oracle: the plan
path must return bit-identical arrays (``np.array_equal``), which
``tests/test_cost_plan.py`` asserts over machines, kernels, parallel specs
and batch shapes, and ``benchmarks/test_perf_micro.py`` times the plan
path against it.  Call it as ``time_batch(model, tiles, threads)``.
"""

from __future__ import annotations

import numpy as np

from repro.evaluation.cost import Stream

__all__ = ["time_batch"]


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
