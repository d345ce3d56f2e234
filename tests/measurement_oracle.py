"""Frozen reference formulations of the measurement path.

:func:`compute_keys`, :func:`predict` and :class:`ShardLoader` are the
measurement path as it stood before measurements travelled as rows, kept
verbatim (methods turned into functions of their old ``self``) as exact
differential oracles and as the baselines of the perf gates in
``benchmarks/test_perf_micro.py``:

* :func:`compute_keys` — ``SimulatedTarget.compute_keys`` building one
  ``(Objectives, Measurement)`` pair per key, with ``np.median``.  Call it
  as ``compute_keys(target, keys)``.
* :func:`predict` — ``RegionCostModel._predict`` with its per-stream and
  per-level Python loops, over the plan :func:`build_plan` makes once per
  model.  Call it as ``predict(model, tiles, threads, collapsed)``.
* :func:`predict_per_level` and :func:`energy_batch_per_level` —
  ``RegionCostModel._predict`` with one traffic pass per cache level and
  another for the TLB, thread-count terms computed per call and a
  footprint pass per line size, over the plan
  :func:`build_plan_per_level` makes once per model.  The fused model
  must match all three of its outputs bit for bit
  (``tests/test_measurement_floor.py``), and the per-call perf gate times
  against it.
* :func:`ndtri_gather` — ``repro.util.ndtri.ndtri`` as it gathered a
  ``(2n, 9)`` Horner coefficient matrix per element.
* :class:`ShardLoader`, :func:`record_line` and :func:`append_records` —
  the disk shard's per-record format (schema 1, one JSON line per
  configuration): its line-by-line ``_read_tail`` holding
  ``(Objectives, Measurement)`` records, the direct formatter that wrote
  ``json.dumps``' bytes, and its flocked append.  They are the baseline of
  the batch-line shard's perf gate and the frozen rows it must match.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time as _time
import weakref
from collections.abc import Sequence
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from repro.evaluation.measurements import Measurement, Row
from repro.evaluation.objectives import Objectives
from repro.util.ndtri import _EXPM2, _HIGH, _P0, _P1, _P2, _Q0, _Q1, _Q2, _S2PI

__all__ = [
    "ShardLoader",
    "append_records",
    "build_plan",
    "build_plan_per_level",
    "compute_keys",
    "energy_batch",
    "energy_batch_per_level",
    "ndtri_gather",
    "predict",
    "predict_per_level",
    "record_line",
]


def _footprint(extents: np.ndarray, line_elems: np.ndarray, line_size: int) -> np.ndarray:
    """Bytes of the cache lines S streams touch, given their per-dimension
    extents (R, S, ...) → (S, ...): line granularity on the innermost
    dimension only (outer dimensions are strided), multiplied outer
    dimensions first, then innermost lines."""
    inner = np.ceil(extents[-1] / line_elems)
    return functools.reduce(np.multiply, [*extents[:-1], inner]) * line_size


def build_plan(self) -> SimpleNamespace:
    """``RegionCostModel._build_plan``: the plan :func:`predict` reads."""
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
    ext = np.array([self.extent[v] for v in band])
    whole = base + (coeff_flat @ (ext - 1)).reshape(R, S, 1, 1)
    by_line = {}
    for L in {lv.line_size for lv in machine.levels} | {machine.page_size}:
        line_elems = np.array([max(1, L // st.elem_size) for st in streams], dtype=float)
        line_elems = line_elems.reshape(S, 1, 1)
        comp = ws = 0.0
        for w, fp in zip(weight.ravel(), _footprint(whole, line_elems, L).ravel()):
            comp += w * fp
            ws += fp
        by_line[L] = line_elems, float(comp), float(ws)
    merged_coeff = np.where(depth >= 0, coeff[:, np.arange(S)[:, None], merged % n], 0)
    return SimpleNamespace(
        base=base,
        coeff=coeff_flat,
        weight=weight,
        merged=merged,
        merged_coeff=merged_coeff[..., None],
        by_line=by_line,
    )


#: model → its :func:`build_plan`, built once per model like the model's own
_PLANS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def predict(
    self,
    tiles: np.ndarray,
    threads: np.ndarray,
    collapsed: int | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The model itself, as arrays (B,): wall time, the DRAM bytes the
    whole run moves (all threads) and the active socket count.  One
    contraction gives the extents of every (reuse unit, stream),
    footprints and unit traffic are computed once per distinct line
    size, and each cache level and the TLB only pick their fitting
    unit."""
    machine, band = self.machine, self.band
    plan = _PLANS.get(self)
    if plan is None:
        plan = _PLANS[self] = build_plan(self)
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
    share = np.where(threads > 1, np.ceil(par_iters / threads) / par_iters, 1.0)

    # spans per unit (n, n_units, B): unit s fixes the first s band vars
    n_units = n + 1
    spans = np.where(np.tri(n_units, n, -1, dtype=bool).T[..., None], 1, t.T[:, None])
    R, S = plan.base.shape[:2]
    unit_ext = plan.base + (plan.coeff @ (spans - 1).reshape(n, -1)).reshape(R, S, n_units, B)
    # outer-loop counts (tile loops, then point loops) and their prefix
    # products: unit s refetches stream j prefix[merged[j, s]] times and
    # its footprint absorbs loop merged[j, s]'s span
    counts = np.concatenate([trips.T, t.T])
    prefix = np.ones((2 * n + 1, B))
    for k in range(2 * n):
        prefix[k + 1] = prefix[k] * counts[k]
    merged_pos = plan.merged % n
    span_at = spans[merged_pos, np.arange(n_units)]
    grown = np.minimum(ext[merged_pos][..., None], counts[plan.merged] * span_at) - span_at
    merged_ext = unit_ext + plan.merged_coeff * grown
    weighted_fetches = plan.weight * prefix[plan.merged]
    per_line: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def level_traffic_for(capacity, cap_whole: float, line_size: int) -> np.ndarray:
        line_elems, comp, ws_whole = plan.by_line[line_size]
        if ws_whole <= cap_whole:
            return np.full(B, comp)
        if line_size not in per_line:  # (working set, traffic) per unit
            fp = _footprint(unit_ext, line_elems, line_size)
            fp_merged = _footprint(merged_ext, line_elems, line_size)
            ws, traffic = np.zeros((n_units, B)), np.zeros((n_units, B))
            for j in range(len(fp)):
                ws += fp[j]
                traffic += weighted_fetches[j] * fp_merged[j]
            per_line[line_size] = ws, traffic
        ws, traffic = per_line[line_size]
        # smallest s whose working set fits; fallback: last unit
        fits = ws <= capacity
        s_star = np.where(fits.any(axis=0), fits.argmax(axis=0), n_units - 1)
        return np.maximum(traffic[s_star, np.arange(B)], comp)

    level_traffic = []
    for level in machine.levels:
        cap_unit = level.size / max_per_socket if level.shared else float(level.size)
        traffic = level_traffic_for(cap_unit, float(level.size), level.line_size)
        level_traffic.append(
            np.minimum(traffic, level_traffic[-1]) if level_traffic else traffic
        )

    freq = machine.freq_hz
    flops = self.flops_per_iteration * self.total_iterations
    compute_t = flops * share / (machine.flops_per_cycle * freq)

    # loop overhead: entries of all 2n loops, iterations of the outer 2n-1
    entries = np.ones(B)
    iters = np.zeros(B)
    for k in range(2 * n):
        entries = entries + prefix[k]
        if k:
            iters = iters + prefix[k]
    overhead_t = (
        iters * machine.loop_overhead_cycles + entries * machine.loop_entry_cycles
    ) * share / freq

    # TLB
    tlb_reach = float(machine.tlb_reach)
    tlb_traffic = level_traffic_for(tlb_reach, tlb_reach, machine.page_size)
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
    return busy * self.sweep_factor, dram_traffic * self.sweep_factor, active_sockets


def build_plan_per_level(self) -> SimpleNamespace:
    """``RegionCostModel._build_plan`` for :func:`predict_per_level`."""
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
    by_line = {}
    for L in {lv.line_size for lv in machine.levels} | {machine.page_size}:
        line_elems = np.array([max(1, L // st.elem_size) for st in streams], dtype=float)
        line_elems = line_elems.reshape(S, 1, 1)
        comp = ws = 0.0
        for w, fp in zip(weight.ravel(), _footprint(whole, line_elems, L).ravel()):
            comp += w * fp
            ws += fp
        by_line[L] = line_elems, float(comp), float(ws)
    merged_pos = merged % n
    merged_coeff = np.where(depth >= 0, coeff[:, np.arange(S)[:, None], merged_pos], 0)
    return SimpleNamespace(
        base=base, coeff=coeff_flat, ext=ext,
        fixed=np.tri(n + 1, n, -1, dtype=bool).T[..., None],
        merged=merged, span_index=(merged_pos, np.arange(n + 1)),
        merged_cap=ext[merged_pos][..., None],
        merged_coeff=np.stack([np.zeros_like(merged_coeff), merged_coeff], axis=1)[..., None],
        weight=np.stack([np.ones_like(weight), weight]),
        fetch_rows=np.stack([np.zeros_like(merged), merged]),
        by_line=by_line,
        fetch_bw=np.array([[level.fetch_bw] for level in machine.levels], dtype=float),
    )


#: model → its :func:`build_plan_per_level`, built once per model
_PER_LEVEL_PLANS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def predict_per_level(
    self,
    tiles: np.ndarray,
    threads: np.ndarray,
    collapsed: int | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The model itself, as arrays (B,): wall time, the DRAM bytes the
    whole run moves (all threads) and the active socket count.  One
    contraction gives the extents of every (reuse unit, stream),
    footprints and unit traffic are computed once per distinct line
    size, and each cache level and the TLB only pick their fitting
    unit."""
    machine, band = self.machine, self.band
    plan = _PER_LEVEL_PLANS.get(self)
    if plan is None:
        plan = _PER_LEVEL_PLANS[self] = build_plan_per_level(self)
    n = len(band)
    tiles = np.asarray(tiles, dtype=np.int64)
    threads = np.asarray(threads, dtype=np.int64)
    if tiles.ndim != 2 or tiles.shape[1] != n:
        raise ValueError(f"tiles must have shape (B, {n})")
    B = tiles.shape[0]
    if threads.shape != (B,):
        raise ValueError("threads must have shape (B,)")

    ext = plan.ext
    t = np.minimum(np.maximum(tiles, 1), ext)
    trips = -(-ext // t)  # ceil div, (B, n)

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
        par_iters = np.multiply.reduce(trips[:, :depth], axis=1)
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
    share = np.where(threads > 1, np.ceil(par_iters / threads) / par_iters, 1.0)

    # spans per unit (n, n_units, B): unit s fixes the first s band vars
    n_units = n + 1
    spans = np.where(plan.fixed, 1, t.T[:, None])
    R, S = plan.base.shape[:2]
    unit_ext = plan.base + (plan.coeff @ (spans - 1).reshape(n, -1)).reshape(R, S, n_units, B)
    # outer-loop counts (tile loops, then point loops) and their prefix
    # products: unit s refetches stream j prefix[merged[j, s]] times and
    # its footprint absorbs loop merged[j, s]'s span
    counts = np.concatenate([trips.T, t.T])
    prefix = np.multiply.accumulate(np.concatenate([np.ones((1, B)), counts]), axis=0)
    span_at = spans[plan.span_index]
    grown = np.minimum(plan.merged_cap, counts[plan.merged] * span_at) - span_at
    extents = unit_ext[:, None] + plan.merged_coeff * grown  # (R, 2, S, n_units, B)
    factors = plan.weight * prefix[plan.fetch_rows]  # (2, S, n_units, B)
    columns = np.arange(B)
    per_line: dict[int, np.ndarray] = {}

    def level_traffic_for(capacity, cap_whole: float, line_size: int) -> np.ndarray:
        line_elems, comp, ws_whole = plan.by_line[line_size]
        if ws_whole <= cap_whole:
            return np.full(B, comp)
        if line_size not in per_line:  # (working set, traffic) per unit
            # streams summed in order: n_units >= 2 keeps the stream
            # axis outside reduce's inner loop, so it never sums pairwise
            fp = _footprint(extents, line_elems, line_size)
            per_line[line_size] = np.add.reduce(factors * fp, axis=1)
        ws, traffic = per_line[line_size]
        # smallest s whose working set fits; fallback: last unit
        fits = ws <= capacity
        fits[-1] = True
        return np.maximum(traffic[fits.argmax(axis=0), columns], comp)

    # each level moves at most what the level above it does
    level_traffic = np.minimum.accumulate(
        [
            level_traffic_for(
                level.size / max_per_socket if level.shared else float(level.size),
                float(level.size),
                level.line_size,
            )
            for level in machine.levels
        ],
        axis=0,
    )

    freq = machine.freq_hz
    flops = self.flops_per_iteration * self.total_iterations
    compute_t = flops * share / (machine.flops_per_cycle * freq)

    # loop overhead: entries of all 2n loops, 1 + prefix[0] + ... +
    # prefix[2n-1], and iterations of the outer 2n-1, prefix[1] + ... +
    # prefix[2n-1], each summed left to right (a reduce would sum
    # pairwise once B = 1 leaves it one axis)
    entries = np.add.accumulate(np.concatenate([prefix[:1], prefix[: 2 * n]]))[-1]
    iters = np.add.accumulate(prefix[1 : 2 * n])[-1]
    overhead_t = (
        iters * machine.loop_overhead_cycles + entries * machine.loop_entry_cycles
    ) * share / freq

    # TLB
    tlb_reach = float(machine.tlb_reach)
    tlb_traffic = level_traffic_for(tlb_reach, tlb_reach, machine.page_size)
    overhead_t += (
        tlb_traffic / machine.page_size * machine.tlb_miss_cycles * share / freq
    )

    dram_traffic = level_traffic[-1]
    mem_t = np.maximum(
        np.maximum.reduce(level_traffic * share / plan.fetch_bw, axis=0),
        np.maximum(
            dram_traffic * share / machine.dram_bw_per_core,
            dram_traffic * share * max_per_socket / machine.dram_bw_per_socket,
        ),
    )

    work_t = compute_t + overhead_t
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
    return busy * self.sweep_factor, dram_traffic * self.sweep_factor, active_sockets


def energy_batch_per_level(self, tiles, threads, collapsed=None):
    """``RegionCostModel.energy_batch`` over :func:`predict_per_level`."""
    time, dram_bytes, active_sockets = predict_per_level(self, tiles, threads, collapsed)
    machine = self.machine
    power = (
        active_sockets * machine.idle_power_per_socket
        + np.asarray(threads, dtype=np.int64) * machine.active_power_per_core
    )
    return time, time * power + dram_bytes * machine.dram_energy_per_byte


#: the parent's Horner coefficients, highest power first: rows 0-2 ``P``
#: and rows 3-5 ``Q`` of the central branch and the two tails
_PQ = np.array([
    (0.0,) * 4 + _P0, _P1, _P2, (1.0,) + _Q0, (1.0,) + _Q1, (1.0,) + _Q2,
])
_Q_ROW = 3


def ndtri_gather(y) -> np.ndarray:
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
    """:func:`ndtri_gather` of an array holding 0, 1, NaN or values outside
    [0, 1]."""
    inside = (y > 0.0) & (y < 1.0)
    out = np.where(y == 0.0, -np.inf, np.where(y == 1.0, np.inf, np.nan))
    # Cephes runs a NaN through and negates it on return
    nan = np.isnan(y)
    out[nan] = -y[nan]
    out[inside] = ndtri_gather(y[inside])
    return out[()] if out.ndim == 0 else out


def energy_batch(self, tiles, threads, collapsed=None):
    """``RegionCostModel.energy_batch`` over :func:`predict`."""
    time, dram_bytes, active_sockets = predict(self, tiles, threads, collapsed)
    machine = self.machine
    power = (
        active_sockets * machine.idle_power_per_socket
        + np.asarray(threads, dtype=np.int64) * machine.active_power_per_core
    )
    return time, time * power + dram_bytes * machine.dram_energy_per_byte


def compute_keys(
    self, keys: Sequence[tuple]
) -> list[tuple[Objectives, Measurement]]:
    """Measure canonical keys **purely** — the ledger is not touched.

    This is the worker half of the engine's dedup → dispatch → commit
    pipeline: because the noise is hash-derived per (key, repetition),
    the result of a key is independent of evaluation order and of how a
    batch is partitioned across workers, so any chunking of *keys* is
    bit-identical to one bulk call (``time_batch`` and ``energy_batch``
    are row-elementwise).  With ``measure_energy`` one ``energy_batch``
    call gives the whole batch's times and energies.
    Callers are responsible for recording results via :meth:`commit`.
    (The noise matrix is still the target's own ``_noise_factor_matrix``.)
    """
    if not len(keys):
        return []
    matrix = np.array(keys, dtype=np.int64)
    tiles, threads = matrix[:, :-1], matrix[:, -1]
    if self.measure_energy:
        true_times, true_energies = energy_batch(
            self.model, tiles, threads, collapsed=self.collapsed
        )
        true_energies = true_energies.tolist()
    else:
        true_times = predict(self.model, tiles, threads, self.collapsed)[0]
        true_energies = [None] * len(keys)
    reps = self.protocol.repetitions
    overhead = self.protocol.overhead_s
    if overhead > 0:
        # the simulated pipeline latency is per configuration no matter
        # how the batch is chunked
        _time.sleep(overhead * len(keys))
    # one hash-derived factor matrix + one median sweep for the whole
    # chunk: the per-key loop below only assembles result objects, from
    # Python floats (``tolist``), as the disk cache serves them
    factors = self._noise_factor_matrix(keys, reps)
    samples = true_times[:, None] * factors
    medians = np.median(samples, axis=1).tolist()
    out = []
    for key, value, row, true_time, true_energy in zip(
        keys, medians, samples.tolist(), true_times.tolist(), true_energies
    ):
        energy = None
        if true_energy is not None:
            # energy measurements share the run's jitter: scale the
            # model energy by the same median noise factor as the time
            energy = true_energy * (value / true_time)
        out.append((
            Objectives(time=value, threads=int(key[-1]), energy=energy),
            Measurement(value=value, samples=tuple(row)),
        ))
    return out


class ShardLoader:
    """A shard file's records as the line-by-line loader read them:
    ``ShardLoader(path, fingerprint).load()`` → ``key → (Objectives,
    Measurement)``."""

    def __init__(self, path: Path, fingerprint: str) -> None:
        self.path = path
        self.fingerprint = fingerprint
        self._records: dict[tuple, tuple[Objectives, Measurement]] = {}
        self._offset = 0
        self._size = 0
        self._foreign = False

    def load(self) -> dict[tuple, tuple[Objectives, Measurement]]:
        with open(self.path, "rb") as fh:
            self._read_tail(fh)
        return self._records

    def _read_tail(self, fh) -> None:
        """Parse the complete lines from ``_offset`` to the end of *fh*."""
        fh.seek(0, os.SEEK_END)
        self._size = fh.tell()
        if self._size < self._offset:  # truncated or replaced: start over
            self._records.clear()
            self._offset = 0
            self._foreign = False
        fh.seek(self._offset)
        data = fh.read(self._size - self._offset)
        complete = data.rfind(b"\n") + 1  # a torn last line waits for its end
        self._offset += complete
        if self._foreign:
            return
        for line in data[:complete].splitlines():
            try:
                d = json.loads(line)
            except (json.JSONDecodeError, UnicodeDecodeError):
                continue  # torn/corrupt line: skip, don't poison
            if not isinstance(d, dict):
                continue
            if "schema" in d:
                if d.get("fingerprint") != self.fingerprint:
                    self._foreign = True  # foreign header: treat as empty
                    self._records.clear()
                    return
                continue
            try:
                key = tuple(int(v) for v in d["k"])
                samples = tuple(float(s) for s in d["s"])
                energy = d.get("e")
                obj = Objectives(
                    time=float(d["v"]),
                    threads=key[-1],
                    energy=None if energy is None else float(energy),
                )
                self._records[key] = (
                    obj,
                    Measurement(value=float(d["v"]), samples=samples),
                )
            except (KeyError, TypeError, ValueError, IndexError):
                continue


_float = float.__repr__


def record_line(key: tuple, row: Row) -> str:
    """``json.dumps({"k": list(key), "v": time, "s": samples, "e": energy})``
    byte for byte, formatted directly for int keys and finite floats (JSON
    writes both with their ``repr``); anything else goes through
    ``json.dumps`` itself."""
    time, samples, energy = row
    try:
        line = '{"k": [%s], "v": %s, "s": [%s], "e": %s}' % (
            ", ".join(map(int.__repr__, key)),
            _float(time),
            ", ".join(map(_float, samples)),
            "null" if energy is None else _float(energy),
        )
        if "inf" not in line and "nan" not in line:
            return line
    except TypeError:
        pass
    return json.dumps({"k": list(key), "v": time, "s": list(samples), "e": energy})


def append_records(path: Path, fingerprint: str, items: list[tuple[tuple, Row]]) -> None:
    """Append ``(key, row)`` *items* to a per-record shard file as
    ``_Shard.put_many`` did: one :func:`record_line` per configuration
    under an exclusive ``flock``, after a schema-1 header on a new file
    and a newline after a torn tail.  Unlike the shard, it does not skip
    keys already present."""
    import fcntl

    with open(path, "a+b") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        size = fh.seek(0, os.SEEK_END)
        lines = [record_line(key, row) for key, row in items]
        if size == 0:
            lines.insert(0, json.dumps({"schema": 1, "fingerprint": fingerprint}))
        else:
            fh.seek(size - 1)
            if fh.read(1) != b"\n":
                lines.insert(0, "")
        fh.write(("\n".join(lines) + "\n").encode("utf-8"))
