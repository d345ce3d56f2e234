"""Tests for the transformations: tiling, collapsing, permutation, unroll,
parallelize, skeletons.  Semantic preservation is checked by executing the
transformed IR against the kernel references."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import extract_regions
from repro.frontend import get_kernel
from repro.ir import Block, For, Min, to_source
from repro.ir.builder import assign, loop, var, func, array, param
from repro.ir.interp import run_function
from repro.ir.types import I64
from repro.ir.visitors import collect, loop_nest, loop_vars
from repro.transform import (
    collapse,
    default_skeleton,
    parallelize,
    permute,
    tile,
    unroll,
)
from repro.transform.skeleton import Parameter
from repro.transform.tiling import tile_var


def run_on_mm(nest_transform, rng, n=17):
    """Apply a nest transformation to mm and execute both versions."""
    k = get_kernel("mm")
    region = extract_regions(k.function)[0]
    new_nest = nest_transform(region.nest)
    from repro.transform import replace_at_path

    fn2 = replace_at_path(k.function, region.path, new_nest)
    sizes = {"N": n}
    inputs = k.make_inputs(sizes, rng)
    ref = k.reference(inputs, sizes)
    out = run_function(fn2, inputs, sizes)
    return out, ref


class TestTiling:
    def test_structure(self, mm_region):
        tiled = tile(mm_region.nest, {"i": 4, "j": 5, "k": 6})
        nest = loop_nest(tiled)
        assert [lp.var for lp in nest] == ["i_t", "j_t", "k_t", "i", "j", "k"]
        assert nest[0].annotation("tile_loop") == "i"
        assert nest[3].annotation("point_loop") == "i"
        # point loops bounded by min()
        assert isinstance(nest[3].upper, Min)

    def test_semantics_preserved(self, rng):
        out, ref = run_on_mm(lambda nest: tile(nest, {"i": 4, "j": 7, "k": 3}), rng)
        assert np.allclose(out["C"], ref["C"])

    def test_non_dividing_tile_sizes(self, rng):
        # 17 is prime: every tile size produces ragged edge tiles
        out, ref = run_on_mm(lambda nest: tile(nest, {"i": 5, "j": 11, "k": 13}), rng)
        assert np.allclose(out["C"], ref["C"])

    def test_tile_size_one(self, rng):
        out, ref = run_on_mm(lambda nest: tile(nest, {"i": 1, "j": 1, "k": 1}), rng, n=6)
        assert np.allclose(out["C"], ref["C"])

    def test_partial_band(self, rng):
        out, ref = run_on_mm(lambda nest: tile(nest, {"i": 4, "j": 4}), rng)
        assert np.allclose(out["C"], ref["C"])

    def test_symbolic_tile_size(self, mm_region):
        tiled = tile(mm_region.nest, {"i": "TI", "j": 8, "k": 8})
        assert "TI" in to_source(tiled)

    def test_non_prefix_subset_semantics(self, rng):
        """Tiling a non-prefix subset hoists those tile loops above the
        untiled ones (legal here: mm's band is fully permutable) and must
        preserve semantics."""
        out, ref = run_on_mm(lambda nest: tile(nest, {"j": 4, "k": 4}), rng)
        assert np.allclose(out["C"], ref["C"])

    def test_reduction_only_tiling_structure(self):
        """n-body style: tiling only j of an (i, j) nest produces
        j_t { i { j } } — the tile loop hoisted, original order inside."""
        k = get_kernel("nbody")
        from repro.analysis import extract_regions

        region = extract_regions(k.function)[0]
        tiled = tile(region.nest, {"j": 64})
        assert loop_vars(tiled) == ["j_t", "i", "j"]

    def test_reduction_only_tiling_semantics(self, rng):
        k = get_kernel("nbody")
        from repro.analysis import extract_regions
        from repro.transform import replace_at_path

        region = extract_regions(k.function)[0]
        fn2 = replace_at_path(k.function, region.path, tile(region.nest, {"j": 5}))
        inputs = k.make_inputs(k.test_size, rng)
        out = run_function(fn2, inputs, k.test_size)
        ref = k.reference(inputs, k.test_size)
        for name in k.output_arrays:
            assert np.allclose(out[name], ref[name])

    def test_rejects_bounds_on_nest_loops(self):
        i, j = var("i"), var("j")
        body = assign(var("A")[i, j], var("A")[i, j] + 1.0)
        nest = loop("i", 0, "N", loop("j", i, "N", body))
        with pytest.raises(ValueError, match="depend on nest loops"):
            tile(nest, {"i": 2, "j": 2})

    def test_rejects_unknown_loop(self, mm_region):
        with pytest.raises(ValueError):
            tile(mm_region.nest, {"z": 4})

    def test_rejects_nonpositive(self, mm_region):
        with pytest.raises(ValueError):
            tile(mm_region.nest, {"i": 0})

    def test_rejects_empty(self, mm_region):
        with pytest.raises(ValueError):
            tile(mm_region.nest, {})

    @settings(max_examples=20, deadline=None)
    @given(
        ti=st.integers(min_value=1, max_value=20),
        tj=st.integers(min_value=1, max_value=20),
        tk=st.integers(min_value=1, max_value=20),
    )
    def test_property_tiling_preserves_mm(self, ti, tj, tk):
        rng = np.random.default_rng(99)
        out, ref = run_on_mm(lambda nest: tile(nest, {"i": ti, "j": tj, "k": tk}), rng, n=9)
        assert np.allclose(out["C"], ref["C"])


class TestCollapse:
    def test_structure(self, mm_region):
        tiled = tile(mm_region.nest, {"i": 4, "j": 5, "k": 6})
        coll = collapse(tiled, 2)
        assert coll.annotation("collapsed") == ("i_t", "j_t")
        # remaining nest: cidx, k_t, i, j, k
        assert loop_vars(coll)[0] == "cidx"

    def test_semantics_preserved(self, rng):
        out, ref = run_on_mm(
            lambda nest: collapse(tile(nest, {"i": 4, "j": 7, "k": 3}), 2), rng
        )
        assert np.allclose(out["C"], ref["C"])

    def test_collapse_three(self, rng):
        out, ref = run_on_mm(
            lambda nest: collapse(tile(nest, {"i": 4, "j": 7, "k": 3}), 3), rng
        )
        assert np.allclose(out["C"], ref["C"])

    def test_trip_count_product(self):
        # collapse of plain rectangular loops: trip count must multiply
        i, j = var("i"), var("j")
        body = assign(var("A")[0], var("A")[0] + 1.0)
        nest = loop("i", 0, 6, loop("j", 0, 4, body))
        coll = collapse(nest, 2)
        fn = func("f", [array("A", 1)], coll)
        out = run_function(fn, {"A": np.zeros(1)})
        assert out["A"][0] == 24

    def test_shifted_lower_bounds(self):
        i, j = var("i"), var("j")
        body = assign(var("A")[i, j], 1.0)
        nest = loop("i", 2, 5, loop("j", 1, 4, body))
        coll = collapse(nest, 2)
        fn = func("f", [array("A", 5, 4)], coll)
        out = run_function(fn, {"A": np.zeros((5, 4))})
        assert out["A"][2:5, 1:4].sum() == 9
        assert out["A"].sum() == 9

    def test_rejects_count_one(self, mm_region):
        with pytest.raises(ValueError):
            collapse(mm_region.nest, 1)

    def test_rejects_too_deep(self):
        nest = loop("i", 0, 4, assign(var("A")[var("i")], 0.0))
        with pytest.raises(ValueError):
            collapse(nest, 2)

    def test_rejects_non_rectangular(self):
        i, j = var("i"), var("j")
        body = assign(var("A")[i, j], 1.0)
        nest = loop("i", 0, 4, loop("j", 0, i + 1, body))  # triangular
        with pytest.raises(ValueError):
            collapse(nest, 2)


class TestPermute:
    def test_swap_structure(self, mm_region):
        out = permute(mm_region.nest, ["k", "j", "i"])
        assert loop_vars(out) == ["k", "j", "i"]

    def test_semantics_preserved(self, rng):
        out, ref = run_on_mm(lambda nest: permute(nest, ["i", "k", "j"]), rng)
        assert np.allclose(out["C"], ref["C"])

    def test_rejects_unknown_var(self, mm_region):
        with pytest.raises(ValueError):
            permute(mm_region.nest, ["i", "j", "zz"])


class TestUnroll:
    def test_factor_one_identity(self, mm_region):
        inner = loop_nest(mm_region.nest)[-1]
        assert unroll(inner, 1) is inner

    def test_structure(self):
        nest = loop("i", 0, 10, assign(var("A")[var("i")], 1.0))
        out = unroll(nest, 4)
        assert isinstance(out, Block)
        main, rem = out.stmts
        assert isinstance(main, For) and main.annotation("unrolled") == 4
        assert isinstance(rem, For) and rem.annotation("unroll_remainder") == 4

    def test_semantics_with_remainder(self):
        nest = loop("i", 0, 10, assign(var("A")[var("i")], var("A")[var("i")] + 1.0))
        fn_plain = func("f", [array("A", 10)], nest)
        fn_unrolled = func("f", [array("A", 10)], unroll(nest, 3))
        a0 = run_function(fn_plain, {"A": np.zeros(10)})["A"]
        a1 = run_function(fn_unrolled, {"A": np.zeros(10)})["A"]
        assert np.array_equal(a0, a1)

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=20))
    @settings(max_examples=25, deadline=None)
    def test_property_unroll_any_factor_trip(self, factor, trip):
        nest = loop("i", 0, trip, assign(var("A")[0], var("A")[0] + 1.0))
        fn = func("f", [array("A", 1)], unroll(nest, factor))
        out = run_function(fn, {"A": np.zeros(1)})
        assert out["A"][0] == trip

    def test_rejects_bad_factor(self):
        nest = loop("i", 0, 10, assign(var("A")[var("i")], 1.0))
        with pytest.raises(ValueError):
            unroll(nest, 0)


class TestParallelize:
    def test_marks_parallel(self, mm_region):
        out = parallelize(mm_region.nest, 8)
        assert out.parallel and out.annotation("num_threads") == 8

    def test_rejects_bad_threads(self, mm_region):
        with pytest.raises(ValueError):
            parallelize(mm_region.nest, 0)


class TestParameter:
    def test_clamp_int(self):
        p = Parameter("t", 1, 10)
        assert p.clamp(-5) == 1 and p.clamp(99) == 10 and p.clamp(5.4) == 5

    def test_clamp_choice(self):
        p = Parameter("threads", 1, 40, choices=(1, 5, 10, 20, 40))
        assert p.clamp(7) == 5
        assert p.clamp(8) == 10
        assert p.clamp(100) == 40

    def test_validates_bounds(self):
        with pytest.raises(ValueError):
            Parameter("x", 5, 2)

    def test_validates_choices_sorted(self):
        with pytest.raises(ValueError):
            Parameter("x", 1, 10, choices=(3, 1))


class TestSkeleton:
    def test_default_mm(self, mm_region):
        sk = default_skeleton(mm_region, {"N": 1400}, 40)
        names = sk.parameter_names
        assert names == ("tile_i", "tile_j", "tile_k", "threads")
        assert sk.parameter("tile_i").hi == 700  # N/2 per the paper
        assert sk.parameter("threads").hi == 40
        assert sk.collapse_outer == 2

    def test_instantiate_metadata(self, mm_region):
        sk = default_skeleton(mm_region, {"N": 100}, 8)
        tr = sk.instantiate({"tile_i": 10, "tile_j": 20, "tile_k": 5, "threads": 4})
        assert tr.num_threads == 4
        assert dict(tr.tile_sizes) == {"i": 10, "j": 20, "k": 5}
        assert tr.collapsed == 2
        assert tr.nest.parallel

    def test_instantiate_executes_correctly(self, kernel, rng):
        """Full skeleton instantiation preserves semantics for all kernels."""
        region = extract_regions(kernel.function)[0]
        sk = default_skeleton(region, kernel.test_size, 4)
        values = {p.name: max(p.lo, min(p.hi, 3)) for p in sk.parameters}
        fn2 = sk.instantiate(values).apply()
        inputs = kernel.make_inputs(kernel.test_size, rng)
        out = run_function(fn2, inputs, kernel.test_size)
        ref = kernel.reference(inputs, kernel.test_size)
        for name in kernel.output_arrays:
            assert np.allclose(out[name], ref[name]), kernel.name

    def test_validate_rejects_missing(self, mm_region):
        sk = default_skeleton(mm_region, {"N": 100}, 8)
        with pytest.raises(KeyError):
            sk.instantiate({"tile_i": 10})

    def test_validate_rejects_out_of_range(self, mm_region):
        sk = default_skeleton(mm_region, {"N": 100}, 8)
        with pytest.raises(ValueError):
            sk.instantiate({"tile_i": 999, "tile_j": 1, "tile_k": 1, "threads": 1})

    def test_unroll_skeleton(self, mm_region, rng):
        sk = default_skeleton(mm_region, {"N": 20}, 4, with_unroll=True)
        tr = sk.instantiate(
            {"tile_i": 4, "tile_j": 4, "tile_k": 4, "threads": 2, "unroll": 4}
        )
        assert tr.unroll_factor == 4
        k = get_kernel("mm")
        sizes = {"N": 20}
        inputs = k.make_inputs(sizes, rng)
        out = run_function(tr.apply(), inputs, sizes)
        ref = k.reference(inputs, sizes)
        assert np.allclose(out["C"], ref["C"])

    def test_thread_choices(self, mm_region):
        sk = default_skeleton(mm_region, {"N": 100}, 40, thread_choices=(1, 5, 10))
        assert sk.parameter("threads").choices == (1, 5, 10)
