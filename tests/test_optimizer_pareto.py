"""Tests for Pareto primitives and the hypervolume indicator."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.optimizer.hypervolume import hypervolume, normalized_hypervolume
from repro.optimizer.pareto import (
    _non_dominated_mask_general,
    crowding_distance,
    dominates,
    non_dominated,
    non_dominated_mask,
    non_dominated_sort,
    pairwise_dominance,
)
from tests.optimizer_oracle import non_dominated_mask_general_scalar

obj_vectors = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=10.0),
        st.floats(min_value=0.0, max_value=10.0),
    ),
    min_size=1,
    max_size=40,
)


class TestDominates:
    def test_strict(self):
        assert dominates((1, 1), (2, 2))
        assert dominates((1, 2), (2, 2))
        assert not dominates((2, 2), (2, 2))
        assert not dominates((1, 3), (2, 2))

    def test_length_checked(self):
        with pytest.raises(ValueError):
            dominates((1,), (1, 2))

    @given(obj_vectors)
    def test_irreflexive(self, vecs):
        for v in vecs:
            assert not dominates(v, v)

    @given(obj_vectors)
    def test_antisymmetric(self, vecs):
        for a in vecs:
            for b in vecs:
                assert not (dominates(a, b) and dominates(b, a))


class TestNonDominatedMask:
    def test_simple_2d(self):
        objs = np.array([[1, 4], [2, 2], [4, 1], [3, 3], [5, 5]])
        mask = non_dominated_mask(objs)
        assert mask.tolist() == [True, True, True, False, False]

    def test_duplicates_all_kept(self):
        objs = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 3.0]])
        mask = non_dominated_mask(objs)
        assert mask.tolist() == [True, True, False]

    def test_tie_in_one_objective(self):
        # (1,5) dominates (1,7): equal first, better second
        objs = np.array([[1.0, 5.0], [1.0, 7.0]])
        assert non_dominated_mask(objs).tolist() == [True, False]

    def test_empty(self):
        assert non_dominated_mask(np.zeros((0, 2))).size == 0

    def test_three_objectives_fallback(self):
        objs = np.array([[1, 1, 1], [2, 2, 2], [1, 2, 0.5]])
        mask = non_dominated_mask(objs)
        assert mask.tolist() == [True, False, True]

    @given(obj_vectors)
    @settings(max_examples=60)
    def test_property_front_is_mutually_nondominated(self, vecs):
        objs = np.array(vecs)
        mask = non_dominated_mask(objs)
        front = objs[mask]
        for a in front:
            for b in front:
                assert not dominates(tuple(a), tuple(b))

    @given(obj_vectors)
    @settings(max_examples=60)
    def test_property_front_is_maximal(self, vecs):
        """Every excluded point is dominated by some front point."""
        objs = np.array(vecs)
        mask = non_dominated_mask(objs)
        front = objs[mask]
        for keep, row in zip(mask, objs):
            if keep:
                continue
            assert any(dominates(tuple(f), tuple(row)) for f in front)

    @given(obj_vectors)
    @settings(max_examples=40)
    def test_property_2d_fast_path_matches_general(self, vecs):
        objs = np.array(vecs)
        from repro.optimizer.pareto import _non_dominated_mask_2d

        fast = _non_dominated_mask_2d(objs)
        # general O(n^2) path via a 3-column embedding with a constant col
        slow = non_dominated_mask(np.column_stack([objs, np.zeros(len(objs))]))
        assert (fast == slow).all()


class TestNonDominatedSort:
    def test_fronts_partition(self):
        objs = np.array([[1, 1], [2, 2], [3, 3], [1, 3]])
        fronts = non_dominated_sort(objs)
        flat = sorted(int(i) for f in fronts for i in f)
        assert flat == [0, 1, 2, 3]
        assert set(fronts[0].tolist()) == {0}

    def test_layering(self):
        objs = np.array([[1, 4], [4, 1], [2, 5], [5, 2], [3, 6], [6, 3]])
        fronts = non_dominated_sort(objs)
        assert [len(f) for f in fronts] == [2, 2, 2]


class TestCrowdingDistance:
    def test_boundaries_infinite(self):
        objs = np.array([[1.0, 4.0], [2.0, 3.0], [3.0, 2.0], [4.0, 1.0]])
        d = crowding_distance(objs)
        assert np.isinf(d[0]) and np.isinf(d[3])
        assert np.isfinite(d[1]) and np.isfinite(d[2])

    def test_small_sets_infinite(self):
        assert np.isinf(crowding_distance(np.array([[1.0, 2.0]]))).all()

    def test_denser_point_smaller_distance(self):
        # point 1 sits between close neighbours (0 and 2); point 2 has the
        # big gap to point 3 on one side, so it is less crowded
        objs = np.array([[0.0, 4.0], [1.0, 3.0], [1.1, 2.9], [4.0, 0.0]])
        d = crowding_distance(objs)
        assert d[1] < d[2]


class TestNonDominatedHelper:
    def test_key_extraction(self):
        items = [("a", (1, 2)), ("b", (2, 1)), ("c", (3, 3))]
        front = non_dominated(items, key=lambda x: x[1])
        assert [i[0] for i in front] == ["a", "b"]

    def test_empty(self):
        assert non_dominated([]) == []


class TestHypervolume:
    def test_single_point(self):
        assert hypervolume(np.array([[0.5, 0.5]]), np.array([1, 1])) == pytest.approx(0.25)

    def test_staircase(self):
        # union of [x,1]x[y,1] quadrants = 1 - staircase complement = 0.375
        pts = np.array([[0.25, 0.75], [0.5, 0.5], [0.75, 0.25]])
        hv = hypervolume(pts, np.array([1, 1]))
        assert hv == pytest.approx(0.375)

    def test_beyond_reference_ignored(self):
        pts = np.array([[2.0, 2.0]])
        assert hypervolume(pts, np.array([1, 1])) == 0.0

    def test_point_beyond_ref_in_one_coordinate_is_clipped_not_dropped(self):
        # (0.25, 2.0) escapes ref in y only; clipped to (0.25, 1.0) it
        # contributes zero volume but must not be discarded outright — a
        # front made solely of such points still scores 0, and mixed fronts
        # keep the in-box contributions exact.
        escaped = np.array([[0.25, 2.0]])
        assert hypervolume(escaped, np.array([1, 1])) == 0.0
        mixed = np.array([[0.25, 2.0], [0.5, 0.5]])
        assert hypervolume(mixed, np.array([1, 1])) == pytest.approx(0.25)

    def test_clipping_equals_dropping(self):
        # clip-at-ref and drop-if-beyond are mathematically identical: the
        # dominated box of a clipped point has a zero-length side.
        rng = np.random.default_rng(7)
        ref = np.array([1.0, 1.0])
        for _ in range(20):
            pts = rng.uniform(0.0, 1.6, size=(6, 2))
            inside = pts[(pts < ref).all(axis=1)]
            assert hypervolume(pts, ref) == pytest.approx(
                hypervolume(inside, ref) if len(inside) else 0.0
            )

    def test_clipped_3d(self):
        pts = np.array([[0.5, 0.5, 2.0], [0.5, 0.5, 0.5]])
        assert hypervolume(pts, np.array([1, 1, 1])) == pytest.approx(0.125)

    def test_empty(self):
        assert hypervolume(np.zeros((0, 2)), np.array([1, 1])) == 0.0

    def test_dimension_checked(self):
        with pytest.raises(ValueError):
            hypervolume(np.array([[1.0, 2.0]]), np.array([1.0, 1.0, 1.0]))

    def test_3d_inclusion_exclusion_matches_manual(self):
        pts = np.array([[0.5, 0.5, 0.5]])
        assert hypervolume(pts, np.array([1, 1, 1])) == pytest.approx(0.125)

    def test_3d_union(self):
        pts = np.array([[0.5, 0.5, 0.5], [0.0, 0.9, 0.9]])
        hv = hypervolume(pts, np.array([1, 1, 1]))
        # 0.125 + 0.1*0.1*1 - overlap(0.5..1 in dims 2,3 -> 0.1*0.1*0.5)
        assert hv == pytest.approx(0.125 + 0.01 - 0.005)

    @given(obj_vectors)
    @settings(max_examples=40)
    def test_property_monotone_under_addition(self, vecs):
        """Adding a point never decreases hypervolume."""
        objs = np.array(vecs) / 10.0
        ref = np.array([1.1, 1.1])
        hv_all = hypervolume(objs, ref)
        hv_sub = hypervolume(objs[:-1], ref) if len(objs) > 1 else 0.0
        assert hv_all >= hv_sub - 1e-12

    @given(obj_vectors)
    @settings(max_examples=40)
    def test_property_bounded_by_box(self, vecs):
        objs = np.array(vecs) / 10.0
        ref = np.array([1.0, 1.0])
        assert 0.0 <= hypervolume(objs, ref) <= 1.0 + 1e-12


class TestNormalizedHypervolume:
    def test_range(self):
        pts = np.array([[1.0, 2.0], [2.0, 1.0]])
        v = normalized_hypervolume(pts, np.array([1.0, 1.0]), np.array([2.0, 2.0]))
        assert 0.0 <= v <= 1.0

    def test_ideal_front_near_one(self):
        pts = np.array([[0.0, 0.0]])
        v = normalized_hypervolume(pts, np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        assert v == pytest.approx(1.0, abs=1e-6)

    def test_nadir_point_near_zero(self):
        # the nadir point only claims the 10% margin box: 0.1^2 / 1.1^2
        pts = np.array([[1.0, 1.0]])
        v = normalized_hypervolume(pts, np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        assert v == pytest.approx(0.01 / 1.21, abs=1e-9)

    def test_degenerate_dimension(self):
        pts = np.array([[1.0, 5.0]])
        v = normalized_hypervolume(pts, np.array([1.0, 0.0]), np.array([1.0, 10.0]))
        assert 0.0 <= v <= 1.0


class TestPairwiseDominance:
    """The broadcasted row-aligned dominance must agree with the scalar
    dominates() in both directions on every row."""

    @given(obj_vectors)
    @settings(max_examples=100, deadline=None)
    def test_matches_scalar_both_directions(self, pts):
        rng = np.random.default_rng(len(pts))
        a = np.array(pts, dtype=float)
        b = rng.permutation(a)
        a_dom, b_dom = pairwise_dominance(a, b)
        for i in range(len(a)):
            assert bool(a_dom[i]) == dominates(a[i], b[i])
            assert bool(b_dom[i]) == dominates(b[i], a[i])

    def test_equal_rows_dominate_neither_way(self):
        a = np.array([[1.0, 2.0], [3.0, 3.0]])
        a_dom, b_dom = pairwise_dominance(a, a.copy())
        assert not a_dom.any() and not b_dom.any()

    def test_three_objectives(self):
        a = np.array([[1.0, 2.0, 3.0], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
        b = np.array([[1.0, 2.0, 4.0], [2.0, 2.0, 2.0], [1.0, 1.0, 1.0]])
        a_dom, b_dom = pairwise_dominance(a, b)
        assert a_dom.tolist() == [True, True, False]
        assert b_dom.tolist() == [False, False, True]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pairwise_dominance(np.zeros((2, 2)), np.zeros((3, 2)))


class TestVectorizedGeneralMask:
    """The blocked broadcasted general-m mask is output-identical to the
    retired per-row sweep it replaced."""

    @pytest.mark.parametrize("n", [1, 7, 255, 256, 257, 700])
    def test_matches_scalar_reference(self, n):
        rng = np.random.default_rng(n)
        objs = rng.uniform(0.0, 10.0, size=(n, 3))
        fast = _non_dominated_mask_general(objs)
        slow = non_dominated_mask_general_scalar(objs)
        assert np.array_equal(fast, slow)

    def test_duplicates_all_retained(self):
        objs = np.array([[1.0, 2.0, 3.0]] * 4 + [[0.5, 2.5, 3.0]])
        mask = _non_dominated_mask_general(objs)
        assert mask.tolist() == [True] * 5

    def test_dominated_duplicates_all_dropped(self):
        objs = np.array([[2.0, 2.0, 2.0]] * 3 + [[1.0, 1.0, 1.0]])
        mask = _non_dominated_mask_general(objs)
        assert mask.tolist() == [False, False, False, True]

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=5.0),
                st.floats(min_value=0.0, max_value=5.0),
                st.floats(min_value=0.0, max_value=5.0),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_hypothesis_parity(self, pts):
        objs = np.array(pts, dtype=float)
        assert np.array_equal(
            _non_dominated_mask_general(objs),
            non_dominated_mask_general_scalar(objs),
        )
