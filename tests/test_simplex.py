"""Tests for simplex points, support relations, and sampling."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from qsodyn.simplex import (
    SimplexPoint,
    equivalent,
    l1_distance,
    sample,
    simplex_rows,
    singular,
    support,
    vertex,
)


class TestConstruction:
    def test_valid_point(self):
        p = SimplexPoint((0.2, 0.3, 0.5))
        assert p.as_tuple() == (0.2, 0.3, 0.5)
        assert p.m == 3

    def test_clamps_tiny_negative(self):
        p = SimplexPoint((-1e-13, 0.5, 0.5 + 1e-13))
        assert p[0] == 0.0
        assert abs(sum(p) - 1.0) <= 1e-12

    def test_rejects_large_negative(self):
        with pytest.raises(ValueError):
            SimplexPoint((-1e-11, 0.5, 0.5))

    def test_renormalizes_small_defect(self):
        p = SimplexPoint((0.2, 0.3, 0.5 + 1e-10))
        assert abs(sum(p) - 1.0) <= 1e-12

    def test_rejects_large_defect(self):
        with pytest.raises(ValueError):
            SimplexPoint((0.2, 0.3, 0.5 + 1e-8))

    @pytest.mark.parametrize("coords", [
        (float("nan"), 0.5, 0.5),
        (0.5, float("nan"), float("nan")),
        (float("inf"), 0.5, 0.5),
        (float("-inf"), 0.5, 0.5),
        (float("inf"), float("-inf"), 1.0),
    ])
    def test_rejects_non_finite(self, coords):
        with pytest.raises(ValueError):
            SimplexPoint(coords)

    def test_repr_hash_and_equality_with_other_types(self):
        p = SimplexPoint((1 / 3, 2 / 3))
        assert repr(p) == "SimplexPoint((0.333333, 0.666667))"
        assert repr(SimplexPoint((0.25, 0.0, 0.75))) == "SimplexPoint((0.25, 0, 0.75))"
        assert hash(p) == hash(p.as_tuple()) == hash(SimplexPoint(p.coords))
        assert len({p, SimplexPoint(p.coords)}) == 1
        assert p.__eq__(p.as_tuple()) is NotImplemented
        assert p != p.as_tuple() and p != list(p)

    def test_immutable(self):
        p = SimplexPoint((0.5, 0.5))
        with pytest.raises(ValueError):
            p.coords[0] = 0.9


class TestVertex:
    def test_first(self):
        assert vertex(1, 3).as_tuple() == (1.0, 0.0, 0.0)

    def test_last(self):
        assert vertex(3, 3).as_tuple() == (0.0, 0.0, 1.0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            vertex(4, 3)
        with pytest.raises(ValueError):
            vertex(0, 3)


class TestRelations:
    def test_support(self):
        assert support(SimplexPoint((0.5, 0.5, 0.0))) == {1, 2}
        assert support(vertex(1, 3)) == {1}
        assert support(SimplexPoint((1 / 3, 1 / 3, 1 / 3))) == {1, 2, 3}

    def test_support_threshold(self):
        p = SimplexPoint((1e-13, 0.5, 0.5))
        assert support(p) == {2, 3}

    def test_equivalent(self):
        assert equivalent(SimplexPoint((0.5, 0.5, 0.0)), SimplexPoint((0.9, 0.1, 0.0)))
        assert not equivalent(vertex(1, 3), vertex(2, 3))
        x = SimplexPoint((0.2, 0.3, 0.5))
        assert equivalent(x, x)

    def test_singular(self):
        assert singular(vertex(1, 3), SimplexPoint((0.0, 0.3, 0.7)))
        assert not singular(SimplexPoint((0.5, 0.5, 0.0)), SimplexPoint((0.0, 0.5, 0.5)))
        x = SimplexPoint((0.2, 0.3, 0.5))
        assert not singular(x, x)

    def test_singular_matches_inner_product(self):
        pts = sample(3, 11, 20) + [vertex(i, 3) for i in (1, 2, 3)]
        for x in pts:
            for y in pts:
                ip_zero = float(np.dot(x.coords, y.coords)) <= 1e-12
                assert singular(x, y) == ip_zero

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            equivalent(SimplexPoint((0.5, 0.5)), vertex(1, 3))
        with pytest.raises(ValueError):
            singular(SimplexPoint((0.5, 0.5)), vertex(1, 3))
        with pytest.raises(ValueError):
            l1_distance(SimplexPoint((0.5, 0.5)), vertex(1, 3))


class TestL1Distance:
    def test_disjoint_vertices(self):
        assert l1_distance(vertex(1, 3), vertex(2, 3)) == 2.0

    def test_identity(self):
        x = SimplexPoint((0.2, 0.3, 0.5))
        assert l1_distance(x, x) == 0.0

    def test_hand_value(self):
        a = SimplexPoint((0.5, 0.5, 0.0))
        b = SimplexPoint((0.25, 0.75, 0.0))
        assert l1_distance(a, b) == pytest.approx(0.5, abs=1e-15)


class TestSampling:
    def test_deterministic(self):
        first = sample(3, 7, 2)
        second = sample(3, 7, 2)
        for p, q in zip(first, second):
            assert p == q  # exact array equality

    def test_points_valid(self):
        for p in sample(5, 3, 200):
            assert p.m == 5
            assert min(p) >= 0.0
            assert abs(sum(p) - 1.0) <= 1e-12

    def test_empirical_mean_uniform(self):
        pts = np.array([p.coords for p in sample(3, 123, 10_000)])
        mean = pts.mean(axis=0)
        assert np.all(np.abs(mean - 1 / 3) < 0.02)

    def test_m2(self):
        for p in sample(2, 5, 10):
            assert p.m == 2

    def test_bad_args(self):
        with pytest.raises(ValueError):
            sample(1, 0, 3)
        with pytest.raises(ValueError):
            sample(3, 0, 0)


class TestSerialization:
    def test_round_trip_exact(self):
        for p in sample(3, 99, 25):
            q = SimplexPoint.from_json(p.to_json())
            assert q == p

    @pytest.mark.parametrize("text", [
        "[true, false, false]", '["0.5", "0.5"]', "[0.5, null, 0.5]", '{"x": [1, 0, 0]}',
        "1", "[[1, 0, 0]]", "[]", "[NaN, 0, 1]", "not json",
        "[1" + "0" * 400 + ", 0, 0]",
        "[" * 100000 + "]" * 100000,
    ], ids=("bools", "strings", "null", "object", "number", "nested", "empty", "nan",
            "not-json", "huge-int", "deep-nesting"))
    def test_from_json_reads_only_json_numbers(self, text):
        with pytest.raises(ValueError):
            SimplexPoint.from_json(text)

    def test_from_json_reads_ints_and_floats(self):
        assert SimplexPoint.from_json("[1, 0, 0]") == vertex(1, 3)
        assert SimplexPoint.from_json("[0.25, 0.75]") == SimplexPoint((0.25, 0.75))

    def test_17_digits(self):
        text = SimplexPoint((0.1, 0.2, 0.7)).to_json()
        assert "0.10000000000000001" in text
        parsed = json.loads(text)
        assert parsed[0] == 0.1

    @given(weights=st.lists(st.floats(0.0, 1.0) | st.sampled_from([0.0, -0.0, 5e-324, 1e-300]),
                            min_size=1, max_size=5).filter(lambda w: sum(w) > 0.0))
    @example(weights=[-0.0, 1.0, 5e-324])
    def test_bytes_of_the_17g_format(self, weights):
        p = SimplexPoint(np.array(weights) / math.fsum(weights))
        assert p.to_json() == "[" + ", ".join(format(c, ".17g") for c in p.coords) + "]"


# Property tests ------------------------------------------------------------

_seeds = st.integers(min_value=0, max_value=10 ** 6)
# Nonempty zero/nonzero patterns over three coordinates.
_masks = st.sampled_from([(1, 0, 0), (0, 1, 0), (0, 0, 1),
                          (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)])


def _masked_point(mask, seed):
    rng = np.random.default_rng(seed)
    raw = rng.random(3) + 0.1
    raw = raw * np.array(mask)
    return SimplexPoint(raw / raw.sum())


@given(m1=_masks, m2=_masks, m3=_masks, seed=_seeds)
def test_equivalence_relation(m1, m2, m3, seed):
    x, y, z = (_masked_point(m, seed + i) for i, m in enumerate((m1, m2, m3)))
    assert equivalent(x, x)
    assert equivalent(x, y) == equivalent(y, x)
    if equivalent(x, y) and equivalent(y, z):
        assert equivalent(x, z)


@given(m1=_masks, m2=_masks, seed=_seeds)
def test_singular_excludes_equivalent(m1, m2, seed):
    x = _masked_point(m1, seed)
    y = _masked_point(m2, seed + 1)
    if singular(x, y):
        assert not equivalent(x, y)


@given(seed=_seeds)
def test_triangle_inequality(seed):
    x, y, z = sample(3, seed, 3)
    assert l1_distance(x, z) <= l1_distance(x, y) + l1_distance(y, z) + 1e-12


# Adversarial constructor inputs -----------------------------------------------
# Each constructor either raises ValueError or returns a valid simplex point.

_ADVERSARIAL = [math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
                0.0, -0.0, -1e-13, -1e-11, 1.0 + 1e-10, 1.0 + 1e-8, 1.5, -1.0, 1e308,
                1.7976931348623157e308, -1.7976931348623157e308]
_floats = st.floats() | st.sampled_from(_ADVERSARIAL)
# Small integers in and out of range, and floats standing where an integer belongs.
_counts = st.integers(min_value=-3, max_value=6) | st.sampled_from(_ADVERSARIAL + [2.0, 3.0])


def _assert_valid(p, m):
    coords = p.coords
    assert p.m == m and coords.shape == (m,)
    assert np.all(np.isfinite(coords)) and np.all(coords >= 0.0)
    assert abs(coords.sum() - 1.0) <= 1e-12


class TestAdversarialConstructors:
    @given(coords=st.lists(_floats, min_size=1, max_size=4))
    @example(coords=[5e-324, 1.0, 0.0])
    @example(coords=[-0.0, 0.5, 0.5])
    @example(coords=[-1e-13, 0.5, 0.5 + 1e-13])
    @example(coords=[1e308, 1e308, -1e308])
    def test_simplex_point(self, coords):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                p = SimplexPoint(coords)
        except ValueError:
            return
        _assert_valid(p, len(coords))
        # Nothing outside the documented tolerances is accepted.
        assert min(coords) >= -1e-12 and abs(math.fsum(coords) - 1.0) <= 1e-9 + 1e-15

    @given(i=_counts, m=_counts)
    @example(i=2.0, m=3)
    @example(i=1, m=3.0)
    @example(i=1, m=math.inf)
    def test_vertex(self, i, m):
        try:
            p = vertex(i, m)
        except ValueError:
            return
        _assert_valid(p, m)
        assert p[i - 1] == 1.0 and isinstance(i, int) and isinstance(m, int)

    @given(m=_counts, seed=st.integers(min_value=-2, max_value=10 ** 9) | _counts, count=_counts)
    @example(m=3, seed=1, count=math.nan)
    @example(m=3, seed=math.nan, count=2)
    @example(m=3.0, seed=1, count=2)
    @example(m=3, seed=-1, count=2)
    def test_sample(self, m, seed, count):
        try:
            points = sample(m, seed, count)
        except ValueError:
            return
        assert len(points) == count
        for p in points:
            _assert_valid(p, m)


class TestOverflowingSums:
    def test_rejected_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="sum inf"):
                SimplexPoint((1e308, 1e308, 1e308))
            with pytest.raises(ValueError, match="simplex points"):
                simplex_rows(np.array([[0.2, 0.3, 0.5], [1e308, 1e308, 1e308]]))
            # A sum that does not overflow still reports its value.
            with pytest.raises(ValueError, match="sum 3.0"):
                SimplexPoint((1.0, 1.0, 1.0))
