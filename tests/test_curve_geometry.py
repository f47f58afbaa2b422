"""Tests for the curve families of the a = 1/2 limit sets and the distance to them.

The earlier scalar implementations are kept here as references: per-parameter
point formulas, a loop-based `sample`, and a 257-point scan refined by 80
golden-section steps for the distance.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from qsodyn.dynamics import (
    CYCLE_PARAM_SUP,
    EXCLUSION_RADIUS,
    PointSet,
    fixed_points_exact,
    periodic2_exact,
)
from qsodyn.simplex import SimplexPoint


def _reference_fixed(b):
    h = (3.0 - 2.0 * b - math.sqrt(4.0 * b * b - 8.0 * b + 5.0)) / 2.0
    return (b, h, 1.0 - b - h)


def _reference_cycle(branch):
    def point(c):
        r = math.sqrt(max(4.0 * c * c - 8.0 * c + 1.0, 0.0))
        h = ((1.0 - 2.0 * c - r) / 2.0, (1.0 - 2.0 * c + r) / 2.0)[branch]
        return (c, h, 1.0 - c - h)
    return point


def _reference_edge(zero):
    def point(u):
        p = np.zeros(3)
        i, j = (1, 2) if zero == 0 else (0, 3 - zero)
        p[i], p[j] = u, 1.0 - u
        return p
    return point


# name -> (curve, its scalar point formula)
FAMILIES = {
    "op4 slice fixed": (fixed_points_exact(4, 0.5).curves[0], _reference_fixed),
    "op4 slice cycle low": (periodic2_exact(4, 0.5).curves[0], _reference_cycle(0)),
    "op4 slice cycle high": (periodic2_exact(4, 0.5).curves[1], _reference_cycle(1)),
    "op13 edge x2 = 0": (fixed_points_exact(13, 0.5).curves[0], _reference_edge(1)),
    "op13 x1 = x3 segment": (fixed_points_exact(13, 0.5).curves[1],
                             lambda t: (t, 1.0 - 2.0 * t, t)),
    "op25 edge x1 = 0": (fixed_points_exact(25, 0.5).curves[0], _reference_edge(0)),
    "op28 edge x1 = 0 minus midpoint": (periodic2_exact(28, 0.5).curves[0],
                                        _reference_edge(0)),
}
NAMES = sorted(FAMILIES)


def _reference_sample(curve, point, n):
    if n < 1:
        return []
    if curve.include_hi:
        ts = np.linspace(curve.lo, curve.hi, n)
    else:
        ts = curve.lo + (curve.hi - curve.lo) * np.arange(n) / n
    return [SimplexPoint(point(float(t))) for t in ts
            if not any(abs(t - e) <= 1e-12 for e in curve.exclude_params)]


def _reference_distance(curve, point, arr):
    def g(t):
        return float(np.abs(SimplexPoint(point(t)).coords - arr).sum())

    ts = np.linspace(curve.lo, curve.hi, 257)
    dists = [g(float(t)) for t in ts]
    i = int(np.argmin(dists))
    lo, hi = ts[max(i - 1, 0)], ts[min(i + 1, len(ts) - 1)]
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    b, d = lo + (1 - phi) * (hi - lo), lo + phi * (hi - lo)
    gb, gd = g(b), g(d)
    for _ in range(80):
        if gb <= gd:
            hi, d, gd = d, b, gb
            b = lo + (1 - phi) * (hi - lo)
            gb = g(b)
        else:
            lo, b, gb = b, d, gd
            d = lo + phi * (hi - lo)
            gd = g(d)
    return min(dists[i], gb, gd)


def _off_curve(curve, rng, size):
    """A point about `size` (l1) off a random point of the curve, inside the simplex."""
    while True:
        base = curve.point_at(float(rng.uniform(curve.lo, curve.hi))).coords
        step = rng.normal(size=3)
        step -= step.mean()
        step *= size / np.abs(step).sum()
        for x in (base + step, base - step):
            if x.min() >= 0.0:
                return x


class TestPointsBitIdentical:
    @pytest.mark.parametrize("name", NAMES)
    def test_point_at_matches_scalar_formula(self, name):
        curve, point = FAMILIES[name]
        grid = np.concatenate((np.linspace(curve.lo, curve.hi, 101),
                               np.random.default_rng(1).uniform(curve.lo, curve.hi, 500)))
        for t in [curve.lo, curve.hi, CYCLE_PARAM_SUP, *grid]:
            t = float(t)
            if t > curve.hi:
                continue
            expected = SimplexPoint(point(t)).coords
            assert curve.point_at(t).coords.tobytes() == expected.tobytes(), t

    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize("n", [0, 1, 2, 40, 41, 50])  # 41 puts the op-28 midpoint on the grid
    def test_sample_matches_loop(self, name, n):
        curve, point = FAMILIES[name]
        got = [p.coords.tobytes() for p in curve.sample(n)]
        assert got == [p.coords.tobytes() for p in _reference_sample(curve, point, n)]

    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize("n", [2.5, math.nan, math.inf, "3", -1])
    def test_sample_rejects_counts_off_the_integers(self, name, n):
        curve, _ = FAMILIES[name]
        with pytest.raises(ValueError):
            curve.sample(n)
        with pytest.raises(ValueError):
            PointSet(curves=(curve,)).sample(n)

    @pytest.mark.parametrize("name", NAMES)
    def test_point_at_rejects_parameters_off_range(self, name):
        curve, _ = FAMILIES[name]
        for t in (curve.lo - 1e-3, curve.hi + 1e-3, math.nan):
            with pytest.raises(ValueError):
                curve.point_at(t)


class TestDistanceMatchesReference:
    @pytest.mark.parametrize("name", NAMES)
    def test_random_and_near_curve_points(self, name):
        curve, point = FAMILIES[name]
        rng = np.random.default_rng(sum(map(ord, name)))
        xs = [rng.dirichlet((1.0, 1.0, 1.0)) for _ in range(25)]
        xs += [_off_curve(curve, rng, size) for size in (1e-13, 1e-11, 1e-9, 1e-7, 1e-6)
               for _ in range(5)]
        single = PointSet(curves=(curve,))
        for x in xs:
            new = single.min_l1_distance(x)
            ref = _reference_distance(curve, point, x)
            assert abs(new - ref) <= 1e-12
            assert new <= ref + 1e-15

    @pytest.mark.parametrize("name", NAMES)
    def test_exclusion_decision_unchanged(self, name):
        curve, point = FAMILIES[name]
        rng = np.random.default_rng(5)
        single = PointSet(curves=(curve,))
        for size in (0.0, 5e-10, 2e-9):
            for _ in range(6):
                x = _off_curve(curve, rng, size)
                new = single.min_l1_distance(x) <= EXCLUSION_RADIUS
                assert new == (_reference_distance(curve, point, x) <= EXCLUSION_RADIUS)
                if size < EXCLUSION_RADIUS:
                    assert new


_weight = st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1.0]))


class TestDistanceProperty:
    @pytest.mark.parametrize("name", NAMES)
    @given(w=st.tuples(_weight, _weight, _weight).filter(lambda w: sum(w) > 0.0))
    @example(w=(1.0, 0.0, 0.0))
    @example(w=(-0.0, 1.0, 0.0))
    @example(w=(0.0, -0.0, 1.0))
    @example(w=(5e-324, 0.5, 0.5))
    def test_finite_and_below_every_sample(self, name, w):
        curve, _ = FAMILIES[name]
        x = SimplexPoint(np.array(w) / sum(w))
        d = PointSet(curves=(curve,)).min_l1_distance(x)
        assert math.isfinite(d) and d >= 0.0
        # Samples are rescaled to unit sum, which can move them by a few ulps.
        nearest = min(float(np.abs(p.coords - x.coords).sum()) for p in curve.sample(65))
        assert d <= nearest + 1e-15
