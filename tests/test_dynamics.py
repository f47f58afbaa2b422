"""Tests for orbits, closed forms, exact limit sets, the numeric oracle,
and the limit-prediction verifier."""

import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from qsodyn import dynamics
from qsodyn.catalog import OperatorSpec, PairPartition, are_conjugate, operator_tensor
from qsodyn.cli import main
from qsodyn.dynamics import (
    ANALYZED_OPS,
    CYCLE_PARAM_SUP,
    EXCLUSION_RADIUS,
    CaseResult,
    CurveFamily,
    Outcome,
    PointSet,
    PointVerdict,
    TrajectoryReport,
    VerificationReport,
    _edge_points,
    _edge_roots,
    _limit_table,
    _run_case,
    edge_fixed_height,
    fixed_points_exact,
    fixed_points_numeric,
    iterate,
    limit_prediction,
    omega_limit,
    omega_limits,
    periodic2_exact,
    region_classify,
    regime,
    scalar_map,
    scalar_map_report,
    slice_cycle_heights,
    slice_fixed_height,
    trajectory_csv,
    verify_predictions,
)
from qsodyn.jsonio import dumps
from qsodyn.operators import HeredityTensor, apply, apply_array
from qsodyn.permutations import Permutation
from qsodyn.simplex import (
    ZERO_TOL, SimplexPoint, l1_distance, sample, sample_with_rng, simplex_rows, vertex)

E1, E2, E3 = vertex(1, 3), vertex(2, 3), vertex(3, 3)
GOLDEN_CONJ = (3 - math.sqrt(5)) / 2  # 0.381966...
# A valid tensor on the 1-simplex, for the guards that need m = 3.
M2 = HeredityTensor.from_rows(2, {(1, 1): (1.0, 0.0), (1, 2): (0.5, 0.5), (2, 2): (0.0, 1.0)})


def _hausdorff_l1(points_a, points_b):
    def one_sided(src, dst):
        return max(min(l1_distance(p, q) for q in dst) for p in src)
    return max(one_sided(points_a, points_b), one_sided(points_b, points_a))


class TestScalarMap:
    def test_endpoints_fixed(self):
        for a in (0.0, 0.2, 0.5, 0.9, 1.0):
            assert scalar_map(0.0, a) == 0.0
            assert scalar_map(1.0, a) == 1.0

    def test_half_is_identity(self):
        for x in np.linspace(0, 1, 11):
            assert scalar_map(float(x), 0.5) == pytest.approx(x, abs=1e-16)

    def test_hand_values(self):
        assert scalar_map(1 / 3, 0.25) == pytest.approx(2 / 9, abs=1e-16)
        f = scalar_map(0.5, 0.2)
        assert f == pytest.approx(0.35, abs=1e-15)
        assert (0.2 - 0.5) * (f - 0.5) == pytest.approx(0.045, abs=1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            scalar_map(1.5, 0.2)
        with pytest.raises(ValueError):
            scalar_map(0.5, -0.1)

    @pytest.mark.parametrize("a", (0.1, 0.2, 0.8, 0.9))
    def test_report_passes(self, a):
        report = scalar_map_report(a)
        assert report.passed
        assert report.orbit_max_steps <= 10 ** 5

    def test_report_orbit_targets(self):
        assert scalar_map_report(0.2).passed  # interior orbits reach 0
        assert scalar_map_report(0.8).passed  # interior orbits reach 1

    def test_report_rejects_identity(self):
        with pytest.raises(ValueError):
            scalar_map_report(0.5)

    @pytest.mark.parametrize("bad", (-0.1, 1.1, math.nan, math.inf))
    def test_report_rejects_grid_outside_unit_interval(self, bad):
        with pytest.raises(ValueError):
            scalar_map_report(0.2, grid=[0.5, bad])

    def test_report_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            scalar_map_report(0.2, grid=[])

    @pytest.mark.parametrize("kwargs", [
        {"tol": math.nan}, {"tol": math.inf}, {"tol": 0.0}, {"max_iter": 0}])
    def test_report_rejects_bad_budget(self, kwargs):
        with pytest.raises(ValueError, match="tol" if "tol" in kwargs else "max_iter"):
            scalar_map_report(0.2, **kwargs)


HALF = Fraction(1, 2)
# Exact parameters: the ends and the middle of [0, 1], and points just off 1/2 (the floats
# next to 0.5, where a float grid sees no drift at all, and 1/2 + 1e-12).
SPECIAL_A = (Fraction(0), HALF, Fraction(1), Fraction(math.nextafter(0.5, 0.0)),
             Fraction(math.nextafter(0.5, 1.0)), HALF + Fraction(1, 10 ** 12))
UNIT_FRACTIONS = st.fractions(min_value=0, max_value=1, max_denominator=10 ** 9)


def _check_scalar_lemmas(a, x, y):
    """The facts the scalar map's predictions rest on, exactly: f fixes 0 and 1, f is
    non-decreasing on [0, 1], and f moves each interior x toward 1 when a > 1/2 and
    toward 0 when a < 1/2."""
    def f(u):
        return scalar_map(u, a)

    assert f(Fraction(0)) == 0 and f(Fraction(1)) == 1
    slope = 1 + (2 * a - 1) * (1 - x - y)  # the chord slope; f'(x) = 1 + (2a - 1)(1 - 2x) at y = x
    assert f(y) - f(x) == (y - x) * slope and slope >= 0
    drift = (a - HALF) * (f(x) - x)
    assert drift == 2 * (a - HALF) ** 2 * x * (1 - x)
    assert (drift > 0) == (a != HALF and 0 < x < 1)


class TestScalarMapLemmas:
    @pytest.mark.parametrize("a", SPECIAL_A, ids=str)
    @given(x=UNIT_FRACTIONS, y=UNIT_FRACTIONS)
    @example(x=Fraction(0), y=Fraction(0))
    @example(x=Fraction(1), y=Fraction(1))
    @example(x=Fraction(5e-324), y=HALF)
    def test_at_special_parameters(self, a, x, y):
        _check_scalar_lemmas(a, x, y)

    @given(a=UNIT_FRACTIONS, x=UNIT_FRACTIONS, y=UNIT_FRACTIONS)
    def test_on_a_parameter_sweep(self, a, x, y):
        _check_scalar_lemmas(a, x, y)


class TestIterate:
    def test_first_coordinate_frozen_at_half(self):
        T = operator_tensor(13, 0.5)
        orbit = iterate(T, SimplexPoint((0.6, 0.2, 0.2)), 1000)
        assert max(abs(p[0] - 0.6) for p in orbit) <= 1e-12

    def test_fixed_point_constant(self):
        T = operator_tensor(25, 0.3)
        orbit = iterate(T, E1, 50)
        assert all(p == E1 for p in orbit)

    def test_v28_alternates_on_edge(self):
        T = operator_tensor(28, 0.5)
        orbit = iterate(T, SimplexPoint((0.0, 0.3, 0.7)), 4)
        assert np.allclose(orbit[1].coords, (0.0, 0.7, 0.3), atol=1e-15)
        assert np.allclose(orbit[2].coords, (0.0, 0.3, 0.7), atol=1e-15)
        assert np.allclose(orbit[3].coords, (0.0, 0.7, 0.3), atol=1e-15)

    def test_length_and_validity(self):
        T = operator_tensor(9, 0.4)
        orbit = iterate(T, SimplexPoint((0.2, 0.5, 0.3)), 20)
        assert len(orbit) == 21
        for p in orbit:
            assert abs(sum(p) - 1.0) <= 1e-12


class TestOmegaLimit:
    def test_v13_low_a_interior_to_e2(self):
        report = omega_limit(operator_tensor(13, 0.2), SimplexPoint((0.3, 0.4, 0.3)))
        assert report.outcome.kind == "fixed_point"
        assert l1_distance(report.outcome.points[0], E2) <= 1e-8

    def test_v13_high_a_interior_to_e1(self):
        report = omega_limit(operator_tensor(13, 0.8), SimplexPoint((0.3, 0.4, 0.3)))
        assert report.outcome.kind == "fixed_point"
        assert l1_distance(report.outcome.points[0], E1) <= 1e-8

    def test_v28_edge_two_cycle(self):
        report = omega_limit(operator_tensor(28, 0.3), SimplexPoint((0.0, 0.9, 0.1)))
        assert report.outcome.kind == "two_cycle"
        pair = sorted(p.as_tuple() for p in report.outcome.points)
        assert _hausdorff_l1([SimplexPoint(p) for p in pair], [E2, E3]) <= 1e-8

    def test_undecided_on_tiny_budget(self):
        report = omega_limit(operator_tensor(13, 0.2), SimplexPoint((0.3, 0.4, 0.3)),
                             max_iter=3)
        assert report.outcome.kind == "undecided"
        assert report.steps == 3

    def test_residual_invariants(self):
        report = omega_limit(operator_tensor(13, 0.2), SimplexPoint((0.3, 0.4, 0.3)),
                             tol=1e-9)
        d1, _ = report.final_residuals
        assert d1 <= 1e-9
        report2 = omega_limit(operator_tensor(28, 0.3), SimplexPoint((0.0, 0.9, 0.1)),
                              tol=1e-9)
        d1, d2 = report2.final_residuals
        assert d2 <= 1e-9 and d1 > 1e-8

    def test_two_step_residual_is_null_in_json_at_step_one(self):
        report = omega_limit(operator_tensor(13, 0.2), E2)
        assert report.outcome.kind == "fixed_point" and report.steps == 1
        assert report.final_residuals == (0.0, math.inf)
        assert report.to_json_dict()["final_residuals"] == [0.0, None]

    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1.0])
    def test_rejects_tolerance_outside_open_positive_range(self, tol):
        with pytest.raises(ValueError, match="tol"):
            omega_limit(operator_tensor(13, 0.3), SimplexPoint((0.3, 0.3, 0.4)), tol=tol)

    def test_rejects_point_of_another_dimension(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            omega_limit(operator_tensor(13, 0.3), SimplexPoint((0.5, 0.5)))

    def test_thinning_keeps_final(self):
        report = omega_limit(operator_tensor(25, 0.45), SimplexPoint((0.01, 0.54, 0.45)))
        steps = [s for s, _ in report.iterates_kept]
        assert steps[0] == 0
        assert steps == sorted(steps)
        assert steps[-1] == report.steps

    def test_csv_columns(self):
        report = omega_limit(operator_tensor(25, 0.3), SimplexPoint((0.2, 0.4, 0.4)))
        text = trajectory_csv(report)
        lines = text.strip().split("\n")
        assert lines[0] == "step,x1,x2,x3,u,v"
        first = lines[1].split(",")
        x1, x2, x3, u, v = map(float, first[1:])
        assert u == pytest.approx(x2 + x3 / 2, abs=1e-15)
        assert v == pytest.approx(math.sqrt(3) / 2 * x3, abs=1e-15)


class TestClosedForms:
    def test_slice_fixed_height_solves_quadratic(self):
        for b in np.linspace(0.0, 1.0, 100):
            h = slice_fixed_height(float(b))
            residual = h * h - (3 - 2 * b) * h + (1 - b)
            assert abs(residual) <= 1e-12
            assert 0.0 <= h <= 1.0

    def test_cycle_heights_solve_quadratic(self):
        for c in np.linspace(0.0, CYCLE_PARAM_SUP, 100, endpoint=False):
            lo, hi = slice_cycle_heights(float(c))
            for h in (lo, hi):
                residual = h * h - (1 - 2 * c) * h + c
                assert abs(residual) <= 1e-12
                assert 0.0 <= h <= 1.0
        assert slice_cycle_heights(0.0) == (0.0, 1.0)

    def test_cycle_heights_reject_a_slice_past_the_sup(self):
        message = f"slice parameter 0.2 outside [0, {CYCLE_PARAM_SUP}]"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            slice_cycle_heights(0.2)

    def test_cycle_points_are_two_periodic(self):
        T = operator_tensor(4, 0.5)
        for c in np.linspace(0.0, CYCLE_PARAM_SUP, 100, endpoint=False):
            lo, hi = slice_cycle_heights(float(c))
            for h in (lo, hi):
                p = np.array((c, h, 1.0 - c - h))
                image2 = apply_array(T, apply_array(T, p))
                assert np.abs(image2 - p).sum() <= 1e-12

    def test_cycle_branches_swap(self):
        T = operator_tensor(4, 0.5)
        c = 0.05
        lo, hi = slice_cycle_heights(c)
        p_lo = np.array((c, lo, 1.0 - c - lo))
        p_hi = np.array((c, hi, 1.0 - c - hi))
        assert np.abs(apply_array(T, p_lo) - p_hi).sum() <= 1e-12
        assert np.abs(apply_array(T, p_hi) - p_lo).sum() <= 1e-12

    def test_fixed_curve_points_are_fixed(self):
        T = operator_tensor(4, 0.5)
        for b in np.linspace(0.0, 1.0, 100):
            h = slice_fixed_height(float(b))
            p = np.array((b, h, 1.0 - b - h))
            assert np.abs(apply_array(T, p) - p).sum() <= 1e-12

    def test_edge_fixed_height_value_and_residual(self):
        assert edge_fixed_height(0.0) == pytest.approx(GOLDEN_CONJ, abs=1e-15)
        grid = np.linspace(0.0, 1.0, 100)  # does not contain 1/2
        for a in grid:
            h = edge_fixed_height(float(a))
            T = operator_tensor(28, float(a))
            p = np.array((0.0, h, 1.0 - h))
            assert np.abs(apply_array(T, p) - p).sum() <= 1e-12
            assert 0.0 <= h <= 1.0

    def test_edge_fixed_height_matches_direct_formula(self):
        for a in np.linspace(0.0, 1.0, 100):
            if abs(a - 0.5) < 1e-9:
                continue
            direct = (3 - 2 * a - math.sqrt(4 + (2 * a - 1) ** 2)) / (2 * (1 - 2 * a))
            assert edge_fixed_height(float(a)) == pytest.approx(direct, abs=1e-12)


class TestExactSets:
    def test_v4_generic(self):
        ps = fixed_points_exact(4, 0.3)
        pts = sorted(p.as_tuple() for p in ps.points)
        assert len(pts) == 2
        assert pts[0] == pytest.approx((0.0, GOLDEN_CONJ, (math.sqrt(5) - 1) / 2), abs=1e-15)
        assert pts[1] == (1.0, 0.0, 0.0)

    def test_v13_generic_and_balanced(self):
        assert {p.as_tuple() for p in fixed_points_exact(13, 0.7).points} == \
            {E1.as_tuple(), E2.as_tuple(), E3.as_tuple()}
        balanced = fixed_points_exact(13, 0.5)
        assert len(balanced.curves) == 2
        T = operator_tensor(13, 0.5)
        for p in balanced.sample(40):
            assert np.abs(apply_array(T, p.coords) - p.coords).sum() <= 1e-12

    def test_v28_edge_point(self):
        ps = fixed_points_exact(28, 0.0)
        pts = {p.as_tuple() for p in ps.points}
        assert any(abs(p[1] - GOLDEN_CONJ) <= 1e-15 and p[0] == 0.0 for p in pts)

    def test_v25_balanced_curve(self):
        ps = fixed_points_exact(25, 0.5)
        T = operator_tensor(25, 0.5)
        for p in ps.sample(30):
            assert np.abs(apply_array(T, p.coords) - p.coords).sum() <= 1e-13

    def test_periodic2_empty_for_13_and_25(self):
        for a in (0.2, 0.5, 0.8):
            assert periodic2_exact(13, a).is_empty
            assert periodic2_exact(25, a).is_empty

    def test_periodic2_v28(self):
        generic = periodic2_exact(28, 0.3)
        assert {p.as_tuple() for p in generic.points} == {E2.as_tuple(), E3.as_tuple()}
        balanced = periodic2_exact(28, 0.5)
        T = operator_tensor(28, 0.5)
        samples = balanced.sample(50)
        assert all(abs(p[0]) == 0.0 for p in samples)
        assert not any(abs(p[1] - 0.5) <= 1e-12 for p in samples)  # midpoint excluded
        for p in samples:
            two_step = apply_array(T, apply_array(T, p.coords))
            assert np.abs(two_step - p.coords).sum() <= 1e-14

    def test_periodic2_v4_curves(self):
        balanced = periodic2_exact(4, 0.5)
        assert len(balanced.curves) == 2
        assert all(not c.include_hi for c in balanced.curves)

    def test_unsupported_op(self):
        with pytest.raises(ValueError):
            fixed_points_exact(7, 0.3)
        with pytest.raises(ValueError):
            periodic2_exact(1, 0.3)

    def test_min_l1_distance(self):
        line = fixed_points_exact(25, 0.5)  # vertex e1 plus the edge x1 = 0
        d = line.min_l1_distance(np.array((0.1, 0.45, 0.45)))
        assert d == pytest.approx(0.2, abs=1e-9)
        assert PointSet().is_empty


def _edge_point_reference(zero, u):
    p = np.zeros(3)
    i, j = (1, 2) if zero == 0 else (0, 3 - zero)
    p[i], p[j] = u, 1.0 - u
    return p


def _edge_candidates_reference(T, refine_tol):
    """(residual, point) of each edge scan hit and bisection root, one kernel row at a time."""
    out = []
    for zero in range(3):
        free = 1 if zero == 0 else 0
        probe = np.linspace(0.0, 1.0, 33)
        if max(float(apply_array(T, _edge_point_reference(zero, u))[zero])
               for u in probe) > ZERO_TOL:
            continue

        def f(u):
            return float(apply_array(T, _edge_point_reference(zero, u))[free]) - u

        us = np.linspace(0.0, 1.0, 1025)
        vals = np.array([f(u) for u in us])
        for u, val in zip(us, vals):
            if abs(val) <= refine_tol:
                p = _edge_point_reference(zero, float(u))
                out.append((float(np.abs(apply_array(T, p) - p).sum()), p))
        for i in range(len(us) - 1):
            if vals[i] == 0.0 or vals[i] * vals[i + 1] > 0.0:
                continue
            lo, hi = float(us[i]), float(us[i + 1])
            flo = vals[i]
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                fm = f(mid)
                if fm == 0.0:
                    lo = hi = mid
                    break
                if flo * fm < 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            p = _edge_point_reference(zero, 0.5 * (lo + hi))
            r = float(np.abs(apply_array(T, p) - p).sum())
            if r <= refine_tol:
                out.append((r, p))
    return out


def _fixed_points_numeric_reference(T, grid_n, refine_tol=1e-10):
    """The oracle as loops: seed double loop, vertex pass, one-row edge bisection."""
    seeds = []
    for i in range(grid_n + 1):
        for j in range(grid_n + 1 - i):
            seeds.append((i / grid_n, j / grid_n, (grid_n - i - j) / grid_n))
    X = np.array(seeds, dtype=float)
    X = X / X.sum(axis=1, keepdims=True)
    for _ in range(4096):
        V = apply_array(T, X)
        step = 0.5 * (V - X)
        X = X + step
        X = X / X.sum(axis=1, keepdims=True)
        if np.max(np.abs(step).sum(axis=1)) < 0.1 * refine_tol:
            break

    residuals = np.abs(apply_array(T, X) - X).sum(axis=1)
    candidates = [(float(residuals[i]), X[i]) for i in range(X.shape[0])
                  if residuals[i] <= refine_tol]
    for i in range(1, 4):
        v = vertex(i, 3).coords
        r = float(np.abs(apply_array(T, v) - v).sum())
        if r <= refine_tol:
            candidates.append((r, v))

    candidates.extend(_edge_candidates_reference(T, refine_tol))

    accepted = []
    for _, arr in sorted(candidates, key=lambda c: (c[0], tuple(c[1]))):
        if all(float(np.abs(arr - b).sum()) > 10.0 * refine_tol for b in accepted):
            accepted.append(arr)
    accepted.sort(key=lambda arr: tuple(arr))
    return [SimplexPoint(arr) for arr in accepted]


# Edge x3 = 0 carries f(u) = (u - 3/2048)(u - 1), which floats evaluate exactly: the root
# is the first midpoint of the scan bracket [1/1024, 2/1024], so its bisection hits f = 0.
_DYADIC_EDGE_ROOT = HeredityTensor.from_rows(3, {
    (1, 1): (1.0, 0.0, 0.0), (1, 2): (3 / 4096, 1 - 3 / 4096, 0.0),
    (2, 2): (3 / 2048, 1 - 3 / 2048, 0.0), (1, 3): (0.0, 0.0, 1.0),
    (2, 3): (0.0, 0.0, 1.0), (3, 3): (0.0, 0.0, 1.0)})
_ORACLE_CASES = {f"op{op_id}-a{a}": operator_tensor(op_id, a)
                 for op_id in (4, 13, 25, 28, 1, 19) for a in (0.0, 0.3, 0.5, 1.0)}
_ORACLE_CASES["dyadic-edge-root"] = _DYADIC_EDGE_ROOT
# An edge of fixed points leaves about 1,030 distinct candidates, which the reference's
# pairwise dedup takes seconds over; these cases compare their edge roots only.
_EDGE_OF_FIXED_POINTS = {"op1-a0.5", "op13-a0.5", "op25-a0.5"}


class TestOracleMatchesReference:
    @pytest.mark.parametrize("name", sorted(set(_ORACLE_CASES) - _EDGE_OF_FIXED_POINTS))
    def test_points(self, name):
        T = _ORACLE_CASES[name]
        found = fixed_points_numeric(T, grid_n=10)
        expected = _fixed_points_numeric_reference(T, grid_n=10)
        assert len(found) == len(expected)
        for p, q in zip(found, expected):
            assert l1_distance(p, q) <= 1e-12

    @pytest.mark.parametrize("name", sorted(_ORACLE_CASES))
    def test_edge_roots(self, name):
        T = _ORACLE_CASES[name]
        roots = _edge_roots(T, 1e-10)
        roots = roots[np.abs(apply_array(T, roots) - roots).sum(axis=1) <= 1e-10]
        expected = [p for r, p in _edge_candidates_reference(T, 1e-10) if r <= 1e-10]
        assert len(roots) == len(expected)
        for p, q in zip(roots, expected):
            assert np.abs(p - q).sum() <= 1e-12


def _fixed_points_numeric_loop_dedup(T, grid_n=50, refine_tol=1e-10):
    """The array oracle as it stood with its dedup as one pass per candidate:
    a candidate is kept when it lies farther than 10 * refine_tol from every
    candidate kept before it, in order of residual and then coordinates."""
    r = np.arange(grid_n + 1)
    i, j = np.nonzero(np.add.outer(r, r) <= grid_n)
    X = np.stack((i, j, grid_n - i - j), axis=1) / grid_n
    X = X / X.sum(axis=1, keepdims=True)
    for _ in range(4096):
        V = apply_array(T, X)
        step = 0.5 * (V - X)
        X = X + step
        X = X / X.sum(axis=1, keepdims=True)
        if np.max(np.abs(step).sum(axis=1)) < 0.1 * refine_tol:
            break
    X = np.vstack((X, _edge_roots(T, refine_tol)))
    residuals = np.abs(apply_array(T, X) - X).sum(axis=1)
    keep = residuals <= refine_tol
    X, residuals = X[keep], residuals[keep]
    accepted = X[:0]
    for arr in X[np.lexsort((X[:, 2], X[:, 1], X[:, 0], residuals))]:
        if np.all(np.abs(accepted - arr).sum(axis=1) > 10.0 * refine_tol):
            accepted = np.vstack((accepted, arr))
    return [SimplexPoint(arr) for arr in accepted[np.lexsort(accepted.T[::-1])]]


class TestOracleDedupMatchesLoop:
    # At a = 1/2 operators 1, 13 and 25 carry an edge of fixed points, which leaves over
    # 1,000 candidates. With refine_tol = 2e-4 the dedup radius exceeds the l1 spacing
    # of the edge scan (2 / 1024), so the greedy order decides which half is kept.
    @pytest.mark.parametrize("refine_tol", [1e-10, 2e-4])
    @pytest.mark.parametrize("a", [0.3, 0.5])
    @pytest.mark.parametrize("op_id", [1, 4, 13, 25, 28])
    def test_points_bitwise(self, op_id, a, refine_tol):
        T = operator_tensor(op_id, a)
        got = fixed_points_numeric(T, refine_tol=refine_tol)
        want = _fixed_points_numeric_loop_dedup(T, refine_tol=refine_tol)
        assert len(got) == len(want)
        assert np.array([p.coords for p in got]).tobytes() == \
            np.array([p.coords for p in want]).tobytes()


class TestNumericOracle:
    @pytest.mark.parametrize("op_id", (13, 4, 28, 25))
    def test_matches_exact_sets(self, op_id):
        for a in (0.1, 0.9):
            found = fixed_points_numeric(operator_tensor(op_id, a), grid_n=40,
                                         refine_tol=1e-10)
            exact = fixed_points_exact(op_id, a).sample()
            assert len(found) == len(exact)
            assert _hausdorff_l1(found, exact) <= 1e-9

    def test_residuals_small(self):
        T = operator_tensor(4, 0.3)
        for p in fixed_points_numeric(T, grid_n=30):
            assert np.abs(apply_array(T, p.coords) - p.coords).sum() <= 1e-10

    def test_grid_floor(self):
        with pytest.raises(ValueError):
            fixed_points_numeric(operator_tensor(4, 0.3), grid_n=5)

    def test_rejects_a_tensor_off_the_2_simplex(self):
        message = "the oracle is implemented for the 2-simplex (m = 3)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fixed_points_numeric(M2)

    @pytest.mark.parametrize("refine_tol", [math.nan, math.inf, 0.0, -1e-10])
    def test_refine_tol_outside_open_positive_range(self, refine_tol):
        with pytest.raises(ValueError, match="refine_tol"):
            fixed_points_numeric(operator_tensor(13, 0.3), refine_tol=refine_tol)


class TestRegions:
    def test_examples(self):
        assert region_classify(SimplexPoint((0.0, 0.4, 0.6))).kind == "edge"
        assert region_classify(SimplexPoint((0.0, 0.4, 0.6))).index == 1
        assert region_classify(SimplexPoint((0.3, 0.4, 0.3))).kind == "line13"
        tag = region_classify(SimplexPoint((0.2, 0.3, 0.5)))
        assert tag.kind == "half_lower"
        assert region_classify(E2).kind == "vertex"
        assert region_classify(E2).index == 2
        assert region_classify(SimplexPoint((0.5, 0.3, 0.2))).kind == "half_upper"

    def test_edge_beats_line(self):
        assert region_classify(SimplexPoint((0.5, 0.0, 0.5))).kind == "edge"

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            region_classify(SimplexPoint((0.5, 0.5)))

    def test_labels(self):
        starts = ((0.0, 1.0, 0.0), (0.0, 0.4, 0.6), (0.3, 0.4, 0.3), (0.2, 0.3, 0.5),
                  (0.5, 0.3, 0.2))
        assert [region_classify(SimplexPoint(x)).label() for x in starts] == [
            "vertex e2", "edge x1 = 0", "line x1 = x3", "half x1 <= x3", "half x1 >= x3"]

    @pytest.mark.parametrize("coords,tol,index", [
        ((0.33, 0.345, 0.325), 0.35, 2),
        ((0.25, 0.3, 0.45), 0.5, 3),
        ((1 / 3, 1 / 3, 1 / 3), 0.5, 1),  # a tie goes to the first coordinate
        ((0.55, 0.25, 0.2), 0.6, 1),
    ])
    def test_wide_tolerance_names_the_largest_coordinate(self, coords, tol, index):
        # Every coordinate is within tol of 0, so no coordinate is live; the point is
        # still a vertex region, named by its largest coordinate.
        tag = region_classify(SimplexPoint(coords), tol=tol)
        assert (tag.kind, tag.index) == ("vertex", index)


class TestPredictions:
    def test_v13_balanced_upper(self):
        pred = limit_prediction(13, 0.5, SimplexPoint((0.7, 0.2, 0.1)))
        assert pred.kind == "point" and pred.continuum
        assert pred.points[0].as_tuple() == pytest.approx((0.7, 0.0, 0.3), abs=1e-15)

    def test_v13_balanced_lower(self):
        pred = limit_prediction(13, 0.5, SimplexPoint((0.3, 0.5, 0.2)))
        assert pred.points[0].as_tuple() == pytest.approx((0.3, 0.4, 0.3), abs=1e-15)

    def test_v4_balanced_cycle(self):
        pred = limit_prediction(4, 0.5, SimplexPoint((0.05, 0.5, 0.45)))
        assert pred.kind == "cycle" and len(pred.points) == 2
        lo, hi = slice_cycle_heights(0.05)
        seconds = sorted(p[1] for p in pred.points)
        assert seconds == pytest.approx([lo, hi], abs=1e-15)

    def test_v4_uncovered_range(self):
        with pytest.raises(ValueError):
            limit_prediction(4, 0.2, SimplexPoint((0.3, 0.3, 0.4)))
        with pytest.raises(ValueError):
            verify_predictions(4, (0.2,), seeds=5)

    def test_v25_edge(self):
        pred = limit_prediction(25, 0.3, SimplexPoint((0.0, 0.4, 0.6)))
        assert pred.points[0] == E3
        pred = limit_prediction(25, 0.8, SimplexPoint((0.0, 0.4, 0.6)))
        assert pred.points[0] == E2

    def test_v28_cases(self):
        assert limit_prediction(28, 0.3, SimplexPoint((0.0, 0.4, 0.6))).kind == "cycle"
        assert limit_prediction(28, 0.3, SimplexPoint((0.2, 0.4, 0.4))).points[0] == E1
        assert limit_prediction(28, 0.5, SimplexPoint((0.2, 0.4, 0.4))).points[0] == E1

    def test_rejects_a_point_off_the_2_simplex(self):
        with pytest.raises(ValueError, match="^predictions are for the 2-simplex$"):
            limit_prediction(13, 0.3, SimplexPoint((0.5, 0.5)))


class TestInvarianceProperties:
    def test_lower_half_forward_invariant_v13(self):
        # x1 <= x3 is preserved for a < 1/2
        for a in (0.1, 0.3, 0.49):
            T = operator_tensor(13, a)
            pts = [p for p in sample(3, 77, 1200) if p[0] <= p[2]][:500]
            assert len(pts) >= 400
            for x in pts:
                y = apply_array(T, x.coords)
                assert y[0] <= y[2] + 1e-14

    def test_monotone_first_coordinate(self):
        for op_id in (13, 4):
            T = operator_tensor(op_id, 0.8)
            for x in sample(3, 5, 20):
                orbit = iterate(T, x, 60)
                firsts = [p[0] for p in orbit]
                assert all(b >= a - 1e-14 for a, b in zip(firsts, firsts[1:]))


class TestClassPartnersHaveRelabeledOrbits:
    # Conjugate operators W = p(V) map relabeled starts onto relabeled orbits: W(p(x)) = p(V(x)).
    # The relabeling comes from are_conjugate; the budgets are simulate's defaults.
    @pytest.mark.parametrize("rep, partner, a", [
        (13, 1, 0.2), (13, 1, 0.45), (13, 1, 0.5), (13, 1, 0.8), (4, 16, 0.5), (4, 16, 0.8)])
    def test_outcomes_steps_and_limit_points_agree(self, rep, partner, a):
        V, W = operator_tensor(rep, a), operator_tensor(partner, a)
        p = are_conjugate(V, W)
        assert p is not None
        balanced = regime(a) == "balanced"
        tol = dynamics.BALANCED_TOL if balanced else dynamics.DEFAULT_TOL
        max_iter = dynamics.BALANCED_MAX_ITER if balanced else dynamics.DEFAULT_MAX_ITER
        X = np.array([x.coords for x in sample(3, 11, 200)])
        reps = omega_limits(V, X, tol, max_iter)
        for r, s in zip(reps, omega_limits(W, p.permute_vector(X), tol, max_iter), strict=True):
            assert (s.outcome.kind, s.steps) == (r.outcome.kind, r.steps)
            assert len(s.outcome.points) == len(r.outcome.points)
            for y, x in zip(s.outcome.points, r.outcome.points):
                assert np.abs(y.coords - p.permute_vector(x.coords)).max() <= 1e-12


class TestVerifier:
    def test_v28_generic_passes(self):
        (report,) = verify_predictions(28, (0.3,), seeds=20)
        assert report.passed
        assert len(report.cases) == 2
        assert {c.label for c in report.cases} == {"x1(0) = 0", "x1(0) != 0"}

    def test_v13_balanced_passes(self):
        (report,) = verify_predictions(13, (0.5,), seeds=15)
        assert report.passed
        for case in report.cases:
            assert case.tol == 1e-4  # continuum targets
            assert case.max_iter == 10 ** 6

    def test_deterministic(self):
        a = verify_predictions(25, (0.2,), seeds=10)[0].to_json_dict()
        b = verify_predictions(25, (0.2,), seeds=10)[0].to_json_dict()
        assert a == b

    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1.0])
    def test_rejects_tolerance_outside_open_positive_range(self, tol):
        with pytest.raises(ValueError, match="tol"):
            verify_predictions(13, (0.3,), seeds=2, tol=tol)

    def test_exclusion_respected(self):
        (report,) = verify_predictions(28, (0.3,), seeds=25)
        fixed = fixed_points_exact(28, 0.3)
        per2 = periodic2_exact(28, 0.3)
        for case in report.cases:
            for verdict in case.verdicts:
                arr = np.array(verdict.x0)
                assert fixed.min_l1_distance(arr) > 1e-9
                assert per2.min_l1_distance(arr) > 1e-9


# Every (operator, a) whose branches all have vertex targets, and the four vertex target sets.
_VERTEX_TARGET_PARAMS = [(13, 0.2), (13, 0.8), (4, 0.8), (28, 0.3), (28, 0.7), (25, 0.2),
                         (25, 0.8), (28, 0.5), (25, 0.5)]
_VERTEX_TARGETS = [(E1,), (E2,), (E3,), (E2, E3)]


class TestTargetSwap:
    # An edge orbit that tends to the 2-cycle {e2, e3} passes near e2 and e3 in turn:
    # a wrong point prediction of either vertex must still fail.
    @pytest.mark.parametrize("op_id,a", _VERTEX_TARGET_PARAMS)
    def test_only_the_true_targets_pass(self, op_id, a):
        (report,) = verify_predictions(op_id, (a,), seeds=5)
        T = operator_tensor(op_id, a)
        for branch, case in zip(_limit_table(op_id, a).branches, report.cases):
            steps, _ = _run_case(T, case.x0, branch.kind, case.predicted, 1e-6, 2000)
            assert (steps > 0).all(), branch.label
            for targets in _VERTEX_TARGETS:
                if targets == branch.targets:
                    continue
                P = np.broadcast_to([t.coords for t in targets], (len(case.x0), len(targets), 3))
                kind = "cycle" if len(targets) == 2 else "point"
                steps, _ = _run_case(T, case.x0, kind, P, 1e-6, 2000)
                assert (steps < 0).any(), (branch.label, branch.target_text, targets)


# Every (operator, regime) whose table carries predictions; operator 4 has
# none below 1/2.
PREDICTED = [(op_id, a) for op_id in ANALYZED_OPS for a in (0.2, 0.5, 0.8)
             if (op_id, a) != (4, 0.2)]


class TestRegime:
    def test_values(self):
        assert [regime(a) for a in (0.0, 0.2, 0.5, 0.8, 1.0)] == [
            "below", "below", "balanced", "above", "above"]

    def test_only_one_half_itself_is_balanced(self):
        # a near 1/2 has finite limit sets; only a == 0.5 gets the curve families
        near = (math.nextafter(0.5, 0.0), 0.5 - 1e-12, 0.5, 0.5 + 1e-12, math.nextafter(0.5, 1.0))
        assert [regime(a) for a in near] == ["below", "below", "balanced", "above", "above"]

    @pytest.mark.parametrize("a", [-0.1, 1.1, float("nan"), float("inf")])
    def test_rejects_outside_unit_interval(self, a):
        with pytest.raises(ValueError):
            regime(a)

    @pytest.mark.parametrize("call,message", [
        (lambda: scalar_map(1.5, 0.2), "argument 1.5 outside [0, 1]"),
        (lambda: scalar_map(0.5, -0.1), "parameter -0.1 outside [0, 1]"),
        (lambda: regime(float("nan")), "parameter nan outside [0, 1]"),
        (lambda: edge_fixed_height(1.25), "parameter 1.25 outside [0, 1]"),
        (lambda: slice_fixed_height(-1.0), "slice parameter -1.0 outside [0, 1]"),
    ])
    def test_unit_interval_messages(self, call, message):
        with pytest.raises(ValueError) as raised:
            call()
        assert str(raised.value) == message


class TestLimitTable:
    def test_every_analyzed_regime_has_an_entry(self):
        for op_id in ANALYZED_OPS:
            for a in (0.2, 0.5, 0.8):
                table = _limit_table(op_id, a)
                assert not table.fixed.is_empty
                assert bool(table.branches) == ((op_id, a) in PREDICTED)

    @pytest.mark.parametrize("op_id,a", PREDICTED)
    @given(u=st.floats(0.0, 1.0), v=st.floats(0.0, 1.0))
    @example(u=0.5, v=0.3)
    @example(u=CYCLE_PARAM_SUP, v=0.3)
    @example(u=1e-13, v=0.5)
    @example(u=0.2, v=0.0)
    def test_branches_partition_the_simplex(self, op_id, a, u, v):
        x = SimplexPoint((u, (1.0 - u) * v, (1.0 - u) * (1.0 - v)))
        table = _limit_table(op_id, a)
        if table.excluded(x.coords) is not None:
            with pytest.raises(ValueError):
                limit_prediction(op_id, a, x)
            return
        holding = [b.label for b in table.branches if b.holds(x.coords)]
        assert len(holding) == 1
        assert limit_prediction(op_id, a, x).case.startswith(holding[0] + " -> ")

    @pytest.mark.parametrize("op_id,side", sorted(dynamics._TABLES))
    def test_every_entry_covers_every_start_it_does_not_exclude(self, op_id, side):
        # limit_prediction takes the first branch that holds, and has no case for a start
        # that none holds: such a start must lie near an exact set, which rejects it first.
        rng = np.random.default_rng(op_id)
        near_x1_edge = [(x1, (1.0 - x1) * v, (1.0 - x1) * (1.0 - v))
                        for x1 in (0.0, 5e-324, 1e-13, ZERO_TOL) for v in rng.random(25)]
        X = np.vstack([sample_with_rng(3, rng, 500), np.eye(3), near_x1_edge,
                       *(_edge_points(zero, rng.random(100)) for zero in range(3))])
        for a in {"below": (0.2, 0.45), "balanced": (0.5,), "above": (0.55, 0.8)}[side]:
            table = _limit_table(op_id, a)
            if not table.branches:  # operator 4 below 1/2: limit_prediction raises first
                continue
            held = np.any([branch.holds(X) for branch in table.branches], axis=0)
            assert (held | table.excluded(X)).all()

    @pytest.mark.parametrize("op_id", (25, 28))
    @pytest.mark.parametrize("x1", (0.0, 5e-324, 1e-13, ZERO_TOL))
    def test_balanced_edge_starts_outside_every_branch_are_excluded(self, op_id, x1):
        x = SimplexPoint((x1, 0.3, 0.7 - x1))
        assert not any(branch.holds(x.coords) for branch in _limit_table(op_id, 0.5).branches)
        with pytest.raises(ValueError, match="excluded"):
            limit_prediction(op_id, 0.5, x)

    @pytest.mark.parametrize("op_id,a", PREDICTED)
    def test_verification_draws_land_in_their_case(self, op_id, a):
        (report,) = verify_predictions(op_id, (a,), seeds=25, max_iter=1)
        assert [c.label for c in report.cases] == [
            b.label for b in _limit_table(op_id, a).branches]
        for case in report.cases:
            for verdict in case.verdicts:
                pred = limit_prediction(op_id, a, SimplexPoint(verdict.x0))
                assert pred.case.startswith(case.label + " -> ")
                assert pred.kind == verdict.prediction_kind
                assert tuple(p.as_tuple() for p in pred.points) == verdict.predicted

    @pytest.mark.parametrize("kwargs", [
        {"tol": 0.0}, {"tol": -1.0}, {"tol": float("nan")}, {"max_iter": 0}])
    def test_verifier_rejects_bad_budget(self, kwargs):
        with pytest.raises(ValueError):
            verify_predictions(28, (0.3,), seeds=3, **kwargs)

    # Every (operator, regime) entry as literal data: per branch (label, target text,
    # edge, kind, continuum), in verification order.
    _ENTRIES = {
        (13, "below"): [("x2(0) != 0", "e2", None, "point", False),
                        ("x2(0) = 0", "e3", 1, "point", False)],
        (13, "balanced"): [("x1(0) > 1/2", "(x1, 0, 1 - x1)", None, "point", True),
                           ("x1(0) <= 1/2", "(x1, 1 - 2 x1, x1)", None, "point", True)],
        (13, "above"): [("x1(0) != 0", "e1", None, "point", False),
                        ("x1(0) = 0", "e2", 0, "point", False)],
        (4, "below"): [],
        (4, "balanced"): [("x1(0) < cycle sup", "slice 2-cycle", None, "cycle", True),
                          ("x1(0) >= cycle sup", "slice fixed point", None, "point", True)],
        (4, "above"): [("x1(0) != 0", "e1", None, "point", False),
                       ("x1(0) = 0", "cycle {e2, e3}", 0, "cycle", False)],
        (28, "below"): [("x1(0) = 0", "cycle {e2, e3}", 0, "cycle", False),
                        ("x1(0) != 0", "e1", None, "point", False)],
        (28, "balanced"): [("x1(0) != 0", "e1", None, "point", False)],
        (28, "above"): [("x1(0) = 0", "cycle {e2, e3}", 0, "cycle", False),
                        ("x1(0) != 0", "e1", None, "point", False)],
        (25, "below"): [("x1(0) = 0", "e3", 0, "point", False),
                        ("x1(0) != 0", "e1", None, "point", False)],
        (25, "balanced"): [("x1(0) != 0", "e1", None, "point", False)],
        (25, "above"): [("x1(0) = 0", "e2", 0, "point", False),
                        ("x1(0) != 0", "e1", None, "point", False)],
    }
    # One start per condition, on the condition's boundary where that is not excluded.
    _STARTS = {
        "x1(0) != 0": (0.3, 0.3, 0.4),
        "x2(0) != 0": (0.3, 0.3, 0.4),
        "x1(0) = 0": (ZERO_TOL, 0.3, 0.7 - ZERO_TOL),
        "x2(0) = 0": (0.3, ZERO_TOL, 0.7 - ZERO_TOL),
        "x1(0) > 1/2": (0.6, 0.3, 0.1),
        "x1(0) <= 1/2": (0.5, 0.3, 0.2),
        "x1(0) < cycle sup": (0.1, 0.3, 0.6),
        "x1(0) >= cycle sup": (CYCLE_PARAM_SUP, 0.3, 0.7 - CYCLE_PARAM_SUP),
    }

    def test_entries_are_pinned(self):
        assert set(dynamics._TABLES) == {
            (op_id, side) for op_id in ANALYZED_OPS for side in ("below", "balanced", "above")}
        assert set(dynamics._TABLES) == set(self._ENTRIES)
        for (op_id, side), entry in self._ENTRIES.items():
            for a in {"below": (0.2, 0.3), "balanced": (0.5,), "above": (0.8,)}[side]:
                branches = _limit_table(op_id, a).branches
                assert [(b.label, b.target_text, b.edge, b.kind, b.continuum)
                        for b in branches] == entry, (op_id, a)
                for label, target_text, *_ in entry:
                    case = limit_prediction(op_id, a, SimplexPoint(self._STARTS[label])).case
                    assert case == f"{label} -> {target_text}", (op_id, a)


def _scalar_orbits_reference(a, xs, tol, max_iter):
    """The scalar-map orbit loop as it stood before the shared batch loop:
    (largest step at which an orbit finished, number of orbits still running)."""
    target = 0.0 if a < 0.5 else 1.0
    orbit = xs[(xs > 0.0) & (xs < 1.0)].copy()
    remaining = np.arange(orbit.size)
    steps = 0
    max_steps = 0
    while remaining.size and steps < max_iter:
        steps += 1
        orbit = orbit * orbit + 2.0 * a * orbit * (1.0 - orbit)
        done = np.abs(orbit - target) <= tol
        if np.any(done):
            max_steps = steps
            orbit = orbit[~done]
            remaining = remaining[~done]
    return max_steps, remaining.size


def _run_case_reference(T, X0, kind, targets, tol, max_iter):
    """The batch loop of _run_case as it stood before the shared batch loop."""
    n = X0.shape[0]
    P1 = np.array([pts[0].coords for pts in targets])
    P2 = np.array([pts[-1].coords for pts in targets]) if kind == "cycle" else None

    steps = np.full(n, -1, dtype=np.int64)
    final = np.full(n, np.inf)
    idx = np.arange(n)
    X = X0.copy()
    t = 0
    while idx.size and t < max_iter:
        t += 1
        nxt = apply_array(T, X)
        if kind == "point":
            d = np.abs(nxt - P1).sum(axis=1)
        else:
            dc1 = np.abs(nxt - P1).sum(axis=1)
            dc2 = np.abs(nxt - P2).sum(axis=1)
            dp1 = np.abs(X - P1).sum(axis=1)
            dp2 = np.abs(X - P2).sum(axis=1)
            d = np.minimum(np.maximum(dc1, dp2), np.maximum(dc2, dp1))
        done = d <= tol
        if np.any(done):
            steps[idx[done]] = t
            final[idx[done]] = d[done]
            keep = ~done
            idx = idx[keep]
            X = nxt[keep]
            P1 = P1[keep]
            if P2 is not None:
                P2 = P2[keep]
        else:
            X = nxt
        if t == max_iter and idx.size:
            final[idx] = d[~done] if np.any(done) else d
    return steps, final


class TestBatchLoopMatchesReference:
    @pytest.mark.parametrize("a", [0.1, 0.2, 0.45, 0.55, 0.8, 0.95])
    @pytest.mark.parametrize("max_iter", [10 ** 5, 20, 1])
    def test_scalar_map_report_steps(self, a, max_iter):
        xs = np.linspace(0.0, 1.0, 101)
        report = scalar_map_report(a, tol=1e-9, max_iter=max_iter)
        max_steps, missed = _scalar_orbits_reference(a, xs, 1e-9, max_iter)
        assert report.orbit_max_steps == max_steps
        assert report.orbits_converged == (missed == 0)
        assert any(str(missed) in f for f in report.failures) == (missed > 0)

    def test_scalar_map_report_without_interior_grid(self):
        report = scalar_map_report(0.2, grid=[0.0, 1.0])
        assert report.orbits_converged and report.orbit_max_steps == 0

    # (op, a, branch index, rows, tol): point and cycle targets, vertices and curves.
    CASES = [
        (13, 0.2, 0, 40, 1e-6),
        (25, 0.8, 0, 40, 1e-6),
        (28, 0.3, 0, 40, 1e-6),  # x1(0) = 0 -> cycle {e2, e3}
        (4, 0.8, 1, 40, 1e-6),  # x1(0) = 0 -> cycle {e2, e3}
        (13, 0.5, 0, 12, 1e-4),  # continuum point targets
        (4, 0.5, 0, 12, 1e-4),  # continuum cycle targets
    ]

    @pytest.mark.parametrize("op_id,a,branch_idx,rows,tol", CASES)
    def test_run_case_bitwise(self, op_id, a, branch_idx, rows, tol):
        table = _limit_table(op_id, a)
        branch = table.branches[branch_idx]
        rng = np.random.default_rng([op_id, branch_idx, 3])
        X0 = np.array([_draw_reference(branch, rng) for _ in range(rows)])
        targets = [tuple(map(SimplexPoint, branch.target_coords(x[None])[0])) for x in X0]
        T = operator_tensor(op_id, a)
        ref_steps, ref_dist = _run_case_reference(T, X0, branch.kind, targets, tol, 10 ** 6)
        assert (ref_steps > 0).all()
        # The slowest row runs alone for its last steps: the one-row kernel is exercised.
        slowest, runner_up = np.sort(ref_steps)[-1], np.sort(ref_steps)[-2]
        assert slowest > runner_up
        for max_iter in (10 ** 6, int(np.median(ref_steps)), int(slowest) - 1, 1):
            ref = _run_case_reference(T, X0, branch.kind, targets, tol, max_iter)
            got = _run_case(T, X0, branch.kind, targets, tol, max_iter)
            assert np.array_equal(got[0], ref[0])
            assert np.array_equal(got[1], ref[1])


def _omega_limit_reference(T, x0, tol, max_iter):
    """The omega_limit loop as it stood before its stop was decided in one place."""
    cur = x0.coords
    prev = None
    kept = [(0, cur)]
    next_keep = 1
    d1 = math.inf
    d2 = math.inf
    outcome = Outcome("undecided", ())
    steps = 0
    for t in range(1, max_iter + 1):
        nxt = apply_array(T, cur)
        steps = t
        d1 = float(np.abs(nxt - cur).sum())
        d2 = float(np.abs(nxt - prev).sum()) if prev is not None else math.inf
        keep = t <= 100 or t >= next_keep
        if keep:
            kept.append((t, nxt))
            if t > 100:
                next_keep = max(t + 1, math.ceil(next_keep * 1.25))
            else:
                next_keep = max(next_keep, 101)
        if d1 <= tol:
            outcome = Outcome("fixed_point", (SimplexPoint(nxt),))
            if not keep:
                kept.append((t, nxt))
            prev, cur = cur, nxt
            break
        if d2 <= tol and d1 > 10.0 * tol:
            outcome = Outcome("two_cycle", (SimplexPoint(cur), SimplexPoint(nxt)))
            if not keep:
                kept.append((t, nxt))
            prev, cur = cur, nxt
            break
        prev, cur = cur, nxt
    else:
        if kept[-1][0] != steps:
            kept.append((steps, cur))
    return TrajectoryReport(x0, tuple((s, SimplexPoint(arr)) for s, arr in kept), steps,
                            outcome, (d1, d2))


# The (op, a) pairs of the benchmark's `simulate` calls, seeded starts on each,
# plus a fixed vertex and the edge start of a 2-cycle.
_ORBIT_STARTS = [(op_id, a, x0) for op_id, a in
                 ((13, 0.45), (28, 0.3), (25, 0.55), (4, 0.5), (13, 0.5))
                 for x0 in sample(3, 5, 2) + sample(3, 6, 2)]
_ORBIT_STARTS += [(4, 0.5, sample(3, 1, 2)[1]),  # a 2-cycle found at step 509
                  (13, 0.2, E2), (28, 0.3, SimplexPoint((0.0, 0.9, 0.1)))]


class TestOmegaLimitMatchesReference:
    @pytest.mark.parametrize("op_id,a,x0", _ORBIT_STARTS)
    def test_reports_equal(self, op_id, a, x0):
        T = operator_tensor(op_id, a)
        tol = 1e-6 if a == 0.5 else 1e-9  # the simulate defaults
        for max_iter in (1, 2, 100, 101, 126, 127, 128, 10 ** 5):
            got = omega_limit(T, x0, tol=tol, max_iter=max_iter).to_json_dict()
            assert got == _omega_limit_reference(T, x0, tol, max_iter).to_json_dict()

    def test_starts_reach_the_thinned_range(self):
        # Some orbits must run past step 128, so the kept steps 101, 127 and
        # 159 and the final step are all compared above.
        steps = [omega_limit(operator_tensor(op_id, a), x0,
                             tol=1e-6 if a == 0.5 else 1e-9).steps
                 for op_id, a, x0 in _ORBIT_STARTS]
        assert max(steps) > 390 and min(steps) == 1
        assert sum(s > 128 for s in steps) >= 6

    def test_kept_steps_follow_the_rule(self):
        report = omega_limit(operator_tensor(4, 0.5), sample(3, 1, 2)[1], tol=1e-9)
        kept = [s for s, _ in report.iterates_kept]
        rule = list(range(101)) + [101, 127, 159, 199, 249, 312, 390, 488, 610, 763]
        assert kept == [s for s in rule if s < report.steps] + [report.steps]


# ---------------------------------------------------------------------------
# Batched starts and exclusion against the per-point loop they replaced
# ---------------------------------------------------------------------------

def _curve_min_distance_reference(curve, arr):
    """The one-point distance to a curve as it stood before the rows were batched."""
    lo, hi = curve.lo, curve.hi
    if curve.straight:
        ends = curve.coords(np.array([lo, hi]))
        step = ends[1] - ends[0]
        moving = step != 0.0
        ts = lo + (hi - lo) * (arr[moving] - ends[0, moving]) / step[moving]
        pts = np.vstack((ends, curve.coords(np.clip(ts, lo, hi))))
        return float(np.abs(pts - arr).sum(axis=1).min())
    best = math.inf
    for _ in range(8):
        ts = np.linspace(lo, hi, 257)
        dists = np.abs(curve.coords(ts) - arr).sum(axis=1)
        i = int(np.argmin(dists))
        best = min(best, float(dists[i]))
        lo, hi = ts[max(i - 1, 0)], ts[min(i + 1, 256)]
    return best


def _min_l1_distance_reference(point_set, arr):
    best = math.inf
    for p in point_set.points:
        best = min(best, float(np.abs(p.coords - arr).sum()))
    for curve in point_set.curves:
        best = min(best, _curve_min_distance_reference(curve, arr))
    return best


def _excluded_reference(table, arr):
    if _min_l1_distance_reference(table.fixed, arr) <= EXCLUSION_RADIUS:
        return "fixed-point"
    if (not table.periodic2.is_empty
            and _min_l1_distance_reference(table.periodic2, arr) <= EXCLUSION_RADIUS):
        return "2-periodic"
    return None


def _draw_reference(branch, rng):
    """One draw of the per-point loop: a point of the branch's edge, or the
    first interior sample that satisfies the branch condition."""
    if branch.edge is not None:
        return _edge_points(branch.edge, rng.random())
    while True:
        p = sample_with_rng(3, rng, 1)[0]
        if branch.holds(p):
            return p


def _starts_reference(op_id, a, seeds, base_seed):
    """Per case of (op_id, a): the starts and target tuples of the per-point
    draw loop that verify_predictions ran before its starts were batched."""
    table = _limit_table(op_id, a, covered=True)
    out = []
    for case_idx, branch in enumerate(table.branches):
        rng = np.random.default_rng([base_seed, op_id, case_idx, int(round(a * 10 ** 9))])
        xs, targets = [], []
        while len(xs) < seeds:
            arr = _draw_reference(branch, rng)
            if _excluded_reference(table, arr) is None:
                xs.append(arr)
                x = SimplexPoint(arr).coords
                targets.append(tuple(t.point_at(float(x[0])) if isinstance(t, CurveFamily) else t
                                     for t in branch.targets))
        out.append((np.array(xs), targets))
    return out


def _report_reference(op_id, a, starts, base_seed, max_iter):
    """The verdicts the per-point loop built from `starts` (a prefix of
    `_starts_reference`), as a VerificationReport."""
    table = _limit_table(op_id, a, covered=True)
    T = operator_tensor(op_id, a)
    cases = []
    for branch, (xs, targets) in zip(table.branches, starts):
        tol = 1e-4 if branch.continuum else 1e-6
        steps, dists = _run_case(T, xs, branch.kind, targets, tol, max_iter)
        verdicts = tuple(
            PointVerdict(
                index=i,
                x0=tuple(float(v) for v in xs[i]),
                predicted=tuple(p.as_tuple() for p in targets[i]),
                prediction_kind=branch.kind,
                steps=int(steps[i]) if steps[i] >= 0 else None,
                distance=float(dists[i]),
                passed=bool(steps[i] >= 0),
            )
            for i in range(len(xs)))
        cases.append(CaseResult(branch.label, tol, max_iter, verdicts))
    return VerificationReport(op_id, float(a), len(starts[0][0]), base_seed, tuple(cases))


class TestBatchedStartsMatchReference:
    # max_iter = 16 leaves some orbits of the vertex cases undecided and lets others pass.
    @pytest.mark.parametrize("base_seed", [7, 11])
    @pytest.mark.parametrize("op_id,a", PREDICTED)
    def test_starts_targets_and_reports(self, op_id, a, base_seed):
        reference = _starts_reference(op_id, a, 2000, base_seed)
        for seeds in (1, 25, 2000):
            # The stream is screened in order, so every count takes the same leading rows.
            prefix = [(xs[:seeds], targets[:seeds]) for xs, targets in reference]
            (got,) = verify_predictions(op_id, (a,), seeds=seeds, base_seed=base_seed, max_iter=16)
            for case, (xs, targets) in zip(got.cases, prefix):
                assert np.array([v.x0 for v in case.verdicts]).tobytes() == xs.tobytes()
                want = np.array([[p.coords for p in pts] for pts in targets])
                assert np.array([v.predicted for v in case.verdicts]).tobytes() == want.tobytes()
            want = _report_reference(op_id, a, prefix, base_seed, 16)
            assert got.to_json_dict() == want.to_json_dict()

    def test_reports_mix_passed_and_undecided_orbits(self):
        (report,) = verify_predictions(13, (0.2,), seeds=25, base_seed=7, max_iter=16)
        steps = [v.steps for case in report.cases for v in case.verdicts]
        assert None in steps and any(s is not None for s in steps)

    def test_draw_stream_is_chunk_independent(self):
        # A start drawn one at a time equals the same start drawn in a chunk.
        for op_id, a in PREDICTED:
            for branch in _limit_table(op_id, a).branches:
                one, many = np.random.default_rng(5), np.random.default_rng(5)
                drawn = np.array([_draw_reference(branch, one) for _ in range(30)])
                chunk = branch.candidates(many, 400)
                assert drawn.tobytes() == chunk[branch.holds(chunk)][:30].tobytes()


class TestCaseColumns:
    # max_iter = 16 mixes passed and undecided orbits, as in TestBatchedStartsMatchReference.
    @pytest.mark.parametrize("op_id,a", PREDICTED)
    def test_rebuilt_from_verdicts(self, op_id, a):
        (got,) = verify_predictions(op_id, (a,), seeds=40, base_seed=7, max_iter=16)
        rebuilt = VerificationReport(got.op_id, got.a, got.seeds, got.base_seed, tuple(
            CaseResult(c.label, c.tol, c.max_iter, c.verdicts) for c in got.cases))
        assert rebuilt.to_json_dict() == got.to_json_dict()
        assert dumps(rebuilt.to_json_dict()) == dumps(got.to_json_dict())
        assert rebuilt == got and rebuilt.passed == got.passed

    @pytest.mark.parametrize("op_id,a", PREDICTED)
    def test_verdicts_read_the_columns(self, op_id, a):
        (got,) = verify_predictions(op_id, (a,), seeds=40, base_seed=7, max_iter=16)
        for case in got.cases:
            verdicts = case.verdicts
            assert np.array([v.x0 for v in verdicts]).tobytes() == case.x0.tobytes()
            assert np.array([v.predicted for v in verdicts]).tobytes() == case.predicted.tobytes()
            assert np.array([v.distance for v in verdicts]).tobytes() == case.distance.tobytes()
            assert [v.steps is None for v in verdicts] == (case.steps < 0).tolist()
            assert [v.steps for v in verdicts if v.steps is not None] == (
                case.steps[case.steps >= 0].tolist())
            assert [(v.index, v.prediction_kind, v.passed) for v in verdicts] == [
                (i, case.kind, s >= 0) for i, s in enumerate(case.steps.tolist())]

    def test_undecided_and_passed_both_occur(self):
        (got,) = verify_predictions(13, (0.2,), seeds=25, base_seed=7, max_iter=16)
        steps = np.concatenate([case.steps for case in got.cases])
        assert (steps < 0).any() and (steps >= 0).any() and not got.passed

    def test_columns_are_read_only(self):
        (case,) = verify_predictions(28, (0.3,), seeds=3)[0].cases[:1]
        for column in (case.x0, case.predicted, case.steps, case.distance):
            with pytest.raises(ValueError):
                column[0] = 0

    @pytest.mark.parametrize("change", [
        {"index": 2}, {"prediction_kind": "cycle"}, {"passed": False}, {"steps": None}])
    def test_rejects_inconsistent_verdicts(self, change):
        first = PointVerdict(0, (1.0, 0.0, 0.0), ((1.0, 0.0, 0.0),), "point", 3, 0.0, True)
        second = dataclasses.replace(first, index=1)
        assert CaseResult("c", 1e-6, 10, (first, second)).passed
        with pytest.raises(ValueError):
            CaseResult("c", 1e-6, 10, (first, dataclasses.replace(second, **change)))

    def test_rejects_columns_of_different_lengths(self):
        with pytest.raises(ValueError, match="^the columns of a case must share one length$"):
            CaseResult("c", 1e-6, 10, x0=[[1, 0, 0]], steps=[])

    def test_equal_cases_hash_equal(self):
        first = PointVerdict(0, (1.0, 0.0, 0.0), ((1.0, 0.0, 0.0),), "point", 3, 0.0, True)
        one, two = (CaseResult("c", 1e-6, 10, (first,)) for _ in range(2))
        assert one is not two and hash(one) == hash(two) and len({one, two}) == 1

    def test_cli_verify_builds_no_verdicts(self, capsys, monkeypatch):
        argv = ["verify", "--op", "28", "--a", "0.3", "--seeds", "200", "--seed", "7"]
        assert main(argv) == 0
        want = capsys.readouterr().out

        def refuse(*args, **kwargs):
            raise AssertionError("the verify command built a PointVerdict")

        monkeypatch.setattr(dynamics, "PointVerdict", refuse)
        assert main(argv) == 0
        assert capsys.readouterr().out == want


def _distance_rows(point_set, rng):
    """Uniform rows, rows on and near every curve and point of the set, vertices and edges."""
    rows = [rng.dirichlet((1.0, 1.0, 1.0), 40), np.eye(3), _edge_points(0, rng.random(5))]
    for curve in point_set.curves:
        on = curve.coords(rng.uniform(curve.lo, curve.hi, 10))
        rows += [on, np.abs(on + rng.normal(scale=1e-9, size=on.shape))]
    rows += [np.abs(p.coords + rng.normal(scale=1e-9, size=(5, 3))) for p in point_set.points]
    X = np.vstack(rows)
    return X / X.sum(axis=1, keepdims=True)


_POINT_SETS = [(op_id, a, name, getattr(_limit_table(op_id, a), name))
               for op_id, a in PREDICTED + [(4, 0.2)] for name in ("fixed", "periodic2")]


class TestBatchedDistanceMatchesOnePoint:
    @pytest.mark.parametrize("op_id,a,name,point_set", _POINT_SETS)
    def test_rows_match_single_calls(self, op_id, a, name, point_set):
        X = _distance_rows(point_set, np.random.default_rng([op_id, int(a * 10)]))
        batch = point_set.min_l1_distance(X)
        assert batch.shape == (X.shape[0],)
        single = np.array([point_set.min_l1_distance(x) for x in X])
        assert batch.tobytes() == single.tobytes()
        reference = np.array([_min_l1_distance_reference(point_set, x) for x in X])
        if all(c.straight for c in point_set.curves):
            assert batch.tobytes() == reference.tobytes()
        else:  # the op-4 slice curves are scanned: the exclusion decisions must agree
            assert np.array_equal(batch <= EXCLUSION_RADIUS, reference <= EXCLUSION_RADIUS)
            assert (batch <= EXCLUSION_RADIUS).any() and (batch > EXCLUSION_RADIUS).any()

    @pytest.mark.parametrize("op_id,a", PREDICTED + [(4, 0.2)])
    def test_excluded_mask_matches_single_calls(self, op_id, a):
        table = _limit_table(op_id, a)
        X = np.vstack([_distance_rows(table.fixed, np.random.default_rng(1)),
                       _distance_rows(table.periodic2, np.random.default_rng(2))])
        mask = table.excluded(X)
        assert mask.dtype == bool and mask.shape == (X.shape[0],)
        assert mask.tolist() == [_excluded_reference(table, x) is not None for x in X]
        assert [table.excluded(x) for x in X] == [_excluded_reference(table, x) for x in X]

    # d + (1e-9 - d) rounds to exactly 1e-9, so each row lies at EXCLUSION_RADIUS from its set
    _AT_RADIUS = 4503600 * 2.0 ** -53

    @pytest.mark.parametrize("op_id,row,name", [
        (13, (1.0 - _AT_RADIUS, 1e-9 - _AT_RADIUS, 0.0), "fixed-point"),   # next to e1
        (28, (0.0, 1.0 - _AT_RADIUS, 1e-9 - _AT_RADIUS), "2-periodic"),    # next to e2
    ])
    def test_a_point_at_the_radius_is_excluded(self, op_id, row, name):
        table, x = _limit_table(op_id, 0.3), np.array(row)
        point_set = table.fixed if name == "fixed-point" else table.periodic2
        assert point_set.min_l1_distance(x) == EXCLUSION_RADIUS
        assert table.excluded(x) == name
        assert table.excluded(x[None]).tolist() == [True]

    def test_simplex_rows_matches_the_constructor(self):
        rng = np.random.default_rng(3)
        X = np.vstack([sample_with_rng(3, rng, 500), _edge_points(1, rng.random(200)),
                       rng.dirichlet((0.5, 0.5, 0.5), 200) * (1.0 + 1e-10),
                       np.array([[-1e-13, 0.5, 0.5 + 1e-13], [-0.0, 0.25, 0.75]])])
        want = np.array([SimplexPoint(x).coords for x in X])
        assert simplex_rows(X).tobytes() == want.tobytes()
        for bad in ([[-1e-11, 0.5, 0.5]], [[0.2, 0.3, 0.5 + 1e-8]], [[math.nan, 0.5, 0.5]]):
            with pytest.raises(ValueError):
                SimplexPoint(bad[0])
            with pytest.raises(ValueError):
                simplex_rows(np.vstack([want[:3], bad]))


class TestEveryParameterCheckedFirst:
    def test_no_case_runs_before_a_bad_parameter_fails(self, monkeypatch, capsys):
        ran = []

        def fail(*args):
            ran.append(args)
            raise AssertionError("an orbit ran before every parameter was checked")

        monkeypatch.setattr(dynamics, "_run_case", fail)
        with pytest.raises(ValueError, match="no covered limit prediction"):
            verify_predictions(4, (0.5, 0.2), seeds=100)
        assert main(["verify", "--op", "4", "--a", "0.5,0.2", "--seeds", "100"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not ran


# Every integer count of the library, with the least value it accepts.
_COUNT_SITES = {
    "sample m": (lambda v: sample(v, 0, 1), "m", 2),
    "sample count": (lambda v: sample(3, 0, v), "count", 1),
    "sample seed": (lambda v: sample(3, v, 1), "seed", 0),
    "from_rows m": (lambda v: HeredityTensor.from_rows(v, {}), "m", 1),
    "omega_limit max_iter": (lambda v: omega_limit(operator_tensor(13, 0.2), E1, max_iter=v),
                             "max_iter", 1),
    "scalar_map_report max_iter": (lambda v: scalar_map_report(0.2, max_iter=v), "max_iter", 1),
    "verify_predictions seeds": (lambda v: verify_predictions(13, (0.2,), seeds=v), "seeds", 1),
    "verify_predictions max_iter": (lambda v: verify_predictions(13, (0.2,), seeds=2, max_iter=v),
                                    "max_iter", 1),
    "verify_predictions base_seed": (
        lambda v: verify_predictions(13, (0.2,), seeds=2, base_seed=v), "base_seed", 0),
    "fixed_points_numeric grid_n": (
        lambda v: fixed_points_numeric(operator_tensor(13, 0.2), grid_n=v), "grid_n", 10),
    "iterate n": (lambda v: iterate(operator_tensor(13, 0.2), E1, v), "n", 0),
    "vertex m": (lambda v: vertex(1, v), "m", 1),
    "PairPartition m": (lambda v: PairPartition(v, ()), "m", 1),
    "Permutation.identity m": (Permutation.identity, "m", 0),
    "Permutation.all_perms m": (Permutation.all_perms, "m", 0),
}

# Integer indices with an upper end: call, name in the message, low, high.
_RANGE_SITES = {
    "OperatorSpec case_one": (lambda v: OperatorSpec(v, 1, 0.3), "case_one", 1, 6),
    "OperatorSpec case_two": (lambda v: OperatorSpec(1, v, 0.3), "case_two", 1, 6),
    "OperatorSpec.from_id": (lambda v: OperatorSpec.from_id(v, 0.3), "operator id", 1, 36),
    "operator_tensor": (lambda v: operator_tensor(v, 0.3), "operator id", 1, 36),
    "vertex index": (lambda v: vertex(v, 3), "vertex index", 1, 3),
}


class TestIntegerCounts:
    @pytest.mark.parametrize("site", sorted(_COUNT_SITES))
    def test_non_integers_and_values_below_the_floor_fail(self, site):
        call, name, low = _COUNT_SITES[site]
        for bad in (math.nan, math.inf, -math.inf, 2.5, "3", low - 1):
            with pytest.raises(ValueError, match=f"need an integer {name} >= {low}, got "):
                call(bad)

    @pytest.mark.parametrize("site", sorted(_COUNT_SITES))
    def test_bools_fail(self, site):
        # bool is an Integral: without the check, max_iter=True would run one step
        call, name, low = _COUNT_SITES[site]
        for bad in (True, False):
            with pytest.raises(ValueError, match=f"need an integer {name} >= {low}, got {bad}"):
                call(bad)

    @pytest.mark.parametrize("site", sorted(_RANGE_SITES))
    def test_indices_off_the_integers_in_range_fail(self, site):
        call, name, low, high = _RANGE_SITES[site]
        for bad in (True, False, math.nan, math.inf, -math.inf, 2.5, "3", low - 1, high + 1):
            message = f"{name} must be {low}..{high}, got {bad!r}"
            with pytest.raises(ValueError, match=re.escape(message)):
                call(bad)
