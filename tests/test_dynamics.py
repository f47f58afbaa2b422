"""Tests for orbits, closed forms, exact limit sets, the numeric oracle,
and the limit-prediction verifier."""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from qsodyn.catalog import operator_tensor
from qsodyn.dynamics import (
    ANALYZED_OPS,
    CYCLE_PARAM_SUP,
    PointSet,
    _limit_table,
    _run_case,
    edge_fixed_height,
    fixed_points_exact,
    fixed_points_numeric,
    iterate,
    limit_prediction,
    omega_limit,
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
from qsodyn.operators import apply, apply_array
from qsodyn.simplex import SimplexPoint, l1_distance, sample, vertex

E1, E2, E3 = vertex(1, 3), vertex(2, 3), vertex(3, 3)
GOLDEN_CONJ = (3 - math.sqrt(5)) / 2  # 0.381966...


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

    def test_exclusion_respected(self):
        (report,) = verify_predictions(28, (0.3,), seeds=25)
        fixed = fixed_points_exact(28, 0.3)
        per2 = periodic2_exact(28, 0.3)
        for case in report.cases:
            for verdict in case.verdicts:
                arr = np.array(verdict.x0)
                assert fixed.min_l1_distance(arr) > 1e-9
                assert per2.min_l1_distance(arr) > 1e-9


# Every (operator, regime) whose table carries predictions; operator 4 has
# none below 1/2.
PREDICTED = [(op_id, a) for op_id in ANALYZED_OPS for a in (0.2, 0.5, 0.8)
             if (op_id, a) != (4, 0.2)]


class TestRegime:
    def test_values(self):
        assert [regime(a) for a in (0.0, 0.2, 0.5, 0.8, 1.0)] == [
            "below", "below", "balanced", "above", "above"]

    @pytest.mark.parametrize("a", [-0.1, 1.1, float("nan"), float("inf")])
    def test_rejects_outside_unit_interval(self, a):
        with pytest.raises(ValueError):
            regime(a)


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
        X0 = np.array([branch.draw(rng) for _ in range(rows)])
        targets = [branch.target(x) for x in X0]
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
