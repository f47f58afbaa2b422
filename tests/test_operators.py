"""Tests for heredity tensors: application, validation, structure detection."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from qsodyn.catalog import CATALOG_PARTITION, operator_tensor, partition_structure_check
from qsodyn.dynamics import region_classify
from qsodyn.operators import (
    EllVolterraStructure,
    HeredityTensor,
    apply,
    apply_array,
    ell_volterra_structure,
    is_volterra,
    permuted_ell_volterra,
    relabel_outputs,
    structure_label,
    validate,
    volterra_coefficients,
)
from qsodyn.permutations import Permutation
from qsodyn.simplex import SimplexPoint, sample, support, vertex

from printed_forms import PRINTED_FORMS

DYADIC_A = (0.0, 0.25, 0.5, 0.75, 1.0)


class TestConstruction:
    def test_from_rows_symmetric(self):
        T = operator_tensor(13, 0.3)
        P = T.table
        assert np.array_equal(P.transpose(1, 0, 2), P)

    @pytest.mark.parametrize("row", [0.5, (0.5, 0.5, 0.0)], ids=["scalar", "three entries"])
    def test_from_rows_rejects_a_row_of_another_length(self, row):
        rows = {(1, 1): (1.0, 0.0), (1, 2): row, (2, 2): (0.0, 1.0)}
        with pytest.raises(ValueError, match=re.escape("row (1, 2) has wrong length")):
            HeredityTensor.from_rows(2, rows)

    def test_from_rows_missing(self):
        with pytest.raises(ValueError):
            HeredityTensor.from_rows(3, {(1, 1): (1, 0, 0)})

    def test_empty_tensor_rejected(self):
        with pytest.raises(ValueError):
            HeredityTensor.from_json('{"m": 0, "P": []}')
        with pytest.raises(ValueError):
            HeredityTensor(np.zeros((0, 0, 0)))

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            HeredityTensor(np.zeros((3, 3)))

    def test_equal_tables_hash_equal(self):
        # -0.0 == 0.0, so a table with -0.0 in place of each 0.0 is the same
        # tensor and must hash the same (hashing the bytes told them apart)
        T = operator_tensor(13, 0.3)
        U = HeredityTensor(np.where(T.table == 0.0, -0.0, T.table))
        assert np.signbit(U.table).any()
        assert T == U
        assert len({T, U}) == 1

    def test_repr_and_equality_with_other_types(self):
        T = operator_tensor(13, 0.3)
        assert repr(T) == "HeredityTensor(m=3)"
        assert T.__eq__(T.coeffs) is NotImplemented
        assert T != T.coeffs and T != "HeredityTensor(m=3)"

    def test_table_built_once_read_only(self):
        T = operator_tensor(13, 0.3)
        assert T.table is T.table
        assert not T.table.flags.writeable
        assert T.table.ravel().tolist() == list(T.coeffs)

    def test_nested_lists_and_ragged_input(self):
        T = operator_tensor(4, 0.3)
        assert HeredityTensor(T.table.tolist()) == T
        ragged = T.table.tolist()
        ragged[1][2] = ragged[1][2][:2]
        for bad in (ragged, 1.0, [[[1.0]], [[1.0]]], [[[[1.0]]]]):
            with pytest.raises(ValueError):
                HeredityTensor(bad)

    def test_json_round_trip(self):
        T = operator_tensor(7, 0.3)
        U = HeredityTensor.from_json(T.to_json())
        assert U == T

    @pytest.mark.parametrize("text", [
        "[]", "{}", '{"m": 1}', '{"P": [1]}', '"text"', "1", "null",
        '{"m": 1, "P": [1' + "0" * 400 + ']}',
        "[" * 100000 + "]" * 100000,
    ], ids=("list", "empty-object", "no-P", "no-m", "string", "number", "null",
            "P-huge-int", "deep-nesting"))
    def test_from_json_raises_value_error_on_other_text(self, text):
        with pytest.raises(ValueError):
            HeredityTensor.from_json(text)

    def test_json_round_trip_non_finite(self):
        T = HeredityTensor(np.array([np.nan, np.inf, -np.inf, 0.5] * 2).reshape(2, 2, 2))
        text = T.to_json()
        assert text == '{"m": 2, "P": [NaN, Infinity, -Infinity, 0.5, NaN, Infinity, -Infinity, 0.5]}'
        assert np.array_equal(HeredityTensor.from_json(text).table, T.table, equal_nan=True)


class TestApply:
    def test_hand_value_v13(self):
        # x1' = x1^2 + 2a x1(1-x1) etc. at a = 1/4 and the barycenter
        T = operator_tensor(13, 0.25)
        y = apply(T, SimplexPoint((1 / 3, 1 / 3, 1 / 3)))
        expect = (2 / 9, 1 / 3, 4 / 9)
        assert max(abs(u - v) for u, v in zip(y, expect)) < 1e-15

    def test_vertex_maps_to_diagonal_row(self):
        for op_id in (1, 13, 25, 30):
            T = operator_tensor(op_id, 0.3)
            for i in (1, 2, 3):
                y = apply(T, vertex(i, 3))
                assert np.allclose(y.coords, T.row(i, i), atol=1e-15)

    def test_preserves_simplex_on_catalog(self):
        rng_pts = sample(3, 42, 30)
        count = 0
        for op_id in range(1, 37):
            T = operator_tensor(op_id, 0.37)
            for x in rng_pts[: (1000 // 36) + 1]:
                y = apply(T, x)
                assert min(y) >= 0.0
                assert abs(sum(y) - 1.0) <= 1e-12
                count += 1
        assert count >= 1000

    def test_raw_output_sums_to_one(self):
        for op_id in (5, 19, 33):
            T = operator_tensor(op_id, 0.61)
            for x in sample(3, 8, 10):
                raw = apply_array(T, x.coords, renormalize=False)
                assert abs(raw.sum() - 1.0) <= 1e-14

    def test_matches_printed_forms_on_points(self):
        for op_id, fn in PRINTED_FORMS.items():
            for a in DYADIC_A:
                T = operator_tensor(op_id, a)
                for x in sample(3, op_id, 5):
                    direct = np.array(fn(tuple(x), a))
                    via_tensor = apply_array(T, x.coords, renormalize=False)
                    assert np.max(np.abs(direct - via_tensor)) <= 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply(operator_tensor(1, 0.3), SimplexPoint((0.5, 0.5)))


class TestValidate:
    def test_catalog_clean(self):
        for op_id in range(1, 37):
            for a in (0.0, 0.3, 1.0):
                assert validate(operator_tensor(op_id, a)).ok

    def test_negative_entry(self):
        P = operator_tensor(25, 0.3).table.copy()
        P[0, 1, 0] = -0.1
        P[1, 0, 0] = -0.1
        report = validate(HeredityTensor(P))
        kinds = {(v.kind, v.where) for v in report.violations}
        assert ("negative", (1, 2, 1)) in kinds

    def test_asymmetry(self):
        P = operator_tensor(25, 0.3).table.copy()
        P[0, 1, 2] += 0.25
        report = validate(HeredityTensor(P))
        assert any(v.kind == "asymmetric" for v in report.violations)

    def test_row_sum(self):
        P = operator_tensor(25, 0.3).table.copy()
        P[2, 2, 2] = 0.5
        report = validate(HeredityTensor(P))
        assert any(v.kind == "row_sum" and v.where == (3, 3) for v in report.violations)

    def test_non_finite(self):
        P = operator_tensor(25, 0.3).table.copy()
        P[0, 1, 2] = np.nan
        P[2, 0, 1] = np.inf
        report = validate(HeredityTensor(P))
        assert not report.ok
        non_finite = [v for v in report.violations if v.kind == "non_finite"]
        assert [v.where for v in non_finite] == [(1, 2, 3), (3, 1, 2)]
        assert report.describe()[0] == "P(1, 2, 3) = nan is not finite"

    def test_report_order_matches_entrywise_scan(self):
        # Reference: scan every entry in (i, j, k) order, one constraint at a time.
        rng = np.random.default_rng(5)
        P = operator_tensor(13, 0.3).table.copy()
        P[rng.random(P.shape) < 0.2] = -0.3
        P[1, 2, 0] += 0.125
        P[0, 0, 1] = np.nan
        m, tol = P.shape[0], 1e-12
        expected = [("non_finite", (i + 1, j + 1, k + 1), P[i, j, k])
                    for i in range(m) for j in range(m) for k in range(m)
                    if not np.isfinite(P[i, j, k])]
        expected += [("negative", (i + 1, j + 1, k + 1), P[i, j, k])
                     for i in range(m) for j in range(m) for k in range(m) if P[i, j, k] < -tol]
        expected += [("asymmetric", (i + 1, j + 1, k + 1), abs(P[i, j, k] - P[j, i, k]))
                     for i in range(m) for j in range(i + 1, m) for k in range(m)
                     if abs(P[i, j, k] - P[j, i, k]) > tol]
        sums = P.sum(axis=2)
        expected += [("row_sum", (i + 1, j + 1), sums[i, j])
                     for i in range(m) for j in range(m) if abs(sums[i, j] - 1.0) > tol]
        got = [(v.kind, v.where, v.value) for v in validate(HeredityTensor(P)).violations]
        assert len(got) == len(expected) > 4
        for (kind, where, value), (kind_e, where_e, value_e) in zip(got, expected):
            assert (kind, where) == (kind_e, where_e)
            assert value == value_e or (np.isnan(value) and np.isnan(value_e))


class TestVolterra:
    def test_v25_is_volterra(self):
        for a in (0.0, 0.3, 0.5, 1.0):
            assert is_volterra(operator_tensor(25, a))

    def test_v28_v13_are_not(self):
        assert not is_volterra(operator_tensor(28, 0.3))
        assert not is_volterra(operator_tensor(13, 0.3))

    def test_coefficients_v25(self):
        coeffs = volterra_coefficients(operator_tensor(25, 0.3))
        assert coeffs.entry(2, 3) == pytest.approx(2 * 0.3 - 1, abs=1e-15)
        assert coeffs.entry(2, 1) == pytest.approx(-1.0, abs=1e-15)
        for k in (1, 2, 3):
            for i in (1, 2, 3):
                assert coeffs.entry(k, i) + coeffs.entry(i, k) == pytest.approx(0.0, abs=1e-15)
                assert abs(coeffs.entry(k, i)) <= 1.0

    def test_coefficients_require_volterra(self):
        with pytest.raises(ValueError):
            volterra_coefficients(operator_tensor(28, 0.3))

    def test_canonical_form_reproduces_apply(self):
        # x'_k = x_k (1 + sum_i a_ki x_i) must equal the double sum
        for a in (0.1, 0.3, 0.7, 0.9):
            T = operator_tensor(25, a)
            coeffs = volterra_coefficients(T)
            for x in sample(3, 17, 20):
                arr = x.coords
                canonical = arr * (1.0 + coeffs.a @ arr)
                direct = apply_array(T, arr, renormalize=False)
                assert np.max(np.abs(canonical - direct)) <= 1e-14


class TestEllVolterra:
    def test_v13_structure(self):
        s = ell_volterra_structure(operator_tensor(13, 0.3))
        assert s.volterra_indices == {1, 2}
        assert s.ell == 2
        assert s.witnesses == {3: (1, 2)}
        assert operator_tensor(13, 0.3).row(1, 2)[2] == pytest.approx(0.7)

    def test_v25_full(self):
        s = ell_volterra_structure(operator_tensor(25, 0.3))
        assert s.volterra_indices == {1, 2, 3}
        assert s.ell == 3

    def test_v13_degenerate_parameter(self):
        # the outside cross term of coordinate 3 vanishes at a = 1
        s = ell_volterra_structure(operator_tensor(13, 1.0))
        assert s.volterra_indices == {1, 2, 3}

    def test_volterra_iff_ell_equals_m(self):
        for op_id in range(1, 37):
            T = operator_tensor(op_id, 0.3)
            assert is_volterra(T) == (ell_volterra_structure(T).ell == 3)

    def test_partial_canonical_form(self):
        # both branches: x'_k = x_k (1 + sum a_ki x_i) (+ outside cross terms)
        for op_id, a in ((13, 0.3), (13, 0.8), (4, 0.4)):
            T = operator_tensor(op_id, a)
            s = ell_volterra_structure(T)
            assert 1 <= s.ell < 3
            P = T.table
            amat = np.zeros((3, 3))
            for k in range(3):
                for i in range(3):
                    amat[k, i] = P[k, k, k] - 1.0 if i == k else 2.0 * P[i, k, k] - 1.0
            for x in sample(3, op_id, 15):
                arr = x.coords
                direct = apply_array(T, arr, renormalize=False)
                for k in range(3):
                    value = arr[k] * (1.0 + amat[k] @ arr)
                    if (k + 1) not in s.volterra_indices:
                        value += sum(
                            P[i, j, k] * arr[i] * arr[j]
                            for i in range(3) for j in range(3)
                            if i != k and j != k)
                    assert abs(value - direct[k]) <= 1e-14


class TestPermutedStructure:
    def test_v28_permuted_volterra(self):
        tau, s = permuted_ell_volterra(operator_tensor(28, 0.3))
        assert tau.cycle_string() == "(1)(2 3)"
        assert s.ell == 3

    def test_v4_permuted_partial(self):
        tau, s = permuted_ell_volterra(operator_tensor(4, 0.3))
        assert s.ell >= 2
        assert not tau.is_identity()

    def test_v25_identity(self):
        tau, s = permuted_ell_volterra(operator_tensor(25, 0.3))
        assert tau.is_identity()
        assert s.ell == 3

    def test_v7_none(self):
        assert permuted_ell_volterra(operator_tensor(7, 0.3)) is None

    def test_relabel_outputs_semantics(self):
        T = operator_tensor(28, 0.3)
        tau = Permutation((1, 3, 2))
        W = relabel_outputs(T, tau)
        for x in sample(3, 5, 10):
            v = apply_array(T, x.coords, renormalize=False)
            w = apply_array(W, x.coords, renormalize=False)
            for k in (1, 2, 3):
                assert w[k - 1] == pytest.approx(v[tau(k) - 1], abs=1e-15)

    def test_relabel_outputs_needs_a_permutation_of_the_same_size(self):
        with pytest.raises(ValueError, match="^permutation size mismatch$"):
            relabel_outputs(operator_tensor(28, 0.3), Permutation((2, 1)))

    def test_structure_labels(self):
        assert structure_label(operator_tensor(25, 0.3))["kind"] == "volterra"
        assert structure_label(operator_tensor(13, 0.3))["kind"] == "ell_volterra"
        assert structure_label(operator_tensor(28, 0.3))["kind"] == "permuted_volterra"
        assert structure_label(operator_tensor(4, 0.3))["kind"] == "permuted_ell_volterra"
        assert structure_label(operator_tensor(7, 0.3))["kind"] == "none"


# The Volterra scans as they stood before the single witness scan: one loop
# per question, and relabeled tensors for the permuted search.
def _is_volterra_reference(T, tol):
    P, m = T.table, T.m
    for k in range(m):
        for i in range(m):
            for j in range(m):
                if k != i and k != j and P[i, j, k] > tol:
                    return False
    return True


def _ell_volterra_reference(T, tol):
    P, m = T.table, T.m
    vol, wit = set(), {}
    for k in range(m):
        pair = None
        for i in range(m):
            if pair is not None:
                break
            for j in range(i, m):
                if i != k and j != k and P[i, j, k] > tol:
                    pair = (i + 1, j + 1)
                    break
        if pair is None:
            vol.add(k + 1)
        else:
            wit[k + 1] = pair
    return EllVolterraStructure(frozenset(vol), wit, len(vol))


def _permuted_reference(T, tol):
    best = None
    for tau in Permutation.all_perms(T.m):
        structure = _ell_volterra_reference(relabel_outputs(T, tau), tol)
        if best is None or structure.ell > best[1].ell:
            best = (tau, structure)
    if best is None or best[1].ell == 0:
        return None
    return best


class TestWitnessScanMatchesReference:
    @pytest.mark.parametrize("tol", [0.0, 1e-12, 0.4])
    def test_all_catalog_operators(self, tol):
        perms = Permutation.all_perms(3)
        found = set()
        for op_id in range(1, 37):
            for a in (0.0, 0.3, 0.5, 0.7, 1.0):
                T = operator_tensor(op_id, a)
                for tau in perms:
                    W = relabel_outputs(T, tau)
                    expected = _ell_volterra_reference(W, tol)
                    assert ell_volterra_structure(W, tol) == expected
                    assert is_volterra(W, tol) == _is_volterra_reference(W, tol)
                    found.add(expected.ell)
                expected = _permuted_reference(T, tol)
                assert permuted_ell_volterra(T, tol) == expected
                found.add(expected[1].ell if expected else None)
        assert found >= {0, 1, 2, 3, None}  # every ell occurs, and so does "no relabeling"


# Adversarial inputs to from_rows: it raises ValueError or returns a tensor that
# holds exactly the given rows, symmetric, and that `validate` never passes falsely.

_ADVERSARIAL = [math.nan, math.inf, -math.inf, 5e-324, -5e-324, 0.0, -0.0, -1e-11, 1.5, -1.0,
                1e308, 0.5, 1.0]
_entries = st.floats() | st.sampled_from(_ADVERSARIAL)
_sizes = st.integers(min_value=-2, max_value=3) | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.0, 2.5])


@st.composite
def _rows(draw):
    m = draw(_sizes)
    n = m if isinstance(m, int) and 1 <= m <= 3 else draw(st.integers(1, 3))
    key = draw(st.sampled_from([int, float]))  # 1.0 == 1 as a dict key
    rows = {(key(i), key(j)): tuple(draw(_entries) for _ in range(n))
            for i in range(1, n + 1) for j in range(i, n + 1)}
    return m, rows


class TestFromRowsAdversarial:
    @given(args=_rows())
    @example(args=(2, {(1.0, 1.0): (1.0, 0.0), (1.0, 2.0): (0.5, 0.5), (2.0, 2.0): (0.0, 1.0)}))
    @example(args=(2.0, {(1, 1): (1.0, 0.0), (1, 2): (0.5, 0.5), (2, 2): (0.0, 1.0)}))
    @example(args=(math.nan, {}))
    @example(args=(1, {(1, 1): (math.nan,)}))
    @example(args=(1, {("a", 1): (1.0,), (1, 1): (1.0,)}))  # keys that do not sort together
    def test_rejects_or_holds_the_rows(self, args):
        m, rows = args
        try:
            T = HeredityTensor.from_rows(m, rows)
        except ValueError:
            return
        P = T.table
        assert T.m == m and P.shape == (m, m, m)
        for (i, j), row in rows.items():
            want = np.array(row, dtype=float)
            assert P[int(i) - 1, int(j) - 1].tobytes() == want.tobytes()
            assert P[int(j) - 1, int(i) - 1].tobytes() == want.tobytes()
        with np.errstate(invalid="ignore", over="ignore"):
            report = validate(T)
        sound = (np.all(np.isfinite(P)) and np.all(P >= -1e-12)
                 and np.all(np.abs(P.sum(axis=2) - 1.0) <= 1e-12))
        assert report.ok == bool(sound)
        if not np.all(np.isfinite(P)):
            assert any(v.kind == "non_finite" for v in report.violations)


# Every function that compares with a zero threshold `tol`: each answered falsely at a
# NaN or infinite tol (e.g. validate(T, nan).ok was True for a negative coefficient).
_TOL_SITES = {
    "validate": lambda tol: validate(operator_tensor(13, 0.3), tol),
    "is_volterra": lambda tol: is_volterra(operator_tensor(13, 0.3), tol),
    "ell_volterra_structure": lambda tol: ell_volterra_structure(operator_tensor(13, 0.3), tol),
    "permuted_ell_volterra": lambda tol: permuted_ell_volterra(operator_tensor(28, 0.3), tol),
    "structure_label": lambda tol: structure_label(operator_tensor(13, 0.3), tol),
    "partition_structure_check": lambda tol: partition_structure_check(
        operator_tensor(13, 0.3), CATALOG_PARTITION, tol),
    "region_classify": lambda tol: region_classify(SimplexPoint((0.0, 0.5, 0.5)), tol),
    "support": lambda tol: support(SimplexPoint((0.0, 0.5, 0.5)), tol),
}


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0])
@pytest.mark.parametrize("site", sorted(_TOL_SITES))
def test_tolerance_must_be_finite_and_non_negative(site, tol):
    with pytest.raises(ValueError, match="tol must be finite and >= 0"):
        _TOL_SITES[site](tol)


@pytest.mark.parametrize("site", sorted(_TOL_SITES))
def test_zero_tolerance_is_allowed(site):
    _TOL_SITES[site](0.0)
