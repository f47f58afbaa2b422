"""The structure layer on Python floats against its numpy forms in numpy_reference.py.

Every result must equal the reference's: the same violations in the same
order with bit-equal values, the same witnesses, permutations, classes and
rendered text. Floats are compared by their bytes, so -0.0 and 0.0 differ.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import numpy_reference as ref
from qsodyn import catalog, operators
from qsodyn.catalog import pair_partitions
from qsodyn.operators import HeredityTensor
from qsodyn.permutations import Permutation


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _violations(report):
    return [(v.kind, v.where, _bits(v.value)) for v in report.violations]


def _coeff_bits(T: HeredityTensor) -> bytes:
    return T.table.tobytes()


def assert_structure_layer_matches(T: HeredityTensor, tols=(0.0, 1e-12, 0.3)) -> None:
    """Every structure function of T equals its numpy reference."""
    assert _coeff_bits(T) == np.array(T.coeffs).tobytes()
    for tol in tols:
        assert _violations(operators.validate(T, tol)) == _violations(ref.validate(T, tol))
        assert operators.ell_volterra_structure(T, tol) == ref.ell_volterra_structure(T, tol)
        if T.m <= 6:  # the permuted scans visit all m! relabelings
            assert operators.permuted_ell_volterra(T, tol) == ref.permuted_ell_volterra(T, tol)
    assert catalog.polynomial_text(T) == ref.polynomial_text(T)
    partitions = list(pair_partitions()) if T.m == 3 else []
    if T.m >= 2:  # the one-block partition exists for every m >= 2
        pairs = frozenset((i, j) for i in range(1, T.m + 1) for j in range(i + 1, T.m + 1))
        partitions.append(catalog.PairPartition(T.m, (pairs,)))
    for partition in partitions:
        assert (catalog.partition_structure_check(T, partition)
                == ref.partition_structure_check(T, partition))
    if T.m <= 5:
        for p in Permutation.all_perms(T.m):
            assert _coeff_bits(catalog.conjugate(T, p)) == _coeff_bits(ref.conjugate(T, p))
            assert (_coeff_bits(operators.relabel_outputs(T, p))
                    == _coeff_bits(ref.relabel_outputs(T, p)))


# ---------------------------------------------------------------------------
# The catalog at the degenerate parameters, just off them, and swept
# ---------------------------------------------------------------------------

NEAR_ROOTS = sorted({min(1.0, max(0.0, root + off)) for root in catalog.DEGENERATE_PARAMS
                     for off in (0.0, -1e-13, 1e-13, -1e-11, 1e-11)})


def _assert_catalog_matches(a: float) -> None:
    for merge_mirror in (True, False):
        assert (catalog.classify_catalog(a, merge_mirror=merge_mirror)
                == ref.classify_catalog(a, merge_mirror=merge_mirror))
    tensors = [catalog.operator_tensor(n, a) for n in range(1, 37)]
    mirrored = [catalog.operator_tensor(n, 1.0 - a) for n in range(1, 37)]
    for T in tensors:
        assert_structure_layer_matches(T, tols=(catalog.ZERO_TOL,))
        for U in tensors + mirrored:
            assert catalog.are_conjugate(T, U) == ref.are_conjugate(T, U)


@pytest.mark.parametrize("a", NEAR_ROOTS)
def test_catalog_near_degenerate_parameters(a):
    _assert_catalog_matches(a)


@given(a=st.floats(0.0, 1.0))
def test_classify_swept_parameter(a):
    for merge_mirror in (True, False):
        assert (catalog.classify_catalog(a, merge_mirror=merge_mirror)
                == ref.classify_catalog(a, merge_mirror=merge_mirror))


@settings(max_examples=15)  # each example checks all 36 operators
@given(a=st.floats(0.0, 1.0))
def test_structure_swept_parameter(a):
    for n in range(1, 37):
        assert_structure_layer_matches(catalog.operator_tensor(n, a), tols=(catalog.ZERO_TOL,))


@pytest.mark.parametrize("tol", [0.0, 0.2, 0.6, 1.0])
@pytest.mark.parametrize("a", [0.0, 0.3, 0.5])
def test_classify_at_wide_tolerances(a, tol):
    for merge_mirror in (True, False):
        assert (catalog.classify_catalog(a, tol, merge_mirror)
                == ref.classify_catalog(a, tol, merge_mirror))


# ---------------------------------------------------------------------------
# Random tensors with defects
# ---------------------------------------------------------------------------

_DEFECTS = (math.nan, math.inf, -math.inf, -0.3, -0.0, -1e-13, 5e-324, 1e308, 2.0)


def _random_tensor(m: int, rng: np.random.Generator) -> HeredityTensor:
    """A sparse stochastic tensor with some entries replaced by defects and some
    symmetric partners broken."""
    P = rng.random((m, m, m)) * (rng.random((m, m, m)) < 0.5)
    P = (P + P.transpose(1, 0, 2)) / 2.0
    sums = P.sum(axis=2, keepdims=True)
    P = np.divide(P, sums, out=np.zeros_like(P), where=sums > 0)
    hit = rng.random((m, m, m)) < 0.1
    P[hit] = rng.choice(_DEFECTS, size=int(hit.sum()))
    skew = rng.random((m, m, m)) < 0.05
    P[skew] += rng.choice((1e-13, 1e-3, 0.25), size=int(skew.sum()))
    return HeredityTensor(P)


@pytest.mark.parametrize("m", range(1, 13))
def test_random_tensors(m):
    rng = np.random.default_rng(1000 + m)
    for _ in range(12):
        T = _random_tensor(m, rng)
        with np.errstate(invalid="ignore", over="ignore"):
            assert_structure_layer_matches(T)
            U = _random_tensor(m, rng)
            got, want = catalog.coefficient_distance(T, U), ref.coefficient_distance(T, U)
            assert _bits(got) == _bits(want) or math.isnan(got) and math.isnan(want)
            if m <= 5:
                p = Permutation(tuple(rng.permutation(m) + 1))
                for tol in (0.0, 1e-12, 0.5):
                    for V in (U, catalog.conjugate(T, p)):
                        assert catalog.are_conjugate(T, V, tol) == ref.are_conjugate(T, V, tol)


def test_random_defects_reach_every_kind():
    """The random tensors reach every violation kind, and on 3x3x3 tables the
    partition checks agree with the reference on each kind."""
    kinds = set()
    rng = np.random.default_rng(7)
    for m in range(1, 13):
        for _ in range(200 if m == 3 else 12):
            T = _random_tensor(m, rng)
            kinds |= {v.kind for v in operators.validate(T).violations}
            for partition in pair_partitions() if m == 3 else ():
                report = catalog.partition_structure_check(T, partition)
                assert report == ref.partition_structure_check(T, partition)
                kinds |= {v.kind for v in report.violations}
    assert kinds == {"non_finite", "negative", "asymmetric", "row_sum", "within_block",
                     "across_blocks", "diagonal_not_vertex", "diagonal_duplicate"}


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 15, 16, 17, 127, 128, 129, 135, 136, 300])
def test_row_sum_is_numpys(n):
    """Left to right below 8 terms, eight partial sums from 8 on, halves above 128."""
    rng = np.random.default_rng(n)
    for _ in range(200):
        row = rng.standard_normal(n) * 10.0 ** rng.integers(-17, 17, n)
        hit = rng.random(n) < 0.2
        row[hit] = rng.choice((-0.0, 0.0, 1e308, -1e308), size=int(hit.sum()))
        with np.errstate(invalid="ignore", over="ignore"):
            want = np.add.reduce(row)
        assert _bits(operators._row_sum(row.tolist())) == _bits(float(want))
    assert _bits(operators._row_sum([-0.0] * n)) == _bits(float((-np.zeros(n)).sum()))
