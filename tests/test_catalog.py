"""Tests for the 36-operator catalog, partitions, conjugation, classification."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qsodyn.catalog import (
    CATALOG_PARTITION,
    OperatorSpec,
    PairPartition,
    REFERENCE_CLASSES,
    _CODES,
    _relabeling,
    are_conjugate,
    build_operator,
    classes_fixed_parameter,
    classify_catalog,
    coefficient_distance,
    conjugate,
    matches_reference,
    operator_tensor,
    pair_partitions,
    partition_stabilizer,
    partition_structure_check,
    polynomial_text,
)
from qsodyn.operators import HeredityTensor, apply_array
from qsodyn.permutations import Permutation
from qsodyn.simplex import sample

from printed_forms import PRINTED_FORMS, quad_coefficients

DYADIC_A = (0.0, 0.25, 0.5, 0.75, 1.0)
SWAP23 = Permutation((1, 3, 2))
SWAP12 = Permutation((2, 1, 3))
SWAP13 = Permutation((3, 2, 1))


class TestPartitions:
    def test_printed_list(self):
        parts = pair_partitions()
        assert len(parts) == 5
        assert [len(p.blocks) for p in parts] == [3, 2, 2, 2, 1]
        f = frozenset
        assert set(parts[1].blocks) == {f({(2, 3)}), f({(1, 2), (1, 3)})}
        assert set(parts[4].blocks) == {f({(1, 2), (1, 3), (2, 3)})}

    def test_blocks_cover_pairs(self):
        all_pairs = {(1, 2), (1, 3), (2, 3)}
        for p in pair_partitions():
            union = set()
            for block in p.blocks:
                union |= block
            assert union == all_pairs

    def test_invalid_partition(self):
        f = frozenset
        with pytest.raises(ValueError):
            PairPartition(3, (f({(1, 2)}), f({(1, 2), (1, 3), (2, 3)})))
        with pytest.raises(ValueError):
            PairPartition(3, (f({(1, 2)}),))

    def test_empty_block(self):
        f = frozenset
        with pytest.raises(ValueError, match="^blocks overlap or one is empty$"):
            PairPartition(3, (f(), f({(1, 2), (1, 3), (2, 3)})))

    def test_more_blocks_than_indices(self):
        singletons = tuple(frozenset({(i, j)}) for i in range(1, 5) for j in range(i + 1, 5))
        with pytest.raises(ValueError, match="^more blocks than indices$"):
            PairPartition(4, singletons)

    def test_printed_form(self):
        assert str(CATALOG_PARTITION) == "{{(2,3)}, {(1,2), (1,3)}}"
        assert [str(p) for p in pair_partitions()] == [
            "{{(1,2)}, {(1,3)}, {(2,3)}}", "{{(2,3)}, {(1,2), (1,3)}}",
            "{{(1,3)}, {(1,2), (2,3)}}", "{{(1,2)}, {(1,3), (2,3)}}", "{{(1,2), (1,3), (2,3)}}"]


# A valid tensor on the 1-simplex, against the catalog's m = 3.
M2 = HeredityTensor.from_rows(2, {(1, 1): (1.0, 0.0), (1, 2): (0.5, 0.5), (2, 2): (0.0, 1.0)})


@pytest.mark.parametrize("call,message", [
    (lambda: partition_structure_check(M2, CATALOG_PARTITION), "partition size mismatch"),
    (lambda: conjugate(operator_tensor(13, 0.3), Permutation((2, 1))), "permutation size mismatch"),
    (lambda: coefficient_distance(M2, operator_tensor(13, 0.3)), "dimension mismatch"),
    (lambda: are_conjugate(M2, operator_tensor(13, 0.3)), "dimension mismatch"),
], ids=["partition_structure_check", "conjugate", "coefficient_distance", "are_conjugate"])
def test_sizes_must_agree(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


class TestBuildOperator:
    def test_id_mapping_round_trip(self):
        for op_id in range(1, 37):
            spec = OperatorSpec.from_id(op_id, 0.5)
            assert spec.op_id == op_id
            assert 1 <= spec.case_one <= 6
            assert 1 <= spec.case_two <= 6

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            OperatorSpec(0, 1, 0.5)
        with pytest.raises(ValueError):
            OperatorSpec(1, 7, 0.5)
        with pytest.raises(ValueError):
            OperatorSpec(1, 1, 1.5)
        with pytest.raises(ValueError):
            OperatorSpec.from_id(37, 0.5)

    @pytest.mark.parametrize("op_id", [math.nan, math.inf, -math.inf, 2.5, "3", 0, 37])
    def test_ids_off_the_integers_1_to_36(self, op_id):
        with pytest.raises(ValueError, match=r"operator id must be 1\.\.36"):
            OperatorSpec.from_id(op_id, 0.3)
        with pytest.raises(ValueError, match=r"operator id must be 1\.\.36"):
            operator_tensor(op_id, 0.3)

    @pytest.mark.parametrize("case", [math.nan, math.inf, 2.5, "3", 0, 7])
    def test_cases_off_the_integers_1_to_6(self, case):
        with pytest.raises(ValueError, match=r"case_one must be 1\.\.6"):
            OperatorSpec(case, 1, 0.3)
        with pytest.raises(ValueError, match=r"case_two must be 1\.\.6"):
            OperatorSpec(1, case, 0.3)

    def test_all_builds_match_printed_coefficients(self):
        # every case pair expands to the written polynomial system, exactly
        for op_id, fn in PRINTED_FORMS.items():
            for a in DYADIC_A:
                T = operator_tensor(op_id, a)
                M = quad_coefficients(fn, a)
                for i in range(3):
                    for j in range(3):
                        for k in range(3):
                            assert T.table[i, j, k] == M[i][j][k], (op_id, a, i, j, k)

    def test_spot_rows_v25(self):
        T = operator_tensor(25, 0.3)
        assert tuple(T.row(1, 2)) == (1.0, 0.0, 0.0)
        assert tuple(T.row(2, 3)) == (0.0, 0.3, 0.7)

    def test_polynomial_text_renders(self):
        lines = polynomial_text(operator_tensor(13, 0.25))
        assert len(lines) == 3
        assert lines[0].startswith("x1' = ")
        assert "x1^2" in lines[0]


# The float row tables and row dict that the coefficient codes replaced, kept as the reference.
_E1, _E2, _E3 = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)
_REFERENCE_DIAG = ((_E1, _E2, _E3), (_E2, _E1, _E3), (_E3, _E2, _E1),
                   (_E1, _E3, _E2), (_E3, _E1, _E2), (_E2, _E3, _E1))


def _reference_tensor(op_id, a):
    """Rows (1,2), (1,3), (2,3) of the off-diagonal case, vertex rows of the diagonal case."""
    case_one, case_two = divmod(op_id - 1, 6)
    pa, pb, pc = (a, 1.0 - a, 0.0), (0.0, a, 1.0 - a), (a, 0.0, 1.0 - a)
    off_diag = ((pa, pa, _E3), (pb, pb, _E1), (pc, pc, _E2),
                (_E3, _E3, pa), (_E1, _E1, pb), (_E2, _E2, pc))[case_one]
    rows = dict(zip(((1, 2), (1, 3), (2, 3)), off_diag))
    rows.update(((i, i), row) for i, row in enumerate(_REFERENCE_DIAG[case_two], start=1))
    return HeredityTensor.from_rows(3, rows)


def _assert_matches_reference(a):
    for op_id in range(1, 37):
        got = operator_tensor(op_id, a).coeffs
        assert all(type(v) is float for v in got), (op_id, a)
        # float.hex tells the zeros apart: the signed zeros must match too
        assert list(map(float.hex, got)) == list(map(float.hex, _reference_tensor(op_id, a).coeffs))


_HALF_NEIGHBOURS = (math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0))
_SPECIAL_A = (0.0, 1.0, 0.5, *_HALF_NEIGHBOURS, 5e-324, 3 * 5e-324, 1.0 - 2.0 ** -53,
              sys.float_info.min, 0, 1, True, False)


class TestCodesMatchRowTables:
    @pytest.mark.parametrize("a", _SPECIAL_A)
    def test_special_values(self, a):
        _assert_matches_reference(a)
        _assert_matches_reference(np.float64(a))

    def test_seeded_draws(self):
        rng = np.random.default_rng(2024)
        for a in (*rng.random(200).tolist(), *(rng.random(50) * 1e-300).tolist()):
            _assert_matches_reference(a)

    # -0.0 is left out: the catalog reads it as 0.0 (TestNegativeZero)
    @given(a=st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 1e-300)).filter(
        lambda a: math.copysign(1.0, a) > 0), as_numpy=st.booleans())
    def test_sweep(self, a, as_numpy):
        _assert_matches_reference(np.float64(a) if as_numpy else a)


class TestNegativeZero:
    def test_spec_reads_minus_zero_as_zero(self):
        spec = OperatorSpec(1, 1, -0.0)
        assert math.copysign(1.0, spec.a) == 1.0
        for op_id in range(1, 37):
            text = operator_tensor(op_id, -0.0).to_json()
            assert text == operator_tensor(op_id, 0.0).to_json() and "-0" not in text


def _exact_classes(mirror):
    """Classes from exact links between the code tables: relabeling permutes an entry's
    27 codes, and the mirror a -> 1 - a swaps codes 2 and 3."""
    entry = {codes: n for n, codes in enumerate(_CODES, start=1)}
    swaps = ((0, 1, 2, 3), (0, 1, 3, 2)) if mirror else ((0, 1, 2, 3),)
    edges = []
    for n, codes in enumerate(_CODES, start=1):
        for p in Permutation.all_perms(3):
            relabeled = [codes[i] for i in _relabeling(p)]
            edges += [(n, entry[k]) for k in (tuple(s[c] for c in relabeled) for s in swaps)
                      if k in entry]
    return _reference_classes_from_edges(edges)


class TestExactClassEvidence:
    def test_codes_are_distinct(self):
        assert len(set(_CODES)) == 36
        assert all(len(codes) == 27 and set(codes) <= {0, 1, 2, 3} for codes in _CODES)

    def test_mirror_links_give_the_reference_classes(self):
        classes = _exact_classes(mirror=True)
        assert len(classes) == 20 and matches_reference(classes)

    def test_same_parameter_links_give_the_strict_classes(self):
        classes = _exact_classes(mirror=False)
        assert len(classes) == 24 and classes == classes_fixed_parameter(0.3)


class TestStructureCheck:
    def test_v13_passes_catalog_partition(self):
        report = partition_structure_check(operator_tensor(13, 0.3), CATALOG_PARTITION)
        assert report.passed
        assert report.diagonal_permutation.is_identity()

    def test_v13_fails_point_partition(self):
        report = partition_structure_check(operator_tensor(13, 0.3), pair_partitions()[0])
        assert not report.passed
        assert any(v.kind == "across_blocks" for v in report.violations)

    def test_duplicate_diagonal_fails(self):
        rows = {
            (1, 2): (0.3, 0.0, 0.7), (1, 3): (0.3, 0.0, 0.7), (2, 3): (0.0, 1.0, 0.0),
            (1, 1): (1.0, 0.0, 0.0), (2, 2): (1.0, 0.0, 0.0), (3, 3): (0.0, 0.0, 1.0),
        }
        report = partition_structure_check(HeredityTensor.from_rows(3, rows), CATALOG_PARTITION)
        assert not report.passed
        assert any(v.kind == "diagonal_duplicate" for v in report.violations)

    def test_non_vertex_diagonal_fails(self):
        rows = {
            (1, 2): (0.3, 0.0, 0.7), (1, 3): (0.3, 0.0, 0.7), (2, 3): (0.0, 1.0, 0.0),
            (1, 1): (0.5, 0.5, 0.0), (2, 2): (0.0, 1.0, 0.0), (3, 3): (0.0, 0.0, 1.0),
        }
        report = partition_structure_check(HeredityTensor.from_rows(3, rows), CATALOG_PARTITION)
        assert not report.passed
        assert any(v.kind == "diagonal_not_vertex" for v in report.violations)

    def test_all_catalog_operators_pass(self):
        for op_id in range(1, 37):
            for tenth in range(1, 10):
                T = operator_tensor(op_id, tenth / 10)
                assert partition_structure_check(T, CATALOG_PARTITION).passed


class TestConjugation:
    def test_v1_swap_gives_v13(self):
        for a in (0.0, 0.3, 0.8, 1.0):
            Q = conjugate(operator_tensor(1, a), SWAP23)
            assert coefficient_distance(Q, operator_tensor(13, a)) == 0.0

    def test_identity_and_inverse(self):
        T = operator_tensor(22, 0.41)
        assert conjugate(T, Permutation.identity(3)) == T
        for p in Permutation.all_perms(3):
            assert conjugate(conjugate(T, p), p.inverse()) == T

    def test_group_action(self):
        # (T^q)^p == T^(q o p) with (q o p)(i) = q(p(i))
        T = operator_tensor(11, 0.37)
        for p in Permutation.all_perms(3):
            for q in Permutation.all_perms(3):
                lhs = conjugate(conjugate(T, q), p)
                rhs = conjugate(T, q.compose(p))
                assert coefficient_distance(lhs, rhs) == 0.0

    def test_functional_identity(self):
        # apply(T^p, p(x)) == p(apply(T, x)) for the coordinate map p(x)_i = x_{p(i)}
        T = operator_tensor(13, 0.3)
        pts = sample(3, 31, 10)
        for p in Permutation.all_perms(3):
            Q = conjugate(T, p)
            for x in pts:
                lhs = apply_array(Q, p.permute_vector(x.coords), renormalize=False)
                rhs = p.permute_vector(apply_array(T, x.coords, renormalize=False))
                assert np.max(np.abs(lhs - rhs)) <= 1e-15

    def test_are_conjugate_examples(self):
        found = are_conjugate(operator_tensor(1, 0.3), operator_tensor(13, 0.3))
        assert found is not None and found.cycle_string() == "(1)(2 3)"
        assert are_conjugate(operator_tensor(7, 0.3), operator_tensor(10, 0.3)) is None
        T = operator_tensor(19, 0.3)
        assert are_conjugate(T, T).is_identity()

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-300])
    def test_tolerance_outside_range_is_rejected(self, tol):
        T = operator_tensor(13, 0.3)
        with pytest.raises(ValueError, match="tol"):
            are_conjugate(T, T, tol=tol)
        with pytest.raises(ValueError, match="tol"):
            classify_catalog(0.3, tol=tol)
        with pytest.raises(ValueError, match="tol"):
            classes_fixed_parameter(0.3, tol=tol)

    def test_are_conjugate_symmetric_and_transitive(self):
        a = 0.3
        tensors = {n: operator_tensor(n, a) for n in range(1, 37)}
        related = {}
        for n in range(1, 37):
            for m in range(1, 37):
                p = are_conjugate(tensors[n], tensors[m])
                if p is not None:
                    related[(n, m)] = p
        for (n, m), p in related.items():
            assert (m, n) in related  # symmetry via the inverse permutation
            assert coefficient_distance(
                conjugate(tensors[m], p.inverse()), tensors[n]) <= 1e-12
        for (n, m) in related:
            for (m2, k) in related:
                if m2 == m:
                    assert (n, k) in related  # transitivity via composition


class TestClassification:
    def test_reference_classes_partition(self):
        members = sorted(n for c in REFERENCE_CLASSES for n in c)
        assert members == list(range(1, 37))
        assert len(REFERENCE_CLASSES) == 20

    @pytest.mark.parametrize("a", (0.1, 0.3, 0.7, 0.9))
    def test_matches_reference(self, a):
        classes = classify_catalog(a)
        assert len(classes) == 20
        assert matches_reference(classes)

    def test_fixed_parameter_splits_mirror_pairs(self):
        classes = classes_fixed_parameter(0.3)
        assert len(classes) == 24
        as_sets = {frozenset(c) for c in classes}
        # the four reference pairs that only match across mirrored parameters
        for pair in ({8, 9}, {11, 12}, {26, 27}, {29, 30}):
            assert frozenset(pair) not in as_sets
            for n in pair:
                assert frozenset({n}) in as_sets
        # all other reference classes survive unchanged
        for ref in REFERENCE_CLASSES:
            if ref not in ({8, 9}, {11, 12}, {26, 27}, {29, 30}):
                assert ref in as_sets


def _reference_are_conjugate(T1, T2, tol=1e-12):
    """The per-permutation loop that are_conjugate replaced."""
    for p in Permutation.all_perms(T1.m):
        if coefficient_distance(conjugate(T1, p), T2) <= tol:
            return p
    return None


def _reference_classes_from_edges(edges):
    parent = list(range(37))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for n, m_ in edges:
        rn, rm = find(n), find(m_)
        if rn != rm:
            parent[max(rn, rm)] = min(rn, rm)
    groups = {}
    for n in range(1, 37):
        groups.setdefault(find(n), []).append(n)
    return sorted(tuple(sorted(v)) for v in groups.values())


def _reference_classify(a, tols, merge_mirror):
    """The triple loop and union-find that classify_catalog replaced, per tol in tols."""
    tensors = {n: operator_tensor(n, a) for n in range(1, 37)}
    mirrored = {n: operator_tensor(n, 1.0 - a) for n in range(1, 37)} if merge_mirror else {}
    edges = {tol: [] for tol in tols}
    for n in range(1, 37):
        for p in Permutation.all_perms(3):
            Q = conjugate(tensors[n], p)
            for m_ in range(1, 37):
                same = coefficient_distance(Q, tensors[m_])
                mirror = coefficient_distance(Q, mirrored[m_]) if merge_mirror else None
                for tol in tols:
                    if same <= tol:
                        edges[tol].append((n, m_))
                    elif merge_mirror and mirror <= tol:
                        edges[tol].append((n, m_))
    return {tol: _reference_classes_from_edges(e) for tol, e in edges.items()}


class TestAgainstLoopReference:
    # tol from 0.2 to 0.9 links entries by chains that need more than one
    # squaring of the adjacency matrix to close
    @pytest.mark.parametrize("a", (0.0, 1e-13, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0))
    @pytest.mark.parametrize("merge_mirror", (True, False))
    def test_classify_matches_loop(self, a, merge_mirror):
        tols = (0.0, 1e-12, 0.2, 0.4, 0.6, 0.9, 1.0)
        reference = _reference_classify(a, tols, merge_mirror)
        for tol in tols:
            got = classify_catalog(a, tol=tol, merge_mirror=merge_mirror)
            assert got == reference[tol]
            assert all(type(n) is int for c in got for n in c)

    # at a = 1/2 four pairs match under two relabelings, so the first one must win
    @pytest.mark.parametrize("a1,a2", ((0.3, 0.3), (0.3, 0.7), (0.5, 0.5)))
    def test_are_conjugate_matches_loop(self, a1, a2):
        first = [operator_tensor(n, a1) for n in range(1, 37)]
        second = [operator_tensor(n, a2) for n in range(1, 37)]
        for T1 in first:
            for T2 in second:
                assert are_conjugate(T1, T2) == _reference_are_conjugate(T1, T2)


class TestPartitionMaps:
    def test_conjugating_by_swap12_lands_in_partition3(self):
        # the singleton block moves from (2,3) to (1,3)
        xi3 = pair_partitions()[2]
        for op_id in range(1, 37):
            Q = conjugate(operator_tensor(op_id, 0.3), SWAP12)
            assert partition_structure_check(Q, xi3).passed

    def test_conjugating_by_swap13_lands_in_partition4(self):
        xi4 = pair_partitions()[3]
        for op_id in range(1, 37):
            Q = conjugate(operator_tensor(op_id, 0.3), SWAP13)
            assert partition_structure_check(Q, xi4).passed


class TestStabilizers:
    def test_catalog_partition_stabilizer(self):
        stab = partition_stabilizer(CATALOG_PARTITION)
        assert {p.cycle_string() for p in stab} == {"(1)(2)(3)", "(1)(2 3)"}

    def test_point_and_trivial_partitions(self):
        assert len(partition_stabilizer(pair_partitions()[0])) == 6
        assert len(partition_stabilizer(pair_partitions()[4])) == 6

    def test_other_two_block_partitions(self):
        assert {p.cycle_string() for p in partition_stabilizer(pair_partitions()[2])} == \
            {"(1)(2)(3)", "(1 3)(2)"}
        assert {p.cycle_string() for p in partition_stabilizer(pair_partitions()[3])} == \
            {"(1)(2)(3)", "(1 2)(3)"}


@given(op_id=st.integers(1, 36), seed=st.integers(0, 10 ** 6))
def test_conjugation_preserves_validity(op_id, seed):
    rng = np.random.default_rng(seed)
    a = float(rng.random())
    p = Permutation.all_perms(3)[int(rng.integers(6))]
    Q = conjugate(operator_tensor(op_id, a), p)
    P = Q.table
    assert np.all(P >= 0.0)
    assert np.allclose(P.sum(axis=2), 1.0, atol=1e-15)
    assert np.array_equal(P.transpose(1, 0, 2), P)
