"""The numpy forms of the structure layer, kept as bitwise references.

`operators` and `catalog` compute on the Python floats of
`HeredityTensor.coeffs`. These are the array forms they replaced, written on
`HeredityTensor.table`; the tests in test_numpy_reference.py require equal
results, with bit-equal floats and violations in the same order.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from qsodyn.catalog import (
    MATCH_TOL,
    PairPartition,
    StructureReport,
    StructureViolation,
    _coef,
    operator_tensor,
)
from qsodyn.operators import EllVolterraStructure, HeredityTensor, TensorValidation, Violation
from qsodyn.permutations import Permutation
from qsodyn.rules import ZERO_TOL, require_tol as _check_match_tol


def validate(T: HeredityTensor, tol: float = ZERO_TOL) -> TensorValidation:
    P = T.table
    asym = np.abs(P - P.transpose(1, 0, 2))  # |P[i,j,k] - P[j,i,k]|
    upper = np.triu(np.ones(P.shape[:2], dtype=bool), 1)[:, :, None]  # pairs i < j
    sums = P.sum(axis=2)
    checks = (
        ("non_finite", ~np.isfinite(P), P),
        ("negative", P < -tol, P),
        ("asymmetric", (asym > tol) & upper, asym),
        ("row_sum", np.abs(sums - 1.0) > tol, sums),
    )
    return TensorValidation(tuple(
        Violation(kind, tuple(int(v) + 1 for v in idx), float(values[tuple(idx)]))
        for kind, mask, values in checks for idx in np.argwhere(mask)))


def _first_witnesses(T: HeredityTensor, tol: float) -> np.ndarray:
    m = T.m
    r = np.arange(m)
    k, i, j = r[:, None, None], r[None, :, None], r[None, None, :]
    pairs = (i <= j) & (i != k) & (j != k)  # (k, i, j)
    feeds = (pairs[:, None] & (T.table.transpose(2, 0, 1) > tol)).reshape(m, m, m * m)
    return np.where(feeds.any(axis=2), feeds.argmax(axis=2), -1)


def _structure(first: np.ndarray, cols: np.ndarray) -> EllVolterraStructure:
    m = len(cols)
    pick = first[np.arange(m), cols].tolist()
    vol = frozenset(k + 1 for k in range(m) if pick[k] < 0)
    wit = {k + 1: (f // m + 1, f % m + 1) for k, f in enumerate(pick) if f >= 0}
    return EllVolterraStructure(vol, wit, len(vol))


def ell_volterra_structure(T: HeredityTensor, tol: float = ZERO_TOL) -> EllVolterraStructure:
    return _structure(_first_witnesses(T, tol), np.arange(T.m))


def permuted_ell_volterra(
    T: HeredityTensor, tol: float = ZERO_TOL
) -> Optional[tuple[Permutation, EllVolterraStructure]]:
    first = _first_witnesses(T, tol)
    perms = Permutation.all_perms(T.m)
    cols = np.array([tau.image for tau in perms]) - 1  # (m!, m)
    ells = np.count_nonzero(first[np.arange(T.m), cols] < 0, axis=1)
    best = int(np.argmax(ells))  # the first maximum: all_perms is in lexicographic order
    if ells[best] == 0:
        return None
    return perms[best], _structure(first, cols[best])


def relabel_outputs(T: HeredityTensor, tau: Permutation) -> HeredityTensor:
    return HeredityTensor(T.table[:, :, np.array(tau.image) - 1])


def _row_support(row: np.ndarray, tol: float) -> frozenset[int]:
    return frozenset(int(i) + 1 for i in np.nonzero(row > tol)[0])


def partition_structure_check(
    T: HeredityTensor, partition: PairPartition, tol: float = ZERO_TOL
) -> StructureReport:
    if partition.m != T.m:
        raise ValueError("partition size mismatch")
    row = lambda i, j: T.table[i - 1, j - 1, :]  # noqa: E731
    violations: list[StructureViolation] = []
    supports = [
        [(pair, _row_support(row(*pair), tol)) for pair in sorted(block)]
        for block in partition.blocks
    ]
    for block_idx, entries in enumerate(supports):
        for (p1, s1), (p2, s2) in zip(entries, entries[1:]):
            if s1 != s2:
                violations.append(StructureViolation(
                    "within_block",
                    f"block {block_idx + 1}: rows {p1} and {p2} have supports "
                    f"{sorted(s1)} vs {sorted(s2)}"))
    for bi in range(len(supports)):
        for bj in range(bi + 1, len(supports)):
            for p1, s1 in supports[bi]:
                for p2, s2 in supports[bj]:
                    if s1 & s2:
                        violations.append(StructureViolation(
                            "across_blocks",
                            f"rows {p1} (block {bi + 1}) and {p2} (block {bj + 1}) "
                            f"share support indices {sorted(s1 & s2)}"))
    image: list[int] = []
    diag_ok = True
    for i in range(1, T.m + 1):
        s = _row_support(row(i, i), tol)
        if len(s) != 1:
            violations.append(StructureViolation(
                "diagonal_not_vertex",
                f"diagonal row ({i},{i}) has support {sorted(s)}, not a single vertex"))
            diag_ok = False
        else:
            image.append(next(iter(s)))
    perm: Optional[Permutation] = None
    if diag_ok:
        if len(set(image)) != T.m:
            violations.append(StructureViolation(
                "diagonal_duplicate",
                f"diagonal rows map onto vertices {image}, not all distinct"))
        else:
            perm = Permutation(tuple(image))
    return StructureReport(not violations, tuple(violations), perm)


def conjugate(T: HeredityTensor, p: Permutation) -> HeredityTensor:
    if p.m != T.m:
        raise ValueError("permutation size mismatch")
    idx = np.array(p.image) - 1
    return HeredityTensor(T.table[np.ix_(idx, idx, idx)])


def coefficient_distance(T1: HeredityTensor, T2: HeredityTensor) -> float:
    if T1.m != T2.m:
        raise ValueError("dimension mismatch")
    return float(np.max(np.abs(T1.table - T2.table)))


def _conjugates(tables: np.ndarray) -> np.ndarray:
    """Every relabeling of a stack (..., m, m, m), along a new axis -4 in all_perms order."""
    m = tables.shape[-1]
    idx = np.array([p.image for p in Permutation.all_perms(m)]) - 1
    return tables[..., idx[:, :, None, None], idx[:, None, :, None], idx[:, None, None, :]]


def are_conjugate(T1: HeredityTensor, T2: HeredityTensor, tol: float = MATCH_TOL) -> Optional[Permutation]:
    _check_match_tol(tol)
    if T1.m != T2.m:
        raise ValueError("dimension mismatch")
    dist = np.abs(_conjugates(T1.table) - T2.table).max(axis=(-3, -2, -1))
    hits = np.flatnonzero(dist <= tol)
    return Permutation.all_perms(T1.m)[hits[0]] if hits.size else None


def classify_catalog(a: float, tol: float = MATCH_TOL, merge_mirror: bool = True) -> list[tuple[int, ...]]:
    _check_match_tol(tol)
    params = (a, 1.0 - a) if merge_mirror else (a,)
    stacks = np.array([[operator_tensor(n, b).table for n in range(1, 37)] for b in params])
    # dist[s, n, p, k]: max-norm distance from entry n relabeled by p to entry k of stack s
    diff = _conjugates(stacks[0])[None, :, :, None] - stacks[:, None, None]
    dist = np.abs(diff, out=diff).max(axis=(-3, -2, -1))
    linked = (dist <= tol).any(axis=(0, 2)) | np.eye(36, dtype=bool)
    linked |= linked.T
    for _ in range(6):  # transitive closure: paths up to length 2**6 >= 36
        linked = linked @ linked
    return sorted({tuple(int(k) + 1 for k in np.flatnonzero(row)) for row in linked})


def polynomial_text(T: HeredityTensor) -> list[str]:
    m = T.m
    P = T.table
    lines = []
    for k in range(m):
        terms = []
        for i in range(m):
            c = P[i, i, k]
            if c != 0.0:
                terms.append(f"{_coef(c)}x{i + 1}^2")
        for i in range(m):
            for j in range(i + 1, m):
                c = 2.0 * P[i, j, k]
                if c != 0.0:
                    terms.append(f"{_coef(c)}x{i + 1} x{j + 1}")
        rhs = " + ".join(terms) if terms else "0"
        lines.append(f"x{k + 1}' = {rhs}")
    return lines
