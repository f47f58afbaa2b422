"""The 36-operator parametric catalog on the 2-simplex and its conjugacy classes.

The catalog crosses six choices of off-diagonal heredity rows (one parametric
family per choice) with six assignments of the diagonal rows to distinct
vertices. Every entry has the same block structure: the rows attached to the
pairs (1,2) and (1,3) share a support, and the (2,3) row is supported on the
complementary coordinate. Relabeling coordinates by the swap 2 <-> 3 maps the
catalog onto itself and induces the pairing of entries into conjugacy classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Optional, Sequence

import numpy as np

from .operators import HeredityTensor
from .permutations import Permutation
from .simplex import ZERO_TOL

# ---------------------------------------------------------------------------
# Case tables
# ---------------------------------------------------------------------------

_E1 = (1.0, 0.0, 0.0)
_E2 = (0.0, 1.0, 0.0)
_E3 = (0.0, 0.0, 1.0)


def _off_diag_rows(case: int, a: float) -> dict[tuple[int, int], tuple[float, float, float]]:
    """Rows for the pairs (1,2), (1,3), (2,3) in off-diagonal case 1..6."""
    pa = (a, 1.0 - a, 0.0)
    pb = (0.0, a, 1.0 - a)
    pc = (a, 0.0, 1.0 - a)
    table = {
        1: (pa, pa, _E3),
        2: (pb, pb, _E1),
        3: (pc, pc, _E2),
        4: (_E3, _E3, pa),
        5: (_E1, _E1, pb),
        6: (_E2, _E2, pc),
    }
    r12, r13, r23 = table[case]
    return {(1, 2): r12, (1, 3): r13, (2, 3): r23}


# Diagonal case -> rows for (1,1), (2,2), (3,3): six of the vertex assignments.
_DIAG_TABLE: dict[int, tuple[tuple[float, float, float], ...]] = {
    1: (_E1, _E2, _E3),
    2: (_E2, _E1, _E3),
    3: (_E3, _E2, _E1),
    4: (_E1, _E3, _E2),
    5: (_E3, _E1, _E2),
    6: (_E2, _E3, _E1),
}


@dataclass(frozen=True)
class OperatorSpec:
    """Catalog coordinates: off-diagonal case, diagonal case, parameter a."""

    case_one: int
    case_two: int
    a: float

    def __post_init__(self):
        for name in ("case_one", "case_two"):
            case = getattr(self, name)
            if not (isinstance(case, Integral) and 1 <= case <= 6):
                raise ValueError(f"{name} must be 1..6, got {case!r}")
        if not 0.0 <= self.a <= 1.0:
            raise ValueError(f"parameter a must lie in [0, 1], got {self.a}")

    @property
    def op_id(self) -> int:
        """Catalog numbering: 6 * (case_one - 1) + case_two, in 1..36."""
        return 6 * (self.case_one - 1) + self.case_two

    @staticmethod
    def from_id(op_id: int, a: float) -> "OperatorSpec":
        if not (isinstance(op_id, Integral) and 1 <= op_id <= 36):  # NaN, 2.5 and "3" fail
            raise ValueError(f"operator id must be 1..36, got {op_id!r}")
        return OperatorSpec((op_id - 1) // 6 + 1, (op_id - 1) % 6 + 1, a)


def build_operator(spec: OperatorSpec) -> HeredityTensor:
    """Heredity tensor of one catalog entry (symmetric completion included)."""
    rows: dict[tuple[int, int], Sequence[float]] = dict(_off_diag_rows(spec.case_one, spec.a))
    for i, row in enumerate(_DIAG_TABLE[spec.case_two], start=1):
        rows[(i, i)] = row
    return HeredityTensor.from_rows(3, rows)


def operator_tensor(op_id: int, a: float) -> HeredityTensor:
    """Shorthand for build_operator(OperatorSpec.from_id(op_id, a))."""
    return build_operator(OperatorSpec.from_id(op_id, a))


# ---------------------------------------------------------------------------
# Partitions of the coupled pair set
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairPartition:
    """A partition of the coupled pairs {(i, j): i < j} of {1..m}."""

    m: int
    blocks: tuple[frozenset[tuple[int, int]], ...]

    def __post_init__(self):
        all_pairs = {(i, j) for i in range(1, self.m + 1) for j in range(i + 1, self.m + 1)}
        union: set[tuple[int, int]] = set()
        for block in self.blocks:
            if union & block:
                raise ValueError("blocks overlap")
            union |= block
        if union != all_pairs:
            raise ValueError("blocks do not cover the coupled pair set")
        if len(self.blocks) > self.m:
            raise ValueError("more blocks than indices")

    def __str__(self) -> str:
        parts = []
        for block in self.blocks:
            inner = ", ".join(f"({i},{j})" for i, j in sorted(block))
            parts.append("{" + inner + "}")
        return "{" + ", ".join(parts) + "}"


def pair_partitions() -> tuple[PairPartition, ...]:
    """The five partitions of the coupled pairs of {1, 2, 3}.

    Listed coarsest-last: the point partition, the three two-block ones (the
    singleton block walks through (2,3), (1,3), (1,2)), and the trivial one.
    """
    f = frozenset
    return (
        PairPartition(3, (f({(1, 2)}), f({(1, 3)}), f({(2, 3)}))),
        PairPartition(3, (f({(2, 3)}), f({(1, 2), (1, 3)}))),
        PairPartition(3, (f({(1, 3)}), f({(1, 2), (2, 3)}))),
        PairPartition(3, (f({(1, 2)}), f({(1, 3), (2, 3)}))),
        PairPartition(3, (f({(1, 2), (1, 3), (2, 3)}),)),
    )


#: The partition every catalog entry is structured by (singleton block (2,3)).
CATALOG_PARTITION = pair_partitions()[1]


# ---------------------------------------------------------------------------
# Structure check against a partition
# ---------------------------------------------------------------------------

def _row_support(row: np.ndarray, tol: float) -> frozenset[int]:
    return frozenset(int(i) + 1 for i in np.nonzero(row > tol)[0])


@dataclass(frozen=True)
class StructureViolation:
    kind: str  # "within_block" | "across_blocks" | "diagonal_not_vertex" | "diagonal_duplicate"
    detail: str


@dataclass(frozen=True)
class StructureReport:
    passed: bool
    violations: tuple[StructureViolation, ...]
    diagonal_permutation: Optional[Permutation]


def partition_structure_check(
    T: HeredityTensor, partition: PairPartition, tol: float = ZERO_TOL
) -> StructureReport:
    """Check the separated-family structure of a tensor against a partition.

    Requirements: within each block all coupled-pair rows share a support;
    rows from different blocks have disjoint supports; and the diagonal rows
    are m distinct vertices, i.e. P_{ii} = e_{pi(i)} for some permutation pi
    (returned when found).
    """
    if partition.m != T.m:
        raise ValueError("partition size mismatch")
    violations: list[StructureViolation] = []
    supports = [
        [( pair, _row_support(T.row(*pair), tol)) for pair in sorted(block)]
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
        s = _row_support(T.row(i, i), tol)
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


# ---------------------------------------------------------------------------
# Conjugation and classification
# ---------------------------------------------------------------------------

def conjugate(T: HeredityTensor, p: Permutation) -> HeredityTensor:
    """Coordinate relabeling of an operator: Q[i,j,k] = P[p(i), p(j), p(k)].

    The resulting operator W satisfies W(p(x)) = p(V(x)) with the coordinate
    map p(x) = (x_{p(1)}, ..., x_{p(m)}); relabeled operators have identical
    dynamics up to renaming of the coordinates.
    """
    if p.m != T.m:
        raise ValueError("permutation size mismatch")
    idx = np.array(p.image) - 1
    return HeredityTensor(T.table[np.ix_(idx, idx, idx)])


def coefficient_distance(T1: HeredityTensor, T2: HeredityTensor) -> float:
    """Max-norm distance between two coefficient arrays."""
    if T1.m != T2.m:
        raise ValueError("dimension mismatch")
    return float(np.max(np.abs(T1.table - T2.table)))


def _conjugates(tables: np.ndarray) -> np.ndarray:
    """Every relabeling Q[i,j,k] = P[p(i),p(j),p(k)] of a stack (..., m, m, m).

    The relabelings lie along a new axis -4, in Permutation.all_perms(m) order.
    """
    m = tables.shape[-1]
    idx = np.array([p.image for p in Permutation.all_perms(m)]) - 1
    return tables[..., idx[:, :, None, None], idx[:, None, :, None], idx[:, None, None, :]]


# The classifier's match tolerance. Coefficients are 0, 1, a or 1 - a, so a link that holds
# at no other parameter holds within this tolerance only within it of 0, 1/2 or 1.
MATCH_TOL, DEGENERATE_PARAMS = 1e-12, (0.0, 0.5, 1.0)


def _check_match_tol(tol: float) -> None:
    if not 0.0 <= tol < np.inf:  # a max-norm distance; 0 asks for exact matches
        raise ValueError("tol must be finite and >= 0")


def are_conjugate(T1: HeredityTensor, T2: HeredityTensor, tol: float = MATCH_TOL) -> Optional[Permutation]:
    """First permutation (lexicographic) carrying T1 onto T2 within tol, if any."""
    _check_match_tol(tol)
    if T1.m != T2.m:
        raise ValueError("dimension mismatch")
    dist = np.abs(_conjugates(T1.table) - T2.table).max(axis=(-3, -2, -1))
    hits = np.flatnonzero(dist <= tol)
    return Permutation.all_perms(T1.m)[hits[0]] if hits.size else None


#: Conjugacy classes of the catalog families. Pairs are related by the
#: coordinate swap 2 <-> 3; for the off-diagonal cases 2 and 5 the swap also
#: mirrors the parameter to 1 - a, so those pairs match across mirrored
#: parameters rather than at equal a.
REFERENCE_CLASSES: tuple[frozenset[int], ...] = (
    frozenset({1, 13}), frozenset({2, 15}), frozenset({3, 14}), frozenset({4, 16}),
    frozenset({5, 18}), frozenset({6, 17}), frozenset({7}), frozenset({8, 9}),
    frozenset({10}), frozenset({11, 12}), frozenset({19, 31}), frozenset({20, 33}),
    frozenset({21, 32}), frozenset({22, 34}), frozenset({23, 36}), frozenset({24, 35}),
    frozenset({25}), frozenset({26, 27}), frozenset({28}), frozenset({29, 30}),
)


def classify_catalog(a: float, tol: float = MATCH_TOL, merge_mirror: bool = True) -> list[tuple[int, ...]]:
    """Conjugacy classes of the 36 catalog entries at parameter a.

    Classes follow the parametric families: two entries are grouped when some
    relabeling carries one tensor onto the other either at the same a or at
    the mirrored parameter 1 - a (merge_mirror=True, the default). The mirror
    matters because the swap 2 <-> 3 sends the off-diagonal cases 2 and 5 at
    a to themselves at 1 - a; with merge_mirror=False only coefficient
    matches at the given a are merged, which splits those pairs at generic a.

    Returns the partition of {1..36} as a sorted list of sorted tuples.
    """
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


def classes_fixed_parameter(a: float, tol: float = MATCH_TOL) -> list[tuple[int, ...]]:
    """Strict same-parameter conjugacy classes (no mirror merging)."""
    return classify_catalog(a, tol=tol, merge_mirror=False)


def matches_reference(classes: Sequence[tuple[int, ...]]) -> bool:
    """True when a computed partition equals REFERENCE_CLASSES as a set of sets."""
    return {frozenset(c) for c in classes} == set(REFERENCE_CLASSES)


def partition_stabilizer(partition: PairPartition) -> list[Permutation]:
    """All permutations mapping the partition onto itself.

    A permutation acts on a pair (i, j) as the sorted image pair; it
    stabilizes the partition when the set of blocks is preserved.
    """
    blocks = {frozenset(block) for block in partition.blocks}
    out = []
    for p in Permutation.all_perms(partition.m):
        mapped = {
            frozenset(tuple(sorted((p(i), p(j)))) for i, j in block)
            for block in partition.blocks
        }
        if mapped == blocks:
            out.append(p)
    return out


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def polynomial_text(T: HeredityTensor) -> list[str]:
    """Expanded quadratic forms of each image coordinate, e.g. 'x1' = x1^2 + 0.6 x1 x2'."""
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


def _coef(c: float) -> str:
    if c == 1.0:
        return ""
    return f"{format(c, '.12g')} "
