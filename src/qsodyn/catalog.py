"""The 36-operator parametric catalog on the 2-simplex and its conjugacy classes.

The catalog crosses six choices of off-diagonal heredity rows (one parametric
family per choice) with six assignments of the diagonal rows to distinct
vertices. Every entry has the same block structure: the rows attached to the
pairs (1,2) and (1,3) share a support, and the (2,3) row is supported on the
complementary coordinate. Relabeling coordinates by the swap 2 <-> 3 maps the
catalog onto itself and induces the pairing of entries into conjugacy classes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from numbers import Integral
from typing import Optional, Sequence

from .operators import HeredityTensor
from .permutations import Permutation
from .rules import ZERO_TOL, require_tol

#: Catalog ids whose limit behavior has closed-form predictions (in `dynamics`).
ANALYZED_OPS = (4, 13, 25, 28)

# ---------------------------------------------------------------------------
# Case tables
# ---------------------------------------------------------------------------

# Each case is three rows of three coefficient codes: 0 -> 0, 1 -> 1, 2 -> a, 3 -> 1 - a.
# Off-diagonal case -> rows for (1,2), (1,3), (2,3).
_OFF_DIAG_CODES = ("230 230 001", "023 023 100", "203 203 010",
                   "001 001 230", "100 100 023", "010 010 203")
# Diagonal case -> rows for (1,1), (2,2), (3,3): six of the vertex assignments.
_DIAG_CODES = ("100 010 001", "010 100 001", "001 010 100",
               "100 001 010", "001 100 010", "010 001 100")


def _entry_codes(off_diag: str, diag: str) -> tuple[int, ...]:
    """The 27 codes of one entry in row-major (i, j, k) order; row (j, i) repeats row (i, j)."""
    (r12, r13, r23), (r11, r22, r33) = off_diag.split(), diag.split()
    return tuple(map(int, r11 + r12 + r13 + r12 + r22 + r23 + r13 + r23 + r33))


#: The codes of catalog entry n at index n - 1.
_CODES = tuple(_entry_codes(off, diag) for off in _OFF_DIAG_CODES for diag in _DIAG_CODES)


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
        object.__setattr__(self, "a", self.a + 0.0)  # -0.0 is 0.0, or its tensor prints -0

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
    a = float(spec.a)
    values = (0.0, 1.0, a, 1.0 - a)
    return HeredityTensor._of(3, tuple(map(values.__getitem__, _CODES[spec.op_id - 1])))


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

def _row_support(row: Sequence[float], tol: float) -> frozenset[int]:
    return frozenset(k for k, v in enumerate(row, start=1) if v > tol)


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
    require_tol(tol)
    if partition.m != T.m:
        raise ValueError("partition size mismatch")
    blocks = [[(pair, _row_support(T.row(*pair), tol)) for pair in sorted(block)]
              for block in partition.blocks]
    found = [("within_block", f"block {b}: rows {p1} and {p2} have supports "
                              f"{sorted(s1)} vs {sorted(s2)}")
             for b, rows in enumerate(blocks, start=1)
             for (p1, s1), (p2, s2) in zip(rows, rows[1:]) if s1 != s2]
    found += [("across_blocks", f"rows {p1} (block {b1}) and {p2} (block {b2}) "
                                f"share support indices {sorted(s1 & s2)}")
              for (b1, rows1), (b2, rows2) in itertools.combinations(enumerate(blocks, start=1), 2)
              for p1, s1 in rows1 for p2, s2 in rows2 if s1 & s2]
    diagonal = [_row_support(T.row(i, i), tol) for i in range(1, T.m + 1)]
    found += [("diagonal_not_vertex", f"diagonal row ({i},{i}) has support {sorted(s)}, "
                                      "not a single vertex")
              for i, s in enumerate(diagonal, start=1) if len(s) != 1]
    image = [min(s) for s in diagonal if len(s) == 1]
    perm: Optional[Permutation] = None
    if len(image) == T.m:
        if len(set(image)) == T.m:
            perm = Permutation(tuple(image))
        else:
            found.append(("diagonal_duplicate",
                          f"diagonal rows map onto vertices {image}, not all distinct"))
    return StructureReport(not found, tuple(StructureViolation(*v) for v in found), perm)


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
    return HeredityTensor._of(T.m, tuple(map(T.coeffs.__getitem__, _relabeling(p))))


def _relabeling(p: Permutation) -> list[int]:
    """Where Q[i,j,k] = P[p(i),p(j),p(k)] reads P, in Q's row-major order."""
    m, idx = p.m, [i - 1 for i in p.image]
    return [(i * m + j) * m + k for i in idx for j in idx for k in idx]


def coefficient_distance(T1: HeredityTensor, T2: HeredityTensor) -> float:
    """Max-norm distance between two coefficient arrays; NaN if any entry gives NaN."""
    if T1.m != T2.m:
        raise ValueError("dimension mismatch")
    d = [abs(x - y) for x, y in zip(T1.coeffs, T2.coeffs)]
    return math.nan if any(map(math.isnan, d)) else max(d)


def _within(P: Sequence[float], Q: Sequence[float], tol: float) -> bool:
    """True when every |P[n] - Q[n]| <= tol (a NaN difference fails): max-norm distance <= tol."""
    for x, y in zip(P, Q):
        if not abs(x - y) <= tol:
            return False
    return True


# The classifier's match tolerance. Coefficients are 0, 1, a or 1 - a, so a link that holds
# at no other parameter holds within this tolerance only within it of 0, 1/2 or 1.
MATCH_TOL, DEGENERATE_PARAMS = 1e-12, (0.0, 0.5, 1.0)
_check_match_tol = require_tol  # its former name here, which callers still import


def are_conjugate(T1: HeredityTensor, T2: HeredityTensor, tol: float = MATCH_TOL) -> Optional[Permutation]:
    """First permutation (lexicographic) carrying T1 onto T2 within tol, if any."""
    require_tol(tol)
    if T1.m != T2.m:
        raise ValueError("dimension mismatch")
    P = T1.coeffs
    return next((p for p in Permutation.all_perms(T1.m)
                 if _within(map(P.__getitem__, _relabeling(p)), T2.coeffs, tol)), None)


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
    require_tol(tol)
    params = (a, 1.0 - a) if merge_mirror else (a,)
    targets = [operator_tensor(k, b).coeffs for b in params for k in range(1, 37)]
    relabelings = [_relabeling(p) for p in Permutation.all_perms(3)]
    group = [{n} for n in range(1, 37)]  # group[n - 1]: the class of n found so far
    for n, P in enumerate(targets[:36]):
        for index in relabelings:
            Q = list(map(P.__getitem__, index))
            for k, R in enumerate(targets):
                if _within(Q, R, tol):
                    merged = group[n] | group[k % 36]
                    for e in merged:
                        group[e - 1] = merged
    return sorted({tuple(sorted(g)) for g in group})


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
    return [p for p in Permutation.all_perms(partition.m)
            if {frozenset(tuple(sorted((p(i), p(j)))) for i, j in block)
                for block in partition.blocks} == blocks]


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def polynomial_text(T: HeredityTensor) -> list[str]:
    """Expanded quadratic forms of each image coordinate, e.g. 'x1' = x1^2 + 0.6 x1 x2'."""
    m, P = T.m, T.coeffs
    # the squares, then the cross terms i < j, each as (i, j, factor on P[i, j, k], monomial)
    terms = [(i, i, 1.0, f"x{i + 1}^2") for i in range(m)] + [
        (i, j, 2.0, f"x{i + 1} x{j + 1}") for i in range(m) for j in range(i + 1, m)]
    lines = []
    for k in range(m):
        coefs = ((factor * P[(i * m + j) * m + k], text) for i, j, factor, text in terms)
        rhs = " + ".join(f"{_coef(c)}{text}" for c, text in coefs if c != 0.0)
        lines.append(f"x{k + 1}' = {rhs or '0'}")
    return lines


def _coef(c: float) -> str:
    if c == 1.0:
        return ""
    return f"{format(c, '.12g')} "
