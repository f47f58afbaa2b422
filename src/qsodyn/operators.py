"""Heredity tensors and the quadratic operators they define.

A quadratic stochastic operator on the (m-1)-simplex is determined by a cubic
array P[i, j, k]: the image coordinate k is the quadratic form
x'_k = sum_ij P[i, j, k] x_i x_j. The entries are probabilities: nonnegative,
symmetric in (i, j), and summing to 1 over k, so the simplex maps into itself.

This module also detects the classical structural forms: the Volterra
condition (every cross coefficient feeding an outside coordinate vanishes),
the partial ell-Volterra variant (only some coordinates satisfy it), and the
output-relabeled versions of both.
"""

from __future__ import annotations

import itertools
import json
import math
from functools import reduce
from operator import add, eq
from typing import Mapping, Optional, Sequence

from . import simplex
from .permutations import Permutation
from .rules import ZERO_TOL, Frozen, json_floats, read_json, require_count, require_tol


class HeredityTensor:
    """Cubic coefficient array of a quadratic stochastic operator.

    The m**3 coefficients are kept as a tuple of floats in row-major (i, j, k)
    order, so structure checks and classification run without numpy; the
    ndarray `table` is built on first use. The constructor only fixes shape
    and dtype; use :func:`validate` to audit the probabilistic constraints (it
    reports violations instead of raising, so defective tensors can be
    inspected).
    """

    __slots__ = ("_m", "_coeffs", "_table")

    def __init__(self, table):
        cube = table.tolist() if hasattr(table, "tolist") else table  # an ndarray gives its floats
        try:
            m = len(cube)
            coeffs = tuple(float(v) for plane in cube if len(plane) == m
                           for row in plane if len(row) == m for v in row)
        except TypeError:  # a scalar where a sequence belongs
            m, coeffs = 0, ()
        if m < 1 or len(coeffs) != m ** 3:  # a plane or row of another length was skipped
            shape = getattr(table, "shape", type(table).__name__)
            raise ValueError(f"expected an (m, m, m) array with m >= 1, got {shape}")
        self._m, self._coeffs, self._table = m, coeffs, None

    @classmethod
    def _of(cls, m: int, coeffs: tuple[float, ...]) -> "HeredityTensor":
        """The tensor of m**3 row-major floats, taken as they are."""
        T = cls.__new__(cls)
        T._m, T._coeffs, T._table = m, coeffs, None
        return T

    @property
    def m(self) -> int:
        return self._m

    @property
    def coeffs(self) -> tuple[float, ...]:
        """The coefficients P[i-1, j-1, k-1] as floats, in row-major (i, j, k) order."""
        return self._coeffs

    @property
    def table(self) -> np.ndarray:
        """Read-only (m, m, m) coefficient array, P[i-1, j-1, k-1]; built once, on first use."""
        if self._table is None:
            import numpy as np  # only the array kernels need it

            arr = np.array(self._coeffs, dtype=np.float64).reshape((self._m,) * 3)
            arr.flags.writeable = False
            self._table = arr
        return self._table

    def row(self, i: int, j: int) -> tuple[float, ...]:
        """The distribution row (P_{ij,1}, ..., P_{ij,m}) for 1-based (i, j)."""
        start = ((i - 1) * self._m + j - 1) * self._m
        return self._coeffs[start:start + self._m]

    def __eq__(self, other) -> bool:
        if not isinstance(other, HeredityTensor):
            return NotImplemented
        return self._m == other._m and all(map(eq, self._coeffs, other._coeffs))

    def __hash__(self) -> int:
        return hash(self._coeffs)  # hash(-0.0) == hash(0.0), as equality needs

    def __repr__(self) -> str:
        return f"HeredityTensor(m={self.m})"

    @classmethod
    def from_rows(cls, m: int, rows: Mapping[tuple[int, int], Sequence[float]]) -> "HeredityTensor":
        """Build from one row per pair (i, j) with i <= j, 1-based.

        The (j, i) entries are filled symmetrically, so the symmetry
        constraint holds exactly by construction.
        """
        require_count("m", m, 1)
        coeffs = [0.0] * m ** 3
        expected = {(i, j) for i in range(1, m + 1) for j in range(i, m + 1)}
        if set(rows) != expected:
            raise ValueError(f"need exactly the rows {sorted(expected)}, got {list(rows)}")
        for i, j in sorted(expected):  # integer indices, whatever equal keys rows uses
            try:
                vec = [float(v) for v in rows[i, j]]
            except TypeError:  # a scalar row
                vec = []
            if len(vec) != m:
                raise ValueError(f"row {(i, j)} has wrong length")
            for start in (((i - 1) * m + j - 1) * m, ((j - 1) * m + i - 1) * m):
                coeffs[start:start + m] = vec
        return cls._of(m, tuple(coeffs))

    def to_json(self) -> str:
        """Serialize as {"m": m, "P": flat row-major (i, j, k) array}, with
        non-finite entries as NaN, Infinity and -Infinity, as `from_json` reads them."""
        flat = ", ".join(format(v, ".17g") if math.isfinite(v) else json.dumps(v)
                         for v in self._coeffs)
        return f'{{"m": {self.m}, "P": [{flat}]}}'

    @staticmethod
    def from_json(text: str) -> "HeredityTensor":
        """The tensor of `to_json`'s form; any other text raises ValueError."""
        data = read_json(text)
        if not isinstance(data, dict):
            raise ValueError('expected a JSON object {"m": m, "P": [numbers]}')
        m, coeffs = data.get("m"), json_floats(data.get("P"), "P")
        if type(m) is not int or m < 1 or len(coeffs) != m ** 3:
            raise ValueError(f"need an integer m >= 1 and m**3 coefficients, got m = {m!r} "
                             f"and {len(coeffs)} coefficients")
        return HeredityTensor._of(m, coeffs)


# ---------------------------------------------------------------------------
# Application
# ---------------------------------------------------------------------------

def apply_array(T: HeredityTensor, x: np.ndarray, renormalize: bool = True) -> np.ndarray:
    """Raw image of the points x (..., m), each row rescaled to unit sum unless
    renormalize=False (the defect is pure roundoff: the tensor rows are stochastic).

    The BLAS route of the one matrix product fixes the last bit. A point (m,)
    and a stack (n, 1, m) go one row at a time (the vector route), so each row
    equals its one-point call bit for bit; a batch (n, m) takes the matrix
    route, whose rows can differ from one-point calls in the last bit.
    """
    m = T.m
    prods = (x[..., :, None] * x[..., None, :]).reshape(*x.shape[:-1], m * m)
    out = prods @ T.table.reshape(m * m, m)
    return out / out.sum(axis=-1, keepdims=True) if renormalize else out


def apply(T: HeredityTensor, x: simplex.SimplexPoint) -> simplex.SimplexPoint:
    """Image of x under the quadratic operator defined by T."""
    if x.m != T.m:
        raise ValueError(f"dimension mismatch: tensor m={T.m}, point m={x.m}")
    return simplex.SimplexPoint(apply_array(T, x.coords, renormalize=False))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

class Violation(Frozen):
    """One broken constraint: kind, offending 1-based indices, magnitude."""

    kind: str  # "non_finite" | "negative" | "asymmetric" | "row_sum"
    where: tuple[int, ...]
    value: float

    def describe(self) -> str:
        if self.kind == "non_finite":
            return f"P{self.where} = {self.value} is not finite"
        if self.kind == "negative":
            return f"P{self.where} = {self.value} is negative"
        if self.kind == "asymmetric":
            i, j, k = self.where
            return f"P[{i},{j},{k}] != P[{j},{i},{k}] (difference {self.value})"
        return f"row {self.where} sums to {self.value}, not 1"


class TensorValidation(Frozen):
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def describe(self) -> list[str]:
        return [v.describe() for v in self.violations]


def validate(T: HeredityTensor, tol: float = ZERO_TOL) -> TensorValidation:
    """Audit finiteness, nonnegativity, (i, j) symmetry, and unit row sums.

    Returns a report listing every violated constraint with indices and
    magnitudes; an empty report means the tensor is a valid heredity array.
    """
    require_tol(tol)
    m, P = T.m, T.coeffs
    cells = list(itertools.product(range(1, m + 1), repeat=3))  # (i, j, k) in P's order
    asym = [abs(v - P[((j - 1) * m + i - 1) * m + k - 1]) for v, (i, j, k) in zip(P, cells)]
    sums = [_row_sum(P[n:n + m]) for n in range(0, len(P), m)]
    found = [Violation("non_finite", c, v) for c, v in zip(cells, P) if not math.isfinite(v)]
    found += [Violation("negative", c, v) for c, v in zip(cells, P) if v < -tol]
    found += [Violation("asymmetric", c, d) for c, d in zip(cells, asym) if c[0] < c[1] and d > tol]
    found += [Violation("row_sum", c[:2], s) for c, s in zip(cells[::m], sums)
              if abs(s - 1.0) > tol]
    return TensorValidation(tuple(found))


def _row_sum(row: Sequence[float]) -> float:
    """The float sum numpy's add.reduce gives for a row, bit for bit: from 0.0 and
    left to right below 8 terms; else eight strided partial sums, combined in
    pairs, then the terms left over, in halves of a multiple of 8 above 128 terms."""
    n = len(row)
    if n < 8:
        return reduce(add, row, 0.0)
    if n > 128:  # each half starts from 0.0, which only makes a -0.0 total +0.0, as numpy's
        half = n // 2 - n // 2 % 8
        return _row_sum(row[:half]) + _row_sum(row[half:])
    end = n - n % 8
    r = [reduce(add, row[j:end:8]) for j in range(8)]
    paired = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    return 0.0 + reduce(add, row[end:], paired)


# ---------------------------------------------------------------------------
# Structure detection
# ---------------------------------------------------------------------------

def is_volterra(T: HeredityTensor, tol: float = ZERO_TOL) -> bool:
    """True when P[i,j,k] vanishes whenever k is not one of i, j.

    Under this condition every offspring coordinate only redistributes mass
    already present in the parent coordinates (the discrete Lotka-Volterra
    structure). Only pairs i <= j are read, which relies on the (i, j)
    symmetry that :func:`validate` audits.
    """
    return ell_volterra_structure(T, tol).ell == T.m


class VolterraCoefficients(Frozen):
    """Skew-symmetric interaction matrix of a Volterra operator.

    Off-diagonal entries are a[k, i] = 2 P_{ik,k} - 1 (1-based indices
    shifted down), the diagonal is zero, and the canonical form
    x'_k = x_k (1 + sum_i a[k, i] x_i) reproduces the operator.
    """

    m: int
    a: np.ndarray

    def entry(self, k: int, i: int) -> float:
        return float(self.a[k - 1, i - 1])


def volterra_coefficients(T: HeredityTensor) -> VolterraCoefficients:
    """Interaction matrix of a Volterra tensor; raises on non-Volterra input."""
    if not is_volterra(T):
        raise ValueError("tensor does not satisfy the Volterra condition")
    import numpy as np  # the matrix is an ndarray

    a = 2.0 * np.diagonal(T.table, axis1=1, axis2=2).T - 1.0  # 2 P[i, k, k] - 1 at [k, i]
    np.fill_diagonal(a, 0.0)
    a.flags.writeable = False
    return VolterraCoefficients(T.m, a)


class EllVolterraStructure(Frozen):
    """Which coordinates satisfy the Volterra condition, with witnesses.

    volterra_indices: 1-based coordinates k with P[i,j,k] = 0 for k not in
        {i, j}. The conventional form places these first; a relabeling
        permutation turns any subset into the leading indices.
    witnesses: for every other k, the lexicographically first pair (i, j)
        with i <= j, both different from k, and P[i,j,k] strictly positive.
    ell: size of volterra_indices. ell == m is the plain Volterra case;
        ell == 0 means no coordinate satisfies the condition.
    """

    volterra_indices: frozenset[int]
    witnesses: dict[int, tuple[int, int]]
    ell: int


def _first_witnesses(T: HeredityTensor, tol: float) -> list[list[int]]:
    """first[k][c]: flat index i * m + j of the lexicographically first pair
    i <= j, both different from k, with P[i, j, c] > tol; -1 when there is
    none, that is when column c read as coordinate k is Volterra."""
    require_tol(tol)
    m, P = T.m, T.coeffs
    feeding = [[(i, j) for i in range(m) for j in range(i, m) if P[(i * m + j) * m + c] > tol]
               for c in range(m)]
    return [[next((i * m + j for i, j in feeding[c] if k not in (i, j)), -1) for c in range(m)]
            for k in range(m)]


def _structure(first: list[list[int]], cols: Sequence[int]) -> EllVolterraStructure:
    """The structure of the tensor whose coordinate k is column cols[k] of the scanned one."""
    m = len(cols)
    pick = [first[k][c] for k, c in enumerate(cols)]
    vol = frozenset(k + 1 for k in range(m) if pick[k] < 0)
    wit = {k + 1: (f // m + 1, f % m + 1) for k, f in enumerate(pick) if f >= 0}
    return EllVolterraStructure(vol, wit, len(vol))


def ell_volterra_structure(T: HeredityTensor, tol: float = ZERO_TOL) -> EllVolterraStructure:
    """Scan every coordinate for the Volterra condition.

    With a zero threshold the two outcomes are an exact dichotomy: a
    coordinate either has all outside cross coefficients at zero, or it has a
    strictly positive witness pair.
    """
    return _structure(_first_witnesses(T, tol), range(T.m))


def relabel_outputs(T: HeredityTensor, tau: Permutation) -> HeredityTensor:
    """The operator whose coordinate k equals coordinate tau(k) of T.

    Writing V for T's operator and W for the result: W(x)_k = V(x)_{tau(k)},
    i.e. V's outputs land in relabeled slots. Row stochasticity and symmetry
    are preserved.
    """
    if tau.m != T.m:
        raise ValueError("permutation size mismatch")
    m, P = T.m, T.coeffs
    return HeredityTensor._of(m, tuple(P[n + k - 1] for n in range(0, len(P), m) for k in tau.image))


def permuted_ell_volterra(
    T: HeredityTensor, tol: float = ZERO_TOL
) -> Optional[tuple[Permutation, EllVolterraStructure]]:
    """Best output relabeling that exposes a (partial) Volterra structure.

    Over all m! relabelings tau, returns the tau whose relabel_outputs(T, tau)
    has the most Volterra coordinates (ties broken by lexicographically
    smallest tau), with that structure. Returns None when no relabeling
    yields even one Volterra coordinate.
    """
    first = _first_witnesses(T, tol)
    # max keeps the first maximum, and permutations come in lexicographic order
    cols = max(itertools.permutations(range(T.m)),
               key=lambda cols: sum(first[k][c] < 0 for k, c in enumerate(cols)))
    structure = _structure(first, cols)
    if structure.ell == 0:
        return None
    return Permutation(tuple(c + 1 for c in cols)), structure


def structure_label(T: HeredityTensor, tol: float = ZERO_TOL) -> dict:
    """Human/JSON-friendly structural summary used by the CLI catalog listing."""
    direct = ell_volterra_structure(T, tol)
    permuted = permuted_ell_volterra(T, tol)
    best_ell = permuted[1].ell if permuted is not None else 0
    # Precedence: full Volterra, then full Volterra after relabeling, then the
    # partial forms; a relabeling only earns a tag when it strictly helps.
    if direct.ell == T.m:
        kind = "volterra"
    elif best_ell == T.m:
        kind = "permuted_volterra"
    elif direct.ell >= 1 and direct.ell >= best_ell:
        kind = "ell_volterra"
    elif best_ell >= 1:
        kind = "permuted_ell_volterra"
    else:
        kind = "none"
    out = {
        "kind": kind,
        "ell": direct.ell,
        "volterra_indices": sorted(direct.volterra_indices),
    }
    if permuted is not None:
        tau, structure = permuted
        out["best_relabeling"] = {
            "tau": list(tau.image),
            "tau_cycles": tau.cycle_string(),
            "ell": structure.ell,
            "volterra_indices": sorted(structure.volterra_indices),
        }
    return out
