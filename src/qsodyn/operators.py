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

import json
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .permutations import Permutation
from .simplex import SimplexPoint, ZERO_TOL


class HeredityTensor:
    """Cubic coefficient array of a quadratic stochastic operator.

    The constructor only fixes shape and dtype; use :func:`validate` to audit
    the probabilistic constraints (it reports violations instead of raising,
    so defective tensors can be inspected).
    """

    __slots__ = ("_table",)

    def __init__(self, table):
        arr = np.array(table, dtype=np.float64)
        if arr.ndim != 3 or len(set(arr.shape)) != 1 or arr.size == 0:
            raise ValueError(f"expected an (m, m, m) array with m >= 1, got shape {arr.shape}")
        arr.flags.writeable = False
        self._table = arr

    @property
    def m(self) -> int:
        return self._table.shape[0]

    @property
    def table(self) -> np.ndarray:
        """Read-only (m, m, m) coefficient array, P[i-1, j-1, k-1]."""
        return self._table

    def row(self, i: int, j: int) -> np.ndarray:
        """The distribution row (P_{ij,1}, ..., P_{ij,m}) for 1-based (i, j)."""
        return self._table[i - 1, j - 1, :]

    def __eq__(self, other) -> bool:
        if not isinstance(other, HeredityTensor):
            return NotImplemented
        return self.m == other.m and bool(np.all(self._table == other._table))

    def __hash__(self) -> int:
        return hash(self._table.tobytes())

    def __repr__(self) -> str:
        return f"HeredityTensor(m={self.m})"

    @classmethod
    def from_rows(cls, m: int, rows: Mapping[tuple[int, int], Sequence[float]]) -> "HeredityTensor":
        """Build from one row per pair (i, j) with i <= j, 1-based.

        The (j, i) entries are filled symmetrically, so the symmetry
        constraint holds exactly by construction.
        """
        arr = np.zeros((m, m, m))
        expected = {(i, j) for i in range(1, m + 1) for j in range(i, m + 1)}
        given = set(rows)
        if given != expected:
            raise ValueError(f"need exactly the rows {sorted(expected)}, got {sorted(given)}")
        for (i, j), row in rows.items():
            vec = np.asarray(row, dtype=np.float64)
            if vec.shape != (m,):
                raise ValueError(f"row {(i, j)} has wrong length")
            arr[i - 1, j - 1, :] = vec
            arr[j - 1, i - 1, :] = vec
        return cls(arr)

    def to_json(self) -> str:
        """Serialize as {"m": m, "P": flat row-major (i, j, k) array}."""
        flat = ", ".join(format(v, ".17g") for v in self._table.ravel())
        return f'{{"m": {self.m}, "P": [{flat}]}}'

    @staticmethod
    def from_json(text: str) -> "HeredityTensor":
        data = json.loads(text)
        m = int(data["m"])
        flat = np.asarray(data["P"], dtype=np.float64)
        if flat.shape != (m ** 3,):
            raise ValueError(f"expected {m ** 3} coefficients, got {flat.size}")
        return HeredityTensor(flat.reshape((m, m, m)))


# ---------------------------------------------------------------------------
# Application
# ---------------------------------------------------------------------------

def apply_array(T: HeredityTensor, x: np.ndarray, renormalize: bool = True) -> np.ndarray:
    """Raw image of one point (m,) or a batch (n, m) under the operator.

    With renormalize=True (default) each image row is rescaled to unit sum,
    matching what the SimplexPoint constructor would do; the defect is pure
    roundoff since the tensor rows are stochastic.
    """
    m = T.m
    flat = T.table.reshape(m * m, m)
    single = x.ndim == 1
    X = x[None, :] if single else x
    prods = (X[:, :, None] * X[:, None, :]).reshape(X.shape[0], m * m)
    out = prods @ flat
    if renormalize:
        out = out / out.sum(axis=1, keepdims=True)
    return out[0] if single else out


def apply(T: HeredityTensor, x: SimplexPoint) -> SimplexPoint:
    """Image of x under the quadratic operator defined by T."""
    if x.m != T.m:
        raise ValueError(f"dimension mismatch: tensor m={T.m}, point m={x.m}")
    return SimplexPoint(apply_array(T, x.coords, renormalize=False))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
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


@dataclass(frozen=True)
class TensorValidation:
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


@dataclass(frozen=True)
class VolterraCoefficients:
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
    a = 2.0 * np.diagonal(T.table, axis1=1, axis2=2).T - 1.0  # 2 P[i, k, k] - 1 at [k, i]
    np.fill_diagonal(a, 0.0)
    a.flags.writeable = False
    return VolterraCoefficients(T.m, a)


@dataclass(frozen=True)
class EllVolterraStructure:
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


def _first_witnesses(T: HeredityTensor, tol: float) -> np.ndarray:
    """first[k, c]: flat index i * m + j of the lexicographically first pair
    i <= j, both different from k, with P[i, j, c] > tol; -1 when there is
    none, that is when column c read as coordinate k is Volterra."""
    m = T.m
    r = np.arange(m)
    k, i, j = r[:, None, None], r[None, :, None], r[None, None, :]
    pairs = (i <= j) & (i != k) & (j != k)  # (k, i, j)
    feeds = (pairs[:, None] & (T.table.transpose(2, 0, 1) > tol)).reshape(m, m, m * m)
    return np.where(feeds.any(axis=2), feeds.argmax(axis=2), -1)


def _structure(first: np.ndarray, cols: np.ndarray) -> EllVolterraStructure:
    """The structure of the tensor whose coordinate k is column cols[k] of the scanned one."""
    m = len(cols)
    pick = first[np.arange(m), cols].tolist()
    vol = frozenset(k + 1 for k in range(m) if pick[k] < 0)
    wit = {k + 1: (f // m + 1, f % m + 1) for k, f in enumerate(pick) if f >= 0}
    return EllVolterraStructure(vol, wit, len(vol))


def ell_volterra_structure(T: HeredityTensor, tol: float = ZERO_TOL) -> EllVolterraStructure:
    """Scan every coordinate for the Volterra condition.

    With a zero threshold the two outcomes are an exact dichotomy: a
    coordinate either has all outside cross coefficients at zero, or it has a
    strictly positive witness pair.
    """
    return _structure(_first_witnesses(T, tol), np.arange(T.m))


def relabel_outputs(T: HeredityTensor, tau: Permutation) -> HeredityTensor:
    """The operator whose coordinate k equals coordinate tau(k) of T.

    Writing V for T's operator and W for the result: W(x)_k = V(x)_{tau(k)},
    i.e. V's outputs land in relabeled slots. Row stochasticity and symmetry
    are preserved.
    """
    if tau.m != T.m:
        raise ValueError("permutation size mismatch")
    idx = np.array(tau.image) - 1
    return HeredityTensor(T.table[:, :, idx])


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
    perms = Permutation.all_perms(T.m)
    cols = np.array([tau.image for tau in perms]) - 1  # (m!, m)
    ells = np.count_nonzero(first[np.arange(T.m), cols] < 0, axis=1)
    best = int(np.argmax(ells))  # the first maximum: all_perms is in lexicographic order
    if ells[best] == 0:
        return None
    return perms[best], _structure(first, cols[best])


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
