"""Points of the probability simplex: construction, support relations, sampling.

Coordinates are 1-based in the public API (vertex indices, supports), matching
the usual index-set convention I = {1..m}.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from .jsonio import dumps
from .rules import ZERO_TOL, json_floats, read_json, require_count, require_tol

# Negative coordinates no lower than -NEG_TOL are clamped to 0 on construction.
NEG_TOL = 1e-12
# Largest tolerated |sum - 1| before construction fails instead of rescaling.
SUM_TOL = 1e-9


class SimplexPoint:
    """An m-vector of nonnegative reals summing to 1.

    Construction clamps roundoff negatives in [-1e-12, 0] to zero and rescales
    to unit sum when the defect is at most 1e-9; anything worse is rejected.
    Instances are immutable and safe to share.
    """

    __slots__ = ("_coords",)

    @np.errstate(over="ignore")  # a sum that overflows is inf, which is rejected
    def __init__(self, coords: Iterable[float]):
        arr = np.array(list(coords) if not isinstance(coords, np.ndarray) else coords,
                       dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("coordinates must form a nonempty 1-d vector")
        low = arr.min()
        if low < -NEG_TOL:
            raise ValueError(f"negative coordinate {low} below -{NEG_TOL}")
        arr = np.where(arr < 0.0, 0.0, arr)
        s = arr.sum()
        if not abs(s - 1.0) <= SUM_TOL:  # also rejects NaN
            raise ValueError(f"coordinate sum {s} deviates from 1 by more than {SUM_TOL}")
        arr = arr / s
        arr.flags.writeable = False
        self._coords = arr

    @property
    def coords(self) -> np.ndarray:
        """Read-only coordinate array."""
        return self._coords

    @property
    def m(self) -> int:
        return self._coords.size

    def __len__(self) -> int:
        return self._coords.size

    def __iter__(self) -> Iterator[float]:
        return iter(self._coords.tolist())

    def __getitem__(self, i: int) -> float:
        return float(self._coords[i])

    def as_tuple(self) -> tuple[float, ...]:
        return tuple(self._coords.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplexPoint):
            return NotImplemented
        return self.m == other.m and bool(np.all(self._coords == other._coords))

    def __hash__(self) -> int:
        return hash(self.as_tuple())

    def __repr__(self) -> str:
        inner = ", ".join(format(c, ".6g") for c in self._coords)
        return f"SimplexPoint(({inner}))"

    def to_json(self) -> str:
        """JSON array with 17 significant digits (round-trip exact for float64)."""
        return dumps(self._coords.tolist())

    @staticmethod
    def from_json(text: str) -> "SimplexPoint":
        """The point of `to_json`'s form; any other text raises ValueError."""
        return SimplexPoint(json_floats(read_json(text), "a simplex point"))


@np.errstate(over="ignore")  # a sum that overflows is inf, which is rejected
def simplex_rows(X: np.ndarray) -> np.ndarray:
    """The rows of X (..., m) as `SimplexPoint` stores them, bit for bit; raises
    ValueError if the constructor would reject a row."""
    Y = np.where(X < 0.0, 0.0, X)
    s = Y.sum(axis=-1)
    if not (X.min() >= -NEG_TOL and np.abs(s - 1.0).max() <= SUM_TOL):  # NaN fails too
        raise ValueError("rows must be simplex points up to roundoff")
    return Y / s[..., None]


def vertex(i: int, m: int) -> SimplexPoint:
    """The i-th vertex e_i of the (m-1)-simplex (1-based)."""
    require_count("m", m, 1)
    require_count("vertex index", i, 1, m)
    arr = np.zeros(m)
    arr[i - 1] = 1.0
    return SimplexPoint(arr)


def support(x: SimplexPoint, tol: float = ZERO_TOL) -> frozenset[int]:
    """Indices of the coordinates of x that are nonzero beyond tol (1-based)."""
    require_tol(tol)
    return frozenset(int(i) + 1 for i in np.nonzero(x.coords > tol)[0])


def _check_dims(x: SimplexPoint, y: SimplexPoint) -> None:
    if x.m != y.m:
        raise ValueError(f"dimension mismatch: {x.m} vs {y.m}")


def equivalent(x: SimplexPoint, y: SimplexPoint) -> bool:
    """True when x and y have the same support."""
    _check_dims(x, y)
    return support(x) == support(y)


def singular(x: SimplexPoint, y: SimplexPoint) -> bool:
    """True when the supports of x and y are disjoint.

    For simplex points this coincides with a vanishing inner product.
    """
    _check_dims(x, y)
    return not (support(x) & support(y))


def l1_distance(x: SimplexPoint, y: SimplexPoint) -> float:
    _check_dims(x, y)
    return float(np.abs(x.coords - y.coords).sum())


def sample(m: int, seed: int, count: int) -> list[SimplexPoint]:
    """Deterministic uniform sample of `count` points of the (m-1)-simplex.

    Uses the sorted-uniform-gaps construction: m-1 ordered uniforms split
    [0, 1] into m gaps, which are exactly uniformly distributed on the
    simplex. Identical (m, seed, count) reproduce bit-identical output.
    """
    for name, value, low in (("m", m, 2), ("count", count, 1), ("seed", seed, 0)):
        require_count(name, value, low)
    return [SimplexPoint(g) for g in sample_with_rng(m, np.random.default_rng(seed), count)]


def sample_with_rng(m: int, rng: np.random.Generator, count: int = 1) -> np.ndarray:
    """Raw (count, m) array of uniform simplex rows drawn from an existing rng:
    the gaps between m - 1 sorted uniforms and the ends of [0, 1]."""
    return np.diff(np.sort(rng.random((count, m - 1)), axis=1), axis=1, prepend=0.0, append=1.0)
