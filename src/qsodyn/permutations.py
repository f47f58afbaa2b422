"""Permutations of the index set {1..m}."""

from __future__ import annotations

import itertools
from typing import Sequence

from .rules import Frozen, require_count

class Permutation(Frozen):
    """A bijection of {1..m}, stored as its image tuple (p(1), ..., p(m))."""

    image: tuple[int, ...]

    def __post_init__(self):
        m = len(self.image)
        for i in self.image:  # numpy integers pass; 2.7, True and "2" do not
            require_count("image entry", i, 1, m)
        object.__setattr__(self, "image", tuple(map(int, self.image)))
        if sorted(self.image) != list(range(1, m + 1)):
            raise ValueError(f"not a permutation of 1..{m}: {self.image!r}")

    @property
    def m(self) -> int:
        return len(self.image)

    def __call__(self, i: int) -> int:
        return self.image[i - 1]

    def is_identity(self) -> bool:
        return all(self.image[i] == i + 1 for i in range(self.m))

    def inverse(self) -> "Permutation":
        inv = [0] * self.m
        for i, target in enumerate(self.image, start=1):
            inv[target - 1] = i
        return Permutation(tuple(inv))

    def compose(self, other: "Permutation") -> "Permutation":
        """Composition: (p.compose(q))(i) == p(q(i))."""
        if other.m != self.m:
            raise ValueError("size mismatch")
        return Permutation(tuple(self(other(i)) for i in range(1, self.m + 1)))

    def permute_vector(self, v: Sequence[float]):
        """Coordinate relabeling (v[p(1)], ..., v[p(m)]) with 1-based p, as an ndarray."""
        import numpy as np  # the one array method here; the rest runs without numpy

        arr = np.asarray(v)
        if arr.shape[-1] != self.m:
            raise ValueError("size mismatch")
        idx = np.array(self.image) - 1
        return arr[..., idx]

    def cycle_string(self) -> str:
        """Cycle notation, fixed points included, e.g. '(1)(2 3)'."""
        seen: set[int] = set()
        parts = []
        for start in range(1, self.m + 1):
            if start not in seen:  # each cycle is written from its least element
                cyc = [start]
                while self(cyc[-1]) != start:
                    cyc.append(self(cyc[-1]))
                seen.update(cyc)
                parts.append("(" + " ".join(map(str, cyc)) + ")")
        return "".join(parts)

    @staticmethod
    def identity(m: int) -> "Permutation":
        require_count("m", m, 0)
        return Permutation(tuple(range(1, m + 1)))

    @staticmethod
    def all_perms(m: int) -> list["Permutation"]:
        """All m! permutations in lexicographic order of their image tuples."""
        require_count("m", m, 0)
        return [Permutation(p) for p in itertools.permutations(range(1, m + 1))]
