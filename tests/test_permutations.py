"""Tests for the permutation helper type."""

import math
import re

import numpy as np
import pytest

from qsodyn.permutations import Permutation


def test_identity():
    p = Permutation.identity(3)
    assert p.is_identity()
    assert [p(i) for i in (1, 2, 3)] == [1, 2, 3]


def test_invalid():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError):
        Permutation((0, 1, 2))


@pytest.mark.parametrize("image,bad", [
    ((1, 2.7), 2.7), ((True, 2), True), (("2", "1"), "2"), ((1, math.inf), math.inf),
    ((1, math.nan), math.nan), ((1.0, 2.0), 1.0), ((0, 1), 0), ((1, 3), 3)], ids=repr)
def test_entries_must_be_integers_in_range(image, bad):
    with pytest.raises(ValueError, match=f"^{re.escape(f'image entry must be 1..2, got {bad!r}')}$"):
        Permutation(image)


def test_numpy_integer_entries_become_ints():
    p = Permutation(tuple(np.array([2, 3, 1])))
    assert p.image == (2, 3, 1) and all(type(i) is int for i in p.image)


def test_sizes_must_agree():
    with pytest.raises(ValueError, match="^size mismatch$"):
        Permutation((2, 1)).compose(Permutation.identity(3))
    with pytest.raises(ValueError, match="^size mismatch$"):
        Permutation((2, 1)).permute_vector([0.2, 0.3, 0.5])


def test_inverse_and_compose():
    p = Permutation((2, 3, 1))
    q = p.inverse()
    assert p.compose(q).is_identity()
    assert q.compose(p).is_identity()
    r = Permutation((1, 3, 2))
    composed = p.compose(r)  # p(r(i))
    assert tuple(composed(i) for i in (1, 2, 3)) == (p(r(1)), p(r(2)), p(r(3)))


def test_permute_vector():
    p = Permutation((2, 3, 1))
    v = np.array([10.0, 20.0, 30.0])
    assert p.permute_vector(v).tolist() == [20.0, 30.0, 10.0]


def test_cycle_string():
    assert Permutation((1, 3, 2)).cycle_string() == "(1)(2 3)"
    assert Permutation((2, 3, 1)).cycle_string() == "(1 2 3)"
    assert Permutation.identity(2).cycle_string() == "(1)(2)"


def test_all_perms_lexicographic():
    perms = Permutation.all_perms(3)
    assert len(perms) == 6
    images = [p.image for p in perms]
    assert images == sorted(images)
    assert perms[0].is_identity()
