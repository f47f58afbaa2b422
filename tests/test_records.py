"""`rules.Frozen`, the base of the qsodyn records, against frozen dataclass twins.

`_twins` defines each record twice in one scope, on `Frozen` and with
`dataclasses.dataclass(frozen=True)`, so both carry the same qualified name and
their repr text must match as it is.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from qsodyn.dynamics import CaseResult
from qsodyn.rules import Frozen


def _twins() -> dict:
    class Point(Frozen):
        x: float
        y: float = 0.0
        label: str = "p"

        def __post_init__(self):
            object.__setattr__(self, "label", self.label.upper())

    class Case(Frozen, positional=1):
        label: str
        steps: int
        tol: float = 1e-6

    records = Point, Case

    @dataclasses.dataclass(frozen=True)
    class Point:
        x: float
        y: float = 0.0
        label: str = "p"

        def __post_init__(self):
            object.__setattr__(self, "label", self.label.upper())

    @dataclasses.dataclass(frozen=True)
    class Case:
        label: str
        _: dataclasses.KW_ONLY
        steps: int
        tol: float = 1e-6

    return {"Point": (records[0], Point), "Case": (records[1], Case)}


TWINS = _twins()

CALLS = [  # positional, keyword and default calls
    ("Point", (1.5,), {}),
    ("Point", (1.5, -2.0), {}),
    ("Point", (1.5, -2.0, "q"), {}),
    ("Point", (), {"x": 1.5, "y": -2.0, "label": "q"}),
    ("Point", (1.5,), {"label": "q"}),
    ("Point", (2.5,), {"y": -2.0}),
    ("Case", ("a",), {"steps": 3}),
    ("Case", (), {"label": "a", "steps": 3}),
    ("Case", ("a",), {"tol": 0.5, "steps": 3}),
    ("Case", ("b",), {"steps": 3, "tol": 0.5}),
]

BAD_CALLS = [
    ("Point", (), {}),  # a missing field
    ("Point", (1.0,), {"z": 2.0}),  # an unknown keyword
    ("Point", (1.0, 2.0, "q", 4), {}),  # too many positional arguments
    ("Point", (1.0,), {"x": 2.0}),  # a field given twice
    ("Case", ("a", 3), {}),  # a keyword-only field passed by position
    ("Case", ("a",), {"tol": 0.5}),  # a missing keyword-only field
]


def _make(side: int, name: str, args: tuple, kwargs: dict):
    return TWINS[name][side](*args, **kwargs)


@pytest.mark.parametrize("name,args,kwargs", CALLS, ids=repr)
def test_a_record_matches_its_dataclass_twin(name, args, kwargs):
    record, twin = _make(0, name, args, kwargs), _make(1, name, args, kwargs)
    assert repr(record) == repr(twin)
    assert hash(record) == hash(twin)
    assert vars(record) == vars(twin)  # the fields, after __post_init__
    assert record == _make(0, name, args, kwargs)
    assert record != twin and twin != record  # equal only within one class
    assert record.__eq__(twin) is NotImplemented


def test_equality_follows_the_fields_as_in_the_twin():
    for (c1, c2) in itertools.product(CALLS, repeat=2):
        assert (_make(0, *c1) == _make(0, *c2)) == (_make(1, *c1) == _make(1, *c2)), (c1, c2)
        assert (_make(0, *c1) != _make(0, *c2)) == (_make(1, *c1) != _make(1, *c2)), (c1, c2)


@pytest.mark.parametrize("side", [0, 1], ids=["Frozen", "dataclass"])
@pytest.mark.parametrize("name,args,kwargs", BAD_CALLS, ids=repr)
def test_bad_calls_raise_type_error(side, name, args, kwargs):
    with pytest.raises(TypeError):
        _make(side, name, args, kwargs)


@pytest.mark.parametrize("side", [0, 1], ids=["Frozen", "dataclass"])
def test_fields_cannot_be_assigned_or_deleted(side):
    point = _make(side, "Point", (1.0,), {})
    with pytest.raises(AttributeError):
        point.x = 2.0
    with pytest.raises(AttributeError):
        point.z = 2.0
    with pytest.raises(AttributeError):
        del point.x
    assert vars(point) == {"x": 1.0, "y": 0.0, "label": "P"}


def test_case_result_columns_are_keyword_only():
    columns = np.zeros((1, 3)), np.zeros((1, 1, 3)), np.zeros(1, dtype=np.int64), np.zeros(1)
    case = CaseResult("c", 1e-6, 10, kind="point", x0=columns[0], predicted=columns[1],
                      steps=columns[2], distance=columns[3])
    assert case.label == "c" and case.kind == "point"
    with pytest.raises(TypeError, match="takes 3 positional arguments but 8 were given"):
        CaseResult("c", 1e-6, 10, "point", *columns)
