"""Rules every layer shares, with no numpy: zero threshold, tolerances, intervals, counts, JSON,
and the frozen record."""

from __future__ import annotations

import json
import math
import sys
from numbers import Integral

# Coordinates at or below this threshold count as zero for support purposes.
# Iterates approach the boundary asymptotically, so exact-zero tests are useless.
ZERO_TOL = 1e-12


def require_tol(tol: float) -> None:
    """The one rule for tolerances: finite and >= 0 (0 asks for exact comparisons)."""
    if not 0.0 <= tol < math.inf:  # also rejects NaN
        raise ValueError("tol must be finite and >= 0")


def require_within(name: str, value: float, lo: float, hi: float) -> None:
    """The one rule for values in a closed interval [lo, hi]; NaN fails too."""
    if not lo <= value <= hi:
        raise ValueError(f"{name} {value} outside [{lo}, {hi}]")


def require_positive(name: str, value: float) -> None:
    """The one rule for stopping tolerances: 0 < value < inf; NaN fails too."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite")


def require_count(name: str, value, low: int, high: int | None = None) -> None:
    """The one rule for integer counts and indices: an Integral value >= low, and <= high
    when high is given (NaN, 2.5, "3", True fail)."""
    if not (isinstance(value, Integral) and not isinstance(value, bool) and value >= low
            and (high is None or value <= high)):
        raise ValueError(f"need an integer {name} >= {low}, got {value!r}" if high is None
                         else f"{name} must be {low}..{high}, got {value!r}")


def read_json(text: str):
    """json.loads, with deep nesting raised as the ValueError of any other bad text."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def json_floats(values, name: str) -> tuple[float, ...]:
    """The one rule for numbers read from JSON: `values` must be a list of JSON numbers,
    floats (NaN and Infinity too) and ints within float range, not bools or strings."""
    if not isinstance(values, list) or not all(
            type(v) is float or type(v) is int and abs(v) <= sys.float_info.max for v in values):
        raise ValueError(f"{name} must be a list of JSON numbers within float range")
    return tuple(map(float, values))


class Frozen:
    """Base of the immutable records. Defining a subclass compiles no code, unlike a
    frozen dataclass, and needs no module whose import loads `inspect`.

    The fields are the names the subclass annotates in its own body, in order; a class
    attribute of the same name is the field's default, and `positional=n` in the class
    statement makes the fields after the first n keyword-only. `__init__` binds them, then
    calls `__post_init__`. Equality (same class only), hash and repr read the field tuple, as
    the dataclass methods do; assigning or deleting an attribute raises AttributeError."""

    def __init_subclass__(cls, positional: int | None = None):
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._positional = len(cls._fields) if positional is None else positional

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if len(args) > cls._positional:
            raise TypeError(f"{cls.__name__}() takes {cls._positional} positional arguments "
                            f"but {len(args)} were given")
        values = dict(zip(cls._fields, args))
        for name in cls._fields[len(args):]:
            if name not in kwargs and name not in cls.__dict__:
                raise TypeError(f"{cls.__name__}() missing field {name!r}")
            values[name] = kwargs.pop(name) if name in kwargs else cls.__dict__[name]
        if kwargs:
            raise TypeError(f"{cls.__name__}() got an unexpected or repeated keyword argument "
                            f"{next(iter(kwargs))!r}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        """Checks or normalises the bound fields, through object.__setattr__."""

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = (f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
