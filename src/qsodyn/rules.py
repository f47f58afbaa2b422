"""Rules every layer shares, with no numpy: zero threshold, tolerances, intervals, counts, JSON."""

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
