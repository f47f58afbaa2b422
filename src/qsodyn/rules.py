"""Rules every layer shares, with no numpy: the zero threshold and the integer-count rule."""

from __future__ import annotations

from numbers import Integral

# Coordinates at or below this threshold count as zero for support purposes.
# Iterates approach the boundary asymptotically, so exact-zero tests are useless.
ZERO_TOL = 1e-12


def require_count(name: str, value, low: int) -> None:
    """The one rule for integer counts: an Integral value >= low (NaN, inf, 2.5, "3" fail)."""
    if not (isinstance(value, Integral) and value >= low):
        raise ValueError(f"need an integer {name} >= {low}, got {value!r}")
