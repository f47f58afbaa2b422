"""Limit behavior of catalog operators: orbits, fixed points, 2-cycles.

Four catalog entries (ids 4, 13, 25, 28) have fully worked-out limit sets
with closed-form coordinates. This module provides

* generic orbit machinery (iterate, omega-limit classification) usable with
  any heredity tensor,
* the closed-form fixed points and 2-periodic points of the four analyzed
  operators, including the parametric families that appear at a = 1/2,
* an independent numeric fixed-point oracle (damped iteration over a
  barycentric seed grid plus bisection along invariant edges),
* per-initial-point limit predictions and a batch verifier that measures
  how close orbits come to their predicted limit sets.

Everything is deterministic given explicit seeds; there is no hidden state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .operators import HeredityTensor, apply, apply_array
from .catalog import operator_tensor
from .simplex import SimplexPoint, ZERO_TOL, sample_with_rng, vertex

#: Catalog ids whose limit behavior has closed-form predictions here.
ANALYZED_OPS = (4, 13, 25, 28)

#: Supremum of the slice parameter carrying genuine 2-cycles for operator 4
#: at a = 1/2: the discriminant 4c^2 - 8c + 1 vanishes at (2 - sqrt(3)) / 2.
CYCLE_PARAM_SUP = (2.0 - math.sqrt(3.0)) / 2.0

#: Initial points closer than this (l1) to a fixed/2-periodic set are
#: excluded from verification sampling; the predictions assume the orbit
#: does not start on those sets.
EXCLUSION_RADIUS = 1e-9

# Default stopping tolerances. Hyperbolic parameters contract geometrically;
# at a = 1/2 the approach to the limit families can be sub-geometric, so the
# budget is larger and the tolerance looser.
DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 10 ** 5
BALANCED_TOL = 1e-6
BALANCED_MAX_ITER = 10 ** 6

# Verification defaults by prediction type (vertex targets vs curve targets).
VERIFY_POINT_TOL = 1e-6
VERIFY_POINT_MAX_ITER = 10 ** 5
VERIFY_CURVE_TOL = 1e-4
VERIFY_CURVE_MAX_ITER = 10 ** 6


# ---------------------------------------------------------------------------
# The scalar coordinate map
# ---------------------------------------------------------------------------

def scalar_map(x: float, a: float) -> float:
    """The interval map x^2 + 2 a x (1 - x) driving single coordinates.

    For a < 1/2 every interior orbit decreases to 0, for a > 1/2 it increases
    to 1; a = 1/2 gives the identity.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"argument {x} outside [0, 1]")
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"parameter {a} outside [0, 1]")
    return x * x + 2.0 * a * x * (1.0 - x)


def regime(a: float) -> str:
    """Parameter regime of the analyzed operators: "below", "balanced" or "above".

    The scalar map drifts interior points down to 0 for a < 1/2 and up to 1
    for a > 1/2; at a = 1/2 it is the identity and the finite limit sets of
    the analyzed operators grow into curve families. This is the one place
    that compares a with 1/2 (exactly); it rejects a outside [0, 1],
    NaN included.
    """
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"parameter {a} outside [0, 1]")
    if a == 0.5:
        return "balanced"
    return "below" if a < 0.5 else "above"


@dataclass(frozen=True)
class ScalarMapReport:
    a: float
    grid_size: int
    endpoints_fixed: bool
    monotone: bool
    sign_property: bool
    orbits_converged: bool
    orbit_max_steps: int
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def scalar_map_report(
    a: float,
    grid: Optional[Sequence[float]] = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> ScalarMapReport:
    """Audit the scalar map on a grid: endpoint fixed points, monotonicity,
    the drift sign (a - 1/2)(f(x) - x) > 0 on the interior, and convergence
    of every interior grid orbit to the predicted endpoint."""
    side = regime(a)
    if side == "balanced":
        raise ValueError("a = 1/2 gives the identity map; nothing to audit")
    xs = np.asarray(grid if grid is not None else np.linspace(0.0, 1.0, 101), dtype=float)
    xs = np.sort(xs)
    failures: list[str] = []

    fx = xs * xs + 2.0 * a * xs * (1.0 - xs)
    endpoints = scalar_map(0.0, a) == 0.0 and scalar_map(1.0, a) == 1.0
    if not endpoints:
        failures.append("endpoints are not fixed")

    monotone = bool(np.all(np.diff(fx) >= -1e-15))
    if not monotone:
        failures.append("map not monotone on grid")

    interior = (xs > 0.0) & (xs < 1.0)
    drift = (a - 0.5) * (fx[interior] - xs[interior])
    sign_ok = bool(np.all(drift > 0.0))
    if not sign_ok:
        failures.append("drift sign property violated on interior grid")

    target = 0.0 if side == "below" else 1.0
    steps, _ = _iterate_until(lambda x: x * x + 2.0 * a * x * (1.0 - x), xs[interior], max_iter,
                              lambda cur, nxt: (np.abs(nxt - target) <= tol, nxt))
    missed = int(np.count_nonzero(steps < 0))
    if missed:
        failures.append(f"{missed} orbits missed {target} within {max_iter} steps")

    return ScalarMapReport(a, xs.size, endpoints, monotone, sign_ok, not missed,
                           int(steps.max(initial=0)), tuple(failures))


# ---------------------------------------------------------------------------
# Orbits and omega-limit classification
# ---------------------------------------------------------------------------

def iterate(T: HeredityTensor, x0: SimplexPoint, n: int) -> list[SimplexPoint]:
    """The orbit segment x^(0), ..., x^(n); each step renormalizes roundoff."""
    if n < 0:
        raise ValueError("need n >= 0")
    out = [x0]
    cur = x0
    for _ in range(n):
        cur = apply(T, cur)
        out.append(cur)
    return out


@dataclass(frozen=True)
class Outcome:
    """Orbit classification: a fixed point, a 2-cycle, or undecided."""

    kind: str  # "fixed_point" | "two_cycle" | "undecided"
    points: tuple[SimplexPoint, ...]


@dataclass(frozen=True)
class TrajectoryReport:
    initial: SimplexPoint
    iterates_kept: tuple[tuple[int, SimplexPoint], ...]
    steps: int
    outcome: Outcome
    final_residuals: tuple[float, float]

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "initial": list(self.initial),
            "steps": self.steps,
            "outcome": {
                "kind": self.outcome.kind,
                "points": [list(p) for p in self.outcome.points],
            },
            # The two-step residual is inf at step 1 and is written as null.
            "final_residuals": [None if math.isinf(r) else r for r in self.final_residuals],
            "iterates_kept": [
                {"step": s, "x": list(p)} for s, p in self.iterates_kept
            ],
        }


def omega_limit(
    T: HeredityTensor,
    x0: SimplexPoint,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> TrajectoryReport:
    """Iterate until a fixed point or a 2-cycle is detected, or give up.

    A fixed point requires the one-step residual to fall to tol. A 2-cycle
    requires the two-step residual to fall to tol while the one-step residual
    stays above 10 tol, so slowly converging fixed points are not mistaken
    for cycles. Hitting max_iter yields outcome "undecided", which never
    asserts convergence.

    Kept iterates: every step up to 100, then geometrically spaced samples,
    plus the final state.

    This one-orbit loop is kept apart from the batched `_iterate_until` for
    two measured reasons (OpenBLAS 0.3.31, 2-vCPU Xeon). A one-row matrix
    product and a batched one differ in the last bit: on the five benchmark
    `simulate` (op, a) pairs, 300 rows and 200 steps, 49,619 of 300,000
    batched row-steps differed, so `simulate --count N` cannot run as one
    batch. And one orbit run through the batch loop with a vectorized stop
    test took 8.3-9.9 us per step against 5.6-6.6 us here.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    cur = x0.coords
    prev: Optional[np.ndarray] = None
    kept: list[tuple[int, np.ndarray]] = [(0, cur)]
    next_keep = 1
    d1 = math.inf
    d2 = math.inf
    outcome = Outcome("undecided", ())
    steps = 0
    for t in range(1, max_iter + 1):
        nxt = apply_array(T, cur)
        steps = t
        d1 = float(np.abs(nxt - cur).sum())
        d2 = float(np.abs(nxt - prev).sum()) if prev is not None else math.inf
        keep = t <= 100 or t >= next_keep
        if keep:
            kept.append((t, nxt))
            if t > 100:
                next_keep = max(t + 1, math.ceil(next_keep * 1.25))
            else:
                next_keep = max(next_keep, 101)
        if d1 <= tol:
            outcome = Outcome("fixed_point", (SimplexPoint(nxt),))
            if not keep:
                kept.append((t, nxt))
            prev, cur = cur, nxt
            break
        if d2 <= tol and d1 > 10.0 * tol:
            outcome = Outcome("two_cycle", (SimplexPoint(cur), SimplexPoint(nxt)))
            if not keep:
                kept.append((t, nxt))
            prev, cur = cur, nxt
            break
        prev, cur = cur, nxt
    else:
        if kept[-1][0] != steps:
            kept.append((steps, cur))
    return TrajectoryReport(
        initial=x0,
        iterates_kept=tuple((s, SimplexPoint(arr)) for s, arr in kept),
        steps=steps,
        outcome=outcome,
        final_residuals=(d1, d2),
    )


def trajectory_csv(report: TrajectoryReport) -> str:
    """CSV of the kept iterates with ternary plot coordinates.

    Columns: step, x1, x2, x3, u, v with u = x2 + x3/2 and v = (sqrt(3)/2) x3.
    """
    half_sqrt3 = math.sqrt(3.0) / 2.0
    lines = ["step,x1,x2,x3,u,v"]
    for step, p in report.iterates_kept:
        x1, x2, x3 = p.coords
        u = x2 + x3 / 2.0
        v = half_sqrt3 * x3
        nums = ",".join(format(val, ".17g") for val in (x1, x2, x3, u, v))
        lines.append(f"{step},{nums}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Closed-form coordinates
# ---------------------------------------------------------------------------

def slice_fixed_height(b: float) -> float:
    """Second coordinate of the fixed point on the invariant slice x1 = b.

    The smaller root of x^2 - (3 - 2b) x + (1 - b) = 0; it lies in [0, 1 - b]
    for b in [0, 1]. Applies to operator 4 at a = 1/2, whose fixed points form
    the curve (b, h, 1 - b - h) with h this value.
    """
    if not 0.0 <= b <= 1.0:
        raise ValueError(f"slice parameter {b} outside [0, 1]")
    return (3.0 - 2.0 * b - math.sqrt(4.0 * b * b - 8.0 * b + 5.0)) / 2.0


def slice_cycle_heights(c: float) -> tuple[float, float]:
    """The two 2-cycle second coordinates on the slice x1 = c.

    Roots of x^2 - (1 - 2c) x + c = 0, real for c up to CYCLE_PARAM_SUP,
    returned as (low, high). Operator 4 at a = 1/2 exchanges the two points
    (c, h, 1 - c - h) built from them.
    """
    if not 0.0 <= c <= CYCLE_PARAM_SUP + 1e-15:
        raise ValueError(f"slice parameter {c} outside [0, {CYCLE_PARAM_SUP}]")
    disc = max(4.0 * c * c - 8.0 * c + 1.0, 0.0)
    r = math.sqrt(disc)
    return ((1.0 - 2.0 * c - r) / 2.0, (1.0 - 2.0 * c + r) / 2.0)


def edge_fixed_height(a: float) -> float:
    """Second coordinate of the edge fixed point (0, h, 1 - h) of operator 28.

    The root in [0, 1] of (1 - x)^2 + 2 a x (1 - x) = x, evaluated in the
    cancellation-free form 2 / (3 - 2a + sqrt(4 + (2a - 1)^2)); at a = 1/2 it
    continuously takes the value 1/2.
    """
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"parameter {a} outside [0, 1]")
    return 2.0 / (3.0 - 2.0 * a + math.sqrt(4.0 + (2.0 * a - 1.0) ** 2))


# ---------------------------------------------------------------------------
# Exact limit sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurveFamily:
    """A one-parameter family of simplex points, e.g. a curve of fixed points."""

    label: str
    lo: float
    hi: float
    point_at: Callable[[float], SimplexPoint]
    include_hi: bool = True
    exclude_params: tuple[float, ...] = ()

    def sample(self, n: int) -> list[SimplexPoint]:
        """n parameter values spread over the range (excluded values dropped)."""
        if n < 1:
            return []
        if self.include_hi:
            ts = np.linspace(self.lo, self.hi, n)
        else:
            ts = self.lo + (self.hi - self.lo) * np.arange(n) / n
        out = []
        for t in ts:
            if any(abs(t - e) <= 1e-12 for e in self.exclude_params):
                continue
            out.append(self.point_at(float(t)))
        return out


@dataclass(frozen=True)
class PointSet:
    """A finite point set, possibly extended by parametric curve families."""

    points: tuple[SimplexPoint, ...] = ()
    curves: tuple[CurveFamily, ...] = ()

    @property
    def is_empty(self) -> bool:
        return not self.points and not self.curves

    def sample(self, curve_samples: int = 50) -> list[SimplexPoint]:
        out = list(self.points)
        for curve in self.curves:
            out.extend(curve.sample(curve_samples))
        return out

    def min_l1_distance(self, x) -> float:
        """Distance from x to the set (curve closures included)."""
        arr = x.coords if isinstance(x, SimplexPoint) else np.asarray(x, dtype=float)
        best = math.inf
        for p in self.points:
            best = min(best, float(np.abs(p.coords - arr).sum()))
        for curve in self.curves:
            best = min(best, _curve_min_distance(curve, arr))
        return best


def _curve_min_distance(curve: CurveFamily, arr: np.ndarray) -> float:
    """Coarse scan plus golden-section refinement of the l1 distance."""
    ts = np.linspace(curve.lo, curve.hi, 257)
    dists = [float(np.abs(curve.point_at(float(t)).coords - arr).sum()) for t in ts]
    i = int(np.argmin(dists))
    lo = ts[max(i - 1, 0)]
    hi = ts[min(i + 1, len(ts) - 1)]
    phi = (math.sqrt(5.0) - 1.0) / 2.0

    def g(t: float) -> float:
        return float(np.abs(curve.point_at(t).coords - arr).sum())

    b, d = lo + (1 - phi) * (hi - lo), lo + phi * (hi - lo)
    gb, gd = g(b), g(d)
    for _ in range(80):
        if gb <= gd:
            hi, d, gd = d, b, gb
            b = lo + (1 - phi) * (hi - lo)
            gb = g(b)
        else:
            lo, b, gb = b, d, gd
            d = lo + phi * (hi - lo)
            gd = g(d)
    return min(dists[i], gb, gd)


def _edge_point(zero: int, u: float) -> np.ndarray:
    """The point of the edge x[zero] = 0 (0-based) with u, 1 - u on the other two coordinates."""
    p = np.zeros(3)
    i, j = (1, 2) if zero == 0 else (0, 3 - zero)
    p[i], p[j] = u, 1.0 - u
    return p


def _edge_curve(zero_index: int, label: str, **kwargs) -> CurveFamily:
    """The simplex edge x_{zero_index} = 0 parameterized by the next coordinate."""
    return CurveFamily(label, 0.0, 1.0,
                       lambda t: SimplexPoint(_edge_point(zero_index - 1, t)), **kwargs)


def _slice_point(c: float, h: float) -> SimplexPoint:
    return SimplexPoint((c, h, 1.0 - c - h))


# Operator 4 at a = 1/2: the slice fixed curve and the two 2-cycle branches.
_SLICE_FIXED = CurveFamily("slice fixed curve", 0.0, 1.0,
                           lambda b: _slice_point(b, slice_fixed_height(b)))
_SLICE_CYCLE_LOW = CurveFamily(
    "slice cycle, low branch", 0.0, CYCLE_PARAM_SUP,
    lambda c: _slice_point(c, slice_cycle_heights(c)[0]), include_hi=False)
_SLICE_CYCLE_HIGH = CurveFamily(
    "slice cycle, high branch", 0.0, CYCLE_PARAM_SUP,
    lambda c: _slice_point(c, slice_cycle_heights(c)[1]), include_hi=False)


# ---------------------------------------------------------------------------
# The limit-case table: one entry per (operator, regime)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Branch:
    """One case of a limit analysis: orbits starting where `holds` is true
    converge to `target(x0)`, a point or an unordered 2-cycle."""

    label: str  # condition on x(0), e.g. "x1(0) != 0"
    target_text: str  # e.g. "e1"
    holds: Callable[[np.ndarray], bool]
    draw: Callable[[np.random.Generator], np.ndarray]  # initial points for verification
    kind: str  # "point" | "cycle"
    target: Callable[[np.ndarray], tuple[SimplexPoint, ...]]
    continuum: bool = False  # target lies on a parametric family


def _case(label: str, target_text: str, holds, kind: str, target, continuum: bool = False,
          draw=None) -> _Branch:
    """A branch whose starts are interior draws satisfying `holds`, unless `draw` is given."""
    def interior(rng: np.random.Generator) -> np.ndarray:
        while True:
            p = sample_with_rng(3, rng, 1)[0]
            if holds(p):
                return p

    return _Branch(label, target_text, holds, draw or interior, kind, target, continuum)


def _off_edge(i: int, target_text: str, *points: SimplexPoint) -> _Branch:
    """x_i(0) != 0 -> a vertex or a 2-cycle of vertices."""
    return _case(f"x{i}(0) != 0", target_text, lambda x: x[i - 1] > ZERO_TOL,
                 "cycle" if len(points) == 2 else "point", lambda x: points)


def _on_edge(i: int, target_text: str, *points: SimplexPoint) -> _Branch:
    """x_i(0) = 0 -> a vertex or a 2-cycle of vertices; starts drawn on that edge."""
    return _case(f"x{i}(0) = 0", target_text, lambda x: x[i - 1] <= ZERO_TOL,
                 "cycle" if len(points) == 2 else "point", lambda x: points,
                 draw=lambda rng: _edge_point(i - 1, rng.random()))


@dataclass(frozen=True)
class _LimitTable:
    """Exact fixed and 2-periodic sets of one (operator, regime), plus the
    case branches for every other start, in verification order."""

    fixed: PointSet
    periodic2: PointSet
    branches: tuple[_Branch, ...]

    def excluded(self, x) -> Optional[str]:
        """Name of the exact set within EXCLUSION_RADIUS of x, if any."""
        if self.fixed.min_l1_distance(x) <= EXCLUSION_RADIUS:
            return "fixed-point"
        if not self.periodic2.is_empty and self.periodic2.min_l1_distance(x) <= EXCLUSION_RADIUS:
            return "2-periodic"
        return None


E1, E2, E3 = vertex(1, 3), vertex(2, 3), vertex(3, 3)
_VERTICES = PointSet(points=(E1, E2, E3))
_VERTEX_CYCLE = PointSet(points=(E2, E3))
_OP4_FIXED = PointSet(points=(E1, _SLICE_FIXED.point_at(0.0)))


def _op13_balanced(a: float) -> _LimitTable:
    edge = _edge_curve(2, "edge x2 = 0")
    line = CurveFamily("x1 = x3 segment", 0.0, 0.5,
                       lambda t: SimplexPoint((t, 1.0 - 2.0 * t, t)))
    return _LimitTable(PointSet(curves=(edge, line)), PointSet(), (
        _case("x1(0) > 1/2", "(x1, 0, 1 - x1)", lambda x: x[0] > 0.5, "point",
              lambda x: (edge.point_at(float(x[0])),), continuum=True),
        _case("x1(0) <= 1/2", "(x1, 1 - 2 x1, x1)", lambda x: x[0] <= 0.5, "point",
              lambda x: (line.point_at(float(x[0])),), continuum=True),
    ))


def _op4_balanced(a: float) -> _LimitTable:
    return _LimitTable(
        PointSet(curves=(_SLICE_FIXED,)), PointSet(curves=(_SLICE_CYCLE_LOW, _SLICE_CYCLE_HIGH)), (
            _case("x1(0) < cycle sup", "slice 2-cycle", lambda x: x[0] < CYCLE_PARAM_SUP, "cycle",
                  lambda x: (_SLICE_CYCLE_LOW.point_at(float(x[0])),
                             _SLICE_CYCLE_HIGH.point_at(float(x[0]))), continuum=True),
            _case("x1(0) >= cycle sup", "slice fixed point", lambda x: x[0] >= CYCLE_PARAM_SUP,
                  "point", lambda x: (_SLICE_FIXED.point_at(float(x[0])),), continuum=True),
        ))


def _op28_fixed(a: float) -> PointSet:
    return PointSet(points=(E1, SimplexPoint(_edge_point(0, edge_fixed_height(a)))))


def _op28_off_balance(a: float) -> _LimitTable:
    return _LimitTable(_op28_fixed(a), _VERTEX_CYCLE, (
        _on_edge(1, "cycle {e2, e3}", E2, E3), _off_edge(1, "e1", E1)))


_TABLES: dict[tuple[int, str], Callable[[float], _LimitTable]] = {
    (13, "below"): lambda a: _LimitTable(
        _VERTICES, PointSet(), (_off_edge(2, "e2", E2), _on_edge(2, "e3", E3))),
    (13, "balanced"): _op13_balanced,
    (13, "above"): lambda a: _LimitTable(
        _VERTICES, PointSet(), (_off_edge(1, "e1", E1), _on_edge(1, "e2", E2))),
    # Below 1/2 only the exact sets of operator 4 are known: no start has a covered prediction.
    (4, "below"): lambda a: _LimitTable(_OP4_FIXED, _VERTEX_CYCLE, ()),
    (4, "balanced"): _op4_balanced,
    (4, "above"): lambda a: _LimitTable(_OP4_FIXED, _VERTEX_CYCLE, (
        _off_edge(1, "e1", E1), _on_edge(1, "cycle {e2, e3}", E2, E3))),
    (28, "below"): _op28_off_balance,
    (28, "balanced"): lambda a: _LimitTable(_op28_fixed(a), PointSet(curves=(
        _edge_curve(1, "edge x1 = 0 (minus its midpoint)", exclude_params=(0.5,)),)),
        (_off_edge(1, "e1", E1),)),
    (28, "above"): _op28_off_balance,
    (25, "below"): lambda a: _LimitTable(
        _VERTICES, PointSet(), (_on_edge(1, "e3", E3), _off_edge(1, "e1", E1))),
    (25, "balanced"): lambda a: _LimitTable(
        PointSet(points=(E1,), curves=(_edge_curve(1, "edge x1 = 0"),)), PointSet(),
        (_off_edge(1, "e1", E1),)),
    (25, "above"): lambda a: _LimitTable(
        _VERTICES, PointSet(), (_on_edge(1, "e2", E2), _off_edge(1, "e1", E1))),
}


def _require_analyzed(op_id: int) -> None:
    if op_id not in ANALYZED_OPS:
        raise ValueError(f"operator {op_id} is not one of the analyzed ids {ANALYZED_OPS}")


def _limit_table(op_id: int, a: float, covered: bool = False) -> _LimitTable:
    """The table entry of (op_id, regime(a)); with covered=True it must carry predictions."""
    _require_analyzed(op_id)
    table = _TABLES[op_id, regime(a)](a)
    if covered and not table.branches:
        raise ValueError(f"operator {op_id} has no covered limit prediction for a < 1/2")
    return table


def fixed_points_exact(op_id: int, a: float) -> PointSet:
    """Closed-form fixed point set of an analyzed operator at parameter a.

    Finite at generic a; at a = 1/2 three of the operators develop curves of
    fixed points, returned as parametric families.
    """
    return _limit_table(op_id, a).fixed


def periodic2_exact(op_id: int, a: float) -> PointSet:
    """Closed-form set of genuinely 2-periodic points (period exactly 2).

    Empty for operators 13 and 25: their first coordinate moves strictly
    monotonically off the invariant edges, which rules out periodic returns,
    and the edge restrictions have only fixed points.
    """
    return _limit_table(op_id, a).periodic2


# ---------------------------------------------------------------------------
# Numeric fixed-point oracle
# ---------------------------------------------------------------------------

def fixed_points_numeric(
    T: HeredityTensor,
    grid_n: int = 50,
    refine_tol: float = 1e-10,
) -> list[SimplexPoint]:
    """Fixed points found from scratch, independently of any closed form.

    Seeds a barycentric grid of resolution grid_n, runs the damped iteration
    x <- x + (V(x) - x) / 2 from every seed (damping turns 2-cycles into
    transients and stabilizes moderately repelling fixed points), checks the
    three vertices directly, and bisects the 1-d fixed-point equations along
    invariant edges to catch boundary roots repelling in every damped
    direction. Results are deduplicated with l1 radius 10 * refine_tol and
    reported sorted lexicographically.
    """
    if T.m != 3:
        raise ValueError("the oracle is implemented for the 2-simplex (m = 3)")
    if grid_n < 10:
        raise ValueError("need grid_n >= 10")

    seeds = []
    for i in range(grid_n + 1):
        for j in range(grid_n + 1 - i):
            seeds.append((i / grid_n, j / grid_n, (grid_n - i - j) / grid_n))
    X = np.array(seeds, dtype=float)
    X = X / X.sum(axis=1, keepdims=True)

    # The whole batch stops at once, not row by row as in `_iterate_until`:
    # that would change which candidates this independent oracle reports.
    for _ in range(4096):
        V = apply_array(T, X)
        step = 0.5 * (V - X)
        X = X + step
        X = X / X.sum(axis=1, keepdims=True)
        if np.max(np.abs(step).sum(axis=1)) < 0.1 * refine_tol:
            break

    residuals = np.abs(apply_array(T, X) - X).sum(axis=1)
    candidates = [(float(residuals[i]), X[i]) for i in range(X.shape[0])
                  if residuals[i] <= refine_tol]

    for i in range(1, 4):
        v = vertex(i, 3).coords
        r = float(np.abs(apply_array(T, v) - v).sum())
        if r <= refine_tol:
            candidates.append((r, v))

    candidates.extend(_edge_fixed_candidates(T, refine_tol))

    accepted: list[np.ndarray] = []
    for _, arr in sorted(candidates, key=lambda c: (c[0], tuple(c[1]))):
        if all(float(np.abs(arr - b).sum()) > 10.0 * refine_tol for b in accepted):
            accepted.append(arr)
    accepted.sort(key=lambda arr: tuple(arr))
    return [SimplexPoint(arr) for arr in accepted]


def _edge_fixed_candidates(T: HeredityTensor, refine_tol: float) -> list[tuple[float, np.ndarray]]:
    """Bisection roots of the edge-restricted fixed-point equations."""
    out: list[tuple[float, np.ndarray]] = []
    for zero in range(3):
        free = 1 if zero == 0 else 0  # the coordinate _edge_point sets to u
        probe = np.linspace(0.0, 1.0, 33)
        if max(float(apply_array(T, _edge_point(zero, u))[zero]) for u in probe) > ZERO_TOL:
            continue  # edge not invariant; no boundary roots to recover here

        def f(u: float) -> float:
            return float(apply_array(T, _edge_point(zero, u))[free]) - u

        us = np.linspace(0.0, 1.0, 1025)
        vals = np.array([f(u) for u in us])
        for u, val in zip(us, vals):
            if abs(val) <= refine_tol:
                p = _edge_point(zero, float(u))
                out.append((float(np.abs(apply_array(T, p) - p).sum()), p))
        for i in range(len(us) - 1):
            if vals[i] == 0.0 or vals[i] * vals[i + 1] > 0.0:
                continue
            lo, hi = float(us[i]), float(us[i + 1])
            flo = vals[i]
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                fm = f(mid)
                if fm == 0.0:
                    lo = hi = mid
                    break
                if flo * fm < 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            p = _edge_point(zero, 0.5 * (lo + hi))
            r = float(np.abs(apply_array(T, p) - p).sum())
            if r <= refine_tol:
                out.append((r, p))
    return out


# ---------------------------------------------------------------------------
# Regions of the 2-simplex
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegionTag:
    """Most specific region of the 2-simplex containing a point.

    kind is one of "vertex", "edge" (x_index = 0), "line13" (x1 = x3), or
    "half_lower"/"half_upper" (x1 < x3 resp. x1 > x3 strictly, all
    coordinates positive). The two halves and the line cover every interior
    point, so no separate interior tag is needed.
    """

    kind: str
    index: Optional[int] = None

    def label(self) -> str:
        if self.kind == "vertex":
            return f"vertex e{self.index}"
        if self.kind == "edge":
            return f"edge x{self.index} = 0"
        if self.kind == "line13":
            return "line x1 = x3"
        return "half x1 <= x3" if self.kind == "half_lower" else "half x1 >= x3"


def region_classify(x: SimplexPoint, tol: float = ZERO_TOL) -> RegionTag:
    """Classify a point of the 2-simplex into its most specific region."""
    if x.m != 3:
        raise ValueError("region classification needs m = 3")
    coords = x.coords
    zeros = [i + 1 for i in range(3) if coords[i] <= tol]
    if len(zeros) >= 2:
        live = [i + 1 for i in range(3) if coords[i] > tol]
        return RegionTag("vertex", live[0])
    if len(zeros) == 1:
        return RegionTag("edge", zeros[0])
    if abs(coords[0] - coords[2]) <= tol:
        return RegionTag("line13")
    return RegionTag("half_lower" if coords[0] < coords[2] else "half_upper")


# ---------------------------------------------------------------------------
# Limit predictions and verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LimitPrediction:
    """Predicted omega-limit of one orbit: a point or an unordered 2-cycle."""

    kind: str  # "point" | "cycle"
    points: tuple[SimplexPoint, ...]
    continuum: bool  # target lies on a parametric family (slower approach)
    case: str


def limit_prediction(op_id: int, a: float, x0: SimplexPoint) -> LimitPrediction:
    """Case analysis mapping an initial point to its predicted limit set.

    Returns the first branch of the (operator, regime) table whose condition
    holds at x0. Raises ValueError for parameter ranges without a covered
    prediction (operator 4 below a = 1/2) and for initial points the
    predictions exclude (within EXCLUSION_RADIUS of the fixed/2-periodic
    sets, whose orbits are trivial and not covered by the case analysis).
    """
    if x0.m != 3:
        raise ValueError("predictions are for the 2-simplex")
    table = _limit_table(op_id, a, covered=True)
    where = table.excluded(x0)
    if where is not None:
        raise ValueError(f"initial point lies in the excluded {where} set")
    x = x0.coords
    for branch in table.branches:
        if branch.holds(x):
            return LimitPrediction(branch.kind, branch.target(x), branch.continuum,
                                   f"{branch.label} -> {branch.target_text}")
    raise ValueError("no case of the analysis covers this initial point")


@dataclass(frozen=True)
class PointVerdict:
    index: int
    x0: tuple[float, ...]
    predicted: tuple[tuple[float, ...], ...]
    prediction_kind: str
    steps: Optional[int]
    distance: float
    passed: bool


@dataclass(frozen=True)
class CaseResult:
    label: str
    tol: float
    max_iter: int
    verdicts: tuple[PointVerdict, ...]

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)


@dataclass(frozen=True)
class VerificationReport:
    op_id: int
    a: float
    seeds: int
    base_seed: int
    cases: tuple[CaseResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "op": self.op_id,
            "a": self.a,
            "seeds": self.seeds,
            "base_seed": self.base_seed,
            "passed": self.passed,
            "cases": [
                {
                    "label": c.label,
                    "tol": c.tol,
                    "max_iter": c.max_iter,
                    "passed": c.passed,
                    "points": [
                        {
                            "index": v.index,
                            "x0": list(v.x0),
                            "predicted": [list(p) for p in v.predicted],
                            "kind": v.prediction_kind,
                            "steps": v.steps,
                            "distance": v.distance,
                            "passed": v.passed,
                        }
                        for v in c.verdicts
                    ],
                }
                for c in self.cases
            ],
        }


def verify_predictions(
    op_id: int,
    a_values: Sequence[float],
    seeds: int = 100,
    tol: Optional[float] = None,
    max_iter: Optional[int] = None,
    base_seed: int = 7,
) -> list[VerificationReport]:
    """Measure how close seeded orbits come to their predicted limit sets.

    For each parameter and each case branch, draws `seeds` initial points
    satisfying the branch condition (resampling anything within
    EXCLUSION_RADIUS of the exact fixed/2-periodic sets, which the
    predictions exclude), then iterates all of them in a batch until the
    distance to the predicted limit object falls below the tolerance or the
    iteration budget runs out. Explicit tol / max_iter apply to every case;
    otherwise vertex-type targets use (1e-6, 1e5) and continuum targets
    (1e-4, 1e6).
    """
    _require_analyzed(op_id)
    if seeds < 1:
        raise ValueError("need seeds >= 1")
    if tol is not None and not tol > 0.0:
        raise ValueError("tol must be positive")
    if max_iter is not None and max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    reports = []
    for a in a_values:
        table = _limit_table(op_id, a, covered=True)
        T = operator_tensor(op_id, a)
        cases = []
        for case_idx, branch in enumerate(table.branches):
            rng = np.random.default_rng(
                [base_seed, op_id, case_idx, int(round(a * 10 ** 9))])
            xs, targets = [], []
            while len(xs) < seeds:
                arr = branch.draw(rng)
                if table.excluded(arr) is None:
                    xs.append(arr)
                    targets.append(branch.target(SimplexPoint(arr).coords))
            case_tol = tol if tol is not None else (
                VERIFY_CURVE_TOL if branch.continuum else VERIFY_POINT_TOL)
            case_max = max_iter if max_iter is not None else (
                VERIFY_CURVE_MAX_ITER if branch.continuum else VERIFY_POINT_MAX_ITER)
            steps, dists = _run_case(T, np.array(xs), branch.kind, targets, case_tol, case_max)
            verdicts = tuple(
                PointVerdict(
                    index=i,
                    x0=tuple(float(v) for v in xs[i]),
                    predicted=tuple(p.as_tuple() for p in targets[i]),
                    prediction_kind=branch.kind,
                    steps=int(steps[i]) if steps[i] >= 0 else None,
                    distance=float(dists[i]),
                    passed=bool(steps[i] >= 0),
                )
                for i in range(seeds)
            )
            cases.append(CaseResult(branch.label, case_tol, case_max, verdicts))
        reports.append(VerificationReport(op_id, float(a), seeds, base_seed, tuple(cases)))
    return reports


def _run_case(
    T: HeredityTensor,
    X0: np.ndarray,
    kind: str,
    targets: Sequence[tuple[SimplexPoint, ...]],
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Batch-iterate one case; returns per-point (steps, final distance),
    steps = -1 where the target was not reached within max_iter. Point
    targets compare the current state; cycle targets compare the unordered
    pair (previous, current) against the predicted pair."""
    def distance(cur, nxt, p1, p2):
        d = np.abs(nxt - p1).sum(axis=1)
        if kind == "cycle":
            d = np.minimum(np.maximum(d, np.abs(cur - p2).sum(axis=1)),
                           np.maximum(np.abs(nxt - p2).sum(axis=1), np.abs(cur - p1).sum(axis=1)))
        return d <= tol, d

    P1 = np.array([pts[0].coords for pts in targets])
    P2 = np.array([pts[-1].coords for pts in targets])  # equal to P1 for point targets
    return _iterate_until(lambda X: apply_array(T, X), X0, max_iter, distance, P1, P2)


def _iterate_until(step, X: np.ndarray, max_iter: int, stop, *carried: np.ndarray):
    """Iterate each row of the batch X under `step` until `stop` says it is done.

    stop(cur, nxt, *carried) returns (done, value) for the rows still
    running. A row leaves the batch at the step it is done, taking its rows
    of `carried` along; rows are never reordered. Returns per-row (steps,
    value at the last step), with steps = -1 for rows that ran out of
    max_iter. Rows must leave exactly at the step they are done, because a
    one-row matrix product can differ in the last bit from a batched one.
    """
    steps = np.full(X.shape[0], -1, dtype=np.int64)
    final = np.full(X.shape[0], np.inf)
    idx = np.arange(X.shape[0])
    t = 0
    while idx.size and t < max_iter:
        t += 1
        nxt = step(X)
        done, value = stop(X, nxt, *carried)
        if t == max_iter or np.any(done):
            final[idx] = value
            steps[idx[done]] = t
            keep = ~done
            idx, X = idx[keep], nxt[keep]
            carried = tuple(c[keep] for c in carried)
        else:
            X = nxt
    return steps, final
