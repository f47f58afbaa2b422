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
import operator
from typing import Callable, Optional, Sequence

import numpy as np

from .operators import HeredityTensor, apply, apply_array
from .catalog import ANALYZED_OPS, operator_tensor
from .jsonio import Records
from .rules import ZERO_TOL, Frozen, require_count, require_positive, require_tol, require_within
from .simplex import SimplexPoint, sample_with_rng, simplex_rows, vertex

#: Supremum of the slice parameter carrying genuine 2-cycles for operator 4
#: at a = 1/2: the discriminant 4c^2 - 8c + 1 vanishes at (2 - sqrt(3)) / 2.
CYCLE_PARAM_SUP = (2.0 - math.sqrt(3.0)) / 2.0

#: Initial points closer than this (l1) to a fixed/2-periodic set are
#: excluded from verification sampling; the predictions assume the orbit
#: does not start on those sets.
EXCLUSION_RADIUS = 1e-9

# Simulation defaults (tol, max_iter), keyed by regime(a) == "balanced": at a = 1/2 orbits
# can approach the limit families sub-geometrically, so the budget is larger and tol looser.
SIMULATE_BUDGET = {False: (1e-9, 10 ** 5), True: (1e-6, 10 ** 6)}
DEFAULT_TOL, DEFAULT_MAX_ITER = SIMULATE_BUDGET[False]

# Verification defaults (tol, max_iter), keyed by whether the target is a curve family.
VERIFY_BUDGET = {False: (1e-6, 10 ** 5), True: (1e-4, 10 ** 6)}


# ---------------------------------------------------------------------------
# The scalar coordinate map
# ---------------------------------------------------------------------------

def scalar_map(x: float, a: float) -> float:
    """The interval map x^2 + 2 a x (1 - x) driving single coordinates.

    For a < 1/2 every interior orbit decreases to 0, for a > 1/2 it increases
    to 1; a = 1/2 gives the identity.
    """
    require_within("argument", x, 0, 1)
    require_within("parameter", a, 0, 1)
    return _scalar_step(x, a)


def _scalar_step(x, a: float):
    """x^2 + 2 a x (1 - x) for a float, an array or exact Fractions, without the range checks."""
    return x * x + 2 * a * x * (1 - x)


def _check_budget(tol: float, max_iter: int) -> None:
    """The one rule for orbit budgets: 0 < tol < inf and an integer max_iter >= 1."""
    require_positive("tol", tol)
    require_count("max_iter", max_iter, 1)


def regime(a: float) -> str:
    """Parameter regime of the analyzed operators: "below", "balanced" or "above".

    The scalar map drifts interior points down to 0 for a < 1/2 and up to 1
    for a > 1/2; at a = 1/2 it is the identity and the finite limit sets of
    the analyzed operators grow into curve families. This is the one place
    that compares a with 1/2 (exactly); it rejects a outside [0, 1],
    NaN included.
    """
    require_within("parameter", a, 0, 1)
    if a == 0.5:
        return "balanced"
    return "below" if a < 0.5 else "above"


class ScalarMapReport(Frozen):
    a: float
    grid_size: int
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
    """Audit the scalar map on a grid: every interior grid orbit must reach the
    endpoint the regime predicts. The lemmas behind that prediction (f fixes 0
    and 1, f' >= 0 on [0, 1], and (a - 1/2)(f(x) - x) = 2 (a - 1/2)^2 x (1 - x))
    are checked exactly by tests/test_dynamics.py::TestScalarMapLemmas."""
    side = regime(a)
    if side == "balanced":
        raise ValueError("a = 1/2 gives the identity map; nothing to audit")
    _check_budget(tol, max_iter)
    xs = np.asarray(grid if grid is not None else np.linspace(0.0, 1.0, 101), dtype=float)
    if not xs.size or not np.all((xs >= 0.0) & (xs <= 1.0)):
        raise ValueError("grid must hold at least one value, all in [0, 1]")
    target = 0.0 if side == "below" else 1.0
    interior = xs[(xs > 0.0) & (xs < 1.0)]
    steps, _ = _iterate_until(lambda x: _scalar_step(x, a), interior, max_iter,
                              lambda t, cur, nxt: (np.abs(nxt - target) <= tol, nxt))
    missed = int(np.count_nonzero(steps < 0))
    failures = (f"{missed} orbits missed {target} within {max_iter} steps",) if missed else ()
    return ScalarMapReport(a, xs.size, not missed, int(steps.max(initial=0)), failures)


# ---------------------------------------------------------------------------
# Orbits and omega-limit classification
# ---------------------------------------------------------------------------

def iterate(T: HeredityTensor, x0: SimplexPoint, n: int) -> list[SimplexPoint]:
    """The orbit segment x^(0), ..., x^(n); each step renormalizes roundoff."""
    require_count("n", n, 0)
    out = [x0]
    for _ in range(n):
        out.append(apply(T, out[-1]))
    return out


class Outcome(Frozen):
    """Orbit classification: a fixed point, a 2-cycle, or undecided."""

    kind: str  # "fixed_point" | "two_cycle" | "undecided"
    points: tuple[SimplexPoint, ...]


class TrajectoryReport(Frozen):
    """One orbit; each kept iterate is (step, float tuple), rounded as `SimplexPoint` rounds."""

    initial: tuple[float, ...]
    iterates_kept: tuple[tuple[int, tuple[float, ...]], ...]
    steps: int
    outcome: Outcome
    final_residuals: tuple[float, float]

    def to_json_dict(self) -> dict:
        steps, xs = zip(*self.iterates_kept)
        return {
            "schema_version": 1,
            "initial": list(self.initial),
            "steps": self.steps,
            "outcome": {"kind": self.outcome.kind, "points": list(map(list, self.outcome.points))},
            # The two-step residual is inf at step 1 and is written as null.
            "final_residuals": [None if math.isinf(r) else r for r in self.final_residuals],
            "iterates_kept": Records(("step", "x"), (steps, np.array(xs))),
        }


def omega_limit(T: HeredityTensor, x0: SimplexPoint, tol: float = DEFAULT_TOL,
                max_iter: int = DEFAULT_MAX_ITER) -> TrajectoryReport:
    """The report of `omega_limits` for the single start x0."""
    return omega_limits(T, x0.coords[None], tol, max_iter)[0]


def omega_limits(T: HeredityTensor, X0: np.ndarray, tol: float = DEFAULT_TOL,
                 max_iter: int = DEFAULT_MAX_ITER) -> list[TrajectoryReport]:
    """Iterate every start row of X0 (n, m) until it reaches a fixed point or
    a 2-cycle, or give up; one report per row, in order.

    A fixed point requires the one-step residual to fall to tol, a 2-cycle the
    two-step residual while the one-step residual stays above 10 tol. A slowly
    converging fixed point with multiplier near -1 can meet the 2-cycle test
    first (README, "Numerical conventions"). Hitting max_iter yields outcome
    "undecided", which never asserts convergence.

    Kept iterates: step 0, every step up to 100, then steps 101, 127, 159,
    ..., each the ceiling of 1.25 times the last kept one, plus the final
    step. Rows leave the batch at the step they stop, and each row's image is
    a one-row product (see `apply_array`), so every orbit is bit for bit the
    orbit of its start alone.
    """
    _check_budget(tol, max_iter)
    X0 = np.asarray(X0, dtype=np.float64)
    if X0.ndim != 2 or X0.shape[1] != T.m or not len(X0):
        raise ValueError(f"dimension mismatch: need start rows (n >= 1, {T.m}), got {X0.shape}")
    schedule, t = set(range(101)) | {max_iter}, 101
    while t < max_iter:
        schedule.add(t)
        t = math.ceil(1.25 * t)
    kept = [[(0, x)] for x in map(tuple, simplex_rows(X0).tolist())]
    outcomes = [Outcome("undecided", ())] * len(X0)

    def stop(t, state, new_state, rows):
        nxt = new_state[:, 0]
        d = np.abs(nxt[:, None] - state).sum(axis=2)  # (one-step, two-step) residuals
        fixed = d[:, 0] <= tol
        done = fixed | ((d[:, 1] <= tol) & (d[:, 0] > 10.0 * tol))
        if t in schedule or done.any():
            held = done | (t in schedule)
            for r, x in zip(rows[held].tolist(), map(tuple, simplex_rows(nxt[held]).tolist())):
                kept[r].append((t, x))
            for r, f, c, x in zip(rows[done].tolist(), fixed[done].tolist(),
                                  state[done, 0], nxt[done]):
                outcomes[r] = (Outcome("fixed_point", (SimplexPoint(x),)) if f else
                               Outcome("two_cycle", (SimplexPoint(c), SimplexPoint(x))))
        return done, d

    # Each row of the state stacks (current, previous); the two-step residual is inf at step 1.
    state = np.stack((X0, np.full_like(X0, np.inf)), axis=1)
    steps, final = _iterate_until(
        lambda S: np.concatenate((apply_array(T, S[:, :1]), S[:, :1]), axis=1),
        state, max_iter, stop, np.arange(len(X0)))
    results = zip(X0.tolist(), kept, steps.tolist(), outcomes, final.tolist())
    return [TrajectoryReport(tuple(x0), tuple(path), s if s > 0 else max_iter, outcome, tuple(d))
            for x0, path, s, outcome, d in results]


def trajectory_csv(report: TrajectoryReport) -> str:
    """CSV of the kept iterates with ternary plot coordinates.

    Columns: step, x1, x2, x3, u, v with u = x2 + x3/2 and v = (sqrt(3)/2) x3.
    """
    half_sqrt3 = math.sqrt(3.0) / 2.0
    lines = ["step,x1,x2,x3,u,v"]
    for step, (x1, x2, x3) in report.iterates_kept:
        nums = (x1, x2, x3, x2 + x3 / 2.0, half_sqrt3 * x3)
        lines.append(f"{step}," + ",".join(format(val, ".17g") for val in nums))
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
    require_within("slice parameter", b, 0, 1)
    return float(_fixed_heights(b))


def slice_cycle_heights(c: float) -> tuple[float, float]:
    """The two 2-cycle second coordinates on the slice x1 = c.

    Roots of x^2 - (1 - 2c) x + c = 0, real for c up to CYCLE_PARAM_SUP,
    returned as (low, high). Operator 4 at a = 1/2 exchanges the two points
    (c, h, 1 - c - h) built from them.
    """
    if not 0.0 <= c <= CYCLE_PARAM_SUP + 1e-15:
        raise ValueError(f"slice parameter {c} outside [0, {CYCLE_PARAM_SUP}]")
    return float(_cycle_heights(c, -1.0)), float(_cycle_heights(c, 1.0))


def _fixed_heights(b):
    """slice_fixed_height for a float or an array, without the range check."""
    return (3.0 - 2.0 * b - np.sqrt(4.0 * b * b - 8.0 * b + 5.0)) / 2.0


def _cycle_heights(c, sign: float):
    """The low (sign -1) or high (sign +1) slice cycle height of a float or an array."""
    return (1.0 - 2.0 * c + sign * np.sqrt(np.maximum(4.0 * c * c - 8.0 * c + 1.0, 0.0))) / 2.0


def edge_fixed_height(a: float) -> float:
    """Second coordinate of the edge fixed point (0, h, 1 - h) of operator 28.

    The root in [0, 1] of (1 - x)^2 + 2 a x (1 - x) = x, evaluated in the
    cancellation-free form 2 / (3 - 2a + sqrt(4 + (2a - 1)^2)); at a = 1/2 it
    continuously takes the value 1/2.
    """
    require_within("parameter", a, 0, 1)
    return 2.0 / (3.0 - 2.0 * a + math.sqrt(4.0 + (2.0 * a - 1.0) ** 2))


# ---------------------------------------------------------------------------
# Exact limit sets
# ---------------------------------------------------------------------------

class CurveFamily(Frozen):
    """A one-parameter family of simplex points, e.g. a curve of fixed points.

    `coords` maps n parameters in [lo, hi] to the (n, 3) array of their
    points; on a `straight` family it is affine in the parameter."""

    label: str
    lo: float
    hi: float
    coords: Callable[[np.ndarray], np.ndarray]
    include_hi: bool = True
    exclude_params: tuple[float, ...] = ()
    straight: bool = False

    def point_at(self, t: float) -> SimplexPoint:
        require_within("parameter", t, self.lo, self.hi)
        return SimplexPoint(self.coords(np.array([t]))[0])

    def sample(self, n: int) -> list[SimplexPoint]:
        """n parameter values spread over the range (excluded values dropped)."""
        require_count("n", n, 0)
        if n == 0:
            return []
        if self.include_hi:
            ts = np.linspace(self.lo, self.hi, n)
        else:
            ts = self.lo + (self.hi - self.lo) * np.arange(n) / n
        keep = np.all(np.abs(np.subtract.outer(ts, self.exclude_params)) > 1e-12, axis=1)
        return [SimplexPoint(p) for p in self.coords(ts[keep])]


class PointSet(Frozen):
    """A finite point set, possibly extended by parametric curve families."""

    points: tuple[SimplexPoint, ...] = ()
    curves: tuple[CurveFamily, ...] = ()

    @property
    def is_empty(self) -> bool:
        return not self.points and not self.curves

    def sample(self, curve_samples: int = 50) -> list[SimplexPoint]:
        require_count("curve_samples", curve_samples, 0)
        out = list(self.points)
        for curve in self.curves:
            out.extend(curve.sample(curve_samples))
        return out

    def min_l1_distance(self, x):
        """l1 distance from x to the set (curve closures included), per row for an (n, 3) x."""
        arr = x.coords if isinstance(x, SimplexPoint) else np.asarray(x, dtype=float)
        X = arr.reshape(-1, arr.shape[-1])
        P = np.array([p.coords for p in self.points]).reshape(-1, X.shape[1])
        best = np.abs(P - X[:, None]).sum(axis=2).min(axis=1, initial=math.inf)
        for curve in self.curves:
            best = np.minimum(best, _curve_min_distance(curve, X))
        return float(best[0]) if arr.ndim == 1 else best


def _curve_min_distance(curve: CurveFamily, X: np.ndarray) -> np.ndarray:
    """l1 distances from the rows of X (n, 3) to the closure of the curve.

    On a straight family the distance is convex and piecewise linear in the
    parameter, so it is least at an end or where one coordinate of the curve
    meets that of the row. Other families are scanned at 257 parameters per row;
    each further scan covers the two intervals around the row's best one so far.
    """
    lo, hi = curve.lo, curve.hi
    if curve.straight:
        ends = curve.coords(np.array([lo, hi]))
        step = ends[1] - ends[0]
        moving = step != 0.0
        ts = lo + (hi - lo) * (X[:, moving] - ends[0, moving]) / step[moving]
        pts = curve.coords(np.clip(ts, lo, hi).ravel()).reshape(ts.shape + (3,))
        return np.minimum(np.abs(ends - X[:, None]).sum(axis=2).min(axis=1),
                          np.abs(pts - X[:, None]).sum(axis=2).min(axis=1))
    if len(X) > 32:  # rows in blocks keep the (rows, 257, 3) scan arrays, and peak memory, small
        return np.concatenate([_curve_min_distance(curve, X[k:k + 32]) for k in range(0, len(X), 32)])
    rows, best = np.arange(len(X)), np.full(len(X), math.inf)
    lo, hi = np.full(len(X), lo), np.full(len(X), hi)
    for _ in range(8):  # each scan narrows [lo, hi] 128-fold; 8 reach float resolution
        ts = np.linspace(lo, hi, 257, axis=1)
        dists = np.abs(curve.coords(ts.ravel()).reshape(ts.shape + (3,)) - X[:, None]).sum(axis=2)
        i = dists.argmin(axis=1)
        best = np.minimum(best, dists[rows, i])
        lo, hi = ts[rows, np.maximum(i - 1, 0)], ts[rows, np.minimum(i + 1, 256)]
    return best


def _edge_points(zero: int, us) -> np.ndarray:
    """Points of the edge x[zero] = 0 (0-based) with u, 1 - u on the other two coordinates:
    shape (3,) for a scalar u, (n, 3) for n values."""
    us = np.asarray(us, dtype=float)
    p = np.zeros(us.shape + (3,))
    i, j = (1, 2) if zero == 0 else (0, 3 - zero)
    p[..., i], p[..., j] = us, 1.0 - us
    return p


def _edge_curve(zero_index: int, label: str, **kwargs) -> CurveFamily:
    """The simplex edge x_{zero_index} = 0 parameterized by the next coordinate."""
    return CurveFamily(label, 0.0, 1.0, lambda ts: _edge_points(zero_index - 1, ts),
                       straight=True, **kwargs)


def _slice_curve(label: str, hi: float, height, **kwargs) -> CurveFamily:
    """The operator-4 family (c, height(c), 1 - c - height(c)), c in [0, hi]."""
    def coords(cs: np.ndarray) -> np.ndarray:
        hs = height(cs)
        return np.stack((cs, hs, 1.0 - cs - hs), axis=1)

    return CurveFamily(label, 0.0, hi, coords, **kwargs)


# Operator 4 at a = 1/2: the slice fixed curve and the two 2-cycle branches.
_SLICE_FIXED = _slice_curve("slice fixed curve", 1.0, _fixed_heights)
_SLICE_CYCLE_LOW = _slice_curve("slice cycle, low branch", CYCLE_PARAM_SUP,
                                lambda c: _cycle_heights(c, -1.0), include_hi=False)
_SLICE_CYCLE_HIGH = _slice_curve("slice cycle, high branch", CYCLE_PARAM_SUP,
                                 lambda c: _cycle_heights(c, 1.0), include_hi=False)


# ---------------------------------------------------------------------------
# The limit-case table: one entry per (operator, regime)
# ---------------------------------------------------------------------------

# A branch condition reads x_i(0) <relation> <bound>. "=" and "!=" go with the
# bound "0": a coordinate at or below ZERO_TOL counts as zero.
_BOUNDS = {"0": ZERO_TOL, "1/2": 0.5, "cycle sup": CYCLE_PARAM_SUP}
_RELATIONS = {"!=": operator.gt, "=": operator.le, ">": operator.gt, "<=": operator.le,
              "<": operator.lt, ">=": operator.ge}


class _Branch(Frozen):
    """One case of a limit analysis: orbits starting where x_i(0) <relation> <bound>
    holds converge to the point or unordered 2-cycle of `targets`, each a point or
    a curve taken at the parameter x1(0). Verification draws interior starts, or
    starts on the edge x_i = 0 for an "= 0" branch."""

    i: int  # the coordinate of the condition, 1-based
    relation: str  # a key of _RELATIONS
    bound: str  # a key of _BOUNDS
    target_text: str  # e.g. "e1"
    targets: tuple  # SimplexPoint or CurveFamily items

    @property
    def label(self) -> str:  # the condition, e.g. "x1(0) != 0"
        return f"x{self.i}(0) {self.relation} {self.bound}"

    @property
    def edge(self) -> Optional[int]:  # the edge x[edge] = 0 (0-based) that starts lie on
        return self.i - 1 if self.relation == "=" else None

    @property
    def kind(self) -> str:
        return "cycle" if len(self.targets) == 2 else "point"

    @property
    def continuum(self) -> bool:  # the target lies on a parametric family
        return isinstance(self.targets[0], CurveFamily)

    def holds(self, x: np.ndarray) -> np.ndarray:  # on one point (3,) or on rows (n, 3)
        return _RELATIONS[self.relation](x[..., self.i - 1], _BOUNDS[self.bound])

    def candidates(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """The next `count` starts of the stream as (count, 3) rows, before `holds`."""
        if self.edge is None:
            return sample_with_rng(3, rng, count)
        return _edge_points(self.edge, rng.random(count))

    def target_coords(self, X: np.ndarray) -> np.ndarray:
        """(n, k, 3) raw coordinates of the k target points of each start row."""
        return np.stack([t.coords(X[:, 0]) if isinstance(t, CurveFamily)
                         else np.broadcast_to(t.coords, X.shape) for t in self.targets], axis=1)


class _LimitTable(Frozen):
    """Exact fixed and 2-periodic sets of one (operator, regime), plus the
    case branches for every other start, in verification order."""

    fixed: PointSet
    periodic2: PointSet
    branches: tuple[_Branch, ...]

    def excluded(self, x):
        """Name of the exact set within EXCLUSION_RADIUS of the point x, if any;
        for the rows of an (n, 3) array, a mask of the rows near either set."""
        near = self.fixed.min_l1_distance(x) <= EXCLUSION_RADIUS
        near2 = self.periodic2.min_l1_distance(x) <= EXCLUSION_RADIUS  # inf when empty
        if np.ndim(x) == 2:
            return near | near2
        return "fixed-point" if near else "2-periodic" if near2 else None

    def starts(self, branch: _Branch, rng: np.random.Generator, count: int) -> np.ndarray:
        """The first `count` starts of the branch's stream that satisfy its
        condition and lie outside the excluded sets, drawn in chunks from an rng
        used for nothing else. Exclusion, the costly test, sees only rows still needed."""
        found = []
        while count > 0:
            X = branch.candidates(rng, 2 * count + 64)
            X = X[branch.holds(X)]
            while count > 0 and len(X):
                head, X = X[:count], X[count:]
                found.append(head[~self.excluded(head)])
                count -= len(found[-1])
        return np.concatenate(found)


E1, E2, E3 = vertex(1, 3), vertex(2, 3), vertex(3, 3)
_VERTICES = PointSet(points=(E1, E2, E3))
_VERTEX_CYCLE = PointSet(points=(E2, E3))
_OP4_FIXED = PointSet(points=(E1, _SLICE_FIXED.point_at(0.0)))
_OP13_EDGE = _edge_curve(2, "edge x2 = 0")
_OP13_LINE = CurveFamily("x1 = x3 segment", 0.0, 0.5,
                         lambda ts: np.stack((ts, 1.0 - 2.0 * ts, ts), axis=1), straight=True)
# Operator 28 also fixes a point of the edge x1 = 0 that moves with a: _limit_table adds it.
_OP28_OFF_BALANCE = _LimitTable(PointSet(points=(E1,)), _VERTEX_CYCLE, (
    _Branch(1, "=", "0", "cycle {e2, e3}", (E2, E3)), _Branch(1, "!=", "0", "e1", (E1,))))

_TABLES: dict[tuple[int, str], _LimitTable] = {
    (13, "below"): _LimitTable(_VERTICES, PointSet(), (
        _Branch(2, "!=", "0", "e2", (E2,)), _Branch(2, "=", "0", "e3", (E3,)))),
    (13, "balanced"): _LimitTable(PointSet(curves=(_OP13_EDGE, _OP13_LINE)), PointSet(), (
        _Branch(1, ">", "1/2", "(x1, 0, 1 - x1)", (_OP13_EDGE,)),
        _Branch(1, "<=", "1/2", "(x1, 1 - 2 x1, x1)", (_OP13_LINE,)))),
    (13, "above"): _LimitTable(_VERTICES, PointSet(), (
        _Branch(1, "!=", "0", "e1", (E1,)), _Branch(1, "=", "0", "e2", (E2,)))),
    # Below 1/2 only the exact sets of operator 4 are known: no start has a covered prediction.
    (4, "below"): _LimitTable(_OP4_FIXED, _VERTEX_CYCLE, ()),
    (4, "balanced"): _LimitTable(
        PointSet(curves=(_SLICE_FIXED,)), PointSet(curves=(_SLICE_CYCLE_LOW, _SLICE_CYCLE_HIGH)),
        (_Branch(1, "<", "cycle sup", "slice 2-cycle", (_SLICE_CYCLE_LOW, _SLICE_CYCLE_HIGH)),
         _Branch(1, ">=", "cycle sup", "slice fixed point", (_SLICE_FIXED,)))),
    (4, "above"): _LimitTable(_OP4_FIXED, _VERTEX_CYCLE, (
        _Branch(1, "!=", "0", "e1", (E1,)), _Branch(1, "=", "0", "cycle {e2, e3}", (E2, E3)))),
    (28, "below"): _OP28_OFF_BALANCE,
    (28, "balanced"): _LimitTable(PointSet(points=(E1,)), PointSet(curves=(
        _edge_curve(1, "edge x1 = 0 (minus its midpoint)", exclude_params=(0.5,)),)),
        (_Branch(1, "!=", "0", "e1", (E1,)),)),
    (28, "above"): _OP28_OFF_BALANCE,
    (25, "below"): _LimitTable(_VERTICES, PointSet(), (
        _Branch(1, "=", "0", "e3", (E3,)), _Branch(1, "!=", "0", "e1", (E1,)))),
    (25, "balanced"): _LimitTable(
        PointSet(points=(E1,), curves=(_edge_curve(1, "edge x1 = 0"),)), PointSet(),
        (_Branch(1, "!=", "0", "e1", (E1,)),)),
    (25, "above"): _LimitTable(_VERTICES, PointSet(), (
        _Branch(1, "=", "0", "e2", (E2,)), _Branch(1, "!=", "0", "e1", (E1,)))),
}


def _require_analyzed(op_id: int) -> None:
    if op_id not in ANALYZED_OPS:
        raise ValueError(f"operator {op_id} is not one of the analyzed ids {ANALYZED_OPS}")


def _limit_table(op_id: int, a: float, covered: bool = False) -> _LimitTable:
    """The table entry of (op_id, regime(a)); with covered=True it must carry predictions."""
    _require_analyzed(op_id)
    table = _TABLES[op_id, regime(a)]
    if covered and not table.branches:
        raise ValueError(f"operator {op_id} has no covered limit prediction for a < 1/2")
    if op_id == 28:
        edge_fixed = SimplexPoint(_edge_points(0, edge_fixed_height(a)))
        table = _LimitTable(PointSet(table.fixed.points + (edge_fixed,)), table.periodic2,
                            table.branches)
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

    Seeds a barycentric grid of resolution grid_n (the three vertices
    included), runs the damped iteration x <- x + (V(x) - x) / 2 from every
    seed (damping turns 2-cycles into transients and stabilizes moderately
    repelling fixed points; a fixed vertex takes steps of exactly 0), and
    bisects the 1-d fixed-point equations along invariant edges to catch
    boundary roots repelling in every damped direction. Candidates with
    residual <= refine_tol are deduplicated with l1 radius 10 * refine_tol,
    lowest residual first, and reported sorted lexicographically.
    """
    if T.m != 3:
        raise ValueError("the oracle is implemented for the 2-simplex (m = 3)")
    require_count("grid_n", grid_n, 10)
    require_positive("refine_tol", refine_tol)

    r = np.arange(grid_n + 1)
    i, j = np.nonzero(np.add.outer(r, r) <= grid_n)
    X = np.stack((i, j, grid_n - i - j), axis=1) / grid_n
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

    X = np.vstack((X, _edge_roots(T, refine_tol)))
    residuals = np.abs(apply_array(T, X) - X).sum(axis=1)
    keep = residuals <= refine_tol
    X, residuals = X[keep], residuals[keep]

    X, accepted = X[np.lexsort((X[:, 2], X[:, 1], X[:, 0], residuals))], X[:0]
    while len(X):  # the best candidate left is kept and drops every candidate near it
        accepted = np.vstack((accepted, X[:1]))
        X = X[np.abs(X - X[0]).sum(axis=1) > 10.0 * refine_tol]
    return [SimplexPoint(arr) for arr in accepted[np.lexsort(accepted.T[::-1])]]


def _edge_roots(T: HeredityTensor, refine_tol: float) -> np.ndarray:
    """Candidate roots of the fixed-point equation on each invariant edge, as rows:
    the 1025-point scan's near-zero values, then the bisection of each sign change."""
    us = np.linspace(0.0, 1.0, 1025)
    out = [np.empty((0, 3))]
    for zero in range(3):
        free = 1 if zero == 0 else 0  # the coordinate _edge_points sets to u
        V = apply_array(T, _edge_points(zero, us))
        if V[:, zero].max() > ZERO_TOL:
            continue  # edge not invariant; no boundary roots to recover here
        vals = V[:, free] - us
        k = np.flatnonzero((vals[:-1] != 0.0) & (vals[:-1] * vals[1:] <= 0.0))
        lo, hi, flo = us[k], us[k + 1], vals[k]
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            fm = apply_array(T, _edge_points(zero, mid))[:, free] - mid
            # An exact zero collapses the bracket to lo = hi = mid, which later rounds keep.
            left = flo * fm < 0.0
            hi = np.where(left | (fm == 0.0), mid, hi)
            lo, flo = np.where(left, lo, mid), np.where(left, flo, fm)
        out += [_edge_points(zero, us[np.abs(vals) <= refine_tol]),
                _edge_points(zero, 0.5 * (lo + hi))]
    return np.vstack(out)


# ---------------------------------------------------------------------------
# Regions of the 2-simplex
# ---------------------------------------------------------------------------

class RegionTag(Frozen):
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
    require_tol(tol)
    if x.m != 3:
        raise ValueError("region classification needs m = 3")
    coords = x.coords
    zeros = [i + 1 for i in range(3) if coords[i] <= tol]
    if len(zeros) >= 2:
        return RegionTag("vertex", int(np.argmax(coords)) + 1)
    if len(zeros) == 1:
        return RegionTag("edge", zeros[0])
    if abs(coords[0] - coords[2]) <= tol:
        return RegionTag("line13")
    return RegionTag("half_lower" if coords[0] < coords[2] else "half_upper")


# ---------------------------------------------------------------------------
# Limit predictions and verification
# ---------------------------------------------------------------------------

class LimitPrediction(Frozen):
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
    where = table.excluded(x0.coords)
    if where is not None:
        raise ValueError(f"initial point lies in the excluded {where} set")
    x = x0.coords
    # The branches cover every start that `excluded` lets through (TestLimitTable checks it).
    branch = next(branch for branch in table.branches if branch.holds(x))
    points = tuple(map(SimplexPoint, branch.target_coords(x[None])[0]))
    return LimitPrediction(branch.kind, points, branch.continuum,
                           f"{branch.label} -> {branch.target_text}")


class PointVerdict(Frozen):
    index: int
    x0: tuple[float, ...]
    predicted: tuple[tuple[float, ...], ...]
    prediction_kind: str
    steps: Optional[int]
    distance: float
    passed: bool


_POINT_KEYS = ("index", "x0", "predicted", "kind", "steps", "distance", "passed")


class CaseResult(Frozen, positional=3):
    """One verification case, its per-point results held as columns: the starts
    `x0` (n, 3), their k predicted points `predicted` (n, k, 3), `steps` (int64,
    -1 where undecided) and the final `distance`, all of prediction kind `kind`.
    Two cases are equal when their label, budget and verdicts are.
    """

    label: str
    tol: float
    max_iter: int
    kind: str
    x0: np.ndarray
    predicted: np.ndarray
    steps: np.ndarray
    distance: np.ndarray

    def __post_init__(self):
        columns = {name: np.asarray(getattr(self, name), dtype=dtype).view() for name, dtype in (
            ("x0", float), ("predicted", float), ("steps", np.int64), ("distance", float))}
        if len(set(map(len, columns.values()))) != 1:
            raise ValueError("the columns of a case must share one length")
        for name, column in columns.items():  # views, so the caller's arrays stay writable
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    @property
    def passed(self) -> bool:
        return bool((self.steps >= 0).all())

    @property
    def verdicts(self) -> tuple[PointVerdict, ...]:
        """The per-point results as `PointVerdict`s, built on each call."""
        rows = zip(self.x0.tolist(), self.predicted.tolist(), self.steps.tolist(),
                   self.distance.tolist())
        return tuple(PointVerdict(i, tuple(x0), tuple(map(tuple, pred)), self.kind,
                                  s if s >= 0 else None, d, s >= 0)
                     for i, (x0, pred, s, d) in enumerate(rows))

    def points(self) -> Records:
        """The JSON records of the points, written straight from the columns."""
        n, steps = len(self.steps), self.steps.tolist()
        return Records(_POINT_KEYS, (
            list(range(n)), self.x0, self.predicted, [self.kind] * n,
            [s if s >= 0 else None for s in steps], self.distance, [s >= 0 for s in steps]))

    def __eq__(self, other) -> bool:
        return isinstance(other, CaseResult) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def _key(self) -> tuple:
        return self.label, self.tol, self.max_iter, self.verdicts


class VerificationReport(Frozen):
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
            "schema_version": 1, "op": self.op_id, "a": self.a, "seeds": self.seeds,
            "base_seed": self.base_seed, "passed": self.passed,
            "cases": [{
                "label": c.label, "tol": c.tol, "max_iter": c.max_iter, "passed": c.passed,
                "points": c.points(),
            } for c in self.cases],
        }


def verify_predictions(op_id: int, a_values: Sequence[float], seeds: int = 100,
                       tol: Optional[float] = None, max_iter: Optional[int] = None,
                       base_seed: int = 7) -> list[VerificationReport]:
    """Measure how close seeded orbits come to their predicted limit sets.

    For each parameter and each case branch, takes the first `seeds` starts
    of the case's own seeded stream that satisfy the branch condition and lie
    outside EXCLUSION_RADIUS of the exact fixed/2-periodic sets, then iterates
    them in a batch until each is within the tolerance of its predicted limit
    or the budget runs out. Explicit tol / max_iter apply to every case;
    otherwise VERIFY_BUDGET gives vertex targets (1e-6, 1e5), continuum ones (1e-4, 1e6).
    """
    _require_analyzed(op_id)
    require_count("seeds", seeds, 1)
    require_count("base_seed", base_seed, 0)
    _check_budget(DEFAULT_TOL if tol is None else tol,
                  DEFAULT_MAX_ITER if max_iter is None else max_iter)
    # Every parameter must have covered predictions before any orbit runs.
    plans = [(a, _limit_table(op_id, a, covered=True)) for a in a_values]
    reports = []
    for a, table in plans:
        T = operator_tensor(op_id, a)
        cases = []
        for case_idx, branch in enumerate(table.branches):
            rng = np.random.default_rng([base_seed, op_id, case_idx, int(round(a * 10 ** 9))])
            X = table.starts(branch, rng, seeds)
            targets = simplex_rows(branch.target_coords(simplex_rows(X)))
            case_tol, case_max = VERIFY_BUDGET[branch.continuum]
            case_tol = case_tol if tol is None else tol
            case_max = case_max if max_iter is None else max_iter
            steps, dists = _run_case(T, X, branch.kind, targets, case_tol, case_max)
            cases.append(CaseResult(branch.label, case_tol, case_max, kind=branch.kind, x0=X,
                                    predicted=targets, steps=steps, distance=dists))
        reports.append(VerificationReport(op_id, float(a), seeds, base_seed, tuple(cases)))
    return reports


def _run_case(T: HeredityTensor, X0: np.ndarray, kind: str, targets, tol: float,
              max_iter: int) -> tuple[np.ndarray, np.ndarray]:
    """Batch-iterate one case; returns per-point (steps, final distance),
    steps = -1 where the target was not reached within max_iter. `targets`
    holds the k = 1 or 2 predicted points of each row, shape (n, k, 3).
    Point targets compare the current state, confirmed by the next iterate in a
    separate kernel call (steps report the first); cycle targets compare the
    unordered pair (previous, current) against the predicted pair."""
    def distance(t, cur, nxt, p1, p2):
        d = np.abs(nxt - p1).sum(axis=1)
        if kind == "cycle":
            d = np.minimum(np.maximum(d, np.abs(cur - p2).sum(axis=1)),
                           np.maximum(np.abs(nxt - p2).sum(axis=1), np.abs(cur - p1).sum(axis=1)))
        done = d <= tol
        if kind == "point" and done.any():  # an orbit passing p1 leaves it at the next step
            done[done] = np.abs(apply_array(T, nxt[done]) - p1[done]).sum(axis=1) <= tol
        return done, d

    P = np.asarray(targets, dtype=float)
    return _iterate_until(lambda X: apply_array(T, X), X0, max_iter, distance,
                          P[:, 0], P[:, -1])  # P[:, -1] equals P[:, 0] for point targets


def _iterate_until(step, X: np.ndarray, max_iter: int, stop, *carried: np.ndarray):
    """Iterate each row of the batch X under `step` until `stop` says it is done.

    stop(t, cur, nxt, *carried) returns (done, value) for the rows still
    running at step t. A row leaves exactly at the step it is done (on the
    matrix route of `apply_array` its last bit depends on the batch), taking its
    rows of `carried` along; rows are never reordered. Returns per-row (steps,
    value at the last step), with steps = -1 where max_iter ran out.
    """
    steps = np.full(X.shape[0], -1, dtype=np.int64)
    final = None  # shaped per row like the values of stop, once one is taken
    idx = np.arange(X.shape[0])
    t = 0
    while idx.size and t < max_iter:
        t += 1
        nxt = step(X)
        done, value = stop(t, X, nxt, *carried)
        if t == max_iter or done.any():
            if final is None:
                final = np.full(steps.shape + value.shape[1:], np.inf)
            final[idx] = value
            steps[idx[done]] = t
            keep = ~done
            idx, X = idx[keep], nxt[keep]
            carried = tuple(c[keep] for c in carried)
        else:
            X = nxt
    return steps, final
