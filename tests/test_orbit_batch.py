"""Batched orbits and the stacked one-row kernel against the code they replaced.

`simulate --count N` runs its N orbits as one batch. Each step sends the
batch through `apply_array` as a stack of one-row products, so every orbit
must equal, bit for bit, the orbit the one-orbit loop computed on the
one-row kernel. The references below are those two pieces of code as they
stood before the batch.
"""

import math

import numpy as np
import pytest

import test_dynamics
from test_dynamics import _omega_limit_reference
from qsodyn.catalog import operator_tensor
from qsodyn.dynamics import (
    BALANCED_MAX_ITER, BALANCED_TOL, DEFAULT_MAX_ITER, DEFAULT_TOL, omega_limit, omega_limits,
    trajectory_csv)
from qsodyn.operators import apply_array
from qsodyn.simplex import SimplexPoint, sample, sample_with_rng, vertex


def _apply_array_reference(T, x, renormalize=True):
    """The kernel as it stood before it took any leading shape: one point
    went through as a one-row batch."""
    m = T.m
    flat = T.table.reshape(m * m, m)
    single = x.ndim == 1
    X = x[None, :] if single else x
    prods = (X[:, :, None] * X[:, None, :]).reshape(X.shape[0], m * m)
    out = prods @ flat
    if renormalize:
        out = out / out.sum(axis=1, keepdims=True)
    return out[0] if single else out


def _trajectory_csv_reference(report):
    """trajectory_csv as it stood when the kept iterates were SimplexPoints."""
    half_sqrt3 = math.sqrt(3.0) / 2.0
    lines = ["step,x1,x2,x3,u,v"]
    for step, p in report.iterates_kept:
        x1, x2, x3 = p.coords
        u = x2 + x3 / 2.0
        v = half_sqrt3 * x3
        nums = ",".join(format(val, ".17g") for val in (x1, x2, x3, u, v))
        lines.append(f"{step},{nums}")
    return "\n".join(lines) + "\n"


@pytest.fixture
def reference_kernel(monkeypatch):
    """Run `_omega_limit_reference` on the one-row kernel it was written against."""
    monkeypatch.setattr(test_dynamics, "apply_array", _apply_array_reference)


def _bits(rows) -> bytes:
    return np.ascontiguousarray(rows, dtype=np.float64).tobytes()


def _kernel_rows(seed: int) -> np.ndarray:
    """Random interior rows, rows on each edge, rows 1e-13 off an edge, and the vertices."""
    rng = np.random.default_rng(seed)
    interior = sample_with_rng(3, rng, 200)
    edges = []
    for zero in range(3):
        for eps in (0.0, 1e-13):
            X = sample_with_rng(3, rng, 20)
            X[:, zero] = eps
            edges.append(X / X.sum(axis=1, keepdims=True))
    return np.vstack([interior, *edges, np.eye(3)])


class TestStackedKernel:
    @pytest.mark.parametrize("op_id", range(1, 37))
    def test_routes_match_the_one_row_kernel(self, op_id):
        X = _kernel_rows(op_id)
        for a in (0.0, 0.3, 0.5, 0.7, 1.0):
            T = operator_tensor(op_id, a)
            for renormalize in (True, False):
                one_row = [_apply_array_reference(T, x, renormalize) for x in X]
                # A stack (n, 1, 3) is n one-row products.
                stacked = apply_array(T, X[:, None, :], renormalize)
                assert stacked.shape == (len(X), 1, 3)
                assert _bits(stacked) == _bits(one_row)
                # A point (3,) takes the same route as the old (1, 3) call.
                assert _bits([apply_array(T, x, renormalize) for x in X]) == _bits(one_row)
                # A batch (n, 3) keeps the matrix route, so verify's bits stay as they were.
                assert _bits(apply_array(T, X, renormalize)) == _bits(
                    _apply_array_reference(T, X, renormalize))


_BENCHMARK_PAIRS = [(13, 0.45), (28, 0.3), (25, 0.55), (4, 0.5), (13, 0.5)]


def _simulate_budget(a):
    """The `simulate` defaults: (tol, max_iter)."""
    return (BALANCED_TOL, BALANCED_MAX_ITER) if a == 0.5 else (DEFAULT_TOL, DEFAULT_MAX_ITER)


def _assert_matches_reference(T, starts, tol, budgets, rerun_every=1):
    """Every batched report equals the one-orbit loop's report of its start,
    at every budget. The reference loop reads max_iter only as the bound of
    its range, so an orbit that stops within a budget has the report it has
    at the largest budget. An orbit that runs past a budget is run again at
    that budget; past budgets above 2, only every `rerun_every`-th such start
    is, which keeps the suite fast (the batch still runs every start)."""
    full = [_omega_limit_reference(T, x0, tol, max(budgets)).to_json_dict() for x0 in starts]
    for max_iter in budgets:
        reports = omega_limits(T, [x0.coords for x0 in starts], tol=tol, max_iter=max_iter)
        assert len(reports) == len(starts)
        for i, (x0, ref, report) in enumerate(zip(starts, full, reports)):
            if ref["steps"] <= max_iter:
                assert report.to_json_dict() == ref
            elif max_iter <= 2 or i % rerun_every == 0:
                assert report.to_json_dict() == _omega_limit_reference(
                    T, x0, tol, max_iter).to_json_dict()
    return full


@pytest.mark.usefixtures("reference_kernel")
class TestBatchedOrbitsMatchReference:
    @pytest.mark.parametrize("seed", [7, 11])
    @pytest.mark.parametrize("op_id,a", _BENCHMARK_PAIRS)
    def test_benchmark_batches(self, op_id, a, seed):
        tol, default = _simulate_budget(a)
        _assert_matches_reference(operator_tensor(op_id, a), sample(3, seed, 300), tol,
                                  (1, 2, 100, 101, 127, 128, default), rerun_every=5)

    def test_batch_mixing_fixed_points_cycles_and_undecided_rows(self):
        # Operator 28 at a = 0.3: starts on the edge x1 = 0 fall into the cycle {e2, e3},
        # the others converge to e1, which is fixed from step 1; e2 starts on the cycle.
        T = operator_tensor(28, 0.3)
        rng = np.random.default_rng(5)
        edge = sample_with_rng(3, rng, 12)
        edge[:, 0] = 0.0
        starts = sample(3, 5, 12) + [SimplexPoint(x / x.sum()) for x in edge]
        starts += [vertex(1, 3), vertex(2, 3), SimplexPoint((0.0, 0.5, 0.5))]
        full = _assert_matches_reference(T, starts, DEFAULT_TOL, (1, 2, 3, 8, 20, 10 ** 5))
        kinds = {ref["outcome"]["kind"] for ref in full}
        assert kinds == {"fixed_point", "two_cycle"}
        # At a budget between the shortest and the longest orbit the batch also holds
        # undecided rows, and rows leave it at different steps.
        steps = sorted(ref["steps"] for ref in full)
        assert steps[0] == 1 and steps[-1] > 8
        kinds_at_8 = {r.outcome.kind for r in omega_limits(T, [x.coords for x in starts],
                                                           max_iter=8)}
        assert kinds_at_8 == {"fixed_point", "two_cycle", "undecided"}

    @pytest.mark.parametrize("op_id,a,x0,max_iter", [
        (13, 0.45, SimplexPoint((0.3, 0.4, 0.3)), DEFAULT_MAX_ITER),
        (4, 0.5, sample(3, 1, 2)[1], BALANCED_MAX_ITER),  # a 2-cycle found at step 509
        (28, 0.3, SimplexPoint((0.0, 0.9, 0.1)), DEFAULT_MAX_ITER),
        (13, 0.2, SimplexPoint((0.3, 0.4, 0.3)), 20),  # undecided (it needs 26 steps)
    ])
    def test_csv_bytes(self, op_id, a, x0, max_iter):
        T = operator_tensor(op_id, a)
        tol = _simulate_budget(a)[0]
        got = trajectory_csv(omega_limit(T, x0, tol=tol, max_iter=max_iter))
        assert got == _trajectory_csv_reference(_omega_limit_reference(T, x0, tol, max_iter))


class TestBatchInput:
    def test_rejects_empty_and_misshapen_batches(self):
        T = operator_tensor(13, 0.3)
        for bad in (np.empty((0, 3)), np.full(3, 1 / 3), np.full((2, 2), 0.5)):
            with pytest.raises(ValueError, match="dimension mismatch"):
                omega_limits(T, bad)

    def test_rejects_rows_off_the_simplex(self):
        with pytest.raises(ValueError):
            omega_limits(operator_tensor(13, 0.3), [[0.5, 0.5, 0.5]])
