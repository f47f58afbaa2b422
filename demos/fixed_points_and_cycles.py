"""Closed-form fixed points and 2-cycles, cross-checked by the numeric oracle
and by batch verification of the predicted limits.

Run with: python demos/fixed_points_and_cycles.py
"""

import numpy as np

from qsodyn import (
    CYCLE_PARAM_SUP,
    edge_fixed_height,
    fixed_points_exact,
    fixed_points_numeric,
    operator_tensor,
    periodic2_exact,
    slice_cycle_heights,
    slice_fixed_height,
    verify_predictions,
)

# Closed forms: the edge fixed point of operator 28 and the slice families of
# operator 4 at a = 1/2.
print("edge fixed height of operator 28 over a:")
for a in (0.0, 0.2, 0.5, 0.8, 1.0):
    print(f"  a = {a}: (0, {edge_fixed_height(a):.6f}, {1 - edge_fixed_height(a):.6f})")

print(f"\nslice fixed curve of operator 4 at a = 1/2 (cycles exist below "
      f"c = {CYCLE_PARAM_SUP:.6f}):")
for c in (0.0, 0.05, 0.1, 0.3, 0.7):
    h = slice_fixed_height(c)
    line = f"  x1 = {c}: fixed height {h:.6f}"
    if c < CYCLE_PARAM_SUP:
        lo, hi = slice_cycle_heights(c)
        line += f", cycle heights {lo:.6f} / {hi:.6f}"
    print(line)

# The numeric oracle rediscovers the exact fixed sets from a seed grid.
print("\nnumeric oracle vs closed forms:")
for op_id, a in ((13, 0.7), (4, 0.3), (28, 0.2), (25, 0.9)):
    found = fixed_points_numeric(operator_tensor(op_id, a))
    exact = fixed_points_exact(op_id, a).sample()
    print(f"  operator {op_id}, a = {a}: found {len(found)} fixed points, "
          f"expected {len(exact)}")
    for p in found:
        print(f"     {tuple(np.round(p.coords, 9).tolist())}")

print("\ngenuine 2-cycles of operator 28 at a = 0.3:",
      [p.as_tuple() for p in periodic2_exact(28, 0.3).points])

# Batch verification: seeded orbits must approach their predicted limits.
print("\nverification runs (100 seeded orbits per case):")
for op_id, a_values in ((13, (0.2, 0.8)), (4, (0.8,)), (28, (0.3,)), (25, (0.5,))):
    for report in verify_predictions(op_id, a_values, seeds=100):
        worst = max(c.distance.max() for c in report.cases)
        print(f"  operator {op_id}, a = {report.a}: "
              f"{'pass' if report.passed else 'FAIL'} "
              f"(worst final distance {worst:.2e})")
