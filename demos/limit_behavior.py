"""Orbit behavior of the four analyzed operators, with a CSV trajectory export.

Run with: python demos/limit_behavior.py
"""

import tempfile
from pathlib import Path

import numpy as np

from qsodyn import (
    SimplexPoint,
    iterate,
    omega_limit,
    operator_tensor,
    region_classify,
    trajectory_csv,
)

x0 = SimplexPoint((0.3, 0.4, 0.3))
print(f"starting point {x0.as_tuple()} lies on the {region_classify(x0).label()}")

# Below a = 1/2 operator 13 drives mass to coordinate 2; above, to coordinate 1.
for a in (0.2, 0.8):
    report = omega_limit(operator_tensor(13, a), x0)
    limit = np.round(report.outcome.points[0].coords, 9)
    print(f"operator 13, a = {a}: {report.outcome.kind} at {limit} "
          f"after {report.steps} steps")

# At a = 1/2 the first coordinate freezes and the orbit settles on the slice.
report = omega_limit(operator_tensor(13, 0.5), x0, tol=1e-6, max_iter=10 ** 6)
print(f"operator 13, a = 0.5: {report.outcome.kind} at "
      f"{np.round(report.outcome.points[0].coords, 6)} (slice x1 = 0.3)")

# Operator 28 swaps the last two coordinates of edge points at a = 1/2.
edge_point = SimplexPoint((0.0, 0.3, 0.7))
orbit = iterate(operator_tensor(28, 0.5), edge_point, 4)
print("\noperator 28, a = 0.5, edge orbit:",
      " -> ".join(str(tuple(np.round(p.coords, 3).tolist())) for p in orbit))

report = omega_limit(operator_tensor(28, 0.3), SimplexPoint((0.0, 0.9, 0.1)))
cycle = [tuple(np.round(p.coords, 6).tolist()) for p in report.outcome.points]
print(f"operator 28, a = 0.3, edge start: {report.outcome.kind} between {cycle}")

# Operator 25 sends every off-edge start to the first vertex.
report = omega_limit(operator_tensor(25, 0.5), SimplexPoint((0.2, 0.4, 0.4)))
print(f"\noperator 25, a = 0.5: {report.outcome.kind} at "
      f"{np.round(report.outcome.points[0].coords, 9)}")

# Trajectories export as CSV with ternary plot coordinates (u, v); the file goes to a
# fresh temporary directory, so running the demo leaves the working directory as it was.
out = Path(tempfile.mkdtemp()) / "trajectory_op13.csv"
out.write_text(trajectory_csv(omega_limit(operator_tensor(13, 0.2), x0)))
print(f"\nwrote {out} ({len(out.read_text().splitlines()) - 1} rows, "
      "columns step,x1,x2,x3,u,v)")
