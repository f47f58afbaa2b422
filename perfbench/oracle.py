"""Numeric fixed-point oracle against the closed forms, on the 16 (operator, a) pairs.

For operators 4, 13, 25 and 28 at a in {0.1, 0.3, 0.7, 0.9}, runs
`fixed_points_numeric` and compares its points with `fixed_points_exact`:
the two sets must have the same size and lie within l1 Hausdorff distance
1e-9. Prints one JSON object with a verdict per pair (no raw floats, so the
output stays byte-stable under last-digit roundoff changes).

Run from the checkout root with `PYTHONPATH=src python3 perfbench/oracle.py`.
"""

from __future__ import annotations

import json

from qsodyn import catalog, dynamics, simplex

OPS = (13, 4, 28, 25)
PARAMS = (0.1, 0.3, 0.7, 0.9)
TOL = 1e-9


def _hausdorff(found, exact) -> float:
    def one_way(us, vs):
        return max(min(simplex.l1_distance(u, v) for v in vs) for u in us)
    return max(one_way(found, exact), one_way(exact, found))


def run() -> str:
    pairs = []
    for op in OPS:
        for a in PARAMS:
            found = dynamics.fixed_points_numeric(catalog.operator_tensor(op, a))
            exact = dynamics.fixed_points_exact(op, a).sample()
            agree = len(found) == len(exact) and _hausdorff(found, exact) <= TOL
            pairs.append({"op": op, "a": a, "found": len(found), "exact": len(exact),
                          "agree": agree})
    return json.dumps({"tol": TOL, "pairs": pairs}, indent=1) + "\n"


if __name__ == "__main__":
    print(run(), end="")
