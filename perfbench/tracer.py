"""One in-process pass of a workload, optionally traced at the qsodyn layer boundaries.

Runs every invocation of `workloads.invocations(workload, seed)` inside this
process (CLI calls through `qsodyn.cli.main` with stdout captured), checks
each output, and prints one JSON line with the pass wall time and, with
--traced, the per-layer metrics.

Tracing wraps the functions in TRACED from here, so `src/qsodyn` stays
untouched: each wrapper replaces the function in its home module and under
every name another qsodyn module imported it as (for instance
`qsodyn.dynamics.apply_array`). Spans (name, parent, start, end) are kept in
flat in-memory arrays and written to perfbench/out/ as .npz when the pass
ends. A span's self time is its duration minus the durations of its direct
children.

Run from the checkout root:
    python3 perfbench/tracer.py --workload orbits-structure --seed 7 [--traced --tag 1]
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402


def _apply_array_span(args, kwargs) -> str:
    x = args[1] if len(args) > 1 else kwargs["x"]
    return "operators.apply_array.single" if x.ndim == 1 else "operators.apply_array.batch"


def _rows(counts, args, kwargs, result):
    if result.ndim == 2:
        counts["operators.apply_array.batch.rows"] += result.shape[0]


def _curves(counts, args, kwargs, result):
    counts["dynamics.geometry.min_l1_distance.curve_calls"] += len(args[0].curves)


def _steps(counts, args, kwargs, result):
    counts["dynamics.orbit.omega_limit.steps"] += result.steps


def _bytes(counts, args, kwargs, result):
    counts["jsonio.dumps.bytes"] += len(result.encode())


def _orbits(counts, args, kwargs, result):
    for report in result:
        for case in report.cases:
            counts["dynamics.verify.verify_predictions.orbits"] += len(case.verdicts)
            counts["dynamics.verify.verify_predictions.orbit_steps"] += sum(
                case.max_iter if v.steps is None else v.steps for v in case.verdicts)


# (home module, attribute, span name or function of the call arguments, work tally)
TRACED = (
    ("simplex", "SimplexPoint.__init__", "simplex.SimplexPoint", None),
    ("operators", "apply_array", _apply_array_span, _rows),
    ("operators", "structure_label", "operators.structure_label", None),
    ("operators", "validate", "operators.validate", None),
    ("catalog", "classify_catalog", "catalog.classify_catalog", None),
    ("catalog", "operator_tensor", "catalog.operator_tensor", None),
    ("catalog", "conjugate", "catalog.conjugate", None),
    ("dynamics", "omega_limit", "dynamics.orbit.omega_limit", _steps),
    ("dynamics", "PointSet.min_l1_distance", "dynamics.geometry.min_l1_distance", _curves),
    ("dynamics", "limit_prediction", "dynamics.predict.limit_prediction", None),
    ("dynamics", "fixed_points_exact", "dynamics.predict.exact_sets", None),
    ("dynamics", "periodic2_exact", "dynamics.predict.exact_sets", None),
    ("dynamics", "verify_predictions", "dynamics.verify.verify_predictions", _orbits),
    ("dynamics", "fixed_points_numeric", "dynamics.oracle.fixed_points_numeric", None),
    ("jsonio", "dumps", "jsonio.dumps", _bytes),
    ("cli", "main", "cli.main", None),
)
SPAN_NAMES = tuple(dict.fromkeys(
    n for _, _, name, _ in TRACED
    for n in ((name,) if isinstance(name, str) else
              ("operators.apply_array.single", "operators.apply_array.batch"))))
COUNT_NAMES = (
    "operators.apply_array.batch.rows",
    "dynamics.geometry.min_l1_distance.curve_calls",
    "dynamics.orbit.omega_limit.steps",
    "jsonio.dumps.bytes",
    "dynamics.verify.verify_predictions.orbits",
    "dynamics.verify.verify_predictions.orbit_steps",
)


class Tracer:
    """Span recorder; spans live in flat arrays until `save`."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name, tally=None):
        fixed = self._id(name) if isinstance(name, str) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.name_id)
            self.name_id.append(fixed if fixed is not None else self._id(name(args, kwargs)))
            self.parent.append(self._stack[-1])
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = perf_counter()
                self.start[sid] = t0
                self._stack.pop()
            if tally is not None:
                tally(self.counts, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Replace every TRACED function, under each name qsodyn modules bind it to."""
        import qsodyn
        import qsodyn.cli  # noqa: F401  (loads every module before names are rebound)
        modules = [m for n, m in sys.modules.items() if n == "qsodyn" or n.startswith("qsodyn.")]
        for home, attr, name, tally in TRACED:
            owner = getattr(qsodyn, home)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                setattr(owner, attr, self.wrap(getattr(owner, attr), name, tally))
                continue
            orig = getattr(owner, attr)
            wrapped = self.wrap(orig, name, tally)
            for module in modules:
                if module.__dict__.get(attr) is orig:
                    setattr(module, attr, wrapped)

    def metrics(self) -> dict[str, float]:
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        self_s = np.bincount(ids, weights=dur - child, minlength=n)
        total_s = np.bincount(ids, weights=dur, minlength=n)
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            i = self._ids.get(name)
            out[f"{name}.calls"] = int(calls[i]) if i is not None else 0
            out[f"{name}.self_s"] = float(self_s[i]) if i is not None else 0.0
        for name in COUNT_NAMES:
            out[name] = int(self.counts[name])
        orbits = out["dynamics.verify.verify_predictions.orbits"]
        out["dynamics.geometry.calls_per_orbit"] = (
            out["dynamics.geometry.min_l1_distance.calls"] / orbits if orbits else 0.0)
        orbit_s = float(total_s[self._ids["dynamics.orbit.omega_limit"]])
        out["dynamics.orbit.omega_limit.steps_per_s"] = (
            out["dynamics.orbit.omega_limit.steps"] / orbit_s if orbit_s else 0.0)
        out["trace.spans"] = len(dur)
        return out

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, np.int32),
                 parent=np.frombuffer(self.parent, np.int64),
                 start=np.frombuffer(self.start, np.float64), end=np.frombuffer(self.end, np.float64))


def run_pass(workload: str, seed: int, golden: dict[str, str]) -> dict:
    """Run and check one pass in-process; returns wall time, digests and failures."""
    from qsodyn import cli
    import oracle

    invs = wl.invocations(workload, seed)
    outputs = []
    t0 = perf_counter()
    for inv in invs:
        wl.prepare(inv)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            if inv.kind == "cli":
                code = cli.main(list(inv.argv))
            else:
                sys.stdout.write(oracle.run())
                code = 0
        outputs.append((code, wl.output_bytes(buf.getvalue().encode(), inv)))
    wall = perf_counter() - t0
    errors, digests = [], {}
    for inv, (code, out) in zip(invs, outputs):
        digests[inv.key] = wl.digest(out)
        try:
            wl.check(inv, code, out, golden)
        except wl.CheckFailed as exc:
            errors.append(f"{inv.key}: {exc}")
    return {"wall_s": wall, "attempted": len(invs), "failed": len(errors), "errors": errors,
            "digests": digests}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--tag", default="0", help="suffix of the span file name")
    args = parser.parse_args()
    os.chdir(ROOT)
    tracer = None
    if args.traced:
        tracer = Tracer()
        tracer.install()
    result = run_pass(args.workload, args.seed, wl.load_golden())
    result.pop("digests")
    if tracer is not None:
        result["metrics"] = tracer.metrics()
        tracer.save(ROOT / wl.OUT_DIR / f"trace-{args.workload}-{args.tag}.npz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
