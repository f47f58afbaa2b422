"""Command-line surface: catalog listing, classification, simulation, verification.

Exit codes: 0 for a decided/passing run, 1 for usage or input errors, 2 when
an outcome is undecided or a verification fails. All outputs are JSON
(schema_version 1) with 17-significant-digit floats; identical invocations
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from . import jsonio
from .catalog import (
    CATALOG_PARTITION,
    OperatorSpec,
    classes_fixed_parameter,
    classify_catalog,
    matches_reference,
    operator_tensor,
    partition_structure_check,
    polynomial_text,
)
from .dynamics import (
    ANALYZED_OPS,
    BALANCED_MAX_ITER,
    BALANCED_TOL,
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    omega_limit,
    regime,
    trajectory_csv,
    verify_predictions,
)
from .operators import HeredityTensor, structure_label, validate
from .simplex import SimplexPoint, sample


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="qsodyn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_cat = sub.add_parser("catalog", help="list the 36 catalog operators with structure tags")
    p_cat.add_argument("--a", type=float, default=0.3, help="parameter value (default 0.3)")
    p_cat.add_argument("--out", type=Path, default=None)
    p_cat.set_defaults(func=_cmd_catalog)

    p_cls = sub.add_parser("classify", help="conjugacy classes of the catalog at a parameter")
    p_cls.add_argument("--a", type=float, required=True)
    p_cls.add_argument("--strict", action="store_true",
                       help="only merge coefficient matches at the same parameter")
    p_cls.add_argument("--out", type=Path, default=None)
    p_cls.set_defaults(func=_cmd_classify)

    p_sim = sub.add_parser("simulate", help="iterate an operator and classify the orbit")
    p_sim.add_argument("--op", type=int, default=None, help="catalog id 1..36")
    p_sim.add_argument("--a", type=float, default=None)
    p_sim.add_argument("--tensor", type=Path, default=None, help="tensor JSON file")
    p_sim.add_argument("--x0", type=str, default=None, help="initial point, e.g. 0.3,0.4,0.3")
    p_sim.add_argument("--seed", type=int, default=None, help="seed for sampled initial points")
    p_sim.add_argument("--count", type=int, default=1, help="number of sampled trajectories")
    p_sim.add_argument("--tol", type=float, default=None)
    p_sim.add_argument("--max-iter", type=int, default=None)
    p_sim.add_argument("--out", type=Path, default=None)
    p_sim.add_argument("--format", choices=("json", "csv"), default="json")
    p_sim.set_defaults(func=_cmd_simulate)

    p_ver = sub.add_parser("verify", help="check orbits against the predicted limit sets")
    p_ver.add_argument("--op", type=int, required=True, choices=sorted(ANALYZED_OPS))
    p_ver.add_argument("--a", type=str, default=None,
                       help="comma-separated parameter list (default depends on --op)")
    p_ver.add_argument("--seeds", type=int, default=100)
    p_ver.add_argument("--tol", type=float, default=None)
    p_ver.add_argument("--max-iter", type=int, default=None)
    p_ver.add_argument("--seed", type=int, default=7, help="base seed for initial points")
    p_ver.add_argument("--out", type=Path, default=None)
    p_ver.set_defaults(func=_cmd_verify)

    p_ten = sub.add_parser("tensor", help="export a catalog tensor or validate a tensor file")
    p_ten.add_argument("--op", type=int, default=None)
    p_ten.add_argument("--a", type=float, default=None)
    p_ten.add_argument("--tensor", type=Path, default=None)
    p_ten.add_argument("--out", type=Path, default=None)
    p_ten.set_defaults(func=_cmd_tensor)

    return parser


def _write(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from None


def _emit(text: str, out: Optional[Path]) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        _write(out, text if text.endswith("\n") else text + "\n")


def _emit_json(payload: dict, out: Optional[Path]) -> None:
    _emit(jsonio.dumps(payload), out)


DEGENERATE_PARAMS = (0.0, 0.5, 1.0)


def _cmd_catalog(args) -> int:
    if not 0.0 <= args.a <= 1.0:
        raise UsageError("--a must lie in [0, 1]")
    entries = []
    for op_id in range(1, 37):
        spec = OperatorSpec.from_id(op_id, args.a)
        T = operator_tensor(op_id, args.a)
        check = partition_structure_check(T, CATALOG_PARTITION)
        entries.append({
            "id": op_id,
            "case_one": spec.case_one,
            "case_two": spec.case_two,
            "polynomial": polynomial_text(T),
            "structure": structure_label(T),
            "structure_check": {"partition_index": 2, "passed": check.passed},
            "validation_ok": validate(T).ok,
        })
    _emit_json({"schema_version": 1, "a": args.a, "operators": entries}, args.out)
    return 0


def _cmd_classify(args) -> int:
    if not 0.0 <= args.a <= 1.0:
        raise UsageError("--a must lie in [0, 1]")
    if args.strict:
        classes = classes_fixed_parameter(args.a)
    else:
        classes = classify_catalog(args.a)
    degenerate = args.a in DEGENERATE_PARAMS
    if degenerate:
        comparison = "degenerate parameter"
    else:
        comparison = "MATCH" if matches_reference(classes) else "MISMATCH"
    payload = {
        "schema_version": 1,
        "a": args.a,
        "mirror_merged": not args.strict,
        "degenerate": degenerate,
        "class_count": len(classes),
        "classes": [list(c) for c in classes],
        "reference_comparison": comparison,
    }
    _emit_json(payload, args.out)
    return 0


def _parse_x0(text: str) -> SimplexPoint:
    try:
        coords = [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"could not parse --x0 {text!r}: {exc}") from None
    try:
        return SimplexPoint(coords)
    except ValueError as exc:
        raise UsageError(f"--x0 is not a simplex point: {exc}") from None


def _read_tensor_file(path: Path) -> HeredityTensor:
    try:
        text = path.read_text()
    except OSError as exc:
        raise UsageError(f"cannot read tensor file: {exc}") from None
    try:
        return HeredityTensor.from_json(text)
    except (ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"bad tensor file: {exc}") from None


def _catalog_tensor(op: int, a: float) -> HeredityTensor:
    if not 1 <= op <= 36:
        raise UsageError("--op must be in 1..36")
    if not 0.0 <= a <= 1.0:
        raise UsageError("--a must lie in [0, 1]")
    return operator_tensor(op, a)


def _load_tensor(args) -> tuple[HeredityTensor, dict]:
    if (args.tensor is None) == (args.op is None):
        raise UsageError("need exactly one input source: --op with --a, or --tensor")
    if args.tensor is not None:
        T = _read_tensor_file(args.tensor)
        report = validate(T)
        if not report.ok:
            raise UsageError(
                "tensor file violates the heredity constraints: "
                + "; ".join(report.describe()[:5]))
        return T, {"tensor_file": str(args.tensor)}
    if args.a is None:
        raise UsageError("--op requires --a")
    return _catalog_tensor(args.op, args.a), {"op": args.op, "a": args.a}


def _cmd_simulate(args) -> int:
    T, source = _load_tensor(args)
    if (args.x0 is None) == (args.seed is None):
        raise UsageError("need exactly one of --x0 or --seed")
    if args.x0 is not None:
        points = [_parse_x0(args.x0)]
        if points[0].m != T.m:
            raise UsageError(f"--x0 has {points[0].m} coordinates, tensor expects {T.m}")
    else:
        if args.seed < 0:
            raise UsageError("--seed must be >= 0")
        if args.count < 1:
            raise UsageError("--count must be >= 1")
        if T.m < 2:
            raise UsageError("--seed needs a tensor with m >= 2")
        points = sample(T.m, args.seed, args.count)
    balanced = "a" in source and regime(source["a"]) == "balanced"
    tol = args.tol if args.tol is not None else (BALANCED_TOL if balanced else DEFAULT_TOL)
    max_iter = args.max_iter if args.max_iter is not None else (
        BALANCED_MAX_ITER if balanced else DEFAULT_MAX_ITER)
    if not tol > 0:
        raise UsageError("--tol must be positive")
    if max_iter < 1:
        raise UsageError("--max-iter must be >= 1")

    reports = [omega_limit(T, x0, tol=tol, max_iter=max_iter) for x0 in points]
    payload = {
        "schema_version": 1,
        "source": source,
        "tol": tol,
        "max_iter": max_iter,
        "trajectories": [r.to_json_dict() for r in reports],
    }
    _emit_json(payload, args.out)
    if args.format == "csv":
        if len(reports) != 1:
            raise UsageError("CSV export needs exactly one trajectory")
        if args.out is None:
            raise UsageError("CSV export needs --out to name the files")
        csv_path = args.out.with_suffix(".csv")
        _write(csv_path, trajectory_csv(reports[0]))
    return 0 if all(r.outcome.kind != "undecided" for r in reports) else 2


_VERIFY_DEFAULT_A = {
    13: (0.2, 0.5, 0.8),
    4: (0.5, 0.8),
    28: (0.3, 0.5),
    25: (0.2, 0.5, 0.8),
}


def _cmd_verify(args) -> int:
    if args.a is None:
        a_values = _VERIFY_DEFAULT_A[args.op]
    else:
        try:
            a_values = tuple(float(part) for part in args.a.split(","))
        except ValueError as exc:
            raise UsageError(f"could not parse --a {args.a!r}: {exc}") from None
    if args.seeds < 1:
        raise UsageError("--seeds must be >= 1")
    if args.seed < 0:
        raise UsageError("--seed must be >= 0")
    try:
        reports = verify_predictions(
            args.op, a_values, seeds=args.seeds, tol=args.tol,
            max_iter=args.max_iter, base_seed=args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    payload = {
        "schema_version": 1,
        "op": args.op,
        "passed": all(r.passed for r in reports),
        "reports": [r.to_json_dict() for r in reports],
    }
    _emit_json(payload, args.out)
    return 0 if payload["passed"] else 2


def _cmd_tensor(args) -> int:
    if args.tensor is not None and args.op is not None:
        raise UsageError("choose one: export with --op/--a or validate with --tensor")
    if args.tensor is not None:
        T = _read_tensor_file(args.tensor)
        report = validate(T)
        payload = {
            "schema_version": 1,
            "m": T.m,
            "valid": report.ok,
            "violations": report.describe(),
        }
        _emit_json(payload, args.out)
        return 0 if report.ok else 2
    if args.op is None or args.a is None:
        raise UsageError("tensor export needs --op and --a")
    _emit(_catalog_tensor(args.op, args.a).to_json(), args.out)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
