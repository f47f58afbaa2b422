"""Command-line surface: catalog listing, classification, simulation, verification.

Exit codes: 0 for a decided/passing run, 1 for usage or input errors, 2 when
an outcome is undecided or a verification fails. All outputs are JSON
(schema_version 1) with 17-significant-digit floats; identical invocations
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import gc
import math
import re
import sys
from pathlib import Path
from typing import Optional

# simplex and dynamics are lazy modules (see qsodyn/__init__.py): each runs, and
# imports numpy, at the first attribute read, which only simulate and verify make.
from . import dynamics, jsonio, simplex
from .catalog import (
    ANALYZED_OPS,
    CATALOG_PARTITION,
    DEGENERATE_PARAMS,
    MATCH_TOL,
    OperatorSpec,
    classes_fixed_parameter,
    classify_catalog,
    matches_reference,
    operator_tensor,
    partition_structure_check,
    polynomial_text,
)
from .operators import HeredityTensor, structure_label, validate


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise UsageError(message)


def _domain(convert, ok, rule: str):
    """An argparse type: a value failing ok raises UsageError(rule), which argparse
    lets through to `main`; a failed conversion keeps argparse's own message."""
    def parse(text):
        value = convert(text)
        if ok(value):
            return value + 0  # -0.0 + 0 is 0.0: one value, one spelling, one output
        raise UsageError(rule)

    parse.__name__ = convert.__name__  # argparse says "invalid float value: 'x'"
    return parse


# Every single-flag domain, declared once.
_A = _domain(float, lambda a: 0.0 <= a <= 1.0, "--a must lie in [0, 1]")
_OP = _domain(int, lambda op: 1 <= op <= 36, "--op must be in 1..36")
_TOL = _domain(float, lambda tol: 0.0 < tol < math.inf, "--tol must be positive and finite")
_MAX_ITER = _domain(int, lambda n: n >= 1, "--max-iter must be >= 1")
_SEED = _domain(int, lambda n: n >= 0, "--seed must be >= 0")
_SEEDS = _domain(int, lambda n: n >= 1, "--seeds must be >= 1")
_COUNT = _domain(int, lambda n: n >= 1, "--count must be >= 1")


def _float_list(flag: str, text: str) -> list[float]:
    """A comma list of floats; every item is parsed before any is range-checked."""
    try:
        return [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"could not parse {flag} {text!r}: {exc}") from None


def _a_list(text: str) -> tuple[float, ...]:
    return tuple(map(_A, _float_list("--a", text)))


def _parse_x0(text: str) -> simplex.SimplexPoint:
    try:
        return simplex.SimplexPoint(_float_list("--x0", text))
    except ValueError as exc:
        raise UsageError(f"--x0 is not a simplex point: {exc}") from None


def _build_parser() -> _Parser:
    parser = _Parser(prog="qsodyn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_cat = sub.add_parser("catalog", help="list the 36 catalog operators with structure tags")
    p_cat.add_argument("--a", type=_A, default=0.3, help="parameter value (default 0.3)")
    p_cat.add_argument("--out", type=Path, default=None)
    p_cat.set_defaults(func=_cmd_catalog)

    p_cls = sub.add_parser("classify", help="conjugacy classes of the catalog at a parameter")
    p_cls.add_argument("--a", type=_A, required=True)
    p_cls.add_argument("--strict", action="store_true",
                       help="only merge coefficient matches at the same parameter")
    p_cls.add_argument("--out", type=Path, default=None)
    p_cls.set_defaults(func=_cmd_classify)

    p_sim = sub.add_parser("simulate", help="iterate an operator and classify the orbit")
    p_sim.add_argument("--op", type=_OP, default=None, help="catalog id 1..36")
    p_sim.add_argument("--a", type=_A, default=None)
    p_sim.add_argument("--tensor", type=Path, default=None, help="tensor JSON file")
    p_sim.add_argument("--x0", type=_parse_x0, default=None,
                       help="initial point, e.g. 0.3,0.4,0.3")
    p_sim.add_argument("--seed", type=_SEED, default=None, help="seed for sampled initial points")
    p_sim.add_argument("--count", type=_COUNT, default=None,
                       help="number of sampled trajectories with --seed (default 1)")
    p_sim.add_argument("--tol", type=_TOL, default=None)
    p_sim.add_argument("--max-iter", type=_MAX_ITER, default=None)
    p_sim.add_argument("--out", type=Path, default=None)
    p_sim.add_argument("--format", choices=("json", "csv"), default="json")
    p_sim.set_defaults(func=_cmd_simulate)

    p_ver = sub.add_parser("verify", help="check orbits against the predicted limit sets")
    p_ver.add_argument("--op", type=int, required=True, choices=sorted(ANALYZED_OPS))
    p_ver.add_argument("--a", type=_a_list, default=None,
                       help="comma-separated parameter list (default depends on --op)")
    p_ver.add_argument("--seeds", type=_SEEDS, default=100)
    p_ver.add_argument("--tol", type=_TOL, default=None)
    p_ver.add_argument("--max-iter", type=_MAX_ITER, default=None)
    p_ver.add_argument("--seed", type=_SEED, default=7, help="base seed for initial points")
    p_ver.add_argument("--out", type=Path, default=None)
    p_ver.set_defaults(func=_cmd_verify)

    p_ten = sub.add_parser("tensor", help="export a catalog tensor or validate a tensor file")
    p_ten.add_argument("--op", type=_OP, default=None)
    p_ten.add_argument("--a", type=_A, default=None)
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
    text = text if text.endswith("\n") else text + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        _write(out, text)


def _emit_json(payload: dict, out: Optional[Path]) -> None:
    _emit(jsonio.dumps({"schema_version": 1, **payload}), out)


def _cmd_catalog(args) -> int:
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
    _emit_json({"a": args.a, "operators": entries}, args.out)
    return 0


def _cmd_classify(args) -> int:
    classes = (classes_fixed_parameter if args.strict else classify_catalog)(args.a)
    degenerate = any(abs(args.a - b) <= MATCH_TOL for b in DEGENERATE_PARAMS)
    comparison = ("degenerate parameter" if degenerate else
                  "MATCH" if matches_reference(classes) else "MISMATCH")
    payload = {
        "a": args.a,
        "mirror_merged": not args.strict,
        "degenerate": degenerate,
        "class_count": len(classes),
        "classes": [list(c) for c in classes],
        "reference_comparison": comparison,
    }
    _emit_json(payload, args.out)
    return 0


def _load_tensor(args) -> tuple[HeredityTensor, dict]:
    """The tensor of --op with --a, or of the --tensor file, with its JSON source tag."""
    if (args.tensor is None) == (args.op is None):
        raise UsageError("need exactly one input source: --op with --a, or --tensor")
    if args.tensor is None:
        if args.a is None:
            raise UsageError("--op requires --a")
        return operator_tensor(args.op, args.a), {"op": args.op, "a": args.a}
    if args.a is not None:
        raise UsageError("--a goes with --op; a tensor file carries its own coefficients")
    try:
        return HeredityTensor.from_json(args.tensor.read_text()), {"tensor_file": str(args.tensor)}
    except OSError as exc:
        raise UsageError(f"cannot read tensor file: {exc}") from None
    except ValueError as exc:  # also text that is not UTF-8
        raise UsageError(f"bad tensor file: {exc}") from None


def _cmd_simulate(args) -> int:
    T, source = _load_tensor(args)
    report = validate(T)
    if not report.ok:
        raise UsageError("tensor file violates the heredity constraints: "
                         + "; ".join(report.describe()[:5]))
    if (args.x0 is None) == (args.seed is None):
        raise UsageError("need exactly one of --x0 or --seed")
    if args.x0 is not None:
        if args.count is not None:
            raise UsageError("--count needs --seed; --x0 gives one trajectory")
        if args.x0.m != T.m:
            raise UsageError(f"--x0 has {args.x0.m} coordinates, tensor expects {T.m}")
        points = [args.x0]
    else:
        if T.m < 2:
            raise UsageError("--seed needs a tensor with m >= 2")
        points = simplex.sample(T.m, args.seed, args.count or 1)
    balanced = "a" in source and dynamics.regime(source["a"]) == "balanced"
    tol = args.tol if args.tol is not None else (
        dynamics.BALANCED_TOL if balanced else dynamics.DEFAULT_TOL)
    max_iter = args.max_iter if args.max_iter is not None else (
        dynamics.BALANCED_MAX_ITER if balanced else dynamics.DEFAULT_MAX_ITER)
    if args.format == "csv":
        if len(points) != 1:
            raise UsageError("CSV export needs exactly one trajectory")
        if args.out is None:
            raise UsageError("CSV export needs --out to name the files")

    reports = dynamics.omega_limits(T, [p.coords for p in points], tol=tol, max_iter=max_iter)
    payload = {
        "source": source,
        "tol": tol,
        "max_iter": max_iter,
        "trajectories": [r.to_json_dict() for r in reports],
    }
    _emit_json(payload, args.out)
    if args.format == "csv":
        _write(args.out.with_suffix(".csv"), dynamics.trajectory_csv(reports[0]))
    return 0 if all(r.outcome.kind != "undecided" for r in reports) else 2


_VERIFY_DEFAULT_A = {13: (0.2, 0.5, 0.8), 4: (0.5, 0.8), 28: (0.3, 0.5), 25: (0.2, 0.5, 0.8)}


def _cmd_verify(args) -> int:
    a_values = _VERIFY_DEFAULT_A[args.op] if args.a is None else args.a
    try:
        reports = dynamics.verify_predictions(
            args.op, a_values, seeds=args.seeds, tol=args.tol,
            max_iter=args.max_iter, base_seed=args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    payload = {
        "op": args.op,
        "passed": all(r.passed for r in reports),
        "reports": [r.to_json_dict() for r in reports],
    }
    _emit_json(payload, args.out)
    return 0 if payload["passed"] else 2


def _cmd_tensor(args) -> int:
    T, source = _load_tensor(args)
    if "op" in source:
        _emit(T.to_json(), args.out)
        return 0
    report = validate(T)
    _emit_json({"m": T.m, "valid": report.ok, "violations": report.describe()}, args.out)
    return 0 if report.ok else 2


def _attach_values(argv: list[str]) -> list[str]:
    """argv with each `--flag -value` pair written `--flag=-value`. argparse reads a
    token such as -0.1,0.3, -1e-5 or -inf as an option, so it would never reach the
    flag's type. Only -h and tokens that start with -- are options here, so a flag
    before one of them still lacks its value, as in `--a --out f`."""
    out = [""]
    for token in argv:
        if re.fullmatch(r"--[^=]+", out[-1]) and re.match(r"-[^-h]", token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out[1:]


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_attach_values(sys.argv[1:] if argv is None else list(argv)))
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def run() -> None:
    """The console entry: exit with main's code."""
    code = main()
    gc.freeze()  # the collector's sweep at interpreter exit frees nothing the OS would not
    sys.exit(code)


if __name__ == "__main__":  # pragma: no cover
    run()
