"""The three benchmark workloads: which invocations they run and how each output is checked.

An invocation is one `qsodyn` CLI call (or the numeric-oracle script). Both the
end-to-end runner (`run.py`, one child process per invocation) and the traced
run (`tracer.py`, every invocation in one process) build their work from
`invocations(workload, seed)` and judge it with `check(inv, code, output)`, so
the two measure exactly the same work and hold it to the same checks.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"
OUT_DIR = "perfbench/out"  # relative to the checkout root, which is the working directory
STRUCTURE_PARAMS = (0.1, 0.3, 0.7, 0.9)

WORKLOADS = ("verify-continuum", "verify-hyperbolic", "orbits-structure")


@dataclass(frozen=True)
class Invocation:
    kind: str  # "cli": argv goes to qsodyn.cli; "oracle": run perfbench/oracle.py
    argv: tuple[str, ...] = ()
    out_file: Optional[str] = None  # file the invocation writes, checked with its stdout

    @property
    def key(self) -> str:
        return " ".join((self.kind,) + self.argv)


def _verify(op: int, a: str, seeds: int, seed: int) -> Invocation:
    return Invocation("cli", ("verify", "--op", str(op), "--a", a,
                              "--seeds", str(seeds), "--seed", str(seed)))


def _simulate(op: int, a: float, count: int, seed: int) -> Invocation:
    return Invocation("cli", ("simulate", "--op", str(op), "--a", repr(a),
                              "--seed", str(seed), "--count", str(count)))


def _orbits(seed: int) -> list[Invocation]:
    return [_simulate(op, a, count, seed) for op, a, count in
            ((13, 0.45, 300), (28, 0.3, 300), (25, 0.55, 300), (4, 0.5, 30), (13, 0.5, 300))]


def _structure(seed: int) -> list[Invocation]:
    out = []
    for a in STRUCTURE_PARAMS:
        out.append(Invocation("cli", ("catalog", "--a", repr(a))))
        out.append(Invocation("cli", ("classify", "--a", repr(a))))
        out.append(Invocation("cli", ("classify", "--a", repr(a), "--strict")))
    op = 1 + seed % 36
    a = STRUCTURE_PARAMS[(seed // 36) % len(STRUCTURE_PARAMS)]
    path = f"{OUT_DIR}/tensor.json"
    out.append(Invocation("cli", ("tensor", "--op", str(op), "--a", repr(a), "--out", path),
                          out_file=path))
    out.append(Invocation("cli", ("tensor", "--tensor", path)))
    out.append(Invocation("oracle"))
    return out


def invocations(workload: str, seed: int) -> list[Invocation]:
    """The invocations of one pass of `workload`; `seed` fixes every sampled input."""
    if workload == "verify-continuum":
        return [_verify(op, "0.5", 100, seed) for op in (4, 13, 28, 25)]
    if workload == "verify-hyperbolic":
        return [_verify(op, a, 2000, seed) for op, a in
                ((13, "0.2,0.8"), (4, "0.8"), (28, "0.3"), (25, "0.2,0.8"))]
    if workload == "orbits-structure":
        return _orbits(seed) + _structure(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def load_golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


def prepare(inv: Invocation) -> None:
    """Remove the file an invocation will write, so a stale copy cannot pass its check."""
    if inv.out_file is not None:
        path = Path(inv.out_file)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.unlink(missing_ok=True)


def output_bytes(stdout: bytes, inv: Invocation) -> bytes:
    """What an invocation produced: its stdout, plus the file it was told to write."""
    if inv.out_file is None:
        return stdout
    path = Path(inv.out_file)
    return stdout + (path.read_bytes() if path.exists() else b"")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class CheckFailed(Exception):
    pass


def check(inv: Invocation, code: int, output: bytes, golden: dict[str, str]) -> int:
    """Raise CheckFailed unless the output is right; return the work units it completed.

    A unit is an orbit verified or simulated, or one (operator, parameter)
    analysis. Outputs whose digest is recorded in golden.json must match it
    byte for byte; every output must also pass the semantic checks below.
    """
    if code != 0:
        raise CheckFailed(f"exit code {code}")
    want = golden.get(inv.key)
    if want is not None and digest(output) != want:
        raise CheckFailed("output differs from the recorded digest")
    try:
        data = json.loads(output)
    except ValueError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from None
    command = inv.argv[0] if inv.argv else "oracle"
    if command == "verify":
        seeds = int(inv.argv[inv.argv.index("--seeds") + 1])
        if data["passed"] is not True:
            raise CheckFailed('"passed" is not true')
        units = 0
        for report in data["reports"]:
            for case in report["cases"]:
                if len(case["points"]) != seeds or not case["passed"]:
                    raise CheckFailed(f"case {case['label']!r} incomplete or failed")
                units += seeds
        return units
    if command == "simulate":
        count = int(inv.argv[inv.argv.index("--count") + 1])
        trajectories = data["trajectories"]
        if len(trajectories) != count:
            raise CheckFailed(f"{len(trajectories)} trajectories, expected {count}")
        if any(t["outcome"]["kind"] == "undecided" for t in trajectories):
            raise CheckFailed("an orbit is undecided")
        return count
    if command == "catalog":
        ops = data["operators"]
        if len(ops) != 36 or not all(e["validation_ok"] and e["structure_check"]["passed"]
                                     for e in ops):
            raise CheckFailed("catalog is not 36 valid, block-structured operators")
        return 36
    if command == "classify":
        strict = "--strict" in inv.argv
        want_count = 24 if strict else 20
        if data["class_count"] != want_count:
            raise CheckFailed(f"{data['class_count']} classes, expected {want_count}")
        if not strict and data["reference_comparison"] != "MATCH":
            raise CheckFailed("classification does not MATCH the reference")
        return 36
    if command == "tensor":
        if inv.out_file is not None:
            if data.get("m") != 3 or len(data.get("P", ())) != 27:
                raise CheckFailed("exported tensor is not a 3x3x3 table")
        elif data["valid"] is not True or data["violations"]:
            raise CheckFailed("exported tensor does not validate")
        return 1
    if command == "oracle":
        bad = [p for p in data["pairs"] if not p["agree"]]
        if len(data["pairs"]) != 16 or bad:
            raise CheckFailed(f"oracle disagrees with the closed form on {bad}")
        return len(data["pairs"])
    raise CheckFailed(f"no check for {command!r}")
