"""A checked-in table of hand-made mutants of src/qsodyn, each with the tests that must kill it.

Run from anywhere: `python tests/mutants.py`. For each row the repository (without .git)
is copied into a temporary directory, the row's old text, which must occur exactly once
in its file, is replaced by its new text, and `python -m pytest -q -x -p no:cacheprovider
<selection>` runs there with PYTHONPATH at the copy's src. A row expects "killed" (the
selected tests fail) or "equivalent" (they pass; the row says why). The script prints one
line per row and exits 1 naming each row whose result differs from its expectation.

First, `pytest --collect-only` runs once over every row's selection on the unmutated tree,
and the script stops with exit 1 if that fails. So a mutant run that exits 2 or 4 (a
collection error, or a node id that no longer resolves because a module fails to import)
is the mutant's doing and counts as killed; exit 3 or 5 means the row could not run.

The file name does not match test_*.py, so the tier-1 suite does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 900


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    selection: tuple[str, ...]  # pytest arguments, relative to the repository root
    expect: str  # "killed" or "equivalent"
    reason: str = ""  # why an equivalent mutant changes no behaviour


MUTANTS = (
    Mutant("exclusion radius is closed", "src/qsodyn/dynamics.py",
           "near = self.fixed.min_l1_distance(x) <= EXCLUSION_RADIUS",
           "near = self.fixed.min_l1_distance(x) < EXCLUSION_RADIUS",
           ("tests/test_dynamics.py::TestBatchedDistanceMatchesOnePoint",), "killed"),
    Mutant("JSON floats keep 17 digits", "src/qsodyn/jsonio.py",
           '_17G = "%.17g".__mod__', '_17G = "%.16g".__mod__',
           ("tests/test_jsonio.py",), "killed"),
    Mutant("regime tests a == 1/2 exactly", "src/qsodyn/dynamics.py",
           "if a == 0.5:", "if abs(a - 0.5) <= 1e-9:",
           ("tests/test_dynamics.py::TestRegime",), "killed"),
    Mutant("catalog code 3 is 1 - a", "src/qsodyn/catalog.py",
           "values = (0.0, 1.0, a, 1.0 - a)", "values = (0.0, 1.0, a, 1.0 - a - 0.0 * a)",
           ("tests/test_catalog.py",), "equivalent",
           "a is finite in [0, 1], so 0.0 * a is +0.0 and subtracting it leaves 1 - a exact"),
    Mutant("counts reject bools", "src/qsodyn/rules.py",
           "isinstance(value, Integral) and not isinstance(value, bool) and value >= low",
           "isinstance(value, Integral) and value >= low",
           ("tests/test_dynamics.py::TestIntegerCounts",), "killed"),
    Mutant("public names resolve numpy-free modules first", "src/qsodyn/__init__.py",
           "(permutations, operators, catalog, simplex, dynamics)",
           "(simplex, dynamics, permutations, operators, catalog)",
           ("tests/test_import_boundary.py",), "killed"),
    Mutant("simulate checks the --x0 dimension", "src/qsodyn/cli.py",
           '''        if args.x0.m != T.m:
            raise UsageError(f"--x0 has {args.x0.m} coordinates, tensor expects {T.m}")
''', "", ("tests/test_cli.py::TestSimulate",), "killed"),
    Mutant("permutation entries are integers in range", "src/qsodyn/permutations.py",
           '''        for i in self.image:  # numpy integers pass; 2.7, True and "2" do not
            require_count("image entry", i, 1, m)
        object.__setattr__(self, "image", tuple(map(int, self.image)))''',
           '''        object.__setattr__(self, "image", tuple(int(i) for i in self.image))''',
           ("tests/test_permutations.py",), "killed"),
    Mutant("partition blocks are nonempty", "src/qsodyn/catalog.py",
           "if union & block or not block:", "if union & block:",
           ("tests/test_catalog.py::TestPartitions",), "killed"),
    Mutant("verify budgets follow the target kind", "src/qsodyn/dynamics.py",
           "VERIFY_BUDGET = {False: (1e-6, 10 ** 5), True: (1e-4, 10 ** 6)}",
           "VERIFY_BUDGET = {True: (1e-6, 10 ** 5), False: (1e-4, 10 ** 6)}",
           ("tests/test_cli.py::TestVerifyDigests",), "killed"),
    Mutant("simulate at a = 1/2 takes the balanced budget", "src/qsodyn/dynamics.py",
           "SIMULATE_BUDGET = {False: (1e-9, 10 ** 5), True: (1e-6, 10 ** 6)}",
           "SIMULATE_BUDGET = {True: (1e-9, 10 ** 5), False: (1e-6, 10 ** 6)}",
           ("tests/test_cli.py::TestSimulateDigests",), "killed"),
    Mutant("JSON refuses non-finite floats", "src/qsodyn/jsonio.py",
           'if "n" in text:', "if False:", ("tests/test_jsonio.py",), "killed"),
    Mutant("partition size is a count", "src/qsodyn/catalog.py",
           '        require_count("m", self.m, 1)\n', "",
           ("tests/test_dynamics.py::TestIntegerCounts",), "killed"),
    Mutant("a wide-tolerance vertex is its largest coordinate", "src/qsodyn/dynamics.py",
           "int(np.argmax(coords)) + 1", "int(np.argmin(coords)) + 1",
           ("tests/test_dynamics.py::TestRegions",), "killed"),
    Mutant("the interval rule includes its ends", "src/qsodyn/rules.py",
           "if not lo <= value <= hi:", "if not lo < value <= hi:",
           ("tests/test_dynamics.py::TestRegime",), "killed"),
    Mutant("the positive rule rejects 0", "src/qsodyn/rules.py",
           "if not 0.0 < value < math.inf:", "if not 0.0 <= value < math.inf:",
           ("tests/test_dynamics.py",), "killed"),
    Mutant("main reports library refusals as errors", "src/qsodyn/cli.py",
           "except (UsageError, ValueError) as exc:", "except UsageError as exc:",
           ("tests/test_cli.py",), "killed"),
    Mutant("CSV export needs m = 3", "src/qsodyn/cli.py",
           '''        if T.m != 3:
            raise UsageError(f"CSV export needs a tensor with m = 3, got m = {T.m}")
''', "", ("tests/test_cli.py::TestSimulate",), "killed"),
    Mutant("--out in a missing directory is refused when parsed", "src/qsodyn/cli.py",
           "os.stat(path.parent)", "pass",
           ("tests/test_cli.py::TestOutputRefusedBeforeWork",), "killed"),
    Mutant("verify takes the shared budget flags", "src/qsodyn/cli.py",
           'sub.add_parser("verify", parents=[budget, out],',
           'sub.add_parser("verify", parents=[out],',
           ("tests/test_cli.py::TestVerify",), "killed"),
    Mutant("CSV export refuses an --out that ends in .csv", "src/qsodyn/cli.py",
           '''        if args.out.suffix == ".csv":
            raise UsageError("CSV export puts the CSV next to --out, so --out must not end in .csv")
''', "", ("tests/test_cli.py::TestOutputRefusedBeforeWork",), "killed"),
    Mutant("an = 0 branch counts ZERO_TOL as zero", "src/qsodyn/dynamics.py",
           '"=": operator.le', '"=": operator.lt',
           ("tests/test_dynamics.py::TestLimitTable",), "killed"),
    Mutant("a < branch leaves its bound to the >= branch", "src/qsodyn/dynamics.py",
           '"<": operator.lt', '"<": operator.le',
           ("tests/test_dynamics.py::TestLimitTable",), "killed"),
    Mutant("a point verdict is confirmed by the next iterate", "src/qsodyn/dynamics.py",
           "done[done] = np.abs(apply_array(T, nxt[done]) - p1[done]).sum(axis=1) <= tol",
           "pass", ("tests/test_dynamics.py::TestTargetSwap",), "killed"),
    Mutant("a 2-cycle needs the one-step residual above 10 tol", "src/qsodyn/dynamics.py",
           "done = fixed | ((d[:, 1] <= tol) & (d[:, 0] > 10.0 * tol))",
           "done = fixed | (d[:, 1] <= tol)",
           ("tests/test_dynamics.py::TestOmegaLimitMatchesReference",), "killed"),
    Mutant("a case's columns are read-only", "src/qsodyn/dynamics.py",
           "            column.flags.writeable = False\n", "",
           ("tests/test_dynamics.py::TestCaseColumns",), "killed"),
    Mutant("records refuse assignment", "src/qsodyn/rules.py",
           'raise AttributeError(f"cannot assign to field {name!r}")',
           "object.__setattr__(self, name, value)",
           ("tests/test_records.py",), "killed"),
    Mutant("records refuse a missing field", "src/qsodyn/rules.py",
           '''            if name not in kwargs and name not in cls.__dict__:
                raise TypeError(f"{cls.__name__}() missing field {name!r}")
''', "", ("tests/test_records.py",), "killed"),
)


def _pytest(tree: Path, *args: str) -> subprocess.CompletedProcess:
    """`python -m pytest -q -p no:cacheprovider <args>` in tree, on tree's src."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *args],
                          cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)


def run(mutant: Mutant) -> str:
    """The result of one row: "killed", "equivalent", or why the row could not run."""
    with tempfile.TemporaryDirectory(prefix="qsodyn-mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "out"))
        path = tree / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            return f"old text occurs {text.count(mutant.old)} times in {mutant.file}"
        path.write_text(text.replace(mutant.old, mutant.new))
        try:
            done = _pytest(tree, "-x", *mutant.selection)
        except subprocess.TimeoutExpired:
            return f"timed out after {TIMEOUT_S} s"
        if done.returncode in (1, 2, 4):  # failed tests, or a collection that the mutant broke
            return "killed"
        return "equivalent" if done.returncode == 0 else f"pytest exited {done.returncode}"


def main() -> int:
    selections = dict.fromkeys(arg for mutant in MUTANTS for arg in mutant.selection)
    collected = _pytest(ROOT, "--collect-only", *selections)
    if collected.returncode:
        print(collected.stdout[-3000:], collected.stderr[-3000:], sep="\n", file=sys.stderr)
        print(f"the unmutated tree does not collect the rows' selections (pytest exited "
              f"{collected.returncode})", file=sys.stderr)
        return 1
    wrong = []
    for mutant in MUTANTS:
        start = time.perf_counter()
        result = run(mutant)
        ok = result == mutant.expect
        print(f"{'ok' if ok else 'WRONG':5} {mutant.name}: expected {mutant.expect}, got {result}"
              f" ({time.perf_counter() - start:.1f} s)", flush=True)
        if not ok:
            wrong.append(mutant.name)
    if wrong:
        print("rows whose result differs from the table: " + "; ".join(wrong), file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
