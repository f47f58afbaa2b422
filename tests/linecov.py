"""Line coverage of src/qsodyn under the tier-1 tests: every executable line must run.

Run from anywhere: `python tests/linecov.py`. The tests under tests/ run in one
`python -m pytest -q --continue-on-collection-errors -p no:cacheprovider -p linecov tests`
process, as tier-1 runs them, which loads this file as a plugin. That process inherits the
environment, so `PYTHONDEVMODE=1 python tests/linecov.py` runs the suite in development
mode. The plugin sets a `sys.settrace` line tracer when it is imported and sets it again
before each test: a RecursionError raised inside the trace function, as the deep-nesting
JSON tests raise one, makes CPython switch tracing off until the next test. Lines run only
in the child processes that tests start (CLI runs as scripts) are not seen.

The executable lines of each src/qsodyn/*.py are the first lines of its `ast` statements,
docstrings excepted. The script prints every executable line that no test ran, and a
failing pytest run, and exits 1 if there is any. It writes only to a temporary directory.

The file name does not match test_*.py, so the tier-1 suite does not collect it.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qsodyn"
TIMEOUT_S = 1800

# ---------------------------------------------------------------------------
# The plugin, inside each pytest process
# ---------------------------------------------------------------------------

_hits: set[tuple[str, int]] = set()
_in_package: dict[str, bool] = {}  # co_filename -> whether it is a file of PACKAGE


def _trace_line(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _trace_line


def _trace_call(frame, event, arg):
    path = frame.f_code.co_filename
    inside = _in_package.get(path)
    if inside is None:
        inside = _in_package[path] = Path(path).resolve().parent == PACKAGE
    return _trace_line if inside else None


def pytest_configure(config):
    sys.settrace(_trace_call)


def pytest_runtest_setup(item):
    sys.settrace(_trace_call)


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    out = os.environ.get("QSODYN_LINECOV_OUT")
    if out:
        Path(out).write_text(json.dumps(
            sorted((Path(path).name, line) for path, line in _hits)))


# ---------------------------------------------------------------------------
# The check
# ---------------------------------------------------------------------------

def executable_lines(path: Path) -> dict[int, str]:
    """First line of each statement of the file, docstrings excepted -> its stripped text."""
    source = path.read_text()
    tree = ast.parse(source)
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                  and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)
                  and isinstance(node.body[0].value.value, str)}
    text = source.splitlines()
    return {line: text[line - 1].strip() for line in sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.stmt) and id(node) not in docstrings)}


def run_tests(tmp: Path) -> tuple[int, set[tuple[str, int]]]:
    """pytest's exit code over tests/, and the (file name, line) pairs of src/qsodyn the tests
    ran. pytest runs in `tmp`, so the files it and its plugins write land there."""
    out = tmp / "hits.json"
    env = dict(os.environ, QSODYN_LINECOV_OUT=str(out), PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider", "-p", "linecov",
         "--rootdir", str(ROOT), "-c", str(ROOT / "pyproject.toml"), str(ROOT / "tests")],
        cwd=tmp, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    if done.returncode:
        print(done.stdout[-3000:], done.stderr[-3000:], sep="\n", file=sys.stderr)
    hits = json.loads(out.read_text()) if out.exists() else []
    return done.returncode, {(name, line) for name, line in hits}


def main() -> int:
    problems = []
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="qsodyn-linecov-") as tmp:
        code, hits = run_tests(Path(tmp))
    if code:
        problems.append(f"pytest exited {code}")
    print(f"tests: {time.perf_counter() - start:.1f} s", flush=True)
    problems += [f"{path.name}:{line} never runs: {text}"
                 for path in sorted(PACKAGE.glob("*.py"))
                 for line, text in executable_lines(path).items() if (path.name, line) not in hits]
    print("\n".join(problems) or "every executable line runs")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
