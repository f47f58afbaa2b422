"""Which commands load numpy, checked in fresh interpreters.

`simplex` and `dynamics` are lazy modules: `import qsodyn` registers them in
sys.modules without running them. The structure commands must finish without
numpy; anything that reads a lazy name must get the real object. sys.modules
is checked directly, because `-X importtime` does not log the modules that
LazyLoader runs.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _child(code: str, *args: str) -> dict:
    """Run code in a fresh interpreter that imports qsodyn from SRC; it prints one JSON line."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


_MAIN = """
import contextlib, io, json, sys
from qsodyn import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules}))
"""


@pytest.mark.parametrize("argv", [
    ("catalog", "--a", "0.3"),
    ("classify", "--a", "0.3"),
    ("classify", "--a", "0.3", "--strict"),
    ("tensor", "--op", "13", "--a", "0.3", "--out", "{path}"),
    ("tensor", "--tensor", "{path}"),
], ids=lambda argv: " ".join(argv[:4]))
def test_structure_commands_leave_numpy_unloaded(argv, tmp_path):
    path = tmp_path / "tensor.json"
    if "--tensor" in argv:
        from qsodyn.catalog import operator_tensor
        path.write_text(operator_tensor(13, 0.3).to_json())
    result = _child(_MAIN, *(arg.format(path=path) for arg in argv))
    assert result == {"code": 0, "numpy": False}


def test_simulate_loads_numpy():
    result = _child(_MAIN, "simulate", "--op", "13", "--a", "0.3", "--seed", "1")
    assert result == {"code": 0, "numpy": True}


def test_importing_cli_registers_the_lazy_modules_without_numpy():
    result = _child("""
import json, sys
import qsodyn.cli
print(json.dumps({"numpy": "numpy" in sys.modules,
                  "lazy": sorted(n for n in ("qsodyn.simplex", "qsodyn.dynamics") if n in sys.modules)}))
""")
    assert result == {"numpy": False, "lazy": ["qsodyn.dynamics", "qsodyn.simplex"]}


def test_every_public_name_resolves_after_import():
    result = _child("""
import json, sys
import qsodyn
before = "numpy" in sys.modules
found = {name: getattr(qsodyn, name) is not None for name in qsodyn.__all__ + ["simplex", "dynamics"]}
from qsodyn import dynamics, simplex
same = (qsodyn.SimplexPoint is simplex.SimplexPoint and qsodyn.omega_limit is dynamics.omega_limit
        and qsodyn.ANALYZED_OPS is dynamics.ANALYZED_OPS and sys.modules["qsodyn.dynamics"] is dynamics)
print(json.dumps({"before": before, "found": all(found.values()), "count": len(found), "same": same}))
""")
    assert result["before"] is False
    assert result["found"] and result["same"]
    assert result["count"] == len(__import__("qsodyn").__all__) + 2


def test_unknown_attribute_is_an_attribute_error():
    import qsodyn
    with pytest.raises(AttributeError):
        qsodyn.no_such_name  # noqa: B018
    assert not hasattr(qsodyn, "DEFAULT_TOL")  # a dynamics name outside __all__ stays in dynamics


def test_public_names_and_dir_in_this_process():
    # The reads of the child-process tests, here in-process, where tests/linecov.py sees them.
    import qsodyn
    from qsodyn import catalog, dynamics
    assert qsodyn.CATALOG_PARTITION is catalog.CATALOG_PARTITION
    assert qsodyn.limit_prediction is dynamics.limit_prediction
    assert set(qsodyn.__all__) <= set(dir(qsodyn))


def test_version_matches_the_project_metadata():
    # pyproject.toml declares the version too; a regex reads it where tomllib is missing (3.10).
    import qsodyn
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert re.findall(r'^version = "([^"]+)"$', text, re.M) == [qsodyn.__version__]


def test_public_names_resolve_from_their_home_modules():
    # The numpy-free modules are searched first, so reading a structure name leaves numpy
    # unloaded; with simplex or dynamics searched first, qsodyn.HeredityTensor would load it.
    result = _child("""
import json, sys
import qsodyn
from qsodyn import catalog, operators, permutations
structure = [n for n in qsodyn.__all__
             if any(hasattr(m, n) for m in (permutations, operators, catalog))]
read = all(getattr(qsodyn, n) is not None for n in structure)
numpy = "numpy" in sys.modules
listed = set(qsodyn.__all__) <= set(dir(qsodyn))
star = {}
exec("from qsodyn import *", star)
from qsodyn import dynamics, simplex
homes = (permutations, operators, catalog, simplex, dynamics)
bound = [n for n in qsodyn.__all__ if n in star and any(hasattr(m, n) for m in homes)
         and all(star[n] is getattr(m, n) for m in homes if hasattr(m, n))]
print(json.dumps({"structure": structure, "read": read, "numpy": numpy, "listed": listed,
                  "bound": bound == qsodyn.__all__}))
""")
    assert {"Permutation", "HeredityTensor", "OperatorSpec"} <= set(result.pop("structure"))
    assert result == {"read": True, "numpy": False, "listed": True, "bound": True}
