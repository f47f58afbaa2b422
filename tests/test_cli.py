"""End-to-end tests of the command-line interface."""

import errno
import gc
import hashlib
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsodyn import dynamics
from qsodyn.catalog import operator_tensor
from qsodyn.cli import main, run
from qsodyn.operators import HeredityTensor


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCatalog:
    def test_listing(self, capsys):
        code, out, _ = _run(capsys, "catalog", "--a", "0.3")
        assert code == 0
        data = json.loads(out)
        assert data["schema_version"] == 1
        assert len(data["operators"]) == 36
        by_id = {e["id"]: e for e in data["operators"]}
        assert by_id[25]["structure"]["kind"] == "volterra"
        assert by_id[13]["structure"]["kind"] == "ell_volterra"
        assert by_id[13]["structure"]["ell"] == 2
        assert by_id[28]["structure"]["kind"] == "permuted_volterra"
        assert by_id[28]["structure"]["best_relabeling"]["tau_cycles"] == "(1)(2 3)"
        assert all(e["structure_check"]["passed"] for e in data["operators"])
        assert all(e["validation_ok"] for e in data["operators"])

    def test_bad_parameter(self, capsys):
        code, _, err = _run(capsys, "catalog", "--a", "1.5")
        assert code == 1
        assert "error" in err


class TestClassify:
    def test_generic_match(self, capsys):
        code, out, _ = _run(capsys, "classify", "--a", "0.3")
        assert code == 0
        data = json.loads(out)
        assert data["class_count"] == 20
        assert data["reference_comparison"] == "MATCH"
        assert [1, 13] in data["classes"]

    def test_degenerate_flag(self, capsys):
        code, out, _ = _run(capsys, "classify", "--a", "0.5")
        assert code == 0
        data = json.loads(out)
        assert data["degenerate"] is True
        assert data["reference_comparison"] == "degenerate parameter"

    def test_strict_mode(self, capsys):
        code, out, _ = _run(capsys, "classify", "--a", "0.3", "--strict")
        assert code == 0
        data = json.loads(out)
        assert data["class_count"] == 24
        assert data["mirror_merged"] is False


class TestSimulate:
    def test_fixed_point_run(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = _run(capsys, "simulate", "--op", "13", "--a", "0.2",
                          "--x0", "0.3,0.4,0.3", "--out", str(out_path))
        assert code == 0
        data = json.loads(out_path.read_text())
        traj = data["trajectories"][0]
        assert traj["outcome"]["kind"] == "fixed_point"
        limit = traj["outcome"]["points"][0]
        assert limit[1] == pytest.approx(1.0, abs=1e-6)

    def test_two_cycle_run(self, capsys):
        code, out, _ = _run(capsys, "simulate", "--op", "28", "--a", "0.5",
                            "--x0", "0,0.3,0.7")
        assert code == 0
        data = json.loads(out)
        assert data["trajectories"][0]["outcome"]["kind"] == "two_cycle"

    def test_undecided_exit_code(self, capsys):
        code, out, _ = _run(capsys, "simulate", "--op", "13", "--a", "0.2",
                            "--x0", "0.3,0.4,0.3", "--max-iter", "3")
        assert code == 2
        data = json.loads(out)
        assert data["trajectories"][0]["outcome"]["kind"] == "undecided"

    def test_csv_export(self, capsys, tmp_path):
        out_path = tmp_path / "traj.json"
        code, _, _ = _run(capsys, "simulate", "--op", "25", "--a", "0.3",
                          "--x0", "0.2,0.4,0.4", "--out", str(out_path),
                          "--format", "csv")
        assert code == 0
        csv_path = tmp_path / "traj.csv"
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "step,x1,x2,x3,u,v"
        assert len(lines) > 2

    def test_seeded_batch(self, capsys):
        code, out, _ = _run(capsys, "simulate", "--op", "25", "--a", "0.3",
                            "--seed", "9", "--count", "3")
        assert code == 0
        assert len(json.loads(out)["trajectories"]) == 3

    @pytest.mark.parametrize("count", ("5", "0"))
    def test_count_with_x0(self, capsys, count):
        code, out, err = _run(capsys, "simulate", "--op", "13", "--a", "0.3",
                              "--x0", "0.3,0.3,0.4", "--count", count)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "--count" in err

    def test_seed_without_count(self, capsys):
        code, out, _ = _run(capsys, "simulate", "--op", "25", "--a", "0.3", "--seed", "9")
        assert code == 0
        assert len(json.loads(out)["trajectories"]) == 1

    def test_csv_needs_single_trajectory(self, capsys, tmp_path):
        code, _, err = _run(capsys, "simulate", "--op", "25", "--a", "0.3",
                            "--seed", "9", "--count", "3",
                            "--out", str(tmp_path / "x.json"), "--format", "csv")
        assert code == 1
        assert "CSV" in err

    def test_csv_needs_three_coordinates(self, capsys, tmp_path):
        # The CSV columns are x1, x2, x3: any other m stops before the JSON file is written.
        tensor, out_path = tmp_path / "m2.json", tmp_path / "run.json"
        tensor.write_text(_volterra_tensor_json(2))
        code, out, err = _run(capsys, "simulate", "--tensor", str(tensor), "--x0", "0.5,0.5",
                              "--format", "csv", "--out", str(out_path))
        assert (code, out) == (1, "")
        assert err == "error: CSV export needs a tensor with m = 3, got m = 2\n"
        assert not out_path.exists() and not out_path.with_suffix(".csv").exists()

    def test_csv_without_out_writes_nothing(self, capsys):
        code, out, err = _run(capsys, "simulate", "--op", "13", "--a", "0.2",
                              "--x0", "0.3,0.4,0.3", "--format", "csv")
        assert code == 1 and out == ""
        assert err == "error: CSV export needs --out to name the files\n"

    def test_csv_with_many_trajectories_writes_nothing(self, capsys, tmp_path):
        code, out, err = _run(capsys, "simulate", "--op", "13", "--a", "0.2",
                              "--seed", "1", "--count", "2", "--format", "csv",
                              "--out", str(tmp_path / "x.json"))
        assert code == 1 and out == ""
        assert err == "error: CSV export needs exactly one trajectory\n"
        assert list(tmp_path.iterdir()) == []

    def test_a_with_tensor_file(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        _run(capsys, "tensor", "--op", "13", "--a", "0.2", "--out", str(path))
        code, out, err = _run(capsys, "simulate", "--tensor", str(path), "--a", "0.5",
                              "--x0", "0.3,0.4,0.3")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "--a" in err

    def test_requires_one_source(self, capsys):
        code, _, _ = _run(capsys, "simulate", "--x0", "0.3,0.4,0.3")
        assert code == 1

    @pytest.mark.parametrize("starts", [(), ("--x0", "0.3,0.3,0.4", "--seed", "1")],
                             ids=["neither", "both"])
    def test_needs_exactly_one_start_source(self, capsys, starts):
        result = _run(capsys, "simulate", "--op", "13", "--a", "0.3", *starts)
        assert result == (1, "", "error: need exactly one of --x0 or --seed\n")

    def test_x0_of_another_dimension(self, capsys):
        result = _run(capsys, "simulate", "--op", "13", "--a", "0.3", "--x0", "0.5,0.5")
        assert result == (1, "", "error: --x0 has 2 coordinates, tensor expects 3\n")

    def test_bad_x0(self, capsys):
        code, _, err = _run(capsys, "simulate", "--op", "1", "--a", "0.3",
                            "--x0", "0.3,0.4")
        assert code == 1
        assert "x0" in err

    def test_non_finite_x0(self, capsys):
        for text in ("nan,0.5,0.5", "inf,0.5,0.5", "-inf,0.5,0.5"):
            code, out, err = _run(capsys, "simulate", "--op", "4", "--a", "0.3",
                                  "--x0", text)
            assert code == 1 and out == ""
            assert err.startswith("error:")

    def test_bad_tolerance(self, capsys):
        for tol in ("nan", "0", "-1"):
            code, out, err = _run(capsys, "simulate", "--op", "13", "--a", "0.2",
                                  "--x0", "0.3,0.4,0.3", "--tol", tol)
            assert code == 1 and out == ""
            assert err.startswith("error:")

    def test_infinite_tolerance(self, capsys):
        code, out, err = _run(capsys, "simulate", "--op", "13", "--a", "0.3",
                              "--x0", "0.3,0.3,0.4", "--tol", "inf")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "--tol" in err and "Traceback" not in err

    def test_non_finite_tensor_file(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        _run(capsys, "tensor", "--op", "25", "--a", "0.3", "--out", str(path))
        data = json.loads(path.read_text())
        data["P"][1] = float("nan")
        path.write_text(json.dumps(data))
        code, out, err = _run(capsys, "simulate", "--tensor", str(path),
                              "--x0", "0.3,0.4,0.3")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "not finite" in err

    def test_tensor_file_input(self, capsys, tmp_path):
        tensor_path = tmp_path / "t.json"
        code, _, _ = _run(capsys, "tensor", "--op", "28", "--a", "0.5",
                          "--out", str(tensor_path))
        assert code == 0
        code, out, _ = _run(capsys, "simulate", "--tensor", str(tensor_path),
                            "--x0", "0,0.3,0.7")
        assert code == 0
        assert json.loads(out)["trajectories"][0]["outcome"]["kind"] == "two_cycle"

    def test_corrupt_tensor_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"m": 3, "P": [1, 2, 3]}')
        code, _, err = _run(capsys, "simulate", "--tensor", str(bad),
                            "--x0", "0.3,0.4,0.3")
        assert code == 1
        assert "tensor" in err

    @pytest.mark.parametrize("op,a,x0", [("13", "0.2", "0,1,0"), ("25", "0.3", "1,0,0")])
    def test_fixed_start_stops_at_step_one(self, capsys, op, a, x0):
        code, out, err = _run(capsys, "simulate", "--op", op, "--a", a, "--x0", x0)
        assert code == 0 and err == ""
        traj = json.loads(out)["trajectories"][0]
        assert traj["outcome"]["kind"] == "fixed_point" and traj["steps"] == 1
        assert traj["final_residuals"] == [0, None]

    def test_single_step_budget(self, capsys):
        code, out, _ = _run(capsys, "simulate", "--op", "13", "--a", "0.2",
                            "--x0", "0.3,0.4,0.3", "--max-iter", "1")
        assert code == 2
        traj = json.loads(out)["trajectories"][0]
        assert traj["outcome"]["kind"] == "undecided"
        assert traj["final_residuals"][1] is None

    def test_negative_seed(self, capsys):
        code, out, err = _run(capsys, "simulate", "--op", "13", "--a", "0.2", "--seed", "-1")
        assert code == 1 and out == ""
        assert err == "error: --seed must be >= 0\n"

    def test_seed_needs_two_coordinates(self, capsys, tmp_path):
        path = tmp_path / "m1.json"
        path.write_text('{"m": 1, "P": [1]}')
        code, out, err = _run(capsys, "simulate", "--tensor", str(path), "--seed", "3")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "m >= 2" in err

    def test_unwritable_outputs(self, capsys, tmp_path):
        missing = tmp_path / "missing" / "x.json"
        code, out, err = _run(capsys, "simulate", "--op", "25", "--a", "0.3",
                              "--x0", "0.2,0.4,0.4", "--out", str(missing))
        assert code == 1 and out == ""
        assert err.startswith(f"error: cannot write {missing}")
        (tmp_path / "x.csv").mkdir()  # the JSON file can be written, the CSV cannot
        code, _, err = _run(capsys, "simulate", "--op", "25", "--a", "0.3",
                            "--x0", "0.2,0.4,0.4", "--out", str(tmp_path / "x.json"),
                            "--format", "csv")
        assert code == 1
        assert err.startswith(f"error: cannot write {tmp_path / 'x.csv'}")

    def test_emitted_points_reparse_as_simplex_points(self, capsys):
        from qsodyn.simplex import SimplexPoint

        code, out, _ = _run(capsys, "simulate", "--op", "13", "--a", "0.2",
                            "--seed", "3", "--count", "2")
        assert code == 0
        for traj in json.loads(out)["trajectories"]:
            for entry in traj["iterates_kept"]:
                SimplexPoint(entry["x"])  # constructor enforces the invariants
            for p in traj["outcome"]["points"]:
                SimplexPoint(p)


class TestVerify:
    def test_default_parameters_cover_exactly_the_analyzed_ops(self):
        from qsodyn import dynamics
        from qsodyn.catalog import ANALYZED_OPS
        from qsodyn.cli import _VERIFY_DEFAULT_A
        assert set(_VERIFY_DEFAULT_A) == set(ANALYZED_OPS)
        assert dynamics.ANALYZED_OPS is ANALYZED_OPS

    def test_pass_run(self, capsys):
        code, out, _ = _run(capsys, "verify", "--op", "28", "--a", "0.3",
                            "--seeds", "10")
        assert code == 0
        data = json.loads(out)
        assert data["passed"] is True
        assert data["reports"][0]["cases"]

    def test_unsupported_op(self, capsys):
        code, _, err = _run(capsys, "verify", "--op", "7")
        assert code == 1
        assert "choose from" in err

    @pytest.mark.parametrize("flags", [
        ("--max-iter", "0"),
        ("--tol", "nan"),
        ("--tol", "-1"),
        ("--tol", "0"),
    ])
    def test_bad_budget_or_tolerance(self, capsys, flags):
        code, out, err = _run(capsys, "verify", "--op", "28", "--a", "0.3",
                              "--seeds", "3", *flags)
        assert code == 1 and out == ""
        assert err.startswith("error:")

    def test_zero_budget_names_the_flag(self, capsys):
        code, out, err = _run(capsys, "verify", "--op", "28", "--a", "0.3",
                              "--seeds", "3", "--max-iter", "0")
        assert code == 1 and out == ""
        assert err == "error: --max-iter must be >= 1\n"

    def test_infinite_tolerance(self, capsys):
        code, out, err = _run(capsys, "verify", "--op", "13", "--a", "0.3",
                              "--seeds", "2", "--tol", "inf")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "--tol" in err and "Traceback" not in err

    def test_bad_parameter(self, capsys):
        for a in ("nan", "1.5"):
            code, out, err = _run(capsys, "verify", "--op", "13", "--a", a, "--seeds", "3")
            assert code == 1 and out == ""
            assert err.startswith("error:")

    def test_negative_seed(self, capsys):
        code, out, err = _run(capsys, "verify", "--op", "28", "--a", "0.3",
                              "--seeds", "3", "--seed", "-1")
        assert code == 1 and out == ""
        assert err == "error: --seed must be >= 0\n"

    def test_unwritable_output(self, capsys, tmp_path):
        missing = tmp_path / "missing" / "v.json"
        code, _, err = _run(capsys, "verify", "--op", "28", "--a", "0.3",
                            "--seeds", "3", "--out", str(missing))
        assert code == 1
        assert err.startswith(f"error: cannot write {missing}")

    def test_uncovered_parameter(self, capsys):
        code, _, err = _run(capsys, "verify", "--op", "4", "--a", "0.2",
                            "--seeds", "5")
        assert code == 1
        assert "a < 1/2" in err


class TestTensor:
    def test_export_and_validate(self, capsys, tmp_path):
        path = tmp_path / "t25.json"
        code, _, _ = _run(capsys, "tensor", "--op", "25", "--a", "0.3",
                          "--out", str(path))
        assert code == 0
        code, out, _ = _run(capsys, "tensor", "--tensor", str(path))
        assert code == 0
        data = json.loads(out)
        assert data["valid"] is True and data["m"] == 3

    def test_validate_defective(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        _run(capsys, "tensor", "--op", "25", "--a", "0.3", "--out", str(path))
        data = json.loads(path.read_text())
        data["P"][1] = -0.25  # plant a negative coefficient
        path.write_text(json.dumps(data))
        code, out, _ = _run(capsys, "tensor", "--tensor", str(path))
        assert code == 2
        report = json.loads(out)
        assert report["valid"] is False
        assert report["violations"]

    def test_validate_non_finite(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        _run(capsys, "tensor", "--op", "25", "--a", "0.3", "--out", str(path))
        data = json.loads(path.read_text())
        data["P"][1] = float("nan")  # json writes NaN, which json.loads accepts
        path.write_text(json.dumps(data))
        code, out, _ = _run(capsys, "tensor", "--tensor", str(path))
        assert code == 2
        report = json.loads(out)
        assert report["valid"] is False
        assert report["violations"] == ["P(1, 1, 2) = nan is not finite"]

    def test_validate_exported_non_finite(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        P = np.array(operator_tensor(25, 0.3).table)
        P[0, 0, 0] = np.nan
        path.write_text(HeredityTensor(P).to_json())
        code, out, err = _run(capsys, "tensor", "--tensor", str(path))
        assert code == 2 and err == ""
        assert "P(1, 1, 1) = nan is not finite" in json.loads(out)["violations"]

    # '{"m": 1, "P": [1]}' is a valid tensor; the first eight cases spoil m or P
    @pytest.mark.parametrize("text", [
        '{"m": 1.5, "P": [1]}',
        '{"m": "1", "P": [1]}',
        '{"m": true, "P": [1]}',
        '{"m": 1, "P": ["1"]}',
        '{"m": 1, "P": [true]}',
        '{"m": 1, "P": [null]}',
        '{"m": 1, "P": 1}',
        '{"m": 1, "P": [1' + "0" * 400 + ']}',
        "[" * 100000 + "]" * 100000,
    ], ids=("m-float", "m-string", "m-bool", "P-string", "P-bool", "P-null", "P-scalar",
            "P-huge-int", "deep-nesting"))
    def test_malformed_tensor_file(self, capsys, tmp_path, text):
        path = tmp_path / "t.json"
        path.write_text(text)
        code, out, err = _run(capsys, "tensor", "--tensor", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: bad tensor file")

    def test_validate_rejects_a(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        _run(capsys, "tensor", "--op", "25", "--a", "0.3", "--out", str(path))
        code, out, err = _run(capsys, "tensor", "--tensor", str(path), "--a", "0.7")
        assert code == 1 and out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("argv", [("tensor",), ("simulate", "--seed", "1")],
                             ids=["tensor", "simulate"])
    def test_tensor_file_not_utf8(self, capsys, tmp_path, argv):
        path = tmp_path / "bin.json"
        path.write_bytes(bytes(range(128, 256)) + b'{"m": 1, "P": [1]}')
        code, out, err = _run(capsys, *argv, "--tensor", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: bad tensor file")

    @pytest.mark.parametrize("argv", [("tensor",), ("simulate", "--seed", "1")],
                             ids=["tensor", "simulate"])
    def test_unreadable_tensor_file(self, capsys, tmp_path, argv):
        code, out, err = _run(capsys, *argv, "--tensor", str(tmp_path))  # a directory
        assert code == 1 and out == ""
        assert err.startswith("error: cannot read tensor file")

    # simulate and tensor share one source rule: exactly one of --op and --tensor,
    # and --a only with --op
    @pytest.mark.parametrize("source,message", [
        ((), "need exactly one input source: --op with --a, or --tensor"),
        (("--a", "0.3"), "need exactly one input source: --op with --a, or --tensor"),
        (("--op", "13", "--a", "0.3", "--tensor", "t.json"),
         "need exactly one input source: --op with --a, or --tensor"),
        (("--op", "13"), "--op requires --a"),
        (("--tensor", "t.json", "--a", "0.3"),
         "--a goes with --op; a tensor file carries its own coefficients"),
    ], ids=["none", "a-only", "both", "op-without-a", "tensor-with-a"])
    def test_source_rule(self, capsys, source, message):
        for command in (("tensor",), ("simulate", "--seed", "1")):
            assert _run(capsys, *command, *source) == (1, "", f"error: {message}\n")

    def test_empty_tensor_file(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        path.write_text('{"m": 0, "P": []}')
        code, out, err = _run(capsys, "tensor", "--tensor", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: bad tensor file")


@pytest.fixture
def no_orbits(monkeypatch):
    """Make the orbit work of verify and simulate fail the test if it starts."""
    def ran(*args, **kwargs):
        raise AssertionError("orbits ran although the output file cannot be written")

    for name in ("verify_predictions", "omega_limits"):
        monkeypatch.setattr(dynamics, name, ran)


class TestOutputRefusedBeforeWork:
    # --out, and the CSV file next to it, are checked when the command line is read:
    # a directory, or a file in a missing directory, stops the run before any orbit.
    def test_verify_into_missing_directory(self, capsys, tmp_path, no_orbits):
        missing = tmp_path / "missing" / "v.json"
        result = _run(capsys, "verify", "--op", "4", "--a", "0.5", "--seeds", "100",
                      "--out", str(missing))
        assert result == (1, "", f"error: cannot write {missing}: No such file or directory\n")

    def test_simulate_onto_a_directory(self, capsys, tmp_path, no_orbits):
        result = _run(capsys, "simulate", "--op", "25", "--a", "0.3", "--x0", "0.2,0.4,0.4",
                      "--out", str(tmp_path))
        assert result == (1, "", f"error: cannot write {tmp_path}: Is a directory\n")

    @pytest.mark.parametrize("argv", [
        ("catalog",),
        ("classify", "--a", "0.3"),
        ("simulate", "--op", "13", "--a", "0.3", "--seed", "1"),
        ("verify", "--op", "13"),
        ("tensor", "--op", "13", "--a", "0.3"),
    ], ids=lambda argv: argv[0])
    def test_every_command_refuses_at_parse_time(self, capsys, tmp_path, no_commands, argv):
        missing = tmp_path / "missing" / "out.json"
        for path, reason in ((tmp_path, "Is a directory"), (missing, "No such file or directory")):
            result = _run(capsys, *argv, "--out", str(path))
            assert result == (1, "", f"error: cannot write {path}: {reason}\n")

    def test_csv_out_would_overwrite_the_json(self, capsys, tmp_path, no_orbits):
        result = _run(capsys, "simulate", "--op", "13", "--a", "0.2", "--x0", "0.3,0.4,0.3",
                      "--format", "csv", "--out", str(tmp_path / "run.csv"))
        assert result == (
            1, "", "error: CSV export puts the CSV next to --out, so --out must not end in .csv\n")
        assert list(tmp_path.iterdir()) == []

    def test_csv_path_is_a_directory(self, capsys, tmp_path, no_orbits):
        (tmp_path / "x.csv").mkdir()
        result = _run(capsys, "simulate", "--op", "25", "--a", "0.3", "--x0", "0.2,0.4,0.4",
                      "--format", "csv", "--out", str(tmp_path / "x.json"))
        assert result == (1, "", f"error: cannot write {tmp_path / 'x.csv'}: Is a directory\n")
        assert not (tmp_path / "x.json").exists()

    def test_write_failure_after_parse(self, capsys, tmp_path):
        # A file where a directory should be passes the parse-time rule; the write reports it.
        (tmp_path / "plain").write_text("")
        path = tmp_path / "plain" / "t.json"
        result = _run(capsys, "tensor", "--op", "13", "--a", "0.3", "--out", str(path))
        assert result == (1, "", f"error: cannot write {path}: Not a directory\n")

    def test_file_name_too_long(self, capsys, tmp_path):
        # A name longer than the file system's limit is refused when the command line is read.
        path = tmp_path / ("x" * 300)
        result = _run(capsys, "catalog", "--out", str(path))
        assert result == (1, "", f"error: cannot write {path}: File name too long\n")

    def test_directory_name_too_long(self, capsys, tmp_path, no_commands):
        path = tmp_path / ("x" * 300) / "out.json"
        result = _run(capsys, "catalog", "--out", str(path))
        assert result == (1, "", f"error: cannot write {path}: File name too long\n")

    def test_csv_name_too_long(self, capsys, tmp_path):
        out = tmp_path / ("x" * 252 + ".j")  # 254 bytes fit a file name; the CSV's 256 do not
        csv = out.with_suffix(".csv")
        result = _run(capsys, "simulate", "--op", "25", "--a", "0.3", "--x0", "0.2,0.4,0.4",
                      "--format", "csv", "--out", str(out))
        assert result == (1, "", f"error: cannot write {csv}: File name too long\n")

    def test_csv_name_too_long_stops_before_the_orbit(self, capsys, tmp_path, no_orbits):
        out = tmp_path / ("x" * 252 + ".j")
        result = _run(capsys, "simulate", "--op", "25", "--a", "0.3", "--x0", "0.2,0.4,0.4",
                      "--format", "csv", "--out", str(out))
        assert result == (
            1, "", f"error: cannot write {out.with_suffix('.csv')}: File name too long\n")
        assert list(tmp_path.iterdir()) == []

    def test_name_limit_unknown_leaves_the_error_to_the_write(
            self, capsys, tmp_path, monkeypatch):
        def pathconf(path, name):
            raise OSError(errno.EINVAL, os.strerror(errno.EINVAL))

        monkeypatch.setattr(os, "pathconf", pathconf)
        path = tmp_path / ("x" * 300)
        result = _run(capsys, "tensor", "--op", "13", "--a", "0.3", "--out", str(path))
        assert result == (1, "", f"error: cannot write {path}: File name too long\n")

    def test_unsearchable_directory_names_the_permission(
            self, capsys, tmp_path, no_commands, monkeypatch):
        # Root may search any directory, so the refusal of one is played by os.stat.
        locked, real_stat = tmp_path / "locked" / "sub", os.stat

        def stat(path, *args, **kwargs):
            if Path(path) == locked:
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
            return real_stat(path, *args, **kwargs)

        monkeypatch.setattr(os, "stat", stat)
        path = locked / "out.json"
        result = _run(capsys, "catalog", "--out", str(path))
        assert result == (1, "", f"error: cannot write {path}: Permission denied\n")


# Every numeric flag of every subcommand, and --x0: values that the flag's
# domain rejects when the command line is parsed. Each row: a valid command
# line, the flag, the value just outside its domain.
_FLAG_DOMAINS = [
    (("catalog",), "--a", "1.0000000000000002"),
    (("classify",), "--a", "-5e-324"),
    (("simulate", "--op=13", "--a=0.3", "--seed=1"), "--op", "37"),
    (("simulate", "--op=13", "--a=0.3", "--seed=1"), "--a", "1.0000000000000002"),
    (("simulate", "--op=13", "--a=0.3", "--seed=1"), "--seed", "-1"),
    (("simulate", "--op=13", "--a=0.3", "--seed=1"), "--count", "0"),
    (("simulate", "--op=13", "--a=0.3", "--seed=1"), "--tol", "0"),
    (("simulate", "--op=13", "--a=0.3", "--seed=1"), "--max-iter", "0"),
    (("simulate", "--op=13", "--a=0.3"), "--x0", "0.5,0.5,1.1e-9"),
    (("verify", "--op=28"), "--op", "5"),
    (("verify", "--op=28"), "--a", "0.3,1.0000000000000002"),
    (("verify", "--op=28"), "--seeds", "0"),
    (("verify", "--op=28"), "--seed", "-1"),
    (("verify", "--op=28"), "--tol", "-0.0"),
    (("verify", "--op=28"), "--max-iter", "0"),
    (("tensor", "--op=13", "--a=0.3"), "--op", "0"),
    (("tensor", "--op=13", "--a=0.3"), "--a", "-5e-324"),
]
_X0_BAD = ("nan,0.5,0.5", "0.5,0.5,inf", "-inf,1,1", "a,b,c")


@pytest.fixture
def no_commands(monkeypatch):
    """Make every subcommand fail the test if it runs: a rejected value must
    stop the command line at parse time, before any work starts."""
    import qsodyn.cli as cli

    def ran(args):
        raise AssertionError(f"{args.command} ran on a rejected value")

    for name in ("_cmd_catalog", "_cmd_classify", "_cmd_simulate", "_cmd_verify", "_cmd_tensor"):
        monkeypatch.setattr(cli, name, ran)


class TestFlagDomains:
    @pytest.mark.parametrize("argv,flag,outside", _FLAG_DOMAINS,
                             ids=[f"{argv[0]}{flag}" for argv, flag, _ in _FLAG_DOMAINS])
    def test_rejected_when_parsed(self, capsys, no_commands, argv, flag, outside):
        values = _X0_BAD if flag == "--x0" else ("nan", "inf", "-inf", "abc")
        for value in values + (outside,):
            code, out, err = _run(capsys, *argv, f"{flag}={value}")
            assert code == 1 and out == "", value
            assert err.startswith("error:") and flag in err, (value, err)
            assert "Traceback" not in err

    @pytest.mark.parametrize("argv,message", [
        (("catalog", "--a", "nan"), "--a must lie in [0, 1]"),
        (("verify", "--op", "13", "--a", "1.5"), "--a must lie in [0, 1]"),
        (("verify", "--op", "13", "--a", "0.3,x"),
         "could not parse --a '0.3,x': could not convert string to float: 'x'"),
        (("verify", "--op", "13", "--tol", "nan"), "--tol must be positive and finite"),
        (("simulate", "--op", "13", "--a", "0.3", "--seed", "1", "--count", "0"),
         "--count must be >= 1"),
        (("tensor", "--op", "37", "--a", "0.3"), "--op must be in 1..36"),
        (("simulate", "--op", "13", "--a", "0.3", "--seed", "x"),
         "argument --seed: invalid int value: 'x'"),
        (("classify", "--a", "x"), "argument --a: invalid float value: 'x'"),
        (("simulate", "--op", "13", "--a", "0.3", "--x0", "1,1,1"),
         "--x0 is not a simplex point: coordinate sum 3.0 deviates from 1 by more than 1e-09"),
    ])
    def test_exact_messages(self, capsys, no_commands, argv, message):
        assert _run(capsys, *argv) == (1, "", f"error: {message}\n")

    def test_domain_edges_are_accepted(self, capsys):
        code, out, err = _run(capsys, "simulate", "--op=13", "--a=1", "--seed=0",
                              "--count=1", "--tol=1e300", "--max-iter=1")
        assert code == 0 and err == ""
        assert json.loads(out)["trajectories"][0]["steps"] == 1


# Values that start with - and are no plain negative number, so argparse would read
# each as an option. Written after their flag with a space, each must reach the
# flag's type and give the exit code, output and message of the `--flag=value` form.
_DASHED_VALUES = [
    (("verify", "--op", "13"), "--a", "-0.1,0.3", "--a must lie in [0, 1]"),
    (("simulate", "--op", "13", "--seed", "1"), "--a", "-1e-5", "--a must lie in [0, 1]"),
    (("classify",), "--a", "-inf", "--a must lie in [0, 1]"),
    (("simulate", "--op", "13", "--a", "0.3", "--seed", "1"), "--tol", "-1e-9",
     "--tol must be positive and finite"),
    (("verify", "--op", "28"), "--tol", "-inf", "--tol must be positive and finite"),
    (("simulate", "--op", "13", "--a", "0.3"), "--x0", "-0.5,1,0.5",
     "--x0 is not a simplex point: negative coordinate -0.5 below -1e-12"),
    (("simulate", "--op", "13", "--a", "0.3"), "--x0", "-1e-13,0.5,0.5", None),  # roundoff: runs
]


class TestDashedValues:
    @pytest.mark.parametrize("argv,flag,value,message", _DASHED_VALUES,
                             ids=[f"{argv[0]}{flag}{value}" for argv, flag, value, _ in _DASHED_VALUES])
    def test_spaced_value_reaches_its_flag(self, capsys, argv, flag, value, message):
        spaced = _run(capsys, *argv, flag, value)
        assert spaced == _run(capsys, *argv, f"{flag}={value}")
        if message is None:
            assert spaced[0] == 0 and spaced[2] == "" and json.loads(spaced[1])
        else:
            assert spaced == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [("catalog", "--a", "--out", "f"),
                                      ("verify", "--op", "13", "--a", "--", "-0.1")])
    def test_missing_value_is_still_an_error(self, capsys, no_commands, argv):
        assert _run(capsys, *argv) == (1, "", "error: argument --a: expected one argument\n")


class TestNegativeZeroParameter:
    # -0.0 is one more spelling of a = 0: it must print the bytes of --a 0, not "a": -0
    @pytest.mark.parametrize("argv", [
        ("catalog",),
        ("classify",),
        ("classify", "--strict"),
        ("simulate", "--op", "13", "--x0", "0.2,0.3,0.5"),
        ("verify", "--op", "13", "--seeds", "3"),
        ("tensor", "--op", "1"),
    ], ids=["catalog", "classify", "classify-strict", "simulate", "verify", "tensor"])
    def test_same_bytes_as_zero(self, capsys, argv):
        code, out, err = _run(capsys, *argv, "--a=-0.0")
        assert (code, err) == (0, "")
        assert out == _run(capsys, *argv, "--a=0")[1]

    def test_verify_list_item(self, capsys):
        argv = ("verify", "--op", "13", "--seeds", "3")
        code, out, _ = _run(capsys, *argv, "--a=-0.0,0.3")
        assert code == 0
        assert out == _run(capsys, *argv, "--a=0,0.3")[1]


class TestDeterminism:
    def test_identical_bytes(self, capsys, tmp_path):
        a_path = tmp_path / "a.json"
        b_path = tmp_path / "b.json"
        for path in (a_path, b_path):
            code, _, _ = _run(capsys, "simulate", "--op", "13", "--a", "0.2",
                              "--seed", "21", "--count", "4", "--out", str(path))
            assert code == 0
        assert a_path.read_bytes() == b_path.read_bytes()

    def test_verify_bytes(self, capsys, tmp_path):
        a_path = tmp_path / "va.json"
        b_path = tmp_path / "vb.json"
        for path in (a_path, b_path):
            code, _, _ = _run(capsys, "verify", "--op", "25", "--a", "0.2",
                              "--seeds", "6", "--out", str(path))
            assert code == 0
        assert a_path.read_bytes() == b_path.read_bytes()


    @pytest.mark.parametrize("argv", [
        (command, "--a", repr(a)) + extra
        for a in (0.1, 0.3, 0.7, 0.9)
        for command, extra in (("catalog", ()), ("classify", ()), ("classify", ("--strict",)))
    ])
    def test_seed_free_outputs_match_recorded_digests(self, capsys, argv):
        # these paths make no BLAS call, so the bytes do not depend on the BLAS build
        golden = json.loads(
            (Path(__file__).resolve().parents[1] / "perfbench" / "golden.json").read_text())
        code, out, _ = _run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == golden["cli " + " ".join(argv)]


class TestSimulateDigests:
    # Unlike the seed-free outputs above, these bytes come from BLAS products (the
    # vector route of `apply_array`), so they hold for the numpy/OpenBLAS build that
    # recorded perfbench/golden.json.
    @pytest.mark.parametrize("argv", [
        ("simulate", "--op", str(op), "--a", repr(a), "--seed", str(seed), "--count", str(count))
        for seed in (7, 11)
        for op, a, count in ((13, 0.45, 300), (28, 0.3, 300), (25, 0.55, 300), (4, 0.5, 30),
                             (13, 0.5, 300))
    ])
    def test_benchmark_simulate_outputs_match_recorded_digests(self, capsys, argv):
        golden = json.loads(
            (Path(__file__).resolve().parents[1] / "perfbench" / "golden.json").read_text())
        code, out, _ = _run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == golden["cli " + " ".join(argv)]


class TestVerifyDigests:
    # The verify-hyperbolic workload: MB-sized record lists through the column path of
    # jsonio. Like the simulate outputs, the bytes hold for the recording BLAS build.
    @pytest.mark.parametrize("argv", [
        ("verify", "--op", str(op), "--a", a, "--seeds", "2000", "--seed", str(seed))
        for seed in (7, 11)
        for op, a in ((13, "0.2,0.8"), (4, "0.8"), (28, "0.3"), (25, "0.2,0.8"))
    ])
    def test_benchmark_verify_outputs_match_recorded_digests(self, capsys, argv):
        golden = json.loads(
            (Path(__file__).resolve().parents[1] / "perfbench" / "golden.json").read_text())
        code, out, _ = _run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == golden["cli " + " ".join(argv)]


class TestDegenerateWithinTolerance:
    # The classifier links entries within 1e-12, so a parameter that close to
    # 0, 1/2 or 1 is degenerate even when it is not exactly one of them.
    @pytest.mark.parametrize("argv,classes", [
        (("classify", "--a", "1e-13"), 4),
        (("classify", "--a", "0.9999999999999"), 8),
        (("classify", "--strict", "--a", "0.5000000000001"), 20),
    ])
    def test_near_root_is_degenerate(self, capsys, argv, classes):
        code, out, _ = _run(capsys, *argv)
        assert code == 0
        data = json.loads(out)
        assert data["degenerate"] is True
        assert data["class_count"] == classes
        assert data["reference_comparison"] == "degenerate parameter"

    @pytest.mark.parametrize("a", ["1e-11", "0.49999999999", "0.50000000001", "0.99999999999"])
    def test_point_further_off_a_root_is_generic(self, capsys, a):
        code, out, _ = _run(capsys, "classify", "--a", a)
        assert code == 0
        data = json.loads(out)
        assert data["degenerate"] is False
        assert data["class_count"] == 20
        assert data["reference_comparison"] == "MATCH"


class TestSchemaStamp:
    @pytest.mark.parametrize("argv", [
        ("catalog",),
        ("classify", "--a", "0.3"),
        ("simulate", "--op", "13", "--a", "0.2", "--x0", "0.3,0.4,0.3"),
        ("verify", "--op", "13", "--a", "0.2", "--seeds", "2"),
        ("tensor", "--tensor", "{tensor}"),
    ], ids=lambda argv: argv[0])
    def test_json_opens_with_the_stamp(self, capsys, tmp_path, argv):
        tensor = tmp_path / "t25.json"
        tensor.write_text(operator_tensor(25, 0.3).to_json())
        code, out, _ = _run(capsys, *(arg.format(tensor=tensor) for arg in argv))
        assert code == 0
        assert out.startswith('{\n  "schema_version": 1,\n')


class TestConsoleEntry:
    @pytest.mark.parametrize("argv,code", [
        (("classify", "--a", "0.3"), 0),
        (("verify", "--op", "13", "--tol", "nan"), 1),
        (("simulate", "--op", "13", "--a", "0.2", "--x0", "0.2,0.3,0.5", "--max-iter", "1"), 2),
    ])
    def test_run_exits_with_the_code_of_main(self, capsys, monkeypatch, argv, code):
        monkeypatch.setattr(sys, "argv", ["qsodyn", *argv])
        try:
            with pytest.raises(SystemExit) as exit_:
                run()
        finally:
            gc.unfreeze()  # run() freezes the collector for the exit it expects
        assert exit_.value.code == code
        assert "Traceback" not in capsys.readouterr().err

    def test_module_runs_as_a_script(self, capsys):
        # `python -m qsodyn.cli` reaches run() through the module's __main__ guard.
        argv = ("tensor", "--op", "13", "--a", "0.3")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        done = subprocess.run([sys.executable, "-m", "qsodyn.cli", *argv], env=env,
                              capture_output=True, text=True)
        assert (done.returncode, done.stdout, done.stderr) == _run(capsys, *argv)

    @pytest.mark.filterwarnings("ignore:'qsodyn.cli' found in sys.modules:RuntimeWarning")
    def test_main_guard_runs_in_process(self, capsys, monkeypatch):
        # The same __main__ guard, run in this process: runpy executes cli.py's code again
        # under the name __main__, so the guard calls run() and exits with main's code.
        argv = ("tensor", "--op", "13", "--a", "0.3")
        monkeypatch.setattr(sys, "argv", ["qsodyn", *argv])
        try:
            with pytest.raises(SystemExit) as exit_:
                runpy.run_module("qsodyn.cli", run_name="__main__")
        finally:
            gc.unfreeze()  # run() freezes the collector for the exit it expects
        captured = capsys.readouterr()
        assert (exit_.value.code, captured.out, captured.err) == _run(capsys, *argv)


def _volterra_tensor_json(m: int) -> str:
    """The tensor file of P_ij,k = (delta_ik + delta_jk) / 2, a valid heredity tensor for any m."""
    P = [((i == k) + (j == k)) / 2 for i in range(m) for j in range(m) for k in range(m)]
    return json.dumps({"m": m, "P": P})


# The vocabulary of the property test below: each flag's common values, then values that
# are likely refused (_BAD, which every flag can draw, comes on top). --tensor and --out
# name files under the test's directory.
_BAD = ("nan", "-0.1", "1.5", "", "0.3,", "-inf")
_POINTS = {1: ("1",), 2: ("0.5,0.5",), 3: ("0.3,0.4,0.3", "0,0,1"), 4: ("0.25,0.25,0.25,0.25",)}
_VALUES = {
    "--a": (("0", "0.3", "0.5", "1"), ()),
    "--op": (("1", "4", "13", "25", "28"), ("0", "37")),
    "--tensor": ((), ("missing.json", ".")),  # the common value is the file of m coordinates
    "--x0": ((), ("1,1,1",) + tuple(p for ps in _POINTS.values() for p in ps)),
    "--seed": (("0", "7"), ("-1",)),
    "--count": (("1", "3"), ("0",)),
    "--seeds": (("1", "3"), ("0",)),
    "--tol": (("1e-9", "1e-3"), ("0",)),
    "--max-iter": (("1", "20"), ("0",)),
    "--format": (("csv",), ("xml",)),  # json is the default
    "--out": (("out.json",), (".",)),
}
_VERIFY_A = (("0.3", "0.2,0.5", "0.5,0.8"), ("0.3,x",))
# The two input sources of simulate and tensor, and simulate's two kinds of start: each
# valid choice is listed three times, so most runs get past the rules that relate flags.
_SOURCES = (("--op", "--a"),) * 3 + (("--tensor",),) * 3 + (
    (), ("--op",), ("--a", "--tensor"), ("--op", "--a", "--tensor"))
_STARTS = (("--x0",),) * 3 + (("--seed",),) * 3 + ((), ("--x0", "--seed"))
# Flags given or left out at random; --max-iter and --seeds are always given, so no
# run takes a default budget and one example takes milliseconds.
_OPTIONAL = {"catalog": ("--a", "--out"), "classify": ("--a", "--strict", "--out"),
             "simulate": ("--count", "--tol", "--format", "--out"),
             "verify": ("--a", "--tol", "--seed", "--out"), "tensor": ("--out",)}


@st.composite
def _argv(draw, directory: Path) -> list[str]:
    command = draw(st.sampled_from(sorted(_OPTIONAL)))
    flags = [flag for flag in _OPTIONAL[command] if draw(st.booleans())]
    if command in ("simulate", "tensor"):
        flags += draw(st.sampled_from(_SOURCES))
    if command == "simulate":
        flags += draw(st.sampled_from(_STARTS)) + ("--max-iter",)
    if command == "verify":
        flags += ["--op", "--seeds", "--max-iter"]
    bad = draw(st.sampled_from(flags)) if flags and draw(st.integers(0, 2)) == 0 else None
    m = draw(st.sampled_from(sorted(_POINTS))) if "--tensor" in flags else 3
    common = {"--tensor": (f"m{m}.json",), "--x0": _POINTS[m]}
    argv = [command]
    for flag in flags:
        if flag == "--strict":
            argv.append(flag)
            continue
        good, rare = _VERIFY_A if (command, flag) == ("verify", "--a") else _VALUES[flag]
        good = common.get(flag, good)
        value = draw(st.sampled_from(rare + _BAD if flag == bad else good))
        if flag in ("--tensor", "--out") and value:
            value = str(directory / value)
        argv += [flag, value]
    return argv


class TestNeverATraceback:
    @pytest.fixture
    def directory(self, tmp_path):
        for m in (1, 2, 3, 4):
            (tmp_path / f"m{m}.json").write_text(_volterra_tensor_json(m))
        return tmp_path

    def test_every_command_line_exits_with_a_code(self, capsys, directory):
        # Exit 1 comes with exactly one `error: ` line on stderr; 0 and 2 write nothing there.
        @settings(max_examples=500)
        @given(_argv(directory))
        def check(argv):
            code, _, err = _run(capsys, *argv)
            assert code in (0, 1, 2), argv
            if code == 1:
                assert err.startswith("error: ") and err.find("\n") == len(err) - 1, (argv, err)
            else:
                assert err == "", (argv, err)

        check()
