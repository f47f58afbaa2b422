"""End-to-end tests of the command-line interface."""

import json

import pytest

from qsodyn.cli import main


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

    def test_csv_needs_single_trajectory(self, capsys, tmp_path):
        code, _, err = _run(capsys, "simulate", "--op", "25", "--a", "0.3",
                            "--seed", "9", "--count", "3",
                            "--out", str(tmp_path / "x.json"), "--format", "csv")
        assert code == 1
        assert "CSV" in err

    def test_requires_one_source(self, capsys):
        code, _, _ = _run(capsys, "simulate", "--x0", "0.3,0.4,0.3")
        assert code == 1

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


    def test_empty_tensor_file(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        path.write_text('{"m": 0, "P": []}')
        code, out, err = _run(capsys, "tensor", "--tensor", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: bad tensor file")


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
