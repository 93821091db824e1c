import json
import subprocess
import sys

import numpy as np
import pytest

from autophase2d import Matrix2D, autocorr_2d, trivially_equivalent_2d
from autophase2d.cli import main
from autophase2d.jsonio import dumps
from conftest import GOLDEN_R1D, GOLDEN_R_ROWS, GOLDEN_X_ROWS


@pytest.fixture
def golden_files(tmp_path):
    x_path = tmp_path / "X.json"
    r_path = tmp_path / "R.json"
    x_path.write_text(dumps({"n": 2, "rows": GOLDEN_X_ROWS}) + "\n")
    r_path.write_text(dumps({"n": 2, "values": GOLDEN_R_ROWS}) + "\n")
    return x_path, r_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_autocorr_command(golden_files, capsys):
    x_path, _ = golden_files
    code, out, err = run_cli(capsys, "autocorr", "--input", str(x_path))
    assert code == 0
    payload = json.loads(out)
    assert payload == {"n": 2, "values": GOLDEN_R_ROWS}


def test_reduce_command(golden_files, capsys):
    _, r_path = golden_files
    code, out, _ = run_cli(capsys, "reduce", "--input", str(r_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["m"] == 4
    assert payload["values"] == GOLDEN_R1D


def test_solve_command(golden_files, capsys):
    _, r_path = golden_files
    code, out, _ = run_cli(capsys, "solve", "--input", str(r_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["unique"] is True
    assert payload["candidates_total"] == 4
    assert payload["key_constraint_value"] == -234
    got = Matrix2D.from_rows(payload["solution"]["rows"])
    assert trivially_equivalent_2d(got, Matrix2D.from_rows(GOLDEN_X_ROWS), 1e-6)


def test_solve_writes_output_file(golden_files, capsys, tmp_path):
    _, r_path = golden_files
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "solve", "--input", str(r_path), "--output", str(out_path))
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["unique"] is True


def test_enumerate_command(golden_files, capsys):
    _, r_path = golden_files
    code, out, _ = run_cli(capsys, "reduce", "--input", str(r_path))
    r_payload = json.loads(out)
    seq = r_path.parent / "r.json"
    seq.write_text(dumps(r_payload) + "\n")
    code, out, _ = run_cli(capsys, "enumerate", "--input", str(seq))
    assert code == 0
    payload = json.loads(out)
    assert payload["candidates_total"] == 4
    assert [c["flips"] for c in payload["candidates"]] == [0, 2, 4, 6]
    assert all(c["autocorr_residual"] <= 1e-6 for c in payload["candidates"])


def test_census_command_deterministic(capsys):
    code, first, err = run_cli(capsys, "census", "--n", "3", "--seed", "42")
    assert code == 0
    code, second, _ = run_cli(capsys, "census", "--n", "3", "--seed", "42")
    assert first == second  # byte identical
    lines = first.splitlines()
    assert lines[0] == "index,d,log_gap"
    assert len(lines) == 17  # header plus 16 classes
    last = lines[-1].split(",")
    assert last[0] == "15" and last[2] == ""  # final row has no gap
    assert "candidate classes" in err  # 16 classes, not the all-real 128


def test_census_from_input_file(capsys, tmp_path):
    seq = tmp_path / "r.json"
    seq.write_text(dumps({"m": 4, "values": GOLDEN_R1D}) + "\n")
    code, out, _ = run_cli(capsys, "census", "--n", "2", "--input", str(seq))
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [r[2] for r in rows] == ["", "", "", ""]  # negative gaps serialize empty
    assert float(rows[-1][1]) == 1.0


def test_probe_command(capsys):
    code, out, _ = run_cli(capsys, "probe", "--n", "3", "--alpha", "1000")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 3
    assert payload["alpha"] == 1000
    assert payload["predicted"] == 21
    assert abs(payload["diff_norm"] - 21) < 0.21


def test_oracle_command(capsys, tmp_path):
    R = autocorr_2d(Matrix2D.from_rows([[1.0, 0.0], [0.0, 0.0]]))
    grid = tmp_path / "R.json"
    grid.write_text(dumps(R.to_dict()) + "\n")
    code, out, _ = run_cli(capsys, "oracle", "--input", str(grid), "--bound", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["search_space_size"] == 81
    assert len(payload["classes"]) == 2


def test_roundtrip_command(capsys):
    code, out, _ = run_cli(capsys, "roundtrip", "--n", "2", "--trials", "3", "--seed", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["trials"] == 3
    assert payload["successes"] + payload["failures"] == 3
    assert payload["rng"] == "numpy-pcg64"


def test_config_file_and_flag_precedence(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 3, "alpha": 1000.0}))
    code, out, _ = run_cli(capsys, "probe", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["alpha"] == 1000
    code, out, _ = run_cli(capsys, "probe", "--config", str(cfg), "--alpha", "100000")
    assert code == 0
    assert json.loads(out)["alpha"] == 100000  # flag wins


# --- failure paths --------------------------------------------------------------


def error_payload(err):
    lines = [line for line in err.splitlines() if line.strip()]
    return json.loads(lines[-1])


def test_missing_input_is_config_error(capsys):
    code, _, err = run_cli(capsys, "solve")
    assert code == 2
    assert error_payload(err)["error"] == "ConfigError"


def test_unreadable_input_is_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "solve", "--input", str(bad))
    assert code == 2
    assert error_payload(err)["error"] == "InputError"


def test_asymmetric_grid_exits_1(capsys, tmp_path):
    grid = np.array(GOLDEN_R_ROWS)
    grid[0, 1] += 5.0  # breaks point symmetry
    bad = tmp_path / "bad_grid.json"
    bad.write_text(dumps({"n": 2, "values": grid.tolist()}) + "\n")
    code, _, err = run_cli(capsys, "solve", "--input", str(bad))
    assert code == 1
    assert error_payload(err)["error"] == "AsymmetricInput"


def test_no_match_exits_1(golden_files, capsys, tmp_path):
    grid = np.array(GOLDEN_R_ROWS)
    shift = 1e6
    grid[2, 0] += shift
    grid[0, 2] += shift
    grid[1, 0] -= shift
    grid[1, 2] -= shift
    bad = tmp_path / "bad_grid.json"
    bad.write_text(dumps({"n": 2, "values": grid.tolist()}) + "\n")
    code, _, err = run_cli(capsys, "solve", "--input", str(bad))
    assert code == 1
    assert error_payload(err)["error"] == "NoMatch"


def test_probe_alpha_validation_exits_2(capsys):
    code, _, err = run_cli(capsys, "probe", "--n", "3", "--alpha", "3")
    assert code == 2
    assert error_payload(err)["error"] == "InputError"


def test_nonpositive_tolerance_rejected(capsys):
    code, _, err = run_cli(capsys, "probe", "--n", "3", "--alpha", "1000", "--tol-match", "0")
    assert code == 2
    assert error_payload(err)["error"] == "ConfigError"


def test_roundtrip_negative_trials_rejected(capsys):
    code, out, err = run_cli(capsys, "roundtrip", "--n", "2", "--seed", "0", "--trials", "-1")
    assert code == 2
    assert out == ""
    assert error_payload(err)["error"] == "ConfigError"


def test_unknown_command_exits_2(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 2


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "autophase2d", "probe", "--n", "2", "--alpha", "1000"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["predicted"] == 1
