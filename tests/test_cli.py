import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import autophase2d
from autophase2d import (
    Matrix2D,
    Signal1D,
    autocorr_1d,
    autocorr_2d,
    trivially_equivalent_2d,
)
from autophase2d import cli
from autophase2d.cli import main
from autophase2d.jsonio import census_csv, dumps
from autophase2d.oracle import exhaustive_integer_search, planted_roundtrip
from autophase2d.reduction import reduce_2d_to_1d
from autophase2d.solver import ambiguity_census, asymptotic_probe, enumerate_candidates, solve_2d
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


def _enumerate_text(r):
    """enumerate's JSON, spelled out entry by entry through dumps' dict and list paths."""
    t = enumerate_candidates(r)
    f = [None] * len(t) if t.f_values is None else t.f_values.tolist()
    entries = [{"values": row, "flips": mask, "autocorr_residual": residual, "f_value": fv}
               for row, mask, residual, fv in zip(t.values.tolist(), t.flips.tolist(),
                                                  t.autocorr_residuals.tolist(), f)]
    return dumps({"m": r.m, "candidates_total": len(t), "candidates": entries}) + "\n"


def _census_text(n, seed):
    r = autocorr_1d(Signal1D(np.random.default_rng(seed).standard_normal(n * n)))
    return census_csv(ambiguity_census(r, n))


def _lag_sequence(m, seed, first=None):
    x = np.random.default_rng(seed).standard_normal(m)
    if first is not None:
        x[0] = first
    return autocorr_1d(Signal1D(x))


ORACLE_GRID = autocorr_2d(Matrix2D.from_rows([[1.0, 0.0], [0.0, 0.0]]))
GRID4 = autocorr_2d(Matrix2D(4, np.random.default_rng(0).standard_normal((4, 4))))
SEQ4 = reduce_2d_to_1d(GRID4)  # 9 flip units: 256 candidates
TRIMMED = _lag_sequence(9, 3, first=0.0)  # vanishing extreme lag: rows are zero-padded
NONSQUARE = _lag_sequence(6, 3)  # m = 6 is not n*n, so every f_value is null
TWIN_FILES = {"oracle.json": ORACLE_GRID, "R4.json": GRID4, "r4.json": SEQ4,
              "trimmed.json": TRIMMED, "nonsquare.json": NONSQUARE}

# command line (the golden files are X.json, R.json and r.json, the others are in
# TWIN_FILES), and the library call that must give the same bytes
LIBRARY_TWINS = [
    (("autocorr", "--input", "X.json"),
     lambda g: dumps(autocorr_2d(g["X"]).to_dict()) + "\n"),
    (("reduce", "--input", "R.json"),
     lambda g: dumps(reduce_2d_to_1d(g["R"]).to_dict()) + "\n"),
    (("solve", "--input", "R.json"),
     lambda g: dumps(solve_2d(g["R"]).to_dict()) + "\n"),
    (("enumerate", "--input", "r.json"),
     lambda g: _enumerate_text(g["r"])),
    (("oracle", "--input", "oracle.json", "--bound", "1"),
     lambda g: dumps(exhaustive_integer_search(ORACLE_GRID, 1).to_dict()) + "\n"),
    (("census", "--n", "3", "--seed", "42"),
     lambda g: _census_text(3, 42)),
    (("probe", "--n", "3", "--alpha", "1e4"),
     lambda g: dumps({"n": 3, "alpha": 1e4, **asymptotic_probe(3, 1e4).to_dict()}) + "\n"),
    (("roundtrip", "--n", "3", "--trials", "20", "--seed", "2026"),
     lambda g: dumps(planted_roundtrip(3, 20, 2026)) + "\n"),
    (("enumerate", "--input", "r4.json"),
     lambda g: _enumerate_text(SEQ4)),
    (("solve", "--input", "R4.json"),
     lambda g: dumps(solve_2d(GRID4).to_dict()) + "\n"),
    (("census", "--n", "4", "--input", "r4.json"),
     lambda g: census_csv(ambiguity_census(SEQ4, 4))),
    (("enumerate", "--input", "trimmed.json"),
     lambda g: _enumerate_text(TRIMMED)),
    (("enumerate", "--input", "nonsquare.json"),
     lambda g: _enumerate_text(NONSQUARE)),
]


def _twin_id(argv):
    files = [a[:-5] for a in argv if a.endswith(".json")]
    return "-".join([argv[0]] + [f for f in files if f not in ("X", "R", "r", "oracle")])


@pytest.mark.parametrize("argv, library", LIBRARY_TWINS, ids=[_twin_id(a) for a, _ in LIBRARY_TWINS])
def test_stdout_is_the_serialized_library_result(
    capsys, tmp_path, golden_matrix, golden_grid, golden_r, argv, library
):
    golden = {"X.json": golden_matrix, "R.json": golden_grid, "r.json": golden_r}
    for name, obj in {**golden, **TWIN_FILES}.items():
        (tmp_path / name).write_text(dumps(obj.to_dict()) + "\n")
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == library({"X": golden_matrix, "R": golden_grid, "r": golden_r})


def test_eigenvalue_nonconvergence_exits_1(capsys, golden_files, lapack_not_converging):
    code, out, err = run_cli(capsys, "solve", "--input", str(golden_files[1]))
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "RootFindingFailed",
        "detail": "eigenvalues of the colleague matrix did not converge",
    }


def test_enumerate_builds_no_object_per_candidate(capsys, tmp_path, monkeypatch):
    seq = tmp_path / "r4.json"
    seq.write_text(dumps(SEQ4.to_dict()) + "\n")
    expected = _enumerate_text(SEQ4)

    def refuse(*args, **kwargs):
        raise AssertionError("enumerate built a per-candidate object")

    monkeypatch.setattr(Signal1D, "__init__", refuse)
    code, out, _ = run_cli(capsys, "enumerate", "--input", str(seq))
    assert code == 0
    assert out == expected


CANDIDATE_ENTRY = re.compile(r'\{"values": [^{}]*\}')


@pytest.mark.parametrize("grid", ["golden", "R4"])
def test_solve_match_is_the_enumerate_entry_of_its_mask(capsys, tmp_path, golden_grid, grid):
    R = golden_grid if grid == "golden" else GRID4  # R4 solves by the half tables
    (tmp_path / "R.json").write_text(dumps(R.to_dict()) + "\n")
    (tmp_path / "r.json").write_text(dumps(reduce_2d_to_1d(R).to_dict()) + "\n")
    _, solved, _ = run_cli(capsys, "solve", "--input", str(tmp_path / "R.json"))
    _, listed, _ = run_cli(capsys, "enumerate", "--input", str(tmp_path / "r.json"))
    matches = json.loads(solved)["matches"]
    assert len(matches) == 1
    [match] = CANDIDATE_ENTRY.findall(solved)
    by_mask = {json.loads(entry)["flips"]: entry for entry in CANDIDATE_ENTRY.findall(listed)}
    assert len(by_mask) == json.loads(listed)["candidates_total"]
    assert match == by_mask[matches[0]["flips"]]


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


def test_solve_of_an_overflowing_grid_names_the_lag_half(capsys, tmp_path):
    # the grid is symmetric and finite; its reduction sums 1e308 + 1e308 to inf
    path = tmp_path / "R.json"
    path.write_text(json.dumps({"n": 2, "values": [[1e308] * 3] * 3}))
    code, out, err = run_cli(capsys, "solve", "--input", str(path))
    assert (code, out) == (2, "")
    assert error_payload(err) == {"error": "InputError",
                                  "detail": "autocorrelation half must contain only finite values"}


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


def test_census_of_an_oversized_draw_is_refused_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "census", "--seed", "1", "--n", "1000")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert error_payload(err)["error"] == "SearchSpaceTooLarge"


def test_probe_alpha_validation_exits_2(capsys):
    code, _, err = run_cli(capsys, "probe", "--n", "3", "--alpha", "3")
    assert code == 2
    assert error_payload(err)["error"] == "InputError"


@pytest.mark.parametrize("alpha", ["inf", "nan"])
def test_probe_nonfinite_alpha_exits_2(capsys, alpha):
    code, out, err = run_cli(capsys, "probe", "--n", "2", "--alpha", alpha)
    assert code == 2
    assert out == ""
    assert error_payload(err)["error"] == "InputError"


@pytest.mark.parametrize("alpha", ["1.3e154", "1.4e154", "1e200"])
def test_probe_overflowing_alpha_exits_2(capsys, alpha):
    code, out, err = run_cli(capsys, "probe", "--n", "3", "--alpha", alpha)
    assert code == 2
    assert out == ""
    assert error_payload(err)["error"] == "InputError"


@pytest.mark.parametrize("n, alpha", [(70, "10.5"), (3, "1e200")])
def test_probe_overflow_names_n_and_alpha(capsys, n, alpha):
    code, out, err = run_cli(capsys, "probe", "--n", str(n), "--alpha", alpha)
    assert (code, out) == (2, "")
    assert error_payload(err) == {
        "error": "InputError",
        "detail": f"probe alpha {float(alpha)!r} is too large at n = {n}: "
                  "the constraint products overflow",
    }


def test_nonpositive_tolerance_rejected(capsys):
    code, _, err = run_cli(capsys, "probe", "--n", "3", "--alpha", "1000", "--tol-resid", "0")
    assert code == 2
    assert error_payload(err)["error"] == "ConfigError"


@pytest.mark.parametrize("argv, config, detail", [
    # the corner band is the grid's bound, so --tol-match is no flag at all
    (("solve", "--input", "R.json", "--tol-match", "inf"), None,
     "unrecognized arguments: --tol-match inf"),
    (("solve", "--input", "R.json", "--tol-root", "inf"), None, "must be positive"),
    (("enumerate", "--input", "r.json", "--tol-resid", "inf"), None, "must be positive"),
    (("solve", "--input", "R.json", "--tol-pair", "nan"), None, "must be positive"),
    (("solve", "--input", "R.json"), '{"tol_pair": 1e400}', "must be positive"),
    (("enumerate", "--input", "r.json"), '{"tol_resid": Infinity}', "must be positive"),
], ids=["tol-match-inf", "tol-root-inf", "tol-resid-inf", "tol-pair-nan", "config-1e400",
         "config-Infinity"])
def test_nonfinite_tolerance_is_refused_before_any_work(
    golden_files, capsys, tmp_path, monkeypatch, argv, config, detail
):
    (tmp_path / "r.json").write_text(dumps({"m": 4, "values": GOLDEN_R1D}) + "\n")
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    if config is not None:
        (tmp_path / "cfg.json").write_text(config)
        argv += ["--config", str(tmp_path / "cfg.json")]

    def refuse(cfg):
        raise AssertionError("a command ran with a non-finite tolerance")

    monkeypatch.setattr(autophase2d.cli, "_dispatch", refuse)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    payload = error_payload(err)
    assert payload["error"] == "ConfigError"
    assert detail in payload["detail"]


@pytest.mark.parametrize("flags, config", [
    (("--tol-match", "1e-2"), None),
    ((), '{"tol_match": 1e-3}'),
], ids=["flag", "config"])
def test_tol_match_is_refused(golden_files, capsys, tmp_path, flags, config):
    # solve's corner band is the grid's own bound on the corner; no setting widens it
    _, r_path = golden_files
    argv = ["solve", "--input", str(r_path), *flags]
    if config is not None:
        (tmp_path / "cfg.json").write_text(config)
        argv += ["--config", str(tmp_path / "cfg.json")]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    payload = error_payload(err)
    assert payload["error"] == "ConfigError"
    assert "tol-match" in payload["detail"] or "'tol_match'" in payload["detail"]


@pytest.mark.parametrize("config, argv, detail", [
    (None, ("probe", "--n", "3", "--alpha", "1000"), "cannot read config file"),
    ("{not json", ("probe", "--n", "3", "--alpha", "1000"), "config file is not valid JSON"),
    ("[1, 2]", ("probe", "--n", "3", "--alpha", "1000"), "config file must hold a JSON object"),
    ('{"tol_rsid": 1e-3, "tol_resid": 1e-3, "tol-resid": 1e-3}',
     ("probe", "--n", "3", "--alpha", "1000"), "config file has unknown keys: 'tol_rsid', 'tol-resid'"),
    ("{}", ("census", "--n", "3"), "census requires --seed when no --input is given"),
    ("{}", ("probe", "--n", "3", "--alpha", "1000", "--output", ""),
     "output path must be nonempty"),
], ids=["unreadable", "invalid-json", "not-an-object", "unknown-keys", "census-without-seed",
         "empty-output"])
def test_config_refusals_exit_2(capsys, tmp_path, config, argv, detail):
    cfg = tmp_path / "cfg.json"  # left unwritten, so unreadable, when config is None
    if config is not None:
        cfg.write_text(config)
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert code == 2
    assert out == ""
    payload = error_payload(err)
    assert payload["error"] == "ConfigError"
    assert detail in payload["detail"]


def test_input_that_is_not_an_object_is_input_error(capsys, tmp_path):
    bad = tmp_path / "list.json"
    bad.write_text("[1, 2, 3]")
    code, out, err = run_cli(capsys, "solve", "--input", str(bad))
    assert code == 2
    assert out == ""
    payload = error_payload(err)
    assert payload["error"] == "InputError"
    assert payload["detail"].endswith("expected a JSON object")


@pytest.mark.parametrize("argv, data, detail", [
    (["solve"], {"n": 2, "values": {"a": 1}}, "lag grid: field 'values' must be a list"),
    (["enumerate"], {"m": 2, "values": [1, {"a": 2}, 1]}, "lag sequence: field 'values': "),
    (["census", "--n", "2"], {"m": 2, "values": {"a": 1}},
     "lag sequence: field 'values' must be a list"),
    (["autocorr"], {"n": 2, "rows": {"a": 1}}, "matrix: field 'rows' must be a list"),
    (["enumerate"], {"m": 2, "values": ["1", "2.5", "1"]},
     "lag sequence: field 'values' must hold numbers only"),
    (["census", "--n", "2"], {"m": 2, "values": [True, 2.5, True]},
     "lag sequence: field 'values' must hold numbers only"),
    (["solve"], {"n": 1, "values": [[None]]}, "lag grid: field 'values' must hold numbers only"),
], ids=["solve", "enumerate", "census", "autocorr", "enumerate-strings", "census-booleans",
        "solve-null"])
def test_malformed_container_is_one_input_error_line(capsys, tmp_path, argv, data, detail):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, *argv, "--input", str(path))
    assert code == 2
    assert out == ""
    [line] = err.splitlines()
    payload = json.loads(line)
    assert payload["error"] == "InputError"
    assert payload["detail"].startswith(detail)


def test_roundtrip_negative_trials_rejected(capsys):
    code, out, err = run_cli(capsys, "roundtrip", "--n", "2", "--seed", "0", "--trials", "-1")
    assert code == 2
    assert out == ""
    assert error_payload(err)["error"] == "ConfigError"


@pytest.mark.parametrize("argv", [
    ("roundtrip", "--n", "1", "--seed", "0", "--trials", "2"),
    ("census", "--n", "1", "--seed", "0"),
    ("probe", "--n", "1", "--alpha", "1000"),
])
def test_n_below_2_rejected(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert error_payload(err)["error"] == "ConfigError"
    assert error_payload(err)["detail"] == f"{argv[0]} needs n >= 2, got 1"


@pytest.mark.parametrize("argv, seed", [
    (("census", "--n", "3", "--seed", "-1"), -1),
    (("roundtrip", "--n", "2", "--seed", "-5", "--trials", "1"), -5),
])
def test_negative_seed_rejected(capsys, argv, seed):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert error_payload(err) == {"error": "ConfigError",
                                  "detail": f"seed must be nonnegative, got {seed}"}


def test_census_of_an_input_ignores_the_seed(capsys, tmp_path):
    r1d = tmp_path / "r1d.json"
    r1d.write_text(dumps({"m": 4, "values": GOLDEN_R1D}) + "\n")
    expected = run_cli(capsys, "census", "--input", str(r1d), "--n", "2")
    assert expected[0] == 0
    assert run_cli(capsys, "census", "--input", str(r1d), "--n", "2", "--seed", "-1") == expected


def test_oracle_negative_bound_rejected(capsys, golden_files):
    code, out, err = run_cli(capsys, "oracle", "--input", str(golden_files[1]), "--bound", "-1")
    assert (code, out) == (2, "")
    assert error_payload(err) == {"error": "ConfigError",
                                  "detail": "bound must be nonnegative, got -1"}


def test_unknown_command_exits_2(capsys):
    code, out, err = run_cli(capsys, "frobnicate")
    assert code == 2
    assert out == ""
    assert error_payload(err)["error"] == "ConfigError"


COMMANDS = ("autocorr", "reduce", "solve", "enumerate", "census", "probe", "oracle", "roundtrip")


def test_help_lists_every_command(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    for name in COMMANDS:
        assert f"\n  {name} " in out


def test_each_tolerance_flag_says_what_it_bounds(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    text = " ".join(out.split())  # the help as one line, whatever the terminal width
    for flag, bounds, default in [
        ("--tol-root TOL_ROOT", "largest scaled residual of a polynomial root", "1e-08"),
        ("--tol-pair TOL_PAIR", "width of the band around the unit circle in which a zero is "
         "refused", "1e-06"),
        ("--tol-resid TOL_RESID", "largest autocorrelation residual of a candidate, relative to "
         "max|r|", "1e-06"),
    ]:
        assert f"{flag} {bounds}; positive and finite (default {default})" in text


def test_main_builds_one_parser_per_process(golden_files, tmp_path, capsys, monkeypatch):
    built = []
    init = autophase2d.cli._Parser.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(autophase2d.cli._Parser, "__init__", spy)
    autophase2d.cli._build_parser.cache_clear()
    # perfbench's cli-n4 lines are parsed directly
    r1d = tmp_path / "r1d.json"
    r1d.write_text(dumps({"m": 4, "values": GOLDEN_R1D}) + "\n")
    for argv in (("solve", "--input", str(golden_files[1])), ("enumerate", "--input", str(r1d)),
                 ("census", "--input", str(r1d), "--n", "2")):
        assert run_cli(capsys, *argv)[0] == 0
    assert built == []
    # only argparse takes --flag=value
    for _ in range(2):
        assert run_cli(capsys, "probe", "--n=3", "--alpha=1000")[0] == 0
    assert len(built) == 1


def test_help_follows_the_terminal_width(capsys, monkeypatch):
    texts = {}
    for columns in ("60", "150"):
        monkeypatch.setenv("COLUMNS", columns)
        code, texts[columns], _ = run_cli(capsys, "--help")
        assert code == 0
    usage = {columns: text.split("\n\n")[0] for columns, text in texts.items()}
    assert usage["60"].count("\n") > usage["150"].count("\n")
    assert all(len(line) <= 58 for line in usage["60"].splitlines())


def test_flags_may_precede_the_command(capsys):
    plain = run_cli(capsys, "probe", "--n", "3", "--alpha", "1000")
    assert plain[0] == 0
    assert run_cli(capsys, "probe", "--n=3", "--alpha=1000") == plain
    assert run_cli(capsys, "--n", "3", "--alpha", "1000", "probe") == plain


def test_direct_parse_knows_every_option_of_the_parser():
    options = [a for a in cli._build_parser()._actions if a.option_strings and a.dest != "help"]
    assert {a.option_strings[0]: (a.dest, a.type or str) for a in options} == cli._FLAGS
    assert [a.option_strings for a in options] == [[flag] for flag in cli._FLAGS]


_VALUES = ("3", "-3", "3.0", "nan", "1e400", "", "-", "x.json", " 3", "3_0", "--", "=3")
_ARGV_TOKENS = (*COMMANDS, "frobnicate", *cli._FLAGS, "--in", "--out", "--tol-r", "--tol",
                "--se", "--help", "-h", "--", "--n=3", "--alpha=10", *_VALUES)
_FLAG_PAIRS = st.tuples(
    st.sampled_from((*cli._FLAGS, "--in", "--tol-re", "--n=3", "-h", "--")),
    st.one_of(st.sampled_from(_VALUES), st.text(max_size=3)),
)


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.tuples(st.sampled_from(COMMANDS), st.lists(_FLAG_PAIRS, max_size=5)).map(
        lambda drawn: [drawn[0], *(token for pair in drawn[1] for token in pair)]),
    st.lists(st.sampled_from(_ARGV_TOKENS), max_size=7),
))
def test_direct_parse_agrees_with_argparse(argv):
    plain = cli._plain_args(argv)
    if plain is not None:  # repr, so that nan values compare equal
        assert repr(cli._build_parser().parse_args(argv)) == repr(plain)


def test_every_tolerance_flag_reaches_the_solver(golden_files, capsys):
    _, r_path = golden_files
    tols = {"tol_root": 1e-7, "tol_pair": 1e-5, "tol_resid": 1e-4}
    flags = [a for k, v in tols.items() for a in ("--" + k.replace("_", "-"), repr(v))]
    code, out, _ = run_cli(capsys, "solve", "--input", str(r_path), *flags)
    assert code == 0
    reported = json.loads(out)["tolerances"]
    assert {k: reported[k] for k in tols} == tols
    assert reported["tol_match"] == 1e-6  # reported for filter_by_constraint, not read


@pytest.mark.parametrize("values, argv", [
    ({"input": True}, ("solve",)),
    ({"input": 1}, ("solve",)),
    ({"input": 0}, ("solve",)),
    ({"output": 5}, ("probe", "--n", "3", "--alpha", "1000")),
    ({"tol_match": True}, ("probe", "--n", "3", "--alpha", "1000")),  # unknown key
    ({"tol_pair": True}, ("probe", "--n", "3", "--alpha", "1000")),
    ({"tol_root": "1e-6"}, ("probe", "--n", "3", "--alpha", "1000")),
    ({"alpha": True}, ("probe", "--n", "3")),
    ({"alpha": "1000"}, ("probe", "--n", "3")),
    ({"n": 2.5}, ("probe", "--alpha", "1000")),
    ({"n": float("inf")}, ("probe", "--alpha", "1000")),
    ({"alpha": 10**400}, ("probe", "--n", "3")),
    ({"seed": False}, ("census", "--n", "3")),
], ids=lambda p: json.dumps(p)[:24] if isinstance(p, dict) else p[0])
def test_config_values_are_type_checked(capsys, tmp_path, values, argv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert error_payload(err)["error"] == "ConfigError"


def run_module(*argv):
    """`python -m autophase2d argv`, importing this checkout's package."""
    env = {**os.environ, "PYTHONPATH": str(Path(autophase2d.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "autophase2d", *argv],
                          capture_output=True, text=True, env=env)


def assert_single_error_line(proc, kind, code=2):
    assert proc.returncode == code
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr  # no numpy warning before the payload
    assert json.loads(lines[0])["error"] == kind


def test_autocorr_overflow_is_one_error_line(tmp_path):
    path = tmp_path / "X.json"
    path.write_text(json.dumps({"n": 2, "rows": [[1e200, 1e200], [1e200, 1e200]]}))
    assert_single_error_line(run_module("autocorr", "--input", str(path)), "InputError")


def test_enumerate_overflowing_lag_sequence_is_one_error_line(tmp_path):
    # r(0) < 2 |r(1)|: both zeros of 1e308 + 1.5e308 z + 1e308 z^2 lie on the unit circle
    path = tmp_path / "r.json"
    path.write_text(json.dumps({"m": 2, "values": [1e308, 1.5e308, 1e308]}))
    assert_single_error_line(run_module("enumerate", "--input", str(path)), "UnitCircleZero", 1)


def test_enumerate_infinite_lags_of_opposite_signs_is_one_error_line(tmp_path):
    # the mirror gap inf is within 1e-8 * max |r| = inf, and the halved sum is nan
    path = tmp_path / "r.json"
    path.write_text('{"m": 2, "values": [Infinity, 2.5, -Infinity]}')
    proc = run_module("enumerate", "--input", str(path))
    assert_single_error_line(proc, "InputError")
    detail = json.loads(proc.stderr)["detail"]
    assert detail == "autocorrelation half must contain only finite values"


def read_in_text_mode(path):
    """The reading that _read_json replaces: text mode, whose universal newlines
    turn CRLF and CR into LF before the parser counts lines and columns."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("data", [
    b'{"m": 2, "values": [1, 2.5, 1]}\n',
    b'{"m": 2,\r\n "values": [1, 2.5, 1]}\r\n',
    b'{"m": 2,\r "values":\r\n\n[1, 2.5, 1]}',
    b'{"m": 2,\n "values": [1, 2.5 1]}\n',
    b'{"m": 2,\r\n "values": [1, 2.5 1]}\r\n',
    b'{"m": 2,\r "values": [1, 2.5 1]}\r',
    b'{"m": 2,\r\n "a\rb": 1}',
    b'{"m": 2, "values": [1, \xff]}',
    b'{"m": 2, "values": [1]} \xe2\x82',
    b'{"m": 2,\r\n "\xc3\xa9": [1, \x80]}',
    b'\xef\xbb\xbf{"m": 2, "values": [1, 2.5, 1]}',
    b'\xef\xbb\xbf\r\n{}',
    b"",
    b"[1, 2]",
], ids=["lf", "crlf", "cr-mixed", "syntax-lf", "syntax-crlf", "syntax-cr", "control-crlf",
        "invalid-utf8", "truncated-utf8", "invalid-utf8-crlf", "bom", "bom-crlf", "empty", "list"])
def test_input_is_read_as_text_mode_reads_it(tmp_path, data):
    path = tmp_path / "in.json"
    path.write_bytes(data)
    outcomes = []
    for read in (read_in_text_mode, cli._read_json):
        try:
            outcomes.append(read(str(path)))
        except ValueError as err:
            outcomes.append((type(err), str(err)))
    if isinstance(outcomes[0], list):  # _read_json goes on to refuse what is not an object
        assert outcomes[1] == (ValueError, f"{path}: expected a JSON object")
    else:
        assert outcomes[1] == outcomes[0]


def test_enumerate_answers_a_sequence_in_the_top_octave(tmp_path):
    # lags above half the float maximum: the autocorrelation of x below
    x = [1.0664089892376663e154, 0.0, 7.5018122322082854e153]
    path = tmp_path / "r.json"
    path.write_text(json.dumps({"m": 3, "values": [8e307, 0, 1.7e308, 0, 8e307]}))
    proc = run_module("enumerate", "--input", str(path))
    assert proc.returncode == 0
    assert proc.stderr == ""
    [candidate] = json.loads(proc.stdout)["candidates"]
    assert candidate["values"] == pytest.approx(x, rel=1e-12, abs=0)


def test_census_of_a_sequence_in_the_top_octave_is_the_unscaled_csv(capsys, tmp_path):
    r = 2.0 * np.array(GOLDEN_R1D)  # 4^k r reaches above half the float maximum
    k = (np.finfo(float).maxexp - np.frexp(np.abs(r).max())[1]) // 2
    top = np.ldexp(r, 2 * k)
    assert np.abs(top).max() > np.finfo(float).max / 2
    outputs = []
    for values in (r, top):
        path = tmp_path / "r.json"
        path.write_text(dumps({"m": 4, "values": values}) + "\n")
        outputs.append(run_cli(capsys, "census", "--n", "2", "--input", str(path)))
    assert outputs[0][0] == 0
    assert outputs[1] == outputs[0]


# Lag grids near the float range: the symmetry check's subtraction and the reduction's
# sum overflow on the way to the refusal. The last grid reduces to the lags of
# -1e308 (z^6 + 1) + 1e308 (z^4 + z^2) + z^3, which has zeros on the unit circle.
@pytest.mark.parametrize("command,values,kind,code", [
    ("solve", [[1e308, 0, -1e308], [0, 1, 0], [1e308, 0, -1e308]], "AsymmetricInput", 1),
    ("reduce", [[1e308, 0, -1e308], [0, 1, 0], [1e308, 0, -1e308]], "AsymmetricInput", 1),
    ("solve", [[0, 0, 1e308], [1e308, 1, 1e308], [1e308, 0, 0]], "InputError", 2),
    ("reduce", [[0, 0, 1e308], [1e308, 1, 1e308], [1e308, 0, 0]], "InputError", 2),
    ("solve", [[-1e308, 0, 1e308], [0, 1, 0], [1e308, 0, -1e308]], "UnitCircleZero", 1),
], ids=["solve-asymmetry", "reduce-asymmetry", "solve-sum", "reduce-sum", "solve-unit-circle"])
def test_lag_grid_near_the_float_range_is_one_error_line(tmp_path, command, values, kind, code):
    path = tmp_path / "R.json"
    path.write_text(json.dumps({"n": 2, "values": values}))
    assert_single_error_line(run_module(command, "--input", str(path)), kind, code)


def test_oracle_refuses_inexact_lag_values(tmp_path):
    path = tmp_path / "R.json"
    path.write_text(json.dumps({"n": 2, "values": [[1e308] * 3] * 3}))
    assert_single_error_line(run_module("oracle", "--input", str(path), "--bound", "1"),
                             "InputError")


def test_enumerate_prints_the_same_bytes_in_fresh_processes(tmp_path):
    path = tmp_path / "r4.json"
    path.write_text(dumps(SEQ4.to_dict()) + "\n")
    first, second = (run_module("enumerate", "--input", str(path)) for _ in range(2))
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "autophase2d", "probe", "--n", "2", "--alpha", "1000"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["predicted"] == 1
