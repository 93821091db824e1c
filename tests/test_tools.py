"""The scripts under tools/ run against this tree and report what they claim."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def run_tool(name, *args):
    return subprocess.run([sys.executable, str(ROOT / "tools" / name), *args],
                          capture_output=True, text=True, timeout=300)


def test_compare_outputs_passes_a_tree_against_itself():
    done = run_tool("compare_outputs.py", str(SRC), str(SRC))
    assert done.returncode == 0, done.stderr
    *digests, summary = done.stdout.splitlines()
    assert summary == f"{len(digests)} records identical"
    assert len(digests) >= 400
    names = [line.split("  ", 1)[1] for line in digests]
    assert len(set(names)) == len(digests)  # names are unique
    malformed = [name.split()[-1] for name in names if name.startswith("malformed ")]
    assert {"solve", "enumerate", "census"} <= set(malformed) and len(malformed) >= 100
    # the magnitude front end: lags and solve of 4 sizes x 2 grid sizes x 4 seeds, and a refusal
    magnitudes = [name for name in names if name.startswith("magnitudes ")]
    assert len(magnitudes) == 65 and "magnitudes tampered grid" in magnitudes
    assert "magnitudes lags gauss-n5-s50003 m10" in magnitudes


def test_compare_outputs_names_the_first_record_that_differs(tmp_path):
    changed = tmp_path / "src"
    shutil.copytree(SRC, changed, ignore=shutil.ignore_patterns("__pycache__"))
    solver = changed / "autophase2d" / "solver.py"
    text = solver.read_text(encoding="utf-8")
    assert "DEFAULT_TOL_MATCH = 1e-6\n" in text
    solver.write_text(text.replace("DEFAULT_TOL_MATCH = 1e-6\n", "DEFAULT_TOL_MATCH = 2e-6\n"),
                      encoding="utf-8")
    done = run_tool("compare_outputs.py", str(SRC), str(changed))
    assert done.returncode == 1, done.stderr
    named = [line for line in done.stdout.splitlines() if line.startswith("record ")]
    assert named[0].startswith("record 'gauss-n2-s20000 solve' differs: ")
    assert len(named) > 1  # every solve report lists tol_match


def compare_outputs_with(monkeypatch, old, new):
    """The tool's module, comparing the records `old` (tree "old") with `new`."""
    spec = importlib.util.spec_from_file_location("compare_outputs",
                                                  ROOT / "tools" / "compare_outputs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(tool, "records", lambda src: old if src.name == "old" else new)
    return tool


OLD_RECORDS = [(f"record-{k}", f"{k:016x}") for k in range(5)]


def test_compare_outputs_names_every_record_that_differs(monkeypatch, capsys):
    old = OLD_RECORDS
    new = [old[0], ("record-1", "a" * 16), *old[2:4], ("record-4", "b" * 16)]
    tool = compare_outputs_with(monkeypatch, old, new)
    assert tool.main(["old", "new"]) == 1
    assert capsys.readouterr().out.splitlines()[5:] == [
        "record 'record-1' differs: 0000000000000001 -> aaaaaaaaaaaaaaaa",
        "record 'record-4' differs: 0000000000000004 -> bbbbbbbbbbbbbbbb",
    ]
    assert tool.main(["old", "old"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "5 records identical"


def test_compare_outputs_pairs_records_by_name(monkeypatch, capsys):
    # a record inserted mid-corpus is one added record, not a shift of every later one
    old = OLD_RECORDS
    new = [*old[:2], ("inserted", "c" * 16), old[2], *old[4:]]
    tool = compare_outputs_with(monkeypatch, old, new)
    assert tool.main(["old", "new"]) == 1
    assert capsys.readouterr().out.splitlines()[5:] == [
        "record 'inserted' added: cccccccccccccccc",
        "record 'record-3' removed: 0000000000000003",
    ]
    tool = compare_outputs_with(monkeypatch, old, [old[3], *old[:3], old[4]])
    assert tool.main(["old", "new"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "5 records identical"


def test_regime_timing_reports_identical_solves():
    done = run_tool("regime_timing.py", "--n", "3", "--seeds", "100", "--rounds", "2")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "reports identical: True"


def test_regime_timing_writer_reports_identical_texts():
    done = run_tool("regime_timing.py", "--writer", "--cells", "64-128", "--rounds", "2")
    assert done.returncode == 0, done.stderr
    _, header, *rows, verdict = done.stdout.splitlines()
    assert header.split() == ["table", "template", "faults", "kernel", "faults"]
    assert [row.split()[:2] for row in rows] == [["candidates", "57"], ["census", "63"],
                                                 ["candidates", "114"], ["census", "126"]]
    for row in rows:  # time and minor page faults a write, for each writer
        template, template_faults, kernel, kernel_faults = map(float, row.split()[2:6])
        assert min(template, kernel) > 0 and min(template_faults, kernel_faults) >= 0
    assert verdict == "texts identical: True"


def test_regime_timing_times_both_ways_of_the_front_end():
    done = run_tool("regime_timing.py", "--front-end", "--rounds", "2")
    assert done.returncode == 0, done.stderr
    title, header, *rows, faster, slower, cap, agree = done.stdout.splitlines()
    assert title.startswith("32 sizes, 2 rounds")
    assert header.split() == ["n", "m", "entries", "operator", "product"]
    sizes = [tuple(map(int, row.split()[:3])) for row in rows]
    assert sizes == [(n, m, ((2 * n - 1) ** 2 + m * m) * m * m)
                     for n in range(2, 10) for m in range(2 * n - 1, 2 * n + 3)]
    for row in rows:
        assert min(map(float, row.split()[3:5])) > 0 and row.endswith("%)")
    assert faster.startswith("largest operator faster: ")  # n = 2 is far below the cap
    assert slower.startswith("smallest operator not faster: ")  # n = 9 runs far past the cap
    assert cap == "cap: LAG_OPERATOR_ENTRIES = 32768"
    assert agree.startswith("largest difference over max|R|: ")
    assert float(agree.split(": ")[1]) <= 1e-12


def test_regime_timing_against_a_tree_reports_identical_solves():
    done = run_tool("regime_timing.py", "--against", str(SRC), "--seeds", "100", "--rounds", "2")
    assert done.returncode == 0, done.stderr
    title, *sizes, wins, verdict = done.stdout.splitlines()
    assert title.startswith("8 inputs, 2 rounds")
    assert [line.split(":")[0] for line in sizes] == ["n = 3", "n = 4", "pool"]
    ratios = []
    for line in sizes:  # the ratio in each tree and the change for this one
        _, rest = line.split(": against ")
        old, new = float(rest.split(",")[0]), float(rest.split("this tree ")[1].split()[0])
        assert min(old, new) > 0
        assert line.endswith("%)")
        ratios.append((old, new))
    # the pool holds as many n = 3 inputs as n = 4 ones, so its mean is theirs
    for tree in (0, 1):
        assert abs(ratios[2][tree] - (ratios[0][tree] + ratios[1][tree]) / 2) <= 1.5e-4  # rounding
    # the pair rule: in how many rounds this tree's pool mean was the lower
    assert wins in [f"this tree lower in {k} of 2 rounds" for k in range(3)]
    assert verdict == "reports identical: True"


def test_regime_timing_against_a_tree_times_the_cli_commands():
    done = run_tool("regime_timing.py", "--against", str(SRC), "--cli", "--seeds", "100",
                    "--rounds", "2")
    assert done.returncode == 0, done.stderr
    title, *lines, wins, verdict = done.stdout.splitlines()
    assert title.startswith("4 inputs, 2 rounds")
    assert [line.split(":")[0] for line in lines] == ["solve", "enumerate", "census", "instance"]
    ratios = []
    for line in lines:  # the ratio in each tree and the change for this one
        _, rest = line.split(": against ")
        old, new = float(rest.split(",")[0]), float(rest.split("this tree ")[1].split()[0])
        assert min(old, new) > 0
        assert line.endswith("%)")
        ratios.append((old, new))
    # an input's instance ratio is the sum of its commands' medians, so the pool's
    # mean of it is the sum of the commands' pool means
    for tree in (0, 1):
        assert abs(ratios[3][tree] - sum(r[tree] for r in ratios[:3])) <= 2e-4  # rounding
    assert wins in [f"this tree lower in {k} of 2 rounds" for k in range(3)]
    assert verdict == "outputs identical: True"


def test_regime_timing_counts_the_rounds_this_tree_was_lower(capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script puts perfbench/ on it
    spec = importlib.util.spec_from_file_location("regime_timing",
                                                  ROOT / "tools" / "regime_timing.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    trees = {"against": None, "this tree": None}
    # two inputs, two ops, three rounds: pool means 4, 4, 4 against 3, 4.5, 4 (a tie is no win)
    ratios = {"against": [{"a": [1, 1, 1], "b": [2, 2, 2]}, {"a": [3, 3, 3], "b": [2, 2, 2]}],
              "this tree": [{"a": [1, 2, 1], "b": [1, 1, 2]}, {"a": [2, 3, 3], "b": [2, 3, 2]}]}
    tool.print_rounds_lower(trees, ratios, range(2), ["a", "b"], 3)
    assert capsys.readouterr().out == "this tree lower in 1 of 3 rounds\n"
    tool.print_rounds_lower(trees, ratios, [1], ["a"], 3)  # input 1, op a: 3 3 3 against 2 3 3
    assert capsys.readouterr().out == "this tree lower in 1 of 3 rounds\n"
    tool.print_rounds_lower(trees, ratios, [0], ["b"], 3)  # input 0, op b: 2 2 2 against 1 1 2
    assert capsys.readouterr().out == "this tree lower in 2 of 3 rounds\n"
