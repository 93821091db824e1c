"""Set-up and the pieces both the untraced and the traced run use."""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import os
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from workloads import TINY, WARMUP_INDEX, WORKLOADS, equivalent
from workloads import make_instance, write_cli_inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"
CHILD_TIMEOUT_S = 120

# glibc's malloc raises its mmap threshold as large blocks are freed, up to
# 32 MB, and blocks under the threshold come from a heap that keeps its free
# space. An n=6 instance then peaked at either about 326 or about 362 MB RSS,
# differing between runs of the same inputs. Setting the threshold fixes it:
# every block of 1 MiB or more is then a mapping of its own, returned when
# freed, and the peak RSS follows the memory the solve holds.
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_BYTES = 1 << 20
try:
    MALLOPT = ctypes.CDLL(None).mallopt
except (OSError, AttributeError):  # not glibc: the allocator is left as it is
    MALLOPT = None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_child(argv: list) -> subprocess.CompletedProcess:
    """`python -m autophase2d <argv>` from the checkout's source, output captured."""
    return subprocess.run(
        [sys.executable, "-m", "autophase2d", *argv],
        capture_output=True, env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S,
    )


def run_in_process(cli_main, argv: list) -> subprocess.CompletedProcess:
    """`cli.main(argv)` in this process, its stdout and stderr captured as bytes.

    An exception out of `main` is a broken contract, reported as exit code -1.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except Exception:  # counted as a wrong output; the loop goes on
            traceback.print_exc()
            code = -1
    return subprocess.CompletedProcess(argv, code, out.getvalue().encode(), err.getvalue().encode())


class Reference:
    """A fixed computation that does not use the package, run after each operation.

    Polynomial roots, a Python loop, an FFT, a JSON dump and a fresh 1 MiB
    array, the kinds of work a solve does. The host's speed drifts by tens of
    percent over seconds to minutes, and moves this computation's time with
    the operation's just before it: their ratio follows the program.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.poly = rng.standard_normal(31)
        self.values = rng.standard_normal(500).tolist()
        self.grid = rng.standard_normal((64, 64))

    def run(self) -> float:
        t0 = time.perf_counter()
        np.roots(self.poly)
        total = 0.0
        for v in self.values:
            total += v * v
        np.fft.fft2(self.grid)
        json.dumps(self.values)
        np.ones(1 << 17)
        return time.perf_counter() - t0


def import_package():
    sys.path.insert(0, str(SRC))
    import autophase2d

    if Path(autophase2d.__file__).resolve().parent != SRC / "autophase2d":
        raise RuntimeError(f"autophase2d imported from {autophase2d.__file__}, not {SRC}")
    return autophase2d


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Bench:
    """Set-up of one workload process: the package, the input pool and a warm-up solve."""

    def __init__(self, args):
        if MALLOPT is not None:
            MALLOPT(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
        self.args = args
        self.workload = (TINY if args.tiny else WORKLOADS)[args.workload]
        self.ap = import_package()
        if self.workload.cli:
            from autophase2d.cli import main as cli_main

            self.cli_main = cli_main
        self.workdir = WORK_DIR / str(os.getpid())
        self.pool = [make_instance(self.workload, args.seed, i)
                     for i in range(len(self.workload.pool))]
        if self.workload.cli:
            self.workdir.mkdir(parents=True, exist_ok=True)
            for inst in self.pool:
                write_cli_inputs(inst, self.workdir)
        self.warmup()

    def warmup(self) -> None:
        inst = make_instance(self.workload, self.args.seed, WARMUP_INDEX)
        if self.workload.cli:
            write_cli_inputs(inst, self.workdir)
            run_child(["solve", "--input", str(inst.grid_path)]).check_returncode()
        else:
            self.ap.solve_2d(self.ap.measurements_to_autocorr_2d(
                self.ap.MagnitudeGrid(2 * inst.n, inst.n, inst.Y)))

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def solve_library(ap, inst) -> tuple:
    """Untraced solve: (seconds, seconds in solve_2d, report, exception).

    The timed region runs from the squared magnitudes to the report.
    """
    t0 = time.perf_counter()
    t1 = t0
    try:
        R = ap.measurements_to_autocorr_2d(ap.MagnitudeGrid(2 * inst.n, inst.n, inst.Y))
        t1 = time.perf_counter()
        report, err = ap.solve_2d(R), None
    except Exception as caught:  # every failure is counted and the loop goes on
        report, err = None, caught
    t2 = time.perf_counter()
    return t2 - t0, t2 - t1, report, err


def check_library(ap, inst, report, err) -> tuple:
    """(failures as (kind, wrong output?) pairs, candidates) of one library solve.

    Typed errors and reported ambiguity are loud failures; an untyped error or
    a unique answer that is not the planted signal is a wrong output.
    """
    if err is not None:
        typed = isinstance(err, ap.AutophaseError)
        if not typed:
            traceback.print_exception(err, file=sys.stderr)
        report = getattr(err, "report", None)
        candidates = None if report is None else report.candidates_total
        return [(type(err).__name__, not typed)], candidates
    if len(report.matches) > 1:
        return [("multiple_matches", False)], report.candidates_total
    if not equivalent(inst.X, report.solution.values):
        return [("silent_wrong", True)], report.candidates_total
    return [], report.candidates_total


class Failures:
    """Failed operations, one record per input and kind with its count."""

    def __init__(self, workload: str):
        self.workload = workload
        self.records = {}
        self.failed = 0  # operations with at least one failure

    def add(self, inst, outcome: list) -> None:
        if outcome:
            self.failed += 1
        for kind, wrong in outcome:
            key = (inst.index, kind)
            if key not in self.records:
                self.records[key] = {"workload": self.workload, "index": inst.index,
                                     "n": inst.n, "u": inst.u, "kind": kind,
                                     "wrong_output": wrong, "count": 0}
            self.records[key]["count"] += 1

    def wrong_output(self) -> bool:
        return any(r["wrong_output"] for r in self.records.values())

    def count(self, kind: str) -> int:
        return sum(r["count"] for r in self.records.values() if r["kind"] == kind)

    def as_list(self) -> list:
        return list(self.records.values())
