"""Benchmark of the autophase2d solve pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload small-n34 --seed 1 --seconds 40 --trace 0

Each workload is a single-process closed loop over a small pool of inputs,
round after round, for --seconds seconds of wall time, so that every input
is timed many times. The library workloads time the front end and
`solve_2d`; `cli-n4` times `autophase2d.cli.main` in this process, and
runs each command once more as a `python -m autophase2d` child after the
loop. A fixed reference computation runs after every operation (see
`harness.Reference`). Every output is checked against its planted signal,
and failures are counted, not fatal.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of BENCHMARK.json
with --trace 0, or its per-layer metrics with --trace 1 (see traced.py).
The two lines before it hold a header describing the machine, and a report
with every metric of the workload, the sample counts, the histograms of flip
units and candidates, and the detail of every failure. The whole record,
with every operation's times or the traced run's spans, is also written to
.perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from harness import CHILD_TIMEOUT_S, MALLOPT, MMAP_THRESHOLD_BYTES, OUT_DIR, ROOT, SRC
from harness import Bench, Failures, Reference, check_library, metric, run_child
from harness import run_in_process, solve_library
from workloads import WORKLOADS, contains_equivalent, equivalent

# Set-up probes per run: one before the timed loop, SETUP_PROBES - 2 at evenly
# spaced points of it, and one after it.
SETUP_PROBES = 13
CLI_COMMANDS = ("solve", "enumerate", "census")
# A percentile is reported only when at least this many samples lie beyond it.
TAIL_SAMPLES = 10
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def header(args, inputs: int, attempted: int) -> dict:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = models[0] if models else ""
    except OSError:
        cpu = ""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "inputs": inputs,
        "operations": attempted,
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "malloc_mmap_threshold": None if MALLOPT is None else MMAP_THRESHOLD_BYTES,
    }


def percentile_metrics(prefix: str, seconds: list, report: dict, omitted: dict,
                       tail: bool = True) -> None:
    """p50 and, when asked for and enough samples lie beyond it, p90 of durations."""
    ms = [1000.0 * s for s in seconds]
    report[f"{prefix}_p50"] = metric(statistics.median(ms), "ms")
    if not tail:
        return
    if len(ms) * 0.1 >= TAIL_SAMPLES:
        report[f"{prefix}_p90"] = metric(float(np.percentile(ms, 90)), "ms")
    else:
        omitted[f"{prefix}_p90"] = f"{len(ms)} samples; p90 needs {10 * TAIL_SAMPLES}"


def error_kind(proc: subprocess.CompletedProcess) -> tuple:
    """(kind, wrong output?) of a failed child.

    A typed domain error exits 1 with a one-line JSON payload on stderr; any
    other exit is a broken contract.
    """
    try:
        name = json.loads(proc.stderr.decode().strip().splitlines()[-1])["error"]
    except (ValueError, IndexError, KeyError, TypeError):
        name = None
    if proc.returncode == 1 and name:
        return name, False
    return f"exit_{proc.returncode}" + (f"_{name}" if name else ""), True


def check_cli(inst, out: dict, first: dict) -> tuple:
    """(failures of each command as (kind, wrong output?) pairs, candidates).

    `first` holds each command's first result on this input. A later run
    must repeat its stdout byte for byte, and then shares its verdict.
    """
    if "verdict" in first:
        verdict, candidates = first["verdict"]
        failures = {cmd: list(verdict[cmd]) if out[cmd].stdout == first[cmd] else
                    [(f"nondeterministic_{cmd}", True)] for cmd in CLI_COMMANDS}
        return failures, candidates
    failures = {cmd: [] for cmd in CLI_COMMANDS}
    candidates = None
    for cmd, proc in out.items():
        first[cmd] = proc.stdout
        if proc.returncode != 0:
            failures[cmd].append(error_kind(proc))
    solve, enum, census = out["solve"], out["enumerate"], out["census"]
    if solve.returncode == 0:
        report = json.loads(solve.stdout)
        if len(report["matches"]) > 1:
            failures["solve"].append(("multiple_matches", False))
        elif not equivalent(inst.X, report["solution"]["rows"]):
            failures["solve"].append(("silent_wrong", True))
    if enum.returncode == 0:
        payload = json.loads(enum.stdout)
        candidates = payload["candidates_total"]
        if candidates != len(payload["candidates"]):
            failures["enumerate"].append(("enumerate_count_mismatch", True))
        rows = np.array([c["values"] for c in payload["candidates"]])
        if not contains_equivalent(rows, inst.X.reshape(-1)):
            failures["enumerate"].append(("enumerate_missing_planted", True))
    if census.returncode == 0 and candidates is not None:
        if census.stdout.decode().count("\n") - 1 != candidates:
            failures["census"].append(("census_rows_mismatch", True))
    first["verdict"] = (failures, candidates)
    return failures, candidates


def cli_argv(inst, cmd: str) -> list:
    path = inst.grid_path if cmd == "solve" else inst.seq_path
    return [cmd, "--input", str(path)] + (["--n", str(inst.n)] if cmd == "census" else [])


def cli_instance(cli_main, inst, ref: Reference) -> tuple:
    """solve, enumerate and census of one input through the CLI's `main`, in this
    process, each followed by the reference: (seconds and reference seconds per
    command, results)."""
    times, out = {}, {}
    for cmd in CLI_COMMANDS:
        t0 = time.perf_counter()
        out[cmd] = run_in_process(cli_main, cli_argv(inst, cmd))
        times[cmd] = (time.perf_counter() - t0, ref.run())
    return times, out


def cli_children(bench: Bench, first_stdout: dict, failures: Failures) -> dict:
    """Each command once more per input as a `python -m autophase2d` child, which
    must exit 0 with the same stdout as in-process; returns their seconds."""
    seconds = {cmd: [] for cmd in CLI_COMMANDS}
    for inst in bench.pool:
        for cmd in CLI_COMMANDS:
            t0 = time.perf_counter()
            proc = run_child(cli_argv(inst, cmd))
            seconds[cmd].append(time.perf_counter() - t0)
            if proc.returncode != 0:
                outcome = [error_kind(proc)]
            elif proc.stdout != first_stdout[inst.index].get(cmd):
                outcome = [(f"child_differs_{cmd}", True)]
            else:
                outcome = []
            failures.add(inst, outcome)
    return seconds


def library_instance(ap, inst) -> tuple:
    """(seconds, failures, candidates) of one solve; the report is dropped on return
    so that it does not stay alive, and in the peak RSS, during the next solve."""
    dt, _, report, err = solve_library(ap, inst)
    outcome, candidates = check_library(ap, inst, report, err)
    return dt, outcome, candidates


def timed_loop(bench: Bench, probes: SetupProbes) -> dict:
    """Closed loop over the input pool, round after round, for --seconds.

    Every input is timed many times, at points spread over the run, and each
    operation is followed by a run of the reference. The set-up probes run
    between instances, on a clock that stops meanwhile.
    """
    cmds = CLI_COMMANDS if bench.workload.cli else ("solve",)
    # (seconds, reference seconds) of each run of each input and command
    samples = {(inst.index, cmd): [] for inst in bench.pool for cmd in cmds}
    failures = Failures(bench.args.workload)
    ref = Reference()
    candidates = {}
    first_stdout = {inst.index: {} for inst in bench.pool}
    probes.run()
    start = time.perf_counter()
    paused = 0.0
    while time.perf_counter() - start - paused < bench.args.seconds:
        for inst in bench.pool:
            if bench.workload.cli:
                times, out = cli_instance(bench.cli_main, inst, ref)
                outcome, cands = check_cli(inst, out, first_stdout[inst.index])
            else:
                dt, solve_outcome, cands = library_instance(bench.ap, inst)
                times, outcome = {"solve": (dt, ref.run())}, {"solve": solve_outcome}
            for cmd in cmds:
                samples[(inst.index, cmd)].append(times[cmd])
                failures.add(inst, outcome[cmd])
            candidates.setdefault(inst.index, cands)
            paused += probes.due(time.perf_counter() - start - paused)
            if time.perf_counter() - start - paused >= bench.args.seconds:
                break
    probes.run()
    children = cli_children(bench, first_stdout, failures) if bench.workload.cli else {}
    return {"cmds": cmds, "samples": samples, "failures": failures,
            "candidates": candidates, "children": children}


class SetupProbes:
    """Fresh processes that only import, generate inputs and warm up, timed.

    They are spread over the run, so that their median sees the same host
    states as the timed loop rather than the one state that holds at its end.
    """

    def __init__(self, args):
        self.argv = [sys.executable, str(Path(__file__).resolve()), "--workload",
                     args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
                     "--setup-only"] + (["--tiny"] if args.tiny else [])
        self.interval = args.seconds / (SETUP_PROBES - 1)
        self.next_at = self.interval
        self.samples = []

    def run(self) -> float:
        t0 = time.perf_counter()
        proc = subprocess.run(self.argv, capture_output=True, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        seconds = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.decode()[-2000:]}")
        self.samples.append(seconds)
        return seconds

    def due(self, elapsed: float) -> float:
        """Runs a probe for each point the loop has passed; returns their seconds.

        Where an instance spans several points, as on mem-n6, their probes
        run together after it.
        """
        seconds = 0.0
        while self.next_at <= elapsed and len(self.samples) < SETUP_PROBES - 1:
            seconds += self.run()
            self.next_at += self.interval
        return seconds


def best(runs: list) -> float:
    return 1000.0 * min(seconds for seconds, _ in runs)


def p50(runs: list) -> float:
    return 1000.0 * statistics.median(seconds for seconds, _ in runs)


def ref_ratio(runs: list) -> float:
    """Median over the runs of the operation's time over the reference's after it.

    The host's speed drifts: the same solve took 4 ms for seconds at a time
    and 7 ms for seconds at a time. The reference right after an operation
    runs on the same host, so their ratio follows the program.
    """
    return statistics.median(seconds / reference for seconds, reference in runs)


def per_input(samples: dict, cmds: tuple, pool: list, stat) -> float:
    """Mean over the pool of each input's `stat` of its runs, summed over `cmds`."""
    return statistics.fmean(sum(stat(samples[(inst.index, cmd)]) for cmd in cmds)
                            for inst in pool)


def untraced_run(args) -> tuple:
    bench = Bench(args)
    probes = SetupProbes(args)
    try:
        loop = timed_loop(bench, probes)
    finally:
        bench.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples, cmds, failures, pool = loop["samples"], loop["cmds"], loop["failures"], bench.pool
    solve_s = [s for (_, cmd), runs in samples.items() if cmd == "solve" for s, _ in runs]
    reference_s = [r for runs in samples.values() for _, r in runs]
    attempted = sum(len(runs) for runs in samples.values())
    attempted += sum(len(runs) for runs in loop["children"].values())

    report, omitted = {}, {}
    report["setup_s"] = metric(statistics.median(probes.samples), "s")
    report["instance_ref_ratio"] = metric(per_input(samples, cmds, pool, ref_ratio), "ratio")
    report["instance_ms_p50"] = metric(per_input(samples, cmds, pool, p50), "ms")
    report["instance_best_ms"] = metric(per_input(samples, cmds, pool, best), "ms")
    report["reference_ms_p50"] = metric(1000.0 * statistics.median(reference_s), "ms")
    percentile_metrics("solve_ms", solve_s, report, omitted)
    report["solves_per_s"] = metric(len(solve_s) / sum(solve_s), "1/s")
    report["peak_rss_mb"] = metric(peak_rss_mb, "MB")
    report["fail_rate"] = metric(failures.failed / attempted, "ratio")
    report["silent_wrong"] = metric(failures.count("silent_wrong"), "count")
    for cmd, seconds in loop["children"].items():
        runs = [s for (_, c), r in samples.items() if c == cmd for s, _ in r]
        percentile_metrics(f"cli_{cmd}_ms", runs, report, omitted, tail=cmd == "solve")
        report[f"cli_{cmd}_ref_ratio"] = metric(per_input(samples, (cmd,), pool, ref_ratio),
                                                "ratio")
        report[f"cli_{cmd}_child_ms"] = metric(1000.0 * statistics.median(seconds), "ms")

    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    result = {
        "correct": not failures.wrong_output(),
        "attempted": attempted,
        "failed": failures.failed,
        "metrics": {m["name"]: report[m["name"]] for m in contract["end_to_end"]},
    }
    record = {
        "report": report,
        "omitted": omitted,
        "samples": {"operations": attempted, "inputs": len(pool),
                    "runs_per_input": [len(samples[(inst.index, cmds[0])]) for inst in pool],
                    "ref_ratio_per_input": [per_input(samples, cmds, [inst], ref_ratio)
                                            for inst in pool],
                    "setup_probes": probes.samples},
        **histograms(pool, loop["candidates"]),
        "failures": failures.as_list(),
        "operations": [[index, cmd, runs] for (index, cmd), runs in samples.items()],
    }
    return result, record


def histograms(pool: list, candidates: dict) -> dict:
    u_hist, cand_hist = Counter(inst.u for inst in pool), Counter(candidates.values())
    return {
        "u_histogram": {str(k): v for k, v in sorted(u_hist.items())},
        "candidates_histogram": {str(k): v for k, v in sorted(
            cand_hist.items(), key=lambda kv: (kv[0] is None, kv[0] or 0))},
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="run every workload at n=3 (smoke test)")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "autophase2d" / "__init__.py").is_file():
        sys.stderr.write(f"error: no package source at {SRC / 'autophase2d'}\n")
        return 2
    if args.setup_only:
        Bench(args).close()
        return 0
    if args.trace:
        from traced import traced_run

        result, record = traced_run(args, Bench(args))
    else:
        result, record = untraced_run(args)
    record = {"header": header(args, record["samples"]["inputs"], result["attempted"]),
              **record, "result": result}
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}.json"
    (OUT_DIR / name).write_text(json.dumps(record), encoding="utf-8")
    print(json.dumps({"header": record["header"]}))
    print(json.dumps({k: v for k, v in record.items()
                      if k not in ("header", "result", "spans", "operations")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
