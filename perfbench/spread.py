"""Repeat the benchmark over seeds and report each metric's run-to-run spread.

    python3 perfbench/spread.py --workload mem-n6 --seeds 1-10 [--trace 0] [--out FILE]

Runs `perfbench/run.py` once per seed, one run at a time, and prints for
every metric its median over the runs and the distance between the first
and third quartile (`statistics.quantiles(values, n=4)`) as a share of that
median, next to the metric's bound in BENCHMARK.json. With --out the
per-run results, headers and reports go to FILE as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(runs: list, bounds: dict) -> dict:
    summary = {}
    for name in runs[0]["result"]["metrics"]:
        values = [run["result"]["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [median] * 3
        summary[name] = {
            "unit": runs[0]["result"]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else None,
            "bound": bounds.get(name),
        }
    return summary


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="a range 1-10 or a list 1,2,3")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="write runs and summary to this JSON file")
    args = p.parse_args()

    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    runs = []
    for seed in seed_list(args.seeds):
        argv = [sys.executable, "perfbench/run.py", "--workload", args.workload,
                "--seed", str(seed), "--seconds", str(contract["run_seconds"]),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S, check=True)
        lines = proc.stdout.strip().splitlines()
        run = {"seed": seed, **json.loads(lines[0]), **json.loads(lines[1]),
               "result": json.loads(lines[-1])}
        runs.append(run)
        values = {k: round(v["value"], 4) for k, v in run["result"]["metrics"].items()}
        print(f"seed {seed}: correct={run['result']['correct']} "
              f"attempted={run['result']['attempted']} failed={run['result']['failed']} "
              f"{values}", flush=True)

    summary = summarize(runs, bounds)
    for name, s in summary.items():
        spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
        print(f"{name:40s} median {s['median']:.6g} {s['unit']:6s} spread {spread}"
              f"  bound {s['bound']}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "trace": args.trace, "summary": summary, "runs": runs},
            indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
