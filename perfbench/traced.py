"""Traced run: per-layer times and counts, measured from outside each layer.

The inputs are the untraced run's pool, solved round after round. Every
call into a layer's public function gets one span (name, start, end, parent
span, instance id). For each input, in order:

1. the untraced solve of the untraced run, with one more timestamp between
   the front end and `solve_2d`;
2. the pipeline one public function at a time, from the squared magnitudes
   and from loading the lag grid as the CLI does, to serializing the report.

`enumerate_candidates` repeats `associated_polynomial`, `find_zero_pairs` and
`group_flip_units` internally, so its self time is its span minus those
spans of step 2. A stage's time is, like the untraced `instance_best_ms`,
the mean over the pool of each input's fastest run. A last pass runs
`enumerate_candidates` under tracemalloc on its own, since tracing
allocations slows enumeration about 2.7 times.

The tracing overhead is what the spans of one instance cost: the time of an
empty span, measured over many, times the number of spans an instance opens.

The spans stay in memory and go to .perfbench_out/ when the run ends.
"""

from __future__ import annotations

import importlib
import json
import math
import statistics
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager

from harness import CHILD_TIMEOUT_S, ROOT, Failures, check_library, child_env, metric
from harness import solve_library

# Error classes the solve path can raise on these inputs; anything else is "other".
ERROR_CLASSES = (
    "NotAnAutocorrelation", "AsymmetricInput", "ZeroEndpoint", "RootFindingFailed",
    "UnitCircleZero", "UnpairedComplexZero", "NonRealCoefficients", "ResidualExceeded",
    "NoMatch",
)
STARTUP_PROBES = 3
COMPLEX_BYTES = 16
# The cost of an empty span is the median over this many batches of this many.
SPAN_COST_BATCHES = 5
SPAN_COST_BATCH = 4000
# The tracemalloc pass stops early once it has used this share of --seconds.
ALLOC_PASS_SHARE = 0.1


class Tracer:
    """Spans kept in memory; `instance` tags every span opened while it is set."""

    def __init__(self):
        self.spans = []
        self.instance = None
        self._open = []

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name, "instance": self.instance,
                  "parent": self._open[-1] if self._open else None}
        self.spans.append(record)
        self._open.append(record["id"])
        record["start_ns"] = time.perf_counter_ns()
        try:
            yield record
        except BaseException as err:
            record["error"] = type(err).__name__
            raise
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._open.pop()


def seconds_of(record: dict) -> float:
    return (record["end_ns"] - record["start_ns"]) * 1e-9


def span_cost_ns() -> float:
    """Wall time of one empty span, in a tracer of its own."""
    batches = []
    for _ in range(SPAN_COST_BATCHES):
        tr = Tracer()
        t0 = time.perf_counter_ns()
        for _ in range(SPAN_COST_BATCH):
            with tr.span("empty"):
                pass
        batches.append((time.perf_counter_ns() - t0) / SPAN_COST_BATCH)
    return statistics.median(batches)


def traced_instance(ap, jsonio, tr: Tracer, inst, op: int) -> dict:
    """Steps 1 and 2 for run `op` of one input; returns its per-stage seconds and counts."""
    n = inst.n
    untraced, solve_2d_s, report, err = solve_library(ap, inst)
    outcome, _ = check_library(ap, inst, report, err)
    row = {"index": inst.index, "outcome": outcome, "untraced": untraced}
    if err is not None:
        return row
    row["solve_2d"] = solve_2d_s

    tr.instance = f"{inst.index}:{op}"
    first_span = len(tr.spans)
    stage = {}
    with tr.span("stages"):
        with tr.span("core.measurements_to_autocorr_2d") as stage["core"]:
            R = ap.measurements_to_autocorr_2d(ap.MagnitudeGrid(2 * n, n, inst.Y))
        grid_text = json.dumps({"n": n, "values": R.values.tolist()})
        with tr.span("jsonio.load") as stage["load"]:
            jsonio.load_autocorr2d(json.loads(grid_text))
        with tr.span("reduction.key_constraint") as stage["key"]:
            c = ap.key_constraint(R)
        with tr.span("reduction.reduce_2d_to_1d") as stage["reduce"]:
            r = ap.reduce_2d_to_1d(R)
        with tr.span("polyfactor.associated_polynomial") as stage["poly"]:
            P = ap.associated_polynomial(r)
        with tr.span("polyfactor.find_zero_pairs") as stage["zeros"]:
            zp = ap.find_zero_pairs(P)
        with tr.span("polyfactor.group_flip_units") as stage["group"]:
            fu = ap.group_flip_units(zp)
        with tr.span("solver.enumerate_candidates") as stage["enumerate"]:
            cands = ap.enumerate_candidates(r)
        tol = report.tolerances
        with tr.span("solver.filter_by_constraint") as stage["filter"]:
            matches = ap.filter_by_constraint(cands, c, n, tol["tol_match"], tol["scale_floor"])
        with tr.span("jsonio.dumps") as stage["dumps"]:
            text = jsonio.dumps(report.to_dict())
    tr.instance = None
    row.update({k: seconds_of(v) for k, v in stage.items()})
    row["spans"] = len(tr.spans) - first_span
    row["flip_units"] = fu.unit_count
    row["conjugate_units"] = sum(isinstance(u, ap.ConjugatePair) for u in fu.units)
    row["enumerated"] = len(cands)
    row["matches"] = len(matches)
    row["length"] = n * n
    row["output_bytes"] = len(text.encode())
    return row


def enumerate_peak_alloc_mb(ap, instances, budget_s: float) -> list:
    """Peak traced allocation of enumerate_candidates, one input at a time."""
    peaks = []
    start = time.perf_counter()
    for inst in instances:
        if peaks and time.perf_counter() - start > budget_s:
            break
        r = ap.reduce_2d_to_1d(ap.measurements_to_autocorr_2d(
            ap.MagnitudeGrid(2 * inst.n, inst.n, inst.Y)))
        tracemalloc.start()
        try:
            ap.enumerate_candidates(r)
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
        finally:
            tracemalloc.stop()
    return peaks


def startup_ms() -> list:
    """Wall time of children that only import the package."""
    samples = []
    for _ in range(STARTUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import autophase2d"], check=True,
                       env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        samples.append(1000.0 * (time.perf_counter() - t0))
    return samples


def best_ms(rows: list, key) -> float:
    """Mean over the inputs of each one's fastest value of `key`, in ms."""
    best = {}
    for row in rows:
        best[row["index"]] = min(key(row), best.get(row["index"], math.inf))
    return 1000.0 * statistics.fmean(best.values()) if best else 0.0


def mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def traced_run(args, bench) -> tuple:
    ap = bench.ap
    jsonio = importlib.import_module("autophase2d.jsonio")
    tr = Tracer()
    rows = []
    failures = Failures(args.workload)
    try:
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds:
            for inst in bench.pool:
                row = traced_instance(ap, jsonio, tr, inst, len(rows))
                rows.append(row)
                failures.add(inst, row["outcome"])
                if time.perf_counter() - start >= args.seconds:
                    break
        solved = {row["index"] for row in rows if "spans" in row}
        peaks = enumerate_peak_alloc_mb(
            ap, [inst for inst in bench.pool if inst.index in solved],
            ALLOC_PASS_SHARE * args.seconds)
        startup = startup_ms()
        span_ns = span_cost_ns()
    finally:
        bench.close()

    ok = [row for row in rows if "spans" in row]
    enumerated = sum(row["enumerated"] for row in ok)
    errors = {f"errors.{name}": 0 for name in ERROR_CLASSES + ("other",)}
    for record in failures.as_list():
        kind = record["kind"]
        if kind not in ("multiple_matches", "silent_wrong"):
            key = f"errors.{kind}"
            errors[key if key in errors else "errors.other"] += record["count"]

    spans_per_instance = statistics.median(row["spans"] for row in ok) if ok else 0
    overhead_ms = span_ns * spans_per_instance * 1e-6
    layer = {
        "core.measurements_to_autocorr_ms": metric(best_ms(ok, lambda r: r["core"]), "ms"),
        "reduction.reduce_ms": metric(best_ms(ok, lambda r: r["key"] + r["reduce"]), "ms"),
        "polyfactor.find_zero_pairs_ms": metric(
            best_ms(ok, lambda r: r["poly"] + r["zeros"]), "ms"),
        "polyfactor.group_flip_units_ms": metric(best_ms(ok, lambda r: r["group"]), "ms"),
        "polyfactor.flip_units": metric(mean(r["flip_units"] for r in ok), "count"),
        "polyfactor.conjugate_units": metric(mean(r["conjugate_units"] for r in ok), "count"),
        "solver.enumerate_candidates_ms": metric(best_ms(ok, lambda r: r["enumerate"]), "ms"),
        "solver.enumerate_self_ms": metric(best_ms(
            ok, lambda r: r["enumerate"] - r["poly"] - r["zeros"] - r["group"]), "ms"),
        "solver.candidates": metric(mean(r["enumerated"] for r in ok), "count"),
        "solver.candidates_per_s": metric(
            enumerated / sum(row["enumerate"] for row in ok) if ok else 0.0, "1/s"),
        "solver.filter_by_constraint_ms": metric(best_ms(ok, lambda r: r["filter"]), "ms"),
        "solver.match_ratio": metric(
            sum(row["matches"] for row in ok) / enumerated if enumerated else 0.0, "ratio"),
        "solver.multiple_matches": metric(failures.count("multiple_matches"), "count"),
        "solver.report_ms": metric(best_ms(
            ok, lambda r: r["solve_2d"] - r["key"] - r["reduce"] - r["enumerate"] - r["filter"]),
            "ms"),
        "solver.coeff_bytes_computed": metric(
            mean(r["enumerated"] * r["length"] * COMPLEX_BYTES for r in ok), "B"),
        "solver.enumerate_peak_alloc_mb": metric(
            statistics.median(peaks) if peaks else 0.0, "MB"),
        "jsonio.load_ms": metric(best_ms(ok, lambda r: r["load"]), "ms"),
        "jsonio.dumps_ms": metric(best_ms(ok, lambda r: r["dumps"]), "ms"),
        "jsonio.output_bytes": metric(mean(r["output_bytes"] for r in ok), "B"),
        "cli.startup_ms": metric(statistics.median(startup), "ms"),
        "tracing_overhead_ms": metric(overhead_ms, "ms"),
        "samples.traced": metric(len(ok), "count"),
        "samples.alloc_pass": metric(len(peaks), "count"),
    }
    layer.update({name: metric(count, "count") for name, count in errors.items()})

    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    result = {
        "correct": not failures.wrong_output(),
        "attempted": len(rows),
        "failed": failures.failed,
        "metrics": {m["name"]: layer[m["name"]] for m in contract["per_layer"]},
    }
    record = {
        "report": layer,
        "tracing": {"span_ns": span_ns, "spans_per_instance": spans_per_instance,
                    "overhead_ms": overhead_ms,
                    "instance_best_ms_untraced": best_ms(ok, lambda r: r["untraced"])},
        "samples": {"operations": len(rows), "inputs": len(bench.pool), "traced": len(ok),
                    "alloc_pass": len(peaks), "startup_probes": len(startup)},
        "failures": failures.as_list(),
        "spans": tr.spans,
    }
    return result, record
