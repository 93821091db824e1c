"""Time two sides of autophase2d against each other in paired rounds: the full
candidate table against the edge-row join (the default), the two writers of
large float tables (--writer), the two ways of the magnitude front end
(--front-end), or this tree against another (--against).

Run from the root of a checkout:

    python3 tools/regime_timing.py --workload small-n34 --seeds 100-109 --rounds 200
    python3 tools/regime_timing.py --writer --cells 64-8192 --rounds 200
    python3 tools/regime_timing.py --front-end --rounds 200
    python3 tools/regime_timing.py --against OLD_SRC --seeds 100-109 --rounds 200
    python3 tools/regime_timing.py --against OLD_SRC --workload cli-n4 --seeds 7 --rounds 100

Every mode runs `paired`: two sides, a list of items and a call. A side is
one value of a module constant or one tree of the package. A warm-up round
runs the call on every item on each side and keeps each side's output. Each
of the --rounds timed rounds then runs the call on every item on one side,
then on the other, alternating which side goes first from one round to the
next. It times only the call, and runs `harness.Reference` right after it:
every call follows another item's call and its reference, as in perfbench's
loop. (A call right after the other side's call of the same item ran about 3%
faster, so the side that went second won nearly every round.) Every mode runs
under perfbench's malloc mmap threshold. Each call records its seconds, the
reference's seconds and its minor page faults (`ru_minflt`). Every mode exits
1 unless the two sides' outputs are the same.

Without a mode flag, the inputs of --workload (any name in perfbench's
`WORKLOADS`, drawn for every seed of --seeds as the benchmark draws them) are
solved in the library from their squared magnitudes, as perfbench's library
loop times them, whatever the workload's `cli` flag: `solver.CROSSOVER_UNITS`
set above every u forces the full table, and set to 0 forces the join, since
every input of the pools has full support (a zero endpoint would take the
half tables' corner scan instead). The script prints, per flip-unit count u,
the median over rounds of the mean solve time over that u's inputs in each
regime and the number of rounds the full table was the faster; last whether
every report was byte-identical in the two regimes.

With --writer, the script writes seeded tables of 64, 128, ... cells (up to
the second number of --cells) in both ways: `jsonio.KERNEL_CELLS` set to 0
forces the vectorized kernel, and set above every size the one-"%" template.
The tables are candidate tables of n = 4 signals (19 cells a row), as
`enumerate` writes them, and census CSVs (3 cells a row) of sorted products.
The script prints the median over rounds of each table's time in
microseconds, the mean number of minor page faults a write takes, the number
of cells the kernel left to `format()` (the sum of what
`jsonio._format_into` returns over a write), and whether every text was
identical in the two ways.

With --front-end, `measurements_to_autocorr_2d` turns the squared magnitudes
of one Gaussian n-by-n signal into its lag grid in both ways, for n = 2..9
and m = 2n-1..2n+2: `core.LAG_OPERATOR_ENTRIES` set above every size forces
the one real product with the cached operator, and set to 0 the complex
product. Each size runs its rounds before the next size, so that both ways
keep their cached matrices. The script prints, per size, the operator's
entries ((2n-1)^2 + m^2) * m^2 and the median over rounds of each way's time
in microseconds; then the largest operator at which it was the faster way and
the smallest at which it was not, the crossover `LAG_OPERATOR_ENTRIES` rests
on; and last the largest difference between the two ways' lag grids,
relative to max|R| (exit status 1 if above 1e-12).

With --against, OLD_SRC is a directory holding an `autophase2d` package (the
`src/` of another checkout). Both trees are loaded in this process, OLD_SRC's
under the package name `autophase2d_against`, and run the --workload pool as
perfbench runs it. A library workload is solved from the squared magnitudes
to the report; the script prints, per n and then over the whole pool, the
mean over inputs of each input's median solve time over the reference time
after it in both trees and the change for this tree (the pool line, where each
input weighs the same, is perfbench's `instance_ref_ratio`), then the number
of rounds in which this tree's mean over the pool of that round's ratios was
the lower, and last whether every report was byte-identical. A workload with
`cli` set runs the `solve`, `enumerate` and `census` commands of every input
through each tree's `cli.main`, stdout and stderr captured; the script prints,
per command, the mean over inputs of each input's median command time over
the reference time after it, then the instance line (per input the sum of its
commands' medians, averaged over the pool: perfbench's `instance_ref_ratio`),
the rounds this tree's instance mean was the lower, and whether every exit
status, stdout and stderr was byte-identical.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from autophase2d import Matrix2D, core, jsonio, solver  # noqa: E402
from autophase2d.polyfactor import Candidates  # noqa: E402
import autophase2d  # noqa: E402
from harness import M_MMAP_THRESHOLD, MALLOPT, MMAP_THRESHOLD_BYTES, Reference  # noqa: E402
from harness import run_in_process  # noqa: E402
from run import CLI_COMMANDS, cli_argv  # noqa: E402
from workloads import WORKLOADS, make_instance, write_cli_inputs  # noqa: E402

REGIMES = {"full": 1 << 30, "join": 0}  # CROSSOVER_UNITS of each regime
WRITERS = {"template": 1 << 62, "kernel": 0}  # KERNEL_CELLS of each writer
FRONT_ENDS = {"operator": 1 << 62, "product": 0}  # LAG_OPERATOR_ENTRIES of each way
FRONT_END_SIDES = range(2, 10)  # n of --front-end, each at m = 2n-1..2n+2
FRONT_END_AGREE = 1e-12  # largest difference between the ways' lag grids, over max|R|


class Call(NamedTuple):
    seconds: float
    reference: float  # seconds of the reference run right after the call
    faults: int  # minor page faults of the call


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def median_us(runs: list) -> float:
    return statistics.median(c.seconds for c in runs) * 1e6


def paired(sides: dict, items: list, call, output, rounds: int, constant=None):
    """Runs `call(side value, item)` on every item on each side, a side at a time,
    in each round.

    With `constant` = (module, attribute), each side's value is set there
    before its calls, and the attribute's own value is put back at the end.
    Round 0 warms up and keeps `output(side value, result)` of every call;
    rounds 1.. alternate which side goes first, and time only the call, each
    followed by the reference. Returns the `Call`s of the timed rounds, by
    side and item, and the warm-up's outputs, by side.
    """
    if MALLOPT is not None:
        MALLOPT(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
    module, attribute = constant or (None, None)
    default = getattr(module, attribute) if constant else None
    ref = Reference()
    calls = {side: [[] for _ in items] for side in sides}
    outputs = {side: [] for side in sides}
    try:
        for rnd in range(rounds + 1):
            order = list(sides) if rnd % 2 == 0 else list(sides)[::-1]
            for side in order:
                value = sides[side]
                if constant:
                    setattr(module, attribute, value)
                for k, item in enumerate(items):
                    if rnd == 0:
                        outputs[side].append(output(value, call(value, item)))
                        continue
                    f0 = minor_faults()
                    t0 = time.perf_counter()
                    result = call(value, item)
                    seconds = time.perf_counter() - t0
                    faults = minor_faults() - f0
                    del result  # freed before the reference, as perfbench drops a report
                    calls[side][k].append(Call(seconds, ref.run(), faults))
    finally:
        if constant:
            setattr(module, attribute, default)
    return calls, outputs


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def draw_pool(workload, seeds: range) -> list:
    return [make_instance(workload, seed, i) for seed in seeds for i in range(len(workload.pool))]


def solve(package, inst):
    """The report of one input, from its squared magnitudes, as perfbench times it."""
    return package.solve_2d(package.measurements_to_autocorr_2d(
        package.MagnitudeGrid(2 * inst.n, inst.n, inst.Y)))


def report_text(package, report) -> str:
    return importlib.import_module(f"{package.__name__}.jsonio").dumps(report.to_dict())


def regime_main(args) -> int:
    pool = draw_pool(WORKLOADS[args.workload], args.seeds)
    calls, reports = paired(REGIMES, pool, lambda _, inst: solve(autophase2d, inst),
                            lambda _, report: report_text(autophase2d, report), args.rounds,
                            (solver, "CROSSOVER_UNITS"))
    print(f"{len(pool)} inputs of {args.workload}, {args.rounds} rounds; us a solve "
          f"(median over rounds of the mean over inputs)")
    for u in sorted({inst.u for inst in pool}):
        picks = [k for k, inst in enumerate(pool) if inst.u == u]
        full, join = ([statistics.fmean(calls[regime][k][rnd].seconds for k in picks) * 1e6
                       for rnd in range(args.rounds)] for regime in REGIMES)
        wins = sum(f < j for f, j in zip(full, join))
        full, join = statistics.median(full), statistics.median(join)
        print(f"u = {u}: full table {full:.0f}, join {join:.0f} "
              f"({(full / join - 1) * 100:+.1f}% for full), "
              f"full table faster in {wins} of {args.rounds} rounds")
    same = reports["full"] == reports["join"]
    print(f"reports identical: {same}")
    return 0 if same else 1


def draw_tables(cells: int, seed: int) -> list:
    """(name, writer) of a candidate table and a census of about `cells` cells."""
    rng = np.random.default_rng(seed)
    k = max(1, cells // 19)
    table = Candidates(np.arange(k) << 1, rng.standard_normal((k, 16)), 1e-15 * rng.random(k))
    census = solver._census_from_products(rng.standard_normal(max(1, cells // 3)), n=4)
    return [(f"candidates {table.values.shape[0] * 19}", lambda: jsonio.dumps(table)),
            (f"census {census.d.size * 3}", lambda: jsonio.census_csv(census))]


def cell_sizes(text: str) -> list[int]:
    first, _, last = text.partition("-")
    sizes = [int(first)]
    while sizes[-1] * 2 <= int(last or first):
        sizes.append(sizes[-1] * 2)
    return sizes


def format_fallbacks(write) -> int:
    """The number of cells the kernel leaves to format() in one call of `write`."""
    kernel, counts = jsonio._format_into, []

    def counted(out, x):
        counts.append(kernel(out, x))
        return counts[-1]

    jsonio._format_into = counted
    try:
        write()
    finally:
        jsonio._format_into = kernel
    return sum(counts)


def writer_main(args) -> int:
    tables = [t for k, cells in enumerate(args.cells) for t in draw_tables(cells, k)]
    default = jsonio.KERNEL_CELLS
    jsonio.KERNEL_CELLS = WRITERS["kernel"]
    left = {name: format_fallbacks(write) for name, write in tables}  # outside the timed rounds
    jsonio.KERNEL_CELLS = default
    calls, texts = paired(WRITERS, tables, lambda _, table: table[1](), lambda _, text: text,
                          args.rounds, (jsonio, "KERNEL_CELLS"))

    print(f"{len(tables)} tables, {args.rounds} rounds; us a table (median over rounds), "
          f"minor faults a write (mean), cells the kernel left to format()")
    print(f"{'table':>18} {'template':>9} {'faults':>7} {'kernel':>9} {'faults':>7} {'format':>7}")
    for k, (name, _) in enumerate(tables):
        template, kernel = (median_us(calls[w][k]) for w in WRITERS)
        t_faults, k_faults = (statistics.fmean(c.faults for c in calls[w][k]) for w in WRITERS)
        print(f"{name:>18} {template:9.0f} {t_faults:7.1f} {kernel:9.0f} {k_faults:7.1f}"
              f" {left[name]:7d}  ({(kernel / template - 1) * 100:+.0f}%)")
    same = texts["template"] == texts["kernel"]
    print(f"texts identical: {same}")
    return 0 if same else 1


def front_end_main(args) -> int:
    rows, worst = [], 0.0
    for n in FRONT_END_SIDES:
        X = Matrix2D(n, np.random.default_rng(n).standard_normal((n, n)))
        for m in range(2 * n - 1, 2 * n + 3):
            calls, grids = paired(FRONT_ENDS, [core.fourier_magnitude_2d(X, m)],
                                  lambda _, Y: core.measurements_to_autocorr_2d(Y),
                                  lambda _, R: R.values, args.rounds,
                                  (core, "LAG_OPERATOR_ENTRIES"))
            a, b = (grids[way][0] for way in FRONT_ENDS)
            worst = max(worst, float(np.abs(a - b).max() / np.abs(b).max()))
            rows.append((((2 * n - 1) ** 2 + m * m) * m * m, n, m,
                         *(median_us(calls[way][0]) for way in FRONT_ENDS)))

    print(f"{len(rows)} sizes, {args.rounds} rounds; us a call, each followed by the reference "
          f"(median over rounds)")
    print(f"{'n':>3} {'m':>3} {'entries':>8} {'operator':>9} {'product':>9}")
    for entries, n, m, op, prod in rows:
        print(f"{n:3d} {m:3d} {entries:8d} {op:9.1f} {prod:9.1f}  ({(op / prod - 1) * 100:+.0f}%)")
    rows.sort()
    wins = [row for row in rows if row[3] < row[4]]
    losses = [row for row in rows if row[3] >= row[4]]
    for label, picked in (("largest operator faster", wins[-1:]),
                          ("smallest operator not faster", losses[:1])):
        for entries, n, m, op, prod in picked:
            print(f"{label}: {entries} entries (n = {n}, m = {m}: {op:.1f} against {prod:.1f} us)")
    print(f"cap: LAG_OPERATOR_ENTRIES = {core.LAG_OPERATOR_ENTRIES}")
    print(f"largest difference over max|R|: {worst:.1e}")
    return 0 if worst <= FRONT_END_AGREE else 1


def load_tree(src: Path, name: str):
    """The `autophase2d` package under `src`, imported as `name` next to this tree's."""
    init = src / "autophase2d" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def print_ratios(trees: dict, ratios: dict, lines: list) -> None:
    """One line per (label, inputs, ops): the mean over those inputs of the sum
    over the ops of each one's median ratio, in both trees."""
    for label, inputs, ops in lines:
        old, new = (statistics.fmean(sum(statistics.median(ratios[tree][k][op]) for op in ops)
                                     for k in inputs)
                    for tree in trees)
        print(f"{label}: against {old:.4f}, this tree {new:.4f} ({(new / old - 1) * 100:+.2f}%)")


def print_rounds_lower(trees: dict, ratios: dict, inputs, ops, rounds: int) -> None:
    """The number of rounds in which this tree's mean over `inputs` of the sum over
    `ops` of that round's ratios was lower than the other tree's."""
    old, new = ([statistics.fmean(sum(ratios[tree][k][op][rnd] for op in ops) for k in inputs)
                 for rnd in range(rounds)] for tree in trees)
    wins = sum(b < a for a, b in zip(old, new))
    print(f"this tree lower in {wins} of {rounds} rounds")


def against_main(args) -> int:
    trees = {"against": load_tree(args.against.resolve(), "autophase2d_against"),
             "this tree": autophase2d}
    workload = WORKLOADS[args.workload]
    pool = draw_pool(workload, args.seeds)
    if workload.cli:
        return cli_against(args, trees, pool)
    calls, reports = paired(trees, pool, solve, report_text, args.rounds)
    ratios = {tree: [{"solve": [c.seconds / c.reference for c in runs]} for runs in calls[tree]]
              for tree in trees}
    print(f"{len(pool)} inputs, {args.rounds} rounds; solve time over the reference after it, "
          f"mean over inputs of the median over rounds")
    sizes = sorted({inst.n for inst in pool})
    ops = ["solve"]
    print_ratios(trees, ratios, [
        *((f"n = {n}", [k for k, inst in enumerate(pool) if inst.n == n], ops) for n in sizes),
        ("pool", range(len(pool)), ops)])
    print_rounds_lower(trees, ratios, range(len(pool)), ops, args.rounds)
    same = reports["against"] == reports["this tree"]
    print(f"reports identical: {same}")
    return 0 if same else 1


def cli_against(args, trees: dict, pool: list) -> int:
    mains = {tree: importlib.import_module(f"{package.__name__}.cli").main
             for tree, package in trees.items()}
    commands = [(inst, cmd) for inst in pool for cmd in CLI_COMMANDS]
    with tempfile.TemporaryDirectory() as work:
        for inst in pool:
            write_cli_inputs(inst, Path(work))
        calls, outputs = paired(mains, commands,
                                lambda main, command: run_in_process(main, cli_argv(*command)),
                                lambda _, done: (done.returncode, done.stdout, done.stderr),
                                args.rounds)
    width = len(CLI_COMMANDS)
    ratios = {tree: [{cmd: [c.seconds / c.reference for c in calls[tree][k * width + j]]
                      for j, cmd in enumerate(CLI_COMMANDS)} for k in range(len(pool))]
              for tree in trees}
    print(f"{len(pool)} inputs, {args.rounds} rounds; command time over the reference after it, "
          f"mean over inputs of the median over rounds")
    inputs = range(len(pool))
    print_ratios(trees, ratios, [*((cmd, inputs, [cmd]) for cmd in CLI_COMMANDS),
                                 ("instance", inputs, CLI_COMMANDS)])
    print_rounds_lower(trees, ratios, inputs, CLI_COMMANDS, args.rounds)
    same = outputs["against"] == outputs["this tree"]
    print(f"outputs identical: {same}")
    return 0 if same else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, default="small-n34",
                    help="perfbench workload whose pool the regimes or --against run "
                         "(default small-n34)")
    ap.add_argument("--seeds", type=seed_range, default=seed_range("100-109"),
                    help="benchmark seeds, FIRST-LAST (default 100-109)")
    ap.add_argument("--rounds", type=int, default=200, help="timed rounds")
    ap.add_argument("--writer", action="store_true",
                    help="time the two writers of float tables instead of the solve regimes")
    ap.add_argument("--front-end", action="store_true",
                    help="time the magnitude front end's operator against its complex product")
    ap.add_argument("--cells", type=cell_sizes, default=cell_sizes("64-8192"),
                    help="table sizes for --writer, FIRST-LAST, doubling (default 64-8192)")
    ap.add_argument("--against", type=Path, metavar="OLD_SRC",
                    help="time this tree's runs of the workload against those of OLD_SRC")
    args = ap.parse_args(argv)
    if args.writer:
        return writer_main(args)
    if args.front_end:
        return front_end_main(args)
    if args.against:
        return against_main(args)
    return regime_main(args)


if __name__ == "__main__":
    sys.exit(main())
