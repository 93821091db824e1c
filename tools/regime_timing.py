"""Time `solve_2d` with the full candidate table against the half tables, or
(with --writer) the two writers of large float tables, or (with --against)
the solves, or (with --against and --cli) the CLI commands, of this tree
against those of another.

Run from the root of a checkout:

    python3 tools/regime_timing.py --n 4 --seeds 100-109 --rounds 200
    python3 tools/regime_timing.py --writer --cells 64-8192 --rounds 200
    python3 tools/regime_timing.py --against OLD_SRC --seeds 100-109 --rounds 200
    python3 tools/regime_timing.py --against OLD_SRC --cli --seeds 7 --rounds 100

The inputs are the n-by-n entries of perfbench's `small-n34` pool (n = 3 has
u = 5 flip units, n = 4 has u = 9), drawn for every seed of the range, as the
benchmark draws them. Each input is solved once in each regime per round:
`solver.CROSSOVER_UNITS` set above every u forces the full table, and set
to 0 forces the half tables. The two regimes alternate which goes first from
one round to the next. The script prints, per regime, the median over rounds
of the mean solve time, the number of rounds the full table was faster, and
whether every report was byte-identical in the two regimes (exit status 1 if
not).

With --writer, the script writes seeded tables of 64, 128, ... cells (up to
the second number of --cells) in both ways: `jsonio.KERNEL_CELLS` set to 0
forces the vectorized kernel, and set above every size the one-"%"
template. The tables are candidate tables of n = 4 signals (19 cells a row),
as `enumerate` writes them, and census CSVs (3 cells a row) of sorted
products. Each round times every table once in each way, alternating which
goes first. Blocks of 1 MiB or more are their own mappings, as perfbench sets
glibc's malloc. The script prints the median over rounds of each table's time
in microseconds, the mean number of minor page faults (`ru_minflt`) a write
takes, and whether every text was identical in the two ways (exit status 1
if not).

With --against, OLD_SRC is a directory holding an `autophase2d` package (the
`src/` of another checkout). Both trees are loaded in this process, OLD_SRC's
under the package name `autophase2d_against`, and solve every input of the
`small-n34` pool (both sizes; --n is ignored) for every seed of the range, as
perfbench's library loop does: from the squared magnitudes to the report, with
`harness.Reference` run after each solve. Each round solves every input once
in each tree, alternating which tree goes first from one round to the next.
The script prints, per n and then over the whole pool, the mean over inputs of
each input's median solve time over the reference time after it in both trees
and the change for this tree; the pool line, where each input weighs the same,
is perfbench's `instance_ref_ratio`. Then it prints the number of rounds in
which this tree's mean over the pool of that round's ratios was the lower,
and last whether every report was byte-identical in the two trees (exit
status 1 if not).

With --against and --cli, both trees run the `solve`, `enumerate` and
`census` commands of the `cli-n4` pool through their `cli.main` in this
process, as perfbench's `cli-n4` loop does: stdout and stderr captured, and
`harness.Reference` run after each command. Each round runs every input's
three commands once in each tree, alternating which tree goes first. The
script prints, per command, the mean over inputs of each input's median
command time over the reference time after it, then the instance line: per
input the sum of its commands' medians, averaged over the pool, which is
perfbench's `instance_ref_ratio`, and the number of rounds in which this
tree's mean over the pool of that round's instance ratios was the lower. Last
it prints whether every exit status, stdout and stderr was byte-identical in
the two trees (exit status 1 if not).
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

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from autophase2d import Autocorr2D, jsonio, solve_2d, solver  # noqa: E402
from autophase2d.polyfactor import Candidates  # noqa: E402
import autophase2d  # noqa: E402
from harness import M_MMAP_THRESHOLD, MALLOPT, MMAP_THRESHOLD_BYTES, Reference  # noqa: E402
from harness import run_in_process  # noqa: E402
from run import CLI_COMMANDS, cli_argv  # noqa: E402
from workloads import WORKLOADS, lag_grid, make_instance, write_cli_inputs  # noqa: E402

REGIMES = {"full": 1 << 30, "half": 0}  # CROSSOVER_UNITS of each regime
WRITERS = {"template": 1 << 62, "kernel": 0}  # KERNEL_CELLS of each writer


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def draw_inputs(n: int, seeds: range) -> list:
    workload = WORKLOADS["small-n34"]
    picks = [i for i, (side, _) in enumerate(workload.pool) if side == n]
    if not picks:
        raise SystemExit(f"small-n34 holds no n = {n} input")
    grids = []
    for seed in seeds:
        for i in picks:
            X = make_instance(workload, seed, i).X
            grids.append(Autocorr2D(n, lag_grid(X)))
    return grids


def solve_in(regime: str, R: Autocorr2D) -> tuple[int, str]:
    solver.CROSSOVER_UNITS = REGIMES[regime]
    t0 = time.perf_counter_ns()
    report = solve_2d(R)
    elapsed = time.perf_counter_ns() - t0
    return elapsed, jsonio.dumps(report.to_dict())


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


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def writer_main(args) -> int:
    if MALLOPT is not None:
        MALLOPT(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
    tables = [t for k, cells in enumerate(args.cells) for t in draw_tables(cells, k)]
    default = jsonio.KERNEL_CELLS
    times = {(name, w): [] for name, _ in tables for w in WRITERS}
    faults = {(name, w): [] for name, _ in tables for w in WRITERS}
    texts = {w: [] for w in WRITERS}
    for rnd in range(args.rounds + 1):  # round 0 warms up and keeps the texts
        order = list(WRITERS) if rnd % 2 == 0 else list(WRITERS)[::-1]
        for name, write in tables:
            for w in order:
                jsonio.KERNEL_CELLS = WRITERS[w]
                f0 = minor_faults()
                t0 = time.perf_counter_ns()
                text = write()
                elapsed = time.perf_counter_ns() - t0
                if rnd == 0:
                    texts[w].append(text)
                else:
                    times[name, w].append(elapsed / 1e3)
                    faults[name, w].append(minor_faults() - f0)
    jsonio.KERNEL_CELLS = default

    print(f"{len(tables)} tables, {args.rounds} rounds; us a table (median over rounds), "
          f"minor faults a write (mean)")
    print(f"{'table':>18} {'template':>9} {'faults':>7} {'kernel':>9} {'faults':>7}")
    for name, _ in tables:
        template, kernel = (statistics.median(times[name, w]) for w in WRITERS)
        t_faults, k_faults = (statistics.mean(faults[name, w]) for w in WRITERS)
        print(f"{name:>18} {template:9.0f} {t_faults:7.1f} {kernel:9.0f} {k_faults:7.1f}"
              f"  ({(kernel / template - 1) * 100:+.0f}%)")
    same = texts["template"] == texts["kernel"]
    print(f"texts identical: {same}")
    return 0 if same else 1


def load_tree(src: Path, name: str):
    """The `autophase2d` package under `src`, imported as `name` next to this tree's."""
    init = src / "autophase2d" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def solve_timed(package, inst, ref: Reference) -> tuple[float, str]:
    """(solve time over the reference time after it, report text) of one input."""
    t0 = time.perf_counter()
    report = package.solve_2d(package.measurements_to_autocorr_2d(
        package.MagnitudeGrid(2 * inst.n, inst.n, inst.Y)))
    ratio = (time.perf_counter() - t0) / ref.run()
    return ratio, importlib.import_module(f"{package.__name__}.jsonio").dumps(report.to_dict())


def command_timed(cli_main, argv: list, ref: Reference) -> tuple[float, tuple]:
    """(command time over the reference time after it, (exit status, stdout, stderr))."""
    t0 = time.perf_counter()
    done = run_in_process(cli_main, argv)
    ratio = (time.perf_counter() - t0) / ref.run()
    return ratio, (done.returncode, done.stdout, done.stderr)


def interleaved(trees: dict, pool: list, ops: dict, rounds: int) -> tuple[dict, dict]:
    """Each round runs every op of every input once in each tree, alternating which
    tree goes first; an op is (tree, input, reference) -> (ratio, output). Returns
    the ratios of rounds 1.., by tree, input and op, and the outputs of round 0,
    by tree, which warms up."""
    ref = Reference()
    ratios = {tree: [{op: [] for op in ops} for _ in pool] for tree in trees}
    outputs = {tree: [] for tree in trees}
    for rnd in range(rounds + 1):
        order = list(trees) if rnd % 2 == 0 else list(trees)[::-1]
        for k, inst in enumerate(pool):
            for tree in order:
                for op, run in ops.items():
                    ratio, output = run(tree, inst, ref)
                    if rnd == 0:
                        outputs[tree].append(output)
                    else:
                        ratios[tree][k][op].append(ratio)
    return ratios, outputs


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
    if MALLOPT is not None:
        MALLOPT(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
    trees = {"against": load_tree(args.against.resolve(), "autophase2d_against"),
             "this tree": autophase2d}
    workload = WORKLOADS["cli-n4" if args.cli else "small-n34"]
    pool = [make_instance(workload, seed, i)
            for seed in args.seeds for i in range(len(workload.pool))]
    if args.cli:
        return cli_against(args, trees, pool)
    ops = {"solve": lambda tree, inst, ref: solve_timed(trees[tree], inst, ref)}
    ratios, reports = interleaved(trees, pool, ops, args.rounds)
    print(f"{len(pool)} inputs, {args.rounds} rounds; solve time over the reference after it, "
          f"mean over inputs of the median over rounds")
    sizes = sorted({inst.n for inst in pool})
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
    ops = {cmd: (lambda tree, inst, ref, cmd=cmd:
                 command_timed(mains[tree], cli_argv(inst, cmd), ref)) for cmd in CLI_COMMANDS}
    with tempfile.TemporaryDirectory() as work:
        for inst in pool:
            write_cli_inputs(inst, Path(work))
        ratios, outputs = interleaved(trees, pool, ops, args.rounds)
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
    ap.add_argument("--n", type=int, default=4, help="side of the inputs (3 or 4)")
    ap.add_argument("--seeds", type=seed_range, default=seed_range("100-109"),
                    help="benchmark seeds, FIRST-LAST (default 100-109)")
    ap.add_argument("--rounds", type=int, default=200, help="interleaved rounds")
    ap.add_argument("--writer", action="store_true",
                    help="time the two writers of float tables instead of the solve regimes")
    ap.add_argument("--cells", type=cell_sizes, default=cell_sizes("64-8192"),
                    help="table sizes for --writer, FIRST-LAST, doubling (default 64-8192)")
    ap.add_argument("--against", type=Path, metavar="OLD_SRC",
                    help="time this tree's small-n34 solves against those of OLD_SRC")
    ap.add_argument("--cli", action="store_true",
                    help="with --against, time the cli-n4 commands instead of the solves")
    args = ap.parse_args(argv)
    if args.cli and not args.against:
        ap.error("--cli needs --against")
    if args.writer:
        return writer_main(args)
    if args.against:
        return against_main(args)

    grids = draw_inputs(args.n, args.seeds)
    default = solver.CROSSOVER_UNITS
    for regime in REGIMES:  # warm every cache once
        for R in grids:
            solve_in(regime, R)
    per_solve = {regime: [] for regime in REGIMES}
    reports = {regime: [] for regime in REGIMES}
    for rnd in range(args.rounds):
        order = list(REGIMES) if rnd % 2 == 0 else list(REGIMES)[::-1]
        for regime in order:
            total = 0
            for R in grids:
                elapsed, text = solve_in(regime, R)
                total += elapsed
                if rnd == 0:
                    reports[regime].append(text)
            per_solve[regime].append(total / len(grids) / 1e3)
    solver.CROSSOVER_UNITS = default

    full, half = (statistics.median(per_solve[r]) for r in REGIMES)
    wins = sum(f < h for f, h in zip(per_solve["full"], per_solve["half"]))
    same = reports["full"] == reports["half"]
    print(f"{len(grids)} inputs, n = {args.n}, {args.rounds} rounds")
    print(f"full table: {full:.0f} us a solve (median over rounds)")
    print(f"half tables: {half:.0f} us a solve ({(full / half - 1) * 100:+.1f}% for full)")
    print(f"full table faster in {wins} of {args.rounds} rounds")
    print(f"reports identical: {same}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
