"""Check that two source trees of autophase2d give byte-identical outputs.

Run from anywhere:

    python3 tools/compare_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories holding an `autophase2d` package (the
`src/` of two checkouts). Each tree runs in its own process, in its own
empty working directory, over the same fixed corpus:

- every CLI command, run in-process through `autophase2d.cli.main`, on
  Gaussian and integer inputs (entries in -3..3) with n = 2..4, drawn from
  `default_rng(10000 n + s)`: autocorr, reduce, solve, enumerate, census of
  a sequence, and oracle at n = 2;
- the same chain on one Gaussian and one integer n = 5 input, whose
  sequences have 4096 candidates each, so that enumerate and census write
  tables far larger than `jsonio.KERNEL_CELLS`;
- autocorr and reduce on one Gaussian and one integer n = 17 input, whose
  lag sequences hold 577 floats, so that a float list is written by the
  kernel;
- `census --seed`, `roundtrip`, `probe`, `--help`, a missing input file and
  `probe --n 1`;
- `solve`, `enumerate` and `census` on input files that the loaders refuse
  or take at the edge of the float range (`MALFORMED`): JSON that is not an
  object, missing or non-integer sizes, strings, booleans, nulls and objects
  among the lags, wrong lengths, asymmetric lags, lags near 1.7e308, syntax
  errors in LF and CRLF files, invalid UTF-8 and a UTF-8 BOM;
- `jsonio.dumps(solve_2d(autocorr_2d(X)).to_dict())`, or the error it
  raises, for the same kinds of input with n = 2..5;
- `find_zero_pairs(associated_polynomial(r))` of the same inputs: the bytes
  of its zeros, root residuals and scale, or the error it raises. An
  integer input whose extreme lag vanishes is factored on its trimmed
  support; answering zero endpoints and zeros on the unit circle changes
  these records on purpose;
- the library solve of Gaussian n = 6 and n = 7 inputs (`JOINED`), whose
  survivors the edge-row join finds, the CLI commands on a lag list holding
  an integer beyond the float range, and the library solve of Gaussian
  n = 6 inputs with X(5,5) = 0 (`ZERO_ENDPOINT`), whose survivors the
  corner scan of the half tables finds;
- the magnitude front end (`MAGNITUDES`): for Gaussian inputs with
  n = 2..5 at m = 2n-1 and 2n, the bytes of the lag grid that
  `measurements_to_autocorr_2d` makes of `fourier_magnitude_2d(X, m)` and
  `jsonio.dumps` of the `solve_2d` report of that grid, and the refusal of
  one grid whose symmetry is broken.

A CLI record holds the exit status, standard output, standard error and the
file the command wrote. The script prints one line per record, its name and
the digest of its output under NEW_SRC. It pairs the records of the two trees
by name, whose order may change, and names every record whose output
differs, every record only NEW_SRC has (added) and every record only OLD_SRC
has (removed), and exits 1; or it prints the record count and exits 0 when
every record is identical.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

CLI_SEEDS = range(12)  # CLI inputs per (kind, n)
SOLVE_SEEDS = range(16)  # library solves per (kind, n)
# (kind, default_rng seed) of n = 5 inputs with 4096 candidates (u = 13 flip units)
LARGE_TABLES = (("gauss", 50000), ("int", 50001))
# (kind, default_rng seed) of n = 17 inputs: lag sequences of 2 * 17^2 - 1 = 577 floats
LONG_LAGS = (("gauss", 170000), ("int", 170001))
# (n, default_rng seed) of the integer inputs the corner constraint answered wrongly.
SILENT_WRONG = ((4, 40099), (4, 4075), (5, 50127), (5, 50243), (5, 50269))
# (n, default_rng seed) of Gaussian inputs with u = 17..26 flip units, solved by the join.
JOINED = ((6, 60000), (6, 60001), (7, 70000), (7, 70001))
# default_rng seeds of Gaussian n = 6 inputs with X(5,5) = 0: their trimmed support
# takes the corner scan of the half tables.
ZERO_ENDPOINT = range(500, 506)
# default_rng seeds, offset by 10000 n, of the Gaussian inputs of the magnitude front end
MAGNITUDES = range(4)


def _grid(values) -> bytes:
    return json.dumps({"n": 2, "values": values}).encode()


def _seq(values, m: int = 2) -> bytes:
    return json.dumps({"m": m, "values": values}).encode()


GRID = [[1.0, 2.0, 3.0], [4.0, 30.0, 4.0], [3.0, 2.0, 1.0]]  # a symmetric n = 2 lag grid
SEQ = [1.0, 2.5, 1.0]  # a symmetric m = 2 lag sequence
BOTH, GRID_ONLY, SEQ_ONLY = ("solve", "enumerate", "census"), ("solve",), ("enumerate", "census")
# (name, commands, file bytes): `solve` reads a lag grid, `enumerate` and `census` a sequence
MALFORMED = (
    ("list", BOTH, b"[1, 2, 3]"),
    ("number", BOTH, b"3"),
    ("null", BOTH, b"null"),
    ("empty", BOTH, b""),
    ("syntax-lf", BOTH, b'{"n": 2,\n "m": 2,\n "values": [1, 2 3]}\n'),
    ("syntax-crlf", BOTH, b'{"n": 2,\r\n "m": 2,\r\n "values": [1, 2 3]}\r\n'),
    ("syntax-cr", BOTH, b'{"n": 2,\r "m": 2,\r "values": [1, 2 3]}\r'),
    ("control-in-string-crlf", BOTH, b'{"n": 2,\r\n "a\rb": 1}'),
    ("invalid-utf8", BOTH, b'{"n": 2, "values": [1, \xff]}'),
    ("truncated-utf8", BOTH, b'{"n": 2, "values": [1]} \xe2\x82'),
    ("bom", BOTH, b"\xef\xbb\xbf" + _grid(GRID)),
    ("bom-sequence", SEQ_ONLY, b"\xef\xbb\xbf" + _seq(SEQ)),
    ("crlf-grid", GRID_ONLY, _grid(GRID).replace(b", ", b",\r\n")),
    ("crlf-sequence", SEQ_ONLY, _seq(SEQ).replace(b", ", b",\r\n")),
    ("missing-n", GRID_ONLY, json.dumps({"values": GRID}).encode()),
    ("missing-m", SEQ_ONLY, json.dumps({"values": SEQ}).encode()),
    ("missing-values", BOTH, b'{"n": 2, "m": 2}'),
    *((f"size-{label}", BOTH, b'{"n": %s, "m": %s, "values": [[1.0]]}' % (v, v))
      for label, v in (("float", b"2.0"), ("fraction", b"2.5"), ("string", b'"2"'),
                       ("true", b"true"), ("null", b"null"), ("list", b"[2]"), ("zero", b"0"),
                       ("negative", b"-1"))),
    *((f"grid-{label}", GRID_ONLY, _grid(values)) for label, values in (
        ("object", {"a": 1}), ("string", "1, 2"), ("flat", [1.0] * 9),
        ("string-entry", [[1.0, 2.0, 3.0], [4.0, "30", 4.0], [3.0, 2.0, 1.0]]),
        ("bool-entry", [[1.0, 2.0, 3.0], [4.0, True, 4.0], [3.0, 2.0, 1.0]]),
        ("null-entry", [[1.0, 2.0, 3.0], [4.0, None, 4.0], [3.0, 2.0, 1.0]]),
        ("object-entry", [[1.0, 2.0, 3.0], [4.0, {"a": 1}, 4.0], [3.0, 2.0, 1.0]]),
        ("string-row", [[1.0, 2.0, 3.0], "4, 30, 4", [3.0, 2.0, 1.0]]),
        ("null-row", [[1.0, 2.0, 3.0], None, [3.0, 2.0, 1.0]]),
        ("ragged", [[1.0, 2.0, 3.0], [4.0, 30.0], [3.0, 2.0, 1.0]]),
        ("deep", [[[1.0]] * 3] * 3), ("short", [[1.0, 2.0], [2.0, 1.0]]),
        ("asymmetric", [[1.0, 2.0, 3.0], [4.0, 30.0, 4.0], [3.0, 2.0, 1.5]]),
        ("asymmetry-inf", [[1e308, 0, -1e308], [0, 1, 0], [1e308, 0, -1e308]]),
        ("sum-inf", [[0, 0, 1e308], [1e308, 1, 1e308], [1e308, 0, 0]]),
        ("near-max", [[1.7e308, 0, 1.7e308], [0, 1.7e308, 0], [1.7e308, 0, 1.7e308]]),
        ("integers", [[1, 2, 3], [4, 30, 4], [3, 2, 1]]))),
    ("grid-nan", GRID_ONLY, b'{"n": 2, "values": [[1, 2, 3], [4, NaN, 4], [3, 2, 1]]}'),
    ("grid-infinity", GRID_ONLY, b'{"n": 2, "values": [[Infinity, 2, 3], [4, 30, 4], [3, 2, 1]]}'),
    ("grid-overflow", GRID_ONLY, b'{"n": 2, "values": [[1e400, 2, 3], [4, 30, 4], [3, 2, 1e400]]}'),
    *((f"sequence-{label}", SEQ_ONLY, _seq(values)) for label, values in (
        ("object", {"a": 1}), ("string", "1"), ("nested", [SEQ]), ("nested-rows", [[1.0]] * 3),
        ("string-entry", [1.0, "2.5", 1.0]), ("bool-entry", [True, 2.5, True]),
        ("null-entry", [1.0, None, 1.0]), ("object-entry", [1.0, {"a": 2}, 1.0]),
        ("list-entry", [1.0, [2.5], 1.0]), ("null-in-nested", [[1.0, None, 1.0]]),
        ("long", SEQ + [0.0]), ("short", SEQ[:2]), ("empty", []),
        ("asymmetric", [1.0, 2.5, 1.5]), ("within-tolerance", [1.0, 2.5, 1.0 + 1e-12]),
        ("asymmetry-inf", [1e308, 1.0, -1e308]), ("top-octave", [1.7e308, 1.0, 1.7e308]),
        ("integers", [1, 3, 1]),
        ("negative-zero", [-0.0, 1.0, 0.0]), ("zero", [0.0, 0.0, 0.0]))),
    ("sequence-near-max", SEQ_ONLY, _seq([8e307, 0, 1.7e308, 0, 8e307], m=3)),
    ("sequence-nan", SEQ_ONLY, b'{"m": 2, "values": [1, NaN, 1]}'),
    ("sequence-nan-ends", SEQ_ONLY, b'{"m": 2, "values": [NaN, 2.5, 1]}'),
    ("sequence-infinity-pair", SEQ_ONLY, b'{"m": 2, "values": [Infinity, 2.5, Infinity]}'),
    ("sequence-infinity-centre", SEQ_ONLY, b'{"m": 2, "values": [1, Infinity, 1]}'),
    ("sequence-infinity-one", SEQ_ONLY, b'{"m": 2, "values": [Infinity, 2.5, 1]}'),
    ("sequence-overflow", SEQ_ONLY, b'{"m": 2, "values": [1e400, 2.5, 1e400]}'),
)
BEYOND_FLOAT = (("integer-beyond-float", BOTH,
                 b'{"n": 2, "m": 2, "values": [1, 1%s, 1]}' % (b"0" * 400)),)


def draw(kind: str, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "gauss":
        return rng.standard_normal((n, n))
    return rng.integers(-3, 4, (n, n)).astype(float)


def cli_record(argv: list[str], output: str | None = None) -> str:
    """Exit status, stdout, stderr and the written file of one in-process run."""
    from autophase2d import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # an uncaught error is this record's output
            code = f"{type(exc).__name__}: {exc}"
    written = Path(output).read_text(encoding="utf-8") if output and Path(output).exists() else None
    return json.dumps([code, out.getvalue(), err.getvalue(), written])


def solve_record(X) -> str:
    from autophase2d import Matrix2D, autocorr_2d, jsonio, solve_2d

    try:
        return jsonio.dumps(solve_2d(autocorr_2d(Matrix2D(len(X), X))).to_dict())
    except Exception as err:  # the error is the output
        return f"{type(err).__name__}: {err}"


def magnitude_records(X, m: int):
    """(kind, output) of the lag grid made of X's squared magnitudes on an m-by-m grid
    and of the solve of that grid, or of the error either raises."""
    from autophase2d import Matrix2D, fourier_magnitude_2d, jsonio, measurements_to_autocorr_2d
    from autophase2d import solve_2d

    try:
        R = measurements_to_autocorr_2d(fourier_magnitude_2d(Matrix2D(len(X), X), m))
    except Exception as err:  # the error is the output
        yield "lags", f"{type(err).__name__}: {err}"
        return
    yield "lags", R.values.tobytes().hex()
    try:
        yield "solve", jsonio.dumps(solve_2d(R).to_dict())
    except Exception as err:  # the error is the output
        yield "solve", f"{type(err).__name__}: {err}"


def tampered_record() -> str:
    """The refusal of a 5-by-5 grid of squared magnitudes with one entry raised by 1."""
    from autophase2d import MagnitudeGrid, Matrix2D, fourier_magnitude_2d
    from autophase2d import measurements_to_autocorr_2d

    Y = fourier_magnitude_2d(Matrix2D(2, [[1.0, 2.0], [3.0, 4.0]]), 5).values.copy()
    Y[0, 1] += 1.0
    try:
        return measurements_to_autocorr_2d(MagnitudeGrid(5, 2, Y)).values.tobytes().hex()
    except Exception as err:  # the error is the output
        return f"{type(err).__name__}: {err}"


def pairing_record(X) -> str:
    from autophase2d import Matrix2D, autocorr_2d, reduce_2d_to_1d
    from autophase2d.polyfactor import associated_polynomial, find_zero_pairs

    r = reduce_2d_to_1d(autocorr_2d(Matrix2D(len(X), X)))
    try:
        zp = find_zero_pairs(associated_polynomial(r))
    except Exception as err:  # the error is the output
        return f"{type(err).__name__}: {err}"
    return json.dumps([zp.zeros.tobytes().hex(), zp.root_residuals.tobytes().hex(),
                       np.float64(zp.scale).tobytes().hex()])


def cli_records(kind: str, n: int, seed: int, commands: int | None = None):
    """The CLI chain on one input, or its first `commands` steps; each file name is
    relative to the working directory."""
    X = draw(kind, n, seed)
    name = f"{kind}-n{n}-s{seed}"
    Path(f"{name}.X.json").write_text(json.dumps({"n": n, "rows": X.tolist()}), encoding="utf-8")
    steps = [
        ("autocorr", ["--input", f"{name}.X.json"], f"{name}.R.json"),
        ("reduce", ["--input", f"{name}.R.json"], f"{name}.r.json"),
        ("solve", ["--input", f"{name}.R.json"], f"{name}.solve.json"),
        ("enumerate", ["--input", f"{name}.r.json"], f"{name}.candidates.json"),
        ("census", ["--input", f"{name}.r.json", "--n", str(n)], f"{name}.census.csv"),
    ]
    if n == 2:
        steps.append(("oracle", ["--input", f"{name}.R.json", "--bound", "3"], f"{name}.oracle.json"))
    for command, flags, output in steps[:commands]:
        argv = [command, *flags, "--output", output]
        yield " ".join([name, command, *flags[2:]]), cli_record(argv, output)


def corpus():
    """(name, output text) of every record, in a fixed order."""
    for kind in ("gauss", "int"):
        for n in (2, 3, 4):
            for s in CLI_SEEDS:
                yield from cli_records(kind, n, 10000 * n + s)
    for kind, seed in LARGE_TABLES:
        yield from cli_records(kind, 5, seed)
    for kind, seed in LONG_LAGS:
        yield from cli_records(kind, 17, seed, commands=2)
    for n in (2, 3, 4):
        for seed in (0, 1, 2):
            yield f"census --seed {seed} --n {n}", cli_record(
                ["census", "--seed", str(seed), "--n", str(n)])
            yield f"roundtrip --n {n} --seed {seed}", cli_record(
                ["roundtrip", "--n", str(n), "--seed", str(seed), "--trials", "3"])
        for alpha in ("20", "1e4", "1e150", "inf", "5"):
            yield f"probe --n {n} --alpha {alpha}", cli_record(
                ["probe", "--n", str(n), "--alpha", alpha])
    yield "probe --n 1", cli_record(["probe", "--n", "1", "--alpha", "100"])
    yield from malformed_records(MALFORMED)
    yield "solve missing input", cli_record(["solve", "--input", "missing.json"])
    yield "--help", cli_record(["--help"])
    for kind in ("gauss", "int"):
        for n in (2, 3, 4, 5):
            for s in SOLVE_SEEDS:
                seed = 10000 * n + s
                yield f"library solve {kind}-n{n}-s{seed}", solve_record(draw(kind, n, seed))
    for n, seed in SILENT_WRONG:
        yield f"library solve int-n{n}-s{seed}", solve_record(draw("int", n, seed))
    for kind in ("gauss", "int"):
        for n in (2, 3, 4, 5):
            for s in SOLVE_SEEDS:
                seed = 10000 * n + s
                yield f"zero pairs {kind}-n{n}-s{seed}", pairing_record(draw(kind, n, seed))
    for n, seed in JOINED:
        yield f"library solve gauss-n{n}-s{seed}", solve_record(draw("gauss", n, seed))
    yield from malformed_records(BEYOND_FLOAT)
    for seed in ZERO_ENDPOINT:
        X = draw("gauss", 6, seed)
        X[5, 5] = 0.0
        yield f"library solve gauss-n6-s{seed} X(5,5) = 0", solve_record(X)
    for n in (2, 3, 4, 5):
        for s in MAGNITUDES:
            seed = 10000 * n + s
            for m in (2 * n - 1, 2 * n):
                for kind, text in magnitude_records(draw("gauss", n, seed), m):
                    yield f"magnitudes {kind} gauss-n{n}-s{seed} m{m}", text
    yield "magnitudes tampered grid", tampered_record()


def malformed_records(entries):
    """The CLI records of input files that the loaders refuse or take at the edge."""
    for name, commands, data in entries:
        path = f"malformed-{name}.json"
        Path(path).write_bytes(data)
        for command in commands:
            yield f"malformed {name} {command}", cli_record(
                [command, "--input", path, *(["--n", "2"] if command == "census" else [])])


def emit(src: str) -> None:
    """Child side: import the package from `src` and print `name<TAB>digest` per record."""
    sys.path.insert(0, src)
    import autophase2d

    if Path(autophase2d.__file__).resolve().parent != Path(src) / "autophase2d":
        raise SystemExit(f"autophase2d imported from {autophase2d.__file__}, not {src}")
    for name, text in corpus():
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
        print(f"{name}\t{digest}", flush=True)


def records(src: Path) -> list[tuple[str, str]]:
    """Run the corpus on `src` in a fresh process and working directory."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["COLUMNS"] = "80"  # --help wraps to the terminal width
    with tempfile.TemporaryDirectory() as work:
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--emit", str(src)],
                              cwd=work, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"corpus run on {src} failed:\n{done.stderr}")
    found = [tuple(line.split("\t")) for line in done.stdout.splitlines()]
    if len(dict(found)) != len(found):  # records are paired by name
        raise SystemExit(f"record names repeat in the corpus run on {src}")
    return found


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old_src", nargs="?", type=Path)
    ap.add_argument("new_src", nargs="?", type=Path)
    ap.add_argument("--emit", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.emit:
        emit(args.emit)
        return 0
    if args.new_src is None:
        ap.error("needs OLD_SRC and NEW_SRC")
    old = dict(records(args.old_src.resolve()))
    new = records(args.new_src.resolve())
    for name, digest in new:
        print(f"{digest}  {name}")
    lines = [f"record {name!r} added: {digest}" if name not in old else
             f"record {name!r} differs: {old[name]} -> {digest}"
             for name, digest in new if old.get(name) != digest]
    kept = dict(new)
    lines += [f"record {name!r} removed: {digest}" for name, digest in old.items()
              if name not in kept]
    for line in lines:
        print(line)
    if lines:
        return 1
    print(f"{len(new)} records identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
