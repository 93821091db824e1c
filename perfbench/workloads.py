"""Workload definitions and input generation, independent of the package.

Inputs are planted standard-normal n-by-n signals. Each workload has a
fixed pool of inputs, each of a fixed size n and flip-unit count u; input i
is drawn from its own generator seeded with (seed, i), so the same seed
always gives the same pool. Squared Fourier magnitudes, lag grids, flip-unit
counts and distances of zeros from the unit circle are computed here with
numpy alone, so a change to the package cannot change its own inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Index of the warm-up instance, never part of a pool.
WARMUP_INDEX = 1 << 40
# A zero counts as real when its imaginary part is below this share of its
# modulus, the package's default conjugate tolerance.
REAL_ZERO_RTOL = 1e-8
# Flipping a zero on the unit circle is ill-defined, and the package refuses
# an input with a zero within 1e-6 of it (UnitCircleZero). Inputs keep every
# zero 100 times that far away, so that the refusal stays out of reach of a
# change in root finding.
UNIT_CIRCLE_MARGIN = 1e-4
# Planted answers are compared entrywise within this share of max |X|.
EQUIV_RTOL = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    pool: tuple  # (n, u) of each input; u None keeps any flip-unit count
    cli: bool  # inputs go through `python -m autophase2d` children
    warmup_n: int  # side of the warm-up instance solved during set-up


WORKLOADS = {
    # n=3 with u=5 and n=4 with u=9, the most common class of each size
    # (72% and 60% of draws): within a class the fastest solve of an input
    # varies by a few percent, across classes by up to 2x. The pool is small,
    # so each input is solved hundreds of times over the run.
    "small-n34": Workload("small-n34", ((3, 5), (4, 9)) * 4, False, 3),
    # Four n=4 inputs with u=9 (256 candidates, about 115 KB of `enumerate`
    # output). A command takes 8 to 25 ms, so each runs about 200 times in a
    # 40 s run. The warm-up child solves an n=3 input.
    "cli-n4": Workload("cli-n4", ((4, 9),) * 4, True, 3),
    # n=6 with u=18 (131072 candidates): enumeration is about 90% of a solve
    # and peak RSS about 330 MB. Not in BENCHMARK.json, whose workloads must
    # not fail: with the fixed corner-constraint tolerance some n=6 inputs
    # get two matches (see README.md). A solve takes 5 to 7 s.
    # The warm-up is an n=4 solve: an n=6 one costs a whole instance.
    "mem-n6": Workload("mem-n6", ((6, 18),) * 2, False, 4),
}

# Smoke-test sizes: every workload keeps its layers but runs two n=3 inputs.
TINY = {name: Workload(w.name, ((3, None),) * 2, w.cli, 3) for name, w in WORKLOADS.items()}


@dataclass
class Instance:
    index: int
    n: int
    u: int  # flip units
    X: np.ndarray  # planted signal
    Y: np.ndarray  # squared Fourier magnitudes on a 2n-by-2n grid
    grid_path: Path | None = None  # 2D lag grid JSON, for `solve`
    seq_path: Path | None = None  # 1D lag sequence JSON, for `enumerate`/`census`


def zeros_of(X: np.ndarray) -> np.ndarray:
    """Zeros of the palindromic polynomial of the flattened signal's autocorrelation."""
    x = X.reshape(-1)
    return np.roots(np.correlate(x, x, "full"))


def flip_unit_count(z: np.ndarray) -> int:
    """Real zeros plus conjugate pairs outside the unit circle."""
    outside = z[np.abs(z) > 1.0]
    real = np.abs(outside.imag) <= REAL_ZERO_RTOL * np.abs(outside)
    return int(np.count_nonzero(real) + np.count_nonzero(outside.imag[~real] > 0))


def lag_grid(X: np.ndarray) -> np.ndarray:
    """Aperiodic 2D autocorrelation, (2n-1)-square with zero lag at the centre."""
    n = X.shape[0]
    out = np.zeros((2 * n - 1, 2 * n - 1))
    for i in range(-(n - 1), n):
        for j in range(-(n - 1), n):
            a = X[max(0, -i): n - max(0, i), max(0, -j): n - max(0, j)]
            b = X[max(0, i): n + min(0, i), max(0, j): n + min(0, j)]
            out[n - 1 + i, n - 1 + j] = np.sum(a * b)
    return out


def make_instance(workload: Workload, seed: int, index: int) -> Instance:
    """Input `index` of the workload's pool; WARMUP_INDEX gives the warm-up instance."""
    rng = np.random.default_rng([seed, index])
    n, units = (workload.warmup_n, None) if index == WARMUP_INDEX else workload.pool[index]
    while True:
        X = rng.standard_normal((n, n))
        z = zeros_of(X)
        u = flip_unit_count(z)
        if (units is None or u == units) and np.min(np.abs(np.abs(z) - 1.0)) > UNIT_CIRCLE_MARGIN:
            break
    Y = np.abs(np.fft.fft2(X, s=(2 * n, 2 * n))) ** 2
    return Instance(index, n, u, X, Y)


def write_cli_inputs(inst: Instance, workdir: Path) -> None:
    """Input files for the CLI: the 2D lag grid and the 1D lag sequence."""
    x = inst.X.reshape(-1)
    inst.grid_path = workdir / f"grid-{inst.index}.json"
    inst.seq_path = workdir / f"seq-{inst.index}.json"
    grid = {"n": inst.n, "values": lag_grid(inst.X).tolist()}
    seq = {"m": x.size, "values": np.correlate(x, x, "full").tolist()}
    inst.grid_path.write_text(json.dumps(grid), encoding="utf-8")
    inst.seq_path.write_text(json.dumps(seq), encoding="utf-8")


def equivalent(X: np.ndarray, Z: np.ndarray) -> bool:
    """Z equals X up to sign and reversal (half-turn rotation in 2D)."""
    Z = np.asarray(Z, dtype=float)
    if Z.shape != X.shape:
        return False
    tol = EQUIV_RTOL * float(np.max(np.abs(X)))
    rot = X[::-1, ::-1] if X.ndim == 2 else X[::-1]
    return any(np.max(np.abs(Z - c)) <= tol for c in (X, -X, rot, -rot))


def contains_equivalent(rows: np.ndarray, x: np.ndarray) -> bool:
    """Some row of `rows` equals the 1D signal x up to sign and reversal."""
    tol = EQUIV_RTOL * float(np.max(np.abs(x)))
    return any(
        float(np.min(np.max(np.abs(rows - c), axis=1))) <= tol
        for c in (x, -x, x[::-1], -x[::-1])
    )
