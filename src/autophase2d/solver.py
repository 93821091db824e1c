"""Candidate enumeration, constraint filtering, and the end-to-end 2D solver.

Fixing the first flip unit removes the reversal twin of every candidate, so
u units yield 2^(u-1) candidates, one per nontrivial equivalence class.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields

import numpy as np

from .core import Autocorr1D, Autocorr2D, Matrix2D, reshape_rowwise
from .errors import NoMatch, ResidualExceeded, SearchSpaceTooLarge
from .polyfactor import (
    DEFAULT_TOL_PAIR,
    DEFAULT_TOL_ROOT,
    ENDPOINT_RTOL,
    Candidate,
    elementary_symmetric,
    group_flip_units,
    _constraint_products,
    _expand_zero_products,
    _residual_rows,
    _scale_rows,
    _wrap_candidates,
    _zero_pairs,
    _zero_product_table,
)
from .reduction import _reduce_unchecked, key_constraint

DEFAULT_TOL_RESID = 1e-6
DEFAULT_TOL_MATCH = 1e-6
# Past this many flip units solve and census use the half tables; at or below
# it one full table costs less than two half tables plus re-expansion.
CROSSOVER_UNITS = 8
# Constraint products computed per chunk of B rows in the half-table path.
CHUNK_PRODUCTS = 1 << 20
# Largest candidate count (2^(u-1)) the half-table path takes on.
CANDIDATE_BUDGET = 1 << 27
# Largest candidate count times candidate length that enumerate, census or the
# survivors of a solve may reach: each entry costs about 90 bytes on the way to
# the CLI's text, so this caps a run at about 1.5 GB.
MATERIALIZE_BUDGET = 1 << 24
# solve_2d expands the candidates within this many times tol_match of c.
PREFILTER_SLACK = 1000.0
# A ResidualExceeded lists at most this many flip masks.
MAX_LISTED_MASKS = 1 << 16


@dataclass(frozen=True)
class SolverOptions:
    tol_root: float = DEFAULT_TOL_ROOT
    tol_pair: float = DEFAULT_TOL_PAIR
    tol_resid: float = DEFAULT_TOL_RESID
    tol_match: float = DEFAULT_TOL_MATCH

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _support_length(r: Autocorr1D) -> int:
    """Largest lag carrying signal, measured against the overall scale."""
    cut = ENDPOINT_RTOL * r.max_abs
    half = np.abs(r.nonneg)
    live = np.nonzero(half > cut)[0]
    return int(live[-1]) + 1 if live.size else 0


def _factor(r: Autocorr1D, opts: SolverOptions):
    """(autocorrelation trimmed to its support, flip units, extreme lag); None if r == 0.

    The trimmed lags are palindromic and end in a nonzero lag, as _zero_pairs needs.
    """
    if r.max_abs == 0.0:
        return None
    support = _support_length(r)
    core = r if support == r.m else Autocorr1D.from_nonneg(r.nonneg[:support])
    pairing = _zero_pairs(core.values, opts.tol_pair, opts.tol_root)
    return core, group_flip_units(pairing).units, pairing.scale


def _refuse_beyond(count: int, budget: int, what: str) -> None:
    if count > budget:
        raise SearchSpaceTooLarge(f"{count} {what} exceed the budget of {budget}")


def _pad(vals: np.ndarray, m: int) -> np.ndarray:
    """Rows of a trimmed support, padded with trailing zeros to length m."""
    if vals.shape[1] == m:
        return vals
    return np.hstack([vals, np.zeros((vals.shape[0], m - vals.shape[1]))])


def _residual_error(count: int, worst: float, masks) -> ResidualExceeded:
    """ResidualExceeded for `count` candidates, listing the first masks of `masks`."""
    return ResidualExceeded(
        f"{count} candidate(s) fail to reproduce the autocorrelation "
        f"(worst residual {worst:.3e})",
        bitmasks=list(itertools.islice(masks, MAX_LISTED_MASKS)),
    )


def _gate_rows(masks: np.ndarray, residuals: np.ndarray, tol_resid: float) -> None:
    over = ~(residuals <= tol_resid)  # a nan residual fails too
    if over.any():
        raise _residual_error(int(over.sum()), float(residuals.max()),
                              masks[over].tolist())


def _table_arrays(r: Autocorr1D, factors, tol_resid: float):
    """Flip masks, rows and residuals of every candidate, from one full table."""
    if factors is None:
        return np.zeros(1, np.int64), np.zeros((1, r.m)), np.zeros(1)
    core, units, scale = factors
    count = 1 << max(len(units) - 1, 0)
    _refuse_beyond(count * r.m, MATERIALIZE_BUDGET, "candidate entries")
    masks = np.arange(count, dtype=np.int64) << 1
    vals = _scale_rows(_zero_product_table(units, pinned=True), scale)
    residuals = _residual_rows(vals, core)
    _gate_rows(masks, residuals, tol_resid)
    return masks, _pad(vals, r.m), residuals


def _candidate_arrays(r: Autocorr1D, opts: SolverOptions):
    """Flip masks, candidate rows and residuals behind enumerate_candidates."""
    return _table_arrays(r, _factor(r, opts), opts.tol_resid)


def _split(factors) -> bool:
    """Whether solve and census take the half tables; up to the crossover one
    full table costs less."""
    return factors is not None and len(factors[1]) > CROSSOVER_UNITS


def _lag_products(T: np.ndarray) -> np.ndarray:
    """Nonnegative-lag autocorrelation of each row, in one einsum over shifted views.

    Several times faster than _autocorr_rows on half tables, but it sums in
    another order, so the residuals that enumerate prints keep _autocorr_rows.
    """
    rows, w = T.shape
    padded = np.zeros((rows, 2 * w - 1))
    padded[:, :w] = T
    row, step = padded.strides
    shifted = np.ndarray((rows, w, w), buffer=padded, strides=(row, step, step))
    return np.einsum("rt,rlt->rl", T, shifted)  # shifted[r, l, t] = T[r, l + t] or 0


class _Halves:
    """Candidates as products of two half tables.

    A holds units 0..a (unit 0 unflipped) and B units a+1..u-1, with
    a = (u-1)//2; candidate (i, j) is A row i times B row j, its mask is
    (j << (a+1)) | (i << 1), and row-major order over (j, i) is ascending mask
    order. Construction checks every candidate's autocorrelation at the cost
    of the halves: flipping zeros only rescales a row's autocorrelation by
    the same factor as its constant coefficient, so each normalized half row
    must equal row 0's, and row 0 times row 0 must reproduce r.
    """

    def __init__(self, factors, tol_resid: float):
        core, self.units, self.scale = factors
        u = len(self.units)
        self.total = 1 << (u - 1)
        _refuse_beyond(self.total, CANDIDATE_BUDGET, "candidates")
        self.a = (u - 1) // 2
        self.A = _zero_product_table(self.units[:self.a + 1], pinned=True)
        self.B = _zero_product_table(self.units[self.a + 1:], pinned=False)
        self._gate(core, tol_resid)

    def masks(self, j: np.ndarray, i: np.ndarray) -> np.ndarray:
        return (j << (self.a + 1)) | (i << 1)

    def _gate(self, core: Autocorr1D, tol: float) -> None:
        with np.errstate(all="ignore"):  # inf and nan rows fail below
            norm = [_lag_products(T) / np.abs(T[:, :1]) for T in (self.A, self.B)]
            gaps = [np.abs(h - h[0]).max(axis=1) / np.abs(h[0]).max() for h in norm]
            sides = [np.concatenate([h[0, :0:-1], h[0]]) for h in norm]
            full = abs(self.scale) * np.convolve(*sides)[core.m - 1:]
            gap = np.abs(full - core.nonneg).max() / core.max_abs
        bad_a, bad_b = (~(g <= tol) for g in gaps)
        if not gap <= tol:
            bad_a[:] = True
        if not (bad_a.any() or bad_b.any()):
            return
        ia = np.nonzero(bad_a)[0]
        count = int(bad_b.sum()) * bad_a.size + int((~bad_b).sum()) * ia.size
        all_i = np.arange(bad_a.size)
        masks = (m for j in range(bad_b.size)
                 for m in self.masks(j, all_i if bad_b[j] else ia).tolist())
        raise _residual_error(count, float(np.hstack([gap, *gaps]).max()), masks)

    def products(self, n: int):
        """(first B row, constraint products of its chunk of B rows by all A rows)."""
        A, B = self.A, self.B
        wa, wb = A.shape[1], B.shape[1]
        corners = []  # coefficient k = sum over t of B[:, k - t] A[:, t]
        for k in (n - 1, n * n - n):
            ts = np.arange(max(0, k - wb + 1), min(k, wa - 1) + 1)
            corners.append((k - ts, np.ascontiguousarray(A[:, ts].T)))
        (b1, a1), (b2, a2) = corners
        inv_a = abs(self.scale) / np.abs(A[:, 0])
        step = max(1, CHUNK_PRODUCTS >> self.a)
        for j0 in range(0, B.shape[0], step):
            chunk = B[j0:j0 + step]
            f = (chunk[:, b1] @ a1) * (chunk[:, b2] @ a2)
            f *= inv_a
            f /= np.abs(chunk[:, :1])
            yield j0, f

    def rows(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Candidate rows (i, j), expanded from their A rows as the full table would."""
        coeffs = _expand_zero_products(self.units, self.masks(j, i), self.a + 1, self.A[i])
        return _scale_rows(coeffs, self.scale)


def enumerate_candidates(r: Autocorr1D, opts: SolverOptions | None = None) -> list[Candidate]:
    """All candidate signals with autocorrelation r, one per equivalence class.

    Candidates are ordered by ascending flip mask, sign-canonicalized, and
    validated against r; a violation raises ResidualExceeded listing the
    offending masks. Vanishing extreme lags mean the underlying signal has
    shorter support: those lags are trimmed, the short problem is solved, and
    candidates are padded back with trailing zeros.
    """
    return _wrap_candidates(*_candidate_arrays(r, opts or SolverOptions()))


def _matches_constraint(products: np.ndarray, c: float, tol_match: float,
                        scale_floor: float) -> np.ndarray:
    """Mask of products within tol_match * max(|c|, scale_floor) of c; all when infinite."""
    if math.isinf(tol_match):
        return np.ones(products.shape, dtype=bool)
    return np.abs(products - c) <= tol_match * max(abs(c), scale_floor)


def filter_by_constraint(
    candidates: list[Candidate],
    c: float,
    n: int,
    tol_match: float = DEFAULT_TOL_MATCH,
    scale_floor: float = 0.0,
) -> list[Candidate]:
    """Candidates whose constraint product matches c, in the original order."""
    if not candidates:
        return []
    vals = np.array([y.values.values for y in candidates])
    products = _constraint_products(vals) if vals.shape[1] == n * n else None
    if products is None:
        raise ValueError(f"candidate length {vals.shape[1]} is not {n}x{n} with n >= 2")
    keep = _matches_constraint(products, c, tol_match, scale_floor)
    return [y for y, k in zip(candidates, keep) if k]


@dataclass(frozen=True)
class SolveReport:
    n: int
    candidates_total: int
    matches: list[Candidate]
    solution: Matrix2D | None
    unique: bool
    residuals: list[float]
    key_constraint_value: float
    tolerances: dict

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "candidates_total": self.candidates_total,
            "matches": [y.to_dict() for y in self.matches],
            "solution": None if self.solution is None else self.solution.to_dict(),
            "unique": self.unique,
            "residuals": [float(v) for v in self.residuals],
            "key_constraint_value": float(self.key_constraint_value),
            "tolerances": dict(self.tolerances),
        }


def _survivors(r: Autocorr1D, n: int, c: float, tol: float, floor: float,
               opts: SolverOptions):
    """Candidate count, then masks, rows and residuals of the candidates whose
    constraint product lies within tol of c (see _matches_constraint)."""
    factors = _factor(r, opts)
    if not _split(factors):
        masks, vals, residuals = _table_arrays(r, factors, opts.tol_resid)
        keep = _matches_constraint(_constraint_products(vals), c, tol, floor)
        return masks.size, masks[keep], vals[keep], residuals[keep]

    halves = _Halves(factors, opts.tol_resid)
    rows_a = halves.A.shape[0]
    if math.isinf(tol):
        _refuse_beyond(halves.total * r.m, MATERIALIZE_BUDGET, "survivor entries")
        idx = np.arange(halves.total, dtype=np.int64)
    else:
        hits, count = [], 0
        for j0, f in halves.products(n):
            hit = np.flatnonzero(_matches_constraint(f, c, tol, floor))
            count += hit.size
            _refuse_beyond(count * r.m, MATERIALIZE_BUDGET, "survivor entries")
            hits.append(hit + j0 * rows_a)
        idx = np.concatenate(hits)
    i, j = idx % rows_a, idx // rows_a
    masks = halves.masks(j, i)
    vals = halves.rows(i, j)
    residuals = _residual_rows(vals, factors[0])
    _gate_rows(masks, residuals, opts.tol_resid)
    return halves.total, masks, _pad(vals, r.m), residuals


def solve_2d(R: Autocorr2D, opts: SolverOptions | None = None) -> SolveReport:
    """Recover an n-by-n signal from its autocorrelation grid.

    Reduces the grid to the 1D problem and keeps the candidates matching the
    corner constraint. A prefilter PREFILTER_SLACK times looser than the match
    test picks the survivors; only they are expanded to rows, and the match
    test runs on their rows. Exactly one match means the signal is determined
    up to sign and half-turn rotation. No match raises NoMatch carrying the
    report.
    """
    opts = opts or SolverOptions()
    n = R.n
    c = key_constraint(R)  # refuses n < 2 and an asymmetric grid
    r = _reduce_unchecked(R)
    floor = 1e-9 * r.max_abs
    total, masks, vals, residuals = _survivors(
        r, n, c, PREFILTER_SLACK * opts.tol_match, floor, opts)
    keep = _matches_constraint(_constraint_products(vals), c, opts.tol_match, floor)
    matches = _wrap_candidates(masks[keep], vals[keep], residuals[keep])
    tolerances = opts.to_dict()
    tolerances["scale_floor"] = floor
    report = SolveReport(
        n=n,
        candidates_total=total,
        matches=matches,
        solution=reshape_rowwise(matches[0].values, n) if matches else None,
        unique=len(matches) == 1,
        residuals=residuals.tolist(),
        key_constraint_value=c,
        tolerances=tolerances,
    )
    if not matches:
        raise NoMatch(
            f"none of {total} candidates matches the corner constraint {c:.6g}",
            report=report,
        )
    return report


@dataclass(frozen=True)
class CensusData:
    """Sorted normalized constraint products of every candidate, with log gaps."""

    d: np.ndarray
    v: list  # log of consecutive gaps; None marks a gap of zero (or below)
    n: int
    seed: int | None = None


def _census_from_products(products: np.ndarray, n: int, seed: int | None) -> CensusData:
    d = np.sort(np.asarray(products, dtype=float))
    top = d[-1]
    if top != 0.0:
        d = d / top
    gaps = np.diff(d)
    v = [math.log(g) if g > 0 else None for g in gaps.tolist()]
    return CensusData(d=d, v=v, n=n, seed=seed)


def ambiguity_census(
    r: Autocorr1D,
    n: int,
    opts: SolverOptions | None = None,
    seed: int | None = None,
) -> CensusData:
    """Constraint products of all candidates, sorted and scaled to end at 1.

    The normalization divides the signed sorted values by the largest one, so
    monotonicity is preserved exactly when that value is positive.
    """
    if r.m != n * n:
        raise ValueError(f"autocorrelation of length {r.m} does not match n={n}")
    if n < 2:
        raise ValueError("constraint product needs n >= 2")
    opts = opts or SolverOptions()
    factors = _factor(r, opts)
    if not _split(factors):
        _, vals, _ = _table_arrays(r, factors, opts.tol_resid)
        return _census_from_products(_constraint_products(vals), n, seed)
    halves = _Halves(factors, opts.tol_resid)
    # one value per candidate, then a CSV line each: the budget of enumerate
    _refuse_beyond(halves.total * r.m, MATERIALIZE_BUDGET, "candidate entries")
    products = np.empty(halves.total)
    for j0, f in halves.products(n):
        products[j0 * f.shape[1]:(j0 + f.shape[0]) * f.shape[1]] = f.ravel()
    return _census_from_products(products, n, seed)


@dataclass(frozen=True)
class ProbeResult:
    f1_norm: float
    f2_norm: float
    diff_norm: float
    predicted: float

    def to_dict(self) -> dict:
        return {
            "f1_norm": float(self.f1_norm),
            "f2_norm": float(self.f2_norm),
            "diff_norm": float(self.diff_norm),
            "predicted": float(self.predicted),
        }


def asymptotic_probe(n: int, alpha: float) -> ProbeResult:
    """Gap between a candidate and its one-flip neighbor for an extreme zero.

    Uses the synthetic zero multiset {alpha, 1/alpha, 1, ..., 1} of an n-by-n
    problem. As alpha grows, the constraint products of the base choice and of
    the choice with 1/alpha flipped to alpha separate by a fixed combinatorial
    count: with binomials k_i = C(n^2 - i, n - i) the normalized difference
    approaches k_2^2 - k_1 k_3.
    """
    if n < 2:
        raise ValueError("probe needs n >= 2")
    if not (math.isfinite(alpha) and alpha > 10):
        raise ValueError("probe is an asymptotic statement; alpha must be finite and exceed 10")
    ones = [1.0] * (n * n - 3)
    base = [alpha, 1.0 / alpha] + ones
    moved = [alpha, alpha] + ones

    def product(zeros):
        e_low = elementary_symmetric(zeros, n - 1)
        e_high = elementary_symmetric([1.0 / z for z in zeros], n - 1)
        return (e_low * e_high).real

    with np.errstate(over="ignore", invalid="ignore"):
        scale = alpha * alpha
        f1 = product(base) / scale
        f2 = product(moved) / scale
    if not all(math.isfinite(v) for v in (scale, f1, f2, f1 - f2)):
        raise ValueError(f"probe alpha {alpha!r} is too large: the constraint products overflow")

    def binom(i):
        return math.comb(n * n - i, n - i) if n - i >= 0 else 0

    predicted = binom(2) ** 2 - binom(1) * binom(3)
    return ProbeResult(float(f1), float(f2), float(f1 - f2), float(predicted))
