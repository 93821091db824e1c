"""Candidate enumeration, constraint filtering, and the end-to-end 2D solver.

Fixing the first flip unit removes the reversal twin of every candidate, so
u units yield 2^(u-1) candidates, one per nontrivial equivalence class.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import Autocorr1D, Autocorr2D, Matrix2D
from .errors import NoMatch, ResidualExceeded, SearchSpaceTooLarge
from .polyfactor import (
    CHUNK_PRODUCTS,
    DEFAULT_TOL_PAIR,
    DEFAULT_TOL_ROOT,
    Candidates,
    associated_polynomial,
    elementary_symmetric,
    find_zero_pairs,
    group_flip_units,
    _autocorr_rows,
    _constraint_products,
    _expand_zero_products,
    _factor_arrays,
    _residual_rows,
    _scale_rows,
    _zero_product_table,
)
from .reduction import _reduce_unchecked, key_constraint

DEFAULT_TOL_RESID = 1e-6
DEFAULT_TOL_MATCH = 1e-6
# Past this many flip units solve and census use the half tables; at or below
# it one full table costs less than two half tables plus re-expansion.
CROSSOVER_UNITS = 8
# Largest candidate count (2^(u-1)) the half-table path takes on.
CANDIDATE_BUDGET = 1 << 27
# Largest candidate count times candidate length that enumerate, census or the
# survivors of a solve may reach: each entry costs about 58 bytes on the way to
# the CLI's text, which `dumps` holds twice at its peak, the table's and the
# payload's (measured at n = 6, README), so this caps a run at about 1 GB.
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
        return self.__dict__.copy()


def _factor(r: Autocorr1D, opts: SolverOptions):
    """(autocorrelation trimmed to its support, the flip units' _factor_arrays,
    extreme lag); None if r == 0."""
    if r.max_abs == 0.0:
        return None
    core = associated_polynomial(r)
    check_support_budget(core.m)
    pairing = find_zero_pairs(core, opts.tol_pair, opts.tol_root)
    return core, _factor_arrays(group_flip_units(pairing).units), pairing.scale


def _refuse_beyond(count: int, budget: int, what: str) -> None:
    if count > budget:
        raise SearchSpaceTooLarge(f"{count} {what} exceed the budget of {budget}")


def check_support_budget(length: int) -> None:
    """Raise SearchSpaceTooLarge for `length` nonnegative lags whose candidates
    must exceed CANDIDATE_BUDGET, before any root finding.

    They hold d = length - 1 reflected zero pairs, and a flip unit holds at
    most two, so there are at least ceil(d/2) units and 2^(ceil(d/2) - 1)
    candidates. Compared by exponent: the count can be astronomically large.
    """
    least = length // 2 - 1  # ceil(d/2) - 1
    if least >= CANDIDATE_BUDGET.bit_length():
        raise SearchSpaceTooLarge(
            f"{length} lags give at least 2^{least} candidates, "
            f"beyond the budget of {CANDIDATE_BUDGET}"
        )


def _residual_error(count: int, worst: float, masks) -> ResidualExceeded:
    """ResidualExceeded for `count` candidates, listing the first masks of `masks`."""
    return ResidualExceeded(
        f"{count} candidate(s) fail to reproduce the autocorrelation "
        f"(worst residual {worst:.3e})",
        bitmasks=list(itertools.islice(masks, MAX_LISTED_MASKS)),
    )


def _gated_table(masks: np.ndarray, coeffs: np.ndarray, factors, m: int, tol_resid: float):
    """(masks, signals, residuals) of the monic products `coeffs`, one row per mask:
    scaled, signed, gated against the trimmed autocorrelation, zero-padded to m."""
    core, _, scale = factors
    vals = _scale_rows(coeffs, scale)
    residuals = _residual_rows(vals, core)
    if not (residuals <= tol_resid).all():  # a nan residual fails too
        over = ~(residuals <= tol_resid)
        raise _residual_error(int(over.sum()), float(residuals.max()), masks[over].tolist())
    if vals.shape[1] < m:
        vals = np.hstack([vals, np.zeros((masks.size, m - vals.shape[1]))])
    return masks, vals, residuals


def _full_table(r: Autocorr1D, factors, tol_resid: float):
    """(masks, signals, residuals) of every candidate, from one full table."""
    if factors is None:
        return np.zeros(1, np.int64), np.zeros((1, r.m)), np.zeros(1)
    count = 1 << max(len(factors[1]) - 1, 0)
    _refuse_beyond(count * r.m, MATERIALIZE_BUDGET, "candidate entries")
    masks = np.arange(count, dtype=np.int64) << 1
    table = _zero_product_table(factors[1], pinned=True)
    return _gated_table(masks, table, factors, r.m, tol_resid)


def _split(factors) -> bool:
    """Whether solve and census take the half tables; up to the crossover one
    full table costs less."""
    return factors is not None and len(factors[1]) > CROSSOVER_UNITS


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
        core, self.unit_factors, self.scale = factors
        u = len(self.unit_factors)
        self.total = 1 << (u - 1)
        _refuse_beyond(self.total, CANDIDATE_BUDGET, "candidates")
        self.a = (u - 1) // 2
        self.A = _zero_product_table(self.unit_factors[:self.a + 1], pinned=True)
        self.B = _zero_product_table(self.unit_factors[self.a + 1:], pinned=False)
        self._gate(core, tol_resid)

    def masks(self, j: np.ndarray, i: np.ndarray) -> np.ndarray:
        return (j << (self.a + 1)) | (i << 1)

    def _gate(self, core: Autocorr1D, tol: float) -> None:
        with np.errstate(all="ignore"):  # inf and nan rows fail below
            norm = [_autocorr_rows(T) / np.abs(T[:, :1]) for T in (self.A, self.B)]
            (dev_a, peak_a), (dev_b, peak_b) = ((np.abs(h - h[0]), np.abs(h[0]).max())
                                                for h in norm)
            sides = [np.concatenate([h[0, :0:-1], h[0]]) for h in norm]
            full = abs(self.scale) * np.convolve(*sides)[core.m - 1:]
            gap = np.abs(full - core.nonneg).max() / core.max_abs
            # division by a peak is monotone, so a row's gap passes when the largest does
            if gap <= tol >= dev_a.max() / peak_a and dev_b.max() / peak_b <= tol:
                return
            gaps = [dev_a.max(axis=1) / peak_a, dev_b.max(axis=1) / peak_b]
        bad_a, bad_b = (~(g <= tol) for g in gaps)
        if not gap <= tol:
            bad_a[:] = True
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
            lo, hi = max(0, k - wb + 1), min(k, wa - 1) + 1  # t runs over lo..hi-1
            corners.append((np.arange(k - lo, k - hi, -1), np.ascontiguousarray(A[:, lo:hi].T)))
        (b1, a1), (b2, a2) = corners
        inv_a = abs(self.scale) / np.abs(A[:, 0])
        step = max(1, CHUNK_PRODUCTS >> self.a)
        for j0 in range(0, B.shape[0], step):
            chunk = B[j0:j0 + step]
            f = (chunk[:, b1] @ a1) * (chunk[:, b2] @ a2)
            f *= inv_a
            f /= np.abs(chunk[:, :1])
            yield j0, f

    def rows(self, masks: np.ndarray, i: np.ndarray) -> np.ndarray:
        """Monic products of candidates (masks, A rows i), expanded as the full table would."""
        return _expand_zero_products(self.unit_factors, masks, self.a + 1, self.A[i])


def enumerate_candidates(r: Autocorr1D, opts: SolverOptions | None = None) -> Candidates:
    """All candidate signals with autocorrelation r, one per equivalence class.

    Candidates are ordered by ascending flip mask, signed so that entry 0 is
    positive, and validated against r; a violation raises ResidualExceeded
    listing the offending masks. Vanishing extreme lags mean the underlying
    signal has shorter support: those lags are trimmed, the short problem is
    solved, and candidates are padded back with trailing zeros.
    """
    opts = opts or SolverOptions()
    return Candidates(*_full_table(r, _factor(r, opts), opts.tol_resid))


def _matches_constraint(products: np.ndarray, c: float, tol_match: float,
                        scale_floor: float) -> np.ndarray:
    """Mask of products within tol_match * max(|c|, scale_floor) of c; all when infinite."""
    if math.isinf(tol_match):
        return np.ones(products.shape, dtype=bool)
    return np.abs(products - c) <= tol_match * max(abs(c), scale_floor)


def filter_by_constraint(
    candidates: Candidates,
    c: float,
    n: int,
    tol_match: float = DEFAULT_TOL_MATCH,
    scale_floor: float = 0.0,
) -> Candidates:
    """Candidates whose constraint product matches c, in the original order."""
    m = candidates.values.shape[1]
    if m != n * n or candidates.f_values is None:
        raise ValueError(f"candidate length {m} is not {n}x{n} with n >= 2")
    keep = _matches_constraint(candidates.f_values, c, tol_match, scale_floor)
    return Candidates(candidates.flips[keep], candidates.values[keep],
                      candidates.autocorr_residuals[keep])


@dataclass(frozen=True, eq=False)
class SolveReport:
    n: int
    candidates_total: int
    matches: Candidates
    solution: Matrix2D | None
    unique: bool
    residuals: list[float]
    key_constraint_value: float
    tolerances: dict

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "candidates_total": self.candidates_total,
            "matches": self.matches,  # a Candidates table, which jsonio.dumps writes
            "solution": None if self.solution is None else self.solution.to_dict(),
            "unique": self.unique,
            "residuals": [float(v) for v in self.residuals],
            "key_constraint_value": float(self.key_constraint_value),
            "tolerances": dict(self.tolerances),
        }


def _survivors(r: Autocorr1D, n: int, c: float, tol: float, floor: float, opts: SolverOptions):
    """Candidate count, then (masks, signals, residuals) of the candidates whose
    constraint product lies within tol of c (see _matches_constraint)."""
    factors = _factor(r, opts)
    if not _split(factors):
        masks, vals, residuals = _full_table(r, factors, opts.tol_resid)
        keep = _matches_constraint(_constraint_products(vals), c, tol, floor)
        return masks.size, (masks[keep], vals[keep], residuals[keep])

    halves = _Halves(factors, opts.tol_resid)
    hits, count = [], 0
    for j0, f in halves.products(n):  # every chunk's hits are counted before any is expanded
        j, i = np.nonzero(_matches_constraint(f, c, tol, floor))
        count += i.size
        _refuse_beyond(count * r.m, MATERIALIZE_BUDGET, "survivor entries")
        hits.append((halves.masks(j + j0, i), i))
    masks, i = hits[0] if len(hits) == 1 else (np.concatenate(a) for a in zip(*hits))
    return halves.total, _gated_table(masks, halves.rows(masks, i), factors, r.m, opts.tol_resid)


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
    total, (masks, vals, resid) = _survivors(r, n, c, PREFILTER_SLACK * opts.tol_match, floor, opts)
    keep = _matches_constraint(_constraint_products(vals), c, opts.tol_match, floor)
    matches = Candidates(masks[keep], vals[keep], resid[keep])
    tolerances = opts.to_dict()
    tolerances["scale_floor"] = floor
    report = SolveReport(
        n=n,
        candidates_total=total,
        matches=matches,
        solution=Matrix2D(n, matches.values[0]) if matches else None,
        unique=len(matches) == 1,
        residuals=resid.tolist(),
        key_constraint_value=c,
        tolerances=tolerances,
    )
    if not matches:
        raise NoMatch(
            f"none of {total} candidates matches the corner constraint {c:.6g}",
            report=report,
        )
    return report


@dataclass(frozen=True, eq=False)
class CensusData:
    """Sorted normalized constraint products of every candidate, with log gaps."""

    d: np.ndarray
    v: np.ndarray  # log of consecutive gaps; nan marks a gap of zero (or below)
    n: int


def _census_from_products(products: np.ndarray, n: int) -> CensusData:
    d = np.sort(np.asarray(products, dtype=float))
    top = d[-1]
    if top != 0.0:
        d = d / top
    gaps = np.diff(d)
    # math.log, since np.log differs from it in the last bit on some values
    v = np.array([math.log(g) if g > 0 else math.nan for g in gaps.tolist()])
    return CensusData(d=d, v=v, n=n)


def ambiguity_census(r: Autocorr1D, n: int, opts: SolverOptions | None = None) -> CensusData:
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
        _, vals, _ = _full_table(r, factors, opts.tol_resid)
        return _census_from_products(_constraint_products(vals), n)
    halves = _Halves(factors, opts.tol_resid)
    # one value per candidate, then a CSV line each: the budget of enumerate
    _refuse_beyond(halves.total * r.m, MATERIALIZE_BUDGET, "candidate entries")
    products = np.empty(halves.total)
    for j0, f in halves.products(n):
        products[j0 * f.shape[1]:(j0 + f.shape[0]) * f.shape[1]] = f.ravel()
    return _census_from_products(products, n)


@dataclass(frozen=True)
class ProbeResult:
    f1_norm: float
    f2_norm: float
    diff_norm: float
    predicted: float

    def to_dict(self) -> dict:
        return self.__dict__.copy()


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
