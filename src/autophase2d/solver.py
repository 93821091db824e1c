"""Candidate enumeration, constraint filtering, and the end-to-end 2D solver.

Fixing the first flip unit removes the reversal twin of every candidate, so
u units yield 2^(u-1) candidates, one per nontrivial equivalence class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Autocorr1D, Autocorr2D, Matrix2D, reshape_rowwise
from .errors import NoMatch, ResidualExceeded
from .polyfactor import (
    DEFAULT_TOL_CONJ,
    DEFAULT_TOL_PAIR,
    DEFAULT_TOL_ROOT,
    Candidate,
    associated_polynomial,
    elementary_symmetric,
    f_direct,
    find_zero_pairs,
    group_flip_units,
    _candidate_rows,
    _constraint_products,
    _residual_rows,
    _wrap_candidates,
)
from .reduction import key_constraint, reduce_2d_to_1d

DEFAULT_TOL_RESID = 1e-6
DEFAULT_TOL_MATCH = 1e-6
SUPPORT_RTOL = 1e-12


@dataclass(frozen=True)
class SolverOptions:
    tol_root: float = DEFAULT_TOL_ROOT
    tol_pair: float = DEFAULT_TOL_PAIR
    tol_conj: float = DEFAULT_TOL_CONJ
    tol_resid: float = DEFAULT_TOL_RESID
    tol_match: float = DEFAULT_TOL_MATCH

    def to_dict(self) -> dict:
        return {
            "tol_root": self.tol_root,
            "tol_pair": self.tol_pair,
            "tol_conj": self.tol_conj,
            "tol_resid": self.tol_resid,
            "tol_match": self.tol_match,
        }


def _support_length(r: Autocorr1D) -> int:
    """Largest lag carrying signal, measured against the overall scale."""
    cut = SUPPORT_RTOL * np.max(np.abs(r.values))
    half = np.abs(r.nonneg)
    live = np.nonzero(half > cut)[0]
    return int(live[-1]) + 1 if live.size else 0


def _candidate_arrays(r: Autocorr1D, opts: SolverOptions):
    """Flip masks, candidate rows and residuals behind enumerate_candidates."""
    m = r.m
    if np.max(np.abs(r.values)) == 0.0:
        return np.zeros(1, np.int64), np.zeros((1, m)), np.zeros(1)

    support = _support_length(r)
    core_r = r if support == m else Autocorr1D.from_nonneg(r.nonneg[:support])

    pairing = find_zero_pairs(associated_polynomial(core_r), opts.tol_pair, opts.tol_root)
    fu = group_flip_units(pairing, opts.tol_conj)
    u = fu.unit_count
    masks = (np.arange(1 << (u - 1), dtype=np.int64) << 1) if u else np.zeros(1, np.int64)

    vals = _candidate_rows(fu.units, masks, pairing.scale)
    residuals = _residual_rows(vals, core_r)
    if support < m:
        vals = np.hstack([vals, np.zeros((vals.shape[0], m - support))])

    over = residuals > opts.tol_resid
    if np.any(over):
        raise ResidualExceeded(
            f"{int(np.sum(over))} candidate(s) fail to reproduce the autocorrelation "
            f"(worst residual {float(np.max(residuals)):.3e})",
            bitmasks=masks[over].tolist(),
        )
    return masks, vals, residuals


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
    products = np.array([f_direct(y, n) for y in candidates], dtype=float)
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


def solve_2d(R: Autocorr2D, opts: SolverOptions | None = None) -> SolveReport:
    """Recover an n-by-n signal from its autocorrelation grid.

    Reduces the grid to the 1D problem, enumerates every candidate, and keeps
    those matching the corner constraint. Exactly one match means the signal
    is determined up to sign and half-turn rotation. No match raises NoMatch
    carrying the report.
    """
    opts = opts or SolverOptions()
    n = R.n
    c = key_constraint(R)
    r = reduce_2d_to_1d(R)
    masks, vals, residuals = _candidate_arrays(r, opts)
    floor = 1e-9 * float(np.max(np.abs(r.values)))
    keep = _matches_constraint(_constraint_products(vals, n), c, opts.tol_match, floor)
    matches = _wrap_candidates(masks[keep], vals[keep], residuals[keep])
    tolerances = opts.to_dict()
    tolerances["scale_floor"] = floor
    report = SolveReport(
        n=n,
        candidates_total=masks.size,
        matches=matches,
        solution=reshape_rowwise(matches[0].values, n) if matches else None,
        unique=len(matches) == 1,
        residuals=residuals.tolist(),
        key_constraint_value=c,
        tolerances=tolerances,
    )
    if not matches:
        raise NoMatch(
            f"none of {masks.size} candidates matches the corner constraint {c:.6g}",
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
    v = [math.log(g) if g > 0 else None for g in gaps]
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
    _, vals, _ = _candidate_arrays(r, opts or SolverOptions())
    return _census_from_products(_constraint_products(vals, n), n, seed)


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
    if not alpha > 10:
        raise ValueError("probe is an asymptotic statement; alpha must exceed 10")
    ones = [1.0] * (n * n - 3)
    base = [alpha, 1.0 / alpha] + ones
    moved = [alpha, alpha] + ones

    def product(zeros):
        e_low = elementary_symmetric(zeros, n - 1)
        e_high = elementary_symmetric([1.0 / z for z in zeros], n - 1)
        return (e_low * e_high).real

    f1 = product(base) / alpha**2
    f2 = product(moved) / alpha**2

    def binom(i):
        return math.comb(n * n - i, n - i) if n - i >= 0 else 0

    predicted = binom(2) ** 2 - binom(1) * binom(3)
    return ProbeResult(float(f1), float(f2), float(f1 - f2), float(predicted))
