"""Candidate enumeration, constraint filtering, and the end-to-end 2D solver.

Fixing the first flip unit removes the reversal twin of every candidate, so
u units yield 2^(u-1) candidates, one per nontrivial equivalence class.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .core import Autocorr1D, Autocorr2D, Matrix2D, _freeze, _trusted
from .errors import NoMatch, ResidualExceeded, SearchSpaceTooLarge
from .polyfactor import (
    CACHED_DEGREES,
    CHUNK_PRODUCTS,
    DEFAULT_TOL_PAIR,
    DEFAULT_TOL_ROOT,
    Candidates,
    associated_polynomial,
    elementary_symmetric,
    find_zero_pairs,
    _autocorr_rows,
    _constraint_products,
    _eigvals,
    _residual_rows,
    _scale_row,
    _scale_rows,
    _unit_lowers,
    _zero_product_table,
)
from .reduction import _constraint_entries, _reduce_entries

DEFAULT_TOL_RESID = 1e-6
DEFAULT_TOL_MATCH = 1e-6
# Up to this many flip units solve and census take one full table; past it solve
# joins on the edge row (half tables at a zero endpoint), census takes half tables.
# tools/regime_timing.py (README, 2 cores) measures u = 5 and 9 only, not 8: a solve from
# magnitudes took 135 us by the full table and 149 by the join at u = 5, 223 and 192 at u = 9.
CROSSOVER_UNITS = 8
# Largest candidate count (2^(u-1)) the half-table path takes on.
CANDIDATE_BUDGET = 1 << 27
# Largest candidate count times candidate length that enumerate, census or the
# survivors of a solve may reach: each entry costs about 58 bytes on the way to
# the CLI's text, which `dumps` holds twice at its peak, the table's and the
# payload's (measured at n = 6, README), so this caps a run at about 1 GB.
MATERIALIZE_BUDGET = 1 << 24
# Past the crossover, a solve of a full support expands the candidates whose
# edge-row keys (see _joined) match a split of the edge zeros: each key p_k
# within JOIN_RTOL times the largest |p_k| a candidate can reach.
JOIN_RTOL = 1e-9
# Largest (rows of the larger half table) x (edge splits) the join takes on, and
# largest (pairs it checks) x (flip units) x (keys), the Python terms of the checks.
JOIN_BUDGET = 1 << 25
# Edge zeros this close to one another, relative to max(1, |z|), are one double
# zero: it comes back from the eigenvalues as two reals or a conjugate pair
# about 1e-8 apart, and each member is replaced by their mean (real for a pair).
EDGE_DOUBLE_RTOL = 1e-6
# A survivor fits the lag grid when each entry is within GRID_RTOL * max|r|
# (max|r| = R(0,0) = max|R| for an autocorrelation).
GRID_RTOL = 1e-8
# A ResidualExceeded lists at most this many flip masks.
MAX_LISTED_MASKS = 1 << 16


@dataclass(frozen=True)
class SolverOptions:
    tol_root: float = DEFAULT_TOL_ROOT
    tol_pair: float = DEFAULT_TOL_PAIR
    tol_resid: float = DEFAULT_TOL_RESID

    def __post_init__(self):
        for name, value in self.__dict__.items():  # in field order
            if not value > 0:  # nan fails too
                raise ValueError(f"{name} must be positive, got {value}")
            if value == math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")

    def to_dict(self) -> dict:
        return self.__dict__.copy()


def _units(r: Autocorr1D, opts: SolverOptions, join: bool = False):
    """(autocorrelation trimmed to its support, its flip units as _unit_lowers'
    coefficient pairs, extreme lag); None if r == 0. With `join`, a full
    support is checked against the join's budget instead of the candidates'."""
    if r.max_abs == 0.0:
        return None
    core = associated_polynomial(r)
    check_support_budget(core.m, join and core is r)
    pairing = find_zero_pairs(core, opts.tol_pair, opts.tol_root)
    return core, _unit_lowers(pairing), pairing.scale


def _refuse_beyond(count: int, budget: int, what: str) -> None:
    if count > budget:
        raise SearchSpaceTooLarge(f"{count} {what} exceed the budget of {budget}")


def check_support_budget(length: int, join: bool = False) -> None:
    """Raise SearchSpaceTooLarge for `length` nonnegative lags whose candidates
    must exceed CANDIDATE_BUDGET, or with `join` whose join must exceed
    JOIN_BUDGET, before any root finding.

    They hold d = length - 1 reflected zero pairs, and a flip unit holds at
    most two, so there are at least u = ceil(d/2) units, 2^(u - 1) candidates,
    and 2^(u // 2) rows in the larger half table times at least one split.
    Compared by exponent: the count can be astronomically large.
    """
    units = length // 2  # ceil(d/2)
    least, what, budget = ((units // 2, "rows in a half table", JOIN_BUDGET) if join
                           else (units - 1, "candidates", CANDIDATE_BUDGET))
    if least >= budget.bit_length():
        raise SearchSpaceTooLarge(
            f"{length} lags give at least 2^{least} {what}, beyond the budget of {budget}"
        )


def _residual_error(count: int, worst: float, masks) -> ResidualExceeded:
    """ResidualExceeded for `count` candidates, listing the first masks of `masks`."""
    return ResidualExceeded(
        f"{count} candidate(s) fail to reproduce the autocorrelation "
        f"(worst residual {worst:.3e})",
        bitmasks=list(itertools.islice(masks, MAX_LISTED_MASKS)),
    )


def _gated_table(masks: np.ndarray, vals: np.ndarray, core: Autocorr1D, m: int,
                 tol_resid: float):
    """(masks, signals, residuals) of the scaled, signed candidate signals `vals`, one
    row per mask: gated against the trimmed autocorrelation `core`, zero-padded to m."""
    residuals = _residual_rows(vals, core)
    if not (residuals <= tol_resid).all():  # a nan residual fails too
        over = ~(residuals <= tol_resid)
        raise _residual_error(int(over.sum()), float(residuals.max()), masks[over].tolist())
    if vals.shape[1] < m:
        vals = np.hstack([vals, np.zeros((masks.size, m - vals.shape[1]))])
    return masks, vals, residuals


def _full_table(r: Autocorr1D, found, tol_resid: float):
    """(masks, signals, residuals) of every candidate, from one full table of
    _units' `found`."""
    if found is None:
        return np.zeros(1, np.int64), np.zeros((1, r.m)), np.zeros(1)
    core, lowers, scale = found
    count = 1 << max(len(lowers) - 1, 0)
    _refuse_beyond(count * r.m, MATERIALIZE_BUDGET, "candidate entries")
    masks = np.arange(count, dtype=np.int64) << 1
    table = _scale_rows(_zero_product_table(lowers, pinned=True), scale)
    return _gated_table(masks, table, core, r.m, tol_resid)


def _split(found) -> bool:
    """Whether solve and census go past the full table (see CROSSOVER_UNITS)."""
    return found is not None and len(found[1]) > CROSSOVER_UNITS


class _Halves:
    """Candidates as products of two half tables.

    A holds units 0..a (unit 0 unflipped) and B units a+1..u-1, with
    a = (u-1)//2; candidate (i, j) is A row i times B row j, its mask is
    (j << (a+1)) | (i << 1), and row-major order over (j, i) is ascending mask
    order. `_gate` checks every candidate's autocorrelation at the cost of the
    halves: flipping zeros only rescales a row's autocorrelation by the same
    factor as its constant coefficient, so each normalized half row must equal
    row 0's, and candidate 0, A row 0 times B row 0, must reproduce r.
    """

    def __init__(self, found):
        _, lowers, self.scale = found
        u = len(lowers)
        self.total = 1 << (u - 1)
        _refuse_beyond(self.total, CANDIDATE_BUDGET, "candidates")
        self.a = (u - 1) // 2
        self.A = _zero_product_table(lowers[:self.a + 1], pinned=True)
        self.B = _zero_product_table(lowers[self.a + 1:], pinned=False)

    def masks(self, j: np.ndarray, i: np.ndarray) -> np.ndarray:
        return (j << (self.a + 1)) | (i << 1)

    def _gate(self, core: Autocorr1D, tol: float) -> None:
        with np.errstate(all="ignore"):  # inf and nan rows fail below
            norm = [_autocorr_rows(T) / np.abs(T[:, :1]) for T in (self.A, self.B)]
            (dev_a, peak_a), (dev_b, peak_b) = ((np.abs(h - h[0]), np.abs(h[0]).max())
                                                for h in norm)
            first = _scale_rows(np.convolve(self.A[0], self.B[0])[None], self.scale)
            gap = _residual_rows(first, core)[0]
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


# --- the edge-row join ------------------------------------------------------------
# The grid's last lag row R(n-1, j) is the cross-correlation of X's last row
# with its first: sum_j R(n-1, j) z^(j+n-1) = X_{n-1}(z) z^(n-1) X_0(1/z). Its
# 2n-2 zeros are the last row's zeros and the reciprocals of the first row's.
# A "split" picks n-1 of them, conjugates together, as the last row's. The
# last row is the top n coefficients of the flattened signal, so by Newton's
# identities the split fixes the power sums p_k, k = 1..n-1, of the signal's
# zeros. Power sums add over flip units: a candidate's key is the sum of its
# units' keys. Flipping a unit swaps its b^k and b^-k terms, so p_k(1/beta) is
# the same total minus p_k(beta) for every candidate, and the other half of
# the edge row adds nothing.


@functools.lru_cache(maxsize=CACHED_DEGREES)
def _split_members(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every choice of n-1 of the 2n-2 edge zeros, in lexicographic order: as 0/1
    rows, and as bitmasks (bit k for zero k)."""
    chosen = np.array(list(itertools.combinations(range(2 * n - 2), n - 1)))
    members = np.zeros((chosen.shape[0], 2 * n - 2))
    np.put_along_axis(members, chosen, 1.0, axis=1)
    return _freeze(members), _freeze(np.bitwise_or.reduce(1 << chosen, axis=1))


# the conjugate patterns of n <= 5: at most 13 of 6 edge zeros and 34 of 8
@functools.lru_cache(maxsize=64)
def _closed_splits(n: int, pairs: int) -> np.ndarray:
    """The 0/1 rows of _split_members(n) that hold both or neither of zeros k and
    k+1 for every bit k of `pairs`."""
    members, bits = _split_members(n)
    return _freeze(members[(bits ^ bits >> 1) & pairs == 0])


@functools.lru_cache(maxsize=CACHED_DEGREES)
def _companion_base(d: int) -> np.ndarray:
    """The d-square companion matrix before its first row is set: ones below the diagonal."""
    return _freeze(np.eye(d, k=-1))


def _edge_zeros(R: Autocorr2D) -> list[complex]:
    """Zeros of the edge polynomial, conjugate pairs adjacent, each replaced by
    the mean of the zeros within EDGE_DOUBLE_RTOL of it (exact conjugates stay
    exact conjugates). Its leading coefficient R(n-1, n-1) = X(0,0) X(n-1,n-1)
    is nonzero at full support."""
    edge = R.values[-1]
    companion = _companion_base(edge.size - 1).copy()
    companion[0] = -edge[-2::-1] / edge[-1]
    zs = _eigvals(companion, "companion").tolist()
    tols = [EDGE_DOUBLE_RTOL * max(1.0, abs(z)) for z in zs]
    if all(abs(w - z) > tol for k, (z, tol) in enumerate(zip(zs, tols)) for w in zs[k + 1:]):
        return zs
    near = [[w for w in zs if abs(w - z) <= tol] for z, tol in zip(zs, tols)]
    return [sum(group) / len(group) for group in near]


def _edge_targets(R: Autocorr2D) -> np.ndarray:
    """p_1..p_{n-1} of every conjugate-closed split of the edge zeros, one row each."""
    zs = _edge_zeros(R)
    # each pair comes as zeros k, k+1 = z, conj(z)
    closed = _closed_splits(R.n, sum(1 << k for k, z in enumerate(zs) if z.imag > 0))
    powers = []
    for z in zs:
        power, row = z, []
        for _ in range(R.n - 1):
            row.append(power.real)
            power *= z
        powers.append(row)
    return closed @ np.array(powers)


def _mask_key(lowers, mask: int, k: int) -> list[float]:
    """p_1..p_k of the zeros of candidate `mask`: over its units, Newton's
    identities on the chosen factor, z + c0 (p_j = (-c0)^j) or z^2 + c1 z + c0
    (p_j = -c1 p_{j-1} - c0 p_{j-2}, p_0 = 2)."""
    key = [0.0] * k
    for unit, choices in enumerate(lowers):
        lower = choices[mask >> unit & 1]
        if len(lower) == 1:
            z, power = -lower[0], 1.0
            for j in range(k):
                power *= z
                key[j] += power
        else:
            c0, c1 = lower
            prev, cur = 2.0, -c1
            for j in range(k):
                key[j] += cur
                prev, cur = cur, -c1 * cur - c0 * prev
    return key


def _reach(lowers, k: int) -> list[float]:
    """The largest |p_j| a candidate can have, j = 1..k: over units, the number
    of zeros times (the modulus of the unflipped ones, outside the circle)^j."""
    reach = [0.0] * k
    for unflipped, _ in lowers:
        d = len(unflipped)
        modulus = abs(unflipped[0]) if d == 1 else math.sqrt(unflipped[0])
        power = 1.0
        for j in range(k):
            power *= modulus
            reach[j] += d * power
    return reach


def _sum_table(sums: np.ndarray, pinned: bool) -> np.ndarray:
    """Per mask over the units of `sums` (p_1 unflipped and flipped, one column a
    unit), the sum of the chosen p_1, in _zero_product_table's row order."""
    table = sums[:1, 0] if pinned else sums[:, 0]
    for choices in sums.T[1:]:
        table = (choices[:, None] + table).ravel()
    return table


def _join(lowers, a: int, targets: np.ndarray, tol: list[float]) -> list[int]:
    """Ascending masks of the candidates whose key is within tol of a split's
    target in every coordinate.

    The half tables hold p_1 only: one search of target - A row on the sorted
    B rows, CHUNK_PRODUCTS queries at a time, finds the pairs within tol of a
    target there, and each pair's whole key is checked on Python floats.
    """
    k = targets.shape[1]
    sums = np.array([[-x[-1] for x, _ in lowers], [-y[-1] for _, y in lowers]])
    key_a, key_b = _sum_table(sums[:, :a + 1], pinned=True), _sum_table(sums[:, a + 1:], False)
    order = np.argsort(key_b)
    b = key_b[order]
    step = max(1, CHUNK_PRODUCTS // key_a.size)
    wanted, found, pairs = targets.tolist(), set(), 0
    for s0 in range(0, len(wanted), step):
        query = (targets[s0:s0 + step, :1] - key_a).ravel()
        lo = b.searchsorted(query - tol[0])
        count = b.searchsorted(query + tol[0], "right") - lo
        hit = np.flatnonzero(count)
        pairs += int(count.sum())
        _refuse_beyond(pairs * len(lowers) * k, JOIN_BUDGET, "terms of join pairs")
        for q, first, last in zip(hit.tolist(), lo[hit].tolist(), (lo + count)[hit].tolist()):
            s, i = divmod(q, key_a.size)
            for j in order[first:last].tolist():
                mask = j << (a + 1) | i << 1
                key = _mask_key(lowers, mask, k)
                if all(abs(p - t) <= e for p, t, e in zip(key, wanted[s0 + s], tol)):
                    found.add(mask)
    return sorted(found)


def _expand_masks(lowers, masks: list[int]) -> list[list[float]]:
    """Each mask's row of _zero_product_table, bit for bit, on Python floats: each
    unit's factor is applied as _multiply_factor_rows applies it."""
    rows = []
    for mask in masks:
        c = [1.0]
        for k, choices in enumerate(lowers):
            # c shifted up by d, plus lower[0] * c, then plus lower[1] * c shifted up by 1
            if len(choices[0]) == 1:
                (c0,) = choices[mask >> k & 1]
                c = [o + c0 * x for o, x in zip([0.0] + c, c)] + c[-1:]
            else:
                c0, c1 = choices[mask >> k & 1]
                base = [0.0, 0.0] + c
                c = ([base[0] + c0 * c[0]]
                     + [(b + c0 * x) + c1 * y for b, x, y in zip(base[1:], c[1:], c)]
                     + [base[-2] + c1 * c[-1], base[-1]])
        rows.append(c)
    return rows


def _expanded(masks: list[int], found, m: int, tol_resid: float):
    """(masks, signals, residuals) of the candidates `masks`, ascending, of _units'
    `found`: expanded (_expand_masks) and scaled (_scale_row), then _gated_table."""
    core, lowers, scale = found
    rows = [_scale_row(row, scale) for row in _expand_masks(lowers, masks)]
    vals = np.array(rows).reshape(len(masks), core.m)
    return _gated_table(np.array(masks, dtype=np.int64), vals, core, m, tol_resid)


def _joined(R: Autocorr2D, found, tol_resid: float):
    """Candidate count, then (masks, signals, residuals) of the candidates whose
    keys match a split of the edge zeros, in ascending mask order. Past the
    crossover at full support only (`found` as _units gives it); the units are
    split into halves as _Halves splits them."""
    core, lowers, _ = found
    u, k = len(lowers), R.n - 1
    a = (u - 1) // 2
    targets = _edge_targets(R)
    _refuse_beyond((1 << (u - 1 - a)) * len(targets), JOIN_BUDGET,
                   "half-table rows times edge splits")
    masks = _join(lowers, a, targets, [JOIN_RTOL * v for v in _reach(lowers, k)])
    _refuse_beyond(len(masks) * core.m, MATERIALIZE_BUDGET, "survivor entries")
    return 1 << (u - 1), _expanded(masks, found, core.m, tol_resid)


@functools.lru_cache(maxsize=CACHED_DEGREES)
def _grid_terms(n: int) -> tuple:
    """(first, second, spans): grid entry R(i, j), i = 1..n-1 and j = -(n-1)..-1 in
    row-major order, of a flattened n-by-n signal y is the sum of the products
    first(y)[t] * second(y)[t] over t in its span."""
    first, second, spans = [], [], []
    for i in range(1, n):
        for j in range(1 - n, 0):
            start = len(first)
            for p in range(n - i):
                for q in range(-j, n):
                    first.append(p * n + q)
                    second.append((p + i) * n + q + j)
            spans.append((start, len(first)))
    # a spare product past the last span keeps the getters' results tuples when n = 2
    return operator.itemgetter(*first, 0), operator.itemgetter(*second, 0), tuple(spans)


def _grid_fits(vals: np.ndarray, flat: list[float], scale: float) -> np.ndarray:
    """Mask of the rows of `vals` (flattened n-by-n signals) whose 2D autocorrelation
    fits the lag grid whose entries, row by row as Python floats, are `flat`.

    Every row reproduces r, so the grid is fixed by the (n-1)^2 entries that
    the reduction sums away, R(i, j) with i >= 1 and j <= -1, the corner among
    them: R.values[n:, :n-1]. A row fits when each, summed on Python floats, is
    within GRID_RTOL * scale; scale is max|r|, which is R(0,0) = max|R| for an
    autocorrelation. A nan fails.
    """
    side = math.isqrt(len(flat))
    n = (side + 1) // 2
    first, second, spans = _grid_terms(n)
    want = [w for start in range(n * side, side * side, side) for w in flat[start:start + n - 1]]
    bound = GRID_RTOL * scale
    fits = []
    for y in vals.tolist():
        products = list(map(operator.mul, first(y), second(y)))
        fits.append(all(abs(sum(products[a:b]) - w) <= bound for (a, b), w in zip(spans, want)))
    return np.array(fits, dtype=bool)


def enumerate_candidates(r: Autocorr1D, opts: SolverOptions | None = None) -> Candidates:
    """All candidate signals with autocorrelation r, one per equivalence class.

    Candidates are ordered by ascending flip mask, signed so that entry 0 is
    positive, and validated against r; a violation raises ResidualExceeded
    listing the offending masks. Vanishing extreme lags mean the underlying
    signal has shorter support: those lags are trimmed, the short problem is
    solved, and candidates are padded back with trailing zeros.
    """
    opts = opts or SolverOptions()
    # gated rows: int64 masks, a (k, m) float table with m >= 1, k float residuals
    return _trusted(Candidates, *_full_table(r, _units(r, opts), opts.tol_resid))


def filter_by_constraint(
    candidates: Candidates,
    c: float,
    n: int,
    tol_match: float = DEFAULT_TOL_MATCH,
    scale_floor: float = 0.0,
) -> Candidates:
    """Candidates whose constraint product lies within tol_match * max(|c|,
    scale_floor) of c (all when tol_match is infinite), in the original order.
    tol_match must be >= 0, and scale_floor finite and >= 0."""
    m = candidates.values.shape[1]
    if m != n * n or candidates.f_values is None:
        raise ValueError(f"candidate length {m} is not {n}x{n} with n >= 2")
    if not (tol_match >= 0 and 0 <= scale_floor < math.inf):  # nan fails both
        raise ValueError(f"tol_match must be >= 0 and scale_floor finite and >= 0, "
                         f"got {tol_match!r} and {scale_floor!r}")
    keep = (np.ones(len(candidates), dtype=bool) if math.isinf(tol_match) else
            np.abs(candidates.f_values - c) <= tol_match * max(abs(c), scale_floor))
    # rows of a checked table, each a fresh copy by boolean indexing
    return _trusted(Candidates, candidates.flips[keep], candidates.values[keep],
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


def _survivors(R: Autocorr2D, r: Autocorr1D, c: float, opts: SolverOptions):
    """Candidate count, then (masks, signals, residuals) of the candidates the grid
    decides among: up to the crossover, the full table's rows whose corner product
    lies within the grid's bound on the corner entry, GRID_RTOL * max|r| of c (see
    _grid_fits); past it, the join's hits at full support, else the half-table
    candidates whose corner product lies in that band."""
    found = _units(r, opts, join=True)
    bound = GRID_RTOL * r.max_abs
    if not _split(found):
        masks, vals, residuals = _full_table(r, found, opts.tol_resid)
        # the same float product and test as the grid's on its corner: no fit is dropped
        keep = np.abs(_constraint_products(vals) - c) <= bound
        return masks.size, (masks[keep], vals[keep], residuals[keep])
    elif found[0] is r:
        return _joined(R, found, opts.tol_resid)
    else:
        # Half-table products differ from the rows' by rounding, within 2.3e-13 * max|r|
        # (README), far inside the band. Only the rows expanded are checked against r, as
        # the join checks its hits, and they are expanded as the join expands them.
        halves = _Halves(found)
        masks = []
        with np.errstate(invalid="ignore"):  # the products of an inf or nan row lie in no band
            for j0, f in halves.products(R.n):  # all hits are counted before any expansion
                j, i = np.nonzero(np.abs(f - c) <= bound)
                _refuse_beyond((len(masks) + i.size) * r.m, MATERIALIZE_BUDGET, "survivor entries")
                masks += halves.masks(j + j0, i).tolist()
        return halves.total, _expanded(masks, found, r.m, opts.tol_resid)


def solve_2d(R: Autocorr2D, opts: SolverOptions | None = None) -> SolveReport:
    """Recover an n-by-n signal from its autocorrelation grid.

    Reduces the grid to the 1D problem and picks the survivors: past
    CROSSOVER_UNITS flip units at full support, the candidates whose keys
    match a split of the edge row's zeros (see _joined); otherwise those whose
    corner product lies within the grid's bound on the corner, GRID_RTOL *
    max|r| of c. Only they are expanded to rows, and the whole grid decides
    among them: the matches are the survivors that fit R within GRID_RTOL.
    Exactly one match means the signal is determined up to sign and half-turn
    rotation; several are reported as ambiguous. No match raises NoMatch
    carrying the report. The solve does not read the tol_match and
    scale_floor that `tolerances` lists (see filter_by_constraint).
    """
    opts = opts or SolverOptions()
    n = R.n
    flat = _constraint_entries(R)  # refuses n < 2 and an asymmetric grid
    c = flat[1 - 2 * n]
    r = _reduce_entries(n, flat)
    total, (masks, vals, resid) = _survivors(R, r, c, opts)
    fit = _grid_fits(vals, flat, r.max_abs)
    # gated rows: int64 masks, finite signals that reproduce r, residuals within tol_resid
    matches = _trusted(Candidates, masks[fit], vals[fit], resid[fit])
    tolerances = dict(opts.to_dict(), tol_match=DEFAULT_TOL_MATCH, scale_floor=1e-9 * r.max_abs,
                      join_rtol=JOIN_RTOL, grid_rtol=GRID_RTOL)
    report = SolveReport(
        n=n,
        candidates_total=total,
        matches=matches,
        solution=_trusted(Matrix2D, n, matches.values[0].reshape(n, n)) if matches else None,
        unique=len(matches) == 1,
        residuals=resid.tolist(),
        key_constraint_value=c,
        tolerances=tolerances,
    )
    if not matches:
        raise NoMatch(
            f"none of {total} candidates fits the lag grid within {GRID_RTOL:.0e}",
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
    if d[-1] != 0.0:
        d = d / d[-1]
    gaps = np.diff(d)
    gaps[~(gaps > 0)] = math.nan  # whose math.log is nan
    # math.log, since np.log differs from it in the last bit on some values
    v = np.fromiter(map(math.log, gaps.tolist()), float, gaps.size)
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
    found = _units(r, opts)
    if not _split(found):
        _, vals, _ = _full_table(r, found, opts.tol_resid)
        return _census_from_products(_constraint_products(vals), n)
    # one value per candidate, then a CSV line each: the budget of enumerate, before any table
    _refuse_beyond((1 << (len(found[1]) - 1)) * r.m, MATERIALIZE_BUDGET, "candidate entries")
    halves = _Halves(found)
    halves._gate(found[0], opts.tol_resid)
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
        raise ValueError(
            f"probe alpha {alpha!r} is too large at n = {n}: the constraint products overflow"
        )

    def binom(i):
        return math.comb(n * n - i, n - i) if n - i >= 0 else 0

    predicted = binom(2) ** 2 - binom(1) * binom(3)
    return ProbeResult(float(f1), float(f2), float(f1 - f2), float(predicted))
