"""Spectral factorization of a symmetric autocorrelation into candidate signals.

Reading the lag sequence as ascending polynomial coefficients gives a real
palindromic polynomial whose zeros come in pairs reflected about the unit
circle. Choosing one member from each pair determines a signal with that
autocorrelation. Real zeros flip on their own; complex zeros flip together
with their conjugates so that every candidate stays real.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg

from .core import Autocorr1D, _freeze
from .errors import RootFindingFailed, UnitCircleZero, UnpairedComplexZero, ZeroEndpoint

ENDPOINT_RTOL = 1e-12  # lags at or below this times max|r| count as zero

DEFAULT_TOL_ROOT = 1e-8
DEFAULT_TOL_PAIR = 1e-6

# _chebyshev_roots keeps the colleague-matrix bases of this many degrees.
CACHED_DEGREES = 16
# Entries per chunk of every chunked loop: padded rows (_autocorr_rows), the
# solver's half-table products, the oracle's search points, jsonio's cells.
CHUNK_PRODUCTS = 1 << 20

_SQRT_HALF = math.sqrt(0.5)


def associated_polynomial(r: Autocorr1D) -> Autocorr1D:
    """The lags as ascending coefficients (z^k holds lag k - (m-1)), a palindromic
    polynomial of degree 2m-2, with vanishing extreme lags trimmed.

    A lag at or below ENDPOINT_RTOL * max|r| counts as zero; trimming one
    divides out a zero at 0 and one at infinity: the signal has shorter support.
    Returns r itself at full support; raises ZeroEndpoint when every lag vanishes.
    """
    floor = ENDPOINT_RTOL * r.max_abs
    lags = r.nonneg.tolist()
    support = r.m
    while support and not abs(lags[support - 1]) > floor:
        support -= 1
    if not support:
        raise ZeroEndpoint(f"every lag vanishes (scale {r.max_abs:.3e})")
    return r if support == r.m else Autocorr1D.from_nonneg(r.nonneg[:support])


@dataclass(frozen=True, eq=False)
class ZeroPairing:
    """Zeros grouped into reflected pairs, keeping the representative outside the circle."""

    zeros: np.ndarray  # complex representatives, modulus >= 1
    root_residuals: np.ndarray  # per representative, the scaled residual of z and 1/z
    scale: float  # leading coefficient, i.e. the extreme lag value


@functools.lru_cache(maxsize=CACHED_DEGREES)
def _colleague_base(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The colleague matrix of degree d before its last-column update, and scl / scl[-1]."""
    mat = np.zeros((d, d))
    scl = np.array([1.0] + [_SQRT_HALF] * (d - 1))
    top = mat.reshape(-1)[1::d + 1]
    bot = mat.reshape(-1)[d::d + 1]
    top[0] = _SQRT_HALF
    top[1:] = 0.5
    bot[...] = top
    return _freeze(mat), _freeze(scl / scl[-1])


def _chebyshev_roots(a: np.ndarray) -> np.ndarray:
    """Zeros of the Chebyshev series sum_k a[k] T_k(x), as a complex array.

    The colleague matrix is built, and rotated, exactly as numpy's
    chebcompanion and chebroots do; numpy.polynomial itself is not imported
    because loading it costs import time and memory on every run. Real zeros
    come back with imaginary part exactly 0, complex ones as exact conjugates.

    The eigenvalues come from the LAPACK call np.linalg.eigvals makes, without
    its wrapper or the wrapper's finiteness check: find_zero_pairs keeps |a[-1]|
    above ENDPOINT_RTOL * max|a|, so no entry of the last column (nor the d = 1
    root) exceeds about 7e11. LAPACK non-convergence sets the invalid-value
    flag, as it does for np.linalg.eigvals, and raises RootFindingFailed here.
    """
    d = a.size - 1
    if d == 1:
        return np.array([-a[0] / a[1]], dtype=complex)
    base, ratio = _colleague_base(d)
    mat = base.copy()
    mat[:, -1] -= (a[:-1] / a[-1]) * ratio * 0.5
    return _eigvals(mat[::-1, ::-1], "colleague")


def _eigvals(mat: np.ndarray, name: str) -> np.ndarray:
    """Eigenvalues of a finite real matrix, conjugate pairs adjacent (positive
    imaginary part first), as LAPACK returns them; RootFindingFailed when they
    do not converge."""
    try:
        with np.errstate(all="ignore", invalid="raise"):
            return _umath_linalg.eigvals(mat, signature="d->D")
    except FloatingPointError:
        raise RootFindingFailed(f"eigenvalues of the {name} matrix did not converge") from None


def find_zero_pairs(
    P: Autocorr1D,
    tol_pair: float = DEFAULT_TOL_PAIR,
    tol_root: float = DEFAULT_TOL_ROOT,
) -> ZeroPairing:
    """Locate the zeros of the palindromic polynomial of P's lags as reflected pairs.

    Parameters
    ----------
    P : Autocorr1D
        Lags read as palindromic coefficients of even degree 2d = 2m-2, as
        associated_polynomial returns them: an extreme lag at or below
        ENDPOINT_RTOL * max|P| raises ZeroEndpoint.
    tol_pair : float
        Width of the unit-circle exclusion band: a zero z with
        ||z| - 1| <= tol_pair raises UnitCircleZero (the pair degenerates there).
    tol_root : float
        Bound on the scaled per-root residual of all 2d zeros; a larger
        residual raises RootFindingFailed.

    With x = (z + 1/z)/2, P(z)/(2 z^d) = c_d/2 + sum_{k>=1} c_{d+k} T_k(x): the
    lags are the Chebyshev coefficients, with the zero lag halved, so building
    the series cannot overflow. Its d zeros x give the pairs {z, 1/z} directly:
    z = x + sqrt(x^2 - 1) on the branch with |z| >= 1.
    """
    c = P.values
    if not abs(c[-1]) > ENDPOINT_RTOL * P.max_abs:
        raise ZeroEndpoint(f"extreme lag {c[-1]:.3e} vanishes relative to scale "
                           f"{P.max_abs:.3e}; associated_polynomial trims it")
    deg = c.size - 1
    if deg == 0:
        return ZeroPairing(np.empty(0, complex), np.empty(0), float(c[-1]))
    d = deg // 2
    series = c[d:].copy()
    series[0] /= 2
    x = _chebyshev_roots(series)
    s = np.sqrt((x - 1.0) * (x + 1.0))
    # |x + s| * |x - s| = 1; the sign with Re(x conj(s)) >= 0 picks |z| >= 1.
    z = [a - b if a.real * b.real + a.imag * b.imag < 0 else a + b
         for a, b in zip(x.tolist(), s.tolist())]
    z_arr = np.array(z)
    inside = 1.0 / z_arr

    # Residual of the max-normalized polynomial, deflated by max(1,|z|)^deg. For a
    # palindromic P, |P(z)| / |z|^deg = |P(1/z)|, so one evaluation inside the
    # circle serves both members of a pair. There |w| <= 1, so the powers in one
    # Vandermonde product cannot overflow; c read descending is c itself. The
    # matrix is built as np.vander builds it, powers descending along each row.
    vander = np.empty((d, deg + 1), complex)
    powers = vander[:, ::-1]
    powers[:, 0] = 1
    powers[:, 1:] = inside[:, None]
    np.multiply.accumulate(powers[:, 1:], out=powers[:, 1:], axis=1)
    residuals = np.abs(vander @ (c / P.max_abs))
    if not all(v <= tol_root for v in residuals.tolist()):  # a nan residual fails too
        raise RootFindingFailed(
            f"scaled root residual {float(residuals.max()):.3e} exceeds {tol_root:.1e}"
        )

    for w in z + inside.tolist():
        if not abs(abs(w) - 1.0) > tol_pair:
            raise UnitCircleZero(
                f"zero {w:.6g} lies within {tol_pair:.1e} of the unit circle; "
                "flipping is ill-defined there"
            )
    return ZeroPairing(z_arr, residuals, float(c[-1]))


@dataclass(frozen=True)
class RealZero:
    """Flip unit holding a single real zero."""

    value: float

    def factor(self, flipped: bool) -> tuple[float, ...]:
        """Lower coefficients, ascending, of the monic factor z - beta."""
        return (-(1.0 / self.value if flipped else self.value),)


@dataclass(frozen=True)
class ConjugatePair:
    """Flip unit holding a complex zero and its conjugate, flipped jointly."""

    value: complex  # representative with positive imaginary part

    def factor(self, flipped: bool) -> tuple[float, ...]:
        """Lower coefficients, ascending, of z^2 - 2 Re(b) z + |b|^2 for both members b."""
        z = 1.0 / self.value.conjugate() if flipped else self.value
        return (z.real * z.real + z.imag * z.imag, -2.0 * z.real)


@dataclass(frozen=True)
class FlipUnits:
    """Ordered flip units; bit k of a mask controls unit k."""

    units: tuple

    @property
    def unit_count(self) -> int:
        return len(self.units)


def group_flip_units(zp: ZeroPairing) -> FlipUnits:
    """Partition pair representatives into real zeros and conjugate pairs.

    Zeros with imaginary part exactly 0 are real. The rest must be closed
    under exact conjugation, as find_zero_pairs returns them; otherwise no
    real candidate exists and UnpairedComplexZero is raised. Each pair is
    represented by its member with positive imaginary part. Units are
    ordered by descending modulus, then real part, then imaginary part.
    """
    zs = zp.zeros.tolist()
    kept = sorted((z for z in zs if z.imag >= 0), key=_unit_order)
    # the sort is stable, so the upper members keep the order a sort of them alone gives
    lower = sorted((z.conjugate() for z in zs if z.imag < 0), key=_unit_order)
    if [z for z in kept if z.imag > 0] != lower:
        raise UnpairedComplexZero(
            f"complex zeros {zp.zeros[zp.zeros.imag != 0]} are not closed under conjugation"
        )
    # A list, not a generator: in a solve loop the generator form kept peak RSS higher.
    return FlipUnits(tuple([RealZero(z.real) if z.imag == 0 else ConjugatePair(z)
                            for z in kept]))


def _unit_order(z: complex) -> tuple[float, float, float]:
    """Descending modulus, then ascending real part, then ascending imaginary part."""
    return -abs(z), z.real, z.imag


# --- shared expansion kernel -------------------------------------------------
# Every path applies the units' factors in unit order with the same elementwise
# expressions, so a row of the doubling table, of a half table, or expanded alone
# on Python floats (solver._expand_masks) is the same row bit for bit.


def _multiply_factor_rows(coeffs: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """Multiply each row polynomial (ascending coeffs) by a monic real factor.

    Row i's factor is z^d + lower[..., i, d-1] z^(d-1) + ... + lower[..., i, 0].
    Leading axes of `lower` give one product table per factor, and a single
    row of it serves every row.
    """
    rows, width = coeffs.shape
    d = lower.shape[-1]
    out = np.zeros(lower.shape[:-2] + (rows, width + d))
    out[..., d:] = coeffs
    for j in range(d):
        out[..., j:j + width] += lower[..., j, None] * coeffs
    return out


def _factor_arrays(units) -> list[np.ndarray]:
    """Per flip unit, its factor's lower coefficients unflipped (row 0) and flipped (row 1).

    Each is a view of one two-row array: every unit's unflipped coefficients, in
    unit order, then every unit's flipped ones.
    """
    rows = [[unit.factor(flipped) for unit in units] for flipped in (False, True)]
    table = np.array([sum(row, ()) for row in rows])
    views, k = [], 0
    for factor in rows[0]:
        views.append(table[:, k:k + len(factor)])
        k += len(factor)
    return views


def _zero_product_table(factors, pinned: bool) -> np.ndarray:
    """Ascending coefficients of prod (z - beta), in real arithmetic, of every mask
    over the units whose _factor_arrays are `factors`, in ascending mask order
    (bit k of a mask flips unit k).

    Built by doubling: unit k's two factors are applied to the table of units
    0..k-1, the unflipped product on top. With `pinned` the first unit stays
    unflipped, which halves the table.
    """
    if not factors:
        return np.ones((1, 1))
    first = factors[0][:1 if pinned else 2]
    # unit 0 applied to the empty product 1, as a doubling step computes it:
    # 0.0 + beta * 1.0, which is beta with a -0.0 turned into 0.0
    table = np.ones((first.shape[0], first.shape[1] + 1))
    np.add(first, 0.0, out=table[:, :-1])
    for choices in factors[1:]:
        table = _multiply_factor_rows(table, choices[:, None]).reshape(
            -1, table.shape[1] + choices.shape[1])
    return table


def _scale_rows(coeffs: np.ndarray, r_peak: float) -> np.ndarray:
    """Sign-canonical candidate signals from monic products, in place.

    Each product is scaled by sqrt(|r_peak| / prod |beta|), the product of the
    moduli being the modulus of its constant coefficient c0, and signed by c0 so
    that entry 0 is positive. c0 is never zero: every beta is nonzero.
    """
    c0 = coeffs[:, :1]
    coeffs *= np.sqrt(abs(r_peak) / np.abs(c0)) * np.sign(c0)
    return coeffs


def _scale_row(row: list[float], r_peak: float) -> list[float]:
    """_scale_rows of one monic product on Python floats, bit for bit: the division,
    square root and products are numpy's correctly rounded ones, and a product by
    sign(c0) = +-1 is the copied sign."""
    factor = math.copysign(math.sqrt(abs(r_peak) / abs(row[0])), row[0])
    return [x * factor for x in row]


def _autocorr_rows(vals: np.ndarray) -> np.ndarray:
    """Nonnegative-lag autocorrelation of each row, in one einsum over shifted views.

    Lag l of a row y is the sum over t of y[t] * y[l + t], in the order of
    einsum's inner loop over t. The rows are copied, zero-padded to 2w - 1,
    CHUNK_PRODUCTS // (2w - 1) at a time. Both operands come from that copy,
    so a row's lags do not depend on the layout, batch or chunk it came in.
    """
    rows, w = vals.shape
    step = max(1, CHUNK_PRODUCTS // (2 * w - 1))
    if rows <= step:
        return _autocorr_chunk(vals)
    out = np.empty((rows, w))
    for r0 in range(0, rows, step):
        _autocorr_chunk(vals[r0:r0 + step], out[r0:r0 + step])
    return out


def _autocorr_chunk(chunk: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    rows, w = chunk.shape
    padded = np.zeros((rows, 2 * w - 1))
    padded[:, :w] = chunk
    row, col = padded.strides
    shifted = np.ndarray((rows, w, w), buffer=padded, strides=(row, col, col))
    # shifted[r, l, t] = padded[r, l + t]: entry l + t of the row, or 0 past its end
    return np.einsum("rt,rlt->rl", padded[:, :w], shifted, out=out)


def _residual_rows(vals: np.ndarray, r: Autocorr1D) -> np.ndarray:
    return np.abs(_autocorr_rows(vals) - r.nonneg).max(axis=1) / r.max_abs


def _constraint_products(vals: np.ndarray) -> np.ndarray | None:
    """Entry n-1 times entry n*n-n of each flattened n-by-n row (last axis).

    n is read off the row length; None when that length is not n*n with n >= 2.
    """
    n = math.isqrt(vals.shape[-1])
    if n * n != vals.shape[-1] or n < 2:
        return None
    return vals[..., n - 1] * vals[..., n * n - n]


@dataclass(frozen=True, eq=False)
class Candidates:
    """Candidate signals as one table of read-only arrays, one row per candidate:
    flip mask, signal, autocorrelation residual and constraint product (entry n-1
    times entry n*n-n; f_values is None unless the row length is n*n, n >= 2)."""

    flips: np.ndarray  # (k,) int64
    values: np.ndarray  # (k, m)
    autocorr_residuals: np.ndarray  # (k,)
    f_values: np.ndarray | None = field(init=False)

    def __post_init__(self):
        # copies: the table never aliases, nor freezes, the caller's arrays
        flips = np.array(self.flips, dtype=np.int64)
        values = np.array(self.values, dtype=float)
        residuals = np.array(self.autocorr_residuals, dtype=float)
        if values.ndim != 2 or not flips.shape == residuals.shape == values.shape[:1]:
            raise ValueError(f"expected k masks, k rows and k residuals, got shapes "
                             f"{flips.shape}, {values.shape} and {residuals.shape}")
        if values.shape[1] == 0:
            raise ValueError(f"expected rows of at least one value, got shape {values.shape}")
        self._fill(flips, values, residuals)

    def _fill(self, flips: np.ndarray, values: np.ndarray,
              residuals: np.ndarray) -> "Candidates":
        """Set the fields, from k int64 masks, a (k, m) float table with m >= 1 and k
        float residuals, and compute f_values: the one place they are set."""
        values = _freeze(values)
        f = _constraint_products(values)
        object.__setattr__(self, "flips", _freeze(flips))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "autocorr_residuals", _freeze(residuals))
        object.__setattr__(self, "f_values", None if f is None else _freeze(f))
        return self

    def __len__(self) -> int:
        return self.flips.size


def elementary_symmetric(values, k: int) -> complex:
    """k-th elementary symmetric function, by incremental product expansion."""
    vals = list(values)
    if not 0 <= k <= len(vals):
        raise ValueError(f"order {k} out of range for {len(vals)} values")
    c = np.zeros(k + 1, dtype=complex)
    c[0] = 1.0
    for v in vals:
        c[1:] = c[1:] + v * c[:-1]
    return complex(c[k])

