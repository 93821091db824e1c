"""Spectral factorization of a symmetric autocorrelation into candidate signals.

Reading the lag sequence as ascending polynomial coefficients gives a real
palindromic polynomial whose zeros come in pairs reflected about the unit
circle. Choosing one member from each pair determines a signal with that
autocorrelation. Real zeros flip on their own; complex zeros flip together
with their conjugates so that every candidate stays real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SYMMETRY_RTOL, Autocorr1D, Signal1D
from .errors import (
    NonRealResult,
    RootFindingFailed,
    UnitCircleZero,
    UnpairedComplexZero,
    ZeroEndpoint,
)

ENDPOINT_RTOL = 1e-12  # lags at or below this times max|r| count as zero

DEFAULT_TOL_ROOT = 1e-8
DEFAULT_TOL_PAIR = 1e-6

_SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial with ascending coefficients; trailing zeros are trimmed."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must form a nonempty 1D array")
        if not np.isfinite(c).all():
            raise ValueError("coefficients must be finite")
        nz = np.nonzero(c)[0]
        c = c[: nz[-1] + 1] if nz.size else c[:1]
        c = np.ascontiguousarray(c)
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1


def associated_polynomial(r: Autocorr1D) -> Polynomial:
    """Polynomial whose coefficient of z^k is the lag k - (m-1) value.

    The result is palindromic of degree 2m-2. Raises ZeroEndpoint when the
    extreme lag vanishes, since the factorization then says nothing about the
    signal's endpoints.
    """
    peak = abs(r.lag(r.m - 1))
    if peak <= ENDPOINT_RTOL * r.max_abs:
        raise ZeroEndpoint(
            f"extreme lag {r.lag(r.m - 1):.3e} vanishes relative to scale {r.max_abs:.3e}"
        )
    return Polynomial(r.values)


@dataclass(frozen=True)
class ZeroPairing:
    """Zeros grouped into reflected pairs, keeping the representative outside the circle."""

    zeros: np.ndarray  # complex representatives, modulus >= 1
    root_residuals: np.ndarray  # per representative, the scaled residual of z and 1/z
    scale: float  # leading coefficient, i.e. the extreme lag value


def _chebyshev_roots(a: np.ndarray) -> np.ndarray:
    """Zeros of the Chebyshev series sum_k a[k] T_k(x), as a complex array.

    The colleague matrix is built, and rotated, exactly as numpy's
    chebcompanion and chebroots do; numpy.polynomial itself is not imported
    because loading it costs import time and memory on every run. Real zeros
    come back with imaginary part exactly 0, complex ones as exact conjugates.
    """
    d = a.size - 1
    if d == 1:
        return np.array([-a[0] / a[1]], dtype=complex)
    mat = np.zeros((d, d))
    scl = np.array([1.0] + [_SQRT_HALF] * (d - 1))
    top = mat.reshape(-1)[1::d + 1]
    bot = mat.reshape(-1)[d::d + 1]
    top[0] = _SQRT_HALF
    top[1:] = 0.5
    bot[...] = top
    mat[:, -1] -= (a[:-1] / a[-1]) * (scl / scl[-1]) * 0.5
    return np.linalg.eigvals(mat[::-1, ::-1]).astype(complex)


def find_zero_pairs(
    P: Polynomial,
    tol_pair: float = DEFAULT_TOL_PAIR,
    tol_root: float = DEFAULT_TOL_ROOT,
) -> ZeroPairing:
    """Locate the zeros of a palindromic polynomial as reflected pairs.

    Parameters
    ----------
    P : Polynomial
        Real palindromic polynomial of even degree 2d.
    tol_pair : float
        Width of the unit-circle exclusion band: a zero z with
        ||z| - 1| <= tol_pair raises UnitCircleZero (the pair degenerates there).
    tol_root : float
        Bound on the scaled per-root residual of all 2d zeros; a larger
        residual raises RootFindingFailed.

    With x = (z + 1/z)/2, P(z)/z^d = c_d + sum_{k>=1} 2 c_{d+k} T_k(x), so the
    d zeros x of that Chebyshev series give the pairs {z, 1/z} directly:
    z = x + sqrt(x^2 - 1) on the branch with |z| >= 1.
    """
    c = P.coeffs
    if not (c == c[::-1]).all():
        raise ValueError("coefficients must be palindromic")
    if P.degree % 2:
        raise ValueError(f"palindromic factorization needs even degree, got {P.degree}")
    return _zero_pairs(c, tol_pair, tol_root)


def _zero_pairs(c: np.ndarray, tol_pair: float, tol_root: float) -> ZeroPairing:
    """find_zero_pairs of palindromic coefficients of even degree, nonzero at both ends."""
    deg = c.size - 1
    if deg == 0:
        return ZeroPairing(np.empty(0, complex), np.empty(0), float(c[-1]))
    d = deg // 2
    x = _chebyshev_roots(np.concatenate([c[d:d + 1], 2.0 * c[d + 1:]]))
    s = np.sqrt((x - 1.0) * (x + 1.0))
    # |x + s| * |x - s| = 1; the sign with Re(x conj(s)) >= 0 picks |z| >= 1.
    z = x + np.where(x.real * s.real + x.imag * s.imag < 0, -s, s)
    both = np.concatenate([z, 1.0 / z])

    # Residual of the max-normalized polynomial, deflated by max(1,|z|)^deg. For a
    # palindromic P, |P(z)| / |z|^deg = |P(1/z)|, so one evaluation inside the
    # circle serves both members of a pair. There |w| <= 1, so the powers in one
    # Vandermonde product cannot overflow; c read descending is c itself.
    residuals = np.abs(np.vander(both[d:], deg + 1) @ (c / np.abs(c).max()))
    if not (residuals <= tol_root).all():  # a nan residual fails too
        raise RootFindingFailed(
            f"scaled root residual {float(residuals.max()):.3e} exceeds {tol_root:.1e}"
        )

    on_circle = ~(np.abs(np.abs(both) - 1.0) > tol_pair)
    if on_circle.any():
        raise UnitCircleZero(
            f"zero {both[on_circle][0]:.6g} lies within {tol_pair:.1e} of the unit circle; "
            "flipping is ill-defined there"
        )
    return ZeroPairing(z, residuals, float(c[-1]))


@dataclass(frozen=True)
class RealZero:
    """Flip unit holding a single real zero."""

    value: float

    def members(self, flipped: bool) -> tuple[complex, ...]:
        return (complex(1.0 / self.value if flipped else self.value),)

    def factor(self, flipped: bool) -> tuple[float, ...]:
        """Lower coefficients, ascending, of the monic factor z - beta."""
        return (-(1.0 / self.value if flipped else self.value),)


@dataclass(frozen=True)
class ConjugatePair:
    """Flip unit holding a complex zero and its conjugate, flipped jointly."""

    value: complex  # representative with positive imaginary part

    def members(self, flipped: bool) -> tuple[complex, ...]:
        z = 1.0 / self.value.conjugate() if flipped else self.value
        return (z, z.conjugate())

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

    def betas(self, flips: int) -> tuple[complex, ...]:
        """Zero multiset selected by the mask, in unit order."""
        if not 0 <= flips < (1 << self.unit_count):
            raise ValueError(f"flip mask {flips} out of range for {self.unit_count} units")
        out = []
        for k, unit in enumerate(self.units):
            out.extend(unit.members(bool((flips >> k) & 1)))
        return tuple(out)


def group_flip_units(zp: ZeroPairing) -> FlipUnits:
    """Partition pair representatives into real zeros and conjugate pairs.

    Zeros with imaginary part exactly 0 are real. The rest must be closed
    under exact conjugation, as find_zero_pairs returns them; otherwise no
    real candidate exists and UnpairedComplexZero is raised. Each pair is
    represented by its member with positive imaginary part. Units are
    ordered by descending modulus, then real part, then imaginary part.
    """
    zs = zp.zeros
    upper, lower = np.sort(zs[zs.imag > 0]), np.sort(zs[zs.imag < 0].conj())
    if upper.shape != lower.shape or not (upper == lower).all():
        raise UnpairedComplexZero(
            f"complex zeros {zs[zs.imag != 0]} are not closed under conjugation"
        )
    zs = zs[zs.imag >= 0]
    zs = zs[np.lexsort((zs.imag, zs.real, -np.abs(zs)))]
    # A list, not a generator: in a solve loop the generator form kept peak RSS higher.
    return FlipUnits(tuple([
        RealZero(z.real) if z.imag == 0 else ConjugatePair(z) for z in zs.tolist()
    ]))


@dataclass(frozen=True)
class Candidate:
    """One signal consistent with the autocorrelation."""

    values: Signal1D
    flips: int
    autocorr_residual: float
    f_value: float | None = None

    def to_dict(self) -> dict:
        return {
            "values": [float(v) for v in self.values.values],
            "flips": int(self.flips),
            "autocorr_residual": float(self.autocorr_residual),
            "f_value": None if self.f_value is None else float(self.f_value),
        }


# --- shared expansion kernel -------------------------------------------------
# Every path applies the units' factors in unit order with the same elementwise
# expressions, so a row built alone, from a half table, or in the doubling
# table is the same row bit for bit.


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


def _expand_zero_products(units, masks: np.ndarray, first: int = 0,
                          coeffs: np.ndarray | None = None) -> np.ndarray:
    """Ascending coefficients of prod (z - beta) per mask, in real arithmetic.

    `coeffs`, one row per mask, holds the product over units[:first] (the
    empty product when omitted); bit k of a mask flips unit k.
    """
    if coeffs is None:
        coeffs = np.ones((masks.size, 1))
    for k in range(first, len(units)):
        choices = np.array([units[k].factor(False), units[k].factor(True)])
        coeffs = _multiply_factor_rows(coeffs, choices[(masks >> k) & 1])
    return coeffs


def _zero_product_table(units, pinned: bool) -> np.ndarray:
    """_expand_zero_products of every mask over `units`, in ascending mask order.

    Built by doubling: unit k's two factors are applied to the table of units
    0..k-1, the unflipped product on top. With `pinned` the first unit stays
    unflipped, which halves the table.
    """
    table = np.ones((1, 1))
    for k, unit in enumerate(units):
        choices = (False,) if pinned and k == 0 else (False, True)
        lower = np.array([[unit.factor(flipped)] for flipped in choices])
        table = _multiply_factor_rows(table, lower).reshape(-1, table.shape[1] + lower.shape[-1])
    return table


def _scale_rows(coeffs: np.ndarray, r_peak: float) -> np.ndarray:
    """Sign-canonical candidate signals from monic products, in place.

    Each product is scaled by sqrt(|r_peak| / prod |beta|); the product of the
    moduli is the modulus of its constant coefficient.
    """
    coeffs *= np.sqrt(abs(r_peak) / np.abs(coeffs[:, 0]))[:, None]
    mags = np.abs(coeffs)
    lead_idx = (mags > (1e-12 * mags.max(axis=1))[:, None]).argmax(axis=1)
    lead = coeffs[np.arange(coeffs.shape[0]), lead_idx]
    coeffs *= np.where(lead < 0, -1.0, 1.0)[:, None]
    return coeffs


def _autocorr_rows(vals: np.ndarray) -> np.ndarray:
    """Nonnegative-lag autocorrelation of each row."""
    m = vals.shape[1]
    out = np.empty_like(vals)
    for ell in range(m):
        out[:, ell] = np.add.reduce(vals[:, : m - ell] * vals[:, ell:], axis=1)
    return out


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


def _wrap_candidates(masks: np.ndarray, vals: np.ndarray,
                     residuals: np.ndarray) -> list[Candidate]:
    """Candidate objects for array rows, with their constraint products as f_value."""
    f = _constraint_products(vals)
    return [
        Candidate(Signal1D(vals[i]), int(masks[i]), float(residuals[i]),
                  None if f is None else float(f[i]))
        for i in range(masks.size)
    ]


def reconstruct_candidate(
    fu: FlipUnits,
    flips: int,
    r_peak: float,
    target: Autocorr1D,
) -> Candidate:
    """Build the signal selected by a flip mask.

    The polynomial prod (z - beta) is expanded one real factor per flip unit
    and scaled by sqrt(|r_peak| * prod 1/|beta|); the sign is canonicalized so the
    first nonzero entry is positive. The autocorrelation residual is measured
    against ``target``.
    """
    if r_peak == 0:
        raise ValueError("extreme lag must be nonzero")
    if not 0 <= flips < (1 << fu.unit_count):
        raise ValueError(f"flip mask {flips} out of range for {fu.unit_count} units")
    masks = np.array([flips], dtype=np.int64)
    vals = _scale_rows(_expand_zero_products(fu.units, masks), r_peak)
    if target.m != vals.shape[1]:
        raise ValueError(
            f"target autocorrelation is for length {target.m}, candidate has length {vals.shape[1]}"
        )
    return _wrap_candidates(masks, vals, _residual_rows(vals, target))[0]


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


def f_direct(y, n: int) -> float:
    """Product of entries n-1 and n*n-n of a flattened n-by-n candidate.

    Invariant under global sign change and reversal, and equal to the corner
    grid entry used by key_constraint for any true preimage.
    """
    values = y.values.values if isinstance(y, Candidate) else y.values
    f = _constraint_products(values) if values.size == n * n else None
    if f is None:
        raise ValueError(f"candidate length {values.size} is not {n}x{n} with n >= 2")
    return float(f)


def f_vieta(fu: FlipUnits, flips: int, r_peak: float, n: int) -> float:
    """Constraint product evaluated from the zero multiset alone.

    |r_peak| times the (n-1)-th elementary symmetric functions of the selected
    zeros and of their conjugate reciprocals. Matches f_direct of the
    reconstructed candidate up to the global sign convention.
    """
    betas = fu.betas(flips)
    if len(betas) != n * n - 1:
        raise ValueError(f"{len(betas)} zeros cannot come from an {n}x{n} signal")
    e_low = elementary_symmetric(betas, n - 1)
    e_high = elementary_symmetric([1.0 / np.conj(b) for b in betas], n - 1)
    out = abs(r_peak) * e_low * e_high
    if not abs(out.imag) <= SYMMETRY_RTOL * max(abs(out), abs(r_peak)):  # nan fails too
        raise NonRealResult(f"constraint product {out:.6g} has a non-real residue")
    return float(out.real)
