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

from .core import Autocorr1D, Signal1D
from .errors import (
    NonRealResult,
    RootFindingFailed,
    UnitCircleZero,
    UnpairedComplexZero,
    ZeroEndpoint,
)

ENDPOINT_RTOL = 1e-12
REAL_RTOL = 1e-8  # imaginary residue allowed on quantities that must be real

DEFAULT_TOL_ROOT = 1e-8
DEFAULT_TOL_PAIR = 1e-6
DEFAULT_TOL_CONJ = 1e-8


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial with ascending coefficients; trailing zeros are trimmed."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must form a nonempty 1D array")
        if not np.all(np.isfinite(c)):
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
    ref = float(np.max(np.abs(r.values)))
    if peak <= ENDPOINT_RTOL * ref:
        raise ZeroEndpoint(
            f"extreme lag {r.lag(r.m - 1):.3e} vanishes relative to scale {ref:.3e}"
        )
    return Polynomial(r.values)


@dataclass(frozen=True)
class ZeroPairing:
    """Zeros grouped into reflected pairs, keeping the representative outside the circle."""

    zeros: np.ndarray  # complex representatives, modulus >= 1
    pairing_residuals: np.ndarray  # distance of the matched partner from the exact reflection
    scale: float  # leading coefficient, i.e. the extreme lag value


def _root_residuals(coeffs_desc: np.ndarray, roots: np.ndarray) -> np.ndarray:
    # Residual of the max-normalized polynomial, deflated by max(1,|z|)^deg so
    # roots far outside the unit circle are judged at a meaningful scale.
    deg = coeffs_desc.size - 1
    vals = np.abs(np.polyval(coeffs_desc, roots))
    return vals / np.maximum(1.0, np.abs(roots)) ** deg


def find_zero_pairs(
    P: Polynomial,
    tol_pair: float = DEFAULT_TOL_PAIR,
    tol_root: float = DEFAULT_TOL_ROOT,
) -> ZeroPairing:
    """Locate the zeros of a palindromic polynomial and match reflected pairs.

    Parameters
    ----------
    P : Polynomial
        Real palindromic polynomial of even degree.
    tol_pair : float
        Relative tolerance both for the unit-circle exclusion zone and for the
        accepted mismatch between a zero and the reflection of its partner.
    tol_root : float
        Bound on the scaled per-root residual of the located zeros.

    Each zero of modulus > 1 is matched greedily to the located zero nearest
    its reflection 1/conj(z). Raises UnitCircleZero when any zero sits within
    tol_pair of the circle (the pair degenerates there) and RootFindingFailed
    when residuals or the pairing itself exceed tolerance.
    """
    c = P.coeffs
    if not np.array_equal(c, c[::-1]):
        raise ValueError("coefficients must be palindromic")
    deg = P.degree
    if deg == 0:
        return ZeroPairing(np.empty(0, complex), np.empty(0), float(c[-1]))
    if deg % 2:
        raise ValueError(f"palindromic factorization needs even degree, got {deg}")

    scaled = c[::-1] / np.max(np.abs(c))
    roots = np.roots(scaled)
    bad = _root_residuals(scaled, roots) > tol_root
    if np.any(bad):
        worst = float(np.max(_root_residuals(scaled, roots)))
        raise RootFindingFailed(f"scaled root residual {worst:.3e} exceeds {tol_root:.1e}")

    on_circle = np.abs(np.abs(roots) - 1.0) <= tol_pair
    if np.any(on_circle):
        z = roots[on_circle][0]
        raise UnitCircleZero(
            f"zero {z:.6g} lies within {tol_pair:.1e} of the unit circle; "
            "flipping is ill-defined there"
        )

    # Largest modulus first; ties broken by real then imaginary part.
    order = np.lexsort((roots.imag, roots.real, -np.abs(roots)))
    used = np.zeros(roots.size, dtype=bool)
    reps = []
    residuals = []
    for idx in order:
        if used[idx]:
            continue
        used[idx] = True
        z = roots[idx]
        target = 1.0 / np.conj(z)
        free = np.nonzero(~used)[0]
        partner = free[np.argmin(np.abs(roots[free] - target))]
        used[partner] = True
        reps.append(z)
        residuals.append(abs(roots[partner] - target))

    reps = np.asarray(reps, dtype=complex)
    residuals = np.asarray(residuals, dtype=float)
    limit = tol_pair * (1.0 + np.abs(reps))
    if np.any(residuals > limit) or np.any(np.abs(reps) < 1.0 - tol_pair):
        raise RootFindingFailed(
            f"zeros do not form reflected pairs within tolerance "
            f"(worst mismatch {float(np.max(residuals)):.3e})"
        )
    return ZeroPairing(reps, residuals, float(c[-1]))


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
        z = self.members(flipped)[0]
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


def group_flip_units(zp: ZeroPairing, tol_conj: float = DEFAULT_TOL_CONJ) -> FlipUnits:
    """Partition pair representatives into real zeros and conjugate pairs.

    Zeros with relative imaginary part below tol_conj count as real. The rest
    must occur in conjugate pairs; otherwise no real candidate exists and
    UnpairedComplexZero is raised. Units are ordered by descending modulus,
    then real part, then imaginary part of the representative.
    """
    zs = zp.zeros
    units: list = []
    real_mask = np.abs(zs.imag) <= tol_conj * np.abs(zs)
    for z in zs[real_mask]:
        units.append(RealZero(float(z.real)))

    rest = list(zs[~real_mask])
    rest.sort(key=lambda z: (-abs(z), z.real, z.imag))
    while rest:
        z = rest.pop(0)
        if not rest:
            raise UnpairedComplexZero(f"zero {z:.6g} has no conjugate partner")
        target = np.conj(z)
        dists = [abs(w - target) for w in rest]
        best = int(np.argmin(dists))
        if dists[best] > tol_conj * (1.0 + abs(z)):
            raise UnpairedComplexZero(
                f"zero {z:.6g} has no conjugate partner within tolerance "
                f"(nearest at distance {dists[best]:.3e})"
            )
        partner = rest.pop(best)
        rep = z if z.imag > 0 else partner
        units.append(ConjugatePair(complex(rep)))

    def sort_key(unit):
        if isinstance(unit, RealZero):
            return (-abs(unit.value), unit.value, 0.0)
        return (-abs(unit.value), unit.value.real, unit.value.imag)

    units.sort(key=sort_key)
    return FlipUnits(tuple(units))


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
# The single-candidate and all-candidates paths run the same elementwise
# expressions, so reconstructing one mask reproduces the batch row bit for bit.


def _multiply_factor_rows(coeffs: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """Multiply each row polynomial (ascending coeffs) by a monic real factor.

    Row i's factor is z^d + lower[i, d-1] z^(d-1) + ... + lower[i, 0].
    """
    rows, width = coeffs.shape
    d = lower.shape[1]
    out = np.zeros((rows, width + d))
    out[:, d:] = coeffs
    for j in range(d):
        out[:, j:j + width] += lower[:, j, None] * coeffs
    return out


def _expand_zero_products(units, masks: np.ndarray) -> np.ndarray:
    """Ascending coefficients of prod (z - beta) per mask, in real arithmetic."""
    coeffs = np.ones((masks.size, 1))
    for k, unit in enumerate(units):
        flipped = ((masks >> k) & 1) == 1
        lower = np.where(flipped[:, None], unit.factor(True), unit.factor(False))
        coeffs = _multiply_factor_rows(coeffs, lower)
    return coeffs


def _canonical_sign_rows(vals: np.ndarray) -> np.ndarray:
    scale = np.max(np.abs(vals), axis=1)
    lead_idx = np.argmax(np.abs(vals) > (1e-12 * scale)[:, None], axis=1)
    lead = vals[np.arange(vals.shape[0]), lead_idx]
    return vals * np.where(lead < 0, -1.0, 1.0)[:, None]


def _candidate_rows(units, masks: np.ndarray, r_peak: float) -> np.ndarray:
    """Sign-canonical candidate signals, one row per flip mask.

    The monic product is scaled by sqrt(|r_peak| / prod |beta|); the product
    of the moduli is the modulus of its constant coefficient.
    """
    coeffs = _expand_zero_products(units, masks)
    amplitude = np.sqrt(abs(r_peak) / np.abs(coeffs[:, 0]))
    return _canonical_sign_rows(coeffs * amplitude[:, None])


def _autocorr_rows(vals: np.ndarray) -> np.ndarray:
    """Nonnegative-lag autocorrelation of each row."""
    m = vals.shape[1]
    out = np.empty_like(vals)
    for ell in range(m):
        out[:, ell] = np.sum(vals[:, : m - ell] * vals[:, ell:], axis=1)
    return out


def _residual_rows(vals: np.ndarray, r: Autocorr1D) -> np.ndarray:
    gaps = np.abs(_autocorr_rows(vals) - r.nonneg)
    return np.max(gaps, axis=1) / np.max(np.abs(r.values))


def _pairing_autocorr(fu: FlipUnits, r_peak: float) -> Autocorr1D:
    """Autocorrelation implied by the full zero multiset and the extreme lag."""
    coeffs = np.ones((1, 1))
    for unit in fu.units:
        for flipped in (False, True):
            coeffs = _multiply_factor_rows(coeffs, np.array([unit.factor(flipped)]))
    full = r_peak * coeffs[0]
    m = (full.size + 1) // 2
    return Autocorr1D.from_nonneg(full[m - 1:])


def _constraint_products(values: np.ndarray, n: int) -> np.ndarray:
    """Entry n-1 times entry n*n-n of each flattened n-by-n row (last axis)."""
    if values.shape[-1] != n * n:
        raise ValueError(f"candidate length {values.shape[-1]} is not {n}x{n}")
    if n < 2:
        raise ValueError("constraint product needs n >= 2")
    return values[..., n - 1] * values[..., n * n - n]


def _wrap_candidates(masks: np.ndarray, vals: np.ndarray,
                     residuals: np.ndarray) -> list[Candidate]:
    """Candidate objects for array rows; f_value is set for square lengths n*n, n >= 2."""
    n = math.isqrt(vals.shape[1])
    f = _constraint_products(vals, n) if n * n == vals.shape[1] and n >= 2 else None
    return [
        Candidate(Signal1D(vals[i]), int(masks[i]), float(residuals[i]),
                  None if f is None else float(f[i]))
        for i in range(masks.size)
    ]


def reconstruct_candidate(
    fu: FlipUnits,
    flips: int,
    r_peak: float,
    target: Autocorr1D | None = None,
) -> Candidate:
    """Build the signal selected by a flip mask.

    The polynomial prod (z - beta) is expanded one real factor per flip unit
    and scaled by sqrt(|r_peak| * prod 1/|beta|); the sign is canonicalized so the
    first nonzero entry is positive. The autocorrelation residual is measured
    against ``target`` when given, otherwise against the autocorrelation
    implied by the units themselves.
    """
    if r_peak == 0:
        raise ValueError("extreme lag must be nonzero")
    if not 0 <= flips < (1 << fu.unit_count):
        raise ValueError(f"flip mask {flips} out of range for {fu.unit_count} units")
    masks = np.array([flips], dtype=np.int64)
    vals = _candidate_rows(fu.units, masks, r_peak)
    if target is None:
        target = _pairing_autocorr(fu, r_peak)
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
    return float(_constraint_products(values, n))


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
    if abs(out.imag) > REAL_RTOL * max(abs(out), abs(r_peak)):
        raise NonRealResult(f"constraint product {out:.6g} has a non-real residue")
    return float(out.real)
