"""Shared fixtures: a fully worked 2x2 instance and independent oracles.

The worked instance is small enough that every expected value below was
computed by hand or by the oracle helpers here, never by the code under test.
The reference layer below also computes each candidate from its zero multiset:
its zeros (`members`, `betas`), its one-row table (`reconstruct_candidate`) and
the paper's Vieta form of its constraint product (`f_vieta`). No solve runs them.
"""

import numpy as np
import pytest

from autophase2d import (
    Autocorr1D,
    Autocorr2D,
    AutophaseError,
    Candidates,
    ConjugatePair,
    Matrix2D,
    elementary_symmetric,
)
from autophase2d.core import SYMMETRY_RTOL
from autophase2d.polyfactor import _residual_rows, _scale_rows
from autophase2d.solver import _expand_masks, _lowers

# 2x2 instance with three real zero pairs and four candidate classes.
GOLDEN_X_ROWS = [[-24.0, 26.0], [-9.0, 1.0]]
GOLDEN_R_ROWS = [
    [-24.0, 242.0, -234.0],
    [-633.0, 1334.0, -633.0],
    [-234.0, 242.0, -24.0],
]
GOLDEN_R1D = [-24.0, 242.0, -867.0, 1334.0, -867.0, 242.0, -24.0]
GOLDEN_KEY = -234.0
# The four candidate classes, one row each, as integer signals.
GOLDEN_CLASSES = [
    [-24.0, 26.0, -9.0, 1.0],
    [-6.0, 29.0, -21.0, 4.0],
    [-8.0, 30.0, -19.0, 3.0],
    [-2.0, 15.0, -31.0, 12.0],
]
# Constraint products of the classes above, in the same order.
GOLDEN_F = [-234.0, -609.0, -570.0, -465.0]
GOLDEN_ZEROS = [2.0, 3.0, 4.0]


@pytest.fixture
def golden_matrix():
    return Matrix2D.from_rows(GOLDEN_X_ROWS)


@pytest.fixture
def golden_grid():
    return Autocorr2D(2, np.array(GOLDEN_R_ROWS))


@pytest.fixture
def golden_r():
    return Autocorr1D(4, np.array(GOLDEN_R1D))


def autocorr_1d_oracle(v):
    """Full-lag autocorrelation via polynomial multiplication."""
    v = np.asarray(v, dtype=float)
    return np.convolve(v, v[::-1])


def autocorr_2d_oracle(a):
    """Lag grid by direct summation over all index pairs."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    out = np.zeros((2 * n - 1, 2 * n - 1))
    for i in range(-(n - 1), n):
        for j in range(-(n - 1), n):
            s = 0.0
            for p in range(n):
                for q in range(n):
                    if 0 <= p + i < n and 0 <= q + j < n:
                        s += a[p, q] * a[p + i, q + j]
            out[i + n - 1, j + n - 1] = s
    return out


def elementary_symmetric_oracle(values, k):
    """e_k from the signed coefficients of prod (z - v)."""
    coeffs = np.poly(np.asarray(values, dtype=complex))
    return complex((-1) ** k * coeffs[k])


@pytest.fixture
def lapack_not_converging(monkeypatch):
    """Make the LAPACK eigenvalue call fail as it does when it does not converge:
    nan eigenvalues and the floating-point invalid flag, raised under the caller's errstate."""
    from numpy.linalg import _umath_linalg

    def not_converging(a, signature):
        np.subtract(np.inf, np.inf)
        return np.full(a.shape[-1], complex(np.nan, np.nan))

    monkeypatch.setattr(_umath_linalg, "eigvals", not_converging)


def assert_same_table(a, b):
    """Two candidate tables hold the same rows, bit for bit."""
    for name in ("flips", "values", "autocorr_residuals", "f_values"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None), name
        assert x is None or (x.shape == y.shape and np.array_equal(x, y)), name


# --- the reference layer: candidates from their zero multisets ----------------------


class NonRealResult(AutophaseError):
    """Constraint product came out complex beyond roundoff."""


def members(unit, flipped: bool) -> tuple[complex, ...]:
    """The zeros of a flip unit: its value, or its reflection when flipped, and for a
    ConjugatePair that zero's conjugate as well."""
    if isinstance(unit, ConjugatePair):
        z = 1.0 / unit.value.conjugate() if flipped else unit.value
        return (z, z.conjugate())
    return (complex(1.0 / unit.value if flipped else unit.value),)


def betas(fu, flips: int) -> tuple[complex, ...]:
    """Zero multiset selected by the mask, in unit order."""
    if not 0 <= flips < (1 << fu.unit_count):
        raise ValueError(f"flip mask {flips} out of range for {fu.unit_count} units")
    out = []
    for k, unit in enumerate(fu.units):
        out.extend(members(unit, bool((flips >> k) & 1)))
    return tuple(out)


def reconstruct_candidate(fu, flips: int, r_peak: float, target: Autocorr1D) -> Candidates:
    """The one-row table of the signal selected by a flip mask.

    The polynomial prod (z - beta) is expanded one real factor per flip unit,
    scaled by sqrt(|r_peak| * prod 1/|beta|) and signed so that entry 0 (never
    zero) is positive. The autocorrelation residual is measured against ``target``.
    """
    if r_peak == 0:
        raise ValueError("extreme lag must be nonzero")
    if not 0 <= flips < (1 << fu.unit_count):
        raise ValueError(f"flip mask {flips} out of range for {fu.unit_count} units")
    vals = _scale_rows(np.array(_expand_masks(_lowers(fu.units), [flips])), r_peak)
    if target.m != vals.shape[1]:
        raise ValueError(
            f"target autocorrelation is for length {target.m}, candidate has length {vals.shape[1]}"
        )
    return Candidates([flips], vals, _residual_rows(vals, target))


def f_vieta(fu, flips: int, r_peak: float, n: int) -> float:
    """Constraint product evaluated from the zero multiset alone.

    |r_peak| times the (n-1)-th elementary symmetric functions of the selected
    zeros and of their conjugate reciprocals. Matches the f_values entry of the
    reconstructed candidate up to the global sign convention.
    """
    zeros = betas(fu, flips)
    if len(zeros) != n * n - 1:
        raise ValueError(f"{len(zeros)} zeros cannot come from an {n}x{n} signal")
    e_low = elementary_symmetric(zeros, n - 1)
    e_high = elementary_symmetric([1.0 / np.conj(b) for b in zeros], n - 1)
    out = abs(r_peak) * e_low * e_high
    if not abs(out.imag) <= SYMMETRY_RTOL * max(abs(out), abs(r_peak)):  # nan fails too
        raise NonRealResult(f"constraint product {out:.6g} has a non-real residue")
    return float(out.real)
