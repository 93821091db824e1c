"""Shared fixtures: a fully worked 2x2 instance and independent oracles.

The worked instance is small enough that every expected value below was
computed by hand or by the oracle helpers here, never by the code under test.
"""

import numpy as np
import pytest

from autophase2d import Autocorr1D, Autocorr2D, Matrix2D

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
