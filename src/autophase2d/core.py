"""Signal containers, autocorrelation operators, and the Fourier-magnitude front end.

Lag-indexed data uses a fixed offset layout throughout the package: the 1D
autocorrelation of a length-m signal is stored as 2m-1 values with lag zero
at index m-1, and the 2D autocorrelation of an n-by-n matrix as a
(2n-1)-square grid with the zero lag at (n-1, n-1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidOversampling, LengthMismatch, NotAnAutocorrelation

# Relative tolerance for every "this should have been exactly real/symmetric" check.
SYMMETRY_RTOL = 1e-8


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def _finite_float_array(values, name: str) -> np.ndarray:
    a = np.asarray(values, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must contain only finite values")
    return a


@dataclass(frozen=True)
class Matrix2D:
    """Real square signal, the recovery target."""

    n: int
    values: np.ndarray  # shape (n, n)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"matrix side must be positive, got {self.n}")
        a = _finite_float_array(self.values, "matrix values")
        try:
            a = a.reshape(self.n, self.n)
        except ValueError:
            raise ValueError(
                f"expected {self.n * self.n} entries for a {self.n}x{self.n} matrix, got {a.size}"
            ) from None
        object.__setattr__(self, "values", _freeze(a))

    @classmethod
    def from_rows(cls, rows) -> "Matrix2D":
        a = np.asarray(rows, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square array of rows, got shape {a.shape}")
        return cls(a.shape[0], a)

    def to_dict(self) -> dict:
        return {"n": self.n, "rows": [[float(v) for v in row] for row in self.values]}


@dataclass(frozen=True)
class Signal1D:
    """Real vector signal."""

    values: np.ndarray

    def __post_init__(self):
        a = _finite_float_array(self.values, "signal values")
        if a.ndim != 1 or a.size < 1:
            raise ValueError(f"expected a nonempty 1D signal, got shape {a.shape}")
        object.__setattr__(self, "values", _freeze(a))

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class Autocorr1D:
    """Symmetric 1D autocorrelation.

    ``values`` holds lags -(m-1)..m-1; the invariant values[ell] == values[-ell]
    is exact, so producers must build the array by mirroring.
    """

    m: int
    values: np.ndarray  # length 2m-1, lag ell stored at index ell + m - 1
    # max |values|, the scale every relative tolerance on r is taken against
    max_abs: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"signal length must be positive, got {self.m}")
        a = _finite_float_array(self.values, "autocorrelation values")
        if a.shape != (2 * self.m - 1,):
            raise ValueError(
                f"expected {2 * self.m - 1} lag values for m={self.m}, got shape {a.shape}"
            )
        if not (a == a[::-1]).all():
            raise ValueError("autocorrelation values must be symmetric in lag")
        object.__setattr__(self, "values", _freeze(a))
        object.__setattr__(self, "max_abs", float(np.abs(a).max()))

    @classmethod
    def from_nonneg(cls, half) -> "Autocorr1D":
        """Build from lags 0..m-1, mirroring exactly onto the negative side."""
        h = _finite_float_array(half, "autocorrelation half")
        if h.ndim != 1 or h.size < 1:
            raise ValueError(f"expected a nonempty half spectrum, got shape {h.shape}")
        return cls(h.size, np.concatenate([h[:0:-1], h]))

    def lag(self, ell: int) -> float:
        return float(self.values[ell + self.m - 1])

    @property
    def nonneg(self) -> np.ndarray:
        """Lags 0..m-1."""
        return self.values[self.m - 1:]

    def to_dict(self) -> dict:
        return {"m": self.m, "values": [float(v) for v in self.values]}


@dataclass(frozen=True)
class Autocorr2D:
    """2D autocorrelation grid over lags (-(n-1)..n-1)^2.

    Point symmetry values(-i,-j) == values(i,j) is expected of honest inputs;
    it is produced exactly by autocorr_2d and checked with a tolerance by
    consumers that accept external data.
    """

    n: int
    values: np.ndarray  # shape (2n-1, 2n-1), lag (i, j) at [i + n - 1, j + n - 1]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"matrix side must be positive, got {self.n}")
        side = 2 * self.n - 1
        a = _finite_float_array(self.values, "autocorrelation values")
        if a.shape != (side, side):
            raise ValueError(
                f"expected a {side}x{side} lag grid for n={self.n}, got shape {a.shape}"
            )
        object.__setattr__(self, "values", _freeze(a))

    def at(self, i: int, j: int) -> float:
        return float(self.values[i + self.n - 1, j + self.n - 1])

    def to_dict(self) -> dict:
        return {"n": self.n, "values": [[float(v) for v in row] for row in self.values]}


@dataclass(frozen=True)
class MagnitudeGrid:
    """Squared Fourier magnitudes of an n-by-n signal on an m-by-m grid."""

    m: int
    n: int
    values: np.ndarray  # shape (m, m), nonnegative

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"signal side must be positive, got {self.n}")
        if self.m < 2 * self.n - 1:
            raise InvalidOversampling(
                f"grid size {self.m} cannot hold the autocorrelation of an "
                f"{self.n}x{self.n} signal; need at least {2 * self.n - 1}"
            )
        a = _finite_float_array(self.values, "magnitude values")
        if a.shape != (self.m, self.m):
            raise ValueError(f"expected a {self.m}x{self.m} grid, got shape {a.shape}")
        if (a < 0).any():
            raise ValueError("squared magnitudes must be nonnegative")
        object.__setattr__(self, "values", _freeze(a))


def vectorize_rowwise(x: Matrix2D) -> Signal1D:
    """Flatten rows in order; entry (p, q) lands at index p * n + q."""
    return Signal1D(x.values.reshape(-1))


def reshape_rowwise(x: Signal1D, n: int) -> Matrix2D:
    """Inverse of vectorize_rowwise."""
    if len(x) != n * n:
        raise LengthMismatch(f"cannot reshape a length-{len(x)} signal into {n}x{n}")
    return Matrix2D(n, x.values.reshape(n, n))


def autocorr_1d(x: Signal1D) -> Autocorr1D:
    """Aperiodic autocorrelation r[ell] = sum_i x[i] x[i+ell], all lags."""
    v = x.values
    m = v.size
    with np.errstate(over="ignore", invalid="ignore"):  # the finite check refuses overflow
        half = np.array([v[: m - ell] @ v[ell:] for ell in range(m)])
    return Autocorr1D.from_nonneg(half)


def autocorr_2d(X: Matrix2D) -> Autocorr2D:
    """Aperiodic 2D autocorrelation; output is point symmetric by construction."""
    a = X.values
    n = X.n
    side = 2 * n - 1
    out = np.zeros((side, side))
    with np.errstate(over="ignore", invalid="ignore"):  # the finite check refuses overflow
        for i in range(n):
            jlo = 0 if i == 0 else -(n - 1)  # row i=0 gets only j>=0, the rest by mirror
            for j in range(jlo, n):
                if j >= 0:
                    s = (a[: n - i, : n - j] * a[i:, j:]).sum()
                else:
                    s = (a[: n - i, -j:] * a[i:, : n + j]).sum()
                out[n - 1 + i, n - 1 + j] = s
                out[n - 1 - i, n - 1 - j] = s
    return Autocorr2D(n, out)


def dft_matrix(m: int, cols: int | None = None) -> np.ndarray:
    """First ``cols`` columns of the m-point DFT matrix, built directly."""
    k = np.arange(m)
    p = np.arange(m if cols is None else cols)
    return np.exp(-2j * np.pi * np.multiply.outer(k, p) / m)


def fourier_magnitude_2d(X: Matrix2D, m: int) -> MagnitudeGrid:
    """Squared magnitude of the zero-padded m-by-m Fourier transform of X."""
    F = dft_matrix(m, X.n)
    spectrum = F @ X.values @ F.T
    return MagnitudeGrid(m, X.n, np.abs(spectrum) ** 2)


def measurements_to_autocorr_2d(Y: MagnitudeGrid) -> Autocorr2D:
    """Recover the autocorrelation grid from squared Fourier magnitudes.

    With m >= 2n-1 the cyclic autocorrelation given by the inverse transform
    does not wrap, so folding indices back to (-(n-1)..n-1)^2 is exact.
    Raises NotAnAutocorrelation when the inverse transform has an imaginary
    residue or an asymmetry beyond roundoff scale.
    """
    m, n = Y.m, Y.n
    G = np.conj(dft_matrix(m))
    grid = (G @ Y.values @ G.T) / (m * m)
    ref = np.abs(grid.real).max()
    if np.abs(grid.imag).max() > SYMMETRY_RTOL * ref:
        raise NotAnAutocorrelation("inverse transform has a non-real residue")
    idx = np.arange(-(n - 1), n) % m
    R = grid.real[idx[:, None], idx]
    if np.abs(R - R[::-1, ::-1]).max() > SYMMETRY_RTOL * ref:
        raise NotAnAutocorrelation("inverse transform lacks point symmetry")
    R = (R + R[::-1, ::-1]) / 2  # exact symmetry for downstream consumers
    return Autocorr2D(n, R)


def trivially_equivalent_1d(x: Signal1D, y: Signal1D, tol: float) -> bool:
    """True when y matches x, -x, or a reversal of either, entrywise within tol."""
    a, b = x.values, y.values
    if a.size != b.size:
        raise ValueError(f"signals differ in length: {a.size} vs {b.size}")
    for cand in (a, -a, a[::-1], -a[::-1]):
        if np.abs(b - cand).max() <= tol:
            return True
    return False


def trivially_equivalent_2d(X: Matrix2D, Z: Matrix2D, tol: float) -> bool:
    """True when Z matches X, -X, or a half-turn rotation of either within tol."""
    a, b = X.values, Z.values
    if a.shape != b.shape:
        raise ValueError(f"matrices differ in size: {a.shape} vs {b.shape}")
    rot = a[::-1, ::-1]
    for cand in (a, -a, rot, -rot):
        if np.abs(b - cand).max() <= tol:
            return True
    return False
