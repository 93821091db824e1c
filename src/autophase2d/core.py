"""Signal containers, autocorrelation operators, and the Fourier-magnitude front end.

Lag-indexed data uses a fixed offset layout throughout the package: the 1D
autocorrelation of a length-m signal is stored as 2m-1 values with lag zero
at index m-1, and the 2D autocorrelation of an n-by-n matrix as a
(2n-1)-square grid with the zero lag at (n-1, n-1).

Containers that hold arrays are declared with eq=False, so they compare and
hash by identity: a generated field-wise == would raise on any array of two
or more elements.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidOversampling, LengthMismatch, NotAnAutocorrelation

# Relative tolerance for every "this should have been exactly real/symmetric" check.
SYMMETRY_RTOL = 1e-8
# measurements_to_autocorr_2d keeps the inverse DFT matrices of this many grid
# sizes, each of at most CACHED_DFT_SIDE points a side (16 bytes an entry).
CACHED_DFT_SIZES = 4
CACHED_DFT_SIDE = 256


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def _finite_float_array(values, name: str) -> np.ndarray:
    a = np.asarray(values, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must contain only finite values")
    return a


def _trusted(cls, *fields):
    """An instance of `cls` whose fields are set by its `_fill` alone, without the
    checks of its constructor: for values already checked where they entered."""
    return object.__new__(cls)._fill(*fields)


def _finite_numbers(values: list) -> bool:
    """Whether a list holds finite numbers only; False for nested lists and other entries."""
    try:
        return all(map(math.isfinite, values))
    except (TypeError, OverflowError):  # a list, a string, None, an int beyond the float range
        return False


@dataclass(frozen=True, eq=False)
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
        self._fill(self.n, a)

    def _fill(self, n: int, values: np.ndarray) -> "Matrix2D":
        """Set the fields, from a finite (n, n) float array: the one place they are set."""
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "values", _freeze(values))
        return self

    @classmethod
    def from_rows(cls, rows) -> "Matrix2D":
        a = np.asarray(rows, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square array of rows, got shape {a.shape}")
        return cls(a.shape[0], a)

    def to_dict(self) -> dict:
        return {"n": self.n, "rows": self.values.tolist()}


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class Autocorr1D:
    """Symmetric 1D autocorrelation.

    ``values`` holds lags -(m-1)..m-1; the invariant values[ell] == values[-ell]
    is exact, so producers must build the array by mirroring.
    """

    m: int
    values: np.ndarray  # length 2m-1, lag ell stored at index ell + m - 1
    # max |values|, the scale every relative tolerance on r is taken against
    max_abs: float = field(init=False, repr=False)

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
        self._fill(self.m, a, float(np.abs(a).max()))

    def _fill(self, m: int, values: np.ndarray, max_abs: float) -> "Autocorr1D":
        """Set the fields, from finite, exactly symmetric lags: the one place they are set."""
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "values", _freeze(values))
        object.__setattr__(self, "max_abs", max_abs)
        return self

    @classmethod
    def from_nonneg(cls, half) -> "Autocorr1D":
        """Build from lags 0..m-1, mirroring exactly onto the negative side.

        The mirror is finite, of length 2m-1 and symmetric by construction, so
        it is set by _fill without __post_init__'s checks; max |mirror| is
        max |half| exactly.
        A nonempty list of finite numbers, as the reduction and the JSON loader
        give, is checked and mirrored as Python numbers, without an array for
        the half; anything else, and every refusal, goes through the array.
        """
        if type(half) is list and half and _finite_numbers(half):
            m = len(half)
            values = np.array(half[:0:-1] + half, dtype=float)
            max_abs = float(max(map(abs, half)))
        else:
            h = _finite_float_array(half, "autocorrelation half")
            if h.ndim != 1 or h.size < 1:
                raise ValueError(f"expected a nonempty half spectrum, got shape {h.shape}")
            m = h.size
            values = np.concatenate([h[:0:-1], h])
            max_abs = float(np.abs(h).max())
        return _trusted(cls, m, values, max_abs)

    def lag(self, ell: int) -> float:
        return float(self.values[ell + self.m - 1])

    @property
    def nonneg(self) -> np.ndarray:
        """Lags 0..m-1."""
        return self.values[self.m - 1:]

    def to_dict(self) -> dict:
        return {"m": self.m, "values": self.values.tolist()}


@dataclass(frozen=True, eq=False)
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
        self._fill(self.n, a)

    def _fill(self, n: int, values: np.ndarray) -> "Autocorr2D":
        """Set the fields, from a finite (2n-1)-square float array: the one place they are set."""
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "values", _freeze(values))
        return self

    def at(self, i: int, j: int) -> float:
        return float(self.values[i + self.n - 1, j + self.n - 1])

    def to_dict(self) -> dict:
        return {"n": self.n, "values": self.values.tolist()}


@dataclass(frozen=True, eq=False)
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
            for j in range(1 - n if i else 0, n):  # row i=0 gets only j>=0, the rest by mirror
                s = (a[:n - i, max(0, -j):n - max(0, j)] * a[i:, max(0, j):n + min(0, j)]).sum()
                out[n - 1 + i, n - 1 + j] = out[n - 1 - i, n - 1 - j] = s
    return Autocorr2D(n, out)


def dft_matrix(m: int, cols: int | None = None) -> np.ndarray:
    """First ``cols`` columns of the m-point DFT matrix, built directly."""
    k = np.arange(m)
    p = np.arange(m if cols is None else cols)
    return np.exp(-2j * np.pi * np.multiply.outer(k, p) / m)


@functools.lru_cache(maxsize=CACHED_DFT_SIZES)
def _cached_inverse_dft(m: int) -> np.ndarray:
    return _freeze(np.conj(dft_matrix(m)))


@functools.lru_cache(maxsize=CACHED_DFT_SIZES)
def _fold_index(m: int, n: int) -> np.ndarray:
    """Flat indices into an m-by-m cyclic grid of the lags (-(n-1)..n-1)^2, in the
    (2n-1)-square layout of Autocorr2D."""
    idx = np.arange(-(n - 1), n) % m
    return _freeze(idx[:, None] * m + idx)


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
    residue beyond roundoff scale. Its real part needs no symmetry check: the
    inverse transform of any real grid has a point-symmetric real part, up to
    roundoff. The folded grid is (2n-1)-square by construction, so only its
    finiteness is checked; it is not validated again as an Autocorr2D.
    """
    m, n = Y.m, Y.n
    G = _cached_inverse_dft(m) if m <= CACHED_DFT_SIDE else np.conj(dft_matrix(m))
    grid = (G @ Y.values @ G.T) / (m * m)
    if np.abs(grid.imag).max() > SYMMETRY_RTOL * np.abs(grid.real).max():
        raise NotAnAutocorrelation("inverse transform has a non-real residue")
    R = grid.real.take(_fold_index(m, n))
    R = (R + R[::-1, ::-1]) / 2  # exact symmetry for downstream consumers
    if not np.isfinite(R).all():
        raise ValueError("autocorrelation values must contain only finite values")
    return _trusted(Autocorr2D, n, R)


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
    """True when Z matches X, -X, or a half-turn rotation of either within tol: a
    half-turn reverses the row-flattened values."""
    if X.values.shape != Z.values.shape:
        raise ValueError(f"matrices differ in size: {X.values.shape} vs {Z.values.shape}")
    return trivially_equivalent_1d(vectorize_rowwise(X), vectorize_rowwise(Z), tol)
