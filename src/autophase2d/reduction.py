"""Reduction of a 2D autocorrelation to the 1D autocorrelation of its row vector.

Every lag of the flattened signal's autocorrelation is either a single grid
entry or the sum of exactly two, which is what makes 2D recovery expressible
as a 1D problem plus side constraints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SYMMETRY_RTOL, Autocorr1D, Autocorr2D, Matrix2D
from .core import autocorr_1d, autocorr_2d, vectorize_rowwise
from .errors import AsymmetricInput, DegenerateSize


def _check_symmetry(R: Autocorr2D) -> None:
    v = R.values
    asym = np.abs(v - v[::-1, ::-1]).max()
    if asym > SYMMETRY_RTOL * np.abs(v).max():
        raise AsymmetricInput(f"lag grid asymmetry {asym:.3e} exceeds tolerance")


def reduce_2d_to_1d(R: Autocorr2D) -> Autocorr1D:
    """Extract the autocorrelation of the row-flattened signal from the 2D grid.

    For lag ell with i = ell // n and j = ell % n:

      j == 0            -> R(i, 0)
      ell > n*(n-1)     -> R(n-1, j)
      otherwise         -> R(i, j) + R(i+1, j-n)

    Negative lags follow by symmetry. Row i, column j of `half` in
    _reduce_unchecked is lag ell = i*n + j; grid entry R(i, j) sits at v[i + n-1, j + n-1].
    """
    _check_symmetry(R)
    return _reduce_unchecked(R)


def _reduce_unchecked(R: Autocorr2D) -> Autocorr1D:
    """reduce_2d_to_1d of a grid whose symmetry the caller has checked."""
    n = R.n
    v = R.values
    half = np.empty((n, n))
    half[:, 0] = v[n - 1:, n - 1]
    half[:-1, 1:] = v[n - 1:-1, n:] + v[n:, :n - 1]
    half[-1, 1:] = v[-1, n:]
    return Autocorr1D.from_nonneg(half.reshape(-1))


@dataclass(frozen=True)
class ConstraintSpec:
    """One grid entry the 1D reduction does not consume, as a check on candidates."""

    i: int
    j: int
    ell: int  # index pair in the flattened signal: x[ell'] x[ell' + ell] terms
    value: float

    def to_dict(self) -> dict:
        return {"i": self.i, "j": self.j, "ell": self.ell, "value": float(self.value)}


def residual_constraint_set(R: Autocorr2D) -> list[ConstraintSpec]:
    """Grid entries with i > 0, j < 0: the (n-1)^2 values untouched by the reduction."""
    _check_symmetry(R)
    n = R.n
    out = []
    for i in range(1, n):
        for j in range(-(n - 1), 0):
            out.append(ConstraintSpec(i, j, i * n + j, R.at(i, j)))
    out.sort(key=lambda c: c.ell)
    return out


def key_constraint(R: Autocorr2D) -> float:
    """The single corner entry R(n-1, -(n-1)) used to disambiguate candidates.

    Equals X(0, n-1) * X(n-1, 0) for any preimage X, and therefore equals the
    product of the flattened signal's entries at n-1 and n*n - n.
    """
    if R.n < 2:
        raise DegenerateSize("constraint needs a matrix of side at least 2")
    _check_symmetry(R)
    return R.at(R.n - 1, -(R.n - 1))


def verify_reduction(X: Matrix2D) -> float:
    """Max absolute gap between the reduced 2D route and the direct 1D route."""
    via_grid = reduce_2d_to_1d(autocorr_2d(X))
    direct = autocorr_1d(vectorize_rowwise(X))
    return float(np.abs(via_grid.values - direct.values).max())
