"""Reduction of a 2D autocorrelation to the 1D autocorrelation of its row vector.

Every lag of the flattened signal's autocorrelation is either a single grid
entry or the sum of exactly two, which is what makes 2D recovery expressible
as a 1D problem plus side constraints.
"""

from __future__ import annotations

import numpy as np

from .core import SYMMETRY_RTOL, Autocorr1D, Autocorr2D, Matrix2D
from .core import autocorr_1d, autocorr_2d, vectorize_rowwise
from .errors import AsymmetricInput, DegenerateSize


def _check_symmetry(R: Autocorr2D) -> None:
    flat = R.values.ravel().tolist()
    # the grid is finite, so a difference that overflows is inf, never nan; each
    # mirrored pair is compared once, and the centre entry with itself gives 0.0
    asym = max((abs(a - b) for a, b in zip(flat[:len(flat) // 2], reversed(flat))), default=0.0)
    if not asym <= SYMMETRY_RTOL * max(map(abs, flat)):
        raise AsymmetricInput(f"lag grid asymmetry {asym:.3e} exceeds tolerance")


def reduce_2d_to_1d(R: Autocorr2D) -> Autocorr1D:
    """Extract the autocorrelation of the row-flattened signal from the 2D grid.

    For lag ell with i = ell // n and j = ell % n:

      j == 0            -> R(i, 0)
      ell > n*(n-1)     -> R(n-1, j)
      otherwise         -> R(i, j) + R(i+1, j-n)

    Negative lags follow by symmetry. Entry ell of `half` in _reduce_unchecked
    is lag ell; grid entry R(i, j) sits at v[i + n-1][j + n-1].
    """
    _check_symmetry(R)
    return _reduce_unchecked(R)


def _reduce_unchecked(R: Autocorr2D) -> Autocorr1D:
    """reduce_2d_to_1d of a grid whose symmetry the caller has checked."""
    n = R.n
    v = R.values.tolist()
    half = []
    for i in range(n - 1, 2 * n - 2):
        row, below = v[i], v[i + 1]
        half.append(row[n - 1])
        # a sum that overflows is inf, which Autocorr1D refuses
        half.extend(a + b for a, b in zip(row[n:], below))
    half.extend(v[-1][n - 1:])
    return Autocorr1D.from_nonneg(half)


def key_constraint(R: Autocorr2D) -> float:
    """The corner entry R(n-1, -(n-1)), around which solve_2d's corner band lies.

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
