"""Reduction of a 2D autocorrelation to the 1D autocorrelation of its row vector.

Every lag of the flattened signal's autocorrelation is either a single grid
entry or the sum of exactly two, which is what makes 2D recovery expressible
as a 1D problem plus side constraints.
"""

from __future__ import annotations

import operator

import numpy as np

from .core import SYMMETRY_RTOL, Autocorr1D, Autocorr2D, Matrix2D
from .core import autocorr_1d, autocorr_2d, vectorize_rowwise
from .errors import AsymmetricInput, DegenerateSize


def _checked_entries(R: Autocorr2D) -> list[float]:
    """R's entries as Python floats, row by row, after the one check of its point
    symmetry: entry k mirrors entry len - 1 - k."""
    flat = R.values.ravel().tolist()
    # the grid is finite, so a difference that overflows is inf, never nan; each
    # mirrored pair is compared once, and the centre entry with itself gives 0.0
    half = len(flat) // 2
    asym = max(map(abs, map(operator.sub, flat[:half + 1], reversed(flat))))
    if not asym <= SYMMETRY_RTOL * max(map(abs, flat)):
        raise AsymmetricInput(f"lag grid asymmetry {asym:.3e} exceeds tolerance")
    return flat


def reduce_2d_to_1d(R: Autocorr2D) -> Autocorr1D:
    """Extract the autocorrelation of the row-flattened signal from the 2D grid.

    For lag ell with i = ell // n and j = ell % n:

      j == 0            -> R(i, 0)
      ell > n*(n-1)     -> R(n-1, j)
      otherwise         -> R(i, j) + R(i+1, j-n)

    Negative lags follow by symmetry. Entry ell of `half` in _reduce_entries is
    lag ell; grid entry R(i, j) sits at flat[(i + n-1) * (2n-1) + j + n-1].
    """
    return _reduce_entries(R.n, _checked_entries(R))


def _reduce_entries(n: int, flat: list[float]) -> Autocorr1D:
    """reduce_2d_to_1d of the entries that _checked_entries gave."""
    side = 2 * n - 1
    half = []
    for start in range((n - 1) * side, (side - 1) * side, side):  # rows i = 0..n-2
        half.append(flat[start + n - 1])
        # R(i, j) + R(i+1, j-n), j = 1..n-1; a sum that overflows is inf, which
        # Autocorr1D refuses
        half.extend(map(operator.add, flat[start + n:start + side],
                        flat[start + side:start + side + n - 1]))
    half.extend(flat[-n:])  # R(n-1, j), j = 0..n-1
    return Autocorr1D.from_nonneg(half)


def _constraint_entries(R: Autocorr2D) -> list[float]:
    """_checked_entries of a grid of side at least 2; the corner R(n-1, -(n-1)) is
    entry -(2n-1)."""
    if R.n < 2:
        raise DegenerateSize("constraint needs a matrix of side at least 2")
    return _checked_entries(R)


def key_constraint(R: Autocorr2D) -> float:
    """The corner entry R(n-1, -(n-1)), around which solve_2d's corner band lies.

    Equals X(0, n-1) * X(n-1, 0) for any preimage X, and therefore equals the
    product of the flattened signal's entries at n-1 and n*n - n.
    """
    return _constraint_entries(R)[1 - 2 * R.n]


def verify_reduction(X: Matrix2D) -> float:
    """Max absolute gap between the reduced 2D route and the direct 1D route."""
    via_grid = reduce_2d_to_1d(autocorr_2d(X))
    direct = autocorr_1d(vectorize_rowwise(X))
    return float(np.abs(via_grid.values - direct.values).max())
