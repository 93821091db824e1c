"""Independent checks: exhaustive integer search and planted random roundtrips.

Both paths avoid the factorization machinery so they can serve as ground
truth for it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Matrix2D, autocorr_2d, trivially_equivalent_2d
from .errors import (
    AutophaseError,
    NoMatch,
    SearchSpaceTooLarge,
)
from .polyfactor import CHUNK_PRODUCTS
from .solver import SolverOptions, solve_2d

# Grid points a search may hold. Points cost about 0.1 us (n = 2) to 0.5 us
# (n = 3, bound 1) and 0.4 us at n = 4, bound 1 (README), so 5 * 10**7 points end
# within about 20 s; n = 4 at bound 1 (3^16 points) fits, n = 2 at bound 42 does not.
SEARCH_BUDGET = 5 * 10**7
EXACT_LIMIT = 2**53
# A unique match counts as the planted signal within this many times max|X|.
EQUIV_RTOL = 1e-6


@dataclass(frozen=True, eq=False)
class OracleResult:
    solutions: list[Matrix2D]  # every exact preimage, lexicographic by entries
    classes: list[Matrix2D]  # one representative per sign / half-turn class
    search_space_size: int

    def to_dict(self) -> dict:
        return {
            "solutions": [s.to_dict() for s in self.solutions],
            "classes": [s.to_dict() for s in self.classes],
            "search_space_size": int(self.search_space_size),
        }


def _class_representative(flat: tuple) -> tuple:
    """Least of the row-flattened X, -X and their half-turns (reversals)."""
    neg = tuple(-v for v in flat)
    return min(flat, neg, flat[::-1], neg[::-1])


def _matches_grid(digits: np.ndarray, target: np.ndarray, n: int) -> np.ndarray:
    """Whether each row of `digits`, a row-flattened n-by-n integer matrix, has
    the lag grid `target` (int64, laid out as Autocorr2D.values).

    Each lag is summed over column slices of every row at once, by the slice rule
    of autocorr_2d, and compared with both of its mirrored grid entries. The sums
    are exact in int64: a search admits only entries so small that no lag comes
    near 2**63.
    """
    X = digits.reshape(-1, n, n)
    match = np.ones(X.shape[0], dtype=bool)
    for i in range(n):
        for j in range(1 - n if i else 0, n):
            lag = (X[:, :n - i, max(0, -j):n - max(0, j)]
                   * X[:, i:, max(0, j):n + min(0, j)]).sum(axis=(1, 2))
            match &= lag == target[n - 1 + i, n - 1 + j]
            match &= lag == target[n - 1 - i, n - 1 - j]
    return match


def exhaustive_integer_search(R, bound: int) -> OracleResult:
    """Every integer matrix with entries in [-bound, bound] matching R exactly.

    Enumeration is pruned by the total-energy lag R(0, 0) and the corner
    product R(n-1, n-1); the survivors of each chunk of points are checked
    against the whole grid at once, in exact integer arithmetic.
    Raises SearchSpaceTooLarge when the grid has more than SEARCH_BUDGET points, and
    ValueError when a lag value is not an integer of magnitude at most 2**53.
    """
    n = R.n
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    Rv = R.values
    if not np.array_equal(Rv, np.rint(Rv)):
        raise ValueError("exact search needs an integer-valued lag grid")
    if np.abs(Rv).max() > EXACT_LIMIT:
        raise ValueError("exact search needs lag values of magnitude at most 2**53")
    k = n * n
    base = 2 * bound + 1
    size = base**k
    if size > SEARCH_BUDGET:
        raise SearchSpaceTooLarge(f"{base}^{k} = {size} points exceeds budget {SEARCH_BUDGET}")

    target = np.rint(Rv).astype(np.int64)
    energy = int(target[n - 1, n - 1])  # R(0, 0) in offset storage
    corner = int(target[2 * n - 2, 2 * n - 2])  # R(n-1, n-1)
    solutions: list[Matrix2D] = []
    if energy >= 0:
        powers = base ** np.arange(k - 1, -1, -1, dtype=np.int64)
        step = max(1, CHUNK_PRODUCTS // k)  # points of k digits each
        for start in range(0, size, step):
            idx = np.arange(start, min(start + step, size), dtype=np.int64)
            digits = (idx[:, None] // powers[None, :]) % base - bound
            keep = (digits * digits).sum(axis=1) == energy
            keep &= digits[:, 0] * digits[:, -1] == corner
            survivors = digits[keep]
            for row in survivors[_matches_grid(survivors, target, n)]:
                solutions.append(Matrix2D(n, row.astype(float)))

    reps = sorted({
        _class_representative(tuple(int(v) for v in s.values.reshape(-1)))
        for s in solutions
    })
    classes = [Matrix2D(n, np.array(rep, dtype=float)) for rep in reps]
    return OracleResult(solutions, classes, size)


def planted_roundtrip(
    n: int,
    trials: int,
    seed: int,
    opts: SolverOptions | None = None,
) -> dict:
    """Solve autocorrelations of seeded Gaussian matrices and score the outcomes.

    A trial succeeds when the solver reports a unique match equivalent to the
    planted signal. Every failure is flagged with a diagnostic; a unique but
    wrong answer is counted separately as silent_wrong and should never occur.
    """
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    rng = np.random.default_rng(seed)
    successes = 0
    silent_wrong = 0
    flagged = []
    max_residual = 0.0
    for trial in range(trials):
        X = Matrix2D(n, rng.standard_normal((n, n)))
        try:
            report = solve_2d(autocorr_2d(X), opts)
        except NoMatch as err:
            if err.report is not None and err.report.residuals:
                max_residual = max(max_residual, max(err.report.residuals))
            flagged.append({"trial": trial, "kind": "no_match", "detail": str(err)})
            continue
        except AutophaseError as err:
            flagged.append({"trial": trial, "kind": type(err).__name__, "detail": str(err)})
            continue
        max_residual = max(max_residual, max(report.residuals))
        if not report.unique:
            flagged.append({
                "trial": trial,
                "kind": "multiple_matches",
                "detail": f"{len(report.matches)} candidates fit the lag grid",
            })
            continue
        scale = float(np.abs(X.values).max())
        if trivially_equivalent_2d(X, report.solution, EQUIV_RTOL * scale):
            successes += 1
        else:
            silent_wrong += 1
            flagged.append({
                "trial": trial,
                "kind": "silent_wrong",
                "detail": "unique match is not equivalent to the planted signal",
            })
    return {
        "n": n,
        "trials": trials,
        "seed": seed,
        "rng": "numpy-pcg64",
        "successes": successes,
        "failures": trials - successes,
        "silent_wrong": silent_wrong,
        "flagged": flagged,
        "max_residual": max_residual,
    }
