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
from .solver import SolverOptions, solve_2d

SEARCH_BUDGET = 10**8
_CHUNK = 1 << 18


@dataclass(frozen=True)
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


def _class_representative(flat: tuple, n: int) -> tuple:
    a = np.array(flat, dtype=np.int64).reshape(n, n)
    variants = [a, -a, a[::-1, ::-1], -a[::-1, ::-1]]
    return min(tuple(v.reshape(-1)) for v in variants)


def exhaustive_integer_search(R, bound: int) -> OracleResult:
    """Every integer matrix with entries in [-bound, bound] matching R exactly.

    Enumeration is pruned by the total-energy lag R(0, 0) and the corner
    product R(n-1, n-1); survivors are checked with exact integer arithmetic.
    Raises SearchSpaceTooLarge when the grid has more than 10^8 points.
    """
    n = R.n
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    Rv = R.values
    if not np.array_equal(Rv, np.rint(Rv)):
        raise ValueError("exact search needs an integer-valued lag grid")
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
        for start in range(0, size, _CHUNK):
            idx = np.arange(start, min(start + _CHUNK, size), dtype=np.int64)
            digits = (idx[:, None] // powers[None, :]) % base - bound
            keep = np.sum(digits * digits, axis=1) == energy
            keep &= digits[:, 0] * digits[:, -1] == corner
            for row in digits[keep]:
                X = Matrix2D(n, row.astype(float))
                if np.array_equal(autocorr_2d(X).values, Rv):
                    solutions.append(X)

    reps = sorted({
        _class_representative(tuple(int(v) for v in s.values.reshape(-1)), n)
        for s in solutions
    })
    classes = [Matrix2D(n, np.array(rep, dtype=float)) for rep in reps]
    return OracleResult(solutions, classes, size)


def planted_roundtrip(
    n: int,
    trials: int,
    seed: int,
    opts: SolverOptions | None = None,
    tol_equiv: float = 1e-6,
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
                "detail": f"{len(report.matches)} candidates match the constraint",
            })
            continue
        scale = float(np.max(np.abs(X.values)))
        if trivially_equivalent_2d(X, report.solution, tol_equiv * scale):
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
