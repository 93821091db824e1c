"""Acceptance gate: one test per shipped guarantee, one verdict line each.

Run with plain pytest; verdict lines bypass capture so every criterion
prints PASS or FAIL with its runtime even in quiet mode.
"""

import time

import numpy as np

from autophase2d import (
    Matrix2D,
    Signal1D,
    autocorr_1d,
    autocorr_2d,
    ambiguity_census,
    asymptotic_probe,
    enumerate_candidates,
    exhaustive_integer_search,
    filter_by_constraint,
    planted_roundtrip,
    reduce_2d_to_1d,
    solve_2d,
    trivially_equivalent_1d,
    trivially_equivalent_2d,
    vectorize_rowwise,
    verify_reduction,
)
from autophase2d.errors import UnitCircleZero
from autophase2d.jsonio import census_csv
from autophase2d.polyfactor import associated_polynomial, find_zero_pairs, group_flip_units
from conftest import GOLDEN_CLASSES, GOLDEN_KEY, f_vieta

TOL_MATCH = 1e-6


def verdict(capsys, num, label, failures, elapsed):
    status = "PASS" if not failures else "FAIL"
    detail = f": {'; '.join(failures)}" if failures else ""
    with capsys.disabled():
        print(f"{status} {num} {label} ({elapsed:.2f}s){detail}")
    assert not failures, f"{label}{detail}"


def test_1_known_instance_end_to_end(capsys, golden_grid, golden_matrix):
    started = time.monotonic()
    failures = []

    r = reduce_2d_to_1d(golden_grid)
    gap = np.max(np.abs(r.nonneg - np.array([1334.0, -867.0, 242.0, -24.0])))
    if gap > 1e-9:
        failures.append(f"reduction off by {gap:.3e}")

    candidates = enumerate_candidates(r)
    if len(candidates) != 4:
        failures.append(f"{len(candidates)} candidates instead of 4")
    unmatched = [Signal1D(row) for row in GOLDEN_CLASSES]
    for flips, row in zip(candidates.flips.tolist(), candidates.values):
        hits = [p for p in unmatched if trivially_equivalent_1d(Signal1D(row), p, 1e-6)]
        if len(hits) != 1:
            failures.append(f"candidate mask {flips} matches {len(hits)} known classes")
            continue
        unmatched = [p for p in unmatched if p is not hits[0]]
    if unmatched:
        failures.append(f"{len(unmatched)} known classes not produced")

    kept = filter_by_constraint(candidates, GOLDEN_KEY, 2, TOL_MATCH)
    first = Signal1D(GOLDEN_CLASSES[0])
    if len(kept) != 1 or not trivially_equivalent_1d(Signal1D(kept.values[0]), first, 1e-6):
        failures.append("constraint filter does not isolate the known class")

    report = solve_2d(golden_grid)
    if not report.unique:
        failures.append("solve is not unique")
    if not trivially_equivalent_2d(report.solution, golden_matrix, 1e-6):
        failures.append("solve returns a different class")

    elapsed = time.monotonic() - started
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 1s")
    verdict(capsys, 1, "known 2x2 instance end to end", failures, elapsed)


def test_2_reduction_identity_bulk(capsys):
    started = time.monotonic()
    failures = []
    rng = np.random.default_rng(555)
    violations = 0
    worst = 0.0
    for n in (2, 3, 4):
        for _ in range(1000):
            X = Matrix2D(n, rng.standard_normal((n, n)))
            gap = verify_reduction(X)
            scale = float(np.max(np.abs(autocorr_1d(vectorize_rowwise(X)).values)))
            ratio = gap / (1e-10 * scale)
            worst = max(worst, ratio)
            if ratio > 1.0:
                violations += 1
    if violations:
        failures.append(f"{violations}/3000 instances exceed 1e-10 * max|r|")
    elapsed = time.monotonic() - started
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 10s")
    verdict(
        capsys, 2,
        f"reduction identity on 3000 instances (worst {worst:.2e} of budget)",
        failures, elapsed,
    )


def test_3_planted_roundtrips(capsys):
    started = time.monotonic()
    failures = []

    small = planted_roundtrip(3, 200, seed=2026)
    if small["successes"] < 198:
        failures.append(f"3x3 recovered {small['successes']}/200, need 198")
    if small["silent_wrong"] != 0:
        failures.append(f"3x3 produced {small['silent_wrong']} silent wrong answers")

    large = planted_roundtrip(4, 20, seed=2027)
    if large["successes"] < 18:
        failures.append(f"4x4 recovered {large['successes']}/20, need 18")
    if len(large["flagged"]) != large["failures"]:
        failures.append("4x4 has unflagged failures")
    if large["silent_wrong"] != 0:
        failures.append(f"4x4 produced {large['silent_wrong']} silent wrong answers")

    elapsed = time.monotonic() - started
    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 300s")
    verdict(
        capsys, 3,
        f"planted roundtrips (3x3 {small['successes']}/200, 4x4 {large['successes']}/20)",
        failures, elapsed,
    )


def equivalent_pair_exists(vals, tol):
    """Any two rows equal up to sign or reversal, via canonical forms.

    Rows are canonicalized to the lexicographic minimum of their four
    variants, clustered on the leading coordinate, and compared exactly
    inside each cluster.
    """
    canon = np.array([
        min(map(tuple, (v, -v, v[::-1], -v[::-1]))) for v in vals
    ])
    order = np.lexsort(canon.T[::-1])
    canon = canon[order]
    start = 0
    for stop in range(1, len(canon) + 1):
        boundary = stop == len(canon) or canon[stop, 0] - canon[stop - 1, 0] > tol
        if not boundary:
            continue
        block = canon[start:stop]
        for a in range(len(block)):
            for b in range(a + 1, len(block)):
                if np.max(np.abs(block[a] - block[b])) <= tol:
                    return True
        start = stop
    return False


def test_4_candidate_validity(capsys):
    started = time.monotonic()
    failures = []
    cases = [(2, s) for s in range(10)] + [(3, s) for s in range(10)] + [(4, 0), (4, 1)]
    for n, seed in cases:
        rng = np.random.default_rng(seed * 101 + n)
        r = autocorr_1d(Signal1D(rng.standard_normal(n * n)))
        u = group_flip_units(find_zero_pairs(associated_polynomial(r))).unit_count
        candidates = enumerate_candidates(r)
        tag = f"n={n} seed={seed}"
        if len(candidates) != 2 ** (u - 1):
            failures.append(f"{tag}: {len(candidates)} candidates for {u} units")
        bad = float(candidates.autocorr_residuals.max())
        if bad > 1e-6:
            failures.append(f"{tag}: autocorrelation residual {bad:.3e}")
        vals = candidates.values
        scale = float(np.max(np.abs(vals)))
        if equivalent_pair_exists(vals, 1e-6 * scale):
            failures.append(f"{tag}: two candidates are trivially equivalent")
    elapsed = time.monotonic() - started
    verdict(capsys, 4, f"candidate validity over {len(cases)} enumerations", failures, elapsed)


def test_5_constraint_product_cross_check(capsys):
    started = time.monotonic()
    failures = []
    checked = 0
    worst = 0.0
    for seed in range(40):
        for n in (2, 3):
            rng = np.random.default_rng(7000 + 10 * seed + n)
            r = autocorr_1d(Signal1D(rng.standard_normal(n * n)))
            try:
                pairing = find_zero_pairs(associated_polynomial(r))
            except UnitCircleZero:
                continue
            fu = group_flip_units(pairing)
            candidates = enumerate_candidates(r)
            for flips, direct in zip(candidates.flips.tolist(), candidates.f_values.tolist()):
                vieta = f_vieta(fu, flips, pairing.scale, n)
                rel = abs(abs(vieta) - abs(direct)) / max(abs(direct), 1e-300)
                worst = max(worst, rel)
                checked += 1
                if rel > 1e-8:
                    failures.append(f"n={n} seed={seed} mask={flips}: rel error {rel:.3e}")
    if checked < 500:
        failures.append(f"only {checked} candidates checked, need 500")
    elapsed = time.monotonic() - started
    verdict(
        capsys, 5,
        f"constraint product cross-check on {checked} candidates (worst {worst:.1e})",
        failures, elapsed,
    )


def test_6_census_properties(capsys):
    started = time.monotonic()
    failures = []

    def build():
        rng = np.random.default_rng(42)
        r = autocorr_1d(Signal1D(rng.standard_normal(9)))
        return ambiguity_census(r, 3)

    census = build()
    gaps = np.diff(census.d)
    if not np.all(gaps > 0):
        failures.append("products are not strictly increasing")
    if not np.isfinite(census.v).all():
        failures.append("some log gaps are undefined")
    if gaps.size and float(np.min(gaps)) <= 10 * TOL_MATCH:
        failures.append(f"min gap {float(np.min(gaps)):.3e} within 10x match tolerance")
    if census_csv(census) != census_csv(build()):
        failures.append("CSV bytes differ between identical runs")

    elapsed = time.monotonic() - started
    min_gap = float(np.min(gaps)) if gaps.size else float("nan")
    verdict(
        capsys, 6,
        f"census separation on the seeded 3x3 instance (min gap {min_gap:.2e})",
        failures, elapsed,
    )


def test_7_asymptotic_probe(capsys):
    started = time.monotonic()
    failures = []
    for n, alpha, rel in ((2, 1e3, 0.01), (3, 1e3, 0.01), (3, 1e4, 0.001)):
        result = asymptotic_probe(n, alpha)
        err = abs(result.diff_norm - result.predicted) / result.predicted
        if err > rel:
            failures.append(f"n={n} alpha={alpha:g}: off by {err:.2e}, budget {rel}")
    elapsed = time.monotonic() - started
    verdict(capsys, 7, "asymptotic probe against predicted counts", failures, elapsed)


def test_8_integer_oracle_equivalence(capsys, golden_grid, golden_matrix):
    started = time.monotonic()
    failures = []
    result = exhaustive_integer_search(golden_grid, 30)
    if len(result.classes) != 1:
        failures.append(f"{len(result.classes)} integer classes instead of 1")
    elif not trivially_equivalent_2d(result.classes[0], golden_matrix, 1e-9):
        failures.append("integer search found a different class")
    for s in result.solutions:
        if not np.array_equal(autocorr_2d(s).values, golden_grid.values):
            failures.append("a reported solution does not reproduce the grid")
            break
    report = solve_2d(golden_grid)
    if result.classes and not trivially_equivalent_2d(
        report.solution, result.classes[0], 1e-6
    ):
        failures.append("solver class disagrees with the exhaustive search")
    elapsed = time.monotonic() - started
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 120s")
    verdict(capsys, 8, "exhaustive integer search agreement", failures, elapsed)
