import math

import numpy as np
import pytest

from autophase2d import (
    Autocorr1D,
    Autocorr2D,
    Matrix2D,
    NoMatch,
    Signal1D,
    SolverOptions,
    ambiguity_census,
    asymptotic_probe,
    autocorr_1d,
    autocorr_2d,
    enumerate_candidates,
    filter_by_constraint,
    key_constraint,
    reduce_2d_to_1d,
    solve_2d,
    trivially_equivalent_1d,
    trivially_equivalent_2d,
)
from autophase2d.polyfactor import (
    associated_polynomial,
    find_zero_pairs,
    group_flip_units,
)
from conftest import GOLDEN_CLASSES, GOLDEN_F, elementary_symmetric_oracle


def nomatch_grid(golden_grid):
    """Move weight between cells that the 1D reduction sums, keeping r intact."""
    v = golden_grid.values.copy()
    shift = 1e6
    v[2, 0] += shift
    v[0, 2] += shift
    v[1, 0] -= shift
    v[1, 2] -= shift
    return Autocorr2D(2, v)


# --- options ------------------------------------------------------------------


def test_solver_options_defaults():
    opts = SolverOptions()
    assert opts.tol_root == 1e-8
    assert opts.tol_pair == 1e-6
    assert opts.tol_resid == 1e-6
    assert opts.tol_match == 1e-6
    assert set(opts.to_dict()) == {"tol_root", "tol_pair", "tol_conj", "tol_resid", "tol_match"}


# --- enumeration ----------------------------------------------------------------


def test_enumerate_golden(golden_r):
    candidates = enumerate_candidates(golden_r)
    assert [y.flips for y in candidates] == [0, 2, 4, 6]  # first unit pinned
    published = [Signal1D(row) for row in GOLDEN_CLASSES]
    for y in candidates:
        hits = [p for p in published if trivially_equivalent_1d(y.values, p, 1e-6)]
        assert len(hits) == 1
        published = [p for p in published if p is not hits[0]]
        assert y.autocorr_residual <= 1e-6
    assert published == []
    got_f = sorted(y.f_value for y in candidates)
    assert got_f == pytest.approx(sorted(GOLDEN_F), abs=1e-6)


@pytest.mark.parametrize("seed,m", [(0, 4), (1, 9), (2, 9), (5, 16)])
def test_enumerate_count_matches_unit_count(seed, m):
    r = autocorr_1d(Signal1D(np.random.default_rng(seed).standard_normal(m)))
    u = group_flip_units(find_zero_pairs(associated_polynomial(r))).unit_count
    candidates = enumerate_candidates(r)
    assert len(candidates) == 2 ** (u - 1)
    assert all(y.autocorr_residual <= 1e-6 for y in candidates)


def test_enumerate_candidates_pairwise_distinct():
    r = autocorr_1d(Signal1D(np.random.default_rng(8).standard_normal(9)))
    candidates = enumerate_candidates(r)
    scale = max(np.max(np.abs(y.values.values)) for y in candidates)
    for a in range(len(candidates)):
        for b in range(a + 1, len(candidates)):
            assert not trivially_equivalent_1d(
                candidates[a].values, candidates[b].values, 1e-6 * scale
            )


def test_enumerate_zero_signal():
    r = Autocorr1D.from_nonneg([0.0, 0.0, 0.0])
    candidates = enumerate_candidates(r)
    assert len(candidates) == 1
    assert np.array_equal(candidates[0].values.values, [0.0, 0.0, 0.0])
    assert candidates[0].autocorr_residual == 0.0


def test_enumerate_pads_short_support():
    # trailing zero in the signal: the extreme lag vanishes but recovery still works
    x = Signal1D([1.0, 2.0, 0.0])
    r = autocorr_1d(x)
    candidates = enumerate_candidates(r)
    assert len(candidates) == 1
    y = candidates[0]
    assert len(y.values) == 3
    assert y.values.values[-1] == 0.0
    assert trivially_equivalent_1d(y.values, Signal1D([2.0, 1.0, 0.0]), 1e-9)


def test_enumerate_f_value_only_for_square_lengths():
    r = autocorr_1d(Signal1D(np.random.default_rng(4).standard_normal(5)))
    assert all(y.f_value is None for y in enumerate_candidates(r))
    r = autocorr_1d(Signal1D(np.random.default_rng(4).standard_normal(4)))
    assert all(y.f_value is not None for y in enumerate_candidates(r))


# --- filtering ------------------------------------------------------------------


def test_filter_golden(golden_r):
    candidates = enumerate_candidates(golden_r)
    kept = filter_by_constraint(candidates, -234.0, 2)
    assert len(kept) == 1
    assert kept[0].flips == 0
    assert filter_by_constraint(candidates, -570.0, 2)[0].flips == 2
    assert filter_by_constraint(candidates, 1e9, 2) == []
    assert filter_by_constraint(candidates, -234.0, 2, tol_match=math.inf) == candidates


def test_filter_scale_floor():
    candidates = enumerate_candidates(autocorr_1d(Signal1D([1.0, 0.5, 0.25, 2.0])))
    # c = 0 and no floor keeps exact zero products only; the floor admits roundoff
    assert filter_by_constraint(candidates, 0.0, 2, 1e-6, scale_floor=0.0) == []
    assert filter_by_constraint(candidates, 0.0, 2, 1e-6, scale_floor=1e12) == candidates


# --- end-to-end solve -----------------------------------------------------------


def test_solve_golden(golden_grid, golden_matrix):
    report = solve_2d(golden_grid)
    assert report.n == 2
    assert report.unique
    assert report.candidates_total == 4
    assert len(report.matches) == 1
    assert report.key_constraint_value == -234.0
    assert len(report.residuals) == 4
    assert trivially_equivalent_2d(report.solution, golden_matrix, 1e-6)
    assert report.tolerances["tol_match"] == 1e-6
    assert report.tolerances["scale_floor"] == pytest.approx(1e-9 * 1334.0)
    d = report.to_dict()
    assert d["unique"] is True
    assert d["solution"]["n"] == 2


def test_solve_respects_options(golden_grid):
    report = solve_2d(golden_grid, SolverOptions(tol_match=1e-3))
    assert report.unique
    wide = solve_2d(golden_grid, SolverOptions(tol_match=math.inf))
    assert not wide.unique
    assert len(wide.matches) == 4


def test_solve_no_match_carries_report(golden_grid, golden_r):
    with pytest.raises(NoMatch) as err:
        solve_2d(nomatch_grid(golden_grid))
    report = err.value.report
    assert report is not None
    assert report.matches == []
    assert report.solution is None
    assert not report.unique
    assert report.candidates_total == 4
    assert report.residuals == [y.autocorr_residual for y in enumerate_candidates(golden_r)]


def test_solve_delta_matrix():
    X = Matrix2D.from_rows([[1.0, 0.0], [0.0, 0.0]])
    report = solve_2d(autocorr_2d(X))
    assert report.unique
    assert trivially_equivalent_2d(report.solution, X, 1e-9)


@pytest.mark.parametrize("seed", [10, 20, 30])
def test_solve_recovers_planted_3x3(seed):
    X = Matrix2D(3, np.random.default_rng(seed).standard_normal((3, 3)))
    report = solve_2d(autocorr_2d(X))
    assert report.unique
    scale = float(np.max(np.abs(X.values)))
    assert trivially_equivalent_2d(report.solution, X, 1e-6 * scale)


@pytest.mark.parametrize("n,seed", [(2, s) for s in range(6)] + [(3, s) for s in range(4)]
                         + [(4, s) for s in range(3)])
def test_solve_agrees_with_enumerate_then_filter(n, seed):
    R = autocorr_2d(Matrix2D(n, np.random.default_rng(100 + seed).standard_normal((n, n))))
    report = solve_2d(R)
    candidates = enumerate_candidates(reduce_2d_to_1d(R))
    tol = report.tolerances
    kept = filter_by_constraint(candidates, key_constraint(R), n, tol["tol_match"],
                                tol["scale_floor"])
    assert report.candidates_total == len(candidates)
    assert report.residuals == [y.autocorr_residual for y in candidates]
    assert [y.to_dict() for y in report.matches] == [y.to_dict() for y in kept]


# --- census ---------------------------------------------------------------------


def test_census_golden_all_negative_products(golden_r):
    census = ambiguity_census(golden_r, 2)
    # sorted products -609, -570, -465, -234, normalized by the last entry
    assert census.d == pytest.approx(
        [609.0 / 234.0, 570.0 / 234.0, 465.0 / 234.0, 1.0], abs=1e-9
    )
    assert census.v == [None, None, None]  # gaps are negative, logs undefined
    assert census.n == 2


def test_census_seeded_instance():
    rng = np.random.default_rng(42)
    r = autocorr_1d(Signal1D(rng.standard_normal(9)))
    census = ambiguity_census(r, 3, seed=42)
    assert census.seed == 42
    assert len(census.d) == 16
    assert np.all(np.diff(census.d) > 0)
    assert all(v is not None for v in census.v)
    assert census.v == pytest.approx([math.log(g) for g in np.diff(census.d)])


def test_census_rejects_length_mismatch(golden_r):
    with pytest.raises(ValueError):
        ambiguity_census(golden_r, 3)


def test_census_rejects_n_below_2():
    with pytest.raises(ValueError):
        ambiguity_census(Autocorr1D.from_nonneg([2.0]), 1)


# --- asymptotic probe -----------------------------------------------------------


def probe_oracle(n, alpha):
    """Both constraint products straight from the zero multisets."""
    ones = [1.0] * (n * n - 3)

    def product(zeros):
        e_low = elementary_symmetric_oracle(zeros, n - 1)
        e_high = elementary_symmetric_oracle([1.0 / z for z in zeros], n - 1)
        return (e_low * e_high).real / alpha**2

    return product([alpha, 1 / alpha] + ones), product([alpha, alpha] + ones)


@pytest.mark.parametrize("n,alpha", [(2, 1e3), (3, 1e3), (3, 1e4), (4, 1e3)])
def test_probe_matches_oracle(n, alpha):
    result = asymptotic_probe(n, alpha)
    f1, f2 = probe_oracle(n, alpha)
    assert result.f1_norm == pytest.approx(f1, rel=1e-10)
    assert result.f2_norm == pytest.approx(f2, rel=1e-10)
    assert result.diff_norm == pytest.approx(f1 - f2, rel=1e-6)


def test_probe_predictions():
    assert asymptotic_probe(2, 1e3).predicted == 1.0
    assert asymptotic_probe(3, 1e3).predicted == 21.0
    r = asymptotic_probe(3, 1e3)
    assert r.diff_norm == pytest.approx(21.0, rel=0.01)


def test_probe_validates_arguments():
    with pytest.raises(ValueError):
        asymptotic_probe(1, 1e3)
    with pytest.raises(ValueError):
        asymptotic_probe(3, 10.0)
    with pytest.raises(ValueError):
        asymptotic_probe(3, -5.0)
