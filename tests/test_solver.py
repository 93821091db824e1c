import math
import time
import tracemalloc

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
from autophase2d import AutophaseError, ResidualExceeded, SearchSpaceTooLarge, reduction, solver
from autophase2d.polyfactor import (
    _autocorr_rows,
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
    assert set(opts.to_dict()) == {"tol_root", "tol_pair", "tol_resid", "tol_match"}


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


@pytest.mark.parametrize("call", [
    lambda R, r: solve_2d(R),
    lambda R, r: enumerate_candidates(r),
    lambda R, r: ambiguity_census(r, 2),
], ids=["solve_2d", "enumerate_candidates", "ambiguity_census"])
def test_nan_candidate_fails_the_residual_gate(monkeypatch, golden_grid, golden_r, call):
    # 3 flip units: every path builds the one full table, and its row 1 is mask 2
    table = solver._zero_product_table

    def one_nan_row(units, pinned):
        out = table(units, pinned)
        out[1] = np.nan
        return out

    monkeypatch.setattr(solver, "_zero_product_table", one_nan_row)
    with pytest.raises(ResidualExceeded) as info:
        call(golden_grid, golden_r)
    assert info.value.bitmasks == [2]


# --- filtering ------------------------------------------------------------------


def test_filter_golden(golden_r):
    candidates = enumerate_candidates(golden_r)
    kept = filter_by_constraint(candidates, -234.0, 2)
    assert len(kept) == 1
    assert kept[0].flips == 0
    assert filter_by_constraint(candidates, -570.0, 2)[0].flips == 2
    assert filter_by_constraint(candidates, 1e9, 2) == []
    assert filter_by_constraint(candidates, -234.0, 2, tol_match=math.inf) == candidates
    assert filter_by_constraint([], -234.0, 2) == []


def test_filter_scale_floor():
    candidates = enumerate_candidates(autocorr_1d(Signal1D([1.0, 0.5, 0.25, 2.0])))
    # c = 0 and no floor keeps exact zero products only; the floor admits roundoff
    assert filter_by_constraint(candidates, 0.0, 2, 1e-6, scale_floor=0.0) == []
    assert filter_by_constraint(candidates, 0.0, 2, 1e-6, scale_floor=1e12) == candidates


def test_filter_rejects_candidates_of_the_wrong_length(golden_r):
    golden = enumerate_candidates(golden_r)  # length 4
    short = enumerate_candidates(autocorr_1d(Signal1D([1.0, 2.0, 3.0])))
    single = enumerate_candidates(autocorr_1d(Signal1D([2.0])))
    for candidates, n in [(golden, 3), (short, 2), (golden + short, 2), (single, 1)]:
        with pytest.raises(ValueError):
            filter_by_constraint(candidates, -234.0, n)


# --- end-to-end solve -----------------------------------------------------------


def prefilter_survivors(candidates, report):
    """The candidates a solve expands: within PREFILTER_SLACK * tol_match of c."""
    tol = report.tolerances
    return filter_by_constraint(candidates, report.key_constraint_value, report.n,
                                solver.PREFILTER_SLACK * tol["tol_match"], tol["scale_floor"])


def test_solve_checks_grid_symmetry_once(golden_grid, monkeypatch):
    calls = []
    check = reduction._check_symmetry
    monkeypatch.setattr(reduction, "_check_symmetry", lambda R: calls.append(R) or check(R))
    solve_2d(golden_grid)
    assert calls == [golden_grid]


def test_solve_golden(golden_grid, golden_matrix):
    report = solve_2d(golden_grid)
    assert report.n == 2
    assert report.unique
    assert report.candidates_total == 4
    assert len(report.matches) == 1
    assert report.key_constraint_value == -234.0
    survivors = prefilter_survivors(enumerate_candidates(reduce_2d_to_1d(golden_grid)),
                                    report)
    assert [y.flips for y in survivors] == [0]
    assert report.residuals == [y.autocorr_residual for y in survivors]
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
    survivors = prefilter_survivors(enumerate_candidates(golden_r), report)
    assert report.residuals == [y.autocorr_residual for y in survivors]


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
    assert report.residuals == [y.autocorr_residual for y in prefilter_survivors(candidates, report)]
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


# --- half tables ------------------------------------------------------------------


def factors_of(x):
    return solver._factor(autocorr_1d(Signal1D(np.asarray(x, dtype=float))), SolverOptions())


def planted(n, seed):
    return Matrix2D(n, np.random.default_rng(seed).standard_normal((n, n)))


def integer_planted(n, seed):
    return Matrix2D(n, np.random.default_rng(seed).integers(-3, 4, (n, n)).astype(float))


def unit_count(R):
    return len(solver._factor(reduce_2d_to_1d(R), SolverOptions())[1])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, "trimmed"])
def test_doubling_table_matches_per_mask_expansion(n):
    if n == "trimmed":  # the vanishing extreme lag is trimmed before factoring
        x = np.random.default_rng(3).standard_normal(16)
        x[-3:] = 0.0
        core, units, _ = factors_of(x)
        assert core.m == 13
    else:
        _, units, _ = factors_of(planted(n, 0).values.reshape(-1))
    masks = np.arange(1 << (len(units) - 1), dtype=np.int64) << 1
    assert np.array_equal(solver._zero_product_table(units, pinned=True),
                          solver._expand_zero_products(units, masks))
    if len(units) <= 12:
        every = np.arange(1 << len(units), dtype=np.int64)
        assert np.array_equal(solver._zero_product_table(units, pinned=False),
                              solver._expand_zero_products(units, every))


def solve_outcome(R):
    try:
        return solve_2d(R)
    except NoMatch as err:
        return err.report


@pytest.mark.parametrize("kind", [planted, integer_planted])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_solve_matches_enumerate_then_filter_in_both_regimes(n, kind):
    regimes = set()
    for seed in range(24 if n < 5 else 8):
        R = autocorr_2d(kind(n, 700 + seed))
        r = reduce_2d_to_1d(R)
        try:
            candidates = enumerate_candidates(r)
        except AutophaseError as err:
            with pytest.raises(type(err)):
                solve_2d(R)
            continue
        report = solve_outcome(R)
        tol = report.tolerances
        kept = filter_by_constraint(candidates, key_constraint(R), n, tol["tol_match"],
                                    tol["scale_floor"])
        assert [y.to_dict() for y in report.matches] == [y.to_dict() for y in kept]
        assert report.residuals == [y.autocorr_residual
                                    for y in prefilter_survivors(candidates, report)]
        regimes.add(unit_count(R) > solver.CROSSOVER_UNITS)
    if n >= 4:
        assert True in regimes
    if n <= 3:
        assert regimes == {False}


def test_integer_corpus_covers_a_zero_corner():
    corners = [key_constraint(autocorr_2d(integer_planted(n, 700 + seed)))
               for n in (3, 4) for seed in range(24)]
    assert 0.0 in corners


def test_n6_solve_expands_only_the_survivors(monkeypatch):
    X = planted(6, 0)
    tables, expanded = [], []
    table, expand = solver._zero_product_table, solver._expand_zero_products

    def spy_table(units, pinned):
        out = table(units, pinned)
        tables.append(out.shape[0])
        return out

    def spy_expand(units, masks, first=0, coeffs=None):
        expanded.append(masks.size)
        return expand(units, masks, first, coeffs)

    monkeypatch.setattr(solver, "_zero_product_table", spy_table)
    monkeypatch.setattr(solver, "_expand_zero_products", spy_expand)
    report = solve_2d(autocorr_2d(X))
    assert report.unique
    assert trivially_equivalent_2d(report.solution, X, 1e-6 * float(np.max(np.abs(X.values))))
    assert report.candidates_total == 1 << 18
    assert len(tables) == 2 and tables[0] * tables[1] == report.candidates_total
    assert expanded == [len(report.residuals)]
    assert 1 <= len(report.residuals) < 1000


@pytest.mark.parametrize("n,seed", [(4, 0), (4, 3), (5, 0), (5, 1)])
def test_half_table_census_matches_full_table(monkeypatch, n, seed):
    r = reduce_2d_to_1d(autocorr_2d(planted(n, seed)))
    assert unit_count(autocorr_2d(planted(n, seed))) > solver.CROSSOVER_UNITS
    half = ambiguity_census(r, n).d
    monkeypatch.setattr(solver, "CROSSOVER_UNITS", 64)
    full = ambiguity_census(r, n).d
    assert np.max(np.abs(half - full)) <= 1e-12 * np.max(np.abs(full))


@pytest.mark.parametrize("rows,width", [(1, 1), (3, 2), (16, 9), (64, 25)])
def test_lag_products_match_the_row_loop(rows, width):
    T = np.random.default_rng(width).standard_normal((rows, width)) * 10.0 ** np.arange(width)
    want = _autocorr_rows(T)
    assert np.max(np.abs(solver._lag_products(T) - want)) <= 1e-14 * np.max(np.abs(want))


def nan_half_row(monkeypatch, which, row, value):
    table = solver._zero_product_table

    def poisoned(units, pinned):
        out = table(units, pinned)
        if pinned == (which == "A"):
            out[row] = value
        return out

    monkeypatch.setattr(solver, "_zero_product_table", poisoned)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("which", ["A", "B"])
@pytest.mark.parametrize("call", ["solve_2d", "ambiguity_census"])
def test_bad_half_row_fails_the_residual_gate(monkeypatch, call, which, value):
    R = autocorr_2d(planted(4, 0))
    u = unit_count(R)
    a = (u - 1) // 2
    nan_half_row(monkeypatch, which, 1, value)
    with pytest.raises(ResidualExceeded) as info:
        if call == "solve_2d":
            solve_2d(R)
        else:
            ambiguity_census(reduce_2d_to_1d(R), 4)
    if which == "A":  # A row 1 is unit 1 flipped, in every B row
        want = [(j << (a + 1)) | 2 for j in range(1 << (u - 1 - a))]
    else:  # B row 1 is unit a+1 flipped, with every A row
        want = [(1 << (a + 1)) | (i << 1) for i in range(1 << a)]
    assert info.value.bitmasks == want


def test_half_rows_that_miss_r_fail_every_candidate():
    # each half row agrees with its row 0, but row 0 times row 0 misses r by 1e-3
    core, units, scale = solver._factor(reduce_2d_to_1d(autocorr_2d(planted(4, 0))),
                                        SolverOptions())
    assert len(units) > solver.CROSSOVER_UNITS
    wrong = Autocorr1D.from_nonneg(core.nonneg * (1 + 1e-3))
    with pytest.raises(ResidualExceeded) as info:
        solver._Halves((wrong, units, scale), 1e-6)
    assert info.value.bitmasks == [mask << 1 for mask in range(1 << (len(units) - 1))]


@pytest.mark.parametrize("seed", [7, 12])
def test_n9_is_refused_by_type_quickly(seed):
    # |z| reaches 150-250 here: evaluating P there overflowed and let a nan residual through
    R = autocorr_2d(Matrix2D(9, np.random.default_rng(seed).standard_normal((9, 9))))
    zp = find_zero_pairs(associated_polynomial(reduce_2d_to_1d(R)))
    assert np.max(np.abs(zp.zeros)) > 100
    assert np.all(zp.root_residuals <= 1e-8)
    start = time.perf_counter()
    with pytest.raises(SearchSpaceTooLarge):
        solve_2d(R)
    assert time.perf_counter() - start < 1.0


def test_n7_enumeration_is_refused_before_allocating():
    r = reduce_2d_to_1d(autocorr_2d(planted(7, 0)))
    tracemalloc.start()
    try:
        with pytest.raises(SearchSpaceTooLarge):
            enumerate_candidates(r)
        with pytest.raises(SearchSpaceTooLarge):
            ambiguity_census(r, 7)
        with pytest.raises(SearchSpaceTooLarge):
            solve_2d(autocorr_2d(planted(7, 0)), SolverOptions(tol_match=math.inf))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_n6_enumeration_fits_the_budget():
    _, units, _ = solver._factor(reduce_2d_to_1d(autocorr_2d(planted(6, 0))), SolverOptions())
    assert (1 << (len(units) - 1)) * 36 <= solver.MATERIALIZE_BUDGET
