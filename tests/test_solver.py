import dataclasses
import json
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import autophase2d as ap
from autophase2d import (
    Autocorr1D,
    Autocorr2D,
    Candidates,
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
from autophase2d import (
    AutophaseError,
    ResidualExceeded,
    SearchSpaceTooLarge,
    jsonio,
    polyfactor,
    reduction,
    solver,
)
from autophase2d.polyfactor import (
    associated_polynomial,
    find_zero_pairs,
    group_flip_units,
)
from conftest import GOLDEN_CLASSES, GOLDEN_F, assert_same_table, elementary_symmetric_oracle


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
    assert list(opts.to_dict().items()) == [
        (f.name, getattr(opts, f.name)) for f in dataclasses.fields(SolverOptions)]


# --- enumeration ----------------------------------------------------------------


def test_enumerate_golden(golden_r):
    candidates = enumerate_candidates(golden_r)
    assert candidates.flips.tolist() == [0, 2, 4, 6]  # first unit pinned
    published = [Signal1D(row) for row in GOLDEN_CLASSES]
    for row, residual in zip(candidates.values, candidates.autocorr_residuals):
        hits = [p for p in published if trivially_equivalent_1d(Signal1D(row), p, 1e-6)]
        assert len(hits) == 1
        published = [p for p in published if p is not hits[0]]
        assert residual <= 1e-6
    assert published == []
    got_f = sorted(candidates.f_values.tolist())
    assert got_f == pytest.approx(sorted(GOLDEN_F), abs=1e-6)


@pytest.mark.parametrize("seed,m", [(0, 4), (1, 9), (2, 9), (5, 16)])
def test_enumerate_count_matches_unit_count(seed, m):
    r = autocorr_1d(Signal1D(np.random.default_rng(seed).standard_normal(m)))
    u = group_flip_units(find_zero_pairs(associated_polynomial(r))).unit_count
    candidates = enumerate_candidates(r)
    assert len(candidates) == 2 ** (u - 1)
    assert (candidates.autocorr_residuals <= 1e-6).all()


def test_enumerate_candidates_pairwise_distinct():
    r = autocorr_1d(Signal1D(np.random.default_rng(8).standard_normal(9)))
    candidates = enumerate_candidates(r)
    scale = np.max(np.abs(candidates.values))
    rows = [Signal1D(row) for row in candidates.values]
    for a in range(len(rows)):
        for b in range(a + 1, len(rows)):
            assert not trivially_equivalent_1d(rows[a], rows[b], 1e-6 * scale)


def test_enumerate_zero_signal():
    r = Autocorr1D.from_nonneg([0.0, 0.0, 0.0])
    candidates = enumerate_candidates(r)
    assert len(candidates) == 1
    assert np.array_equal(candidates.values[0], [0.0, 0.0, 0.0])
    assert candidates.autocorr_residuals[0] == 0.0


def test_enumerate_pads_short_support():
    # trailing zero in the signal: the extreme lag vanishes but recovery still works
    x = Signal1D([1.0, 2.0, 0.0])
    r = autocorr_1d(x)
    candidates = enumerate_candidates(r)
    assert len(candidates) == 1
    y = candidates.values[0]
    assert len(y) == 3
    assert y[-1] == 0.0
    assert trivially_equivalent_1d(Signal1D(y), Signal1D([2.0, 1.0, 0.0]), 1e-9)


def test_enumerate_f_value_only_for_square_lengths():
    r = autocorr_1d(Signal1D(np.random.default_rng(4).standard_normal(5)))
    assert enumerate_candidates(r).f_values is None
    r = autocorr_1d(Signal1D(np.random.default_rng(4).standard_normal(4)))
    candidates = enumerate_candidates(r)
    assert candidates.f_values.shape == (len(candidates),)


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
    assert kept.flips[0] == 0
    assert filter_by_constraint(candidates, -570.0, 2).flips[0] == 2
    assert len(filter_by_constraint(candidates, 1e9, 2)) == 0
    assert_same_table(filter_by_constraint(candidates, -234.0, 2, tol_match=math.inf), candidates)
    empty = Candidates(candidates.flips[:0], candidates.values[:0],
                       candidates.autocorr_residuals[:0])
    assert_same_table(filter_by_constraint(empty, -234.0, 2), empty)
    assert filter_by_constraint(empty, -234.0, 2).values.shape == (0, 4)


def test_filter_scale_floor():
    candidates = enumerate_candidates(autocorr_1d(Signal1D([1.0, 0.5, 0.25, 2.0])))
    # c = 0 and no floor keeps exact zero products only; the floor admits roundoff
    assert len(filter_by_constraint(candidates, 0.0, 2, 1e-6, scale_floor=0.0)) == 0
    assert_same_table(filter_by_constraint(candidates, 0.0, 2, 1e-6, scale_floor=1e12), candidates)


def test_filter_rejects_candidates_of_the_wrong_length(golden_r):
    golden = enumerate_candidates(golden_r)  # length 4
    short = enumerate_candidates(autocorr_1d(Signal1D([1.0, 2.0, 3.0])))
    single = enumerate_candidates(autocorr_1d(Signal1D([2.0])))
    for candidates, n in [(golden, 3), (short, 2), (single, 1)]:
        with pytest.raises(ValueError):
            filter_by_constraint(candidates, -234.0, n)
    with pytest.raises(ValueError):  # rows of two lengths make no table
        Candidates(np.r_[golden.flips, short.flips], [*golden.values, *short.values],
                   np.r_[golden.autocorr_residuals, short.autocorr_residuals])


# --- end-to-end solve -----------------------------------------------------------


def corner_band(candidates, R):
    """The candidates a corner scan expands: within GRID_RTOL * max|r| of c, the
    grid's own bound on its corner entry."""
    return filter_by_constraint(candidates, key_constraint(R), R.n, solver.GRID_RTOL,
                                reduce_2d_to_1d(R).max_abs)


def test_solve_checks_grid_symmetry_once(golden_grid, monkeypatch):
    calls = []
    check = reduction._checked_entries
    monkeypatch.setattr(reduction, "_checked_entries", lambda R: calls.append(R) or check(R))
    solve_2d(golden_grid)
    assert calls == [golden_grid]


def test_solve_golden(golden_grid, golden_matrix):
    report = solve_2d(golden_grid)
    assert report.n == 2
    assert report.unique
    assert report.candidates_total == 4
    assert len(report.matches) == 1
    assert report.key_constraint_value == -234.0
    survivors = corner_band(enumerate_candidates(reduce_2d_to_1d(golden_grid)), golden_grid)
    assert survivors.flips.tolist() == [0]
    assert report.residuals == survivors.autocorr_residuals.tolist()
    assert trivially_equivalent_2d(report.solution, golden_matrix, 1e-6)
    # tol_match and scale_floor are reported, for filter_by_constraint, but not read
    assert list(report.tolerances.items()) == [
        ("tol_root", 1e-8), ("tol_pair", 1e-6), ("tol_resid", 1e-6), ("tol_match", 1e-6),
        ("scale_floor", 1e-9 * 1334.0), ("join_rtol", solver.JOIN_RTOL),
        ("grid_rtol", solver.GRID_RTOL)]
    d = report.to_dict()
    assert d["unique"] is True
    assert d["solution"]["n"] == 2


def test_solve_respects_options(golden_grid):
    opts = SolverOptions(tol_root=1e-7, tol_pair=1e-5, tol_resid=1e-4)
    report = solve_2d(golden_grid, opts)
    assert report.unique
    assert_same_table(report.matches, solve_2d(golden_grid).matches)
    assert {k: report.tolerances[k] for k in opts.to_dict()} == opts.to_dict()
    # a residual gate tighter than the survivor's roundoff refuses it
    X = planted(3, 0)
    tight = solve_2d(autocorr_2d(X)).residuals[0] / 2
    with pytest.raises(ResidualExceeded):
        solve_2d(autocorr_2d(X), SolverOptions(tol_resid=tight))


def test_solve_no_match_carries_report(golden_grid, golden_r):
    with pytest.raises(NoMatch) as err:
        solve_2d(nomatch_grid(golden_grid))
    report = err.value.report
    assert report is not None
    assert len(report.matches) == 0
    assert report.solution is None
    assert not report.unique
    assert report.candidates_total == 4
    survivors = corner_band(enumerate_candidates(golden_r), nomatch_grid(golden_grid))
    assert report.residuals == survivors.autocorr_residuals.tolist()


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
    # the corner alone decides these inputs; past the crossover the join's one hit is the match
    survivors = report.matches if joins(R) else corner_band(candidates, R)
    assert report.residuals == survivors.autocorr_residuals.tolist()
    assert_same_table(report.matches, kept)


# Integer inputs that the corner alone answered as unique with a grid 13-45% off the
# input's. Each has a zero endpoint, and no candidate fits the grid: NoMatch.
@pytest.mark.parametrize("n,seed", [(4, 40099), (5, 50127), (5, 50243), (5, 50269), (4, 4075)])
def test_no_silent_wrong_answer(n, seed):
    R = autocorr_2d(Matrix2D(n, np.random.default_rng(seed).integers(-3, 4, (n, n)).astype(float)))
    try:
        report = solve_2d(R)
    except AutophaseError:
        return  # a typed refusal is loud, not wrong
    if report.unique:
        miss = np.abs(autocorr_2d(report.solution).values - R.values).max()
        assert miss <= 1e-9 * np.abs(R.values).max()


# --- census ---------------------------------------------------------------------


def test_census_golden_all_negative_products(golden_r):
    census = ambiguity_census(golden_r, 2)
    # sorted products -609, -570, -465, -234, normalized by the last entry
    assert census.d == pytest.approx(
        [609.0 / 234.0, 570.0 / 234.0, 465.0 / 234.0, 1.0], abs=1e-9
    )
    assert census.v.shape == (3,) and np.isnan(census.v).all()  # gaps are negative, logs undefined
    assert census.n == 2


def test_census_seeded_instance():
    rng = np.random.default_rng(42)
    r = autocorr_1d(Signal1D(rng.standard_normal(9)))
    census = ambiguity_census(r, 3)
    assert len(census.d) == 16
    assert np.all(np.diff(census.d) > 0)
    assert census.v.tolist() == [math.log(g) for g in np.diff(census.d).tolist()]


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


def joins(R):
    """Whether solve_2d takes its survivors from the edge-row join: past the
    crossover, at full support."""
    core, units, _ = solver._factor(reduce_2d_to_1d(R), SolverOptions())
    return len(units) > solver.CROSSOVER_UNITS and core.m == R.n * R.n


def grid_fits(candidates, R):
    """The candidates whose 2D autocorrelation, by FFT, is within GRID_RTOL * max|R| of R."""
    n = R.n
    spectrum = np.fft.fft2(candidates.values.reshape(-1, n, n), s=(2 * n - 1, 2 * n - 1))
    grids = np.roll(np.fft.ifft2(np.abs(spectrum) ** 2).real, (n - 1, n - 1), axis=(1, 2))
    keep = np.abs(grids - R.values).max(axis=(1, 2), initial=0.0) <= (
        solver.GRID_RTOL * np.abs(R.values).max())
    return Candidates(candidates.flips[keep], candidates.values[keep],
                      candidates.autocorr_residuals[keep])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, "trimmed", "signed-1", "signed-3"])
def test_doubling_table_matches_per_mask_expansion(n):
    if n == "trimmed":  # the vanishing extreme lag is trimmed before factoring
        x = np.random.default_rng(3).standard_normal(16)
        x[-3:] = 0.0
        core, units, _ = factors_of(x)
        assert core.m == 13
    elif n in ("signed-1", "signed-3"):  # units whose lower coefficients hold -0.0, unit 0's too
        signed = (polyfactor.ConjugatePair(2j), polyfactor.RealZero(-0.5), polyfactor.ConjugatePair(3j))
        units = polyfactor._factor_arrays(signed[:int(n[-1])])
        assert np.signbit(units[0][0, 1])
    else:
        _, units, _ = factors_of(planted(n, 0).values.reshape(-1))

    def same_bits(a, b):
        return a.shape == b.shape and a.tobytes() == b.tobytes()

    # the join and the corner scan expand their survivors on Python floats
    lowers = [(tuple(f[0].tolist()), tuple(f[1].tolist())) for f in units]
    tables = [(True, solver._zero_product_table(units, pinned=True))]
    if len(units) <= 12:  # every mask, unit 0 flipped as well
        tables.append((False, solver._zero_product_table(units, pinned=False)))
    for pinned, table in tables:
        rows = np.arange(table.shape[0])
        if len(units) > 12:  # the first and last 64 masks, and a seeded sample between them
            sample = np.random.default_rng(len(units)).integers(64, rows.size - 64, 256)
            rows = np.unique(np.concatenate([rows[:64], rows[-64:], sample]))
        masks = (rows << int(pinned)).tolist()  # a pinned table's masks leave bit 0 clear
        assert same_bits(table[rows], np.array(solver._expand_masks(lowers, masks)))


@pytest.mark.parametrize("n", [2, 3, 4, "trimmed", "signed-1", "signed-3"])
def test_python_scaling_matches_scale_rows(n):
    """_scale_row gives _scale_rows' bits on every row of the doubling table, both
    tables, rows with a negative constant coefficient among them, and the survivors
    that _expanded scales and gates are the full table's rows, padded alike."""
    if n in ("signed-1", "signed-3"):  # rows holding -0.0; z - 2 makes half the constants negative
        signed = (polyfactor.ConjugatePair(2j), polyfactor.RealZero(-0.5), polyfactor.ConjugatePair(3j))
        units = polyfactor._factor_arrays(signed[:int(n[-1])] + (polyfactor.RealZero(2.0),))
        scale, r = -2.5, None
    else:
        if n == "trimmed":  # the vanishing extreme lags are trimmed, and padded back
            x = np.random.default_rng(3).standard_normal(16)
            x[-3:] = 0.0
        else:
            x = planted(n, 0).values.reshape(-1)
        r = autocorr_1d(Signal1D(x))
        found = solver._units(r, SolverOptions())
        assert found[0].m == (13 if n == "trimmed" else r.m)
        units, scale = polyfactor._factor_arrays(found[1]), found[2]
    assert len(units) <= 12
    negative = 0
    for pinned in (True, False):
        table = solver._zero_product_table(units, pinned)
        negative += int((table[:, 0] < 0).sum())
        got = np.array([polyfactor._scale_row(row, scale) for row in table.tolist()])
        want = polyfactor._scale_rows(table.copy(), scale)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert negative or n == 2  # planted(2, 0) has two units with positive constants
    if r is not None:  # every candidate as survivors, against the numpy route
        want = solver._full_table(r, solver._arrays(found), 1e-6)
        got = solver._expanded(want[0].tolist(), solver._lowers(found[1]), found, r.m, 1e-6)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert got[1].shape[1] == r.m


def solve_outcome(R, opts=None):
    try:
        return solve_2d(R, opts)
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
        # the join and the corner band each keep every candidate that fits the grid
        assert_same_table(report.matches, grid_fits(candidates, R))
        if joins(R):
            assert len(report.residuals) >= len(report.matches)
        else:  # the grid decides among the corner band's survivors
            assert report.residuals == corner_band(candidates, R).autocorr_residuals.tolist()
        regimes.add(unit_count(R) > solver.CROSSOVER_UNITS)
    if n >= 4:
        assert True in regimes
    if n <= 3:
        assert regimes == {False}


@pytest.mark.parametrize("zero", [None, 0, -1], ids=["full", "zero-first", "zero-last"])
@pytest.mark.parametrize("kind", [planted, integer_planted])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_every_candidate_and_match_starts_positive(monkeypatch, n, kind, zero):
    """Rows are signed by their constant coefficient, which never vanishes; with a
    zero X(0,0) or X(n-1,n-1) the trimmed support's rows start the padded row."""
    regimes = set()
    for seed in range(12 if n < 5 else 4):
        X = kind(n, 900 + seed).values.copy()
        if zero is not None:
            X[zero, zero] = 0.0
        R = autocorr_2d(Matrix2D(n, X))
        try:
            candidates = enumerate_candidates(reduce_2d_to_1d(R))
            tables = [candidates, solve_outcome(R).matches]
            with monkeypatch.context() as loose:  # every survivor fits an infinite bound
                loose.setattr(solver, "GRID_RTOL", math.inf)
                tables.append(solve_outcome(R).matches)
        except AutophaseError:
            continue
        for table in tables:
            assert (table.values[:, 0] > 0).all()
        if not joins(R):  # the infinite corner band lets every candidate through
            assert len(tables[-1]) == len(candidates)
        regimes.add(unit_count(R) > solver.CROSSOVER_UNITS)
    assert regimes == {2: {False}, 3: {False}, 4: {False, True}, 5: {True}}[n]


def positive(n, seed):
    return Matrix2D(n, np.random.default_rng(seed).uniform(0.5, 1.0, (n, n)))


# The first seed from 1600 whose grid, at the top of the float range, has a lag
# beyond lag 0 above half the float maximum: doubling it overflowed.
FIRST_OVER_HALF = {(positive, 2): 1604, (positive, 3): 1624, (positive, 4): 1601,
                   (positive, 5): 1600, (planted, 2): 1622, (planted, 3): 1706,
                   (planted, 4): 1624, (planted, 5): 5934}


@pytest.mark.parametrize("kind", [positive, planted])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_solve_at_the_top_of_the_float_range_scales_exactly(n, kind):
    """solve(4^k R) is 2^k solve(R) bit for bit, k the largest that keeps 4^k R finite."""
    hit = FIRST_OVER_HALF[kind, n]
    for seed in sorted({*range(1600, 1600 + (12 if n < 5 else 6)), hit}):
        R = autocorr_2d(kind(n, seed))
        k = (np.finfo(float).maxexp - np.frexp(np.abs(R.values).max())[1]) // 2
        scaled = Autocorr2D(n, np.ldexp(R.values, 2 * k))
        if seed == hit:
            assert np.abs(reduce_2d_to_1d(scaled).nonneg[1:]).max() > np.finfo(float).max / 2
        try:
            report = solve_outcome(R)
        except AutophaseError as err:
            with pytest.raises(type(err)):
                solve_2d(scaled)
            continue
        big = solve_outcome(scaled)
        assert np.array_equal(big.matches.flips, report.matches.flips)
        assert big.residuals == report.residuals
        assert big.key_constraint_value == np.ldexp(report.key_constraint_value, 2 * k)
        if report.solution is None:
            assert big.solution is None
        else:
            assert np.array_equal(big.solution.values, np.ldexp(report.solution.values, k))


@pytest.mark.parametrize("X", [positive(3, 3), planted(3, 0), planted(4, 0)],
                         ids=["positive-3", "gauss-3", "gauss-4"])
def test_subnormal_grids_answer_refuse_or_vanish(X):
    """Scaled by 2^j into the subnormal range, a grid is answered with 2^(j/2) X,
    refused by type, or, once every lag has underflowed, answered with zero.

    No rescale can make solve(2^j R) = 2^(j/2) solve(R) here: below 2^-1022
    the scaled lags are already rounded, so the input is not 2^j R."""
    R = autocorr_2d(X)
    tol = 1e-6 * np.abs(X.values).max()
    for j in range(-1040, -1091, -10):
        scaled = Autocorr2D(X.n, np.ldexp(R.values, j))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                report = solve_2d(scaled)
            except AutophaseError:
                assert j < -1040  # the largest scale is answered
                continue
        assert report.unique
        if scaled.values.any():
            unscaled = Matrix2D(X.n, np.ldexp(report.solution.values, -j // 2))
            assert trivially_equivalent_2d(unscaled, X, tol)
        else:
            assert not report.solution.values.any()


def test_each_result_builds_one_candidate_table(monkeypatch, golden_grid):
    """A solve in either table regime builds one Candidates (its matches), a NoMatch
    solve one (its empty matches), enumerate one, and a full-table census none."""
    built = []
    fill = polyfactor.Candidates._fill
    monkeypatch.setattr(polyfactor.Candidates, "_fill",
                        lambda table, *fields: built.append(table) or fill(table, *fields))
    full, half = autocorr_2d(planted(3, 0)), autocorr_2d(planted(4, 0))
    assert (unit_count(full), unit_count(half)) == (5, 9)
    assert unit_count(full) <= solver.CROSSOVER_UNITS < unit_count(half)
    refused = nomatch_grid(golden_grid)
    r = reduce_2d_to_1d(full)
    for call, count in [(lambda: solve_2d(full), 1), (lambda: solve_2d(half), 1),
                        (lambda: solve_outcome(refused), 1),
                        (lambda: enumerate_candidates(r), 1),
                        (lambda: ambiguity_census(r, 3), 0)]:
        built.clear()
        call()
        assert len(built) == count
    with pytest.raises(NoMatch):
        solve_2d(refused)


def test_integer_corpus_covers_a_zero_corner():
    corners = [key_constraint(autocorr_2d(integer_planted(n, 700 + seed)))
               for n in (3, 4) for seed in range(24)]
    assert 0.0 in corners


def test_n6_solve_expands_only_the_survivors(monkeypatch):
    # the join's half tables hold keys, never coefficients; only its hits are expanded
    X = planted(6, 0)
    tables, expanded = [], []
    table, expand = solver._zero_product_table, solver._expand_masks

    def spy_table(units, pinned):
        out = table(units, pinned)
        tables.append(out.shape[0])
        return out

    def spy_expand(lowers, masks):
        expanded.append(len(masks))
        return expand(lowers, masks)

    monkeypatch.setattr(solver, "_zero_product_table", spy_table)
    monkeypatch.setattr(solver, "_expand_masks", spy_expand)
    report = solve_2d(autocorr_2d(X))
    assert report.unique
    assert trivially_equivalent_2d(report.solution, X, 1e-6 * float(np.max(np.abs(X.values))))
    assert report.candidates_total == 1 << 18
    assert tables == []
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


def nan_half_row(monkeypatch, which, row, value):
    table = solver._zero_product_table

    def poisoned(units, pinned):
        out = table(units, pinned)
        if pinned == (which == "A"):
            out[row] = value
        return out

    monkeypatch.setattr(solver, "_zero_product_table", poisoned)


def zero_endpoint(n, seed, k=0):
    """A planted signal with X(k,k) = 0, k = 0 or n-1: its trimmed support takes the
    corner scan."""
    X = planted(n, seed).values.copy()
    X[k, k] = 0.0
    return Matrix2D(n, X)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("which", ["A", "B"])
@pytest.mark.parametrize("call", ["ambiguity_census"])  # the one caller of the gate
def test_bad_half_row_fails_the_residual_gate(monkeypatch, call, which, value):
    # census reports every candidate, so its half tables are gated whole
    R = autocorr_2d(planted(4, 0))
    u = unit_count(R)
    assert u > solver.CROSSOVER_UNITS
    a = (u - 1) // 2
    nan_half_row(monkeypatch, which, 1, value)
    with pytest.raises(ResidualExceeded) as info:
        ambiguity_census(reduce_2d_to_1d(R), 4)
    if which == "A":  # A row 1 is unit 1 flipped, in every B row
        want = [(j << (a + 1)) | 2 for j in range(1 << (u - 1 - a))]
    else:  # B row 1 is unit a+1 flipped, with every A row
        want = [(1 << (a + 1)) | (i << 1) for i in range(1 << a)]
    assert info.value.bitmasks == want


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("which", ["A", "B"])
def test_bad_half_row_stays_out_of_the_corner_band(monkeypatch, which, value):
    """A solve's corner scan gates only the rows it expands: a nan or inf half row
    gives nan or inf products, which no band holds, and the answer stands."""
    # a solve of a full support joins on keys, so the input has X(0,0) = 0
    R = autocorr_2d(zero_endpoint(4, 0))
    assert unit_count(R) > solver.CROSSOVER_UNITS and not joins(R)
    clean = solve_2d(R)
    a = (unit_count(R) - 1) // 2
    assert clean.unique and (clean.matches.flips[0] >> 1) % (1 << a) != 1  # not A row 1
    assert clean.matches.flips[0] >> (a + 1) != 1  # nor B row 1
    nan_half_row(monkeypatch, which, 1, value)
    assert jsonio.dumps(solve_2d(R).to_dict()) == jsonio.dumps(clean.to_dict())


@pytest.mark.parametrize("n", [4, 5])
def test_half_table_band_keeps_every_grid_fit_of_zero_endpoints(n):
    """The half tables' corner products differ from the expanded rows' by rounding,
    far inside the band: every candidate that fits the grid is matched."""
    halves = 0
    for seed in range(500, 506):
        for k in (0, n - 1):
            R = autocorr_2d(zero_endpoint(n, seed, k))
            assert not joins(R)
            halves += unit_count(R) > solver.CROSSOVER_UNITS
            candidates = enumerate_candidates(reduce_2d_to_1d(R))
            assert_same_table(solve_outcome(R).matches, grid_fits(candidates, R))
    assert halves >= 3


def test_n6_zero_endpoint_is_answered_by_its_one_survivor(monkeypatch):
    # gating all 262144 candidates refuses this input (worst residual 1.1e-5); the
    # corner band keeps one survivor, expanded in one call as the join expands its
    # hits, and it fits r and the grid
    X = zero_endpoint(6, 504, 5)
    R = autocorr_2d(X)
    assert not joins(R)
    expand, calls = solver._expand_masks, []

    def spy(lowers, masks):
        calls.append(list(masks))
        return expand(lowers, masks)

    monkeypatch.setattr(solver, "_expand_masks", spy)
    report = solve_2d(R)
    assert report.unique and len(report.residuals) == 1
    assert calls == [report.matches.flips.tolist()]
    assert trivially_equivalent_2d(report.solution, X, 1e-6 * float(np.max(np.abs(X.values))))


def test_triple_zero_at_one_is_answered():
    # int-n2-s20012 of the outputs corpus: the flattened signal is (z - 1)^3, whose
    # triple zero comes back about 3e-3 off; u <= 8, so the full table serves it
    X = integer_planted(2, 20012)
    assert X.values.tolist() == [[1.0, -3.0], [3.0, -1.0]]
    report = solve_2d(autocorr_2d(X))
    assert report.unique
    assert trivially_equivalent_2d(report.solution, X, 1e-6 * 3)


def test_census_answers_the_n6_zero_endpoint():
    # the gate checks candidate 0 on its own row; the product of the two halves'
    # normalized row-0 autocorrelations missed r by 1.1e-5 here
    r = reduce_2d_to_1d(autocorr_2d(zero_endpoint(6, 504, 5)))
    census = ambiguity_census(r, 6)
    assert census.d.size == 1 << 18 and census.d[-1] == 1.0


def test_half_rows_that_miss_r_fail_every_candidate():
    # each half row agrees with its row 0, but row 0 times row 0 misses r by 1e-3
    core, units, scale = solver._factor(reduce_2d_to_1d(autocorr_2d(planted(4, 0))),
                                        SolverOptions())
    assert len(units) > solver.CROSSOVER_UNITS
    wrong = Autocorr1D.from_nonneg(core.nonneg * (1 + 1e-3))
    with pytest.raises(ResidualExceeded) as info:
        solver._Halves((core, units, scale))._gate(wrong, 1e-6)
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


def test_join_counts_its_pairs_before_checking_them(monkeypatch):
    # at a loose join tolerance p_1 alone admits millions of pairs at n = 7; their
    # count is refused before any is checked on Python floats
    monkeypatch.setattr(solver, "JOIN_RTOL", 1e-3)
    monkeypatch.setattr(solver, "_mask_key", lambda *args: pytest.fail("a pair was checked"))
    with pytest.raises(SearchSpaceTooLarge, match="terms of join pairs exceed the budget"):
        solve_2d(autocorr_2d(planted(7, 0)))


def test_oversized_support_is_refused_before_root_finding(monkeypatch):
    def refuse(a):
        raise AssertionError("root finding ran")

    solver.check_support_budget(57)  # 28 units at least: 2^27 candidates fit the budget
    with pytest.raises(SearchSpaceTooLarge, match=r"2\^28 candidates"):
        solver.check_support_budget(58)
    solver.check_support_budget(103, join=True)  # 51 units: half tables of 2^25 rows fit
    with pytest.raises(SearchSpaceTooLarge, match=r"2\^26 rows in a half table"):
        solver.check_support_budget(104, join=True)
    monkeypatch.setattr(polyfactor, "_chebyshev_roots", refuse)
    # a trimmed support takes the corner scan, a full one the join
    with pytest.raises(SearchSpaceTooLarge, match=r"63 lags give at least 2\^30 candidates"):
        solve_2d(autocorr_2d(zero_endpoint(8, 0)))
    with pytest.raises(SearchSpaceTooLarge, match=r"121 lags give at least 2\^30 rows"):
        solve_2d(autocorr_2d(planted(11, 0)))


def test_n7_enumeration_is_refused_before_allocating(monkeypatch):
    r = reduce_2d_to_1d(autocorr_2d(planted(7, 0)))
    tracemalloc.start()
    try:
        with pytest.raises(SearchSpaceTooLarge):
            enumerate_candidates(r)
        with pytest.raises(SearchSpaceTooLarge):
            ambiguity_census(r, 7)
        # the corner scan of a trimmed support, its band widened to every candidate;
        # the budget refuses the survivors before the grid gives its verdict
        monkeypatch.setattr(solver, "GRID_RTOL", math.inf)
        with pytest.raises(SearchSpaceTooLarge):
            solve_2d(autocorr_2d(zero_endpoint(7, 0)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_loose_n7_solve_counts_every_chunk_before_expanding(monkeypatch):
    # the survivor count is refused before any hit is expanded to a row; expanding each
    # chunk's hits as they come would hold rows for every chunk before the refusal.
    # X(0,0) = 0: a full support would take the join, which has no corner band
    R = autocorr_2d(zero_endpoint(7, 0))
    # a band of 5e-3 max|r| admits 905k of the 2^25 candidates, 30k at most a chunk;
    # their count passes the budget in chunk 12 of 32
    monkeypatch.setattr(solver, "GRID_RTOL", 5e-3)
    tracemalloc.start()
    try:
        with pytest.raises(SearchSpaceTooLarge, match="survivor entries"):
            solve_2d(R)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20


def test_half_table_chunks_join_seamlessly(monkeypatch):
    """A census cut into many chunks of half-table products, and a solve whose join
    runs a few splits at a time, give the bytes of the default chunking (n = 5,
    u = 13: 64 B rows by 64 A rows, 4 splits a chunk)."""
    R = autocorr_2d(planted(5, 50000))
    r = reduce_2d_to_1d(R)
    assert unit_count(R) == 13

    def outputs():
        return jsonio.dumps(solve_2d(R).to_dict()), jsonio.census_csv(ambiguity_census(r, 5))

    whole = outputs()
    chunks = []
    products = solver._Halves.products

    def counted(halves, n):
        for j0, f in products(halves, n):
            chunks.append(j0)
            yield j0, f

    monkeypatch.setattr(solver._Halves, "products", counted)
    monkeypatch.setattr(solver, "CHUNK_PRODUCTS", 1 << 8)  # 4 B rows, or 4 splits, a chunk
    assert len(solver._edge_targets(R)) > 4
    assert outputs() == whole
    assert chunks == list(range(0, 64, 4))  # the census's 16; the solve joins


def test_n6_enumeration_fits_the_budget():
    _, units, _ = solver._factor(reduce_2d_to_1d(autocorr_2d(planted(6, 0))), SolverOptions())
    assert (1 << (len(units) - 1)) * 36 <= solver.MATERIALIZE_BUDGET


def test_corner_band_keeps_every_grid_fit_past_the_crossover(monkeypatch):
    # X(0,0) = 0, so the corner scan of the half tables runs; the band is the grid's
    # bound on its corner, and the grid decides among the survivors
    R = autocorr_2d(zero_endpoint(4, 0))
    assert unit_count(R) > solver.CROSSOVER_UNITS and not joins(R)
    report = solve_2d(R)
    candidates = enumerate_candidates(reduce_2d_to_1d(R))
    assert report.unique
    assert report.candidates_total == len(candidates)
    assert_same_table(report.matches, grid_fits(candidates, R))
    assert report.residuals == corner_band(candidates, R).autocorr_residuals.tolist()
    # an infinite band lets every candidate through; the budget allows n = 4
    monkeypatch.setattr(solver, "GRID_RTOL", math.inf)
    assert solve_2d(R).residuals == candidates.autocorr_residuals.tolist()


def test_benchmark_traced_call_chain():
    # perfbench/traced.py times these public calls, in this order; a change that
    # breaks one breaks the benchmark's traced run
    n = 3
    X = planted(n, 0)
    Y = np.abs(np.fft.fft2(X.values, s=(2 * n, 2 * n))) ** 2
    R = ap.measurements_to_autocorr_2d(ap.MagnitudeGrid(2 * n, n, Y))
    loaded = jsonio.load_autocorr2d(json.loads(json.dumps({"n": n, "values": R.values.tolist()})))
    assert loaded.n == n
    c = ap.key_constraint(R)
    r = ap.reduce_2d_to_1d(R)
    P = ap.associated_polynomial(r)
    zp = ap.find_zero_pairs(P)
    fu = ap.group_flip_units(zp)
    conjugate = sum(isinstance(u, ap.ConjugatePair) for u in fu.units)
    cands = ap.enumerate_candidates(r)
    report = ap.solve_2d(R)
    tol = report.tolerances
    matches = ap.filter_by_constraint(cands, c, n, tol["tol_match"], tol["scale_floor"])
    text = jsonio.dumps(report.to_dict())

    assert P is r and 0 <= conjugate <= fu.unit_count == len(solver._factor(r, SolverOptions())[1])
    assert len(cands) == report.candidates_total == 1 << (fu.unit_count - 1)
    assert_same_table(matches, report.matches)
    assert report.unique and trivially_equivalent_2d(report.solution, X, 1e-6)
    assert json.loads(text)["unique"] is True


# --- the edge-row join and the grid verdict ----------------------------------------


def true_mask(X):
    """Flip mask of the candidate equivalent to X: unit k is flipped when its unflipped
    zeros are not zeros of the flattened signal, read so that unit 0 is unflipped
    (X or its half-turn, whose flattened signal is reversed)."""
    units = group_flip_units(find_zero_pairs(reduce_2d_to_1d(autocorr_2d(X)))).units

    def is_zero(x, z):
        return abs(np.polyval(x[::-1], z)) <= 1e-8 * np.polyval(np.abs(x[::-1]), abs(z))

    x = X.values.reshape(-1)
    if not is_zero(x, units[0].value):
        x = x[::-1]
    assert is_zero(x, units[0].value)
    return sum(1 << k for k, unit in enumerate(units) if not is_zero(x, unit.value))


@pytest.mark.parametrize("n,seed", [(4, 0), (4, 3), (5, 0), (5, 1), (6, 0), (6, 1)])
def test_true_key_meets_a_split_target(n, seed):
    X = planted(n, seed)
    R = autocorr_2d(X)
    lowers = solver._lowers(solver._units(reduce_2d_to_1d(R), SolverOptions())[1])
    key = solver._mask_key(lowers, true_mask(X), n - 1)
    gaps = np.abs(solver._edge_targets(R) - key) / solver._reach(lowers, n - 1)
    assert gaps.max(axis=1).min() <= solver.JOIN_RTOL


@pytest.mark.parametrize("n,seed", [(3, 0), (4, 0), (5, 1), (6, 0)])
def test_both_members_of_every_unit_give_the_edge_zeros_power_sums(n, seed):
    """p_k(beta) + p_k(1/beta) is the sum over units of both members' p_k, the same
    for every candidate, and equals p_k of all 2n-2 edge zeros: n-1 keys say it all."""
    R = autocorr_2d(planted(n, seed))
    lowers = solver._lowers(solver._units(reduce_2d_to_1d(R), SolverOptions())[1])
    every = (1 << len(lowers)) - 1
    rng = np.random.default_rng(seed)
    z = np.roots(R.values[-1][::-1])
    total = np.array([(z ** k).sum().real for k in range(1, n)])
    for mask in rng.integers(0, every, 4).tolist():
        both = np.add(solver._mask_key(lowers, mask, n - 1),
                      solver._mask_key(lowers, every ^ mask, n - 1))
        assert np.abs(both - total).max() <= 1e-12 * max(solver._reach(lowers, n - 1))


def test_companion_base_is_read_only_and_exact():
    for d in range(1, 9):
        base = solver._companion_base(d)
        assert not base.flags.writeable
        assert base.tobytes() == np.eye(d, k=-1).tobytes()


@pytest.mark.parametrize("seed", [40078, 40242])
def test_double_edge_zero_inputs_get_one_grid_fit(seed):
    # the edge polynomial has a double zero at +-1, found as two zeros about 1e-8 apart
    X = integer_planted(4, seed)
    R = autocorr_2d(X)
    z = np.roots(R.values[-1][::-1])
    assert min(abs(a - b) for i, a in enumerate(z) for b in z[i + 1:]) < 1e-6
    scale = 1e-9 * float(np.max(np.abs(X.values)))
    report = solve_2d(R)
    assert report.unique and trivially_equivalent_2d(report.solution, X, scale)
    # the join finds it as well, whichever path the solve takes
    found = solver._units(reduce_2d_to_1d(R), SolverOptions())
    _, (_, vals, _) = solver._joined(R, found, 1e-6)
    fits = vals[solver._grid_fits(vals, R.values.ravel().tolist(), reduce_2d_to_1d(R).max_abs)]
    assert len(fits) == 1 and trivially_equivalent_2d(Matrix2D(4, fits[0]), X, scale)


@pytest.mark.parametrize("seed", [1, 2])
def test_n8_solves_by_default(seed):
    X = planted(8, seed)
    report = solve_2d(autocorr_2d(X))
    assert report.candidates_total >= 1 << 31
    assert report.unique
    assert trivially_equivalent_2d(report.solution, X, 1e-6 * float(np.max(np.abs(X.values))))


@pytest.mark.parametrize("n", [3, 4])
def test_separable_signal_is_reported_ambiguous(n):
    # a b^T shares every grid entry with a' b'^T for every a', b' of the autocorrelations
    # of a and b, a rev(b)^T among them: genuine ambiguity, each fit reported
    a, b = np.random.default_rng(n).standard_normal((2, n))
    R = autocorr_2d(Matrix2D(n, np.outer(a, b)))
    report = solve_2d(R)
    assert not report.unique and len(report.matches) >= 2
    assert_same_table(grid_fits(report.matches, R), report.matches)
    for X in (np.outer(a, b), np.outer(a, b[::-1])):
        assert any(trivially_equivalent_2d(Matrix2D(n, row), Matrix2D(n, X), 1e-9)
                   for row in report.matches.values)
    assert report.to_dict()["unique"] is False
