import dataclasses
import functools

import numpy as np
import pytest

from autophase2d import (
    Autocorr2D,
    Candidates,
    Matrix2D,
    NoMatch,
    SearchSpaceTooLarge,
    UnitCircleZero,
    autocorr_2d,
    exhaustive_integer_search,
    oracle,
    planted_roundtrip,
)


def test_search_single_spike():
    # a lone unit entry anywhere gives the same lag grid, so 8 solutions, 2 classes
    R = autocorr_2d(Matrix2D.from_rows([[1.0, 0.0], [0.0, 0.0]]))
    result = exhaustive_integer_search(R, 1)
    assert result.search_space_size == 81
    assert len(result.solutions) == 8
    assert len(result.classes) == 2
    for s in result.solutions:
        assert np.array_equal(autocorr_2d(s).values, R.values)


def test_search_recovers_golden(golden_grid, golden_matrix):
    result = exhaustive_integer_search(golden_grid, 31)
    assert result.search_space_size == 63**4
    assert len(result.classes) == 1
    variants = [
        golden_matrix.values,
        -golden_matrix.values,
        golden_matrix.values[::-1, ::-1],
        -golden_matrix.values[::-1, ::-1],
    ]
    assert len(result.solutions) == 4
    for s, v in zip(result.solutions, sorted(map(lambda a: a.reshape(-1).tolist(), variants))):
        assert s.values.reshape(-1).tolist() == v


def test_search_budget():
    R = Autocorr2D(3, np.zeros((5, 5)))
    with pytest.raises(SearchSpaceTooLarge):
        exhaustive_integer_search(R, 4)  # 9^9 grid points


def test_n2_search_at_bound_42_is_refused_before_any_point(monkeypatch):
    """85^4 points, the smallest grid beyond the budget: n = 3 at bound 3 (7^9) and
    n = 4 at bound 1 (3^16) fit it, and n = 2 at bound 41 is 83^4."""
    assert 7**9 < 3**16 < 83**4 <= oracle.SEARCH_BUDGET < 85**4
    R = autocorr_2d(Matrix2D(2, np.random.default_rng(0).integers(-42, 43, (2, 2)).astype(float)))
    calls = []

    class CountingNumpy:  # oracle's numpy, noting every arange (digit powers, chunks of points)
        def __getattr__(self, name):
            return getattr(np, name)

        def arange(self, *args, **kwargs):
            calls.append(args)
            return np.arange(*args, **kwargs)

    monkeypatch.setattr(oracle, "np", CountingNumpy())
    with pytest.raises(SearchSpaceTooLarge, match="85\\^4 = 52200625 points exceeds budget"):
        exhaustive_integer_search(R, 42)
    assert calls == []


def test_search_validates_input(golden_grid):
    with pytest.raises(ValueError):
        exhaustive_integer_search(golden_grid, -1)
    frac = golden_grid.values.copy()
    frac[0, 0] += 0.5
    frac[2, 2] += 0.5
    with pytest.raises(ValueError):
        exhaustive_integer_search(Autocorr2D(2, frac), 1)


@pytest.mark.parametrize("value", [1e308, 2.0**53 + 2])
def test_search_refuses_lags_beyond_exact_integers(value):
    with pytest.raises(ValueError, match="2\\*\\*53"):
        exhaustive_integer_search(Autocorr2D(2, np.full((3, 3), value)), 1)


def test_search_accepts_lags_up_to_2_pow_53():
    result = exhaustive_integer_search(Autocorr2D(2, np.full((3, 3), 2.0**53)), 1)
    assert result.solutions == []


def test_search_empty_when_bound_too_small(golden_grid):
    result = exhaustive_integer_search(golden_grid, 2)
    assert result.solutions == []
    assert result.classes == []


def test_search_chunks_join_seamlessly(monkeypatch):
    """A search cut into many chunks of points finds what one chunk finds."""
    R = autocorr_2d(Matrix2D.from_rows([[2.0, -1.0], [3.0, 1.0]]))
    whole = exhaustive_integer_search(R, 3).to_dict()
    assert len(whole["solutions"]) == 4
    starts = []

    class CountingNumpy:  # oracle's numpy, noting the start of every chunk of points
        def __getattr__(self, name):
            return getattr(np, name)

        def arange(self, start, *args, **kwargs):
            starts.append(start)
            return np.arange(start, *args, **kwargs)

    monkeypatch.setattr(oracle, "np", CountingNumpy())
    monkeypatch.setattr(oracle, "CHUNK_PRODUCTS", 4 * 240)  # 240 points of 4 digits
    assert exhaustive_integer_search(R, 3).to_dict() == whole
    assert starts[1:] == list(range(0, 7**4, 240))  # 11 chunks, after the digit powers


@pytest.mark.parametrize("n,seed", [(2, 0), (3, 1), (4, 2), (5, 3)])
def test_grid_check_agrees_with_autocorr_2d(n, seed):
    """The one-pass integer check keeps exactly the rows whose autocorr_2d is the grid."""
    rng = np.random.default_rng(seed)
    flat = rng.integers(-3, 4, n * n)
    R = autocorr_2d(Matrix2D(n, flat.astype(float)))
    rows = [flat, -flat, flat[::-1], -flat[::-1]]  # preimages
    for _ in range(200):  # inner entries shuffled and signs flipped: most miss the grid
        row = flat.copy()
        row[1:-1] = row[1:-1][rng.permutation(n * n - 2)] * rng.choice([-1, 1], n * n - 2)
        rows.append(row)
    digits = np.array(rows, dtype=np.int64)
    # every row passes the search's energy and corner filters
    assert ((digits * digits).sum(axis=1) == R.at(0, 0)).all()
    assert (digits[:, 0] * digits[:, -1] == R.at(n - 1, n - 1)).all()
    want = [np.array_equal(autocorr_2d(Matrix2D(n, row.astype(float))).values, R.values)
            for row in digits]
    assert 4 <= sum(want) < len(want)
    assert oracle._matches_grid(digits, R.values.astype(np.int64), n).tolist() == want
    broken = R.values.copy()
    broken[0, 1] += 1.0  # no longer point symmetric, so no row matches
    assert not oracle._matches_grid(digits, broken.astype(np.int64), n).any()


def test_roundtrip_scoring():
    record = planted_roundtrip(2, 6, seed=7)
    assert record["n"] == 2
    assert record["trials"] == 6
    assert record["seed"] == 7
    assert record["rng"] == "numpy-pcg64"
    assert record["successes"] + record["failures"] == 6
    assert record["silent_wrong"] == 0
    assert len(record["flagged"]) == record["failures"]
    assert record["max_residual"] < 1e-8


def test_roundtrip_deterministic():
    a = planted_roundtrip(3, 4, seed=123)
    b = planted_roundtrip(3, 4, seed=123)
    assert a == b


def test_roundtrip_rejects_negative_trials():
    with pytest.raises(ValueError):
        planted_roundtrip(2, -1, seed=0)
    assert planted_roundtrip(2, 0, seed=0)["failures"] == 0


def test_roundtrip_scores_every_outcome(monkeypatch, golden_grid):
    """One solver outcome per trial: success, no match, typed error, two matches, wrong."""
    real = oracle.solve_2d
    failed = dataclasses.replace(real(golden_grid), residuals=[0.5, 0.25])

    def no_match(R):
        raise NoMatch("no candidate matches", report=failed)

    def unit_circle(R):
        raise UnitCircleZero("zero on the unit circle")

    def two_matches(R):
        report = real(R)
        m, twice = report.matches, [0, 0]
        matches = Candidates(m.flips[twice], m.values[twice], m.autocorr_residuals[twice])
        return dataclasses.replace(report, matches=matches, unique=False)

    def wrong(R):
        report = real(R)
        return dataclasses.replace(report, solution=Matrix2D(2, report.solution.values + 1.0))

    outcomes = iter([real, no_match, unit_circle, two_matches, wrong])
    monkeypatch.setattr(oracle, "solve_2d", lambda R, opts=None: next(outcomes)(R))
    record = planted_roundtrip(2, 5, seed=7)
    assert record["successes"] == 1
    assert record["failures"] == 4
    assert record["silent_wrong"] == 1
    assert [(f["trial"], f["kind"]) for f in record["flagged"]] == [
        (1, "no_match"), (2, "UnitCircleZero"), (3, "multiple_matches"), (4, "silent_wrong")]
    assert record["max_residual"] == 0.5  # the NoMatch report's worst residual


@pytest.mark.parametrize("seed", [0, 5, 2026])
def test_roundtrip_n5_is_always_right(seed):
    record = planted_roundtrip(5, 200, seed)
    assert record["successes"] == 200
    assert record["silent_wrong"] == 0
    assert not [f for f in record["flagged"] if f["kind"] == "multiple_matches"]


@functools.cache
def roundtrip_n6(seed):
    return planted_roundtrip(6, 200, seed)


@pytest.mark.parametrize("seed", [5, 2026])
def test_roundtrip_n6_is_never_silently_wrong(seed):
    assert roundtrip_n6(seed)["silent_wrong"] == 0


@pytest.mark.parametrize("seed", [5, 2026])
def test_roundtrip_n6_has_one_match(seed):
    flagged = roundtrip_n6(seed)["flagged"]
    assert not [f for f in flagged if f["kind"] == "multiple_matches"]


def test_roundtrip_n7_is_always_right():
    # the corner alone left several matches on 54 of these 60 and refused 2 more
    record = planted_roundtrip(7, 60, 2026)
    assert record["silent_wrong"] == 0
    assert not [f for f in record["flagged"] if f["kind"] == "multiple_matches"]
    assert record["successes"] == 60
