import numpy as np
import pytest

from autophase2d import (
    Autocorr2D,
    Matrix2D,
    SearchSpaceTooLarge,
    autocorr_2d,
    exhaustive_integer_search,
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


def test_search_validates_input(golden_grid):
    with pytest.raises(ValueError):
        exhaustive_integer_search(golden_grid, -1)
    frac = golden_grid.values.copy()
    frac[0, 0] += 0.5
    frac[2, 2] += 0.5
    with pytest.raises(ValueError):
        exhaustive_integer_search(Autocorr2D(2, frac), 1)


def test_search_empty_when_bound_too_small(golden_grid):
    result = exhaustive_integer_search(golden_grid, 2)
    assert result.solutions == []
    assert result.classes == []


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
