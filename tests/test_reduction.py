import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autophase2d import (
    AsymmetricInput,
    Autocorr2D,
    DegenerateSize,
    Matrix2D,
    autocorr_2d,
    key_constraint,
    reduce_2d_to_1d,
    residual_constraint_set,
    verify_reduction,
)
from conftest import GOLDEN_KEY, GOLDEN_R1D

finite = st.floats(min_value=-100, max_value=100, allow_nan=False)


def test_reduce_golden_is_exact(golden_grid):
    r = reduce_2d_to_1d(golden_grid)
    assert r.m == 4
    assert np.array_equal(r.values, GOLDEN_R1D)
    assert np.array_equal(r.nonneg, [1334.0, -867.0, 242.0, -24.0])


def test_reduce_case_split():
    # each lag is one grid entry, or the sum of exactly two
    rng = np.random.default_rng(3)
    R = autocorr_2d(Matrix2D(3, rng.standard_normal((3, 3))))
    r = reduce_2d_to_1d(R)
    assert r.lag(0) == R.at(0, 0)
    assert r.lag(3) == R.at(1, 0)  # lag divisible by n
    assert r.lag(7) == pytest.approx(R.at(2, 1))  # lag beyond n(n-1)
    assert r.lag(8) == pytest.approx(R.at(2, 2))
    assert r.lag(4) == pytest.approx(R.at(1, 1) + R.at(2, -2))  # straddling lag
    assert r.lag(1) == pytest.approx(R.at(0, 1) + R.at(1, -2))
    assert r.lag(-4) == r.lag(4)


def reduce_per_lag(R):
    """Lags 0..n*n-1 of the reduction, one grid lookup (or two) per lag."""
    n = R.n
    half = []
    for ell in range(n * n):
        i, j = divmod(ell, n)
        if j == 0:
            half.append(R.at(i, 0))
        elif ell > n * (n - 1):
            half.append(R.at(n - 1, j))
        else:
            half.append(R.at(i, j) + R.at(i + 1, j - n))
    return np.array(half)


@pytest.mark.parametrize("n", range(1, 8))
def test_reduce_matches_the_per_lag_definition(n):
    for seed in range(4):
        x = np.random.default_rng(seed).standard_normal((n, n)) * 10.0 ** (seed - 2)
        R = autocorr_2d(Matrix2D(n, x))
        want = reduce_per_lag(R)
        got = reduce_2d_to_1d(R).nonneg
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_reduce_rejects_asymmetric_grid(golden_grid):
    bad = golden_grid.values.copy()
    bad[0, 0] += 1.0
    with pytest.raises(AsymmetricInput):
        reduce_2d_to_1d(Autocorr2D(2, bad))
    with pytest.raises(AsymmetricInput):
        key_constraint(Autocorr2D(2, bad))


@given(st.integers(min_value=1, max_value=5), st.data())
@settings(max_examples=60, deadline=None)
def test_verify_reduction_identity(n, data):
    flat = data.draw(st.lists(finite, min_size=n * n, max_size=n * n))
    X = Matrix2D(n, np.array(flat))
    scale = max(1.0, float(np.max(np.abs(X.values))) ** 2 * n * n)
    assert verify_reduction(X) <= 1e-10 * scale


def test_residual_constraints_golden(golden_grid):
    specs = residual_constraint_set(golden_grid)
    assert len(specs) == 1
    c = specs[0]
    assert (c.i, c.j, c.ell, c.value) == (1, -1, 1, -234.0)
    assert c.to_dict() == {"i": 1, "j": -1, "ell": 1, "value": -234.0}


def test_residual_constraints_shape():
    rng = np.random.default_rng(11)
    R = autocorr_2d(Matrix2D(3, rng.standard_normal((3, 3))))
    specs = residual_constraint_set(R)
    assert len(specs) == 4  # (n-1)^2 grid entries
    assert [s.ell for s in specs] == sorted(s.ell for s in specs)
    for s in specs:
        assert s.i > 0 and s.j < 0
        assert s.ell == s.i * 3 + s.j
        assert s.value == R.at(s.i, s.j)


def test_key_constraint_golden(golden_grid):
    assert key_constraint(golden_grid) == GOLDEN_KEY


@given(st.integers(min_value=2, max_value=5), st.data())
@settings(max_examples=40, deadline=None)
def test_key_constraint_is_corner_product(n, data):
    flat = data.draw(st.lists(finite, min_size=n * n, max_size=n * n))
    X = Matrix2D(n, np.array(flat))
    c = key_constraint(autocorr_2d(X))
    assert c == pytest.approx(X.values[0, n - 1] * X.values[n - 1, 0], abs=1e-9)


def test_key_constraint_needs_n_at_least_2():
    with pytest.raises(DegenerateSize):
        key_constraint(Autocorr2D(1, np.array([[4.0]])))
