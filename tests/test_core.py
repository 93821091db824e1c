import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autophase2d import (
    Autocorr1D,
    Autocorr2D,
    InvalidOversampling,
    LengthMismatch,
    MagnitudeGrid,
    Matrix2D,
    NotAnAutocorrelation,
    Signal1D,
    autocorr_1d,
    autocorr_2d,
    fourier_magnitude_2d,
    measurements_to_autocorr_2d,
    reshape_rowwise,
    trivially_equivalent_1d,
    trivially_equivalent_2d,
    vectorize_rowwise,
)
from autophase2d import core
from autophase2d.core import dft_matrix
from autophase2d.oracle import exhaustive_integer_search
from autophase2d.polyfactor import Candidates, ZeroPairing
from autophase2d.solver import CensusData, solve_2d
from conftest import autocorr_1d_oracle, autocorr_2d_oracle

finite = st.floats(min_value=-100, max_value=100, allow_nan=False)
signals = st.lists(finite, min_size=1, max_size=12).map(np.array)


# --- containers ---------------------------------------------------------------


def test_matrix2d_shape_checks():
    Matrix2D(2, [1.0, 2.0, 3.0, 4.0])  # flat input is reshaped
    with pytest.raises(ValueError):
        Matrix2D(2, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        Matrix2D(0, [])
    with pytest.raises(ValueError):
        Matrix2D.from_rows([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    with pytest.raises(ValueError):
        Matrix2D(1, [np.inf])


def test_matrix2d_values_frozen(golden_matrix):
    with pytest.raises(ValueError):
        golden_matrix.values[0, 0] = 0.0


def test_signal1d_checks():
    assert len(Signal1D([1.0, 2.0])) == 2
    with pytest.raises(ValueError):
        Signal1D([])
    with pytest.raises(ValueError):
        Signal1D([[1.0, 2.0]])
    with pytest.raises(ValueError):
        Signal1D([np.nan])


def test_autocorr1d_requires_exact_symmetry():
    Autocorr1D(2, np.array([3.0, 5.0, 3.0]))
    with pytest.raises(ValueError):
        Autocorr1D(2, np.array([3.0, 5.0, 3.0 + 1e-15]))
    with pytest.raises(ValueError):
        Autocorr1D(2, np.array([3.0, 5.0]))
    with pytest.raises(ValueError):
        Autocorr1D(0, np.array([]))


def test_autocorr1d_from_nonneg_mirrors_exactly():
    r = Autocorr1D.from_nonneg([5.0, 0.1 + 0.2])  # value with no short decimal form
    assert r.m == 2
    assert r.values[0] == r.values[2]
    assert r.lag(1) == r.lag(-1)
    assert r.lag(0) == 5.0
    assert np.array_equal(r.nonneg, [5.0, 0.1 + 0.2])


def test_from_nonneg_refuses_what_the_constructor_refuses():
    for bad in ([1.0, np.nan], [np.inf], [[1.0, 2.0]], []):
        with pytest.raises(ValueError):
            Autocorr1D.from_nonneg(bad)


def seeded_halves(count=200):
    """Half-sequences of 1 to 40 lags, from default_rng(seed) for seed = 0..count-1:
    every float64 bit pattern that is finite, subnormals and -0.0 included."""
    for seed in range(count):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2**64, size=int(rng.integers(1, 41)), dtype=np.uint64)
        half = bits.view(np.float64)
        half[~np.isfinite(half)] = -0.0
        yield half.tolist()


def test_from_nonneg_list_path_is_the_array_path_bit_for_bit(monkeypatch):
    """A list of floats is mirrored as Python floats, with the same values and
    max |r| as the array it would have been."""
    expected = []
    for half in seeded_halves():
        r = Autocorr1D.from_nonneg(np.array(half))
        expected.append((r.m, r.values.tobytes(), r.max_abs))
    checks = []
    monkeypatch.setattr(core, "_finite_float_array",
                        lambda *args: checks.append(args) or pytest.fail("array path taken"))
    for half, (m, values, max_abs) in zip(seeded_halves(), expected):
        r = Autocorr1D.from_nonneg(half)
        assert (r.m, r.values.tobytes()) == (m, values)
        assert np.float64(r.max_abs).tobytes() == np.float64(max_abs).tobytes()
        assert type(r.max_abs) is float and not r.values.flags.writeable
    assert not checks


@pytest.mark.parametrize("bad, message", [
    ([1.0, np.inf], "autocorrelation half must contain only finite values"),
    ([-np.inf], "autocorrelation half must contain only finite values"),
    ([np.nan, 2.0], "autocorrelation half must contain only finite values"),
    ([], "expected a nonempty half spectrum, got shape (0,)"),
    ([[1.0, 2.0], [3.0, 4.0]], "expected a nonempty half spectrum, got shape (2, 2)"),
], ids=["inf", "-inf", "nan", "empty", "2-D"])
def test_from_nonneg_refuses_a_list_as_the_array_path(bad, message):
    for half in (bad, np.array(bad)):
        with pytest.raises(ValueError) as info:
            Autocorr1D.from_nonneg(half)
        assert str(info.value) == message


@pytest.mark.parametrize("half", [[2.0], [5.0, -7.5, 0.1 + 0.2], [-3.0, 1.0, 0.0, -0.0]])
def test_from_nonneg_equals_the_checked_constructor(half):
    h = np.asarray(half)
    r = Autocorr1D.from_nonneg(half)
    checked = Autocorr1D(h.size, np.concatenate([h[:0:-1], h]))
    assert r.m == checked.m
    assert r.values.tobytes() == checked.values.tobytes()
    assert r.max_abs == checked.max_abs
    assert not r.values.flags.writeable


def test_autocorr2d_shape_checks():
    with pytest.raises(ValueError):
        Autocorr2D(2, np.zeros((3, 4)))
    with pytest.raises(ValueError):
        Autocorr2D(0, np.zeros((1, 1)))
    grid = Autocorr2D(2, np.arange(9.0).reshape(3, 3))
    assert grid.at(0, 0) == 4.0
    assert grid.at(-1, 1) == 2.0


def test_magnitude_grid_checks():
    MagnitudeGrid(3, 2, np.ones((3, 3)))  # m = 2n-1 is the minimum
    with pytest.raises(InvalidOversampling):
        MagnitudeGrid(2, 2, np.ones((2, 2)))
    with pytest.raises(ValueError):
        MagnitudeGrid(3, 2, -np.ones((3, 3)))
    with pytest.raises(ValueError):
        MagnitudeGrid(3, 2, np.ones((3, 4)))
    with pytest.raises(ValueError, match="signal side must be positive"):
        MagnitudeGrid(3, 0, np.ones((3, 3)))


# --- autocorrelation operators ------------------------------------------------


@given(signals)
@settings(max_examples=100)
def test_autocorr_1d_matches_oracle(v):
    r = autocorr_1d(Signal1D(v))
    expected = autocorr_1d_oracle(v)
    assert r.values.shape == expected.shape
    assert np.max(np.abs(r.values - expected)) <= 1e-9 * max(1.0, np.max(np.abs(expected)))


@given(signals)
@settings(max_examples=100)
def test_autocorr_1d_symmetry_is_exact(v):
    r = autocorr_1d(Signal1D(v))
    assert np.array_equal(r.values, r.values[::-1])
    assert r.lag(0) == pytest.approx(float(v @ v))


@given(st.integers(min_value=1, max_value=4), st.data())
@settings(max_examples=60)
def test_autocorr_2d_matches_oracle(n, data):
    flat = data.draw(st.lists(finite, min_size=n * n, max_size=n * n))
    X = Matrix2D(n, np.array(flat))
    R = autocorr_2d(X)
    expected = autocorr_2d_oracle(X.values)
    assert np.max(np.abs(R.values - expected)) <= 1e-9 * max(1.0, np.max(np.abs(expected)))
    # point symmetry must hold exactly, not just within tolerance
    assert np.array_equal(R.values, R.values[::-1, ::-1])


def test_autocorr_2d_golden(golden_matrix, golden_grid):
    assert np.array_equal(autocorr_2d(golden_matrix).values, golden_grid.values)


# --- vectorization ------------------------------------------------------------


def test_autocorr_overflow_is_refused_without_warnings():
    # pytest turns numpy warnings into errors, so only the ValueError may surface
    with pytest.raises(ValueError, match="finite"):
        autocorr_2d(Matrix2D(2, np.full((2, 2), 1e200)))
    with pytest.raises(ValueError, match="finite"):
        autocorr_2d(Matrix2D(2, np.array([[1e200, -1e200], [1e200, 1e200]])))
    with pytest.raises(ValueError, match="finite"):
        autocorr_1d(Signal1D([1e200, 1e200, -1e200]))


def test_vectorize_layout(golden_matrix):
    x = vectorize_rowwise(golden_matrix)
    assert np.array_equal(x.values, [-24.0, 26.0, -9.0, 1.0])


@given(st.integers(min_value=1, max_value=5), st.data())
@settings(max_examples=40)
def test_vectorize_reshape_roundtrip(n, data):
    flat = data.draw(st.lists(finite, min_size=n * n, max_size=n * n))
    X = Matrix2D(n, np.array(flat))
    assert np.array_equal(reshape_rowwise(vectorize_rowwise(X), n).values, X.values)


def test_reshape_length_mismatch():
    with pytest.raises(LengthMismatch):
        reshape_rowwise(Signal1D([1.0, 2.0, 3.0]), 2)


# --- Fourier magnitude front end ----------------------------------------------


@pytest.mark.parametrize("n,m", [(2, 3), (2, 4), (3, 5), (3, 8)])
def test_fourier_magnitude_matches_fft(n, m):
    rng = np.random.default_rng(n * 100 + m)
    X = Matrix2D(n, rng.standard_normal((n, n)))
    Y = fourier_magnitude_2d(X, m)
    expected = np.abs(np.fft.fft2(X.values, s=(m, m))) ** 2
    assert np.max(np.abs(Y.values - expected)) <= 1e-9 * np.max(expected)


@pytest.mark.parametrize("n,m", [(2, 3), (2, 4), (3, 5), (3, 7), (4, 12)])
def test_measurements_roundtrip(n, m):
    rng = np.random.default_rng(n * 10 + m)
    X = Matrix2D(n, rng.standard_normal((n, n)))
    R = measurements_to_autocorr_2d(fourier_magnitude_2d(X, m))
    expected = autocorr_2d(X)
    scale = np.max(np.abs(expected.values))
    assert np.max(np.abs(R.values - expected.values)) <= 1e-10 * scale
    assert np.array_equal(R.values, R.values[::-1, ::-1])


def test_inverse_dft_cache_is_read_only_and_exact():
    for m in (3, 7, 12):
        G = core._cached_inverse_dft(m)
        assert not G.flags.writeable
        assert G.tobytes() == np.conj(dft_matrix(m)).tobytes()


def test_fold_index_cache_is_read_only_exact_and_bounded():
    for n in (1, 2, 3):
        for m in range(2 * n - 1, 2 * n + 6):
            idx = np.arange(-(n - 1), n) % m
            flat = core._fold_index(m, n)
            assert not flat.flags.writeable
            grid = np.arange(m * m, dtype=float).reshape(m, m)
            assert grid.take(flat).tolist() == grid[idx[:, None], idx].tolist()
    assert core._fold_index.cache_info().currsize <= core.CACHED_DFT_SIZES


def test_front_end_gives_the_same_bits_twice():
    X = Matrix2D(3, np.random.default_rng(5).standard_normal((3, 3)))
    Y = fourier_magnitude_2d(X, 6)
    first = measurements_to_autocorr_2d(Y).values.tobytes()
    assert measurements_to_autocorr_2d(Y).values.tobytes() == first


def test_inverse_dft_cache_stays_bounded():
    X = Matrix2D(1, [[2.0]])
    for m in range(1, 4 * core.CACHED_DFT_SIZES):
        measurements_to_autocorr_2d(fourier_magnitude_2d(X, m))
    assert core._cached_inverse_dft.cache_info().currsize <= core.CACHED_DFT_SIZES
    big = core.CACHED_DFT_SIDE + 1  # past the side bound the matrix is built per call
    R = measurements_to_autocorr_2d(fourier_magnitude_2d(X, big))
    assert R.values.tolist() == [[pytest.approx(4.0)]]
    core._cached_inverse_dft.cache_clear()
    measurements_to_autocorr_2d(fourier_magnitude_2d(X, big))
    assert core._cached_inverse_dft.cache_info().currsize == 0


def test_measurements_whose_inverse_transform_overflows_are_refused():
    # the folded, symmetrized grid is checked once, with the Autocorr2D refusal's text
    for Y in (np.full((4, 4), 1e308), np.diag([1.7e308] * 4)):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError) as info:
                measurements_to_autocorr_2d(MagnitudeGrid(4, 2, Y))
        assert type(info.value) is ValueError
        assert str(info.value) == "autocorrelation values must contain only finite values"


def test_measurements_reject_tampered_grid():
    X = Matrix2D.from_rows([[1.0, 2.0], [3.0, 4.0]])
    Y = fourier_magnitude_2d(X, 5)
    bad = Y.values.copy()
    bad[0, 1] += 1.0  # breaks the symmetry a real preimage would force
    with pytest.raises(NotAnAutocorrelation):
        measurements_to_autocorr_2d(MagnitudeGrid(5, 2, bad))


# --- trivial equivalence ------------------------------------------------------


def test_trivially_equivalent_1d():
    x = Signal1D([1.0, 2.0, 3.0])
    assert trivially_equivalent_1d(x, Signal1D([1.0, 2.0, 3.0]), 0.0)
    assert trivially_equivalent_1d(x, Signal1D([-1.0, -2.0, -3.0]), 0.0)
    assert trivially_equivalent_1d(x, Signal1D([3.0, 2.0, 1.0]), 0.0)
    assert trivially_equivalent_1d(x, Signal1D([-3.0, -2.0, -1.0]), 0.0)
    assert not trivially_equivalent_1d(x, Signal1D([1.0, 2.0, 3.5]), 0.1)
    assert trivially_equivalent_1d(x, Signal1D([1.0, 2.0, 3.5]), 0.5)  # absolute tol
    with pytest.raises(ValueError):
        trivially_equivalent_1d(x, Signal1D([1.0, 2.0]), 0.0)


def test_trivially_equivalent_2d(golden_matrix):
    a = golden_matrix.values
    assert trivially_equivalent_2d(golden_matrix, Matrix2D(2, -a), 0.0)
    assert trivially_equivalent_2d(golden_matrix, Matrix2D(2, a[::-1, ::-1]), 0.0)
    assert trivially_equivalent_2d(golden_matrix, Matrix2D(2, -a[::-1, ::-1]), 0.0)
    transposed = Matrix2D(2, a.T)
    assert not trivially_equivalent_2d(golden_matrix, transposed, 1e-6)
    with pytest.raises(ValueError):
        trivially_equivalent_2d(golden_matrix, Matrix2D.from_rows([[1.0]]), 0.0)


# --- array containers ---------------------------------------------------------


@pytest.mark.parametrize(
    "make",
    [
        lambda: Matrix2D(2, [1.0, 2.0, 3.0, 4.0]),
        lambda: Signal1D([1.0, 2.0]),
        lambda: Autocorr1D(2, [1.0, 5.0, 1.0]),
        lambda: Autocorr2D(2, np.ones((3, 3))),
        lambda: MagnitudeGrid(3, 2, np.ones((3, 3))),
        lambda: ZeroPairing(np.array([2.0, 3.0 + 1j]), np.zeros(2), 1.0),
        lambda: CensusData(np.array([0.5, 1.0]), [float(np.log(0.5))], 2),
        lambda: Candidates([0, 2], [[1.0, 2.0, 3.0, 4.0], [4.0, 3.0, 2.0, 1.0]], [0.0, 0.0]),
        lambda: solve_2d(autocorr_2d(Matrix2D(2, [1.0, 2.0, 3.0, 5.0]))),
        lambda: exhaustive_integer_search(autocorr_2d(Matrix2D(2, [1.0, 0.0, 1.0, -1.0])), 1),
    ],
    ids=["Matrix2D", "Signal1D", "Autocorr1D", "Autocorr2D", "MagnitudeGrid",
         "ZeroPairing", "CensusData", "Candidates", "SolveReport", "OracleResult"],
)
def test_array_containers_compare_and_hash_by_identity(make):
    a, b = make(), make()
    assert (a == b) is False
    assert (a == a) is True
    assert len({a, b}) == 2
