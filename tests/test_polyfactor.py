import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autophase2d import (
    Autocorr1D,
    ConjugatePair,
    FlipUnits,
    NonRealResult,
    Polynomial,
    RealZero,
    RootFindingFailed,
    Signal1D,
    UnitCircleZero,
    UnpairedComplexZero,
    ZeroEndpoint,
    ZeroPairing,
    associated_polynomial,
    autocorr_1d,
    elementary_symmetric,
    enumerate_candidates,
    f_direct,
    f_vieta,
    find_zero_pairs,
    group_flip_units,
    reconstruct_candidate,
    trivially_equivalent_1d,
)
from autophase2d.polyfactor import _autocorr_rows, _expand_zero_products
from conftest import GOLDEN_ZEROS, elementary_symmetric_oracle

# Seeded signals whose zeros give both real and conjugate-pair flip units.
MIXED_UNIT_CASES = [(4, 0), (9, 0), (9, 2), (16, 0), (16, 7)]


def seeded_units(m, seed):
    r = autocorr_1d(Signal1D(np.random.default_rng(seed).standard_normal(m)))
    zp = find_zero_pairs(associated_polynomial(r))
    return r, zp, group_flip_units(zp)


def golden_pairing(golden_r):
    return find_zero_pairs(associated_polynomial(golden_r))


# --- polynomial construction ----------------------------------------------------


def test_polynomial_trims_trailing_zeros():
    p = Polynomial([1.0, 2.0, 0.0, 0.0])
    assert p.degree == 1
    assert np.array_equal(p.coeffs, [1.0, 2.0])
    assert Polynomial([0.0]).degree == 0
    with pytest.raises(ValueError):
        Polynomial([])
    with pytest.raises(ValueError):
        Polynomial([np.inf])


def test_associated_polynomial_golden(golden_r):
    p = associated_polynomial(golden_r)
    assert p.degree == 6
    assert np.array_equal(p.coeffs, golden_r.values)


def test_associated_polynomial_zero_endpoint():
    with pytest.raises(ZeroEndpoint):
        associated_polynomial(Autocorr1D.from_nonneg([5.0, 1.0, 0.0]))


# --- zero pairing ---------------------------------------------------------------


def test_find_zero_pairs_golden(golden_r):
    zp = golden_pairing(golden_r)
    assert zp.scale == -24.0
    found = sorted(zp.zeros.real.tolist())
    assert np.max(np.abs(zp.zeros.imag)) <= 1e-8
    assert found == pytest.approx(GOLDEN_ZEROS, abs=1e-8)
    assert np.all(zp.zeros.imag == 0)  # real zeros come back exactly real


@pytest.mark.parametrize("seed", range(8))
def test_zero_pairs_lie_outside_circle(seed):
    rng = np.random.default_rng(seed)
    r = autocorr_1d(Signal1D(rng.standard_normal(9)))
    zp = find_zero_pairs(associated_polynomial(r))
    assert zp.zeros.size == 8  # half the polynomial degree
    assert np.all(np.abs(zp.zeros) > 1.0)


def test_find_zero_pairs_validates_shape():
    with pytest.raises(ValueError):
        find_zero_pairs(Polynomial([1.0, 2.0, 3.0]))  # not palindromic
    with pytest.raises(ValueError):
        find_zero_pairs(Polynomial([1.0, 2.0, 2.0, 1.0]))  # odd degree
    empty = find_zero_pairs(Polynomial([7.0]))
    assert empty.zeros.size == 0 and empty.scale == 7.0


def test_unit_circle_zero_detected():
    # autocorrelation of [1, 1]: both zeros sit at -1
    with pytest.raises(UnitCircleZero):
        find_zero_pairs(Polynomial([1.0, 2.0, 1.0]))


@pytest.mark.parametrize("coeffs", [[1, 2, 1], [1, -2, 1], [1, 0, -2, 0, 1], [1, -4, 6, -4, 1]])
def test_unit_circle_at_x_plus_minus_one_is_quiet(coeffs):
    # x = (z + 1/z)/2 = +-1 exactly; sqrt, branch choice and residual must not trap
    with np.errstate(all="raise"), pytest.raises(UnitCircleZero):
        find_zero_pairs(Polynomial(coeffs))


def test_degree_two_root_is_direct():
    # 2 + 5z + 2z^2 = (2z + 1)(z + 2): x = -5/4 maps to z = -2 exactly
    with np.errstate(all="raise"):
        zp = find_zero_pairs(Polynomial([2.0, 5.0, 2.0]))
    assert zp.zeros.tolist() == [-2.0]


def test_numpy_polynomial_not_imported():
    code = "import sys, autophase2d.cli; print('numpy.polynomial' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


def test_unit_circle_band_is_tol_pair(golden_r):
    # golden zeros 2, 3, 4 and their reflections lie 1/2 or more from the circle
    P = associated_polynomial(golden_r)
    assert find_zero_pairs(P, tol_pair=0.4).zeros.size == 3
    with pytest.raises(UnitCircleZero):
        find_zero_pairs(P, tol_pair=0.6)


def test_root_tolerance_is_enforced(golden_r):
    with pytest.raises(RootFindingFailed):
        find_zero_pairs(associated_polynomial(golden_r), tol_root=1e-300)


def nearest_match_error(ours, reference):
    """Worst relative distance when each zero takes its nearest unused reference zero."""
    left = list(reference)
    worst = 0.0
    for w in ours:
        i = int(np.argmin([abs(v - w) for v in left]))
        worst = max(worst, abs(left.pop(i) - w) / abs(w))
    return worst


@pytest.mark.parametrize("m,seed", MIXED_UNIT_CASES + [(25, 1), (36, 1), (49, 1)])
def test_zero_pairs_match_np_roots(m, seed):
    r, zp, fu = seeded_units(m, seed)
    reflected = np.concatenate([zp.zeros, 1 / np.conj(zp.zeros)])
    reference = np.roots(associated_polynomial(r).coeffs[::-1])
    assert reflected.size == reference.size == 2 * m - 2
    assert nearest_match_error(reflected, reference) <= 1e-9
    for unit in fu.units:
        if isinstance(unit, ConjugatePair):
            assert np.count_nonzero(zp.zeros == np.conj(unit.value)) == 1


@pytest.mark.parametrize("seed", range(3))
def test_root_residuals_at_n7(seed):
    _, zp, _ = seeded_units(49, seed)
    assert zp.zeros.size == 48
    assert np.max(zp.root_residuals) <= 1e-10


@pytest.mark.parametrize("m,seed", MIXED_UNIT_CASES + [(25, 1), (36, 1), (49, 1)])
def test_root_residuals_match_horner(m, seed):
    # the gate's one Vandermonde product against Horner's method, at the members inside
    r, zp, _ = seeded_units(m, seed)
    c = associated_polynomial(r).coeffs
    horner = np.abs(np.polyval(c / np.max(np.abs(c)), 1.0 / zp.zeros))
    assert zp.root_residuals.shape == horner.shape
    assert np.max(np.abs(zp.root_residuals - horner)) <= 1e-14


# --- flip units -----------------------------------------------------------------


def test_group_flip_units_golden(golden_r):
    fu = group_flip_units(golden_pairing(golden_r))
    assert fu.unit_count == 3
    assert all(isinstance(u, RealZero) for u in fu.units)
    # ordered by descending modulus
    assert [round(u.value) for u in fu.units] == [4, 3, 2]
    assert fu.betas(0) == pytest.approx([4.0, 3.0, 2.0], abs=1e-8)
    flipped_first = fu.betas(1)
    assert flipped_first[0] == pytest.approx(0.25, abs=1e-8)
    assert flipped_first[1:] == pytest.approx([3.0, 2.0], abs=1e-8)


def test_group_flip_units_conjugate_pairs():
    # x = [2, 0, 3] has only imaginary zeros, so one joint unit
    r = autocorr_1d(Signal1D([2.0, 0.0, 3.0]))
    fu = group_flip_units(find_zero_pairs(associated_polynomial(r)))
    assert fu.unit_count == 1
    unit = fu.units[0]
    assert isinstance(unit, ConjugatePair)
    assert unit.value.imag > 0
    plain = unit.members(False)
    assert plain[0] == np.conj(plain[1])
    flipped = unit.members(True)
    assert flipped[0] == pytest.approx(1 / np.conj(plain[0]))


def test_unpaired_complex_zero_rejected():
    lone = ZeroPairing(np.array([2.0 + 1.0j, 1.5 + 0.0j]), np.zeros(2), 1.0)
    with pytest.raises(UnpairedComplexZero):
        group_flip_units(lone)


def test_flip_mask_range():
    fu = FlipUnits((RealZero(2.0), RealZero(3.0)))
    assert fu.betas(3) == (0.5, 1 / 3)
    with pytest.raises(ValueError):
        fu.betas(4)
    with pytest.raises(ValueError):
        fu.betas(-1)


# --- reconstruction -------------------------------------------------------------


def test_reconstruct_golden_base(golden_r):
    zp = golden_pairing(golden_r)
    fu = group_flip_units(zp)
    y = reconstruct_candidate(fu, 0, zp.scale, target=golden_r)
    assert trivially_equivalent_1d(y.values, Signal1D([-24.0, 26.0, -9.0, 1.0]), 1e-6)
    assert y.values.values[0] > 0  # canonical sign
    assert y.autocorr_residual <= 1e-12
    assert y.f_value == pytest.approx(-234.0, abs=1e-6)


def test_reconstruct_validates_arguments(golden_r):
    zp = golden_pairing(golden_r)
    fu = group_flip_units(zp)
    with pytest.raises(ValueError):
        reconstruct_candidate(fu, 8, zp.scale, target=golden_r)
    with pytest.raises(ValueError):
        reconstruct_candidate(fu, 0, 0.0, target=golden_r)
    with pytest.raises(ValueError):
        reconstruct_candidate(fu, 0, zp.scale, target=Autocorr1D.from_nonneg([1.0, 0.5]))


def test_flipped_masks_share_autocorrelation(golden_r):
    zp = golden_pairing(golden_r)
    fu = group_flip_units(zp)
    base = autocorr_1d(reconstruct_candidate(fu, 0, zp.scale, target=golden_r).values)
    for flips in range(1, 8):
        y = reconstruct_candidate(fu, flips, zp.scale, target=golden_r)
        got = autocorr_1d(y.values)
        assert np.max(np.abs(got.values - base.values)) <= 1e-9 * np.max(np.abs(base.values))


@pytest.mark.parametrize("m,seed", MIXED_UNIT_CASES)
def test_real_expansion_matches_np_poly(m, seed):
    _, _, fu = seeded_units(m, seed)
    kinds = {type(u) for u in fu.units}
    assert kinds == {RealZero, ConjugatePair}
    masks = np.arange(1 << fu.unit_count, dtype=np.int64)
    got = _expand_zero_products(fu.units, masks)
    assert got.dtype == np.float64
    for mask, row in zip(masks, got):
        want = np.poly(np.array(fu.betas(int(mask))))[::-1]
        assert np.isrealobj(want)  # np.poly returns real for conjugate-closed zeros
        assert np.max(np.abs(row - want)) <= 1e-12 * np.max(np.abs(want))


def autocorr_rows_per_lag(vals):
    """Nonnegative-lag autocorrelation of each row, one np.sum per lag."""
    m = vals.shape[1]
    out = np.empty_like(vals)
    for ell in range(m):
        out[:, ell] = np.sum(vals[:, : m - ell] * vals[:, ell:], axis=1)
    return out


@pytest.mark.parametrize("rows", [1, 256])
@pytest.mark.parametrize("width", range(1, 17))
def test_autocorr_rows_are_the_per_lag_sums(rows, width):
    rng = np.random.default_rng(width)
    vals = rng.standard_normal((rows, width)) * 10.0 ** rng.uniform(-8, 8, (rows, width))
    assert np.array_equal(_autocorr_rows(vals), autocorr_rows_per_lag(vals))


@pytest.mark.parametrize("m,seed", MIXED_UNIT_CASES)
def test_reconstruct_reproduces_enumeration_rows(m, seed):
    r, zp, fu = seeded_units(m, seed)
    candidates = enumerate_candidates(r)
    assert len(candidates) == 1 << (fu.unit_count - 1)
    for y in candidates:
        single = reconstruct_candidate(fu, y.flips, zp.scale, target=r)
        assert np.array_equal(single.values.values, y.values.values)
        assert single.autocorr_residual == y.autocorr_residual
        assert single.f_value == y.f_value


# --- symmetric functions and the constraint product ------------------------------


def test_elementary_symmetric_golden():
    zeros = [2.0, 3.0, 4.0]
    assert elementary_symmetric(zeros, 0) == 1.0
    assert elementary_symmetric(zeros, 1) == pytest.approx(9.0)
    assert elementary_symmetric(zeros, 2) == pytest.approx(26.0)
    assert elementary_symmetric(zeros, 3) == pytest.approx(24.0)
    with pytest.raises(ValueError):
        elementary_symmetric(zeros, 4)
    with pytest.raises(ValueError):
        elementary_symmetric(zeros, -1)


complex_values = st.lists(
    st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=8,
)


@given(complex_values, st.data())
@settings(max_examples=80)
def test_elementary_symmetric_matches_oracle(values, data):
    k = data.draw(st.integers(min_value=0, max_value=len(values)))
    got = elementary_symmetric(values, k)
    expected = elementary_symmetric_oracle(values, k)
    assert abs(got - expected) <= 1e-9 * max(1.0, abs(expected))


def test_f_direct_invariances():
    y = Signal1D([3.0, -1.0, 4.0, 2.0])
    assert f_direct(y, 2) == -4.0  # entries 1 and 2
    assert f_direct(Signal1D(-y.values), 2) == -4.0
    assert f_direct(Signal1D(y.values[::-1]), 2) == -4.0
    with pytest.raises(ValueError):
        f_direct(Signal1D([1.0, 2.0, 3.0]), 2)
    with pytest.raises(ValueError):
        f_direct(Signal1D([1.0]), 1)


def test_f_vieta_matches_f_direct_golden(golden_r):
    zp = golden_pairing(golden_r)
    fu = group_flip_units(zp)
    for flips in range(8):
        y = reconstruct_candidate(fu, flips, zp.scale, target=golden_r)
        fv = f_vieta(fu, flips, zp.scale, 2)
        assert abs(fv) == pytest.approx(abs(f_direct(y, 2)), rel=1e-10)


def test_f_vieta_validates_count(golden_r):
    fu = group_flip_units(golden_pairing(golden_r))
    with pytest.raises(ValueError):
        f_vieta(fu, 0, -24.0, 3)  # 3 zeros cannot make a 3x3 signal


def test_f_vieta_rejects_nonreal_combination():
    # A hand-built unit set whose members are not conjugate-closed.
    fu = FlipUnits((RealZero(2.0), ConjugatePair(3.0 + 1.0j)))
    with pytest.raises(NonRealResult):
        f_vieta(FlipUnits((_Lone(2.0 + 1.0j), _Lone(3.0 - 2.0j), _Lone(1.5 + 0.5j))), 0, 1.0, 2)
    # sanity: a closed set stays real
    assert isinstance(f_vieta(fu, 0, 1.0, 2), float)


class _Lone:
    """Test double: a single complex zero, never conjugate-closed."""

    def __init__(self, z):
        self.z = complex(z)

    def members(self, flipped):
        return (1 / self.z.conjugate() if flipped else self.z,)
