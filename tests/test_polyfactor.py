import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autophase2d import (
    Autocorr1D,
    Candidates,
    ConjugatePair,
    FlipUnits,
    AutophaseError,
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
    find_zero_pairs,
    group_flip_units,
    trivially_equivalent_1d,
)
from autophase2d import polyfactor
from autophase2d.polyfactor import (
    _autocorr_rows,
    _chebyshev_roots,
    _factor_arrays,
    _zero_product_table,
)
from conftest import (
    GOLDEN_ZEROS,
    NonRealResult,
    assert_same_table,
    betas,
    elementary_symmetric_oracle,
    f_vieta,
    members,
    reconstruct_candidate,
)

# Seeded signals whose zeros give both real and conjugate-pair flip units.
MIXED_UNIT_CASES = [(4, 0), (9, 0), (9, 2), (16, 0), (16, 7)]


def seeded_units(m, seed):
    r = autocorr_1d(Signal1D(np.random.default_rng(seed).standard_normal(m)))
    zp = find_zero_pairs(associated_polynomial(r))
    return r, zp, group_flip_units(zp)


def golden_pairing(golden_r):
    return find_zero_pairs(associated_polynomial(golden_r))


# --- polynomial construction ----------------------------------------------------


def numpy_support(r):
    """The support associated_polynomial trims r to, in numpy."""
    live = np.flatnonzero(np.abs(r.nonneg) > polyfactor.ENDPOINT_RTOL * r.max_abs)
    return int(live[-1]) + 1


def trimmed_sequences():
    """Lag sequences whose last 0..3 lags vanish, exactly or within ENDPOINT_RTOL."""
    rng = np.random.default_rng(23)
    cut = polyfactor.ENDPOINT_RTOL
    for m in (2, 3, 5, 9):
        for tail in ([], [0.0], [-0.0, 0.0], [cut, -cut, 0.5 * cut], [2 * cut, cut]):
            head = rng.standard_normal(m)
            head[0] = np.abs(head).max() + 1.0  # the zero lag is the largest
            yield np.concatenate([head, np.array(tail) * head[0]])
    yield np.array([5.0, 0.0, 1.0, 0.0])  # an inner zero lag is kept
    yield np.array([5.0, 1.0, 2.0 * cut * 5.0, 0.0])  # a tiny lag above the cut is kept


@pytest.mark.parametrize("half", list(trimmed_sequences()))
def test_endpoint_trim_is_numpys_last_live_lag(half):
    r = Autocorr1D.from_nonneg(half)
    trimmed = associated_polynomial(r)
    assert trimmed.m == numpy_support(r)
    assert trimmed.nonneg.tolist() == r.nonneg[:trimmed.m].tolist()
    assert (trimmed is r) == (trimmed.m == r.m)


def test_associated_polynomial_golden(golden_r):
    assert associated_polynomial(golden_r) is golden_r  # full support: r itself, degree 6


def test_associated_polynomial_zero_endpoint():
    # vanishing extreme lags are trimmed; only an all-zero sequence is refused
    trimmed = associated_polynomial(Autocorr1D.from_nonneg([5.0, 1.0, 0.0, -0.0]))
    assert trimmed.m == 2 and trimmed.values.tolist() == [1.0, 5.0, 1.0]
    assert trimmed.max_abs == 5.0
    with pytest.raises(ZeroEndpoint, match="every lag vanishes"):
        associated_polynomial(Autocorr1D.from_nonneg([0.0, 0.0, 0.0]))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_endpoint_cut_is_endpoint_rtol(sign):
    cut = polyfactor.ENDPOINT_RTOL * 5.0
    at_cut = Autocorr1D.from_nonneg([5.0, 1.0, sign * cut])
    assert associated_polynomial(at_cut).m == 2
    above = Autocorr1D.from_nonneg([5.0, 1.0, sign * np.nextafter(cut, np.inf)])
    assert associated_polynomial(above) is above
    assert find_zero_pairs(above).zeros.size == 2


def test_find_zero_pairs_refuses_untrimmed_lags():
    cut = polyfactor.ENDPOINT_RTOL * 5.0
    # the last two would overflow the colleague matrix (1e300 / 1e-320) if factored
    for untrimmed in ([5.0, 1.0, 0.0], [5.0, 1.0, cut], [0.0, 0.0], [1e300, 0.0, 1e-320],
                      [1e300, 1e-320]):
        with pytest.raises(ZeroEndpoint, match="associated_polynomial trims it"):
            find_zero_pairs(Autocorr1D.from_nonneg(untrimmed))
    empty = find_zero_pairs(Autocorr1D.from_nonneg([7.0]))  # degree 0: no zeros
    assert empty.zeros.size == 0 and empty.scale == 7.0


@pytest.mark.parametrize("scale", [np.finfo(float).max, 1.0, 1e-300, 1e-310, 5e-320])
def test_smallest_kept_endpoint_factors_without_warnings(scale):
    # the extreme lag one float above the cut, under interior lags at +-max|r| (the
    # largest colleague-matrix column the cut admits) or of a Gaussian signal
    outcomes = set()
    for m in range(2, 10):  # degrees 2..16
        honest = autocorr_1d(Signal1D(np.random.default_rng(m).standard_normal(m))).nonneg
        signs = np.random.default_rng(m).choice([-1.0, 1.0], m)
        for half in (honest / np.abs(honest).max() * scale, signs * scale):
            half[0] = scale
            half[-1] = np.nextafter(polyfactor.ENDPOINT_RTOL * scale, np.inf)
            r = Autocorr1D.from_nonneg(half)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert associated_polynomial(r) is r
                try:
                    zp = find_zero_pairs(r)
                except AutophaseError as err:  # a typed refusal
                    outcomes.add(type(err).__name__)
                    continue
            assert zp.zeros.size == m - 1 and np.all(zp.root_residuals <= 1e-8)
            outcomes.add("pairs")
    assert "pairs" in outcomes


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


def test_unit_circle_zero_detected():
    # autocorrelation of [1, 1]: both zeros sit at -1
    with pytest.raises(UnitCircleZero):
        find_zero_pairs(Autocorr1D.from_nonneg([2.0, 1.0]))


@pytest.mark.parametrize("coeffs", [[1, 2, 1], [1, -2, 1], [1, 0, -2, 0, 1], [1, -4, 6, -4, 1]])
def test_unit_circle_at_x_plus_minus_one_is_quiet(coeffs):
    # x = (z + 1/z)/2 = +-1 exactly; sqrt, branch choice and residual must not trap
    with np.errstate(all="raise"), pytest.raises(UnitCircleZero):
        find_zero_pairs(Autocorr1D(len(coeffs) // 2 + 1, coeffs))


def test_degree_two_root_is_direct():
    # 2 + 5z + 2z^2 = (2z + 1)(z + 2): x = -5/4 maps to z = -2 exactly
    with np.errstate(all="raise"):
        zp = find_zero_pairs(Autocorr1D.from_nonneg([5.0, 2.0]))
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


@pytest.mark.parametrize("half, tol_pair, named", [
    ([2.0, 1.0], 1e-6, "-1+0j"),  # a double zero at -1
    ([-2.0, 1.0], 1e-6, "1+0j"),
    ([2.0, 0.0, 1.0], 1e-6, "8.86028e-09+1j"),  # (z^2 + 1)^2: the first of +-i
    ([3.0, -1.0, 1.0, 1.0], 1e-6, "0.136945+0.990579j"),
    ([1334.0, -867.0, 242.0, -24.0], 0.6, "0.5+0j"),  # golden zeros 2, 3, 4: an inside member
    ([1334.0, -867.0, 242.0, -24.0], 0.7, "0.333333+0j"),
    ([1334.0, -867.0, 242.0, -24.0], 0.8, "0.25+0j"),
])
def test_unit_circle_zero_names_the_first_zero_in_the_band(half, tol_pair, named):
    # the representatives first, then their reciprocals, each in eigenvalue order
    with pytest.raises(UnitCircleZero) as caught:
        find_zero_pairs(Autocorr1D.from_nonneg(half), tol_pair=tol_pair)
    assert str(caught.value) == (f"zero {named} lies within {tol_pair:.1e} of the unit circle; "
                                 "flipping is ill-defined there")


def test_root_tolerance_is_enforced(golden_r):
    with pytest.raises(RootFindingFailed):
        find_zero_pairs(associated_polynomial(golden_r), tol_root=1e-300)


@pytest.mark.parametrize("d", range(1, 41))
def test_chebyshev_roots_are_numpys_eigvals_bit_for_bit(d):
    from numpy.polynomial.chebyshev import chebcompanion

    a = np.random.default_rng(d).standard_normal(d + 1)
    want = np.linalg.eigvals(chebcompanion(a)[::-1, ::-1]).astype(complex)
    got = _chebyshev_roots(a)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()  # signed zeros too


def test_colleague_bases_are_bounded_and_read_only():
    for d in range(2, 3 * polyfactor.CACHED_DEGREES):
        _chebyshev_roots(np.random.default_rng(d).standard_normal(d + 1))
    assert polyfactor._colleague_base.cache_info().currsize <= polyfactor.CACHED_DEGREES
    for base in polyfactor._colleague_base(5):
        assert not base.flags.writeable


def test_eigenvalue_nonconvergence_is_root_finding_failed(lapack_not_converging, golden_r):
    with pytest.raises(RootFindingFailed, match="did not converge"):
        find_zero_pairs(associated_polynomial(golden_r))


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
    reference = np.roots(associated_polynomial(r).values[::-1])
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
    c = associated_polynomial(r).values
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
    assert betas(fu, 0) == pytest.approx([4.0, 3.0, 2.0], abs=1e-8)
    flipped_first = betas(fu, 1)
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
    plain = members(unit, False)
    assert plain[0] == np.conj(plain[1])
    flipped = members(unit, True)
    assert flipped[0] == pytest.approx(1 / np.conj(plain[0]))


def numpy_unit_order(zeros):
    """The unit values group_flip_units orders, in numpy: np.lexsort is stable."""
    zs = zeros[zeros.imag >= 0]
    return zs[np.lexsort((zs.imag, zs.real, -np.abs(zs)))].tolist()


TIED_ZEROS = [
    [2.0, -2.0],  # zeros +-a
    [-2.0, 2.0, 3.0, -3.0],
    [5.0, 3 + 4j, 3 - 4j],  # a real zero and a conjugate pair of equal modulus
    [3 - 4j, -5.0, 3 + 4j, 5.0],
    [4 - 3j, 3 + 4j, -4 + 3j, 5.0, -3 - 4j, 4 + 3j, -4 - 3j, 3 - 4j, -3 + 4j, -5.0],  # |z| = 5
    [2.0, complex(2.0, -0.0), -2.0],  # a real zero with imaginary part -0.0
    [1.5, 1.5, -1.5, 2 + 1j, 2 - 1j, 2 + 1j, 2 - 1j],  # repeated zeros
    [1e10 + 2j, 1e10 - 2j, 1e10 + 1j, 1e10 - 1j],  # the computed moduli and real parts tie
]


@pytest.mark.parametrize("zeros", TIED_ZEROS)
def test_unit_order_is_numpys_lexsort_on_ties(zeros):
    zeros = np.array(zeros, dtype=complex)
    fu = group_flip_units(ZeroPairing(zeros, np.zeros(zeros.size), 1.0))
    assert [complex(u.value) for u in fu.units] == numpy_unit_order(zeros)
    assert [type(u) for u in fu.units] == [RealZero if z.imag == 0 else ConjugatePair
                                           for z in numpy_unit_order(zeros)]


@pytest.mark.parametrize("m,seed", MIXED_UNIT_CASES + [(25, 1), (36, 1), (49, 1)])
def test_unit_order_is_numpys_lexsort(m, seed):
    _, zp, fu = seeded_units(m, seed)
    assert [complex(u.value) for u in fu.units] == numpy_unit_order(zp.zeros)


@pytest.mark.parametrize("zeros, named", [
    ([2 + 1j, 1.5], "[2.+1.j]"),
    ([2 + 1j, 1.5, 2 - 1j, 3 + 2j], "[2.+1.j 2.-1.j 3.+2.j]"),
    ([-3 - 4j, 5.0, 3 + 4j], "[-3.-4.j  3.+4.j]"),
    ([2 + 1j, 2 - 1.5j], "[2.+1.j  2.-1.5j]"),
])
def test_unpaired_complex_zero_names_every_complex_zero(zeros, named):
    with pytest.raises(UnpairedComplexZero) as caught:
        group_flip_units(ZeroPairing(np.array(zeros, dtype=complex), np.zeros(len(zeros)), 1.0))
    assert str(caught.value) == f"complex zeros {named} are not closed under conjugation"


def test_unpaired_complex_zero_rejected():
    lone = ZeroPairing(np.array([2.0 + 1.0j, 1.5 + 0.0j]), np.zeros(2), 1.0)
    with pytest.raises(UnpairedComplexZero):
        group_flip_units(lone)


def test_flip_mask_range():
    fu = FlipUnits((RealZero(2.0), RealZero(3.0)))
    assert betas(fu, 3) == (0.5, 1 / 3)
    with pytest.raises(ValueError):
        betas(fu, 4)
    with pytest.raises(ValueError):
        betas(fu, -1)


# --- reconstruction -------------------------------------------------------------


def test_reconstruct_golden_base(golden_r):
    zp = golden_pairing(golden_r)
    fu = group_flip_units(zp)
    y = reconstruct_candidate(fu, 0, zp.scale, target=golden_r)
    assert len(y) == 1 and y.flips.tolist() == [0]
    assert trivially_equivalent_1d(Signal1D(y.values[0]), Signal1D([-24.0, 26.0, -9.0, 1.0]), 1e-6)
    assert y.values[0, 0] > 0  # canonical sign
    assert y.autocorr_residuals[0] <= 1e-12
    assert y.f_values[0] == pytest.approx(-234.0, abs=1e-6)


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
    base = autocorr_1d(Signal1D(reconstruct_candidate(fu, 0, zp.scale, target=golden_r).values[0]))
    for flips in range(1, 8):
        y = reconstruct_candidate(fu, flips, zp.scale, target=golden_r)
        got = autocorr_1d(Signal1D(y.values[0]))
        assert np.max(np.abs(got.values - base.values)) <= 1e-9 * np.max(np.abs(base.values))


@pytest.mark.parametrize("m,seed", MIXED_UNIT_CASES)
def test_real_expansion_matches_np_poly(m, seed):
    _, _, fu = seeded_units(m, seed)
    kinds = {type(u) for u in fu.units}
    assert kinds == {RealZero, ConjugatePair}
    got = _zero_product_table(_factor_arrays(fu.units), pinned=False)  # every mask, ascending
    assert got.dtype == np.float64 and got.shape[0] == 1 << fu.unit_count
    for mask, row in enumerate(got):
        want = np.poly(np.array(betas(fu, mask)))[::-1]
        assert np.isrealobj(want)  # np.poly returns real for conjugate-closed zeros
        assert np.max(np.abs(row - want)) <= 1e-12 * np.max(np.abs(want))


def assert_factor_rows(units):
    """_factor_arrays holds each unit's factor(False) and factor(True), bit for bit."""
    arrays = _factor_arrays(units)
    assert len(arrays) == len(units)
    for unit, choices in zip(units, arrays):
        assert choices.shape == (2, 1 if isinstance(unit, RealZero) else 2)
        for flipped in (False, True):
            want = unit.factor(flipped)
            assert choices[int(flipped)].tobytes() == struct.pack(f"{len(want)}d", *want)


@pytest.mark.parametrize("m,seed", MIXED_UNIT_CASES)
def test_factor_arrays_hold_each_units_factors(m, seed):
    assert_factor_rows(seeded_units(m, seed)[2].units)


def test_factor_arrays_keep_signed_zeros():
    # ConjugatePair(2j) has the lower coefficient -0.0, which tolist() == cannot tell from 0.0
    assert_factor_rows((ConjugatePair(2j), RealZero(-0.5), ConjugatePair(complex(-0.0, 3.0)),
                        RealZero(4.0), ConjugatePair(complex(1e-300, 1e150))))


def autocorr_rows_per_lag(vals):
    """Nonnegative-lag autocorrelation of each row, one np.sum per lag."""
    m = vals.shape[1]
    out = np.empty_like(vals)
    for ell in range(m):
        out[:, ell] = np.sum(vals[:, : m - ell] * vals[:, ell:], axis=1)
    return out


def scaled_rows(rows, width):
    rng = np.random.default_rng(width)
    return rng.standard_normal((rows, width)) * 10.0 ** rng.uniform(-8, 8, (rows, width))


KERNEL_SHAPES = [(rows, width) for width in range(1, 17) for rows in (1, 256)] + [(64, 25)]


@pytest.mark.parametrize("rows,width", KERNEL_SHAPES,
                         ids=[f"{width}-{rows}" for rows, width in KERNEL_SHAPES])
def test_autocorr_rows_are_the_per_lag_sums(rows, width):
    """Equal up to summation order: each lag differs by at most w eps times the row's
    lag 0, which bounds the sum of |products| (Cauchy-Schwarz)."""
    vals = scaled_rows(rows, width)
    got, want = _autocorr_rows(vals), autocorr_rows_per_lag(vals)
    assert (np.abs(got - want) <= width * np.finfo(float).eps * want[:, :1]).all()


@pytest.mark.parametrize("width", [1, 2, 5, 9, 16, 25])
def test_autocorr_rows_do_not_depend_on_batch_offset_or_chunk(monkeypatch, width):
    vals = scaled_rows(10, width)
    batch = _autocorr_rows(vals)
    for i, row in enumerate(vals):
        assert np.array_equal(_autocorr_rows(row[None]), batch[i:i + 1])
        for offset in range(8):
            buf = np.empty(offset + width)
            buf[offset:] = row
            assert np.array_equal(_autocorr_rows(buf[offset:][None]), batch[i:i + 1])
    monkeypatch.setattr(polyfactor, "CHUNK_PRODUCTS", 3 * (2 * width - 1))  # 3 rows a chunk
    assert np.array_equal(_autocorr_rows(vals), batch)


@pytest.mark.parametrize("m,seed", MIXED_UNIT_CASES)
def test_reconstruct_reproduces_enumeration_rows(m, seed):
    r, zp, fu = seeded_units(m, seed)
    candidates = enumerate_candidates(r)
    assert len(candidates) == 1 << (fu.unit_count - 1)
    for i, flips in enumerate(candidates.flips.tolist()):
        single = reconstruct_candidate(fu, flips, zp.scale, target=r)
        row = slice(i, i + 1)
        assert_same_table(single, Candidates(candidates.flips[row], candidates.values[row],
                                             candidates.autocorr_residuals[row]))


# --- the candidate table ----------------------------------------------------------


def test_candidate_table_arrays_are_read_only(golden_r):
    table = enumerate_candidates(golden_r)
    for a in (table.flips, table.values, table.autocorr_residuals, table.f_values):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1


def test_candidate_table_with_zero_rows(golden_r):
    table = enumerate_candidates(golden_r)
    empty = Candidates(table.flips[:0], table.values[:0], table.autocorr_residuals[:0])
    assert len(empty) == 0 and not empty
    assert empty.values.shape == (0, 4)
    assert empty.f_values.shape == empty.autocorr_residuals.shape == empty.flips.shape == (0,)
    assert_same_table(Candidates([], np.zeros((0, 4)), []), empty)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
def test_candidate_table_has_no_f_values_unless_m_is_a_square(m):
    table = Candidates([0, 2], np.arange(2.0 * m).reshape(2, m), [0.0, 0.0])
    assert table.f_values is None
    square = Candidates([0, 2], np.arange(18.0).reshape(2, 9), [0.0, 0.0])
    assert square.f_values.tolist() == [2.0 * 6.0, 11.0 * 15.0]  # entries n-1 and n*n-n


@pytest.mark.parametrize("flips, values, residuals", [
    ([0], [1.0, 2.0], [0.0]),
    ([0, 2], [[1.0, 2.0]], [0.0, 0.0]),
    ([0], [[1.0, 2.0]], [0.0, 1.0]),
], ids=["one-dimensional-values", "fewer-rows", "more-residuals"])
def test_candidate_table_refuses_mismatched_shapes(flips, values, residuals):
    with pytest.raises(ValueError, match="expected k masks, k rows and k residuals"):
        Candidates(flips, values, residuals)


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


def test_f_values_invariances():
    # a row, its negative and its reversal share a constraint product; rows that are
    # not n*n with n >= 2 have none (test_candidate_table_has_no_f_values_unless_m_is_a_square)
    y = np.array([3.0, -1.0, 4.0, 2.0])
    table = Candidates([0, 2, 4], [y, -y, y[::-1]], [0.0, 0.0, 0.0])
    assert table.f_values.tolist() == [-4.0, -4.0, -4.0]  # entries 1 and 2


def test_f_vieta_matches_f_values_golden(golden_r):
    zp = golden_pairing(golden_r)
    fu = group_flip_units(zp)
    for flips in range(8):
        y = reconstruct_candidate(fu, flips, zp.scale, target=golden_r)
        fv = f_vieta(fu, flips, zp.scale, 2)
        assert abs(fv) == pytest.approx(abs(y.f_values[0]), rel=1e-10)


def test_f_vieta_validates_count(golden_r):
    fu = group_flip_units(golden_pairing(golden_r))
    with pytest.raises(ValueError):
        f_vieta(fu, 0, -24.0, 3)  # 3 zeros cannot make a 3x3 signal


def test_f_vieta_rejects_nonreal_combination():
    # A hand-built unit set whose members are not conjugate-closed: a RealZero
    # holding a complex value stands for a single complex zero.
    fu = FlipUnits((RealZero(2.0), ConjugatePair(3.0 + 1.0j)))
    lone = FlipUnits((RealZero(2.0 + 1.0j), RealZero(3.0 - 2.0j), RealZero(1.5 + 0.5j)))
    with pytest.raises(NonRealResult):
        f_vieta(lone, 0, 1.0, 2)
    # sanity: a closed set stays real
    assert isinstance(f_vieta(fu, 0, 1.0, 2), float)
