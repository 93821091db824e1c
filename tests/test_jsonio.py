import collections
import contextlib
import math
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from autophase2d import jsonio
from autophase2d.jsonio import (
    KERNEL_CELLS,
    census_csv,
    dumps,
    format_float,
    load_autocorr1d,
    load_autocorr2d,
    load_matrix2d,
)
from autophase2d.polyfactor import Candidates
from autophase2d.solver import CensusData
from conftest import reference_dumps

EXTREMES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
            1.7976931348623157e308, -1.7976931348623157e308, 1e16, 1e17, 0.1, 1 / 3]


def per_element(values) -> str:
    """The serializer's bytes spelled out: format_float on each element, nested."""
    if isinstance(values, (list, tuple, np.ndarray)):
        return "[" + ", ".join(per_element(v) for v in values) + "]"
    return format_float(float(values))


def random_finite(size, seed=0):
    """Finite float64 values from uniform random bit patterns: every exponent, subnormals too."""
    bits = np.random.default_rng(seed).integers(0, 2**64, size=size, dtype=np.uint64)
    x = bits.view(np.float64)
    return np.concatenate([x[np.isfinite(x)], EXTREMES])


@contextlib.contextmanager
def kernel_spy():
    """The sizes of the arrays that the kernel, jsonio._format_into, formats meanwhile."""
    calls = []
    kernel = jsonio._format_into

    def spy(out, x):
        calls.append(x.size)
        kernel(out, x)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(jsonio, "_format_into", spy)
        yield calls


def test_float64_array_bytes_match_per_element():
    x = random_finite(200_000)
    square = x[: 400 * 400].reshape(400, 400)
    cube = x[:60].reshape(3, 4, 5)
    for a in (x, square, cube):  # element by element
        assert dumps(a) == per_element(a)
    rows = x[: 100 * 1000].reshape(100, 1000)
    with kernel_spy() as calls:  # a list of floats, or of such lists, by the kernel
        assert dumps(x.tolist()) == per_element(x)
        assert dumps(rows.tolist()) == per_element(rows)
    assert sum(calls) == x.size + rows.size


def test_float32_array_bytes_match_per_element():
    bits = np.random.default_rng(1).integers(0, 2**32, size=20_000, dtype=np.uint32)
    x = bits.view(np.float32)
    x = np.concatenate([x[np.isfinite(x)], np.array([-0.0, 1e-45, 3.4028235e38], np.float32)])
    assert dumps(x) == per_element(x)
    grid = x[: 100 * 50].reshape(100, 50)
    assert dumps(grid) == per_element(grid)


def test_extremes_and_views():
    x = np.array(EXTREMES)
    assert dumps(x) == per_element(x)
    assert dumps(x[::-3]) == per_element(x[::-3])  # non-contiguous view
    assert dumps(x.reshape(3, 4).T) == per_element(x.reshape(3, 4).T)
    assert dumps(np.array([-0.0])) == "[-0]"


@pytest.mark.parametrize("shape", [(0,), (0, 3), (3, 0), (2, 0, 4)])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_empty_arrays(shape, dtype):
    a = np.zeros(shape, dtype=dtype)
    assert dumps(a) == per_element(a)


def test_float_lists_and_tuples():
    values = random_finite(5_000, seed=2).tolist()
    assert dumps(values) == per_element(values)
    assert dumps(tuple(values)) == per_element(values)
    assert dumps([values[:7], values[7:20]]) == per_element([values[:7], values[7:20]])
    assert dumps([]) == "[]"
    assert dumps(()) == "[]"


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
def test_float_list_property(values):
    assert dumps(values) == per_element(values)
    assert dumps(np.array(values)) == per_element(values)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40),
       st.integers(0, KERNEL_CELLS))
def test_kernel_property(values, extra):
    x = np.resize(np.array(values), KERNEL_CELLS + extra)  # the values, repeated
    with kernel_spy() as calls:
        assert dumps(x.tolist()) == per_element(x)
    assert calls == [x.size]


def kernel_edges():
    """Values next to the kernel's decisions: zeros, the range ends, exponent boundaries."""
    powers = np.array([10.0**k for k in range(-323, 309)])
    ints = [2.0**53, 2.0**53 - 1, 2.0**52 + 1, *(10.0**k - 1 for k in range(1, 16))]
    edges = [*EXTREMES, 1e-5, 9.9999999999999995e-5, 1e-4, 1e16, 1e17, 1e-29, 1e-28,
             99999999999999984.0, 1e15 + 0.25, 1e15 + 0.75, 0.5, 2.5, 1e16 - 2, *ints]
    x = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf), edges])
    return np.concatenate([x, -x])


def test_kernel_edges():
    x = kernel_edges()
    assert x.size >= 2 * KERNEL_CELLS
    ties = [1e15 + 0.25, 1e15 + 0.75, 1e16 + 2, -1e15 - 0.25] * KERNEL_CELLS
    with kernel_spy() as calls:
        assert dumps(x.tolist()) == per_element(x)
        assert dumps(x.reshape(2, -1).tolist()) == per_element(x.reshape(2, -1))
        assert dumps(ties) == "[" + ", ".join(["1000000000000000.2", "1000000000000000.8",
                                               "10000000000000002", "-1000000000000000.2"]
                                              * KERNEL_CELLS) + "]"
    assert calls == [x.size, x.size // 2, x.size // 2, len(ties)]


def test_kernel_next_to_every_power_of_ten():
    """The 60 doubles on each side of every power of ten the kernel scales: each
    such value's scaled |v| 10^(16-E) lies next to 1e16 or 1e17, where its
    rounding and 10^(16-E)'s decide whether E and N are right."""
    walks = []
    for e in range(-30, 18):
        for toward in (0.0, math.inf):
            x = 10.0**e
            for _ in range(60):
                walks.append(x)
                x = math.nextafter(x, toward)
    x = np.array(walks + [-v for v in walks])
    with kernel_spy() as calls:
        assert dumps(x.tolist()) == per_element(x)
    assert calls == [x.size]


def test_kernel_chunks_join_seamlessly(monkeypatch):
    """Tables cut into many chunks (the head before the first, the final separator
    after the last, a row longer than a chunk) give the bytes of one chunk."""
    x = random_finite(3000, seed=5)[:3000]
    lists = [x.tolist(), x.reshape(2, 1500).tolist()]
    table = Candidates(np.arange(300) << 1, x[:1200].reshape(300, 4) * 1e-160, np.abs(x[:300]))
    wide = Candidates([0, 2, 4], x[:1800].reshape(3, 600) * 1e-160, np.abs(x[:3]))
    census = CensusData(d=x[:300], v=[None if g < 0 else g for g in x[300:599].tolist()], n=2)
    texts = [dumps(table), dumps(wide), census_csv(census)]
    monkeypatch.setattr(jsonio, "CHUNK_PRODUCTS", 100)
    with kernel_spy() as calls:
        assert [dumps(a) for a in lists] == [per_element(a) for a in lists]
        assert [dumps(table), dumps(wide), census_csv(census)] == texts
    # chunks of 100 floats, of 14 rows of 7 cells, of one 603-cell row, of 33 rows of 3
    assert len(calls) == 30 + 2 * 15 + 22 + 3 + 10
    pieces = jsonio.dump_pieces(table)  # one piece per chunk, none joined to another
    assert len(pieces) == 22 and "".join(pieces) == texts[0]


def layout_cases():
    """Tables of each writer, by name: empty, of one row, and of several rows."""
    x = random_finite(1000, seed=11)[:1000]
    small = x * 1e-160  # constraint products stay finite

    def table(rows, m):
        return Candidates(np.arange(rows) << 1, small[:rows * m].reshape(rows, m),
                          np.abs(x[:rows]))

    def census(rows):
        gaps = [None if g < 0 else g for g in x[500:500 + rows - 1].tolist()]
        return CensusData(d=x[:rows], v=gaps, n=2)

    return {"floats-0": [], "floats-1": x[:1].tolist(), "floats-600": x[:600].tolist(),
            **{f"candidates-f-{k}": table(k, 9) for k in (0, 1, 40)},  # with f_value
            **{f"candidates-{k}": table(k, 5) for k in (0, 1, 40)},  # f_value null
            **{f"census-{k}": census(k) for k in (0, 1, 2, 200)}}


LAYOUT_CASES = layout_cases()


@pytest.mark.parametrize("name", LAYOUT_CASES)
def test_one_layout_two_fillers(monkeypatch, name):
    """Each writer's layout gives the same bytes by template and by kernel."""
    obj = LAYOUT_CASES[name]
    write, rows = (census_csv, obj.d.size) if isinstance(obj, CensusData) else (dumps, len(obj))
    texts = []
    for cells in (0, 1 << 62):
        monkeypatch.setattr(jsonio, "KERNEL_CELLS", cells)
        with kernel_spy() as calls:
            texts.append(write(obj))
        assert bool(calls) == (cells == 0 and rows > 0)
    assert texts[0] == texts[1]


def test_no_layout_holds_a_mark_byte(monkeypatch):
    """The kernel marks a separator longer than four bytes by a control byte
    1, 2, ..., one per distinct separator; no layout may hold one itself.
    With KERNEL_CELLS at 0 every table reaches _table's kernel."""
    layouts = []
    table = jsonio._table

    def spy(cells, seps, head, last, fmt, args, pieces, blank=None):
        layouts.append((seps, head, last))
        table(cells, seps, head, last, fmt, args, pieces, blank)

    monkeypatch.setattr(jsonio, "_table", spy)
    monkeypatch.setattr(jsonio, "KERNEL_CELLS", 0)
    for obj in LAYOUT_CASES.values():
        census_csv(obj) if isinstance(obj, CensusData) else dumps(obj)
    assert {len(seps) for seps, _, _ in layouts} == {1, 3, 7, 12}  # every writer's layout
    for seps, head, last in layouts:
        marks = {chr(k) for k in range(1, len(seps) + 2)}
        assert not marks & set(head + "".join(seps) + last)


# cells that the kernel leaves to format(): zero, beyond its range, a tie
FALLBACKS = [0.0, 1e17, 1e-30, 1e15 + 0.25, -0.0, -1e17]


@pytest.mark.parametrize("m", [9, 5], ids=["f-value", "f-null"])
def test_fallback_cells_before_marked_separators(monkeypatch, m):
    """Each long separator, and the long last of the null f_value layout,
    follows a cell that format() writes, in one chunk and in chunks of three
    rows; the kernel's bytes are the template's."""
    k = 20
    cycle = np.resize(FALLBACKS, k)
    values = np.tile(np.linspace(0.5, 1.5, m), (k, 1))
    values[:, -1] = cycle  # before '], "flips": '
    if m == 9:  # f_value = values[:, 2] * values[:, 6], before the row's end
        values[:, 2], values[:, 6] = cycle[::-1], 1.0
    flips = np.resize([0, 10**17, 2**60, 6], k)  # before ', "autocorr_residual": '
    table = Candidates(flips, values, np.roll(cycle, 1))  # before ', "f_value": ' or the end
    assert table.autocorr_residuals[-1] in FALLBACKS and (m == 9) == (table.f_values is not None)
    if m == 9:
        assert set(table.f_values.tolist()) == set(FALLBACKS)
    texts = []
    for chunk_rows in (k, 3):
        monkeypatch.setattr(jsonio, "CHUNK_PRODUCTS", chunk_rows * (m + 2 + (m == 9)))
        for cells in (0, 1 << 62):
            monkeypatch.setattr(jsonio, "KERNEL_CELLS", cells)
            texts.append(dumps(table))
    assert len(set(texts)) == 1
    assert texts[0].endswith(', "f_value": null}]' if m == 5 else "}]")


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("where", [0, 5, -1])
def test_nonfinite_values_are_refused_alike(bad, where):
    message = re.escape(f"cannot serialize non-finite value {float(bad)!r}")
    with pytest.raises(ValueError, match=message):
        format_float(bad)
    values = np.linspace(-1.0, 1.0, 12)
    values[where] = bad
    for obj in (values, values.reshape(3, 4), values.astype(np.float32), values.tolist()):
        with pytest.raises(ValueError, match=message):
            dumps(obj)
    with pytest.raises(ValueError, match=message):
        dumps({"rows": [[0.5, 1.5], values.tolist()]})


def test_first_nonfinite_value_is_named():
    with pytest.raises(ValueError, match="value nan$"):
        dumps(np.array([[1.0, 2.0], [np.nan, np.inf]]))
    with pytest.raises(ValueError, match="value -inf$"):
        dumps([0.0, -np.inf, np.nan])


def test_other_sequences_serialize_as_before():
    assert dumps(np.array([[1, -2], [3, 4]])) == "[[1, -2], [3, 4]]"
    assert dumps(np.arange(3, dtype=np.int32)) == "[0, 1, 2]"
    assert dumps([1.0, 2, 0.5]) == "[1, 2, 0.5]"
    assert dumps([np.float64(0.1), 1.0]) == "[0.10000000000000001, 1]"
    assert dumps([np.float32(0.1)]) == "[0.10000000149011612]"
    assert dumps([True, 1.0, None]) == "[true, 1, null]"
    assert dumps((1.5, "a")) == '[1.5, "a"]'
    with pytest.raises(ValueError, match="value inf$"):
        dumps([1, np.float64(np.inf)])
    with pytest.raises(TypeError):
        dumps(np.array(1.0))  # a 0-d array is not a sequence
    with pytest.raises(TypeError):
        dumps(np.array([1 + 2j]))


def test_booleans_and_object_keys():
    assert dumps(False) == "false" and dumps(True) == "true"
    assert dumps({"a": False}) == '{"a": false}'
    with pytest.raises(TypeError, match="^JSON object keys must be strings$"):
        dumps({1: 0.5})


# k rows of m + 2 or m + 3 cells: below and above KERNEL_CELLS
@pytest.mark.parametrize("m, k", [(4, 8), (5, 8), (4, KERNEL_CELLS // 4), (5, KERNEL_CELLS // 4)],
                         ids=["4", "5", "4-kernel", "5-kernel"])
def test_candidate_table_bytes_match_per_entry(m, k):
    values = random_finite(k * m, seed=m)[:k * m].reshape(-1, m) * 1e-160  # products stay finite
    k = values.shape[0]
    table = Candidates(np.arange(k) << 1, values, np.abs(random_finite(k, seed=9)[:k]))
    f = [None] * k if table.f_values is None else table.f_values.tolist()
    entries = ["{" + f'"values": {per_element(row)}, "flips": {mask}, "autocorr_residual": '
               f'{format_float(residual)}, "f_value": {"null" if fv is None else format_float(fv)}'
               + "}" for row, mask, residual, fv in zip(values, table.flips.tolist(),
                                                          table.autocorr_residuals.tolist(), f)]
    assert dumps(table) == "[" + ", ".join(entries) + "]"
    assert dumps(Candidates(table.flips[:0], values[:0], table.autocorr_residuals[:0])) == "[]"


@pytest.mark.parametrize("field", ["values", "autocorr_residuals"])
def test_candidate_table_refuses_nonfinite_values(field):
    parts = {"flips": [0, 2], "values": np.ones((2, 4)), "autocorr_residuals": np.zeros(2)}
    parts[field] = parts[field].copy()
    parts[field][1] = np.nan
    with pytest.raises(ValueError, match="non-finite value nan$"):
        dumps({"candidates": Candidates(**parts)})


# rows of no values would be 2 cells each (mask, residual): below and above KERNEL_CELLS
@pytest.mark.parametrize("k", [1, 300], ids=["template", "kernel"])
def test_candidate_table_refuses_rows_of_no_values(k):
    assert (2 * k < KERNEL_CELLS) == (k == 1)
    with pytest.raises(ValueError, match=rf"at least one value, got shape \({k}, 0\)$"):
        Candidates(np.zeros(k, int), np.zeros((k, 0)), np.zeros(k))


@pytest.mark.parametrize("rows", [5, KERNEL_CELLS // 3 + 1], ids=["5", "kernel"])  # 3 cells a row
def test_census_csv_bytes(rows):
    rng = np.random.default_rng(rows)
    d = np.concatenate([[-2.5, -0.0, 1e-310, 0.3, 1.0], rng.standard_normal(rows - 5)])
    v = [None, -7.25, None, -0.5] + [None if g < 0 else -g for g in rng.standard_normal(rows - 5)]
    census = CensusData(d=d, v=v, n=2)
    expected = "index,d,log_gap\n" + "".join(
        f"{i},{format_float(x)},{'' if g is None else format_float(g)}\n"
        for i, (x, g) in enumerate(zip(d.tolist(), census.v + [None]))
    )
    assert census_csv(census) == expected
    with pytest.raises(ValueError, match="value nan$"):
        census_csv(CensusData(d=np.array([np.nan, 1.0]), v=[None], n=2))
    # no gaps, and gaps that are all zero (None)
    assert census_csv(CensusData(d=np.array([]), v=[], n=2)) == "index,d,log_gap\n"
    assert census_csv(CensusData(d=np.array([0.5]), v=[], n=2)) == "index,d,log_gap\n0,0.5,\n"
    all_zero = CensusData(d=np.array([1.0, 1.0, 1.0]), v=[None, None], n=2)
    assert census_csv(all_zero) == "index,d,log_gap\n0,1,\n1,1,\n2,1,\n"
    # an infinite log gap is refused, and named, as a non-finite d is; a nan one is blank
    for bad, name in [(math.inf, "inf"), (-math.inf, "-inf")]:
        census = CensusData(d=np.array([0.25, 0.5, 1.0]), v=[-1.5, bad], n=2)
        with pytest.raises(ValueError, match=f"non-finite value {name}$"):
            census_csv(census)
    census = CensusData(d=np.array([0.25, 0.5, 1.0]), v=np.array([-1.5, math.nan]), n=2)
    assert census_csv(census) == "index,d,log_gap\n0,0.25,-1.5\n1,0.5,\n2,1,\n"
    with pytest.raises(ValueError, match="value inf$"):
        census_csv(CensusData(d=np.array([0.25, 0.5, 1.0]), v=[None, math.inf], n=2))


@pytest.mark.parametrize("load, data, message", [
    (load_matrix2d, {"rows": [[1.0]]}, "matrix: missing field 'n'"),
    (load_autocorr2d, {"n": 1}, "lag grid: missing field 'values'"),
    (load_autocorr2d, {"n": 2.0, "values": [[0.0] * 3] * 3},
     "lag grid: field 'n' must be an integer"),
    (load_autocorr2d, {"n": True, "values": [[1.0]]}, "lag grid: field 'n' must be an integer"),
    (load_autocorr1d, {"m": "2", "values": [1.0, 2.0, 1.0]},
     "lag sequence: field 'm' must be an integer"),
    (load_autocorr1d, {"m": 2, "values": [1.0, 2.0, 1.0, 0.0]},
     "lag sequence: expected 3 values, got 4"),
    (load_autocorr1d, {"m": 2, "values": [1.0, 2.0, 1.5]},
     "lag sequence: asymmetry 5.000e-01 exceeds"),
    (load_autocorr1d, {"m": 0, "values": []}, "lag sequence: m must be positive, got 0"),
    (load_autocorr1d, {"m": -1, "values": [1.0, 2.0, 1.0]},
     "lag sequence: m must be positive, got -1"),
    (load_matrix2d, {"n": 2, "rows": {"a": 1}}, "matrix: field 'rows' must be a list"),
    (load_autocorr2d, {"n": 2, "values": {"a": 1}}, "lag grid: field 'values' must be a list"),
    (load_autocorr1d, {"m": 2, "values": {"a": 1}}, "lag sequence: field 'values' must be a list"),
    (load_autocorr1d, {"m": 2, "values": [1, {"a": 2}, 1]},
     "lag sequence: field 'values': float() argument must be"),
    (load_matrix2d, {"n": 1, "rows": [[{"a": 1}]]}, "matrix: field 'rows': float() argument"),
    (load_autocorr1d, {"m": 2, "values": ["1", "2.5", "1"]},
     "lag sequence: field 'values' must hold numbers only"),
    (load_autocorr1d, {"m": 2, "values": [True, 2.5, True]},
     "lag sequence: field 'values' must hold numbers only"),
    (load_autocorr1d, {"m": 2, "values": [1, None, 1]},
     "lag sequence: field 'values' must hold numbers only"),
    (load_matrix2d, {"n": 2, "rows": [[1.0, 2.0], [3.0, "4"]]},
     "matrix: field 'rows' must hold numbers only"),
    (load_autocorr2d, {"n": 1, "values": [[False]]}, "lag grid: field 'values' must hold numbers"),
    (load_autocorr2d, {"n": 2, "values": [[1, 2, 3], [4, 30], [3, 2, 1]]},
     "lag grid: field 'values' is not a rectangular list of numbers"),
    (load_matrix2d, {"n": 2, "rows": [[1.0, 2.0], 3.0]},
     "matrix: field 'rows' is not a rectangular list of numbers"),
    (load_autocorr1d, {"m": 2, "values": [1.0, [2.5], 1.0]},
     "lag sequence: field 'values' is not a rectangular list of numbers"),
    (load_autocorr1d, {"m": 2, "values": [[1.0, 2.5, 1.0]]},
     "lag sequence: field 'values' must be a flat list of numbers"),
    (load_autocorr1d, {"m": 2, "values": [[1.0]] * 3},
     "lag sequence: field 'values' must be a flat list of numbers"),
    (load_autocorr2d, {"n": 1, "values": [[10 ** 400]]},
     "lag grid: field 'values' holds an integer beyond the float range"),
], ids=["missing-n", "missing-values", "float-n", "bool-n", "string-m", "wrong-length",
        "asymmetric", "zero-m", "negative-m", "object-rows", "object-values", "object-lags",
        "object-lag", "object-entry", "string-lags", "bool-lags", "null-lag", "string-entry",
        "bool-entry", "ragged-grid", "ragged-matrix", "list-among-lags", "nested-lags",
        "nested-lag-rows", "huge-integer"])
def test_loaders_refuse_malformed_input(load, data, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        load(data)


# Values next to the template's decisions: signed zeros, subnormals, the float
# range's ends, and the 1e16 and 1e17 edges of "%.17g"'s exponent notation.
SMALL_EDGES = [-0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, 1e16, -1e16, 1e17, -1e17, 9999999999999998.0,
               10000000000000002.0, 99999999999999984.0, 100000000000000020.0]


@given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.sampled_from(SMALL_EDGES)),
                min_size=1, max_size=KERNEL_CELLS - 1))
def test_short_float_lists_are_written_from_python_floats(values):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(jsonio, "require_finite", lambda a: pytest.fail("an array was checked"))
        with kernel_spy() as calls:
            assert dumps(values) == "[" + ", ".join(map(format_float, values)) + "]"
    assert not calls


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=KERNEL_CELLS - 4),
       st.lists(st.tuples(st.integers(0, KERNEL_CELLS), st.sampled_from([np.inf, -np.inf, np.nan])),
                min_size=1, max_size=3))
def test_short_float_lists_name_their_first_nonfinite_value(values, bad):
    for k, v in bad:
        values.insert(k % (len(values) + 1), v)
    with pytest.raises(ValueError) as info:
        format_float(next(v for v in values if not math.isfinite(v)))
    with pytest.raises(ValueError) as listed:
        dumps(values)
    assert str(listed.value) == str(info.value)


@pytest.mark.parametrize("rows", [1, 2, 3])
@pytest.mark.parametrize("m", [9, 5], ids=["f-value", "f-null"])
def test_short_candidate_tables_give_the_kernels_text(monkeypatch, rows, m):
    values = random_finite(rows * m, seed=rows)[:rows * m].reshape(rows, m) * 1e-160
    values[0, :3] = [-0.0, 5e-324, 1e16]
    flips = [2**60, 2**53 + 1, 6][:rows]  # masks beyond 2^53 are written as floats
    table = Candidates(flips, values, np.abs(random_finite(rows, seed=7)[:rows]))
    assert (table.f_values is None) == (m == 5)
    assert rows * (m + 2 + (m == 9)) < KERNEL_CELLS
    with kernel_spy() as calls:
        text = dumps(table)
    assert not calls
    monkeypatch.setattr(jsonio, "KERNEL_CELLS", 0)
    with kernel_spy() as calls:
        assert dumps(table) == text
    assert calls
    assert '"flips": 1.152921504606847e+18, ' in text


def numpys_asymmetry(values) -> float:
    """The largest mirror gap as numpy gives it, inf or nan where it overflows."""
    a = np.array(values, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.abs(a - a[::-1]).max())


def asymmetric_sequences():
    rng = np.random.default_rng(25)
    seeded = []
    for m in (2, 5, 16):
        half = rng.standard_normal(m)
        values = np.concatenate([half[:0:-1], half]) + 1e-3 * rng.standard_normal(2 * m - 1)
        seeded.append(values.tolist())
    return seeded + [[1.0, 2.5, 1.5], [1e308, 1.0, -1e308], [-1.7e308, 0.0, 1.7e308],
                     [np.inf, 1.0, np.inf], [np.nan, 2.5, 1.0], [1.0, np.nan, 1.0], [np.nan],
                     [np.inf], [1.0, 2.0, np.nan, 2.0, 1.0]]


@pytest.mark.parametrize("values", asymmetric_sequences())
def test_lag_sequence_asymmetry_is_numpys_largest_mirror_gap(values):
    data = {"m": (len(values) + 1) // 2, "values": values}
    message = f"lag sequence: asymmetry {numpys_asymmetry(values):.3e} exceeds tolerance"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_autocorr1d(data)


@pytest.mark.parametrize("values", [[4.0, 10.0, 4.0], [1e308, 1.7e308, 1e308 * (1 + 1e-12)],
                                    [-0.0, 3.0, 0.0], [1, 5, 2, 5, 1]])
def test_lag_sequence_lags_are_the_halved_mirror_sums(values):
    m = (len(values) + 1) // 2
    a = np.array(values, dtype=float)
    half = a[m - 1:] / 2 + a[m - 1::-1] / 2
    r = load_autocorr1d({"m": m, "values": values})
    assert r.nonneg.tobytes() == half.tobytes()
    assert r.values.tobytes() == np.concatenate([half[:0:-1], half]).tobytes()


# --- one walk per document, against the reference writer ----------------------------

NONFINITE = [math.inf, -math.inf, math.nan]
# text with "%" in every place the template could misread it, and JSON escapes
TEXT = st.lists(st.sampled_from(["%", "%%", "%s", "%.17g", "%(", "a", " ", '"', "\\", "\u00e9",
                                 "\n"]), max_size=4).map("".join)
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def planted(values: np.ndarray, bad) -> np.ndarray:
    """values with bad, if not None, as (position, value) put in place."""
    if bad is not None:
        values.flat[bad[0] % values.size] = bad[1]
    return values


def float_list(seed, size, bad=None) -> list:
    return planted(np.random.default_rng(seed).standard_normal(size), bad).tolist()


def candidate_table(seed, rows, m, bad=None, column=0) -> Candidates:
    """rows of m values; bad goes into the values (column 0) or the residuals (1)."""
    rng = np.random.default_rng(seed)
    parts = [rng.standard_normal((rows, m)), 1e-15 * rng.random(rows)]
    if rows:
        parts[column] = planted(parts[column], bad)
    return Candidates(np.arange(rows) << 1, *parts)


def cells_a_row(m):
    """values, mask and residual, and f_value when m is a square of n >= 2."""
    return m + 2 + (m in (4, 9))


def documents(bad=st.none()):
    """Nested documents of the types a report holds; `bad` draws what is planted
    in a float, a float list or a table: None, or (position, inf or nan)."""
    seeds = st.integers(0, 2**32 - 1)
    widths = st.sampled_from([4, 5, 9])
    leaves = st.one_of(
        FINITE, FINITE.map(np.float64), st.floats(width=32, allow_nan=False,
                                                  allow_infinity=False).map(np.float32),
        st.integers(-2**70, 2**70), st.integers(-2**63, 2**63 - 1).map(np.int64),
        st.booleans(), st.none(), TEXT,
        st.builds(lambda v, b: v if b is None else b[1], FINITE, bad),
        st.builds(lambda seed, size, b: float_list(seed, size, b),
                  seeds, st.integers(1, 12), bad),  # below KERNEL_CELLS
        st.builds(lambda seed, extra, b: float_list(seed, KERNEL_CELLS + extra, b),
                  seeds, st.integers(0, 3), bad),  # at and just above it
        st.builds(candidate_table, seeds, st.integers(0, 3), widths, bad,
                  st.integers(0, 1)),  # below KERNEL_CELLS
        widths.flatmap(lambda m: st.builds(
            candidate_table, seeds, st.integers(0, 2).map(
                lambda extra: -(-KERNEL_CELLS // cells_a_row(m)) + extra),
            st.just(m), bad, st.integers(0, 1))),  # at and above it
    )
    return st.recursive(leaves, lambda kids: st.one_of(
        st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(TEXT, kids, max_size=4)), max_leaves=10)


def written(write, doc):
    """write(doc), or the text of the ValueError it raises."""
    try:
        return write(doc)
    except ValueError as err:
        return f"ValueError: {err}"


class FloatList(list):
    pass


class Row(tuple):
    pass


class Text(str):
    pass


# subclasses of dict, list, tuple and str take the walk's isinstance branches
@example({"subclass": collections.OrderedDict([("%b", 1.5), ("a", [2.0, None, "%"])])})
@example({"subclass": FloatList(float_list(0, 7))})  # below KERNEL_CELLS
@example({"subclass": FloatList(float_list(1, KERNEL_CELLS))})  # at it
@example({"subclass": Row((1.5, "x%", 2, [0.25]))})
@example({"subclass": Text("50% of %s")})
@given(documents())
def test_one_walk_gives_the_reference_writers_bytes(doc):
    assert dumps(doc) == reference_dumps(doc)
    assert "".join(jsonio.dump_pieces(doc)) == dumps(doc)


def both_columns(seed, bad):
    """A two-row table with bad as the last value of row 1, and another
    non-finite value as the residual of row 0, which comes first in the text."""
    table = candidate_table(seed, 2, 5)
    values, residuals = table.values.copy(), table.autocorr_residuals.copy()
    values[1, -1] = bad
    residuals[0] = math.nan if math.isinf(bad) else math.inf
    return Candidates(table.flips, values, residuals)


@given(documents(st.none() | st.tuples(st.integers(0, 10**6), st.sampled_from(NONFINITE))),
       st.tuples(st.integers(0, 10**6), st.sampled_from(NONFINITE)),
       st.sampled_from(["float", "list", "long list", "values", "residuals", "both"]),
       st.integers(0, 2**32 - 1),
       documents(st.none() | st.tuples(st.integers(0, 10**6), st.sampled_from(NONFINITE))))
def test_one_walk_names_the_first_nonfinite_value(before, bad, where, seed, after):
    """A planted inf or nan, after a document that may hold some and before one
    that may hold more, raises format_float's ValueError for the first of them
    in document order, a table's values before its residuals and f_values."""
    planted_value = {
        "float": lambda: bad[1],
        "list": lambda: float_list(seed, 7, bad),
        "long list": lambda: float_list(seed, KERNEL_CELLS, bad),
        "values": lambda: candidate_table(seed, 40, 9, bad, 0),
        "residuals": lambda: candidate_table(seed, 2, 5, bad, 1),
        "both": lambda: both_columns(seed, bad[1]),
    }[where]()
    doc = {"before": before, "%planted": planted_value, "after": after}
    want = written(reference_dumps, doc)
    assert want.startswith("ValueError: cannot serialize non-finite value ")
    assert written(dumps, doc) == want
