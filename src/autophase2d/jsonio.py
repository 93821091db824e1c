"""Deterministic JSON and CSV encoding plus input loaders.

Floats are always written with 17 significant digits so identical runs
produce identical bytes and values round-trip exactly. Each table of floats
(a list of floats, a candidate table, a census) is checked for inf and nan
once, then written from its layout: column separators, a head and a tail.
_text fills a layout by one "%" over a template, or from KERNEL_CELLS floats
on by a vectorized kernel that gives the same bytes.
"""

from __future__ import annotations

import json
import math
from itertools import chain

import numpy as np

from .core import SYMMETRY_RTOL, Autocorr1D, Autocorr2D, Matrix2D
from .polyfactor import CHUNK_PRODUCTS, Candidates


FLOAT = "%.17g"  # the same bytes as format(x, ".17g") for every finite float
# Tables of at least this many floats are written by the kernel, smaller ones
# by one "%" over a template (tools/regime_timing.py --writer times both).
KERNEL_CELLS = 352


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    return format(x, ".17g")


def require_finite(a: np.ndarray) -> None:
    """Raise format_float's ValueError for the first inf or nan of `a` (C order)."""
    finite = np.isfinite(a)
    if not finite.all():
        format_float(float(a[~finite][0]))


def _require_finite_floats(values) -> None:
    """require_finite for an iterable of Python floats, without an array."""
    values = list(values)
    if not all(map(math.isfinite, values)):
        format_float(next(v for v in values if not math.isfinite(v)))


# A cell's text fills four little-endian uint64 words, NUL wherever a
# character is absent. Word 0 holds the sign, the prefix "0.000" and T[0:2];
# words 1 and 2 hold T[2:18]; word 3 holds "e+XX" in its low four bytes and,
# in its high four, what follows the cell or a mark for it (see _text). T is
# the 17 digits with the point inserted after one of them, cut after the last
# digit kept.
_SLOT_WORDS = 3  # the words that are the cell's alone
_EXP_BYTES = np.uint64(0xFFFF_FFFF)  # the part of word 3 that is the cell's
_E0 = 30  # tables are indexed by the decimal exponent plus _E0, for -30..17


def _split(x):
    """Veltkamp split: x = hi + lo, each half with at most 26 significant bits."""
    c = 134217729.0 * x
    hi = c - (c - x)
    return hi, x - hi


# 10^p = _POW_HI[p] + _POW_LO[p] exactly for p = 0..45, since 5^45 < 2^106.
_POW_HI = np.array([float(10**p) for p in range(46)])
_POW_LO = np.array([float(10**p - int(h)) for p, h in enumerate(_POW_HI)])
_POW_HI_HI, _POW_HI_LO = _split(_POW_HI)


def _words(rows: list[bytes], k: int = 0) -> np.ndarray:
    """Byte strings as the rows of a little-endian uint64 array, NUL-padded to
    k words, or to as few as the longest needs."""
    k = k or max(1, -(-max(map(len, rows)) // 8))
    return np.array(rows, dtype=f"S{8 * k}").view("<u8").reshape(len(rows), k)


def _tables():
    """The kernel's lookup tables; see _format_into. Each is built from the
    100 2-digit numbers, without a temporary larger than itself."""
    exps = range(-_E0, 18)
    heads = [(b"-" if neg else b"\0") + (b"0." + b"0" * (-e - 1) if -4 <= e < 0 else b"")
             for neg in (0, 1) for e in exps]
    tails = [b"" if -4 <= e <= 16 else b"e%+03d" % e for e in exps]
    two = np.arange(100)
    twos = (two // 10 + ord("0")) | (two % 10 + ord("0")) << 8  # the characters of each
    chars = (twos[:, None] | twos << 16).ravel().astype("<u8")  # those of each 4-digit quad
    # the place of the last nonzero digit in a pair and in a quad, -99 if none
    in_pair = np.where(two % 10 != 0, 1, np.where(two != 0, 0, -99)).astype(np.int8)
    in_quad = np.where(in_pair >= 0, in_pair + 2, in_pair[:, None]).ravel()
    lasts = np.maximum(0, in_quad + np.arange(2, 18, 4, dtype=np.int8)[:, None])  # in T
    # By exponent and last nonzero digit: the bytes of words 0..2 kept in place,
    # those kept from the text moved on by one, and the point. The point
    # follows digit `point`, 99 when there is none.
    e = np.arange(-_E0, 18)[:, None]
    last = np.arange(17)
    point = np.where((e >= -4) & (e <= 16), np.where(e >= 0, e, 99), 0)
    keep = np.where(point == 99, last, np.maximum(last, point))
    point = np.where(point < keep, point, 99)[..., None]
    end = (keep + 1 + (point[..., 0] < 99))[..., None]  # T's length
    q = np.array([-1] * 6 + list(range(18)))  # T's place of each byte of words 0..2
    masks = [((0 <= q) & (q <= point) & (q < end)).astype(np.uint8) * 255,
             ((point + 1 < q) & (q < end)).astype(np.uint8) * 255,
             (q == point + 1).astype(np.uint8) * ord(".")]
    return (_words(heads)[:, 0], _words(tails)[:, 0], chars, (twos << 48).astype("<u8"),
            np.maximum(in_pair, 0), lasts,
            *(np.ascontiguousarray(m.view("<u8").reshape(-1, _SLOT_WORDS).T) for m in masks))


_HEADS, _TAILS, _CHARS, _PAIRS, _PAIR_LASTS, _LASTS, _KEPT, _MOVED, _DOTS = _tables()


def _scaled(a, p):
    """a * 10^p as hi + lo: Dekker's exact product of a and _POW_HI[p], plus
    a * _POW_LO[p]; lo is within 3e-15 of the exact remainder for hi < 2e17."""
    hi = _POW_HI.take(p)
    hi *= a
    ah = a * 134217729.0  # the Veltkamp split of a, as in _split
    al = ah - a
    ah -= al
    np.subtract(a, ah, out=al)
    b = _POW_HI_HI.take(p)
    lo = ah * b
    lo -= hi
    b *= al
    lo += b
    _POW_HI_LO.take(p, out=b)
    ah *= b
    lo += ah
    al *= b
    lo += al
    _POW_LO.take(p, out=b)
    b *= a
    lo += b
    return hi, lo


def _format_into(out: np.ndarray, x: np.ndarray) -> None:
    """Write format(v, ".17g") of each finite v of x into its row of the
    (len(x), _SLOT_WORDS + 1) uint64 array out, NUL-padded; the high half of
    word 3 is left as it is.

    N = round(|v| 10^(16-E)) is the 17-digit significand, with E the decimal
    exponent. Zeros, |v| outside [1e-29, 1e17) (10^(16-E) not exact in two
    doubles) and fractions within 1e-9 of a tie take format() itself.

    Operations work in place where they can: each fresh page of a temporary
    costs a fault, and the pages of the largest set alive at once count
    towards the process's peak memory."""
    a = np.abs(x)
    ok = (a >= 1e-29) & (a < 1e17)
    np.copyto(a, 1.0, where=~ok)
    p = np.log10(a)
    p = np.floor(p, out=p).astype(np.int64)
    np.maximum(np.minimum(np.subtract(16, p, out=p), 45, out=p), 0, out=p)
    hi, lo = _scaled(a, p)
    # log10 may miss the exponent by one next to a power of ten
    shift = (((hi < 1e16) | ((hi == 1e16) & (lo < 0))).astype(np.int64)
             - ((hi > 1e17) | ((hi == 1e17) & (lo >= 0))))
    if shift.any():
        p += shift
        ok &= (p >= 0) & (p <= 45)
        np.maximum(np.minimum(p, 45, out=p), 0, out=p)
        hi, lo = _scaled(a, p)
    whole = np.floor(lo)
    lo -= whole  # the fraction
    ok &= np.abs(lo - 0.5) >= 1e-9
    whole += lo > 0.5
    n = hi.astype(np.int64)
    n += whole.astype(np.int64)
    del a, hi, lo, whole
    e = np.subtract(_E0 + 16, p, out=p)  # the exponent plus _E0
    carry = n == 10**17
    if carry.any():
        n[carry] = 10**16
        e += carry
    np.putmask(n, ~ok, 10**16)
    # T's digits: 0-1 (pair), 2-9, and 10-16 with a 0 after them
    mid = n // 10**7
    n -= mid * 10**7
    n *= 10
    pair = mid // 10**8
    mid -= pair * 10**8
    last = _PAIR_LASTS.take(pair)  # the place of the last nonzero digit
    words = [_PAIRS.take(pair)]
    eights = [mid, n]
    del pair, mid, n
    for k in (0, 1):  # eight digits: two 4-digit quads
        rest = eights.pop(0)
        quad = rest // 10**4
        rest -= quad * 10**4
        np.maximum(last, _LASTS[2 * k].take(quad), out=last)
        np.maximum(last, _LASTS[2 * k + 1].take(rest), out=last)
        word = _CHARS.take(rest)
        del rest
        word <<= 32
        word |= _CHARS.take(quad)
        words.append(word)
    del quad, word
    combo = e * 17
    combo += last
    for k in (2, 1):  # a point moves the rest of T one byte on
        moved = words[k] << 8
        moved |= words[k - 1] >> 56
        moved &= _MOVED[k].take(combo)
        words[k] &= _KEPT[k].take(combo)
        words[k] |= moved
        np.bitwise_or(words[k], _DOTS[k].take(combo), out=out[:, k])
    del moved
    words[0] &= _KEPT[0].take(combo)
    words[0] |= _DOTS[0].take(combo)
    out[:, 3] |= _TAILS.take(e)
    e += len(_TAILS) * (x < 0)
    np.bitwise_or(words[0], _HEADS.take(e), out=out[:, 0])
    rest = np.flatnonzero(~ok)
    if rest.size:
        out[rest, :_SLOT_WORDS] = _words([format(v, ".17g").encode() for v in x[rest].tolist()],
                                        _SLOT_WORDS)
        out[rest, _SLOT_WORDS] &= ~_EXP_BYTES


def _text(cells: np.ndarray | list | tuple, seps: list[str], head: str, last: str,
          blank: np.ndarray | None = None) -> str:
    """head, then the text of each float of the table `cells` followed by its
    column's separator from `seps`; the final separator is replaced by `last`,
    and a cell that `blank` marks is written as nothing. `cells` is a 2-d
    array or, below KERNEL_CELLS cells, the table's Python numbers as one flat
    sequence in row order.

    Below KERNEL_CELLS cells one "%" fills a template of the layout, from
    Python numbers ("%.17g" of an int is that of the int as a float). From
    KERNEL_CELLS on, each cell takes _SLOT_WORDS + 1 words of one buffer per
    chunk of at most CHUNK_PRODUCTS cells (whole rows); head goes before the
    first. A separator of at most four bytes fills the high half of the
    cell's word 3; a longer one, or a longer last, leaves there a mark, a
    control byte (1, 2, ...) that no text of a layout holds. translate drops
    every NUL, then replace puts each separator in place of its mark."""
    if not isinstance(cells, np.ndarray) or cells.size < KERNEL_CELLS:
        if isinstance(cells, np.ndarray):
            cells = cells.ravel().tolist()
        pieces = [FLOAT + sep for sep in seps] * (len(cells) // len(seps))
        for k in [] if blank is None else np.flatnonzero(blank).tolist():
            pieces[k] = "%.0s" + seps[k % len(seps)]  # takes the cell's value, writes nothing
        text = head + "".join(pieces)
        return (text[:len(text) - len(seps[-1])] + last) % tuple(cells)
    # word 3 of each column's cells, then of the final cell: four NUL bytes,
    # the exponent's, then the separator or its mark
    ends, marks = [], {}
    for sep in map(str.encode, seps + [last]):
        if len(sep) > 4:
            sep = marks.setdefault(sep, bytes([len(marks) + 1]))
        ends.append(b"\0" * 4 + sep)
    ends = _words(ends)[:, 0]
    step = max(1, CHUNK_PRODUCTS // len(seps))
    text = ""
    for start in range(0, len(cells), step):
        chunk = cells[start:start + step]
        lead = b"" if start else head.encode()
        skip = -(-len(lead) // 8) * 8  # whole words
        data = bytearray(skip + 8 * (_SLOT_WORDS + 1) * chunk.size)
        data[:len(lead)] = lead
        flat = np.frombuffer(data, "<u8", offset=skip).reshape(-1, _SLOT_WORDS + 1)
        flat.reshape(chunk.shape + (_SLOT_WORDS + 1,))[..., _SLOT_WORDS] = ends[:-1]
        if start + step >= len(cells):
            flat[-1, _SLOT_WORDS] = ends[-1]
        _format_into(flat, chunk.ravel())
        if blank is not None:
            rows = blank[start:start + step].ravel()
            flat[rows, :_SLOT_WORDS] = 0
            flat[rows, _SLOT_WORDS] &= ~_EXP_BYTES
        del flat  # a view of data
        part = data.translate(None, b"\0")
        del data
        for sep, mark in marks.items():
            part = part.replace(mark, sep)
        # CPython grows a str that only this name holds in place, so no chunk's
        # text is kept apart and no join copies them all
        text += part.decode("ascii")
        del part
    return text


def _candidates(table: Candidates) -> str:
    """JSON array of one candidate object per row. Masks pass through floats:
    exact below 2^53 (the solver's are below 2^28), where "%.17g" writes them
    as %d does. A table of fewer than KERNEL_CELLS cells goes to _text as the
    Python numbers of its rows, without an array of its own."""
    f = table.f_values
    tail = [table.autocorr_residuals] if f is None else [table.autocorr_residuals, f]
    end = ', "f_value": null}' if f is None else "}"
    seps = ([", "] * (table.values.shape[1] - 1) + ['], "flips": ', ', "autocorr_residual": ']
            + ([] if f is None else [', "f_value": ']) + [end + ', {"values": ['])
    if len(table) * len(seps) < KERNEL_CELLS or not len(table):  # an empty table is "[]"
        rows, *columns = (a.tolist() for a in [table.values, *tail])
        for floats in [chain.from_iterable(rows), *columns]:
            _require_finite_floats(floats)
        if not rows:
            return "[]"
        cells = [v for row, *rest in zip(rows, table.flips.tolist(), *columns)
                 for v in (*row, *rest)]
    else:
        for a in [table.values, *tail]:
            require_finite(a)
        cells = np.column_stack([table.values, table.flips, *tail])
    return _text(cells, seps, '[{"values": [', end + "]")


def dumps(obj) -> str:
    """Single-line JSON with deterministic float formatting."""
    # the types of a report first; no two tests below take the same object,
    # since a bool is taken as True or False before the ints
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, dict):
        if not all(isinstance(k, str) for k in obj):
            raise TypeError("JSON object keys must be strings")
        parts = [s for k, v in obj.items() for s in (", ", json.dumps(k), ": ", dumps(v))]
        return "".join(["{", *parts[1:], "}"])  # one copy of a large value's text
    if isinstance(obj, (list, tuple)) and obj and all(type(v) is float for v in obj):
        if len(obj) < KERNEL_CELLS:  # a float table of one column, from its Python floats
            _require_finite_floats(obj)
            return _text(obj, [", "], "[", "]")
        a = np.array(obj)[:, None]
        require_finite(a)
        return _text(a, [", "], "[", "]")
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(dumps(v) for v in obj) + "]"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, Candidates):
        return _candidates(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def census_csv(census) -> str:
    """CSV with columns index, d, log_gap; a nan log gap, and the last row's, is left empty."""
    d = np.asarray(census.d, dtype=float)
    require_finite(d)
    if not d.size:
        return "index,d,log_gap\n"
    cells = np.empty((d.size, 3))
    cells[:, 0] = np.arange(d.size)
    cells[:, 1] = d
    g = cells[:, 2]
    g[:-1] = census.v  # a None gap becomes nan
    g[-1] = math.nan
    blank = np.zeros(cells.shape, dtype=bool)
    blank[:, 2] = np.isnan(g)
    g[blank[:, 2]] = 0.0
    require_finite(g)
    return _text(cells, [",", ",", "\n"], "index,d,log_gap\n", "\n", blank)


def _strays(value: list) -> bool:
    """Whether nested lists hold a null, a string or a boolean, which numpy reads as numbers."""
    for v in value:
        if type(v) is float or type(v) is int:  # nearly every entry
            continue
        if _strays(v) if isinstance(v, list) else v is None or isinstance(v, (str, bool)):
            return True
    return False


def _require(mapping: dict, key: str, kind, context: str):
    """The field `key`; an integer for kind int, a float array for kind list."""
    if key not in mapping:
        raise ValueError(f"{context}: missing field {key!r}")
    value = mapping[key]
    if kind is int and (not isinstance(value, int) or isinstance(value, bool)):
        raise ValueError(f"{context}: field {key!r} must be an integer")
    if kind is list:
        if not isinstance(value, list):
            raise ValueError(f"{context}: field {key!r} must be a list")
        if _strays(value):
            raise ValueError(f"{context}: field {key!r} must hold numbers only")
        try:
            return np.asarray(value, dtype=float)
        except TypeError as err:  # an entry that is an object
            raise ValueError(f"{context}: field {key!r}: {err}") from err
        except ValueError:  # lists of unequal lengths, or a list beside a number
            raise ValueError(f"{context}: field {key!r} is not a rectangular list of numbers"
                             ) from None
        except OverflowError:  # an integer beyond the float range
            raise ValueError(f"{context}: field {key!r} holds an integer beyond the float range"
                             ) from None
    return value


def load_matrix2d(data: dict) -> Matrix2D:
    n = _require(data, "n", int, "matrix")
    return Matrix2D(n, _require(data, "rows", list, "matrix"))


def load_autocorr2d(data: dict) -> Autocorr2D:
    n = _require(data, "n", int, "lag grid")
    return Autocorr2D(n, _require(data, "values", list, "lag grid"))


def load_autocorr1d(data: dict) -> Autocorr1D:
    m = _require(data, "m", int, "lag sequence")
    if m < 1:
        raise ValueError(f"lag sequence: m must be positive, got {m}")
    values = _require(data, "values", list, "lag sequence")
    if values.ndim != 1:
        raise ValueError("lag sequence: field 'values' must be a flat list of numbers")
    if values.size != 2 * m - 1:
        raise ValueError(f"lag sequence: expected {2 * m - 1} values, got {values.size}")
    values = values.tolist()  # Python floats, whose arithmetic is numpy's to the bit
    # each mirrored pair once; a difference that overflows is inf, and one of
    # infinite lags inf or nan, as numpy's would be; a nan gap makes the
    # largest nan as numpy's max does, where Python's max would keep or drop it
    gaps = [abs(a - b) for a, b in zip(values[:m], reversed(values))]
    asym = math.nan if any(map(math.isnan, gaps)) else max(gaps)
    if not asym <= SYMMETRY_RTOL * max(map(abs, values)):  # a nan asymmetry fails too
        raise ValueError(f"lag sequence: asymmetry {asym:.3e} exceeds tolerance")
    return Autocorr1D.from_nonneg([a / 2 + b / 2
                                   for a, b in zip(values[m - 1:], values[m - 1::-1])])
