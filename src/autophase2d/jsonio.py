"""Deterministic JSON and CSV encoding plus input loaders.

Floats are always written with 17 significant digits so identical runs
produce identical bytes and values round-trip exactly. Arrays of floats are
written row by row: one "%.17g" template per innermost row, after a single
finiteness check of the whole array.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .core import SYMMETRY_RTOL, Autocorr1D, Autocorr2D, Matrix2D, _asymmetry
from .polyfactor import Candidates


FLOAT = "%.17g"  # the same bytes as format(x, ".17g") for every finite float


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    return format(x, ".17g")


def require_finite(a: np.ndarray) -> None:
    """Raise format_float's ValueError for the first inf or nan of `a` (C order)."""
    finite = np.isfinite(a)
    if not finite.all():
        format_float(float(a[~finite][0]))


def row_template(k: int) -> str:
    """Template of a JSON array of k floats."""
    return "[" + ", ".join([FLOAT] * k) + "]"


def _float_array(values) -> str:
    """JSON nested array of a float ndarray or a list of floats, one template per row."""
    a = np.asarray(values, dtype=float)
    require_finite(a)
    row = row_template(a.shape[-1])

    def nest(rows, depth):
        if depth == 1:
            return row % tuple(rows)
        return "[" + ", ".join(nest(r, depth - 1) for r in rows) + "]"

    return nest(a.tolist(), a.ndim)


def _candidates(table: Candidates) -> str:
    """JSON array of one candidate object per row, filled by one "%" from one flat
    tuple. Masks pass through floats: exact below 2^53 (the solver's are below 2^28)."""
    f = table.f_values
    tail = [table.autocorr_residuals] if f is None else [table.autocorr_residuals, f]
    for a in [table.values, *tail]:
        require_finite(a)
    row = ('{"values": ' + row_template(table.values.shape[1]) + ', "flips": %d, '
           '"autocorr_residual": ' + FLOAT + ', "f_value": '
           + ("null" if f is None else FLOAT) + "}")
    cells = np.column_stack([table.values, table.flips, *tail])
    return "[" + ", ".join([row] * len(table)) % tuple(cells.ravel().tolist()) + "]"


def dumps(obj) -> str:
    """Single-line JSON with deterministic float formatting."""
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
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, Candidates):
        return _candidates(obj)
    if isinstance(obj, dict):
        if not all(isinstance(k, str) for k in obj):
            raise TypeError("JSON object keys must be strings")
        return "{" + ", ".join(f"{json.dumps(k)}: {dumps(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, np.ndarray) and obj.dtype.kind == "f" and obj.ndim > 0:
        return _float_array(obj)
    if isinstance(obj, (list, tuple)) and all(type(v) is float for v in obj):
        return _float_array(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(dumps(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def census_csv(census) -> str:
    """CSV with columns index, d, log_gap; an undefined log gap is left empty.

    One "%" fills the whole table: one template per row, from one flat tuple.
    """
    d = np.asarray(census.d, dtype=float)
    require_finite(d)
    gaps = list(census.v[: d.size]) + [None] * (d.size - len(census.v))
    defined = [g is not None for g in gaps]
    g = np.array([0.0 if gap is None else gap for gap in gaps], dtype=float)
    require_finite(g)
    table = np.column_stack([np.arange(d.size), d, g])
    keep = np.ones(table.shape, dtype=bool)
    keep[:, 2] = defined
    rows = [f"%d,{FLOAT},{FLOAT}" if k else f"%d,{FLOAT}," for k in defined]
    return "\n".join(["index,d,log_gap", *rows]) % tuple(table[keep].tolist()) + "\n"


def _require(mapping: dict, key: str, kind, context: str):
    if key not in mapping:
        raise ValueError(f"{context}: missing field {key!r}")
    value = mapping[key]
    if kind is int and (not isinstance(value, int) or isinstance(value, bool)):
        raise ValueError(f"{context}: field {key!r} must be an integer")
    return value


def load_matrix2d(data: dict) -> Matrix2D:
    n = _require(data, "n", int, "matrix")
    rows = _require(data, "rows", list, "matrix")
    return Matrix2D(n, np.asarray(rows, dtype=float))


def load_autocorr2d(data: dict) -> Autocorr2D:
    n = _require(data, "n", int, "lag grid")
    values = _require(data, "values", list, "lag grid")
    return Autocorr2D(n, np.asarray(values, dtype=float))


def load_autocorr1d(data: dict) -> Autocorr1D:
    m = _require(data, "m", int, "lag sequence")
    if m < 1:
        raise ValueError(f"lag sequence: m must be positive, got {m}")
    values = np.asarray(_require(data, "values", list, "lag sequence"), dtype=float)
    if values.shape != (2 * m - 1,):
        raise ValueError(f"lag sequence: expected {2 * m - 1} values, got {values.size}")
    asym = _asymmetry(values)
    if not asym <= SYMMETRY_RTOL * np.abs(values).max():  # a nan asymmetry fails too
        raise ValueError(f"lag sequence: asymmetry {asym:.3e} exceeds tolerance")
    return Autocorr1D.from_nonneg(values[m - 1:] / 2 + values[m - 1::-1] / 2)
