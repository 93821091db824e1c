"""Command-line pipeline for batch experiments and figure data.

Exit codes: 0 on success, 1 on domain errors (no match, degenerate zeros,
residual failures), 2 on I/O or configuration problems. Error payloads are
single-line JSON objects on standard error; standard output carries data only
when the output path is ``-``.
"""

from __future__ import annotations

import argparse
import functools
import json
import shutil
import sys
from dataclasses import fields

import numpy as np

from . import jsonio
from .core import Autocorr1D, Signal1D, autocorr_1d, autocorr_2d
from .errors import AutophaseError
from .oracle import exhaustive_integer_search, planted_roundtrip
from .polyfactor import _constraint_products
from .reduction import reduce_2d_to_1d
from .solver import (
    SolverOptions,
    _candidate_arrays,
    ambiguity_census,
    asymptotic_probe,
    solve_2d,
)

# command: (help line, settings it cannot run without)
_COMMANDS = {
    "autocorr": ("autocorrelation grid of a matrix", ("input",)),
    "reduce": ("1D autocorrelation extracted from a lag grid", ("input",)),
    "solve": ("recover a matrix from its lag grid", ("input",)),
    "enumerate": ("all candidate signals of a 1D autocorrelation", ("input",)),
    "census": ("sorted constraint products, of --input or a --seed draw", ("n",)),
    "probe": ("asymptotic gap between neighboring candidates", ("n", "alpha")),
    "oracle": ("exhaustive integer search over a lag grid", ("input", "bound")),
    "roundtrip": ("seeded random solve trials with scoring", ("n", "seed", "trials")),
}

# setting: (type, help); the tolerance flags come from SolverOptions
_SETTINGS = {
    "input": (str, "input JSON path"),
    "output": (str, "output path, - for stdout (default)"),
    "n": (int, "matrix side"),
    "seed": (int, "RNG seed"),
    "alpha": (float, "probe zero magnitude"),
    "bound": (int, "entry bound for exhaustive search"),
    "trials": (int, "number of roundtrip trials"),
}


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argument parser whose failures are machine-parseable."""

    def error(self, message):
        _emit_error("ConfigError", message)
        raise SystemExit(2)


def _emit_error(name: str, detail: str) -> None:
    sys.stderr.write(json.dumps({"error": name, "detail": detail}) + "\n")


def _build_parser() -> argparse.ArgumentParser:
    epilog = "commands:\n" + "".join(
        f"  {name:<10} {help_text} (needs --{', --'.join(needs)})\n"
        for name, (help_text, needs) in _COMMANDS.items()
    )
    # argparse builds a formatter per add_argument, and by default each one asks
    # for the terminal size: ask once, with argparse's rule (columns - 2).
    width = shutil.get_terminal_size().columns - 2
    parser = _Parser(
        prog="autophase2d",
        description=__doc__,
        epilog=epilog,
        formatter_class=functools.partial(argparse.RawDescriptionHelpFormatter, width=width),
    )
    parser.add_argument(
        "command", choices=_COMMANDS, metavar="command", help="one of the commands below"
    )
    parser.add_argument("--config", help="JSON file with defaults for any flag")
    for key, (kind, help_text) in _SETTINGS.items():
        parser.add_argument(f"--{key}", type=kind, help=help_text)
    for f in fields(SolverOptions):
        parser.add_argument(
            "--" + f.name.replace("_", "-"), type=float, dest=f.name,
            help=f"positive tolerance (default {f.default:g})",
        )
    return parser


def _typed(key: str, value, kind):
    """A flag or config-file value as `kind`; None stays None (unset)."""
    if value is None or kind is str and isinstance(value, str):
        return value
    if kind is str:
        raise ConfigError(f"{key} must be a string, got {value!r}")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    if kind is int:
        if isinstance(value, float) and not value.is_integer():
            raise ConfigError(f"{key} must be an integer, got {value!r}")
        return int(value)
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{key} is out of range, got {value!r}") from None


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    """The command, each _SETTINGS key and `options` (a SolverOptions), each
    resolved as flag, then config file, then default."""
    file_values: dict = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_values = json.load(fh)
        except OSError as err:
            raise ConfigError(f"cannot read config file: {err}") from err
        except json.JSONDecodeError as err:
            raise ConfigError(f"config file is not valid JSON: {err}") from err
        if not isinstance(file_values, dict):
            raise ConfigError("config file must hold a JSON object")

    def pick(key, kind):
        flag = getattr(args, key)
        return _typed(key, file_values.get(key) if flag is None else flag, kind)

    settings = {key: pick(key, kind) for key, (kind, _) in _SETTINGS.items()}
    if settings["output"] is None:
        settings["output"] = "-"
    tolerances = {}
    for f in fields(SolverOptions):
        value = pick(f.name, float)
        value = f.default if value is None else value
        if not value > 0:
            raise ConfigError(f"{f.name} must be positive, got {value}")
        tolerances[f.name] = value
    cfg = argparse.Namespace(command=args.command, options=SolverOptions(**tolerances), **settings)
    _validate(cfg)
    return cfg


def _validate(cfg: argparse.Namespace) -> None:
    missing = [key for key in _COMMANDS[cfg.command][1] if getattr(cfg, key) in (None, "")]
    if missing:
        raise ConfigError(f"{cfg.command} requires --{', --'.join(missing)}")
    if cfg.command in ("census", "roundtrip") and cfg.n < 2:
        raise ConfigError(f"{cfg.command} needs n >= 2, got {cfg.n}")
    if cfg.command == "census" and cfg.input is None and cfg.seed is None:
        raise ConfigError("census requires --seed when no --input is given")
    if cfg.command == "roundtrip" and cfg.trials < 0:
        raise ConfigError(f"trials must be nonnegative, got {cfg.trials}")
    if not cfg.output:
        raise ConfigError("output path must be nonempty")


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return data


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _enumerate_text(r: Autocorr1D, opts: SolverOptions) -> str:
    """The JSON of enumerate_candidates(r, opts), written straight from the candidate arrays.

    Each candidate is one "%" template over its row of values, its flip mask,
    its residual and its constraint product (null unless m is a square n*n).
    """
    masks, vals, residuals = _candidate_arrays(r, opts)
    f = _constraint_products(vals)
    tail = [residuals] if f is None else [residuals, f]
    for a in [vals, *tail]:
        jsonio.require_finite(a)
    row = ('{"values": ' + jsonio.row_template(r.m) + ', "flips": %d, '
           '"autocorr_residual": ' + jsonio.FLOAT + ', "f_value": '
           + ("null" if f is None else jsonio.FLOAT) + "}")
    rows = zip(vals.tolist(), masks.tolist(), *(a.tolist() for a in tail))
    body = ", ".join(row % (*v, *rest) for v, *rest in rows)
    return f'{{"m": {r.m}, "candidates_total": {masks.size}, "candidates": [{body}]}}\n'


def _dispatch(cfg: argparse.Namespace) -> str:
    opts = cfg.options
    if cfg.command == "autocorr":
        X = jsonio.load_matrix2d(_read_json(cfg.input))
        return jsonio.dumps(autocorr_2d(X).to_dict()) + "\n"
    if cfg.command == "reduce":
        R = jsonio.load_autocorr2d(_read_json(cfg.input))
        return jsonio.dumps(reduce_2d_to_1d(R).to_dict()) + "\n"
    if cfg.command == "solve":
        R = jsonio.load_autocorr2d(_read_json(cfg.input))
        return jsonio.dumps(solve_2d(R, opts).to_dict()) + "\n"
    if cfg.command == "enumerate":
        return _enumerate_text(jsonio.load_autocorr1d(_read_json(cfg.input)), opts)
    if cfg.command == "census":
        if cfg.input is not None:
            r = jsonio.load_autocorr1d(_read_json(cfg.input))
        else:
            rng = np.random.default_rng(cfg.seed)
            r = autocorr_1d(Signal1D(rng.standard_normal(cfg.n * cfg.n)))
        census = ambiguity_census(r, cfg.n, opts, seed=cfg.seed)
        full_real = 1 << (cfg.n * cfg.n - 2)
        if len(census.d) != full_real:
            sys.stderr.write(
                f"note: {len(census.d)} candidate classes; an all-real zero set "
                f"would give {full_real}\n"
            )
        return jsonio.census_csv(census)
    if cfg.command == "probe":
        result = asymptotic_probe(cfg.n, cfg.alpha)
        payload = {"n": cfg.n, "alpha": float(cfg.alpha)}
        payload.update(result.to_dict())
        return jsonio.dumps(payload) + "\n"
    if cfg.command == "oracle":
        R = jsonio.load_autocorr2d(_read_json(cfg.input))
        return jsonio.dumps(exhaustive_integer_search(R, cfg.bound).to_dict()) + "\n"
    if cfg.command == "roundtrip":
        record = planted_roundtrip(cfg.n, cfg.trials, cfg.seed, opts)
        return jsonio.dumps(record) + "\n"
    raise ConfigError(f"unknown command {cfg.command!r}")


def run(config: argparse.Namespace) -> int:
    """Execute one command; exceptions are folded into the exit-code contract."""
    try:
        text = _dispatch(config)
        _write_text(config.output, text)
    except AutophaseError as err:
        _emit_error(type(err).__name__, str(err))
        return 1
    except ConfigError as err:
        _emit_error("ConfigError", str(err))
        return 2
    except (OSError, ValueError, json.JSONDecodeError) as err:
        _emit_error("InputError", str(err))
        return 2
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    try:
        cfg = _merge_config(args)
    except ConfigError as err:
        _emit_error("ConfigError", str(err))
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
