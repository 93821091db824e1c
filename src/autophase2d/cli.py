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
import os
import sys
from dataclasses import fields

import numpy as np

from . import jsonio
from .core import Signal1D, autocorr_1d, autocorr_2d
from .errors import AutophaseError
from .oracle import exhaustive_integer_search, planted_roundtrip
from .reduction import reduce_2d_to_1d
from .solver import (
    SolverOptions,
    ambiguity_census,
    asymptotic_probe,
    check_support_budget,
    enumerate_candidates,
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
# tolerance: (default, what it bounds), one per field of SolverOptions
_TOLERANCES = {f.name: (f.default, {
    "tol_root": "largest scaled residual of a polynomial root",
    "tol_pair": "width of the band around the unit circle in which a zero is refused",
    "tol_resid": "largest autocorrelation residual of a candidate, relative to max|r|",
}[f.name]) for f in fields(SolverOptions)}


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argument parser whose failures are machine-parseable."""

    def error(self, message):
        _emit_error("ConfigError", message)
        raise SystemExit(2)


def _emit_error(name: str, detail: str) -> None:
    sys.stderr.write(json.dumps({"error": name, "detail": detail}) + "\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    epilog = "commands:\n" + "".join(
        f"  {name:<10} {help_text} (needs --{', --'.join(needs)})\n"
        for name, (help_text, needs) in _COMMANDS.items()
    )
    parser = _Parser(
        prog="autophase2d",
        description=__doc__,
        epilog=epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "command", choices=_COMMANDS, metavar="command", help="one of the commands below"
    )
    parser.add_argument("--config", help="JSON file with defaults for any flag")
    for key, (kind, help_text) in _SETTINGS.items():
        parser.add_argument(f"--{key}", type=kind, help=help_text)
    for name, (default, bounds) in _TOLERANCES.items():
        parser.add_argument(
            "--" + name.replace("_", "-"), type=float, dest=name,
            help=f"{bounds}; positive and finite (default {default:g})",
        )
    return parser


# full flag: (dest, type) of every option _build_parser adds, in its order
_FLAGS = {
    "--config": ("config", str),
    **{f"--{key}": (key, kind) for key, (kind, _) in _SETTINGS.items()},
    **{"--" + name.replace("_", "-"): (name, float) for name in _TOLERANCES},
}


def _plain_args(argv) -> argparse.Namespace | None:
    """The Namespace parse_args gives `command --flag value ...`, every flag
    spelled in full and no value starting with '-'; None for any other line,
    which parse_args parses or reports."""
    if not argv or argv[0] not in _COMMANDS or len(argv) % 2 == 0:
        return None
    values = dict.fromkeys(dest for dest, _ in _FLAGS.values())
    for flag, value in zip(argv[1::2], argv[2::2]):
        if flag not in _FLAGS or value.startswith("-"):
            return None
        dest, kind = _FLAGS[flag]
        try:
            values[dest] = kind(value)
        except ValueError:
            return None
    return argparse.Namespace(command=argv[0], **values)


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
        known = {*_SETTINGS, *_TOLERANCES}
        unknown = [key for key in file_values if key not in known]
        if unknown:
            raise ConfigError(f"config file has unknown keys: {', '.join(map(repr, unknown))}")

    def pick(key, kind):
        flag = getattr(args, key)
        return _typed(key, file_values.get(key) if flag is None else flag, kind)

    settings = {key: pick(key, kind) for key, (kind, _) in _SETTINGS.items()}
    if settings["output"] is None:
        settings["output"] = "-"
    tolerances = {name: value for name in _TOLERANCES if (value := pick(name, float)) is not None}
    try:
        options = SolverOptions(**tolerances)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    cfg = argparse.Namespace(command=args.command, options=options, **settings)
    _validate(cfg)
    return cfg


def _validate(cfg: argparse.Namespace) -> None:
    missing = [key for key in _COMMANDS[cfg.command][1] if getattr(cfg, key) in (None, "")]
    if missing:
        raise ConfigError(f"{cfg.command} requires --{', --'.join(missing)}")
    if cfg.command in ("census", "probe", "roundtrip") and cfg.n < 2:
        raise ConfigError(f"{cfg.command} needs n >= 2, got {cfg.n}")
    if cfg.command == "census" and cfg.input is None and cfg.seed is None:
        raise ConfigError("census requires --seed when no --input is given")
    if cfg.command == "roundtrip" and cfg.trials < 0:
        raise ConfigError(f"trials must be nonnegative, got {cfg.trials}")
    seeded = cfg.command == "roundtrip" or cfg.command == "census" and cfg.input is None
    if seeded and cfg.seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {cfg.seed}")
    if cfg.command == "oracle" and cfg.bound < 0:
        raise ConfigError(f"bound must be nonnegative, got {cfg.bound}")
    if not cfg.output:
        raise ConfigError("output path must be nonempty")


def _read_json(path: str) -> dict:
    """The JSON object in the file, decoded as text mode would: UTF-8, with
    every CRLF and CR read as LF, which the positions of syntax errors count."""
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return data


def _write_text(path: str, *texts: str) -> None:
    """Write the texts one after another, without joining them."""
    if path == "-":
        sys.stdout.writelines(texts)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(texts)


def _dispatch(cfg: argparse.Namespace):
    """The command's JSON payload, or the census CSV text."""
    opts = cfg.options
    if cfg.command == "autocorr":
        X = jsonio.load_matrix2d(_read_json(cfg.input))
        return autocorr_2d(X).to_dict()
    if cfg.command == "reduce":
        R = jsonio.load_autocorr2d(_read_json(cfg.input))
        return reduce_2d_to_1d(R).to_dict()
    if cfg.command == "solve":
        R = jsonio.load_autocorr2d(_read_json(cfg.input))
        return solve_2d(R, opts).to_dict()
    if cfg.command == "enumerate":
        r = jsonio.load_autocorr1d(_read_json(cfg.input))
        table = enumerate_candidates(r, opts)
        return {"m": r.m, "candidates_total": len(table), "candidates": table}
    if cfg.command == "census":
        if cfg.input is not None:
            r = jsonio.load_autocorr1d(_read_json(cfg.input))
        else:
            check_support_budget(cfg.n * cfg.n)
            rng = np.random.default_rng(cfg.seed)
            r = autocorr_1d(Signal1D(rng.standard_normal(cfg.n * cfg.n)))
        census = ambiguity_census(r, cfg.n, opts)
        full_real = 1 << (cfg.n * cfg.n - 2)
        if len(census.d) != full_real:
            sys.stderr.write(
                f"note: {len(census.d)} candidate classes; an all-real zero set "
                f"would give {full_real}\n"
            )
        return jsonio.census_csv(census)
    if cfg.command == "probe":
        result = asymptotic_probe(cfg.n, cfg.alpha)
        return {"n": cfg.n, "alpha": float(cfg.alpha), **result.to_dict()}
    if cfg.command == "oracle":
        R = jsonio.load_autocorr2d(_read_json(cfg.input))
        return exhaustive_integer_search(R, cfg.bound).to_dict()
    if cfg.command == "roundtrip":
        return planted_roundtrip(cfg.n, cfg.trials, cfg.seed, opts)


def run(config: argparse.Namespace) -> int:
    """Execute one command; exceptions are folded into the exit-code contract."""
    try:
        payload = _dispatch(config)
        texts = (payload,) if isinstance(payload, str) else (*jsonio.dump_pieces(payload), "\n")
        _write_text(config.output, *texts)
    except AutophaseError as err:
        _emit_error(type(err).__name__, str(err))
        return 1
    except (OSError, ValueError) as err:  # json.JSONDecodeError is a ValueError
        _emit_error("InputError", str(err))
        return 2
    return 0


def _argv_strings(argv) -> list[str]:
    """argv with every os.PathLike element as its os.fspath; ConfigError for any
    element that is then not a string."""
    out = []
    for arg in argv:
        text = os.fspath(arg) if isinstance(arg, os.PathLike) else arg
        if not isinstance(text, str):
            raise ConfigError(f"command-line arguments must be strings or paths, got {arg!r}")
        out.append(text)
    return out


def main(argv=None) -> int:
    try:
        argv = _argv_strings(sys.argv[1:] if argv is None else argv)
    except ConfigError as err:
        _emit_error("ConfigError", str(err))
        return 2
    args = _plain_args(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
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
