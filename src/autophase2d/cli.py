"""Command-line pipeline for batch experiments and figure data.

Exit codes: 0 on success, 1 on domain errors (no match, degenerate zeros,
residual failures), 2 on I/O or configuration problems. Error payloads are
single-line JSON objects on standard error; standard output carries data only
when the output path is ``-``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import jsonio
from .core import Signal1D, autocorr_1d, autocorr_2d
from .errors import AutophaseError
from .oracle import exhaustive_integer_search, planted_roundtrip
from .solver import (
    SolverOptions,
    ambiguity_census,
    asymptotic_probe,
    enumerate_candidates,
    solve_2d,
)

_COMMANDS = ("autocorr", "reduce", "solve", "enumerate", "census", "probe", "oracle", "roundtrip")
_NEEDS_INPUT = {"autocorr", "reduce", "solve", "enumerate", "oracle"}

_TOL_FIELDS = ("tol_root", "tol_pair", "tol_resid", "tol_match")


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    command: str
    input: str | None
    output: str
    n: int | None
    seed: int | None
    alpha: float | None
    bound: int | None
    trials: int | None
    tol_root: float
    tol_pair: float
    tol_resid: float
    tol_match: float

    def solver_options(self) -> SolverOptions:
        return SolverOptions(
            tol_root=self.tol_root,
            tol_pair=self.tol_pair,
            tol_resid=self.tol_resid,
            tol_match=self.tol_match,
        )


class _Parser(argparse.ArgumentParser):
    """Argument parser whose failures are machine-parseable."""

    def error(self, message):
        _emit_error("ConfigError", message)
        raise SystemExit(2)


def _emit_error(name: str, detail: str) -> None:
    sys.stderr.write(json.dumps({"error": name, "detail": detail}) + "\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="autophase2d", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("autocorr", "autocorrelation grid of a matrix"),
        ("reduce", "1D autocorrelation extracted from a lag grid"),
        ("solve", "recover a matrix from its lag grid"),
        ("enumerate", "all candidate signals of a 1D autocorrelation"),
        ("census", "sorted constraint products of every candidate"),
        ("probe", "asymptotic gap between neighboring candidates"),
        ("oracle", "exhaustive integer search over a lag grid"),
        ("roundtrip", "seeded random solve trials with scoring"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON file with defaults for any flag")
        p.add_argument("--input", help="input JSON path")
        p.add_argument("--output", help="output path, - for stdout (default)")
        p.add_argument("--n", type=int, help="matrix side")
        p.add_argument("--seed", type=int, help="RNG seed")
        p.add_argument("--alpha", type=float, help="probe zero magnitude")
        p.add_argument("--bound", type=int, help="entry bound for exhaustive search")
        p.add_argument("--trials", type=int, help="number of roundtrip trials")
        p.add_argument("--tol-root", type=float, dest="tol_root")
        p.add_argument("--tol-pair", type=float, dest="tol_pair")
        p.add_argument("--tol-resid", type=float, dest="tol_resid")
        p.add_argument("--tol-match", type=float, dest="tol_match")
    return parser


def _merge_config(args: argparse.Namespace) -> RunConfig:
    """Resolve each setting as flag, then config file, then default."""
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

    def pick(key, default=None):
        flag = getattr(args, key)
        if flag is not None:
            return flag
        return file_values.get(key, default)

    defaults = SolverOptions()
    tols = {}
    for key in _TOL_FIELDS:
        value = pick(key, getattr(defaults, key))
        try:
            value = float(value)
        except (TypeError, ValueError):
            raise ConfigError(f"{key} must be a number, got {value!r}") from None
        if not value > 0:
            raise ConfigError(f"{key} must be positive, got {value}")
        tols[key] = value

    def pick_int(key):
        value = pick(key)
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)) or value != int(value):
            raise ConfigError(f"{key} must be an integer, got {value!r}")
        return int(value)

    alpha = pick("alpha")
    if alpha is not None:
        try:
            alpha = float(alpha)
        except (TypeError, ValueError):
            raise ConfigError(f"alpha must be a number, got {alpha!r}") from None

    cfg = RunConfig(
        command=args.command,
        input=pick("input"),
        output=str(pick("output", "-")),
        n=pick_int("n"),
        seed=pick_int("seed"),
        alpha=alpha,
        bound=pick_int("bound"),
        trials=pick_int("trials"),
        **tols,
    )
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    if cfg.command in _NEEDS_INPUT and not cfg.input:
        raise ConfigError(f"{cfg.command} requires --input")
    if cfg.command == "census":
        if cfg.n is None:
            raise ConfigError("census requires --n")
        if cfg.n < 2:
            raise ConfigError(f"census needs n >= 2, got {cfg.n}")
        if cfg.input is None and cfg.seed is None:
            raise ConfigError("census requires --seed when no --input is given")
    if cfg.command == "probe":
        if cfg.n is None or cfg.alpha is None:
            raise ConfigError("probe requires --n and --alpha")
    if cfg.command == "oracle" and cfg.bound is None:
        raise ConfigError("oracle requires --bound")
    if cfg.command == "roundtrip":
        missing = [k for k in ("n", "seed", "trials") if getattr(cfg, k) is None]
        if missing:
            raise ConfigError(f"roundtrip requires --{', --'.join(missing)}")
        if cfg.trials < 0:
            raise ConfigError(f"trials must be nonnegative, got {cfg.trials}")
        if cfg.n < 2:
            raise ConfigError(f"roundtrip needs n >= 2, got {cfg.n}")
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


def _dispatch(cfg: RunConfig) -> str:
    opts = cfg.solver_options()
    if cfg.command == "autocorr":
        X = jsonio.load_matrix2d(_read_json(cfg.input))
        return jsonio.dumps(autocorr_2d(X).to_dict()) + "\n"
    if cfg.command == "reduce":
        from .reduction import reduce_2d_to_1d

        R = jsonio.load_autocorr2d(_read_json(cfg.input))
        return jsonio.dumps(reduce_2d_to_1d(R).to_dict()) + "\n"
    if cfg.command == "solve":
        R = jsonio.load_autocorr2d(_read_json(cfg.input))
        return jsonio.dumps(solve_2d(R, opts).to_dict()) + "\n"
    if cfg.command == "enumerate":
        r = jsonio.load_autocorr1d(_read_json(cfg.input))
        candidates = enumerate_candidates(r, opts)
        payload = {
            "m": r.m,
            "candidates_total": len(candidates),
            "candidates": [y.to_dict() for y in candidates],
        }
        return jsonio.dumps(payload) + "\n"
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


def run(config: RunConfig) -> int:
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
