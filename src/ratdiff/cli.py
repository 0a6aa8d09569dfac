"""Command-line front end.

    ratdiff <command> --alpha A --beta B [--seed Z-1,Z0] [--steps N]
            [--config FILE] [--out PATH] [--format csv|json|svg]
            [--rng-seed K]

Commands: orbit, equilibria, stability, trichotomy, period, lyapunov,
scan, grid, identities.  A config file supplies the same keys as the
flags (flat `key = value` lines); explicit flags win.  Exit codes:
0 success, 2 usage error, 3 numeric failure (singular or escaped orbit
where the command needs a completed one) or a failed write of the output.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
import time
from collections import Counter
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .core import (STATUS_COMPLETED, ComplexRect, GuardTripped, IterationSettings,
                   Orbit, OrbitSeed, Parameters, iterate)
from .serialize import FORMATS, FormatError, ResultEnvelope, RunSpec, emit, parse_complex
# runners import analysis, invariants, scan and stability, so start-up loads only what runs

__all__ = ["UsageError", "parse_args", "execute", "main"]


class UsageError(Exception):
    """Bad flag combination; maps to exit code 2."""


def _complex_flag(text: str) -> complex:
    try:
        z = parse_complex(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise argparse.ArgumentTypeError(f"complex literal must be finite, got {text!r}")
    return z


def _int_at_least(lowest: int):
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < lowest:
            raise argparse.ArgumentTypeError(f"must be an integer >= {lowest}, got {text!r}")
        return value
    return convert


_positive_int, _nonnegative_int = _int_at_least(1), _int_at_least(0)


def _seed_flag(text: str) -> tuple[complex, complex]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"seed must be two comma-separated complex literals, got {text!r}"
        )
    return (_complex_flag(parts[0]), _complex_flag(parts[1]))


def _rect_flag(text: str) -> ComplexRect:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            f"rectangle must be re_min,re_max,im_min,im_max, got {text!r}"
        )
    try:
        return ComplexRect(*(float(p) for p in parts))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _resolution_flag(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"resolution must be NXxNY, got {text!r}"
        )
    try:
        nx, ny = int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"resolution must be NXxNY, got {text!r}")
    if nx < 1 or ny < 1:
        raise argparse.ArgumentTypeError("resolution must be at least 1x1")
    return nx, ny


# every flag a command line or a config file can set: the RunSpec field it
# fills (resolution's splits into nx and ny), its converter and, for a
# closed set of values, the choices
_FLAGS = {
    "alpha": ("alpha", _complex_flag, None),
    "beta": ("beta", _complex_flag, None),
    "seed": ("seeds", _seed_flag, None),
    "steps": ("steps", _positive_int, None),
    "transient": ("n_transient", _nonnegative_int, None),
    "sample": ("n_sample", _positive_int, None),
    "branch": ("branch", str, ("minus", "plus")),
    "alpha-rect": ("alpha_rect", _rect_flag, None),
    "beta-rect": ("beta_rect", _rect_flag, None),
    "budget": ("budget", _positive_int, None),
    "vary": ("vary", str, ("seed", "alpha", "beta")),
    "rect": ("rect", _rect_flag, None),
    "resolution": ("resolution", _resolution_flag, None),
    "out": ("out", str, None),
    "format": ("format", str, FORMATS),
    "rng-seed": ("rng_seed", _nonnegative_int, None),
}
_SHARED_FLAGS = ("alpha", "beta", "out", "format", "rng-seed")
_VALUE_FLAGS = {*_FLAGS, "config"}  # every flag takes a value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratdiff",
        description="simulate and analyze the guarded rational recurrence "
                    "z[n+1] = (a + a*z[n] + b*z[n-1]) / (1 + z[n])",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (desc, own, *_) in _COMMANDS.items():
        p = sub.add_parser(command, help=desc)
        p.add_argument("--config", default=None, help="flat key=value file")
        for name in (*_SHARED_FLAGS, *own):
            field, convert, choices = _FLAGS[name]
            repeat = ({"action": "append", "help": "z[-1],z[0] pair; repeatable"}
                      if name == "seed" else {})
            # usage names a value after its flag, not after its field
            p.add_argument(f"--{name}", dest=field, type=convert, choices=choices, default=None,
                           metavar=None if choices else name.upper().replace("-", "_"), **repeat)
    return parser


def _read_config(path: str) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"--config {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise UsageError(f"--config {path}: not UTF-8 at byte {exc.start}") from None
    values: dict[str, str] = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _apply_config(values: dict, config: dict[str, str]) -> None:
    """Fill each unset flag's field in values, the parsed command line, from config."""
    for key, raw in config.items():
        if key not in _FLAGS:
            raise UsageError(f"config key {key!r} is not a known flag")
        field, convert, choices = _FLAGS[key]
        if field not in values or values[field] is not None:
            continue  # flag not applicable to this command, or explicitly set
        try:
            value = convert(raw)
        except (argparse.ArgumentTypeError, ValueError) as exc:
            raise UsageError(f"config key {key!r}: {exc}") from None
        if choices is not None and value not in choices:
            raise UsageError(f"config key {key!r}: {value!r} is not one of {choices}")
        values[field] = [value] if key == "seed" else value


def _attach_values(argv: list[str]) -> list[str]:
    """argv with each flag's value word that starts with '-' attached as --flag=value.

    argparse takes such a word for a flag unless it is a plain negative
    number, so -0.5+1i, -0.1,0.2 or -1,1,-1,1 after a flag would leave the
    flag without its value.  A word that starts with '--' stays a flag.
    """
    words: list[str] = []
    for word in argv:
        if (words and words[-1][2:] in _VALUE_FLAGS and words[-1].startswith("--")
                and word.startswith("-") and not word.startswith("--")):
            words[-1] = f"{words[-1]}={word}"
        else:
            words.append(word)
    return words


def parse_args(argv: list[str]) -> RunSpec:
    """Build a RunSpec from argv; config-file values fill unset flags."""
    values = vars(_build_parser().parse_args(_attach_values(argv)))
    config = values.pop("config")
    if config is not None:
        _apply_config(values, _read_config(config))
    command = _COMMANDS[values["command"]]
    values = {**command.defaults, **{k: v for k, v in values.items() if v is not None}}
    if "resolution" in values:
        values["nx"], values["ny"] = values.pop("resolution")
    if "seeds" in values:
        values["seeds"] = tuple(values["seeds"])
    elif command.draws:  # a run that draws at random echoes the rng seed it draws from
        values.setdefault("rng_seed", 0)
    spec = RunSpec(**values)
    _check_limits(spec)
    return spec


# the resource rule: the most points a command holds and the most cells of
# a grid (README, "Limits").  At the point limit an orbit export peaks at
# 75 MB RSS in every format, to stdout as to --out; a grid takes about
# 4 KB a cell whatever --steps is.
_MAX_POINTS = 1_000_000
_MAX_CELLS = 512 * 512


def _check_limits(spec: RunSpec) -> None:
    """UsageError where spec asks for more points or grid cells than the limits."""
    command = spec.command
    if command == "grid" and spec.nx * spec.ny > _MAX_CELLS:
        raise UsageError(f"grid: --resolution {spec.nx}x{spec.ny} is {spec.nx * spec.ny} cells, "
                         f"above the limit of {_MAX_CELLS} (512x512)")
    if command == "lyapunov":
        what = "--transient + --sample"
        points = sum(_lyapunov_budget(spec))
    elif command in ("orbit", "period", "identities"):
        # period and identities iterate the first seed only
        orbits = len(spec.seeds) if command == "orbit" and spec.seeds else 1
        what = f"--steps {spec.steps} x {orbits} seed(s)"
        points = spec.steps * orbits
    else:
        return
    if points > _MAX_POINTS:
        raise UsageError(f"{command}: {what} is {points} points, "
                         f"above the limit of {_MAX_POINTS}")


def _lyapunov_budget(spec: RunSpec) -> tuple[int, int]:
    """(--transient, --sample), each AnalysisSettings' default where unset."""
    from .analysis import AnalysisSettings
    return (AnalysisSettings.lyapunov_transient if spec.n_transient is None else spec.n_transient,
            AnalysisSettings.lyapunov_sample if spec.n_sample is None else spec.n_sample)


def _seed_list(spec: RunSpec) -> list[OrbitSeed]:
    if spec.seeds:
        return [OrbitSeed(a, b) for a, b in spec.seeds]
    rng = np.random.default_rng(spec.rng_seed or 0)
    vals = rng.uniform(-1, 1, 4)
    return [OrbitSeed(complex(vals[0], vals[1]), complex(vals[2], vals[3]))]


def _orbit_dict(orbit: Orbit) -> dict:
    return {
        "seed": (orbit.seed.z_minus1, orbit.seed.z_0),
        "status": orbit.status,
        "stop_step": orbit.stop_step,
        "points": orbit.points,
    }


def _run_orbit(spec: RunSpec) -> dict:
    params = Parameters(spec.alpha, spec.beta)
    settings = IterationSettings(max_steps=spec.steps)
    orbits = [iterate(params, seed, settings) for seed in _seed_list(spec)]
    return {"orbits": [_orbit_dict(o) for o in orbits]}


def _run_equilibria(spec: RunSpec) -> dict:
    from .stability import equilibria, equilibrium_residual
    params = Parameters(spec.alpha, spec.beta)
    entries = []
    for eq in equilibria(params):
        try:
            residual = equilibrium_residual(params, eq.z_bar)
        except GuardTripped:
            residual = None
        entries.append({
            "z": eq.z_bar,
            "branch": eq.branch,
            "coincident": eq.coincident,
            "residual": residual,
        })
    return {"equilibria": entries}


def _run_stability(spec: RunSpec) -> dict:
    from .stability import classify, equilibria, linearization
    params = Parameters(spec.alpha, spec.beta)
    reports = [{"branch": eq.branch, "z": eq.z_bar,
                **vars(linearization(params, eq)), **vars(classify(params, eq))}
               for eq in equilibria(params)]
    return {"reports": reports}


def _run_trichotomy(spec: RunSpec) -> dict:
    from .invariants import trichotomy
    return vars(trichotomy(Parameters(spec.alpha, spec.beta)))


def _run_period(spec: RunSpec) -> dict:
    from .analysis import detect_cycle
    params = Parameters(spec.alpha, spec.beta)
    seed = _seed_list(spec)[0]
    orbit = iterate(params, seed, IterationSettings(max_steps=spec.steps))
    if orbit.status != STATUS_COMPLETED:
        raise orbit.guard_error(suffix="; period detection needs a completed orbit")
    report = detect_cycle(orbit)
    payload = {"status": orbit.status, "period": None}
    if report is not None:
        payload.update({
            "period": report.period,
            "cycle": report.cycle_points,
            "onset": report.onset,
            "residual": report.residual,
        })
    return payload


def _run_lyapunov(spec: RunSpec) -> dict:
    from .analysis import lyapunov_max
    params = Parameters(spec.alpha, spec.beta)
    seed = _seed_list(spec)[0]
    estimate = lyapunov_max(params, seed, *_lyapunov_budget(spec))
    return {"seed": (seed.z_minus1, seed.z_0), **vars(estimate)}


def _run_scan(spec: RunSpec) -> dict:
    from .scan import scan_margin
    report = scan_margin(
        spec.branch, spec.alpha_rect, spec.beta_rect, spec.budget,
        rng_seed=spec.rng_seed or 0,
    )
    return {"branch": spec.branch, **vars(report)}


def _run_grid(spec: RunSpec) -> dict:
    from .scan import GridSpec, classification_grid
    params = Parameters(spec.alpha, spec.beta)
    seed = None
    if spec.vary in ("alpha", "beta"):
        if not spec.seeds:
            raise UsageError("grid: --seed is required when varying a parameter")
        seed = OrbitSeed(*spec.seeds[0])
    try:
        grid_spec = GridSpec(
            vary=spec.vary, region=spec.rect, nx=spec.nx, ny=spec.ny,
            params=params, seed=seed,
        )
    except ValueError as exc:
        raise UsageError(f"grid: --rect/--resolution: {exc}") from None
    grid = classification_grid(grid_spec, IterationSettings(max_steps=spec.steps))
    counts = dict(Counter(verdict for row in grid.cells for verdict in row))
    return {
        "vary": spec.vary,
        "region": [spec.rect.re_min, spec.rect.re_max, spec.rect.im_min, spec.rect.im_max],
        "nx": spec.nx,
        "ny": spec.ny,
        "cells": [list(row) for row in grid.cells],
        "counts": counts,
    }


def _run_identities(spec: RunSpec) -> dict:
    from .invariants import HypothesisError, check_identities
    params = Parameters(spec.alpha, spec.alpha + 1 if spec.beta is None else spec.beta)
    seed = _seed_list(spec)[0]
    orbit = iterate(params, seed, IterationSettings(max_steps=spec.steps))
    try:
        report = check_identities(params, orbit)
    except HypothesisError as exc:
        raise UsageError(f"--beta: {exc}") from None
    except ValueError:  # a singular orbit, or a seed that escaped: no iterate to check
        raise orbit.guard_error() from None
    return {"status": orbit.status, **vars(report)}


class _Command(NamedTuple):
    help: str
    flags: tuple[str, ...]  # the command's own flags, after _SHARED_FLAGS
    run: Callable[[RunSpec], dict]  # the payload but its kind, which is the command's name
    defaults: dict = {}  # flag field -> value where the flag is unset
    draws: bool = False  # draws at random from --rng-seed, 0 if unset, where no --seed is given
    needs: tuple[str, ...] = ("alpha", "beta")  # the fields the command cannot run without


_COMMANDS = {
    "orbit": _Command("iterate the map and record the trajectory", ("seed", "steps"),
                      _run_orbit, {"steps": 1000}, draws=True),
    "equilibria": _Command("fixed points of the map", (), _run_equilibria),
    "stability": _Command("linearization, Clark margins, and root verdicts", (), _run_stability),
    "trichotomy": _Command("|beta| vs |alpha+1| outcome prediction", (), _run_trichotomy),
    "period": _Command("detect the minimal locked cycle", ("seed", "steps"), _run_period,
                       {"steps": 20_000}, draws=True),
    "lyapunov": _Command("largest Lyapunov exponent (tangent method)",
                         ("seed", "transient", "sample"), _run_lyapunov, draws=True),
    "scan": _Command("margin extrema over parameter rectangles",
                     ("branch", "alpha-rect", "beta-rect", "budget"), _run_scan, draws=True,
                     needs=("branch", "alpha_rect", "beta_rect", "budget")),
    "grid": _Command("classification grid over seeds or a parameter",
                     ("seed", "vary", "rect", "resolution", "steps"), _run_grid,
                     {"steps": 4000, "resolution": (32, 32)},
                     needs=("vary", "rect", "alpha", "beta")),
    "identities": _Command("orbit identity residuals for beta = alpha+1", ("seed", "steps"),
                           _run_identities, {"steps": 100}, draws=True, needs=("alpha",)),
}


def execute(spec: RunSpec) -> ResultEnvelope:
    """Run the spec; numeric failures land in the envelope's error field,
    a missing required flag raises UsageError."""
    command = _COMMANDS[spec.command]
    missing = [f"--{name.replace('_', '-')}" for name in command.needs
               if getattr(spec, name) is None]
    if missing:
        raise UsageError(f"{spec.command}: missing required flag(s) {', '.join(missing)}")
    start = time.perf_counter()
    payload: dict = {}
    error = None
    try:
        payload = {"kind": spec.command, **command.run(spec)}
    except GuardTripped as exc:
        error = {"type": type(exc).__name__, "message": str(exc)}
    return ResultEnvelope(
        runspec=spec,
        version=__version__,
        wall_time_s=time.perf_counter() - start,
        payload=payload,
        error=error,
    )


def _drop(stream) -> None:
    # the bytes a failed write left in stream are flushed again at exit,
    # which fails too and turns the exit code into 120; send them to os.devnull
    try:
        fd = stream.fileno()
    except (AttributeError, OSError, ValueError):  # redirect_stdout, capsys
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _exit_with(code: int, message: str) -> int:
    try:
        print(f"ratdiff: {message}", file=sys.stderr)
    except OSError:  # stderr has no reader: the exit code alone tells
        _drop(sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    if argv is None:  # the process entry: no later collection, nor exit, walks the imports
        gc.freeze()
        argv = sys.argv[1:]
    try:
        spec = parse_args(argv)
        envelope = execute(spec)
    except UsageError as exc:
        return _exit_with(2, str(exc))
    except SystemExit as exc:
        if exc.code != 2:  # --help and --version exit 0
            raise
        return 2  # argparse rejected the command line and printed why

    fmt = spec.format if envelope.error is None else "json"
    try:
        emit(envelope, fmt, spec.out)
    except FormatError as exc:
        return _exit_with(2, f"--format: {exc}")
    except OSError as exc:
        if spec.out is None:
            _drop(sys.stdout)
        return _exit_with(3, f"{'stdout' if spec.out is None else '--out'}: {exc}")
    return 0 if envelope.error is None else 3


if __name__ == "__main__":
    sys.exit(main())
