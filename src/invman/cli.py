"""Command-line front end.

Subcommands:

* ``check``    -- invariance verdicts for a configured system
* ``reduce``   -- sample the reduced coefficient matrix and verify conjugacy
* ``flow``     -- trajectory drift on both sides, JSON/CSV residual curves
* ``generate`` -- write a ground-truth scenario config with known verdicts

Exit codes: 0 success / requested assertion holds; 1 assertion or
precondition fails; 2 configuration problems; 3 numerical failures.
With INVMAN_LOG=info or debug (any letter case), ``flow --csv`` prints
``INFO:invman:wrote <path>`` to stderr.  The module checks config form, 0 < n < m and the grid's
count, order and span, and does I/O; numerics, guards, other ranges and budgets live in the library.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, InputError, InvmanError, NumericalError, ParseError, PreconditionError, ShapeError
from .flow import DEFAULT_SEED, DEFAULT_STEP, DEFAULT_TRIALS, _FLOW_CURVES, _checked_conjugacy, _march_size
from .flow import _require_launches, run_flow
from .invariance import DEFAULT_GRID_COUNT, DEFAULT_GRID_SPAN, DEFAULT_VERDICT_TOL, _require_budget, _require_tolerance
from .invariance import SystemSpec, _VERDICTS, _sampled_verdicts, verdicts
# Unused here, but perfbench/test_perfbench.py checks that the tracer wraps this binding.
from .invariance import reduced_matrix  # noqa: F401
from .matexpr import MatrixFunction
from .scenario import Structure, random_scenario, to_config

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


@dataclass(frozen=True)
class RunOptions:
    tolerance: float
    h: float
    seed: int
    trials: int
    window: tuple[float, float]
    grid: dict


# The keys load_config reads, then the two to_config writes for the record: any other key is a misspelling.
_CONFIG_KEYS = "m n coeff chart comp_chart grid tolerance step seed trials window expected_verdicts metadata".split()


def _refuse_unknown(config: dict, known) -> None:
    if unknown := [key for key in config if key not in known]:
        raise ConfigError(f"unknown config key {unknown[0]!r}")


def _require(config: dict, key: str):
    if key not in config:
        raise ConfigError(f"missing required config key {key!r}")
    return config[key]


def _finite(value, what: str) -> float:
    """A finite JSON number: not a bool or a string, not NaN, Infinity or an int past float range."""
    if isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max:
        return float(value)
    raise ConfigError(f"{what} must be a finite number, got {value!r}")


def _integer(value, what: str) -> int:
    """A JSON integer; a float such as 1.7 is not truncated but refused."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ConfigError(f"{what} must be an integer, got {value!r}")


def _matrix_from_config(config: dict, key: str, shape: tuple[int, int]) -> MatrixFunction:
    raw = _require(config, key)
    if not isinstance(raw, list) or not all(isinstance(r, list) for r in raw):
        raise ConfigError(f"config key {key!r} must be a 2-D array of expression strings")
    for i, j in [(i, j) for i, row in enumerate(raw) for j, e in enumerate(row) if not isinstance(e, str)]:
        _finite(raw[i][j], f"config key {key!r}: entry ({i},{j})")
    try:
        mf = MatrixFunction.build(raw)
    except (ParseError, ShapeError) as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from exc
    if mf.shape != shape:
        raise ConfigError(f"config key {key!r} has shape {mf.shape}, expected {shape}")
    return mf


def load_config(path: str) -> tuple[SystemSpec, RunOptions]:
    """Parse and validate a JSON config into a system spec plus run options."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    try:
        config = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer literal past int's digit limit
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"config {path!r} must be a JSON object")
    _refuse_unknown(config, _CONFIG_KEYS)

    m = _integer(_require(config, "m"), "m")
    n = _integer(_require(config, "n"), "n")
    if not 0 < n < m:
        raise ConfigError(f"dimensions must be integers with 0 < n < m, got m={m!r}, n={n!r}")

    coeff = _matrix_from_config(config, "coeff", (m, m))
    chart = _matrix_from_config(config, "chart", (n, m))
    comp = None
    if config.get("comp_chart") is not None:
        comp = _matrix_from_config(config, "comp_chart", (m - n, m))

    default_grid = {"start": DEFAULT_GRID_SPAN[0], "end": DEFAULT_GRID_SPAN[1], "count": DEFAULT_GRID_COUNT}
    grid_cfg = config.get("grid", default_grid)
    if not (isinstance(grid_cfg, dict) and {"start", "end", "count"} <= grid_cfg.keys()):
        raise ConfigError("grid must provide numeric start/end/count")
    _refuse_unknown(grid_cfg, ("start", "end", "count"))
    start = _finite(grid_cfg["start"], "grid start")
    end = _finite(grid_cfg["end"], "grid end")
    count = _integer(grid_cfg["count"], "grid count")
    if count < 2 or end <= start:
        raise ConfigError("grid needs count >= 2 and end > start")
    if end - start == np.inf:  # np.linspace would warn, then give no increasing grid
        raise ConfigError(f"grid from {start!r} to {end!r} spans more than the float range")

    tolerance = _finite(config.get("tolerance", DEFAULT_VERDICT_TOL), "tolerance")
    h = _finite(config.get("step", DEFAULT_STEP), "step")
    seed = _integer(config.get("seed", DEFAULT_SEED), "seed")
    trials = _integer(config.get("trials", DEFAULT_TRIALS), "trials")
    window_cfg = config.get("window", [start, end])
    if not (isinstance(window_cfg, list) and len(window_cfg) == 2):
        raise ConfigError("window must be a [t0, t1] pair")
    window = (_finite(window_cfg[0], "window t0"), _finite(window_cfg[1], "window t1"))

    try:  # the library's own refusals and texts, each before anything is sampled
        _require_tolerance(tolerance)
        _require_launches(trials, seed)
        _march_size(window, h, m, trials)
        _require_budget("t_grid", count, "points", m * m)
        spec = SystemSpec(
            coeff=coeff,
            chart=chart,
            comp_chart=comp,
            t_grid=np.linspace(start, end, count),
        )
    except (ShapeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc

    options = RunOptions(
        tolerance=tolerance,
        h=h,
        seed=seed,
        trials=trials,
        window=window,
        grid={"start": start, "end": end, "count": count},
    )
    return spec, options


class _Reprs(list):
    """A list of numbers as their float reprs, rendered once: ``_json`` writes it as a list of those numbers."""


def _numbers(reprs: list, shape: tuple, indent: str) -> str:
    """``json.dumps`` text, under ``indent``, of a float array of ``shape`` whose item reprs in C order are
    ``reprs``: one join per innermost row, then per row of rows, from the shape alone."""
    for depth in reversed(range(len(shape))):
        inner, size = indent + "  " * (depth + 1), shape[depth]
        if not size:  # an empty axis: each of its rows is []
            reprs = ["[]"] * math.prod(shape[:depth])
            continue
        sep, close = ",\n" + inner, "\n" + inner[:-2] + "]"
        reprs = ["[\n" + inner + sep.join(reprs[i : i + size]) + close for i in range(0, len(reprs), size)]
    text = reprs[0]
    # NaN and the infinities are the only floats whose repr holds an "n"; json spells them NaN and Infinity.
    return text.replace("nan", "NaN").replace("inf", "Infinity") if "n" in text else text


def _json(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` of a JSON value whose keys are strings, byte for byte, for a
    value at the nesting ``indent``; a float ndarray is written as its nested lists, and a ``_Reprs`` as its
    numbers.  Under ``indent`` json encodes item by item in Python; this joins each list or array of floats, and
    each list of strings, in one pass."""
    inner = indent + "  "
    if isinstance(value, np.ndarray):
        return _numbers(list(map(float.__repr__, value.ravel().tolist())), value.shape, indent)
    if isinstance(value, _Reprs):
        return _numbers(value, (len(value),), indent)
    if isinstance(value, dict) and value:
        items = [f"{encode_basestring_ascii(key)}: {_json(value[key], inner)}" for key in sorted(value)]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if isinstance(value, (list, tuple)) and value:
        try:  # a list of floats or of strings is one join; float.__repr__ refuses any other type, bool and int too
            if type(value[0]) is float:
                return _numbers(list(map(float.__repr__, value)), (len(value),), indent)
            if type(value[0]) is str:
                return "[\n" + inner + (",\n" + inner).join(map(encode_basestring_ascii, value)) + "\n" + indent + "]"
        except TypeError:
            pass
        return "[\n" + inner + (",\n" + inner).join([_json(item, inner) for item in value]) + "\n" + indent + "]"
    return json.dumps(value)  # a scalar, {} or []: json's own spelling, NaN and Infinity included


def _emit_json(payload: dict, path: str | None):
    text = _json(payload) + "\n"
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_check(args) -> int:
    spec, opts = load_config(args.config)
    report = verdicts(spec, opts.tolerance)
    payload = {"schema": "invman.check/1", "grid": opts.grid, **report.to_dict()}

    lines = [
        f"grid: {opts.grid['count']} points on [{opts.grid['start']:g}, {opts.grid['end']:g}], "
        f"tolerance {opts.tolerance:g}",
        *(line.format(getattr(report, f"max_{curve}"), "PASS" if getattr(report, field) else "FAIL")
          for _, field, curve, line in _VERDICTS),
    ]
    print("\n".join(lines))
    if args.json:
        _emit_json(payload, args.json)

    if args.assertion:
        holds = {key: getattr(report, field) for key, field, _, _ in _VERDICTS}[args.assertion]
        return EXIT_OK if holds else EXIT_VERDICT
    return EXIT_OK


def cmd_reduce(args) -> int:
    spec, opts = load_config(args.config)
    report, frames, coeff = _sampled_verdicts(spec, opts.tolerance)
    conj = _checked_conjugacy(spec, report, opts.h, opts.window)
    reduced = frames.reduced(coeff)
    payload = {
        "schema": "invman.reduce/1",
        "grid": opts.grid,
        "tolerance": opts.tolerance,
        "t": spec.t_grid,
        "reduced": reduced,
        "conjugacy": {
            "window": [opts.window[0], opts.window[1]],
            "h": opts.h,
            "max_embedding_residual": conj.max_embedding_residual,
            "max_chart_residual": conj.max_chart_residual,
        },
        "verdicts": report.to_dict()["verdicts"],
    }
    _emit_json(payload, args.json)
    print(
        f"reduce: conjugacy residuals {conj.max_embedding_residual:.3e} / "
        f"{conj.max_chart_residual:.3e} on [{opts.window[0]:g}, {opts.window[1]:g}]",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_flow(args) -> int:
    spec, opts = load_config(args.config)
    result = run_flow(
        spec,
        h=opts.h,
        trials=opts.trials,
        seed=opts.seed,
        t_span=opts.window,
        tol=opts.tolerance,
    )
    # The JSON number lists and the CSV cells are the same float reprs, each rendered once.
    reprs = {key: _Reprs(column) for key, column in result._reprs.items() if column is not None}
    payload = {"schema": "invman.flow/1", **result.to_dict(), **reprs}
    _emit_json(payload, args.json)
    if args.csv:
        directory = Path(args.csv)
        directory.mkdir(parents=True, exist_ok=True)
        target = directory / "residuals.csv"
        rows = [("t", *_FLOW_CURVES), *result.csv_rows()]
        target.write_text("\r\n".join(map(",".join, rows)) + "\r\n", newline="")  # csv.writer's bytes
        if os.environ.get("INVMAN_LOG", "").lower() in ("debug", "info"):
            print(f"INFO:invman:wrote {target}", file=sys.stderr)
    return EXIT_OK


def cmd_generate(args) -> int:
    try:  # random_scenario refuses its arguments before it builds anything
        scenario = random_scenario(Structure(args.kind), m=args.m, n=args.n, seed=args.seed)
    except (ShapeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    config = to_config(scenario, metadata={"kind": args.kind, "generator_seed": args.seed})
    Path(args.out).write_text(_json(config) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invman",
        description="Decide, construct, and numerically validate invariant subspaces "
        "of linear time-varying ODE systems.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="invariance verdicts for a configured system")
    p_check.add_argument("--config", required=True)
    p_check.add_argument(
        "--assert",
        dest="assertion",
        choices=sorted(key for key, _, _, _ in _VERDICTS),
        default=None,
        help="exit 0 only if this verdict holds",
    )
    p_check.add_argument("--json", default=None, help="also write the JSON report here")
    p_check.set_defaults(handler=cmd_check)

    p_reduce = sub.add_parser("reduce", help="sample the reduced system and verify conjugacy")
    p_reduce.add_argument("--config", required=True)
    p_reduce.add_argument("--json", default=None, help="write the JSON report here instead of stdout")
    p_reduce.set_defaults(handler=cmd_reduce)

    p_flow = sub.add_parser("flow", help="drift and conjugacy residual curves")
    p_flow.add_argument("--config", required=True)
    p_flow.add_argument("--csv", default=None, help="directory for residuals.csv")
    p_flow.add_argument("--json", default=None, help="write the JSON report here instead of stdout")
    p_flow.set_defaults(handler=cmd_flow)

    p_gen = sub.add_parser("generate", help="write a ground-truth scenario config")
    p_gen.add_argument("--kind", required=True, choices=[s.value for s in Structure])
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--m", type=int, default=3)
    p_gen.add_argument("--n", type=int, default=2)
    p_gen.set_defaults(handler=cmd_generate)
    return parser


# The parser every main() call parses with, built on the first call: argparse's tree costs about 1 ms to build.
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.handler(args)
    except InputError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # configs are read in load_config, so this is a --json, --csv or --out write
        print(f"{args.command}: cannot write {exc.filename!r}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_VERDICT
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except InvmanError as exc:  # ShapeError, or any other class of neither kind
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
