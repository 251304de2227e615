"""Scenario-driven command line: solve, map-initial, converge, list-scenarios.

Configs are single JSON documents with expression-valued data fields; the
schema is validated strictly (unknown keys and NaN or infinite numbers are
rejected, ``--tol`` standing in for numerics.tol) before any computation,
and so are output paths whose directory does not exist.
Outputs are CSV with 17-significant-digit floats (exact double round-trip)
plus a one-line JSON run report with per-row provenance tags.

Exit codes: 0 success, 2 config error (including a command the problem
kind does not support), 3 numerical failure, 4 refused boundary-to-initial
map.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from importlib import resources

import numpy as np

from . import continuous as cont
from .expr import ExprDomainError, ExprSyntaxError, parse
from .quad import DecayError, QuadratureError
from .continuous._common import ResidualWarning
from .semidiscrete import (LatticeSpec, continuum_limit_check, lattice_profile,
                           window_nodes)

EXIT_CONFIG = 2
EXIT_NUMERICS = 3
EXIT_REFUSED = 4

LATTICE_KINDS = ("sd-heat-dirichlet", "sd-heat-neumann")

_NUMERIC_ERRORS = (
    QuadratureError,
    ResidualWarning,
    DecayError,
    ExprDomainError,
    cont.DecayClassError,
    ArithmeticError,
    ValueError,
)


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# schema validation
# ---------------------------------------------------------------------------

_PROBLEM_KEYS = {"kind", "u0", "f0", "f1", "g0", "c", "L", "h", "u0_decay"}
_GRID_KEYS = {"x_min", "x_max", "n_points", "times", "n_min", "n_max"}
_NUMERICS_KEYS = {"tol"}
_REFERENCE_KEYS = {"name", "expr", "c"}
_OUTPUT_KEYS = {"csv", "json"}
_TOP_KEYS = {"description", "problem", "grid", "numerics", "reference",
             "outputs", "refinement"}
_REFINEMENT_KEYS = {"h_values"}
_DECAY_KEYS = {"type", "rate"}
# the keys whose values must be numbers, per section, and those of them
# that must be positive
_NUMBER_KEYS = {"problem": ("c", "L", "h"),
                "grid": ("x_min", "x_max", "n_points", "n_min", "n_max"),
                "numerics": ("tol",)}
_POSITIVE_KEYS = ("n_points", "tol")
# grid counts and lattice indices, which must be whole numbers
_WHOLE_KEYS = ("n_points", "n_min", "n_max")


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _reject_non_finite(value, where):
    """ConfigError naming a NaN or infinite number under ``value``."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{where} must be finite, not {value!r}")
    if isinstance(value, dict):
        for key, item in value.items():
            _reject_non_finite(item, f"{where}.{key}" if where else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _reject_non_finite(item, f"{where}[{i}]")


def _reject_unknown(block, allowed, where):
    if not isinstance(block, dict):
        raise ConfigError(f"config section {where!r} must be an object")
    for key in block:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in config section {where!r}")


def load_config(path, tol=None):
    """The validated config at ``path``, with ``--tol`` as numerics.tol."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}")
    numerics = raw.get("numerics", {}) if isinstance(raw, dict) else None
    if tol is not None and isinstance(numerics, dict):
        raw["numerics"] = {**numerics, "tol": tol}
    return validate_config(raw)


def validate_config(raw):
    _reject_unknown(raw, _TOP_KEYS, "<top>")
    if "problem" not in raw or "grid" not in raw:
        raise ConfigError("config requires 'problem' and 'grid' sections")
    _reject_unknown(raw["problem"], _PROBLEM_KEYS, "problem")
    _reject_unknown(raw["grid"], _GRID_KEYS, "grid")
    _reject_unknown(raw.get("numerics", {}), _NUMERICS_KEYS, "numerics")
    _reject_unknown(raw.get("outputs", {}), _OUTPUT_KEYS, "outputs")
    _reject_unknown(raw.get("refinement", {}), _REFINEMENT_KEYS, "refinement")
    if raw.get("reference") is not None:
        _reject_unknown(raw["reference"], _REFERENCE_KEYS, "reference")
    if raw["problem"].get("u0_decay") is not None:
        _reject_unknown(raw["problem"]["u0_decay"], _DECAY_KEYS,
                        "problem.u0_decay")
    kind = raw["problem"].get("kind")
    if kind not in cont.KINDS and kind not in LATTICE_KINDS:
        raise ConfigError(f"unknown problem kind {kind!r}")
    _reject_non_finite(raw, "")
    for section, keys in _NUMBER_KEYS.items():
        block = raw.get(section, {})
        for key in keys:
            if key not in block:
                continue
            value = block[key]
            if not _is_number(value):
                raise ConfigError(f"{section}.{key} must be a number, not "
                                  f"{value!r}")
            if key in _POSITIVE_KEYS and value <= 0:
                raise ConfigError(f"{section}.{key} must be positive, not "
                                  f"{value!r}")
            if (key in _WHOLE_KEYS and isinstance(value, float)
                    and not value.is_integer()):
                raise ConfigError(f"{section}.{key} must be a whole number, "
                                  f"not {value!r}")
    times = raw["grid"].get("times")
    if not times or not all(_is_number(t) for t in times):
        raise ConfigError("grid.times must be a nonempty list of numbers")
    return raw


def _positive_times(grid):
    """grid.times as floats; solve and converge evaluate at t > 0 only."""
    times = [float(t) for t in grid["times"]]
    if min(times) <= 0:
        raise ConfigError(f"grid.times must be positive, not {grid['times']}")
    return times


def _x_grid(grid):
    """The x grid of a continuous problem."""
    try:
        return np.linspace(float(grid["x_min"]), float(grid["x_max"]),
                           int(grid["n_points"]))
    except KeyError as err:
        raise ConfigError(f"grid requires {err} for continuous problems")


def _parse_datum(cfg, name, var):
    text = cfg.get(name)
    if text is None:
        return None
    try:
        return parse(text, var_name=var)
    except ExprSyntaxError as err:
        raise ConfigError(f"problem.{name}: {err}")


def build_problem(cfg):
    kind = cfg["kind"]
    decay = ("auto",)
    if cfg.get("u0_decay"):
        d = cfg["u0_decay"]
        decay = (d["type"],) if d.get("rate") is None else (d["type"], d["rate"])
    u0 = _parse_datum(cfg, "u0", "x")
    f0 = _parse_datum(cfg, "f0", "t")
    f1 = _parse_datum(cfg, "f1", "t")
    g0 = _parse_datum(cfg, "g0", "t")
    if kind in LATTICE_KINDS:
        h = cfg.get("h")
        if not h or h <= 0:
            raise ConfigError("lattice problems require spacing h > 0")
        datum = f0 if kind == "sd-heat-dirichlet" else f1
        if u0 is None or datum is None:
            raise ConfigError(f"{kind} requires u0 and "
                              f"{'f0' if kind.endswith('dirichlet') else 'f1'}")
        return ("lattice", kind, u0, datum, float(h))
    try:
        spec = cont.ProblemSpec(
            kind,
            u0=u0,
            f0=f0,
            f1=f1,
            g0=g0,
            c=float(cfg.get("c", 0.0)),
            L=float(cfg.get("L", 0.0)),
            u0_decay=decay,
        )
    except cont.ProblemSpecError as err:
        raise ConfigError(str(err))
    return ("continuous", spec)


def build_reference(ref_cfg, times, problem):
    """The reference u(x, t) of a config; ``problem`` is the built problem,
    whose data the transport reference reads."""
    if ref_cfg is None:
        return None
    if "name" in ref_cfg:
        name = ref_cfg["name"]
        c = float(ref_cfg.get("c", 1.0))
        if name not in cont.REFERENCE_NAMES:
            raise ConfigError(f"unknown reference {name!r}")
        if name == "transport-dalembert":
            if problem[0] != "continuous" or problem[1].kind != "transport":
                raise ConfigError(f"reference {name!r} needs a transport "
                                  "problem")
            if "c" in ref_cfg:
                raise ConfigError(f"reference {name!r} takes c from the "
                                  "problem, not from the reference")
            return lambda x, t: cont.transport_solution(problem[1], x, t)
        return lambda x, t: cont.reference_whole_line(name, x, t, c=c)
    if "expr" in ref_cfg:
        if len(times) != 1:
            raise ConfigError("expression references support a single time")
        expr = parse(ref_cfg["expr"], var_name="x")
        return lambda x, t: float(expr.eval(x))
    raise ConfigError("reference block needs 'name' or 'expr'")


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------


def _fmt(v):
    if v is None:
        return ""
    return f"{v:.17g}"


def _output_paths(cfg, out_override):
    """The outputs section with ``--out`` as its csv path.  A path that is
    not text, that is a directory, or whose directory does not exist, is a
    config error, which ``main`` raises before any solving."""
    outputs = dict(cfg.get("outputs", {}))
    if out_override:
        outputs["csv"] = out_override
    for key, path in outputs.items():
        if not path:
            continue
        if not isinstance(path, str):
            raise ConfigError(f"outputs.{key} must be a path, not {path!r}")
        folder = os.path.dirname(path) or "."
        if not os.path.isdir(folder):
            raise ConfigError(f"outputs.{key}: directory {folder!r} does "
                              "not exist")
        if os.path.isdir(path):
            raise ConfigError(f"outputs.{key}: {path!r} is a directory")
    return outputs


def _write_outputs(csv_lines, report, cfg, out_override):
    """The CSV (stdout when no path is set) and, when outputs.json is set,
    the run report as one line of compact JSON (``json.dumps`` without
    ``indent`` is the C encoder; ``json.dump`` and any indent are not)."""
    outputs = _output_paths(cfg, out_override)
    csv_path = outputs.get("csv")
    text = "\n".join(csv_lines) + "\n"
    if csv_path:
        with open(csv_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    json_path = outputs.get("json")
    if json_path:
        with open(json_path, "w") as fh:
            fh.write(json.dumps(report))
    return 0


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_solve(cfg, args):
    tol = float(cfg.get("numerics", {}).get("tol", 1e-10))
    times = _positive_times(cfg["grid"])
    problem = build_problem(cfg["problem"])
    reference = build_reference(cfg.get("reference"), times, problem)
    started = time.perf_counter()
    rows = []

    if problem[0] == "lattice":
        _, kind, u0, datum, h = problem
        n_lo = int(cfg["grid"].get("n_min", 0))
        n_hi = int(cfg["grid"].get("n_max", 0))
        if n_hi <= n_lo:
            raise ConfigError("lattice grids need n_min < n_max")
        condition = "dirichlet" if kind.endswith("dirichlet") else "neumann"
        for T in times:
            spec = LatticeSpec(h=h, u0=u0, datum=datum, T=T,
                               condition=condition)
            vals = lattice_profile(spec, n_lo, n_hi)
            for n, val in zip(range(n_lo, n_hi + 1), vals):
                x = n * h
                rows.append(_make_row(x, T, float(val), reference,
                                      "continued" if n < 0 else "interior"))
    else:
        spec = problem[1]
        xs = _x_grid(cfg["grid"])
        interior = _interior_test(spec)
        for T in times:
            vals = cont.evaluate_extended(spec, xs, T, tol)
            for x, val in zip(xs.tolist(), vals.tolist()):
                rows.append(_make_row(x, T, val, reference,
                                      "interior" if interior(x)
                                      else "continued"))

    wall = time.perf_counter() - started
    csv_lines = ["x,t,u_ac,u_ref,abs_err"]
    for row in rows:
        csv_lines.append(",".join(_fmt(row[k]) for k in
                                  ("x", "t", "u_ac", "u_ref", "abs_err")))
    errs = [row["abs_err"] for row in rows if row["abs_err"] is not None]
    report = {
        "samples": rows,
        "summary": {
            "max_abs_err": max(errs) if errs else None,
            "wall_time_s": wall,
            "n_samples": len(rows),
        },
    }
    return _write_outputs(csv_lines, report, cfg, args.out)


def _interior_test(spec):
    if spec.kind == "heat-finite-interval":
        return lambda x: 0 <= x <= spec.L
    return lambda x: x >= 0


def _make_row(x, t, val, reference, provenance):
    ref = None
    err = None
    if reference is not None:
        ref = float(reference(x, t))
        err = abs(val - ref)
    return {"x": x, "t": t, "u_ac": val, "u_ref": ref, "abs_err": err,
            "provenance": provenance}


def cmd_map_initial(cfg, args):
    problem = build_problem(cfg["problem"])
    if problem[0] == "lattice":
        raise ConfigError("map-initial applies to continuous problems")
    spec = problem[1]
    xs = _x_grid(cfg["grid"])
    started = time.perf_counter()
    # one call over the grid and, for the one-sided limits, four points
    # about 0; the linear variation is extrapolated away, so a continuous
    # w0 reports a vanishing jump
    delta = 1e-5
    w0s = cont.boundary_to_initial(spec, np.concatenate(
        [xs, np.array([-1.0, -0.5, 0.5, 1.0]) * delta])).tolist()
    far_left, near_left, near_right, far_right = w0s[len(xs):]
    rows = []
    for x, w0 in zip(xs.tolist(), w0s):
        try:
            u0c = float(spec.u0.eval(x))
        except ExprDomainError:
            u0c = None
        rows.append({"x": x, "w0": w0, "u0_analytic_continuation": u0c})
    left = 2 * near_left - far_left
    right = 2 * near_right - far_right
    csv_lines = ["x,w0,u0_analytic_continuation"]
    for row in rows:
        csv_lines.append(",".join(_fmt(row[k]) for k in
                                  ("x", "w0", "u0_analytic_continuation")))
    report = {
        "samples": rows,
        "summary": {
            "left_limit": left,
            "right_limit": right,
            "jump": abs(right - left),
            "wall_time_s": time.perf_counter() - started,
        },
    }
    return _write_outputs(csv_lines, report, cfg, args.out)


def cmd_converge(cfg, args):
    problem = build_problem(cfg["problem"])
    if problem[0] != "lattice":
        raise ConfigError("converge requires a lattice problem kind")
    _, kind, u0, datum, _h = problem
    h_values = cfg.get("refinement", {}).get("h_values")
    if not h_values or len(h_values) < 3:
        raise ConfigError("refinement.h_values needs at least three spacings")
    tol = float(cfg.get("numerics", {}).get("tol", 1e-10))
    grid = cfg["grid"]
    if "x_min" in grid and "x_max" in grid:
        window = (float(grid["x_min"]), float(grid["x_max"]))
    elif "n_min" in grid and "n_max" in grid:
        window = (int(grid["n_min"]) * _h, int(grid["n_max"]) * _h)
    else:
        raise ConfigError("converge needs an x window (x_min/x_max) or "
                          "lattice indices (n_min/n_max)")
    if len(grid["times"]) != 1:
        raise ConfigError("converge runs at a single time; grid.times has "
                          f"{len(grid['times'])}")
    (T,) = _positive_times(grid)
    condition = "dirichlet" if kind.endswith("dirichlet") else "neumann"

    cont_kind = ("heat-dirichlet" if condition == "dirichlet"
                 else "heat-neumann")
    cspec = cont.ProblemSpec(
        cont_kind, u0=u0,
        f0=datum if condition == "dirichlet" else None,
        f1=datum if condition == "neumann" else None,
    )
    h_values = [float(h) for h in h_values]
    started = time.perf_counter()
    # one array evaluation of the reference over every level's nodes
    xs = np.unique(np.concatenate([window_nodes(window, h)[1]
                                   for h in h_values]))
    ref = dict(zip(xs.tolist(),
                   cont.evaluate_extended(cspec, xs, T, tol).tolist()))
    result = continuum_limit_check(
        lambda h: LatticeSpec(h=h, u0=u0, datum=datum, T=T,
                              condition=condition),
        h_values, window, ref.__getitem__)
    csv_lines = ["h,max_err,observed_order"]
    orders = [None] + result["orders"]
    for (h, err), order in zip(result["errors"], orders):
        csv_lines.append(f"{_fmt(h)},{_fmt(err)},{_fmt(order)}")
    report = {
        "errors": [{"h": h, "max_err": e} for h, e in result["errors"]],
        "observed_orders": result["orders"],
        "wall_time_s": time.perf_counter() - started,
    }
    return _write_outputs(csv_lines, report, cfg, args.out)


def cmd_list_scenarios(_cfg, _args):
    for name in sorted(scenario_names()):
        cfg = json.loads(
            resources.files("utmcont.scenarios").joinpath(name).read_text()
        )
        print(f"{name[:-5]:24s} {cfg.get('description', '')}")
    return 0


def scenario_names():
    return [
        entry.name
        for entry in resources.files("utmcont.scenarios").iterdir()
        if entry.name.endswith(".json")
    ]


def scenario_path(name):
    target = resources.files("utmcont.scenarios").joinpath(f"{name}.json")
    if not target.is_file():
        raise ConfigError(
            f"unknown scenario {name!r}; available: "
            + ", ".join(sorted(n[:-5] for n in scenario_names()))
        )
    return target


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@functools.cache
def build_parser():
    """The argument parser, built once per process: parse_args keeps no
    state between calls."""
    parser = argparse.ArgumentParser(
        prog="utmcont",
        description="Evaluate analytically continued IBVP solutions and "
                    "boundary-to-initial maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("solve", cmd_solve), ("map-initial", cmd_map_initial),
                     ("converge", cmd_converge)):
        p = sub.add_parser(name)
        p.add_argument("--config", help="path to a scenario JSON config")
        p.add_argument("--scenario", help="name of a built-in scenario")
        p.add_argument("--out", help="CSV output path (stdout otherwise)")
        if fn is not cmd_map_initial:
            p.add_argument("--tol", type=float, default=None)
        p.set_defaults(fn=fn)
    p = sub.add_parser("list-scenarios")
    p.set_defaults(fn=cmd_list_scenarios)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.fn is cmd_list_scenarios:
        return args.fn(None, args)
    tol = getattr(args, "tol", None)  # map-initial has no --tol
    try:
        if args.config:
            cfg = load_config(args.config, tol)
        elif args.scenario:
            cfg = load_config(scenario_path(args.scenario), tol)
        else:
            raise ConfigError("supply --config PATH or --scenario NAME")
        _output_paths(cfg, args.out)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.fn(cfg, args)
    except (ConfigError, cont.ProblemSpecError) as err:
        # a ProblemSpecError here is a request the kind does not support
        # (e.g. map-initial of a transport problem), not a numerical failure
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except cont.IncompatibleDataError as err:
        print(f"refused: {err}", file=sys.stderr)
        return EXIT_REFUSED
    except _NUMERIC_ERRORS as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICS


if __name__ == "__main__":
    sys.exit(main())
