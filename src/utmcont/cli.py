"""Scenario-driven command line: solve, map-initial, converge, list-scenarios.

Configs are single JSON documents with expression-valued data fields; the
schema is validated strictly (unknown keys, problem keys the kind does not
read, and NaN or infinite numbers are rejected, ``--tol`` standing in for
numerics.tol) before any computation, and so are output paths whose
directory does not exist.
``build_problem`` turns the problem section into the one problem value
every command reads: a ``ProblemSpec`` for a continuous kind, a
``LatticeSpec`` still to be given its time (and spacing) for a lattice kind.
Each command builds its rows once; ``_csv`` writes them as CSV with
17-significant-digit floats (exact double round-trip), next to a one-line
JSON run report with per-row provenance tags.

Exit codes: 0 success, 2 config error (including malformed expression text,
a config nested too deeply to read, one that is not UTF-8 or holds an
integer past Python's digit limit, a finite-interval grid past the tiling
depth, and a command the problem kind does not support), 3 numerical
failure, 4 refused boundary-to-initial map.
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
from .quad import QuadratureError
from .continuous._common import ResidualWarning
from .continuous.finite_interval import require_tiling_depth
from .semidiscrete import (LatticeSpec, continuum_limit_check, lattice_profile,
                           window_nodes)

EXIT_CONFIG = 2
EXIT_NUMERICS = 3
EXIT_REFUSED = 4

# lattice kind: the datum that carries its boundary condition
LATTICE_KINDS = {"sd-heat-dirichlet": "f0", "sd-heat-neumann": "f1"}

# the problem keys each kind reads besides its kind: a config that gives
# any other would have it dropped unread, so it is refused
_KIND_KEYS = {
    **{kind: data + keys for kind, (data, keys) in cont.KIND_KEYS.items()},
    **{kind: ("u0", datum, "h") for kind, datum in LATTICE_KINDS.items()},
}

# ExprDomainError is an ArithmeticError; DecayError and DecayClassError
# are ValueErrors
_NUMERIC_ERRORS = (QuadratureError, ResidualWarning, ArithmeticError,
                   ValueError)


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# schema validation
# ---------------------------------------------------------------------------

# the keys of each config section, in the order the sections are checked
# (description is free text; a null reference or u0_decay means none)
_SECTIONS = {
    "<top>": {"description", "problem", "grid", "numerics", "reference",
              "outputs", "refinement"},
    "problem": {"kind"}.union(*_KIND_KEYS.values()),
    "grid": {"x_min", "x_max", "n_points", "times", "n_min", "n_max"},
    "numerics": {"tol"},
    "outputs": {"csv", "json"},
    "refinement": {"h_values"},
    "reference": {"name", "expr"},
    "problem.u0_decay": {"type", "rate"},
}
_NULLABLE = ("reference", "problem.u0_decay")
# the keys whose values must be strings (the kind, names and expression
# text), per section
_TEXT_KEYS = {"problem": ("kind", "u0", "f0", "f1", "g0"),
              "reference": ("name", "expr")}
# the keys whose values must be numbers, per section, and those of them
# that must be positive
_NUMBER_KEYS = {"problem": ("c", "L", "h"),
                "grid": ("x_min", "x_max", "n_points", "n_min", "n_max"),
                "numerics": ("tol",)}
_POSITIVE_KEYS = ("n_points", "tol")
# grid counts and lattice indices, which must be whole numbers
_WHOLE_KEYS = ("n_points", "n_min", "n_max")
# the largest advected-heat drift whose c^2 is finite: the gauge
# e^{-c x/2 - c^2 t/4} reads c^2/4 as a float
_MAX_DRIFT = math.sqrt(sys.float_info.max)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _in_float_range(value):
    """Whether a finite number converts to a float (a JSON int may not)."""
    return abs(value) <= sys.float_info.max


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


def load_config(path, tol=None):
    """The validated config at ``path``, with ``--tol`` as numerics.tol."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}")
    except ValueError as err:  # not UTF-8, or an integer past Python's limit
        raise ConfigError(f"config is not readable: {err}")
    except RecursionError:
        raise ConfigError("config is nested too deeply")
    numerics = raw.get("numerics", {}) if isinstance(raw, dict) else None
    if tol is not None and isinstance(numerics, dict):
        raw["numerics"] = {**numerics, "tol": tol}
    return validate_config(raw)


def validate_config(raw):
    for where, allowed in _SECTIONS.items():
        block = raw
        if where != "<top>":
            for key in where.split("."):
                block = block.get(key, {})
        if block is None and where in _NULLABLE:
            continue
        if not isinstance(block, dict):
            raise ConfigError(f"config section {where!r} must be an object")
        for key in block:
            if key not in allowed:
                raise ConfigError(f"unknown key {key!r} in config section "
                                  f"{where!r}")
        if where == "<top>" and ("problem" not in raw or "grid" not in raw):
            raise ConfigError("config requires 'problem' and 'grid' sections")
    for section, keys in _TEXT_KEYS.items():
        block = raw.get(section) or {}
        for key in keys:
            if key in block and not isinstance(block[key], str):
                raise ConfigError(f"{section}.{key} must be a string, not "
                                  f"{block[key]!r}")
    if {"name", "expr"} <= set(raw.get("reference") or {}):
        raise ConfigError("reference gives both 'name' and 'expr'; give one")
    kind = raw["problem"].get("kind")
    if kind not in _KIND_KEYS:
        raise ConfigError(f"unknown problem kind {kind!r}")
    _reject_non_finite(raw, "")
    c = raw["problem"].get("c", 0.0)
    if kind == "advected-heat" and _is_number(c) and not abs(c) <= _MAX_DRIFT:
        raise ConfigError(f"problem.c must be at most {_MAX_DRIFT:.5g} in "
                          f"size, so that c^2/4 is a float, not {c!r}")
    for section, keys in _NUMBER_KEYS.items():
        block = raw.get(section) or {}
        for key in keys:
            if key not in block:
                continue
            value = block[key]
            if not _is_number(value):
                raise ConfigError(f"{section}.{key} must be a number, not "
                                  f"{value!r}")
            if not _in_float_range(value):
                raise ConfigError(f"{section}.{key} must be within the float "
                                  f"range, at most {sys.float_info.max:.5g} "
                                  "in size")
            if key in _POSITIVE_KEYS and value <= 0:
                raise ConfigError(f"{section}.{key} must be positive, not "
                                  f"{value!r}")
            if (key in _WHOLE_KEYS and isinstance(value, float)
                    and not value.is_integer()):
                raise ConfigError(f"{section}.{key} must be a whole number, "
                                  f"not {value!r}")
    times = raw["grid"].get("times")
    if not (isinstance(times, list) and times
            and all(_is_number(t) and _in_float_range(t) for t in times)):
        raise ConfigError("grid.times must be a nonempty list of numbers")
    # the reference, which only solve reads, is checked under every command
    ref = raw.get("reference")
    if ref is not None and "name" in ref:
        if ref["name"] not in cont.REFERENCE_NAMES:
            raise ConfigError(f"unknown reference {ref['name']!r}")
    elif ref is not None and "expr" in ref:
        if len(times) != 1:
            raise ConfigError("expression references support a single time")
        _parse_expr(ref["expr"], "reference.expr", "x")
    elif ref is not None:
        raise ConfigError("reference block needs 'name' or 'expr'")
    refinement = raw.get("refinement", {})
    h_values = refinement.get("h_values")
    if "h_values" in refinement and not (
            isinstance(h_values, list)
            and all(_is_number(h) and h > 0 and _in_float_range(h)
                    for h in h_values)
            and len(set(h_values)) == len(h_values) >= 3):
        raise ConfigError("refinement.h_values must be a list of at least "
                          f"three distinct positive numbers, not {h_values!r}")
    reads = _KIND_KEYS[kind]
    for key in raw["problem"]:
        if key != "kind" and key not in reads:
            raise ConfigError(f"problem.{key} is not read by {kind} problems "
                              f"(they read {', '.join(reads)})")
    return raw


def _positive_times(grid):
    """grid.times as floats; solve and converge evaluate at t > 0 only."""
    times = [float(t) for t in grid["times"]]
    if min(times) <= 0:
        raise ConfigError(f"grid.times must be positive, not {grid['times']}")
    return times


def _x_grid(grid, spec):
    """The x grid of the continuous problem ``spec``; a finite-interval grid
    must lie within the tiling depth, which the grid and L decide alone."""
    try:
        x_min, x_max = float(grid["x_min"]), float(grid["x_max"])
        n_points = int(grid["n_points"])
    except KeyError as err:
        raise ConfigError(f"grid requires {err} for continuous problems")
    if n_points >= 2 and x_max <= x_min:
        raise ConfigError("continuous grids need x_min < x_max")
    xs = np.linspace(x_min, x_max, n_points)
    if spec.kind == "heat-finite-interval":
        try:
            require_tiling_depth(spec, xs)
        except ValueError as err:
            raise ConfigError(str(err))
    return xs


def _parse_expr(text, where, var):
    try:
        return parse(text, var_name=var)
    except ExprSyntaxError as err:
        raise ConfigError(f"{where}: {err}")


def build_problem(cfg):
    """The problem of a config's problem section: the ``ProblemSpec`` of a
    continuous kind, or for a lattice kind the ``LatticeSpec`` still to be
    called with its time T (and, under converge, its spacing h)."""
    kind = cfg["kind"]
    decay = ("auto",)
    if cfg.get("u0_decay"):
        d = cfg["u0_decay"]
        if "type" not in d:
            raise ConfigError("problem.u0_decay requires a type")
        decay = (d["type"],) if d.get("rate") is None else (d["type"], d["rate"])
    data = {name: _parse_expr(cfg[name], f"problem.{name}", var)
            for name, var in (("u0", "x"), ("f0", "t"), ("f1", "t"),
                              ("g0", "t"))
            if name in cfg}
    if kind in LATTICE_KINDS:
        h = cfg.get("h")
        if not h or h <= 0:
            raise ConfigError("lattice problems require spacing h > 0")
        name = LATTICE_KINDS[kind]
        if "u0" not in data or name not in data:
            raise ConfigError(f"{kind} requires u0 and {name}")
        return functools.partial(LatticeSpec, h=float(h), u0=data["u0"],
                                 datum=data[name],
                                 condition=kind.removeprefix("sd-heat-"))
    try:
        return cont.ProblemSpec(kind, **data, c=float(cfg.get("c", 0.0)),
                                L=float(cfg.get("L", 0.0)), u0_decay=decay)
    except cont.ProblemSpecError as err:
        raise ConfigError(str(err))


def build_reference(ref_cfg, c):
    """The reference u(x, t) of a checked config, or None: the named
    whole-line solution, which reads the problem's c, or an expression in x."""
    if ref_cfg is None:
        return None
    if "name" in ref_cfg:
        name = ref_cfg["name"]
        return lambda x, t: cont.reference_whole_line(name, x, t, c=c)
    expr = parse(ref_cfg["expr"], var_name="x")
    return lambda x, t: float(expr.eval(x))


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------


def _fmt(v):
    if v is None:
        return ""
    return f"{v:.17g}"


def _csv(columns, rows):
    """The CSV lines of ``rows``: a header, then each row's ``columns``."""
    return [",".join(columns)] + [",".join(_fmt(row[k]) for k in columns)
                                  for row in rows]


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


def _profile(problem, grid, tol):
    """The map T -> (x, u_ac, interior) of ``solve`` over the config's grid:
    the x grid through ``evaluate_extended`` for a continuous problem, the
    nodes n_min ... n_max (x = n h) through ``lattice_profile`` for a
    lattice one."""
    if isinstance(problem, cont.ProblemSpec):
        xs = _x_grid(grid, problem)
        right = (problem.L if problem.kind == "heat-finite-interval"
                 else math.inf)
        inside = [0 <= x <= right for x in xs.tolist()]
        return lambda T: (xs.tolist(), cont.evaluate_extended(
            problem, xs, T, tol).tolist(), inside)
    try:
        n_lo, n_hi = int(grid["n_min"]), int(grid["n_max"])
    except KeyError as err:
        raise ConfigError(f"grid requires {err} for lattice problems")
    if n_hi <= n_lo:
        raise ConfigError("lattice grids need n_min < n_max")
    ns = range(n_lo, n_hi + 1)
    h = problem.keywords["h"]
    return lambda T: ([n * h for n in ns], lattice_profile(
        problem(T=T), n_lo, n_hi).tolist(), [n >= 0 for n in ns])


def cmd_solve(cfg, args):
    tol = float(cfg.get("numerics", {}).get("tol", 1e-10))
    times = _positive_times(cfg["grid"])
    problem = build_problem(cfg["problem"])
    reference = build_reference(cfg.get("reference"),
                                float(cfg["problem"].get("c", 0.0)))
    profile = _profile(problem, cfg["grid"], tol)
    started = time.perf_counter()
    rows = []
    for T in times:
        for x, val, inside in zip(*profile(T)):
            ref = None if reference is None else float(reference(x, T))
            rows.append({"x": x, "t": T, "u_ac": val, "u_ref": ref,
                         "abs_err": None if ref is None else abs(val - ref),
                         "provenance": "interior" if inside else "continued"})
    wall = time.perf_counter() - started
    errs = [row["abs_err"] for row in rows if row["abs_err"] is not None]
    report = {
        "samples": rows,
        "summary": {
            "max_abs_err": max(errs) if errs else None,
            "wall_time_s": wall,
            "n_samples": len(rows),
        },
    }
    return _write_outputs(_csv(("x", "t", "u_ac", "u_ref", "abs_err"), rows),
                          report, cfg, args.out)


def cmd_map_initial(cfg, args):
    spec = build_problem(cfg["problem"])
    if not isinstance(spec, cont.ProblemSpec):
        raise ConfigError("map-initial applies to continuous problems")
    xs = _x_grid(cfg["grid"], spec)
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
    report = {
        "samples": rows,
        "summary": {
            "left_limit": left,
            "right_limit": right,
            "jump": abs(right - left),
            "wall_time_s": time.perf_counter() - started,
        },
    }
    return _write_outputs(_csv(("x", "w0", "u0_analytic_continuation"), rows),
                          report, cfg, args.out)


def cmd_converge(cfg, args):
    problem = build_problem(cfg["problem"])
    if isinstance(problem, cont.ProblemSpec):
        raise ConfigError("converge requires a lattice problem kind")
    h_values = cfg.get("refinement", {}).get("h_values")
    if h_values is None:
        raise ConfigError("refinement.h_values needs at least three spacings")
    tol = float(cfg.get("numerics", {}).get("tol", 1e-10))
    grid = cfg["grid"]
    if "x_min" in grid and "x_max" in grid:
        window = (float(grid["x_min"]), float(grid["x_max"]))
    elif "n_min" in grid and "n_max" in grid:
        h = problem.keywords["h"]
        window = (int(grid["n_min"]) * h, int(grid["n_max"]) * h)
    else:
        raise ConfigError("converge needs an x window (x_min/x_max) or "
                          "lattice indices (n_min/n_max)")
    if len(grid["times"]) != 1:
        raise ConfigError("converge runs at a single time; grid.times has "
                          f"{len(grid['times'])}")
    (T,) = _positive_times(grid)
    # the continuum limit: the heat problem of the same kind and data
    kind = cfg["problem"]["kind"]
    lattice = problem.keywords
    cspec = cont.ProblemSpec(kind.removeprefix("sd-"), u0=lattice["u0"],
                             **{LATTICE_KINDS[kind]: lattice["datum"]})
    h_values = [float(h) for h in h_values]
    levels = [window_nodes(window, h)[1] for h in h_values]
    for h, nodes in zip(h_values, levels):
        if not nodes.size:
            raise ConfigError(f"converge window [{window[0]:g}, "
                              f"{window[1]:g}] holds no lattice node at "
                              f"spacing h = {h:g}")
    started = time.perf_counter()
    # one array evaluation of the reference over every level's nodes
    xs = np.unique(np.concatenate(levels))
    ref = dict(zip(xs.tolist(),
                   cont.evaluate_extended(cspec, xs, T, tol).tolist()))
    result = continuum_limit_check(lambda h: problem(h=h, T=T), h_values,
                                   window, ref.__getitem__)
    rows = [{"h": h, "max_err": err, "observed_order": order}
            for (h, err), order in zip(result["errors"],
                                       [None] + result["orders"])]
    report = {
        "errors": [{"h": h, "max_err": e} for h, e in result["errors"]],
        "observed_orders": result["orders"],
        "wall_time_s": time.perf_counter() - started,
    }
    return _write_outputs(_csv(("h", "max_err", "observed_order"), rows),
                          report, cfg, args.out)


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
