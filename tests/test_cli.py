"""Command-line front end: schema, outputs, exit codes, determinism."""

import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from utmcont import cli
from utmcont.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICS,
    EXIT_REFUSED,
    ConfigError,
    main,
    scenario_names,
    validate_config,
)

MINIMAL = {
    "problem": {"kind": "heat-dirichlet", "u0": "exp(-(x-1)^2)",
                "f0": "t*exp(-t)"},
    "grid": {"x_min": -1.0, "x_max": 1.0, "n_points": 5, "times": [0.5]},
}


def _write(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_unknown_top_key_rejected(tmp_path, capsys):
    cfg = dict(MINIMAL)
    cfg["tolerence"] = 1e-8
    code = main(["solve", "--config", _write(tmp_path, cfg)])
    assert code == EXIT_CONFIG
    assert "tolerence" in capsys.readouterr().err


def test_unknown_nested_key_rejected():
    cfg = json.loads(json.dumps(MINIMAL))
    cfg["grid"]["n_pts"] = 3
    with pytest.raises(ConfigError, match="n_pts"):
        validate_config(cfg)


def test_bad_expression_rejected(tmp_path, capsys):
    cfg = json.loads(json.dumps(MINIMAL))
    cfg["problem"]["u0"] = "3*x*exp(-x"
    code = main(["solve", "--config", _write(tmp_path, cfg)])
    assert code == EXIT_CONFIG


def test_malformed_decay_is_config_error(tmp_path, capsys):
    cfg = {"problem": {"kind": "kdv-one-bc", "u0": "2*exp(-x)*cos(x)",
                       "f0": "t", "u0_decay": {"type": "algebraic"}},
           "grid": {"x_min": 0.0, "x_max": 1.0, "n_points": 3,
                    "times": [1.0]}}
    assert main(["solve", "--config", _write(tmp_path, cfg)]) == EXIT_CONFIG
    assert "u0_decay" in capsys.readouterr().err


@pytest.mark.parametrize("problem", [
    MINIMAL["problem"],
    {"kind": "sd-heat-dirichlet", "u0": "exp(-x)", "f0": "t", "h": 0.1},
], ids=["continuous", "lattice"])
def test_decay_without_type_is_config_error(tmp_path, capsys, problem):
    cfg = {"problem": {**problem, "u0_decay": {"rate": 1}},
           "grid": {"x_min": -1.0, "x_max": 1.0, "n_points": 3,
                    "n_min": -2, "n_max": 3, "times": [0.5]},
           "outputs": {"csv": str(tmp_path / "o.csv")}}
    assert main(["solve", "--config", _write(tmp_path, cfg)]) == EXIT_CONFIG
    assert "problem.u0_decay" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("t", [1e-3, 1e-2])
def test_unresolved_kdv1_row_is_a_numerical_failure(tmp_path, capsys, t):
    # at small t the data rule of u0 ends before the one-condition Airy
    # kernel's growth at x = -2 is damped; the row is refused, not returned
    cfg = {"problem": {"kind": "kdv-one-bc", "u0": "2*exp(-x)*cos(x)",
                       "f0": "2*exp(-2*t)*cos(2*t)",
                       "u0_decay": {"type": "exponential", "rate": 1.0}},
           "grid": {"x_min": -2.0, "x_max": 1.0, "n_points": 4,
                    "times": [t]},
           "numerics": {"tol": 1e-9}}
    code = main(["solve", "--config", _write(tmp_path, cfg)])
    assert code == EXIT_NUMERICS
    assert "x = -2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "map-initial"])
@pytest.mark.parametrize("key", ["x_min", "x_max", "n_points"])
def test_continuous_grid_without_x_window_is_config_error(tmp_path, capsys,
                                                          command, key):
    cfg = json.loads(json.dumps(MINIMAL))
    del cfg["grid"][key]
    assert main([command, "--config", _write(tmp_path, cfg)]) == EXIT_CONFIG
    assert f"grid requires '{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["n_min", "n_max"])
def test_lattice_grid_without_an_index_is_config_error(tmp_path, capsys, key):
    # a missing index is refused, not read as 0 (rows up to or from x = 0)
    cfg = {"problem": {"kind": "sd-heat-dirichlet", "u0": "3*x*exp(-x)",
                       "f0": "sin(4*pi*t)", "h": 0.05},
           "grid": {"n_min": -3, "n_max": 3, "times": [0.5]},
           "outputs": {"csv": str(tmp_path / "o.csv")}}
    del cfg["grid"][key]
    assert main(["solve", "--config", _write(tmp_path, cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (f"config error: grid requires "
                                       f"'{key}' for lattice problems\n")
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("command", ["solve", "map-initial"])
@pytest.mark.parametrize("x_min,x_max", [(1.0, -1.0), (1.0, 1.0)])
def test_reversed_or_empty_x_window_is_config_error(tmp_path, capsys,
                                                    command, x_min, x_max):
    # as n_max <= n_min is for a lattice grid: not rows in descending x, or
    # the same row n_points times
    cfg = json.loads(json.dumps(MINIMAL))
    cfg["grid"].update(x_min=x_min, x_max=x_max)
    cfg["outputs"] = {"csv": str(tmp_path / "o.csv")}
    assert main([command, "--config", _write(tmp_path, cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err == ("config error: continuous grids need "
                                       "x_min < x_max\n")
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("x_max", [1.0, -1.0])
def test_one_point_grid_takes_any_x_max(tmp_path, x_max):
    cfg = json.loads(json.dumps(MINIMAL))
    cfg["grid"].update(x_min=1.0, x_max=x_max, n_points=1)
    out = tmp_path / "o.csv"
    assert main(["solve", "--config", _write(tmp_path, cfg),
                 "--out", str(out)]) == 0
    (row,) = list(csv.DictReader(out.open()))
    assert float(row["x"]) == 1.0


LATTICE = {"problem": {"kind": "sd-heat-dirichlet", "u0": "3*x*exp(-x)",
                       "f0": "sin(4*pi*t)", "h": 0.05},
           "grid": {"n_min": -5, "n_max": 5, "times": [0.5]}}


@pytest.mark.parametrize("command", ["solve", "map-initial"])
@pytest.mark.parametrize("problem,key", [
    ({**MINIMAL["problem"], "c": 2}, "c"),
    ({**MINIMAL["problem"], "f1": "t"}, "f1"),
    ({**LATTICE["problem"], "c": 3}, "c"),
    ({"kind": "kdv-two-bc", "u0": "2*exp(-sqrt(3)*x)*cos(x)", "f0": "t",
      "f1": "t", "g0": "t"}, "g0"),
    ({"kind": "transport", "u0": "exp(-x^2)", "f0": "t", "c": -1}, "f0"),
], ids=["heat-c", "heat-f1", "lattice-c", "kdv2-g0", "transport-left-f0"])
def test_unread_problem_key_is_config_error(tmp_path, capsys, command,
                                            problem, key):
    # a key the kind does not read would be dropped, and the run would
    # answer another problem than the config states
    cfg = {"problem": problem,
           "grid": {"x_min": 0.0, "x_max": 1.0, "n_points": 3, "n_min": 0,
                    "n_max": 2, "times": [1.0]},
           "outputs": {"csv": str(tmp_path / "o.csv")}}
    assert main([command, "--config", _write(tmp_path, cfg)]) == EXIT_CONFIG
    assert f"{key} is not read by {problem['kind']}" in (
        capsys.readouterr().err)
    assert not (tmp_path / "o.csv").exists()


def test_every_kind_states_the_problem_keys_it_reads():
    assert set(cli._KIND_KEYS) == set(cli.cont.KINDS) | set(cli.LATTICE_KINDS)


@pytest.mark.parametrize("base,section,key,value,message", [
    (LATTICE, "problem", "h", "0.05", "problem.h must be a number"),
    (MINIMAL, "problem", "c", "fast", "problem.c must be a number"),
    (MINIMAL, "grid", "times", [0.0], "grid.times must be positive"),
    (LATTICE, "grid", "times", [-1.0], "grid.times must be positive"),
    (MINIMAL, "grid", "n_points", -3, "grid.n_points must be positive"),
    (MINIMAL, "numerics", "tol", -1.0, "numerics.tol must be positive"),
], ids=["lattice-h-text", "c-text", "time-zero", "lattice-time-negative",
        "n-points-negative", "tol-negative"])
def test_malformed_number_is_config_error(tmp_path, capsys, base, section,
                                          key, value, message):
    cfg = json.loads(json.dumps(base))
    cfg.setdefault(section, {})[key] = value
    assert main(["solve", "--config", _write(tmp_path, cfg)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


INTERVAL = {"problem": {"kind": "heat-finite-interval", "L": 1.0,
                        "u0": "exp(-(x-1)^2)", "f0": "t*exp(-t)",
                        "g0": "1/(1+t)"},
            "grid": {"x_min": -1.0, "x_max": 2.0, "n_points": 4,
                     "times": [1.0]}}
ADVECTED = {"problem": {"kind": "advected-heat", "c": -1.0,
                        "u0": "exp(-x^2)", "f0": "exp(-t/2)"},
            "grid": {"x_min": -1.0, "x_max": 1.0, "n_points": 4,
                     "times": [1.0]}}


@pytest.mark.parametrize("base,section,key,value,message", [
    (MINIMAL, "grid", "times", [math.inf], "grid.times[0] must be finite"),
    (MINIMAL, "grid", "times", [0.5, math.nan],
     "grid.times[1] must be finite"),
    (LATTICE, "problem", "h", math.inf, "problem.h must be finite"),
    (MINIMAL, "numerics", "tol", math.nan, "numerics.tol must be finite"),
    (MINIMAL, "numerics", "tol", math.inf, "numerics.tol must be finite"),
    (MINIMAL, "grid", "x_min", math.nan, "grid.x_min must be finite"),
    (INTERVAL, "problem", "L", math.inf, "problem.L must be finite"),
    (ADVECTED, "problem", "c", math.nan, "problem.c must be finite"),
    # reference.c is no key: a named reference reads the problem's c
    (ADVECTED, "reference", "c", math.nan,
     "unknown key 'c' in config section 'reference'"),
    (LATTICE, "refinement", "h_values", [0.1, math.inf, 0.025],
     "refinement.h_values[1] must be finite"),
], ids=["times-inf", "times-nan", "lattice-h-inf", "tol-nan", "tol-inf",
        "x-min-nan", "interval-L-inf", "advected-c-nan", "reference-c-nan",
        "h-values-inf"])
def test_non_finite_number_is_config_error(tmp_path, capsys, base, section,
                                           key, value, message):
    # json reads NaN and Infinity; they are refused by name before any
    # solving, not carried into rows or failed on as numerics
    cfg = json.loads(json.dumps(base))
    cfg.setdefault(section, {})[key] = value
    cfg["outputs"] = {"csv": str(tmp_path / "o.csv"),
                      "json": str(tmp_path / "o.json")}
    assert main(["solve", "--config", _write(tmp_path, cfg)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()
    assert not (tmp_path / "o.json").exists()


def _h_values(value):
    return {"refinement": {"h_values": value}}


@pytest.mark.parametrize("base,command,patch,where", [
    (MINIMAL, "solve", {"problem": {"u0": 5}}, "problem.u0 must be a string"),
    (MINIMAL, "solve", {"reference": {"expr": 3}},
     "reference.expr must be a string"),
    (MINIMAL, "solve", {"grid": {"times": 1.0}},
     "grid.times must be a nonempty list"),
    (MINIMAL, "solve", {"problem": {"kind": ["a"]}},
     "problem.kind must be a string"),
    (LATTICE, "converge", _h_values(3), "refinement.h_values must be a list"),
    (LATTICE, "converge", _h_values(True),
     "refinement.h_values must be a list"),
    (LATTICE, "converge", _h_values([0.1, -0.05, 0.025]),
     "refinement.h_values must be a list"),
    (LATTICE, "converge", _h_values([0.1, "a", 0.025]),
     "refinement.h_values must be a list"),
    (LATTICE, "converge", _h_values([True, 0.05, 0.025]),
     "refinement.h_values must be a list"),
    (LATTICE, "converge", _h_values([0.1, 0.1, 0.05]),
     "refinement.h_values must be a list"),
    (ADVECTED, "solve", {"reference": {"name": "gaussian-drift", "c": "abc"}},
     "unknown key 'c' in config section 'reference'"),
    # json reads any integer exactly, also one that no float holds
    (INTERVAL, "solve", {"problem": {"L": 10**400}},
     "problem.L must be within the float range"),
    (MINIMAL, "solve", {"grid": {"x_max": 10**400}},
     "grid.x_max must be within the float range"),
    (MINIMAL, "solve", {"numerics": {"tol": 10**400}},
     "numerics.tol must be within the float range"),
    (ADVECTED, "solve", {"reference": {"name": "gaussian-drift",
                                       "c": 10**400}},
     "unknown key 'c' in config section 'reference'"),
    (MINIMAL, "solve", {"grid": {"times": [10**400]}},
     "grid.times must be a nonempty list"),
    (LATTICE, "converge", _h_values([0.1, 10**400, 0.025]),
     "refinement.h_values must be a list"),
    (MINIMAL, "solve", {"reference": {"name": "gaussian-drift",
                                      "expr": "0*x"}},
     "reference gives both 'name' and 'expr'"),
    (MINIMAL, "map-initial", {"reference": {"name": "gaussian-drift",
                                            "expr": "0*x"}},
     "reference gives both 'name' and 'expr'"),
], ids=["u0-number", "reference-expr-number", "times-number", "kind-list",
        "h-values-number", "h-values-bool", "h-values-negative",
        "h-values-text", "h-values-bool-entry", "h-values-repeated",
        "reference-c-text", "problem-L-past-float", "x-max-past-float",
        "tol-past-float", "reference-c-past-float", "times-past-float",
        "h-values-past-float", "reference-name-and-expr",
        "reference-name-and-expr-map-initial"])
def test_malformed_value_is_config_error(tmp_path, capsys, base, command,
                                         patch, where):
    # a value of the wrong type or shape is refused by its key before any
    # solving, not met as a traceback or as a numerical failure
    cfg = json.loads(json.dumps(base))
    for section, items in patch.items():
        cfg.setdefault(section, {}).update(items)
    cfg["outputs"] = {"csv": str(tmp_path / "o.csv")}
    assert main([command, "--config", _write(tmp_path, cfg)]) == EXIT_CONFIG
    assert where in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("command", ["solve", "map-initial", "converge"])
@pytest.mark.parametrize("reference,times,message", [
    ({"name": "no-such-reference"}, [0.5], "unknown reference"),
    ({"expr": "exp(-"}, [0.5], "reference.expr: "),
    ({"expr": "exp(-x)"}, [0.5, 1.0],
     "expression references support a single time"),
    ({}, [0.5], "reference block needs 'name' or 'expr'"),
], ids=["unknown-name", "expr-syntax", "expr-two-times", "empty"])
def test_bad_reference_is_config_error_under_every_command(
        tmp_path, capsys, command, reference, times, message):
    # the reference section is checked while the config loads, also under
    # the commands that do not read it
    cfg = json.loads(json.dumps(LATTICE if command == "converge"
                                else MINIMAL))
    if command == "converge":
        cfg.update(_h_values([0.1, 0.05, 0.025]))
    cfg["grid"]["times"] = times
    cfg["reference"] = reference
    cfg["outputs"] = {"csv": str(tmp_path / "o.csv")}
    assert main([command, "--config", _write(tmp_path, cfg)]) == EXIT_CONFIG
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("command,scenario", [("solve", "heat_te"),
                                              ("converge", "sd_heat")])
@pytest.mark.parametrize("tol", ["-1", "0", "inf"])
def test_bad_tol_option_is_config_error(tmp_path, capsys, command, scenario,
                                        tol):
    # --tol gets the check numerics.tol gets, before any solving
    out = tmp_path / "o.csv"
    code = main([command, "--scenario", scenario, f"--tol={tol}",
                 "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "numerics.tol must be" in capsys.readouterr().err
    assert not out.exists()


def test_tol_option_overrides_the_config_tol(tmp_path):
    cfg = json.loads(json.dumps(MINIMAL))
    cfg["numerics"] = {"tol": 1e-6}
    path = _write(tmp_path, cfg)
    for argv, name in ((["--tol", "1e-10"], "a.csv"), ([], "b.csv")):
        assert main(["solve", "--config", path, "--out",
                     str(tmp_path / name)] + argv) == 0
    cfg["numerics"] = {"tol": 1e-10}
    assert main(["solve", "--config", _write(tmp_path, cfg, "c.json"),
                 "--out", str(tmp_path / "c.csv")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "c.csv").read_bytes()


def test_deeply_nested_expression_is_config_error(tmp_path, capsys):
    cfg = json.loads(json.dumps(MINIMAL))
    cfg["problem"]["u0"] = "(" * 210 + "x" + ")" * 210
    cfg["outputs"] = {"csv": str(tmp_path / "o.csv")}
    assert main(["solve", "--config", _write(tmp_path, cfg)]) == EXIT_CONFIG
    assert "nested too deeply" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def test_expression_too_deep_to_compile_is_config_error(tmp_path, capsys):
    # parses, but its numpy code nests past Python's 200 parentheses
    cfg = json.loads(json.dumps(MINIMAL))
    cfg["problem"]["u0"] = "sin(2*" * 120 + "x" + ")" * 120 + "*exp(-x^2)"
    cfg["outputs"] = {"csv": str(tmp_path / "o.csv")}
    assert main(["solve", "--config", _write(tmp_path, cfg)]) == EXIT_CONFIG
    assert "nested too deeply" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("text,message", [
    ("exp(-x", "unbalanced parenthesis"),
    ("(" * 300 + "x" + ")" * 300, "nested too deeply"),
], ids=["unbalanced", "nested"])
def test_malformed_reference_expression_is_config_error(tmp_path, capsys,
                                                        text, message):
    cfg = json.loads(json.dumps(MINIMAL))
    cfg["reference"] = {"expr": text}
    cfg["outputs"] = {"csv": str(tmp_path / "o.csv")}
    assert main(["solve", "--config", _write(tmp_path, cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error: reference.expr:" in err and message in err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("text", [
    "sqrt(-1)*exp(-x)", "exp(1000)*exp(-x)", "0^-1*exp(-x)",
    "(-2)^0.5*exp(-x)", "x^1e400", "1e400*exp(-x)", "exp(-x)^1e400",
    "1e200*1e200*x",
])
@pytest.mark.parametrize("key", ["problem.u0", "reference.expr"])
def test_constant_that_does_not_fold_is_config_error(tmp_path, capsys, text,
                                                     key):
    # a domain or range error of a constant, or a constant past the float
    # range, is an error of the text, found while the config loads
    cfg = json.loads(json.dumps(MINIMAL))
    section, name = key.split(".")
    cfg.setdefault(section, {})[name] = text
    cfg["outputs"] = {"csv": str(tmp_path / "o.csv")}
    assert main(["solve", "--config", _write(tmp_path, cfg)]) == EXIT_CONFIG
    assert f"config error: {key}:" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def test_config_nested_past_the_decoder_is_config_error(tmp_path, capsys):
    # json.load recurses once per nested list
    text = json.dumps(MINIMAL).replace("[0.5]", "[" * 100_000 + "]" * 100_000)
    path = tmp_path / "deep.json"
    path.write_text(text)
    out = tmp_path / "o.csv"
    assert main(["solve", "--config", str(path), "--out", str(out)]) \
        == EXIT_CONFIG
    assert "config is nested too deeply" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("old,new,message", [
    (b'"x_max": 1.0', b'"x_max": 1' + b"0" * 5000, b"(4300 digits)"),
    (b'"t*exp(-t)"', b'"t*exp(-t)\xff"', b"can't decode byte 0xff"),
], ids=["integer-of-5001-digits", "not-utf-8"])
def test_config_the_decoder_cannot_read_is_config_error(tmp_path, capsys,
                                                        old, new, message):
    # the JSON decoder raises a plain ValueError for an integer past
    # Python's digit limit, and reading raises UnicodeDecodeError
    path = tmp_path / "cfg.json"
    path.write_bytes(json.dumps(MINIMAL).encode().replace(old, new))
    out = tmp_path / "o.csv"
    assert main(["solve", "--config", str(path), "--out", str(out)]) \
        == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error: config is not readable:" in err
    assert message.decode() in err
    assert not out.exists()


@pytest.mark.parametrize("command,base,key,value", [
    ("solve", MINIMAL, "n_points", 0.5),
    ("map-initial", MINIMAL, "n_points", 4.5),
    ("solve", LATTICE, "n_min", -2.7),
    ("solve", LATTICE, "n_max", 3.9),
    ("converge", LATTICE, "n_max", 3.9),
], ids=["n-points", "map-initial-n-points", "n-min", "n-max",
        "converge-n-max"])
def test_fractional_grid_count_is_config_error(tmp_path, capsys, command,
                                               base, key, value):
    # int() would truncate it: n_points 0.5 wrote a header-only CSV, and
    # n_min -2.7 solved from n = -2
    cfg = json.loads(json.dumps(base))
    cfg["grid"][key] = value
    cfg["refinement"] = {"h_values": [0.1, 0.05, 0.025]}
    cfg["outputs"] = {"csv": str(tmp_path / "o.csv")}
    assert main([command, "--config", _write(tmp_path, cfg)]) == EXIT_CONFIG
    assert f"grid.{key} must be a whole number" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def test_whole_float_grid_count_is_accepted(tmp_path):
    cfg = json.loads(json.dumps(LATTICE))
    cfg["grid"].update(n_min=-5.0, n_max=5.0)
    cfg["outputs"] = {"csv": str(tmp_path / "float.csv")}
    assert main(["solve", "--config", _write(tmp_path, cfg)]) == 0
    cfg["grid"].update(n_min=-5, n_max=5)
    cfg["outputs"] = {"csv": str(tmp_path / "int.csv")}
    assert main(["solve", "--config", _write(tmp_path, cfg)]) == 0
    assert ((tmp_path / "float.csv").read_bytes()
            == (tmp_path / "int.csv").read_bytes())


@pytest.mark.parametrize("where", ["out", "csv", "json"])
def test_missing_output_directory_is_config_error(tmp_path, capsys,
                                                  monkeypatch, where):
    # refused before any solving, so nothing is written
    monkeypatch.setattr(cli, "lattice_profile",
                        lambda *args: pytest.fail("solved"))
    missing = str(tmp_path / "no_such_dir" / "x")
    cfg = json.loads(json.dumps(LATTICE))
    cfg["outputs"] = {"csv": str(tmp_path / "o.csv"),
                      "json": str(tmp_path / "r.json")}
    argv = ["solve", "--config"]
    if where == "out":
        argv += [_write(tmp_path, cfg), "--out", missing]
    else:
        cfg["outputs"][where] = missing
        argv.append(_write(tmp_path, cfg))
    assert main(argv) == EXIT_CONFIG
    key = "csv" if where == "out" else where
    assert (f"outputs.{key}: directory {os.path.dirname(missing)!r} does not "
            "exist") in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("value,message", [
    # open() would take the number for a file descriptor
    (5, "outputs.json must be a path, not 5"),
    # open() would fail on it after the solve
    (".", "outputs.json: '.' is a directory"),
], ids=["number", "directory"])
def test_output_path_that_is_no_file_path_is_config_error(tmp_path, capsys,
                                                          value, message):
    cfg = json.loads(json.dumps(LATTICE))
    cfg["outputs"] = {"csv": str(tmp_path / "o.csv"), "json": value}
    assert main(["solve", "--config", _write(tmp_path, cfg)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()

def test_map_initial_reads_no_times(tmp_path):
    cfg = json.loads(json.dumps(MINIMAL))
    cfg["grid"]["times"] = [0.0]
    cfg["outputs"] = {"csv": str(tmp_path / "w0.csv")}
    assert main(["map-initial", "--config", _write(tmp_path, cfg)]) == 0


def test_missing_config_is_config_error(capsys):
    assert main(["solve", "--config", "/nonexistent.json"]) == EXIT_CONFIG


def test_solve_csv_format(tmp_path):
    cfg = json.loads(json.dumps(MINIMAL))
    cfg["reference"] = None
    out = tmp_path / "out.csv"
    cfg["outputs"] = {"csv": str(out), "json": str(tmp_path / "report.json")}
    assert main(["solve", "--config", _write(tmp_path, cfg)]) == 0
    rows = list(csv.reader(out.read_text().strip().splitlines()))
    assert rows[0] == ["x", "t", "u_ac", "u_ref", "abs_err"]
    assert len(rows) == 6
    # empty reference columns when no reference is configured
    assert rows[1][3] == "" and rows[1][4] == ""
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["summary"]["n_samples"] == 5
    assert {r["provenance"] for r in report["samples"]} == {"interior",
                                                            "continued"}


# signed zeros, the ends of the float range, integers, numpy floats,
# non-finite values and None, with their CSV cells
_CELLS = [(None, ""), (-0.0, "-0"), (1e-300, "1e-300"),
          (1e300, "1.0000000000000001e+300"),
          (5e-324, "4.9406564584124654e-324"),
          (0.1, "0.10000000000000001"), (7, "7"),
          (np.float64(0.02) * 3, "0.059999999999999998"),
          (math.nan, "nan"), (-math.inf, "-inf")]

_TABLE_COLUMNS = pytest.mark.parametrize("columns", [
    ("x", "t", "u_ac", "u_ref", "abs_err"),
    ("x", "w0", "u0_analytic_continuation"),
    ("h", "max_err", "observed_order"),
], ids=["solve", "map-initial", "converge"])


def _cell_table(columns):
    """Blocks over ``columns`` (and a provenance tag no CSV column reads)
    that hold every cell, with the table's rows as (value, CSV cell) pairs:
    the cells rotated through list columns, each cell as the one value that
    every row of a two-row block holds in all but its first column, and a
    row of None."""
    rows = [[_CELLS[(i + j) % len(_CELLS)] for j in range(len(columns))]
            for i in range(len(_CELLS))]
    blocks = [{key: [row[j][0] for row in rows]
               for j, key in enumerate(columns)}
              | {"provenance": ["interior"] * len(rows)}]
    for cell in _CELLS:
        blocks.append({columns[0]: [cell[0]] * 2, "provenance": "continued"}
                      | dict.fromkeys(columns[1:], cell[0]))
        rows += [[cell] * len(columns)] * 2
    blocks.append(dict.fromkeys(columns, [None]) | {"provenance": ["interior"]})
    rows.append([(None, "")] * len(columns))
    tags = ["interior"] * len(_CELLS) + ["continued"] * 2 * len(_CELLS)
    return blocks, rows, tags + ["interior"]


@_TABLE_COLUMNS
def test_csv_cells_are_17_significant_digits_or_empty(tmp_path, columns):
    blocks, rows, _ = _cell_table(columns)
    out = tmp_path / "o.csv"
    cli._write_outputs({"csv": str(out)}, columns, blocks,
                       {"samples": columns})
    want = [",".join(columns)] + [",".join(text for _, text in row)
                                  for row in rows]
    assert out.read_text() == "\n".join(want) + "\n"
    cli._write_outputs({"csv": str(out)}, columns, [], {"samples": columns})
    assert out.read_text() == ",".join(columns) + "\n"


@_TABLE_COLUMNS
def test_json_cells_are_what_json_dumps_writes(tmp_path, columns):
    blocks, rows, tags = _cell_table(columns)
    outputs = {"csv": str(tmp_path / "o.csv"),
               "json": str(tmp_path / "r.json")}
    keys = columns + ("provenance",)
    summary = {"max": math.inf, "least": -0.0, "n": len(rows), "none": None}
    cli._write_outputs(outputs, columns, blocks,
                       {"samples": keys, "summary": summary})
    samples = [dict(zip(keys, [value for value, _ in row] + [tag]))
               for row, tag in zip(rows, tags)]
    assert (tmp_path / "r.json").read_text() == json.dumps(
        {"samples": samples, "summary": summary})
    cli._write_outputs(outputs, columns, [], {"samples": keys})
    assert (tmp_path / "r.json").read_text() == json.dumps({"samples": []})


def test_solve_reference_errors(tmp_path):
    cfg = {
        "problem": {"kind": "heat-dirichlet", "u0": "exp(-(x-1)^2)",
                    "f0": "exp(-1/(4*t+1))/sqrt(4*t+1)"},
        "grid": {"x_min": -2.0, "x_max": 2.0, "n_points": 9, "times": [1.0]},
        "reference": {"name": "gaussian-drift"},
        "outputs": {"csv": str(tmp_path / "o.csv")},
    }
    assert main(["solve", "--config", _write(tmp_path, cfg)]) == 0
    rows = list(csv.DictReader((tmp_path / "o.csv").read_text().splitlines()))
    assert max(float(r["abs_err"]) for r in rows) < 1e-6


def test_csv_round_trip_precision(tmp_path):
    cfg = json.loads(json.dumps(MINIMAL))
    out = tmp_path / "o.csv"
    cfg["outputs"] = {"csv": str(out), "json": str(tmp_path / "r.json")}
    assert main(["solve", "--config", _write(tmp_path, cfg)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    report = json.loads((tmp_path / "r.json").read_text())
    for row, sample in zip(rows, report["samples"]):
        assert abs(float(row["u_ac"]) - sample["u_ac"]) == 0.0



def _csv_float(text):
    return None if text == "" else float(text)


def _same_bits(csv_text, value):
    want = _csv_float(csv_text)
    return (want is None and value is None) or (
        isinstance(value, float) and want.hex() == value.hex())


def _run_with_report(tmp_path, command, cfg):
    cfg = json.loads(json.dumps(cfg))
    cfg["outputs"] = {"csv": str(tmp_path / "o.csv"),
                      "json": str(tmp_path / "r.json")}
    assert main([command, "--config", _write(tmp_path, cfg)]) == 0
    rows = list(csv.reader((tmp_path / "o.csv").read_text().splitlines()))
    text = (tmp_path / "r.json").read_text()
    report = json.loads(text)
    # compact: one line, as json.dumps writes it
    assert text == json.dumps(report)
    return rows[0], rows[1:], report


@pytest.mark.parametrize("kind,datum", [("sd-heat-dirichlet", "f0"),
                                        ("sd-heat-neumann", "f1")])
def test_lattice_solve_report_round_trips_the_csv(tmp_path, kind, datum):
    cfg = {"problem": {"kind": kind, "u0": "3*x*exp(-x)",
                       datum: "sin(4*pi*t)", "h": 0.05},
           "grid": {"n_min": -6, "n_max": 6, "times": [0.5]},
           "reference": {"expr": "0*x"}}
    header, rows, report = _run_with_report(tmp_path, "solve", cfg)
    assert set(report) == {"samples", "summary"}
    assert set(report["summary"]) == {"max_abs_err", "wall_time_s",
                                      "n_samples"}
    assert report["summary"]["n_samples"] == len(rows) == 13
    assert header == ["x", "t", "u_ac", "u_ref", "abs_err"]
    for row, sample in zip(rows, report["samples"]):
        assert set(sample) == set(header) | {"provenance"}
        assert all(_same_bits(text, sample[key])
                   for key, text in zip(header, row))
        assert sample["provenance"] == ("continued" if sample["x"] < 0
                                        else "interior")
    assert report["summary"]["max_abs_err"] == max(
        float(row[4]) for row in rows)


def test_converge_report_round_trips_the_csv(tmp_path):
    cfg = {"problem": {"kind": "sd-heat-neumann", "u0": "3*x*exp(-x)",
                       "f1": "sin(4*pi*t)", "h": 0.05},
           "grid": {"x_min": -0.5, "x_max": 0.5, "times": [0.5]},
           "refinement": {"h_values": [0.1, 0.05, 0.025]}}
    header, rows, report = _run_with_report(tmp_path, "converge", cfg)
    assert set(report) == {"errors", "observed_orders", "wall_time_s"}
    assert header == ["h", "max_err", "observed_order"]
    assert len(rows) == len(report["errors"]) == 3
    assert rows[0][2] == ""
    for row, entry, order in zip(rows, report["errors"],
                                 [None] + report["observed_orders"]):
        assert set(entry) == {"h", "max_err"}
        assert _same_bits(row[0], entry["h"])
        assert _same_bits(row[1], entry["max_err"])
        assert _same_bits(row[2], order)


def test_converge_with_an_exact_level_leaves_its_orders_empty(tmp_path):
    # zero data: every level's error is 0, and an order between levels
    # where either error is 0 is undefined, an empty cell like the first
    cfg = {"problem": {"kind": "sd-heat-dirichlet", "u0": "0*x",
                       "f0": "0*t", "h": 0.05},
           "grid": {"n_min": -20, "n_max": 20, "times": [0.5]},
           "refinement": {"h_values": [0.1, 0.05, 0.025]}}
    header, rows, report = _run_with_report(tmp_path, "converge", cfg)
    assert rows == [["0.10000000000000001", "0", ""],
                    ["0.050000000000000003", "0", ""],
                    ["0.025000000000000001", "0", ""]]
    assert report["observed_orders"] == [None, None]


def test_map_initial_report_round_trips_the_csv(tmp_path):
    header, rows, report = _run_with_report(tmp_path, "map-initial", MINIMAL)
    assert set(report) == {"samples", "summary"}
    assert set(report["summary"]) == {"left_limit", "right_limit", "jump",
                                      "wall_time_s"}
    assert header == ["x", "w0", "u0_analytic_continuation"]
    assert len(rows) == len(report["samples"]) == 5
    for row, sample in zip(rows, report["samples"]):
        assert set(sample) == set(header)
        assert all(_same_bits(text, sample[key])
                   for key, text in zip(header, row))


_REFERENCE = {
    "problem": {"kind": "heat-dirichlet", "u0": "exp(-(x-1)^2)",
                "f0": "exp(-1/(4*t+1))/sqrt(4*t+1)"},
    "grid": {"x_min": -2.0, "x_max": 2.0, "n_points": 9,
             "times": [0.5, 1.0]},
    "reference": {"name": "gaussian-drift"}}


def _old_report(command, rows, report):
    """The report as row dicts built it, from the CSV's rows (whose cells
    round-trip every double) and, for what no column carries, the written
    report's values."""
    rows = [[_csv_float(text) for text in row] for row in rows]
    if command == "converge":
        return {"errors": [{"h": h, "max_err": err} for h, err, _ in rows],
                "observed_orders": [order for _, _, order in rows[1:]],
                "wall_time_s": report["wall_time_s"]}
    if command == "map-initial":
        header = ("x", "w0", "u0_analytic_continuation")
        return {"samples": [dict(zip(header, row)) for row in rows],
                "summary": report["summary"]}
    header = ("x", "t", "u_ac", "u_ref", "abs_err")
    samples = [dict(zip(header, row))
               | {"provenance": "interior" if row[0] >= 0 else "continued"}
               for row in rows]
    errs = [s["abs_err"] for s in samples if s["abs_err"] is not None]
    return {"samples": samples,
            "summary": {"max_abs_err": max(errs) if errs else None,
                        "wall_time_s": report["summary"]["wall_time_s"],
                        "n_samples": len(samples)}}


@pytest.mark.parametrize("command,cfg", [
    ("solve", _REFERENCE),
    ("solve", {**_REFERENCE, "reference": None}),
    ("solve", {**LATTICE, "reference": {"expr": "0*x"}}),
    ("map-initial", {
        "problem": {**MINIMAL["problem"],
                    "u0": "exp(-x^2)*x/(x+1) + exp(-x^2)"},
        "grid": {"x_min": -2.0, "x_max": 0.0, "n_points": 3,
                 "times": [0.5]}}),
    ("converge", {"problem": {**LATTICE["problem"], "u0": "0*x",
                              "f0": "0*t"},
                  "grid": {"n_min": -20, "n_max": 20, "times": [0.5]},
                  "refinement": {"h_values": [0.1, 0.05, 0.025]}}),
], ids=["solve-reference-two-times", "solve-two-times", "lattice-solve",
        "map-initial-pole", "converge-null-orders"])
def test_report_text_is_json_dumps_of_the_row_dict_report(tmp_path, command,
                                                          cfg):
    _, rows, report = _run_with_report(tmp_path, command, cfg)
    assert (tmp_path / "r.json").read_text() == json.dumps(
        _old_report(command, rows, report))


@pytest.mark.parametrize("form", ["csv", "out"])
def test_csv_and_report_naming_one_file_is_config_error(tmp_path, capsys,
                                                        monkeypatch, form):
    # the report would overwrite the CSV; refused before any solving
    monkeypatch.setattr(cli, "lattice_profile",
                        lambda *args: pytest.fail("solved"))
    target = tmp_path / "o.txt"
    cfg = json.loads(json.dumps(LATTICE))
    cfg["outputs"] = {"json": f"{tmp_path}/./o.txt"}
    argv = ["solve", "--config"]
    if form == "out":
        argv += [_write(tmp_path, cfg), "--out", str(target)]
    else:
        cfg["outputs"]["csv"] = str(target)
        argv.append(_write(tmp_path, cfg))
    assert main(argv) == EXIT_CONFIG
    name = "--out" if form == "out" else "outputs.csv"
    assert capsys.readouterr().err == (
        f"config error: {name} and outputs.json name the same file "
        f"'{tmp_path}/./o.txt'\n")
    assert not target.exists()


def test_determinism(tmp_path):
    # repeat runs give the same bytes, and the solver over the reversed
    # points gives the same values, including the continued region x < 0
    # (a config grid itself must run up from x_min)
    from utmcont.cli import scenario_path

    for name in ("adv_plus", "kdv2_cos"):
        problem = json.loads(scenario_path(name).read_text())["problem"]

        def run(tag, x_min, x_max):
            out = tmp_path / f"{name}-{tag}.csv"
            cfg = {"problem": problem,
                   "grid": {"x_min": x_min, "x_max": x_max, "n_points": 5,
                            "times": [1.0]},
                   "outputs": {"csv": str(out)}}
            path = _write(tmp_path, cfg, f"{name}-{tag}.json")
            assert main(["solve", "--config", path]) == 0
            return out.read_text().splitlines()

        first = run("a", -1.0, 1.0)
        assert run("b", -1.0, 1.0) == first
        xs = [float(line.split(",")[0]) for line in first[1:]]
        reverse = cli.cont.evaluate_extended(cli.build_problem(problem),
                                             np.array(xs[::-1]), 1.0, 1e-10)
        assert reverse.tolist()[::-1] == [float(line.split(",")[2])
                                          for line in first[1:]]


def test_solve_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the lattice, heat and kdv2 sums run through BLAS (@); each scenario
    # runs in its own process under one and two OpenBLAS threads
    src = str(Path(cli.__file__).resolve().parents[1])
    for name in ("kdv2_te", "heat_te", "sd_heat"):
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"{name}-{threads}.csv"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           filter(None, [src, os.environ.get("PYTHONPATH")])))
            subprocess.run([sys.executable, "-m", "utmcont.cli", "solve",
                            "--scenario", name, "--out", str(out)],
                           env=env, check=True, timeout=120,
                           capture_output=True)
            outputs.append(out.read_bytes())
        assert outputs[0] and outputs[0] == outputs[1], name


def test_zero_datum_row_symmetry(tmp_path):
    cfg = {
        "problem": {"kind": "heat-dirichlet", "u0": "exp(-(x-1)^2)",
                    "f0": "0*t"},
        "grid": {"x_min": -2.0, "x_max": 2.0, "n_points": 9, "times": [0.5]},
        "outputs": {"csv": str(tmp_path / "o.csv")},
    }
    assert main(["solve", "--config", _write(tmp_path, cfg)]) == 0
    rows = list(csv.DictReader((tmp_path / "o.csv").read_text().splitlines()))
    vals = {round(float(r["x"]), 9): float(r["u_ac"]) for r in rows}
    for x in (0.5, 1.0, 2.0):
        assert vals[-x] == pytest.approx(-vals[x], abs=1e-10)


def test_map_initial_compatible_continuous(tmp_path):
    cfg = {
        "problem": {"kind": "heat-dirichlet", "u0": "exp(-(x-1)^2)",
                    "f0": "exp(-1/(4*t+1))/sqrt(4*t+1)"},
        "grid": {"x_min": -1.0, "x_max": 1.0, "n_points": 9, "times": [1.0]},
        "outputs": {"csv": str(tmp_path / "w.csv"),
                    "json": str(tmp_path / "w.json")},
    }
    assert main(["map-initial", "--config", _write(tmp_path, cfg)]) == 0
    report = json.loads((tmp_path / "w.json").read_text())
    assert report["summary"]["jump"] < 1e-8


def test_map_initial_te_jump(tmp_path):
    cfg = {
        "problem": {"kind": "heat-dirichlet", "u0": "exp(-(x-1)^2)",
                    "f0": "t*exp(-t)"},
        "grid": {"x_min": -1.0, "x_max": 1.0, "n_points": 9, "times": [1.0]},
        "outputs": {"csv": str(tmp_path / "w.csv"),
                    "json": str(tmp_path / "w.json")},
    }
    assert main(["map-initial", "--config", _write(tmp_path, cfg)]) == 0
    report = json.loads((tmp_path / "w.json").read_text())
    # tilde f0(0,0) = 2 f0(0) = 0, so the jump is 2 u0(0)
    assert report["summary"]["jump"] == pytest.approx(
        2 * math.exp(-1.0), abs=1e-6
    )


@pytest.mark.parametrize("scenario", ["heat_te", "fi_te_inv", "kdv1_te"])
def test_map_initial_makes_one_boundary_to_initial_call(scenario, tmp_path,
                                                        monkeypatch):
    # the grid and the four points of the jump estimate share one call
    calls = []
    original = cli.cont.boundary_to_initial

    def counted(spec, xs):
        calls.append(len(xs))
        return original(spec, xs)
    monkeypatch.setattr(cli.cont, "boundary_to_initial", counted)
    out = tmp_path / "w.csv"
    assert main(["map-initial", "--scenario", scenario, "--out",
                 str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert calls == [len(rows) + 4]


@pytest.mark.parametrize("c", [1e200, -1e200, 10 ** 400])
def test_drift_whose_square_overflows_is_config_error(tmp_path, capsys, c):
    # c^2/4 of the gauge must be a float; before, 1e200 reached the gauged
    # datum as the text exp(inf*t) and failed as a numerical failure
    cfg = json.loads(json.dumps(ADVECTED))
    cfg["problem"]["c"] = c
    cfg["outputs"] = {"csv": str(tmp_path / "o.csv")}
    assert main(["solve", "--config", _write(tmp_path, cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: problem.c must be at most ")
    assert not (tmp_path / "o.csv").exists()


def test_large_representable_drift_still_solves(tmp_path):
    cfg = json.loads(json.dumps(ADVECTED))
    cfg["problem"]["c"] = 4.0
    out = tmp_path / "o.csv"
    assert main(["solve", "--config", _write(tmp_path, cfg),
                 "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 4
    assert all(math.isfinite(float(row["u_ac"])) for row in rows)


@pytest.mark.parametrize("command", ["solve", "map-initial"])
def test_grid_past_the_tiling_depth_is_config_error(tmp_path, capsys,
                                                     monkeypatch, command):
    # the grid and L alone decide it, so it is refused before any solving
    for name in ("evaluate_extended", "boundary_to_initial"):
        monkeypatch.setattr(cli.cont, name,
                            lambda *args: pytest.fail("solved"))
    cfg = {"problem": {"kind": "heat-finite-interval", "u0": "exp(-(x-1)^2)",
                       "f0": "t", "g0": "t", "L": 1.0},
           "grid": {"x_min": -1.0, "x_max": 6.0, "n_points": 8,
                    "times": [1.0]},
           "outputs": {"csv": str(tmp_path / "o.csv")}}
    assert main([command, "--config", _write(tmp_path, cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err == ("config error: |x| = 6 beyond the "
                                       "supported tiling depth 5 L = 5\n")
    assert not (tmp_path / "o.csv").exists()


def test_map_initial_refusal_exit_code(tmp_path, capsys):
    cfg = {
        "problem": {"kind": "kdv-two-bc", "u0": "2*exp(-sqrt(3)*x)*cos(x)",
                    "f0": "0*t", "f1": "0*t"},
        "grid": {"x_min": -1.0, "x_max": 1.0, "n_points": 5, "times": [0.1]},
    }
    code = main(["map-initial", "--config", _write(tmp_path, cfg)])
    assert code == EXIT_REFUSED


def test_map_initial_unsupported_kind_is_config_error(capsys):
    # transport has no boundary-to-initial map: an unsupported request,
    # not a numerical failure
    code = main(["map-initial", "--scenario", "transport"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "boundary_to_initial" in err


def test_map_initial_has_no_tol_option(capsys):
    # w0 takes no tolerance, so --tol is refused rather than ignored
    with pytest.raises(SystemExit) as exc:
        main(["map-initial", "--scenario", "heat_te", "--tol", "1e-9"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


def test_converge_single_h_rejected(tmp_path):
    cfg = {
        "problem": {"kind": "sd-heat-dirichlet", "u0": "3*x*exp(-x)",
                    "f0": "sin(4*pi*t)", "h": 0.05},
        "grid": {"x_min": -1.0, "x_max": 1.0, "times": [0.5]},
        "refinement": {"h_values": [0.05]},
    }
    assert main(["converge", "--config", _write(tmp_path, cfg)]) == EXIT_CONFIG


@pytest.mark.parametrize("grid,window,h", [
    ({"x_min": 0.51, "x_max": 0.52}, "[0.51, 0.52]", "0.1"),
    ({"x_min": 1.0, "x_max": -1.0}, "[1, -1]", "0.1"),
    ({"n_min": 3, "n_max": -3}, "[0.15, -0.15]", "0.1"),
], ids=["narrow", "reversed-x", "reversed-n"])
def test_converge_window_without_a_node_is_config_error(
        tmp_path, capsys, monkeypatch, grid, window, h):
    # the window and the spacings alone decide it, before any solving
    monkeypatch.setattr(cli.cont, "evaluate_extended",
                        lambda *args: pytest.fail("solved"))
    cfg = {"problem": {"kind": "sd-heat-dirichlet", "u0": "3*x*exp(-x)",
                       "f0": "sin(4*pi*t)", "h": 0.05},
           "grid": {**grid, "times": [0.5]},
           "refinement": {"h_values": [0.1, 0.05, 0.025]}}
    assert main(["converge", "--config", _write(tmp_path, cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: converge window {window} holds no lattice node at "
        f"spacing h = {h}\n")


def test_converge_needs_one_time(tmp_path):
    cfg = {
        "problem": {"kind": "sd-heat-dirichlet", "u0": "3*x*exp(-x)",
                    "f0": "sin(4*pi*t)", "h": 0.05},
        "grid": {"x_min": -1.0, "x_max": 1.0, "times": [0.5, 2.0]},
        "refinement": {"h_values": [0.1, 0.05, 0.025]},
    }
    assert main(["converge", "--config", _write(tmp_path, cfg)]) == EXIT_CONFIG


def test_converge_order(tmp_path):
    cfg = {
        "problem": {"kind": "sd-heat-dirichlet", "u0": "3*x*exp(-x)",
                    "f0": "sin(4*pi*t)", "h": 0.05},
        "grid": {"x_min": -1.0, "x_max": 1.0, "times": [0.5]},
        "refinement": {"h_values": [0.1, 0.05, 0.025]},
        "outputs": {"csv": str(tmp_path / "c.csv"),
                    "json": str(tmp_path / "c.json")},
    }
    assert main(["converge", "--config", _write(tmp_path, cfg)]) == 0
    report = json.loads((tmp_path / "c.json").read_text())
    assert all(1.7 < o < 2.3 for o in report["observed_orders"])


def test_lattice_solve_antisymmetry(tmp_path):
    cfg = {
        "problem": {"kind": "sd-heat-dirichlet", "u0": "3*x*exp(-x)",
                    "f0": "0*t", "h": 0.05},
        "grid": {"n_min": -10, "n_max": 10, "times": [0.5]},
        "outputs": {"csv": str(tmp_path / "o.csv")},
    }
    assert main(["solve", "--config", _write(tmp_path, cfg)]) == 0
    rows = list(csv.DictReader((tmp_path / "o.csv").read_text().splitlines()))
    vals = {round(float(r["x"]) / 0.05): float(r["u_ac"]) for r in rows}
    for n in range(1, 11):
        assert vals[-n] == pytest.approx(-vals[n], abs=1e-10)


def test_lattice_samples_that_do_not_decay_are_a_numerical_failure(
        tmp_path, capsys):
    # 1/(1+x) never falls below the sample budget: the data transform would
    # be truncated, so the solve fails rather than exiting 0
    cfg = {
        "problem": {"kind": "sd-heat-dirichlet", "u0": "1/(1+x)",
                    "f0": "sin(4*pi*t)", "h": 0.05},
        "grid": {"n_min": -5, "n_max": 5, "times": [0.5]},
        "outputs": {"csv": str(tmp_path / "o.csv")},
    }
    assert main(["solve", "--config", _write(tmp_path, cfg)]) == EXIT_NUMERICS
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: u0 samples do not decay")
    assert "at m = 2002944" in err


@pytest.mark.parametrize("kind,extra", [("heat-dirichlet", {}),
                                        ("advected-heat", {"c": 1.0})])
def test_non_finite_initial_data_is_a_numerical_failure(tmp_path, capsys,
                                                        kind, extra):
    # u0 is NaN on [0, 0.5): its data rule refuses it rather than carrying
    # NaN into every row
    cfg = {"problem": {"kind": kind, "u0": "exp(-x)*sqrt(x-0.5)",
                       "f0": "t*exp(-t)", **extra,
                       "u0_decay": {"type": "exponential", "rate": 0.5}},
           "grid": {"x_min": -1.0, "x_max": 1.0, "n_points": 5,
                    "times": [1.0]},
           "outputs": {"csv": str(tmp_path / "o.csv")}}
    assert main(["solve", "--config", _write(tmp_path, cfg)]) == EXIT_NUMERICS
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("f0,refusal", [
    # 1.7e308 e^{-t} is finite, but the single layer's weighted sums of it
    # are not
    ("1.7e308*exp(-t)", re.escape(
        "numerical failure: dirichlet boundary row 0: value nan+nanj or "
        "error nan is not finite")),
    # its interval errors lie near the float maximum, so the share of the
    # budget each carries overflows, and the row misses its budget
    ("1e308*t^3", re.escape(
        "numerical failure: dirichlet boundary row 0: tolerance 5e-11 not "
        "met (") + r"error [^)]+\); worst subinterval \[.+\] in fractions "
     "of the segment"),
], ids=["sums-overflow", "errors-overflow"])
def test_overflowing_datum_prints_only_the_refusal(tmp_path, f0, refusal):
    # the row is refused, and stderr holds the refusal alone, no numpy
    # overflow warning (its own process, where warnings print)
    cfg = json.loads(json.dumps(MINIMAL))
    cfg["problem"]["f0"] = f0
    cfg["outputs"] = {"csv": str(tmp_path / "o.csv")}
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-m", "utmcont.cli", "solve",
                          "--config", _write(tmp_path, cfg)], env=env,
                         timeout=120, capture_output=True, text=True)
    assert run.returncode == EXIT_NUMERICS
    assert re.fullmatch(refusal + "\n", run.stderr), run.stderr
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("kind,data", [
    ("heat-dirichlet", {"f0": "1e308*t^3"}),
    ("heat-neumann", {"f1": "1e308*t^3"}),
    ("kdv-one-bc", {"f0": "1e308*t^3"}),
    ("heat-finite-interval", {"f0": "1e308*t^3", "g0": "0*t", "L": 1.0}),
])
def test_map_initial_of_a_datum_overflowing_at_one_order_is_refused(
        tmp_path, capsys, kind, data):
    # the datum's third derivative at t = 0 overflows and every one past
    # it is 0: its ladder reads the entries below the overflow, and a read
    # of the entry itself is refused
    cfg = {"problem": {"kind": kind, "u0": "exp(-x^2)", **data},
           "grid": {"x_min": -1.0, "x_max": 1.0, "n_points": 3,
                    "times": [1.0]},
           "outputs": {"csv": str(tmp_path / "o.csv")}}
    assert main(["map-initial", "--config",
                 _write(tmp_path, cfg)]) == EXIT_NUMERICS
    assert capsys.readouterr().err == (
        "numerical failure: evaluation produced a non-finite value\n")
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("kind,key,value", [
    # the datum is NaN on [0, 0.05) of [0, T]: its convolution refuses it
    ("sd-heat-dirichlet", "f0", "sqrt(t-0.05)"),
    ("sd-heat-neumann", "f1", "sqrt(t-0.05)"),
    # u0 is NaN at the samples m h < 0.5: they are refused as read
    ("sd-heat-dirichlet", "u0", "exp(-x)*sqrt(x-0.5)"),
], ids=["dirichlet-datum", "neumann-datum", "dirichlet-u0"])
def test_lattice_non_finite_data_are_a_numerical_failure(tmp_path, capsys,
                                                         kind, key, value):
    data = {"u0": "3*x*exp(-x)",
            "f0" if kind == "sd-heat-dirichlet" else "f1": "sin(4*pi*t)"}
    cfg = {"problem": {"kind": kind, **data, key: value, "h": 0.05},
           "grid": {"n_min": -2, "n_max": 3, "times": [0.1]},
           "outputs": {"csv": str(tmp_path / "o.csv")}}
    assert main(["solve", "--config", _write(tmp_path, cfg)]) == EXIT_NUMERICS
    assert "non-finite" in capsys.readouterr().err


def test_parser_is_built_once_and_keeps_no_state(monkeypatch):
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    parsed = []
    parse_args = parser.parse_args

    def recording(argv):
        args = parse_args(argv)
        parsed.append(vars(args))
        return args
    monkeypatch.setattr(parser, "parse_args", recording)
    calls = [
        (["solve", "--scenario", "no_such", "--tol", "1e-9",
          "--out", "a.csv"],
         {"command": "solve", "config": None, "scenario": "no_such",
          "out": "a.csv", "tol": 1e-9, "fn": cli.cmd_solve}),
        (["map-initial", "--config", "/nonexistent.json"],
         {"command": "map-initial", "config": "/nonexistent.json",
          "scenario": None, "out": None, "fn": cli.cmd_map_initial}),
        (["list-scenarios"],
         {"command": "list-scenarios", "fn": cli.cmd_list_scenarios}),
        (["converge", "--scenario", "no_such"],
         {"command": "converge", "config": None, "scenario": "no_such",
          "out": None, "tol": None, "fn": cli.cmd_converge}),
        (["solve", "--config", "/nonexistent.json"],
         {"command": "solve", "config": "/nonexistent.json",
          "scenario": None, "out": None, "tol": None, "fn": cli.cmd_solve}),
    ]
    for argv, want in calls:
        code = main(argv)
        assert code == (0 if argv[0] == "list-scenarios" else EXIT_CONFIG)
        assert parsed[-1] == want
    assert len(parsed) == len(calls)


def test_builtin_scenarios_validate():
    names = scenario_names()
    assert len(names) >= 12
    from utmcont.cli import scenario_path

    for name in names:
        validate_config(json.loads(scenario_path(name[:-5]).read_text()))


def _without(section, key):
    """A patch of a config: the key of the section removed."""
    return lambda cfg: cfg[section].pop(key)


def _setting(section, **items):
    """A patch of a config: the section's items set."""
    return lambda cfg: cfg[section].update(items)


@pytest.mark.parametrize("command,base,patch,message", [
    ("solve", MINIMAL, lambda cfg: cfg.update(problem=[1]),
     "config section 'problem' must be an object"),
    ("solve", MINIMAL, lambda cfg: cfg.update(grid=3),
     "config section 'grid' must be an object"),
    ("solve", MINIMAL, lambda cfg: cfg.pop("problem"),
     "config requires 'problem' and 'grid' sections"),
    ("solve", MINIMAL, lambda cfg: cfg.pop("grid"),
     "config requires 'problem' and 'grid' sections"),
    ("solve", MINIMAL, _setting("problem", kind="heat-robin"),
     "unknown problem kind 'heat-robin'"),
    ("solve", LATTICE, _setting("problem", h=0),
     "lattice problems require spacing h > 0"),
    ("solve", LATTICE, _setting("problem", h=-0.05),
     "lattice problems require spacing h > 0"),
    ("solve", LATTICE, _without("problem", "h"),
     "lattice problems require spacing h > 0"),
    ("solve", LATTICE, _without("problem", "f0"),
     "sd-heat-dirichlet requires u0 and f0"),
    ("solve", LATTICE, _setting("grid", n_min=5),
     "lattice grids need n_min < n_max"),
    ("solve", LATTICE, _setting("grid", n_min=6),
     "lattice grids need n_min < n_max"),
    ("converge", LATTICE, lambda cfg: None,
     "refinement.h_values needs at least three spacings"),
    ("converge", LATTICE,
     lambda cfg: [cfg.update(_h_values([0.2, 0.1, 0.05])),
                  cfg["grid"].pop("n_min")],
     "converge needs an x window (x_min/x_max) or lattice indices "
     "(n_min/n_max)"),
], ids=["problem-not-object", "grid-not-object", "no-problem", "no-grid",
        "unknown-kind", "lattice-h-zero", "lattice-h-negative",
        "lattice-h-missing", "lattice-datum-missing", "n-min-equal-n-max",
        "n-min-above-n-max", "converge-without-h-values",
        "converge-without-window"])
def test_config_error_branch_exits_2_with_its_message(tmp_path, capsys,
                                                      command, base, patch,
                                                      message):
    cfg = json.loads(json.dumps(base))
    patch(cfg)
    assert main([command, "--config", _write(tmp_path, cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_invalid_json_is_config_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    assert main(["solve", "--config", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        "config error: config is not valid JSON: ")


def test_neither_config_nor_scenario_is_config_error(capsys):
    assert main(["solve"]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: supply --config PATH or --scenario NAME\n")


def test_csv_goes_to_stdout_without_a_path(tmp_path, capsys):
    assert main(["solve", "--config", _write(tmp_path, MINIMAL)]) == 0
    rows = list(csv.reader(capsys.readouterr().out.strip().splitlines()))
    assert rows[0] == ["x", "t", "u_ac", "u_ref", "abs_err"]
    assert len(rows) == 1 + MINIMAL["grid"]["n_points"]


def test_map_initial_leaves_the_u0_cell_empty_at_a_pole(tmp_path):
    # u0 has a pole at x = -1, where w0 reflects u0(1) and stays finite
    cfg = json.loads(json.dumps(MINIMAL))
    cfg["problem"]["u0"] = "exp(-x^2)*x/(x+1) + exp(-x^2)"
    cfg["grid"].update(x_min=-2.0, x_max=0.0, n_points=3)
    out = tmp_path / "w0.csv"
    assert main(["map-initial", "--config", _write(tmp_path, cfg),
                 "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert [float(row["x"]) for row in rows] == [-2.0, -1.0, 0.0]
    assert rows[1]["u0_analytic_continuation"] == ""
    assert math.isfinite(float(rows[1]["w0"]))
    assert rows[0]["u0_analytic_continuation"] != ""
