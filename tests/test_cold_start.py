"""Start-up: a command imports scipy only when its problem evaluates a
special function (Ai, K_{1/3}, Gamma or H_n).

Each check runs in a fresh interpreter, since this one has imported scipy
already (the tests import it directly).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import utmcont
from utmcont.cli import main

SRC = str(Path(utmcont.__file__).resolve().parents[1])

# run in a fresh interpreter: the commands given as JSON in argv[1], each
# writing to argv[2]/<scenario>.csv, then print their exit codes and the
# scipy modules loaded, as JSON
_RUN = """
import json, sys
import utmcont, utmcont.cli, utmcont.continuous, utmcont.semidiscrete
codes = [utmcont.cli.main([command, "--scenario", name,
                           "--out", f"{sys.argv[2]}/{name}.csv"])
         for command, name in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "scipy": sorted(
    m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def _fresh(commands, out_dir):
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run(
        [sys.executable, "-c", _RUN, json.dumps(commands), str(out_dir)],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_importing_the_package_loads_no_scipy(tmp_path):
    assert _fresh([], tmp_path) == {"codes": [], "scipy": []}


def test_commands_without_special_functions_load_no_scipy(tmp_path):
    commands = [("solve", "heat_gaussian"), ("map-initial", "kdv1_cos"),
                ("converge", "sd_heat"), ("solve", "sd_heat_neumann")]
    assert _fresh(commands, tmp_path) == {"codes": [0, 0, 0, 0],
                                          "scipy": []}
    for _, name in commands:
        assert (tmp_path / f"{name}.csv").stat().st_size > 0


def test_kdv_solve_loads_scipy_and_keeps_its_bytes(tmp_path):
    fresh = _fresh([("solve", "kdv1_cos")], tmp_path)
    assert fresh["codes"] == [0]
    assert "scipy.special" in fresh["scipy"]
    here = tmp_path / "here.csv"
    assert main(["solve", "--scenario", "kdv1_cos", "--out", str(here)]) == 0
    assert (tmp_path / "kdv1_cos.csv").read_bytes() == here.read_bytes()
