"""The benchmark's own tests.

Run from the root of the checkout:

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads
from families import DriftingGaussian, KdvMode, LatticeMode

ROOT = Path(__file__).resolve().parents[1]
RUN = [sys.executable, "perfbench/run.py"]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    proc = subprocess.run(RUN + list(args), cwd=cwd, capture_output=True,
                          text=True, timeout=170)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _exact_rows(exact, xs, t):
    return [{"x": x, "t": t, "u_ac": exact(x, t)} for x in xs]


def test_checker_accepts_exact_and_rejects_perturbed_output():
    g = DriftingGaussian(0.9, 1.1)
    check = workloads.check_exact("u_ac", g.u,
                                  workloads.SOLVE_ATOL["heat-dirichlet"])
    rows = _exact_rows(g.u, [-2.0, -0.5, 0.0, 1.5], 1.0)
    assert check(rows) == []
    rows[1]["u_ac"] += 1e-6
    assert len(check(rows)) == 1
    rows[1]["u_ac"] = None
    assert len(check(rows)) == 1


def test_golden_check_rejects_perturbed_output():
    golden = workloads.load_golden()
    for key, tol in (("solve/heat_te", 1e-10),
                     (f"taylor/kdv-one-bc/f0/all/{workloads.TAYLOR_N}",
                      100 * workloads.TAYLOR_TOL)):
        values = list(golden[key])
        check = workloads.check_golden(key, tol, golden)
        assert check(values) == []
        i = next(i for i, v in enumerate(values) if v and abs(v) > 1e-300
                 and i > 3)
        values[i] *= 1 + 1e-6
        assert check(values), key
        assert check(values[:-1]), key


def test_exact_families_solve_their_equations():
    """Finite-difference residuals of the exact solutions the checks use."""
    h = 1e-4
    g = DriftingGaussian(0.8, 1.2, c=-0.9)
    x, t = -0.7, 0.6
    ut = (g.u(x, t + h) - g.u(x, t - h)) / (2 * h)
    uxx = (g.u(x + h, t) - 2 * g.u(x, t) + g.u(x - h, t)) / h ** 2
    ux = (g.u(x + h, t) - g.u(x - h, t)) / (2 * h)
    assert abs(ut - uxx - g.c * ux) < 1e-5
    for sign in (+1, -1):
        m = KdvMode(1.1, 0.95, sign)
        hh = 1e-3
        ut = (m.u(x, t + hh) - m.u(x, t - hh)) / (2 * hh)
        uxxx = (m.u(x + 2 * hh, t) - 2 * m.u(x + hh, t)
                + 2 * m.u(x - hh, t) - m.u(x - 2 * hh, t)) / (2 * hh ** 3)
        assert abs(ut + sign * uxxx) < 1e-4
    lat = LatticeMode(1.2, 4.0, 0.02)
    ut = (lat.u(-3, t + h) - lat.u(-3, t - h)) / (2 * h)
    lap = (lat.u(-2, t) - 2 * lat.u(-3, t) + lat.u(-4, t)) / lat.h ** 2
    assert abs(ut - lap) < 1e-5 * max(1.0, abs(lap))


def test_seed_fixes_the_inputs():
    for name in workloads.WORKLOADS:
        a, b, c = (workloads.build(name, seed, golden={})
                   for seed in (7, 7, 8))
        assert [(o.name, o.config) for o in a] == [(o.name, o.config)
                                                   for o in b]
        assert [o.config for o in a] != [o.config for o in c]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_of_every_workload_passes(workload):
    res = _result(_run("--workload", workload, "--seed", "3", "--seconds",
                       "0.1", "--trace", "0", "--smoke"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    for m in BENCH["end_to_end"]:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0


def test_traced_counts_repeat_exactly():
    names = {m["name"] for m in BENCH["per_layer"]}
    runs = []
    for _ in range(2):
        res = _result(_run("--workload", "lattice", "--seed", "4", "--seconds",
                           "0.1", "--trace", "1", "--smoke"))
        assert set(res["metrics"]) == names
        runs.append({k: v["value"] for k, v in res["metrics"].items()
                     if v["unit"] in ("count", "bytes", "ratio")})
    assert runs[0] == runs[1]
    assert runs[0]["quad.segment.calls"] > 0


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "sweep", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_converge_points_count_the_study_window():
    study = workloads.build("lattice", 1, golden={})[-1]
    assert study.command == "converge"
    # window [-1, 1] at spacings 0.1, 0.05 and 0.025
    assert study.points == 21 + 41 + 81


def test_an_op_without_output_fails(tmp_path):
    import run

    class Silent:
        @staticmethod
        def main(argv):
            return 0

    op = workloads.Op("solve/silent", "solve",
                      workloads.check_exact("u_ac", lambda x, t: 0.0, 1e-9))
    op.outputs = [tmp_path / "op0.csv"]
    _, points, failure = run.run_op(op, Silent, None, None)
    assert points == 0 and failure.startswith("unreadable output")


def test_tracer_refuses_a_program_missing_a_target(monkeypatch):
    import run
    import tracing

    run.import_program(ROOT)
    import utmcont.quad as quad

    segment = quad.integrate_segment
    monkeypatch.delattr(quad, "finite_interval_transform")
    tracer = tracing.Tracer()
    with pytest.raises(tracing.TraceError, match="finite_interval_transform"):
        tracer.install()
    assert quad.integrate_segment is segment  # nothing was patched


def test_counters_refuse_a_missing_container():
    import tracing

    with pytest.raises(tracing.TraceError, match="_cache"):
        tracing._transform_before(None, (object(), [1.0]), {})


def test_finite_check_flags_nan():
    assert workloads.check_finite([1.0, 2.0]) == []
    assert workloads.check_finite([1.0, float("nan")])


def test_meter_rescales_to_the_reference_speed():
    import speed

    meter = speed.Meter()
    # two samples at half the reference speed, then one at the reference
    meter.inverse = [0.5 / speed.REFERENCE_S] * 2 + [1.0 / speed.REFERENCE_S]
    meter.spent = 0.3
    # 1.1 s of wall time, 0.1 s of it sampling, over the last two samples
    assert abs(meter.rescale(1.1, (1, 0.2)) - 0.75) < 1e-12
    # an interval with no sample inside reads the latest one before it
    assert abs(meter.rescale(0.4, (3, 0.3)) - 0.4) < 1e-12


def test_meter_samples_while_started():
    import time

    import speed

    meter = speed.Meter()
    meter.start()
    try:
        since = meter.mark()
        started = time.perf_counter()
        while time.perf_counter() - started < 5 * speed.SAMPLE_EVERY_S:
            pass
        wall = time.perf_counter() - started
    finally:
        meter.stop()
    assert len(meter.inverse) - since[0] >= 3
    assert 0 < meter.rescale(wall, since) < 10 * wall
