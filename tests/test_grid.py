"""Grid evaluation: one call for an array of x against per-point calls."""

import json

import numpy as np
import pytest

from utmcont import cli, quad
from utmcont.continuous import (IncompatibleDataError, ProblemSpec, kdv,
                                boundary_to_initial,
                                evaluate_boundary_integral, evaluate_extended,
                                evaluate_I0, reference_whole_line)
from utmcont.continuous._common import ResidualWarning, real_part
from utmcont.expr import parse


@pytest.mark.parametrize("fixture, xs, t", [
    ("heat_gaussian", [-1.5, -0.5, 0.0, 0.4, 1.3], 0.5),
    ("neumann_spec", [-0.7, 0.0, 0.25, 0.9], 0.3),
    ("advected_plus", [-0.8, 0.0, 0.6, 1.7], 1.0),
    ("interval_gaussian", [-0.6, 0.0, 0.5, 1.0, 1.4], 0.5),
    ("kdv1_cos", [-1.2, -0.4, 0.0, 0.3, 1.1], 0.5),
    ("kdv2_cos", [-0.8, -0.3, 0.0, 0.3, 0.9], 0.2),
])
def test_array_matches_points(request, fixture, xs, t):
    spec = request.getfixturevalue(fixture)
    tol = 1e-10
    grid = evaluate_extended(spec, np.array(xs), t, tol)
    assert grid.shape == (len(xs),)
    points = [evaluate_extended(spec, x, t, tol) for x in xs]
    np.testing.assert_allclose(grid, points, rtol=0, atol=tol)


# (kind, datum, points on the datum's native window, the boundary point
# where a Dirichlet-type datum returns its own value; None for derivative
# data, which have no such convention)
BOUNDARY_CASES = [
    ("heat-dirichlet", "f0", [0.0, 0.15, 0.6, 1.3, 2.4], 0.0),
    ("heat-neumann", "f1", [0.0, 0.15, 0.6, 1.3, 2.4], None),
    ("advected-heat", "f0", [0.0, 0.15, 0.6, 1.3, 2.4], 0.0),
    ("kdv-one-bc", "f0", [0.0, 0.15, 0.6, 1.3, 2.4], 0.0),
    ("kdv-two-bc", "f0", [0.0, 0.15, 0.4, 0.7, 0.9], 0.0),
    ("kdv-two-bc", "f1", [0.0, 0.15, 0.4, 0.7, 0.9], None),
    ("heat-finite-interval", "f0", [0.0, 0.3, 0.9, 1.4, 1.9], 0.0),
    ("heat-finite-interval", "g0", [-0.8, -0.2, 0.4, 0.9, 1.0], 1.0),
]


@pytest.mark.parametrize("kind, which, xs, edge", BOUNDARY_CASES,
                         ids=[f"{k}-{w}" for k, w, _, _ in BOUNDARY_CASES])
def test_boundary_integral_array(fresh_spec, kind, which, xs, edge):
    spec = fresh_spec(kind)
    t, tol = 0.5, 1e-10
    xs = np.array(xs)
    grid = evaluate_boundary_integral(spec, which, xs, t, tol)
    assert grid.shape == xs.shape
    points = [evaluate_boundary_integral(spec, which, x, t, tol) for x in xs]
    np.testing.assert_allclose(grid, points, rtol=0, atol=tol)
    # a row depends only on its own x, not on its companions' order
    reverse = evaluate_boundary_integral(spec, which, xs[::-1], t, tol)
    assert reverse[::-1].tobytes() == grid.tobytes()
    if edge is not None:
        datum = float(getattr(spec, which).eval(t))
        assert grid[list(xs).index(edge)] == datum
        assert evaluate_boundary_integral(spec, which, edge, t, tol) == datum


@pytest.mark.parametrize("kind", sorted({k for k, _, _, _ in BOUNDARY_CASES}))
def test_empty_array_gives_empty_array(fresh_spec, kind):
    spec = fresh_spec(kind)
    empty = np.array([])
    for got in (evaluate_I0(spec, empty, 0.5),
                evaluate_extended(spec, empty, 0.5),
                *(evaluate_boundary_integral(spec, which, empty, 0.5)
                  for k, which, _, _ in BOUNDARY_CASES if k == kind)):
        assert got.shape == (0,) and got.dtype == float


# every kind with a w0, and points on both sides of its boundaries (the
# finite-interval points cover both tiling directions)
W0_CASES = [
    ("heat-dirichlet", [-1.5, -0.4, 0.0, 0.7, 1.8]),
    ("heat-neumann", [-1.5, -0.4, 0.0, 0.7, 1.8]),
    ("advected-heat", [-1.5, -0.4, 0.0, 0.7, 1.8]),
    ("kdv-one-bc", [-1.5, -0.4, 0.0, 0.7, 1.8]),
    ("kdv-two-bc", [-1.5, -0.4, 0.0, 0.7, 1.8]),
    ("heat-finite-interval", [-2.6, -0.4, 0.0, 0.5, 1.0, 1.7, 3.2]),
]
W0_KINDS = [kind for kind, _ in W0_CASES]


@pytest.mark.parametrize("kind, xs", W0_CASES, ids=W0_KINDS)
def test_w0_array_matches_points(fresh_spec, kind, xs):
    spec = fresh_spec(kind)
    xs = np.array(xs)
    grid = boundary_to_initial(spec, xs)
    assert grid.shape == xs.shape
    points = [boundary_to_initial(spec, x) for x in xs]
    assert all(isinstance(p, float) for p in points)
    np.testing.assert_allclose(grid, points, rtol=0, atol=1e-15)
    # a value depends only on its own x, not on its companions' order
    reverse = boundary_to_initial(spec, xs[::-1])
    assert reverse[::-1].tobytes() == grid.tobytes()


@pytest.mark.parametrize("kind", W0_KINDS)
def test_w0_empty_array_gives_empty_array(fresh_spec, kind):
    got = boundary_to_initial(fresh_spec(kind), np.array([]))
    assert got.shape == (0,) and got.dtype == float


@pytest.mark.parametrize("kind, xs", W0_CASES, ids=W0_KINDS)
def test_w0_of_constant_u0_has_grid_shape(kind, xs):
    data = {"heat-dirichlet": dict(f0="t"), "heat-neumann": dict(f1="t"),
            "advected-heat": dict(f0="t", c=1.0),
            "kdv-one-bc": dict(f0="t", u0_decay=("exponential", 1.0)),
            # compatible with u0 = 0, so x < 0 is allowed
            "kdv-two-bc": dict(f0="0*t", f1="0*t"),
            "heat-finite-interval": dict(f0="t", g0="t", L=1.0)}[kind]
    spec = ProblemSpec(kind, u0=parse("0"),
                       **{k: parse(v) if isinstance(v, str) else v
                          for k, v in data.items()})
    xs = np.array(xs)
    got = boundary_to_initial(spec, xs)
    assert got.shape == xs.shape and np.all(np.isfinite(got))


@pytest.mark.parametrize("t", [1e-3, 0.1, 1.0, 3.0])
@pytest.mark.parametrize("kind", W0_KINDS)
def test_i0_of_zero_u0_is_plus_zero(kind, t):
    # no initial part special-cases zero data: its sum over zero weights is
    # exactly +0.0 at every point, behind the boundary too
    data = {"heat-dirichlet": dict(f0="t"), "heat-neumann": dict(f1="t"),
            "advected-heat": dict(f0="t", c=1.0),
            "kdv-one-bc": dict(f0="t"),
            "kdv-two-bc": dict(f0="t", f1="t"),
            "heat-finite-interval": dict(f0="t", g0="t", L=1.5)}[kind]
    spec = ProblemSpec(kind, u0=parse("0"),
                       **{k: parse(v, var_name="t") if isinstance(v, str)
                          else v for k, v in data.items()})
    got = evaluate_I0(spec, np.linspace(-4.0, 5.0, 37), t, 1e-10)
    assert np.all(got == 0.0) and not np.signbit(got).any()


def test_w0_refuses_incompatible_data_only_behind_the_boundary():
    # u0(0) = 2 but f0 = 0: the corner conditions fail
    spec = ProblemSpec("kdv-two-bc", u0=parse("2*exp(-sqrt(3)*x)*cos(x)"),
                       f0=parse("0*t"), f1=parse("0*t"))
    with pytest.raises(IncompatibleDataError):
        boundary_to_initial(spec, np.array([0.3, -0.2, 1.0]))
    ahead = np.array([0.0, 0.3, 1.0])
    np.testing.assert_array_equal(boundary_to_initial(spec, ahead),
                                  spec.u0.eval(ahead))


def test_fi_te_inv_boundary_quadratures_stay_batched(tmp_path,
                                                     segment_calls):
    # Per-point image sums made 1,418 integrate_segment calls for fi_te_inv;
    # two array calls per datum and time need a small fraction of that.  A
    # count, not a time, so the guard is free of timing noise.
    out = tmp_path / "fi_te_inv.csv"
    assert cli.main(["solve", "--scenario", "fi_te_inv", "--out",
                     str(out)]) == 0
    assert 0 < len(segment_calls) < 0.10 * 1_418


def _fresh_spec(name):
    """A new spec, so no cache filled by another test (at another tol) is
    read."""
    gauss, trace = "exp(-(x-1)^2)", "exp(-1/(4*t+1))/sqrt(4*t+1)"
    if name == "heat":
        return ProblemSpec("heat-dirichlet", u0=parse(gauss), f0=parse(trace))
    if name == "neumann":
        return ProblemSpec("heat-neumann", u0=parse("exp(-x)*cos(3*pi*x)"),
                           f1=parse("-sin(4*pi*t)/(4*pi)"))
    if name == "advected":
        return ProblemSpec("advected-heat", c=1.0, u0=parse("exp(-x^2)"),
                           f0=parse("exp(-t^2/(4*t+1))/sqrt(4*t+1)"))
    if name == "interval":
        return ProblemSpec("heat-finite-interval", L=1.0, u0=parse(gauss),
                           f0=parse(trace), g0=parse("1/sqrt(4*t+1)"))
    return ProblemSpec("kdv-one-bc", u0=parse("2*exp(-x)*cos(x)"),
                       f0=parse("2*exp(-2*t)*cos(2*t)"),
                       u0_decay=("exponential", 1.0))


# (spec, x, t, value) computed by the per-point evaluation that preceded
# grid evaluation, at tol 1e-10; the interval rows at x = -0.5 and 1.7 by
# the two-quadrature image sum, which is closer to the exact solution
SCALAR_VALUES = [
    ("heat", -1.0, 1.0, 0.20094602160513517),
    ("heat", 0.0, 0.3, 0.4279392063499488),
    ("heat", 0.7, 1.0, 0.43923576664090486),
    ("neumann", -0.3, 0.5, 0.01193309288027173),
    ("advected", -0.5, 1.0, 0.425402731076321),
    ("advected", 0.8, 1.0, 0.23393336802192466),
    ("interval", -0.5, 1.0, 0.2851559782787678),
    ("interval", 1.0, 0.5, 0.5773502691896257),
    ("interval", 1.7, 1.0, 0.4054657161038895),
    ("kdv1", -0.5, 1.0, -0.3575186064777588),
]
SCALAR_I0 = [
    ("heat", -2.5, 0.01, -0.11269481173525973),
    ("advected", -1.5, 0.5, -0.4808118107003207),
    ("interval", 2.5, 0.2, 0.13451455057731815),
]


def test_scalar_calls_reproduce_point_values():
    specs = {name: _fresh_spec(name) for name in
             ("heat", "neumann", "advected", "interval", "kdv1")}
    for name, x, t, value in SCALAR_VALUES:
        got = evaluate_extended(specs[name], x, t, 1e-10)
        assert isinstance(got, float)
        assert got == pytest.approx(value, rel=0, abs=1e-14), (name, x, t)
        if name == "interval":
            # its data are traces of the drifting Gaussian, so the pins also
            # answer to the exact solution
            exact = reference_whole_line("gaussian-drift", x, t)
            assert got == pytest.approx(exact, rel=0, abs=1e-13), (x, t)
    for name, x, t, value in SCALAR_I0:
        got = evaluate_I0(specs[name], x, t, 1e-10)
        assert got == pytest.approx(value, rel=0, abs=1e-14), (name, x, t)


def _solve_recording_spec(name, tmp_path, monkeypatch):
    """Run the built-in scenario ``name`` through ``cli.main`` and return
    the spec it solved."""
    specs = []
    build = cli.build_problem

    def recording(cfg):
        problem = build(cfg)
        specs.append(problem)
        return problem

    monkeypatch.setattr(cli, "build_problem", recording)
    cfg = json.loads(cli.scenario_path(name).read_text())
    cfg["outputs"] = {"csv": str(tmp_path / f"{name}.csv")}
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["solve", "--config", str(path)]) == 0
    (spec,) = specs
    return spec


@pytest.mark.parametrize("values", [
    np.array([1 + 0j, np.nan + 0j]),
    np.array([complex(1.0, np.nan)]),
    np.array([np.inf + 0j]),
    np.array([0.5 + 0j, 1 + 1e-3j]),
])
def test_real_part_refuses_nan_and_residuals(values):
    # a NaN compares false against any budget, so it is refused explicitly
    with pytest.raises(ResidualWarning, match=f"row {len(values) - 1}"):
        real_part(values, 1e-10, "probe")


def test_real_part_keeps_finite_bytes():
    values = np.array([1.5 + 1e-13j, -2.25 - 1e-12j, 3e-300 + 0j])
    assert real_part(values, 1e-10, "probe").tobytes() == values.real.tobytes()


def test_kdv1_te_transform_nodes_stay_shared(tmp_path, monkeypatch):
    # Per-point evaluation left 51,870 transform cache entries for kdv1_te
    # (one transform, at the contour's height above the real axis).  Its
    # i0 is now an Airy sum over one data rule: the solve evaluates the
    # transform at no k, and the 41 points of its one time read one rule,
    # built once.
    builds, evaluated = [], []
    build = kdv.data_rule

    def recording(spec, *args):
        builds.append(spec)
        return build(spec, *args)

    monkeypatch.setattr(kdv, "data_rule", recording)
    monkeypatch.setattr(quad.HalfLineTransform, "__call__",
                        lambda self, k: evaluated.append(k))
    spec = _solve_recording_spec("kdv1_te", tmp_path, monkeypatch)
    assert len(builds) == 1 and builds[0] is spec
    assert evaluated == []
