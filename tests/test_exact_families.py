"""Continued solutions against exact whole-line solutions, with bound tol.

Each cell solves the half-line problem whose data are the boundary trace of
an exact whole-line solution, the drifting Gaussian

    u(x, t) = e^{-(x + ct - 1)^2 / (1 + 4t)} / sqrt(1 + 4t),

and compares ``evaluate_extended`` with it on x in [-2, 3], continued
region included; the finite-interval row solves c = 0 on [0, L] with the
traces at both ends, on x in [-1, 2].  The KdV rows solve the modes
u = Re 2 e^{kappa x - s kappa^3 t}, kappa = -p + iq: one condition
(s = +1, p = q = 1) on x in [-2, 3], two conditions (s = -1, p = sqrt 3,
q = 1) on x in [-1, 2], with bound 1e-9 on the rows whose i0 the solver
accepts.  The exact values come from numpy alone, so the check shares no
code path with the solvers.  A cell that fails is a strict xfail naming
the ROADMAP item that fixes it, so the fix flips it.
"""

import math

import numpy as np
import pytest

from utmcont.continuous import ProblemSpec, evaluate_I0, evaluate_extended
from utmcont.expr import parse
from utmcont.quad import QuadratureError

TOL = 1e-10
XS = np.linspace(-2.0, 3.0, 26)
TIMES = (1e-3, 1e-2, 0.1, 1.0)

# kind, drift c, datum name, datum expression in t
FAMILIES = {
    "heat-dirichlet": ("heat-dirichlet", 0.0, "f0",
                       "exp(-1/(1+4*t))/sqrt(1+4*t)"),
    "heat-neumann": ("heat-neumann", 0.0, "f1",
                     "2*exp(-1/(1+4*t))/(1+4*t)^1.5"),
    "advected-c=+1": ("advected-heat", 1.0, "f0",
                      "exp(-(t-1)^2/(1+4*t))/sqrt(1+4*t)"),
    "advected-c=-1": ("advected-heat", -1.0, "f0",
                      "exp(-(-t-1)^2/(1+4*t))/sqrt(1+4*t)"),
}

# The data transform's fixed rule misses the high-k content these small
# times need (ROADMAP item 1): errors up to 1.5e-1 at t = 1e-3, and 3.5e-10
# (c = +1) and 2.3e-10 (c = -1) at t = 1e-2.
ITEM_1 = pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the half-line "
                           "data transform's rule at high k")
FAILING = {(name, 1e-3) for name in FAMILIES} | {
    ("advected-c=+1", 1e-2), ("advected-c=-1", 1e-2)}

CELLS = [pytest.param(name, t, id=f"{name}-t={t:g}",
                      marks=[ITEM_1] if (name, t) in FAILING else [])
         for name in FAMILIES for t in TIMES]


@pytest.mark.parametrize("name, t", CELLS)
def test_matches_exact_solution(name, t):
    kind, c, datum, trace = FAMILIES[name]
    spec = ProblemSpec(kind, c=c, u0=parse("exp(-(x-1)^2)"),
                       **{datum: parse(trace)})
    exact = np.exp(-(XS + c * t - 1) ** 2 / (1 + 4 * t)) / math.sqrt(1 + 4 * t)
    np.testing.assert_allclose(evaluate_extended(spec, XS, t, TOL), exact,
                               rtol=0, atol=TOL)


INTERVAL_XS = np.linspace(-1.0, 2.0, 31)


@pytest.mark.parametrize("t", TIMES, ids=[f"t={t:g}" for t in TIMES])
@pytest.mark.parametrize("L", [1.0, 1.2], ids=["L=1", "L=1.2"])
def test_finite_interval_matches_exact_solution(L, t):
    spec = ProblemSpec(
        "heat-finite-interval", L=L, u0=parse("exp(-(x-1)^2)"),
        f0=parse("exp(-1/(1+4*t))/sqrt(1+4*t)"),
        g0=parse(f"exp(-({L}-1)^2/(1+4*t))/sqrt(1+4*t)"))
    exact = (np.exp(-(INTERVAL_XS - 1) ** 2 / (1 + 4 * t))
             / math.sqrt(1 + 4 * t))
    np.testing.assert_allclose(evaluate_extended(spec, INTERVAL_XS, t, TOL),
                               exact, rtol=0, atol=TOL)


KDV_TOL = 1e-9
SQRT3 = math.sqrt(3.0)

# kind: (data, exact solution, x-grid)
KDV_FAMILIES = {
    "kdv-one-bc": (
        dict(u0="2*exp(-x)*cos(x)", f0="2*exp(-2*t)*cos(2*t)",
             u0_decay=("exponential", 1.0)),
        lambda x, t: 2 * np.exp(-x - 2 * t) * np.cos(x - 2 * t), XS),
    "kdv-two-bc": (
        dict(u0="2*exp(-sqrt(3)*x)*cos(x)", f0="2*cos(8*t)",
             f1="-2*sqrt(3)*cos(8*t) - 2*sin(8*t)"),
        lambda x, t: 2 * np.exp(-SQRT3 * x) * np.cos(x + 8 * t),
        INTERVAL_XS),
}

# The two-condition boundary parts miss the bound: 4.5e-9 at t = 1e-3,
# 1.3e-9 at t = 1e-2 and 1.2e-8 at t = 1, on x > 0 as well as behind the
# boundary, while i0 moves by rounding when its rule is refined.
ITEM_5 = pytest.mark.xfail(strict=True, reason="ROADMAP item 5: the "
                           "two-condition boundary remainder has no error "
                           "control")
KDV_FAILING = {("kdv-two-bc", 1e-3), ("kdv-two-bc", 1e-2),
               ("kdv-two-bc", 1.0)}

KDV_CELLS = [pytest.param(kind, t, id=f"{kind}-t={t:g}",
                          marks=[ITEM_5] if (kind, t) in KDV_FAILING else [])
             for kind in KDV_FAMILIES for t in TIMES]


def _kdv_spec(kind):
    return ProblemSpec(kind, **{name: parse(v) if isinstance(v, str) else v
                                for name, v in KDV_FAMILIES[kind][0].items()})


def accepted_rows(spec, xs, t, tol=KDV_TOL):
    """The points of xs whose i0 row the solver accepts, one call each."""
    kept = []
    for x in xs:
        try:
            evaluate_I0(spec, x, t, tol)
        except QuadratureError:
            continue
        kept.append(x)
    return np.array(kept)


@pytest.mark.parametrize("kind, t", KDV_CELLS)
def test_kdv_matches_exact_solution(kind, t):
    spec = _kdv_spec(kind)
    rows = accepted_rows(spec, KDV_FAMILIES[kind][2], t)
    assert rows.size >= 16
    np.testing.assert_allclose(evaluate_extended(spec, rows, t, KDV_TOL),
                               KDV_FAMILIES[kind][1](rows, t), rtol=0,
                               atol=KDV_TOL)


@pytest.mark.parametrize("t", [1e-3, 1e-2], ids=["t=0.001", "t=0.01"])
def test_kdv_one_bc_refuses_x_minus_2(t):
    # the data rule of u0 ends before the Airy kernel's growth at x = -2 is
    # damped; the row raises instead of returning the truncated sum
    with pytest.raises(QuadratureError, match="x = -2:"):
        evaluate_extended(_kdv_spec("kdv-one-bc"), XS, t, KDV_TOL)
