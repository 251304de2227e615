"""Continued solutions against exact whole-line solutions, with bound tol.

Each cell solves the half-line problem whose data are the boundary trace of
an exact whole-line solution, the drifting Gaussian

    u(x, t) = e^{-(x + ct - 1)^2 / (1 + 4t)} / sqrt(1 + 4t),

and compares ``evaluate_extended`` with it on x in [-2, 3], continued
region included; the finite-interval row solves c = 0 on [0, L] with the
traces at both ends, on x in [-1, 2].  The exact values come from numpy
alone, so the check shares no code path with the solvers.  A cell that
fails is a strict xfail naming the ROADMAP item that fixes it, so the fix
flips it.
"""

import math

import numpy as np
import pytest

from utmcont.continuous import ProblemSpec, evaluate_extended
from utmcont.expr import parse

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
