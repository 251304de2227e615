"""Advected heat equation u_t = u_xx + c u_x on the half-line.

The gauge u = E v, E(x, t) = e^{-cx/2 - c^2 t/4}, maps the problem onto
heat-Dirichlet for v with boundary datum g(t) = e^{c^2 t/4} f0(t) (k' = k -
ic/2 turns the dispersion k^2 - ick into k'^2 + c^2/4).  E is entire and
never zero, so the boundary part, its continuation, its Taylor data and w0
are the heat-Dirichlet ones of the gauged spec times E (for w0, with the
datum e^{cx/2} u0).  Every function of x takes a 1-D array.

The initial part is not gauged: e^{cx/2} u0 need not have a half-line
transform.  It is (1/2pi) int_R e^{ikx - W t} u0_hat(k) dk, W = k^2 - ick,
minus the same integral of u0_hat(-k + ic) over a line Im k = eta >= c, on
which that transform is defined.  u0_hat is the finite sum of the data
rule, so each node's term of either integrand is entire and Gaussian in k:
its line moves to Im k = c, and each integral is a heat kernel.  No
k-contour is integrated.
"""

from __future__ import annotations

import math

import numpy as np

from ..expr import parse
from ..quad import row_sums
from . import _common, heat
from ._common import (CoeffLadder, data_rule, datum_ladder, over_factorial,
                      require_half_line)
from .problems import ProblemSpec


def i0(spec, xs, t, tol):
    """Initial-condition part at each point of the 1-D array xs, taken term
    by term over the finite sum of the data rule (``data_rule``): the
    real-line piece of node y_n is c_n G(x + ct - y_n, t), and the shifted
    piece, entire in k for each node and so moved to Im k = c, is
    c_n e^{-cx} G(x - ct + y_n, t), with the heat kernel G.  The factor and
    the Gaussian of the second term are one exponential, so that a large
    e^{-cx} cannot overflow before the Gaussian damps it.  Each x is summed
    alone."""
    if spec.u0.is_zero:
        return np.zeros(xs.shape)
    c = spec.c
    y, weighted = (a.ravel() for a in data_rule(spec, tol))
    x = xs[:, None]
    kernels = (np.exp(-(x + c * t - y) ** 2 / (4.0 * t))
               - np.exp(-c * x - (x - c * t + y) ** 2 / (4.0 * t)))
    return row_sums(kernels, weighted) / math.sqrt(4.0 * math.pi * t)


def _gauged(spec):
    """The heat-Dirichlet spec of v (datum g), built once per spec."""
    if spec.gauged is None:
        var = spec.f0.var_name
        g = parse(f"exp({spec.c * spec.c / 4!r}*{var})",
                  var_name=var) * spec.f0
        spec.gauged = ProblemSpec("heat-dirichlet", u0=spec.u0, f0=g)
    return spec.gauged


def _gauge(c, x, t):
    """E(x, t) = e^{-c x / 2 - c^2 t / 4} at a point or at each point of an
    array."""
    return np.exp(-c * x / 2.0 - c * c * t / 4.0)


def boundary_integral(spec, xs, t, tol):
    """E(x, t) times the heat single-layer potential of g, at each point
    x >= 0 of the 1-D array xs; the datum value f0(t) at x = 0."""
    require_half_line(xs, "advected boundary integral")
    out = _gauge(spec.c, xs, t) * heat.single_layer(_gauged(spec).f0, xs, t,
                                                    tol)
    out[xs == 0] = float(spec.f0.eval(t))
    return out


def boundary_coefficient(spec, order, t, heat_ladder, gauge_series):
    """Taylor coefficient a_order(t) of the boundary part about x = 0: the
    Cauchy product of the series of E(., t), E(0, t) (-c/2)^k / k!, with the
    full heat-Dirichlet series of the gauged spec.  The heat series is read
    from ``heat_ladder`` (``coefficient_ladder`` builds it at t), and
    (-c/2)^k / k! from the list ``gauge_series``, which is extended through
    k = order."""
    c = spec.c
    for k in range(len(gauge_series), order + 1):
        gauge_series.append(over_factorial((-c / 2.0) ** k, k))
    total = sum(gauge_series[order - j] * h
                for j, h in heat_ladder.through(order))
    return float(_gauge(c, 0.0, t) * total)


def coefficient_ladder(spec, stride, t, tol):
    """Ladder of the boundary coefficients a_order(t) of the orders
    divisible by ``stride`` (1 for the full series, 2 for the even one
    doubled across x = 0), all of them read from one inner ladder, the
    "all" one of the gauged heat-Dirichlet boundary part at tolerance tol,
    and one series of E."""
    g, gauge_series = _gauged(spec), []
    inner = CoeffLadder(1, (0,), lambda j: heat.full_series_coefficient(
        g, j, t, tol))
    return CoeffLadder(stride, (0,), lambda order: boundary_coefficient(
        spec, order, t, inner, gauge_series))


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


def extended(spec, xs, t, tol):
    """u_ac(x, t) at each point of the 1-D array xs: i0 plus E(x, t) times
    the continued heat-Dirichlet boundary part of the gauged spec."""
    g = _gauged(spec)
    part = _common.reflected(
        xs, lambda dist: heat.boundary_integral(g, dist, t, tol),
        datum_ladder(g, "f0", "even", t), -1.0, tol)
    return i0(spec, xs, t, tol) + _gauge(spec.c, xs, t) * part


def boundary_to_initial(spec, xs):
    """w0 at each point of the 1-D array xs: E(x, 0) times the
    heat-Dirichlet w0 of the gauged spec with initial datum e^{cx/2} u0."""
    part = _common.reflected(
        xs, lambda dist: np.exp(spec.c * dist / 2.0) * spec.u0.eval(dist),
        datum_ladder(_gauged(spec), "f0", "even", 0.0), -1.0, 1e-13)
    return _gauge(spec.c, xs, 0.0) * part
