"""Advected heat equation u_t = u_xx + c u_x on the half-line.

The gauge u = E v, E(x, t) = e^{-cx/2 - c^2 t/4}, maps the problem onto
heat-Dirichlet for v with boundary datum g(t) = e^{c^2 t/4} f0(t) (k' = k -
ic/2 turns the dispersion k^2 - ick into k'^2 + c^2/4).  E is entire and
never zero, so the boundary part, its continuation, its Taylor data and w0
are the heat-Dirichlet ones of the gauged spec times E (for w0, with the
datum e^{cx/2} u0).  Every function of x takes a 1-D array.  The initial part
keeps its shifted contour: e^{cx/2} u0 need not have a half-line transform.

That contour is the line Im k = eta with eta = max(c, 0) + SHIFT_MARGIN:
the lowest height the data transform allows, plus a margin.  Its integrand
e^{ikx - W t} u0_hat(-k + ic) divides by nothing, so no zero of W has to be
stepped over; u0_hat is the half-line transform, defined for
Im(-k + ic) <= 0, i.e. eta >= c.  On the line the integrand grows like
e^{eta max(-x, 0) + eta (eta - c) t}, so a higher eta only raises the
rounding floor of the quadrature error estimate at x < 0.
"""

from __future__ import annotations

import math

import numpy as np

from ..expr import parse
from ..quad import integrate_segment
from . import _common, heat
from ._common import (COEFF_TOL, cached_ladder, growth_radius,
                      over_factorial, real_part, require_half_line)
from .problems import ProblemSpec

# Height of the shifted initial-part contour above Im k = max(c, 0), the
# lowest the data transform allows; it keeps Im(-k + ic) < 0, so the
# transform's integrand gains a factor e^{-SHIFT_MARGIN y} on top of u0's
# own decay.
SHIFT_MARGIN = 0.25


def i0(spec, xs, t, tol=1e-10):
    """Initial-condition part at each point of the 1-D array xs: real-line
    integral minus the reflected-argument transform integrated over the
    horizontal contour Im k = max(c, 0) + SHIFT_MARGIN: the lowest height
    at which u0_hat(-k + ic) is defined, plus a margin, since a higher
    contour only raises the integrand's size at x < 0 and with it the
    rounding floor of the error estimate.  The points share one adaptive
    k-rule per piece, sized for the largest |x|."""
    if spec.u0.is_zero:
        return np.zeros(xs.shape)
    c = spec.c
    tf = spec.transform(max_im=0.0, tol=min(tol, 1e-12) * 1e-2)
    log_target = math.log(40.0 / tol) + 5.0
    x_max = float(np.max(np.abs(xs)))

    # piece 1: (1/2pi) int_R e^{ikx - W t} u0_hat(k) dk, W = k^2 - ick
    radius = math.sqrt(log_target / t)

    def line_part(k):
        w = k * k - 1j * c * k
        spectral = np.exp(-w * t) * tf(k)
        return np.exp(1j * np.outer(xs, k)) * spectral

    panels = _common.oscillation_panels(2 * radius, x_max + abs(c) * t, base=4)
    p1 = integrate_segment(line_part, -radius, radius, tol=tol / 4,
                           initial_panels=panels)

    # piece 2: -(1/2pi) int_{Im k = eta} e^{ikx - W t} u0_hat(-k + ic) dk
    eta = max(c, 0.0) + SHIFT_MARGIN
    kappa = growth_radius(t, x_max + 2 * eta * t + abs(c) * t,
                          log_target + eta * (x_max + eta * t))

    def shifted_part(kappa_arr):
        k = kappa_arr + 1j * eta
        w = k * k - 1j * c * k
        spectral = np.exp(-w * t) * tf(-k + 1j * c)
        return np.exp(1j * np.outer(xs, k)) * spectral

    p2 = integrate_segment(lambda z: shifted_part(np.real(z)), -kappa, kappa,
                           tol=tol / 4, initial_panels=panels)
    value = (p1.value - p2.value) / (2 * math.pi)
    return real_part(value, tol, "advected i0")


def _gauged(spec):
    """The heat-Dirichlet spec of v (datum g), built once per spec."""
    if spec.gauged is None:
        var = spec.f0.var_name
        g = parse(f"exp({spec.c * spec.c / 4!r}*{var})",
                  var_name=var) * spec.f0
        spec.gauged = ProblemSpec("heat-dirichlet", u0=spec.u0, f0=g)
    return spec.gauged


def _gauge(c, x, t):
    """E(x, t) at a point, or at each point of an array (math.exp at a
    point, so the Taylor coefficients keep the bits of the libm exp)."""
    if np.ndim(x) == 0:
        return math.exp(-c * x / 2.0 - c * c * t / 4.0)
    return np.exp(-c * x / 2.0 - c * c * t / 4.0)


def boundary_integral(spec, xs, t, tol=1e-10):
    """E(x, t) times the heat single-layer potential of g, at each point
    x >= 0 of the 1-D array xs; the datum value f0(t) at x = 0."""
    require_half_line(xs, "advected boundary integral")
    out = _gauge(spec.c, xs, t) * heat.single_layer(_gauged(spec).f0, xs, t,
                                                    tol)
    out[xs == 0] = float(spec.f0.eval(t))
    return out


def boundary_coefficient(spec, order, t, tol=1e-11):
    """Taylor coefficient a_order(t) of the boundary part about x = 0: the
    Cauchy product of the series of E(., t) with the full heat-Dirichlet
    series of the gauged spec."""
    c = spec.c
    g = _gauged(spec)
    heat_ladder = cached_ladder(
        g, ("f0", "all", t, tol), 1, (0,),
        lambda j: heat.full_series_coefficient(g, j, t, tol))
    total = sum(over_factorial((-c / 2.0) ** (order - j), order - j) * h
                for j, h in heat_ladder.through(order))
    return _gauge(c, 0.0, t) * total


def tilde_ladder(spec, t, tol=COEFF_TOL):
    """Ladder of the even boundary coefficients a_2n(t)."""
    return cached_ladder(
        spec, ("f0", "even", t, tol), 2, (0,),
        lambda order: boundary_coefficient(spec, order, t, tol))


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


def extended(spec, xs, t, tol=1e-10):
    """u_ac(x, t) at each point of the 1-D array xs: i0 plus E(x, t) times
    the continued heat-Dirichlet boundary part of the gauged spec."""
    g = _gauged(spec)
    part = _common.reflected(
        xs, lambda dist: heat.boundary_integral(g, dist, t, tol),
        heat.tilde_ladder(g, t), -1.0, tol)
    return i0(spec, xs, t, tol) + _gauge(spec.c, xs, t) * part


def boundary_to_initial(spec, xs):
    """w0 at each point of the 1-D array xs: E(x, 0) times the
    heat-Dirichlet w0 of the gauged spec with initial datum e^{cx/2} u0."""
    part = _common.reflected(
        xs, lambda dist: np.exp(spec.c * dist / 2.0) * spec.u0.eval(dist),
        heat.tilde_ladder(_gauged(spec), 0.0), -1.0, 1e-13)
    return _gauge(spec.c, xs, 0.0) * part
