"""Heat equation on the half-line: Dirichlet and Neumann boundary data.

The initial-condition part is integrated over the real k-line (the sector
contour deforms there, and the Gaussian kernel makes every x reachable).  The
boundary part uses the closed heat-kernel convolution for x > 0, and the
reflection-plus-doubled-Taylor-series extension for x < 0.  Dirichlet doubles
the even series (the datum pins the even derivatives), Neumann the odd one.
"""

from __future__ import annotations

import math

import numpy as np

from ..quad import SingularKernel, integrate_segment, singular_time_convolution
from ..specfun import gamma
from . import _common
from ._common import (OutsideWindowError, datum_coefficient, datum_ladder,
                      doubled_series, like_input, over_factorial, real_part)

SQRT_PI = math.sqrt(math.pi)


def _i0_sign(kind):
    return -1.0 if kind == "heat-dirichlet" else 1.0


def i0(spec, x, t, tol=1e-10):
    """Initial-condition part, entire in x, at a point or a 1-D array of
    points.  The points share one adaptive k-rule, sized for the largest
    |x|, and each meets its own error budget."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if spec.u0.is_zero:
        return like_input(np.zeros(xs.shape), x)
    sign = _i0_sign(spec.kind)
    tf = spec.transform(max_im=0.0, tol=min(tol, 1e-12) * 1e-2)
    radius = math.sqrt((math.log(40.0 / tol) + 5.0) / t)

    def integrand(k):
        spectral = np.exp(-k * k * t) * (tf(k) + sign * tf(-k))
        return np.exp(1j * np.outer(xs, k)) * spectral

    panels = _common.oscillation_panels(2 * radius, np.max(np.abs(xs)), base=4)
    res = integrate_segment(integrand, -radius, radius, tol=tol / 2,
                            initial_panels=panels)
    return like_input(real_part(res.value / (2 * math.pi), tol, "heat i0"), x)


def boundary_integral(spec, x, t, tol=1e-10):
    """Boundary part on its native side (x > 0); x = 0 handled by convention
    for Dirichlet (datum value), directly for Neumann (continuous there)."""
    if spec.kind == "heat-dirichlet":
        if x == 0:
            return float(spec.f0.eval(t))
        if x < 0:
            raise OutsideWindowError("Dirichlet boundary integral needs "
                                     "x >= 0; use the extension for x < 0")
        return single_layer(spec.f0, x, t, tol)
    if x < 0:
        raise OutsideWindowError("Neumann boundary integral needs x >= 0; "
                                 "use the extension for x < 0")
    return _neumann_kernel_convolution(spec.f1, x, t, tol)


def single_layer(f0, x, t, tol=1e-10):
    """int_0^t f0(s) G(x, t-s) ds with the first-derivative heat kernel G
    (classical single-layer potential); the substitution z = x/(2 sqrt(t-s))
    yields a Gaussian-weighted smooth integrand.  Recovers f0(t) as x -> 0+.
    """
    z0 = x / (2.0 * math.sqrt(t))

    def integrand(z):
        z = np.real(np.asarray(z))
        s = t - x * x / (4.0 * z * z)
        return f0.eval(np.clip(s, 0.0, t)) * np.exp(-z * z)

    upper = z0 + math.sqrt(math.log(4.0 / tol) + 5.0)
    res = integrate_segment(integrand, z0, upper, tol=tol / 2)
    return real_part(res.value * 2.0 / SQRT_PI, tol, "dirichlet boundary")


def _neumann_kernel_convolution(f1, x, t, tol):
    # -(1/sqrt(pi)) int_0^t f1(s) e^{-x^2/4(t-s)} / sqrt(t-s) ds, with
    # sigma = sqrt(t-s) removing the endpoint singularity.
    def integrand(sigma):
        sigma = np.real(np.asarray(sigma))
        s = np.clip(t - sigma * sigma, 0.0, t)
        vals = f1.eval(s)
        if x != 0.0:
            with np.errstate(divide="ignore"):
                vals = vals * np.exp(-(x * x) / (4.0 * sigma * sigma))
        return vals

    res = integrate_segment(integrand, 0.0, math.sqrt(t), tol=tol / 2)
    return real_part(-res.value * 2.0 / SQRT_PI, tol, "neumann boundary")


# ---------------------------------------------------------------------------
# Taylor data
# ---------------------------------------------------------------------------


def tilde_ladder(spec, t):
    """Ladder of the doubled series across x = 0: even f0^(n)(t)/(2n)! for
    Dirichlet, odd f1^(p)(t)/(2p+1)! for Neumann."""
    if spec.kind == "heat-dirichlet":
        return datum_ladder(spec, "f0", "even", t)
    return datum_ladder(spec, "f1", "odd", t)


def dirichlet_odd_coefficient(spec, n, t, tol=1e-11):
    """Full-series odd coefficient a_{2n-1}(t) of the Dirichlet boundary part
    (boundary-derivative sum plus square-root-singular time convolution)."""
    if n < 1:
        raise ValueError("odd coefficients start at n = 1")
    cache = spec.deriv("f0")
    total = 0.0
    for m in range(1, n + 1):
        total += (
            (-1.0) ** (n - m)
            * gamma(n - m + 0.5)
            * t ** -(n - m + 0.5)
            * cache.value(m - 1, 0.0)
        )
    fn = cache.derivative(n)
    conv = singular_time_convolution(
        SingularKernel(0.5, lambda s: fn.eval(np.asarray(s, dtype=float))), t,
        tol=tol,
    )
    total += SQRT_PI * conv
    return over_factorial(-total, 2 * n - 1, math.pi)


def full_series_coefficient(spec, order, t, tol=1e-11):
    """Coefficient of x^order in the full Dirichlet boundary Taylor series."""
    if order % 2 == 0:
        return datum_coefficient(spec.deriv("f0"), order, t)
    return dirichlet_odd_coefficient(spec, (order + 1) // 2, t, tol)


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


def extended(spec, x, t, tol=1e-10):
    """u_ac(x, t) = i0 + extended boundary part at each point of the 1-D
    array x; i0 is integrated for the whole array at once."""
    base = i0(spec, x, t, tol)
    return base + np.array([_extended_boundary(spec, p, t, tol)
                            for p in x.tolist()])


def _extended_boundary(spec, x, t, tol):
    """Boundary part at x, continued to x < 0 by reflection plus the doubled
    series: odd reflection and even series for Dirichlet, even reflection
    and odd series for Neumann."""
    if spec.kind == "heat-dirichlet":
        if x > 0:
            return boundary_integral(spec, x, t, tol)
        if x == 0:
            return float(spec.f0.eval(t))
        return doubled_series(tilde_ladder(spec, t), x, tol) - \
            boundary_integral(spec, -x, t, tol)
    if x >= 0:
        return boundary_integral(spec, x, t, tol)
    return doubled_series(tilde_ladder(spec, t), x, tol) + \
        boundary_integral(spec, -x, t, tol)


def boundary_to_initial(spec, x):
    """w0(x): the whole-line initial condition of the extended solution."""
    if x >= 0:
        return float(spec.u0.eval(x))
    series = doubled_series(tilde_ladder(spec, 0.0), x, 1e-13)
    if spec.kind == "heat-dirichlet":
        return series - float(spec.u0.eval(-x))
    return series + float(spec.u0.eval(-x))
