"""Heat equation on the half-line: Dirichlet and Neumann boundary data.

The initial-condition part is the real-line k-integral of the data
transform, which is the finite sum of its rule (``_common.data_rule``,
its panels unsplit); term by term that integral is a heat kernel, so i0
is the method-of-images sum over the rule's nodes, with no k-quadrature,
and with a drift c it is advected heat's initial part too.
The boundary part for x >= 0 is one shared time rule for a whole array
of x; the Dirichlet single layer is ``_common.layer_potential`` with a
Gaussian kernel.  The solver table binds i0's image sign and continues
the boundary part to x < 0 by reflection plus a doubled series,
``_common.datum_ladder``: Dirichlet the even one of f0 (whose even
derivatives the datum pins), Neumann the odd one of f1.  w0 is that
reflection step at t = 0 with u0 in place of the boundary part.  Every
function of x takes a 1-D array.
"""

from __future__ import annotations

import math

import numpy as np

from ..quad import graded_fractions, integrate_segment, row_sums
from ._common import (data_rule, datum_coefficient, fractional_family,
                      layer_potential, over_factorial, real_part,
                      require_half_line)

SQRT_PI = math.sqrt(math.pi)


def i0(spec, sign, xs, t, tol):
    """Initial-condition part, entire in x, at each point of the 1-D array
    xs: (1/2pi) int_R e^{ikx - W t} u0_hat(k) dk, W = k^2 - ick with the
    spec's drift c (0 but for advected heat), plus the image sign s (-1
    for Dirichlet and advected heat, +1 for Neumann) times that integral
    of u0_hat(-k + ic) on a line Im k >= c.  Over the finite sum of the
    data rule each term is entire and Gaussian in k, so the image line
    moves to Im k = c and the value is the image sum, each x summed alone,
    of heat kernels
    sum_n c_n [G(x + ct - y_n, t) + s e^{-cx} G(x - ct + y_n, t)]; e^{-cx}
    sits in the image's exponential, so that it cannot overflow before the
    Gaussian damps it.  At c = 0 every shift is an exact zero."""
    c = spec.c
    y, weighted = (a.ravel() for a in data_rule(spec, tol))
    x = xs[:, None]
    kernels = (np.exp(-(x + c * t - y) ** 2 / (4.0 * t))
               + sign * np.exp(-c * x - (x - c * t + y) ** 2 / (4.0 * t)))
    return row_sums(kernels, weighted) / math.sqrt(4.0 * math.pi * t)


def boundary_integral(spec, xs, t, tol):
    """Boundary part on its native side, at each point x >= 0 of the 1-D
    array xs: the Dirichlet single layer (datum value at x = 0 by
    convention) or the Neumann kernel convolution (continuous there)."""
    require_half_line(xs, "heat boundary integral")
    if spec.kind == "heat-dirichlet":
        return single_layer(spec.f0, xs, t, tol)
    return _neumann_kernel_convolution(spec.f1, xs, t, tol)


def single_layer(f0, xs, t, tol):
    """int_0^t f0(s) G(x, t-s) ds with the first-derivative heat kernel G
    (classical single-layer potential), at each point x >= 0 of the 1-D
    array xs; f0(t) at x = 0, its limit as x -> 0+.  Over
    z = x/(2 sqrt(t-s)) it is the layer potential of f0 with q = 2, reach
    x/2 and the Gaussian kernel (2/sqrt(pi)) e^{-z^2}, over a span past
    which e^{-z^2} < e^{-5} tol/4."""
    return layer_potential(
        f0, xs / 2.0, t, 2, lambda z: np.exp(-z * z) * (2.0 / SQRT_PI),
        math.sqrt(math.log(4.0 / tol) + 5.0), tol, "dirichlet boundary")


def _neumann_kernel_convolution(f1, xs, t, tol):
    # -(1/sqrt(pi)) int_0^t f1(s) e^{-x^2/4(t-s)} / sqrt(t-s) ds, with
    # sigma = sqrt(t-s) removing the endpoint singularity; one row of
    # e^{-x^2/4 sigma^2} per x on the shared sigma-nodes.  That factor
    # rises from 0 to e^{-1} over sigma <= x/2, so the rule starts on panels
    # graded from the smallest positive x/2, doubling in width
    # (graded_fractions): each row's rise is resolved from the first round,
    # and a tiny x is not missed by every node

    def integrand(sigma):
        sigma = np.real(sigma)
        s = np.clip(t - sigma * sigma, 0.0, t)
        return f1.eval(s) * np.exp(-(xs * xs)[:, None] / (4.0 * sigma * sigma))

    upper = math.sqrt(t)
    first = min(upper, np.min(xs[xs > 0], initial=2.0 * upper) / 2.0)
    res = integrate_segment(integrand, 0.0, upper, tol=tol / 2,
                            edges=graded_fractions(upper, first))
    return real_part(-res.value * 2.0 / SQRT_PI, tol, "neumann boundary",
                     res.warnings)


# ---------------------------------------------------------------------------
# Taylor data
# ---------------------------------------------------------------------------


def dirichlet_odd_coefficient(spec, n, t, tol):
    """Full-series odd coefficient a_{2n-1}(t) of the Dirichlet boundary part
    (boundary-derivative sum plus square-root-singular time convolution)."""
    if n < 1:
        raise ValueError("odd coefficients start at n = 1")
    total = fractional_family(spec, "f0", n, t, 0.5, tol)
    return over_factorial(-total / math.pi, 2 * n - 1)


def full_series_coefficient(spec, order, t, tol):
    """Coefficient of x^order in the full Dirichlet boundary Taylor series."""
    if order % 2 == 0:
        return datum_coefficient(spec.deriv("f0"), order, t)
    return dirichlet_odd_coefficient(spec, (order + 1) // 2, t, tol)
