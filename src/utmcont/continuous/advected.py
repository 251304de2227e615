"""Advected heat equation on the half-line (non-self-adjoint kernel).

The boundary part keeps the closed drift-Gaussian kernel for x > 0.  The
even Taylor coefficients of the boundary integral are genuine contour
integrals here (the drift breaks the parity that collapses them for plain
heat): each coefficient combines moment integrals of the kernel family
phi_m over a horizontal contour above the dispersion zeros with a smooth
time convolution, both evaluated in a self-similar scaled form so the
small-time limit is stable.
"""

from __future__ import annotations

import math

import numpy as np

from ..quad import integrate_segment
from . import _common
from ._common import (COEFF_TOL, OutsideWindowError, cached_ladder,
                      doubled_series, growth_radius, like_input,
                      over_factorial, real_part)

SQRT_PI = math.sqrt(math.pi)


def i0(spec, x, t, tol=1e-10):
    """Initial-condition part at a point or a 1-D array of points: real-line
    integral minus the reflected-argument transform integrated over a
    horizontal contour above the zeros of W.  The points share one adaptive
    k-rule per piece, sized for the largest |x|."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if spec.u0.is_zero:
        return like_input(np.zeros(xs.shape), x)
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
    eta = abs(c) + 1.0
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
    return like_input(real_part(value, tol, "advected i0"), x)


def boundary_integral(spec, x, t, tol=1e-10):
    """Drift-Gaussian convolution of f0, valid for x > 0 (datum at x = 0)."""
    if x == 0:
        return float(spec.f0.eval(t))
    if x < 0:
        raise OutsideWindowError("advected boundary integral needs x >= 0; "
                                 "use the extension for x < 0")
    c = spec.c
    f0 = spec.f0
    z0 = x / (2.0 * math.sqrt(t))

    def integrand(z):
        z = np.real(np.asarray(z))
        s = np.clip(t - x * x / (4.0 * z * z), 0.0, t)
        extra = -(c * c) * x * x / (16.0 * z * z)
        return f0.eval(s) * np.exp(-z * z + extra)

    upper = z0 + math.sqrt(math.log(4.0 / tol) + 5.0)
    res = integrate_segment(integrand, z0, upper, tol=tol / 2, rel_tol=tol)
    return real_part(
        res.value * 2.0 / SQRT_PI * math.exp(-c * x / 2.0), tol,
        "advected boundary",
    )


# ---------------------------------------------------------------------------
# Taylor coefficients of the boundary part
# ---------------------------------------------------------------------------


def _phi_grid(j, mu_max, tol):
    """Fixed Gauss panels along the scaled horizontal contour for the moment
    integrals; height clears the scaled dispersion zeros at 0 and i*mu."""
    height = max(1.0, 2.0 * mu_max)
    radius = math.sqrt(j + mu_max * mu_max + math.log(4.0 / tol) + 8.0) + height
    x16, w16 = np.polynomial.legendre.leggauss(16)
    panels = max(12, int(3 * radius))
    edges = np.linspace(-radius, radius, panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halves = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mids[:, None] + halves[:, None] * x16[None, :]).ravel() + 1j * height
    weights = (halves[:, None] * w16[None, :]).ravel()
    return nodes, weights


def _phi_moments_scaled(c, j, m_list, sqrt_t, tol):
    """Scaled moment integrals I(m) with
    phi_m^{(j)}(0,t) = -((-1)^m / 2pi) t^{m-(j+2)/2} I(m), mu = c sqrt(t)."""
    mu = c * sqrt_t
    nodes, weights = _phi_grid(j, abs(mu), tol)
    base = (1j * nodes) ** j * (2j * nodes + mu) * np.exp(
        -nodes * nodes + 1j * nodes * mu
    )
    wpow = nodes * nodes - 1j * nodes * mu
    out = {}
    denom = np.ones_like(nodes)
    power = 0
    for m in sorted(m_list):
        while power < m:
            denom = denom * wpow
            power += 1
        out[m] = complex(np.sum(weights * base / denom))
    return out


def _conv_kernel_batch(c, j, m, sig, tol):
    """Scaled moment integral I(m) for a batch of sqrt(tau) values, sharing
    one contour grid sized for the largest |mu|."""
    mu = c * sig
    nodes, weights = _phi_grid(j, float(np.max(np.abs(mu))), tol)
    nd = nodes[None, :]
    mu2 = mu[:, None]
    base = (1j * nd) ** j * (2j * nd + mu2) * np.exp(-nd * nd + 1j * nd * mu2)
    wpow = nd * nd - 1j * nd * mu2
    return (base / wpow**m) @ weights


def boundary_coefficient(spec, order, t, tol=1e-11):
    """Taylor coefficient a_order(t) of the boundary part about x = 0."""
    c = spec.c
    cache = spec.deriv("f0")
    n = order // 2  # derivative depth: order = 2n or 2n+1
    j = order

    # boundary-derivative sum
    total = 0.0
    moments = _phi_moments_scaled(c, j, list(range(1, n + 2)), math.sqrt(t), tol)
    for m in range(1, n + 2):
        phi = -((-1.0) ** m) / (2 * math.pi) * t ** (m - (j + 2) / 2.0) * moments[m]
        total += cache.value(m - 1, 0.0) * phi

    # convolution with f0^{(n+1)}; sigma = sqrt(t-s) keeps the kernel smooth
    tpow = (n + 1) - (j + 2) / 2.0  # 0 for even order, -1/2 for odd

    x16, w16 = np.polynomial.legendre.leggauss(16)
    panels = max(6, int(4 * math.sqrt(t) * (1 + abs(c))))
    edges = np.linspace(0.0, math.sqrt(t), panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halves = 0.5 * (edges[1:] - edges[:-1])
    sig = (mids[:, None] + halves[:, None] * x16[None, :]).ravel()
    wts = (halves[:, None] * w16[None, :]).ravel()

    fvals = cache.compiled(n + 1)(t - sig * sig)
    scaled = _conv_kernel_batch(c, j, n + 1, sig, tol)
    kerns = -((-1.0) ** (n + 1)) / (2 * math.pi) * (sig * sig) ** tpow * scaled
    conv = np.sum(wts * 2.0 * sig * fvals * kerns)

    value = over_factorial(total + conv, order)
    return real_part(value, tol, f"advected coefficient {order}")


def tilde_ladder(spec, t, tol=COEFF_TOL):
    """Ladder of the even boundary coefficients, doubled across x = 0."""
    return cached_ladder(
        spec, ("f0", "even", t, tol), 2, (0,),
        lambda order: boundary_coefficient(spec, order, t, tol))


def tilde_at_zero(spec, x, tol=1e-8):
    """Small-time limit of the doubled even series by Richardson extrapolation.

    The series at time t carries intermediate terms of size ~e^{x^2/(4t)}
    that cancel, so the smallest usable time grows with |x|; the ladder is
    chosen x-adaptively and extrapolated in sqrt(t) to t = 0.
    """
    # bucket the base time by powers of two so ladders are shared across a
    # grid sweep; the floor keeps series cancellation below the coefficient
    # accuracy (intermediate terms grow like e^{x^2/4t} before cancelling)
    floor = 1.25e-3
    t0 = floor * 2.0 ** math.ceil(math.log2(max(floor, x * x / 80.0) / floor))
    times = [8.0 * t0, 4.0 * t0, 2.0 * t0, t0]
    vals = [doubled_series(tilde_ladder(spec, tv), x, tol) for tv in times]
    # the small-time approach is w + a t + b t^{3/2} + c t^2 (no sqrt(t) term)
    A = np.array([[1.0, tv, tv**1.5, tv * tv] for tv in times])
    w = np.linalg.solve(A, np.array(vals))
    return float(w[0])


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


def extended(spec, x, t, tol=1e-10):
    """u_ac(x, t) at each point of the 1-D array x; i0 is integrated for the
    whole array at once."""
    base = i0(spec, x, t, tol)
    return base + np.array([_extended_boundary(spec, p, t, tol)
                            for p in x.tolist()])


def _extended_boundary(spec, x, t, tol):
    if x > 0:
        return boundary_integral(spec, x, t, tol)
    if x == 0:
        return float(spec.f0.eval(t))
    return doubled_series(tilde_ladder(spec, t), x, tol) - boundary_integral(
        spec, -x, t, tol)


def boundary_to_initial(spec, x, tol=1e-8):
    if x >= 0:
        return float(spec.u0.eval(x))
    return -math.exp(-spec.c * x) * float(spec.u0.eval(-x)) + tilde_at_zero(
        spec, x, tol
    )
