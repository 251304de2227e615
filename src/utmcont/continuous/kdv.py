"""Linear KdV on the half-line: one and two boundary conditions.

Both initial-condition parts are Airy sums over the nodes of one fixed
rule of u0 (``_common.data_rule``, its panels split to the Airy kernel's
wavelength), with no k-contour: the data transform is the
finite sum u0_hat(k) = sum_n c_n e^{-iky_n}, and term by term the UTM
k-integral of each node is Ai at a real argument plus alpha Ai and
alpha^2 Ai at rotated ones, alpha = e^{2 pi i/3}, the last term the
conjugate of the second (``i0_one_bc``, ``i0_two_bc``).  The real term
is scipy's airy on |x| <= 2 and one K_{1/3} beyond, at a real argument
for x > 2 and a purely imaginary one for x < -2 (``_real_airy``); the
Airy-kernel convolution ``if0_one_bc`` reads the same real Ai.  The
rotated Ai is K_{1/3}, with the connection formula
Ai(z) = -alpha Ai(alpha z) - alpha^2 Ai(alpha^2 z) for |arg z| >= 2 pi/3
(``_airy``): a complex airy would also compute Ai', Bi and Bi' through
four AMOS routines, at about six times the cost.  Both parts are entire
in x.  The two-condition kernel decays super-exponentially in y.  For
x < 0 the one-condition alpha term grows like e^{C|x| sqrt(y)/tau^{3/2}},
tau = (3t)^{1/3}, so at small t the rule, which ends where u0 has decayed,
can end before the kernel is damped.  The sums have no error estimate: a
row whose last panel or rounding floor exceeds its budget raises
QuadratureError naming x.

The one-condition boundary part for x > 0 collapses to an Airy-kernel time
convolution; its Taylor families carry third-root gamma factors and
(t-s)^{-1/3}, (t-s)^{-2/3} convolutions.  The two-condition boundary parts
are evaluated by repeated integration by parts in time, which trades the
oscillatory kernel for derivative data at the corners plus one smooth
remainder convolution over a short dodged contour.  The corner terms are
linear in the data, so the n of them share one integrand
weight(k) e^{ikx - ik^3 t} sum_m f^(m-1)(0) / (-ik^3)^m; the remainder
factors its kernel as e^{ikx} e^{-ik^3(t-s)}, so its time sum is done once.
``_kdv2_boundary`` runs each contour piece once for a whole array of x, as
a vector integrand (one row per x, each meeting its own budget);
``if0_one_bc`` is ``_common.layer_potential`` with the kernel 3 Ai(w), one
span for every x.  The solver table of ``utmcont.continuous`` continues
both kinds' boundary parts to x < 0, with ladders of ``kdv1_coefficient``
and ``kdv2_coefficient``.  Every function that takes x, w0 included, takes
a 1-D array.  The import of scipy.special is deferred to ``_real_airy`` and
``_airy``, so a KdV spec loads scipy at its first Airy evaluation, not
with this module.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from ..quad import QuadratureError, gauss_panels, integrate_segment, row_sums
from .problems import check_compatibility
from ._common import (data_rule, datum_coefficient, datum_ladder,
                      doubled_series, fractional_family, layer_potential,
                      over_factorial, real_part, require_half_line)

ALPHA = cmath.exp(2j * math.pi / 3)
SQRT3 = math.sqrt(3.0)


def _real_airy(x):
    """Ai on a real array, in three bands: scipy's airy on |x| <= 2 (its
    power-series band; NaN lands here too), sqrt(x/3) K_{1/3}(eta)/pi for
    x > 2, and (2/pi) sqrt(|x|/3) Im K_{1/3}(-i eta) for x < -2, with
    eta = (2/3) |x|^{3/2} (DLMF 9.6.1, 9.6.6, and K_nu(-iz) =
    (pi i/2) e^{i nu pi/2} H^(1)_nu(z)).  One kv per argument, where airy
    would also compute Ai', Bi and Bi'; the imaginary argument of the left
    band is exact, so its phase carries no rounding.  Past x = 104 Ai
    underflows to 0, and +-inf give NaN, as in airy."""
    from scipy import special
    ai = np.empty(x.shape)
    middle = ~(np.abs(x) > 2.0)
    ai[middle] = special.airy(x[middle])[0]
    right, left = x > 2.0, x < -2.0
    with np.errstate(over="ignore", invalid="ignore"):
        root = np.sqrt(x[right])
        eta = (2.0 / 3.0) * x[right] * root
        ai[right] = root * special.kv(1.0 / 3.0, eta) / (math.pi * SQRT3)
        root = np.sqrt(-x[left])
        eta = (2.0 / 3.0) * -x[left] * root
        ai[left] = 2.0 * root * special.kv(1.0 / 3.0, -1j * eta).imag / (
            math.pi * SQRT3)
    return ai


def _airy(z):
    """Ai on a complex array (``_real_airy`` takes a real one), through
    K_{1/3} (DLMF 9.6.1): Ai(z) = sqrt(z/3) K_{1/3}(zeta)/pi with
    zeta = (2/3) z sqrt(z), for |arg z| < 2 pi/3.  For |arg z| >= 2 pi/3
    the computed zeta lies across the cut from z: it is (2/3)(alpha z)^{3/2}
    in the upper half-plane (conjugates in the lower), and -zeta is
    (2/3)(alpha^2 z)^{3/2}, so Ai(z) = -alpha Ai(alpha z) - alpha^2
    Ai(alpha^2 z) (DLMF 9.2.12) reads sqrt(z/3) [K_{1/3}(-zeta) -
    K_{1/3}(zeta)]/pi.  The side of the cut that zeta lands on picks the
    formula, so it always matches the K that kv evaluates; zeta as z sqrt(z)
    is accurate to Ai's own conditioning at large |z|, where z**1.5 is
    not."""
    from scipy import special
    root = np.sqrt(z)
    zeta = (2.0 / 3.0) * z * root
    k = special.kv(1.0 / 3.0, zeta)
    past = np.signbit(zeta.imag) != np.signbit(z.imag)
    k[past] = special.kv(1.0 / 3.0, -zeta[past]) - k[past]
    with np.errstate(invalid="ignore"):
        ai = root * k / (math.pi * SQRT3)
    # zeta underflows near z = 0, where K_{1/3} is singular
    near = np.abs(z) < 1e-100
    ai[near] = special.airy(z[near])[0]
    return ai


def _cubic_radius(decay, growth, log_target):
    """R with decay*R^3 - growth*R >= log_target (few fixed-point passes)."""
    r = (log_target / decay) ** (1.0 / 3.0) + 1.0
    for _ in range(4):
        r = ((log_target + growth * r) / decay) ** (1.0 / 3.0)
    return r + 1.0


# ---------------------------------------------------------------------------
# initial parts: Airy sums over one rule of u0
# ---------------------------------------------------------------------------


def _airy_sum(spec, xs, t, tol, kernel, label):
    """tau^{-1} sum_n c_n kernel(x/tau, y_n/tau) over the data rule, for
    each x of the 1-D array xs alone.  The sum has no error estimate, so a
    row raises QuadratureError naming x when a term of its last panel, or
    its rounding floor eps sum_n |term_n|, exceeds tol max(1, |value|), or
    when a term is not finite."""
    if spec.u0.is_zero:
        return np.zeros(xs.shape)
    tau = (3.0 * t) ** (1.0 / 3.0)
    # panels no wider than 32 tau^{3/2}/sqrt(b) at their right end b, about
    # five local wavelengths of Ai((x - y)/tau) at y = b; from t = 1 on no
    # panel splits
    y, weighted = data_rule(
        spec, tol, lambda b: 32.0 * math.sqrt(3.0 * t) / np.sqrt(b))
    c = weighted.ravel() / tau
    last = -y.shape[1]
    with np.errstate(all="ignore"):
        kernels = kernel(xs[:, None] / tau, y.ravel() / tau)
        value = row_sums(kernels, c)
        size = row_sums(np.abs(kernels), np.abs(c))
        tail = np.max(np.abs(kernels[:, last:] * c[last:]), axis=1)
    budget = tol * np.maximum(1.0, np.abs(value))
    floor = np.finfo(float).eps * size
    kept = np.isfinite(size) & (tail <= budget) & (floor <= budget)
    if not kept.all():
        row = int(np.argmin(kept))
        raise QuadratureError(
            f"{label} at x = {xs[row]:g}: last-panel term {tail[row]:.3e}, "
            f"rounding floor {floor[row]:.3e}, budget {budget[row]:.3e}")
    return value


# ---------------------------------------------------------------------------
# one boundary condition
# ---------------------------------------------------------------------------


def i0_one_bc(spec, xs, t, tol):
    """Initial-condition part of the one-condition problem, entire in x, at
    each point of the 1-D array xs: tau^{-1} sum_n c_n [Ai((x - y_n)/tau)
    + 2 Re(alpha Ai((x - alpha y_n)/tau))] over the data rule."""
    return _airy_sum(spec, xs, t, tol, lambda x, y: _real_airy(x - y) + 2.0 * (
        np.real(ALPHA * _airy(x - ALPHA * y))), "kdv1 i0")


def if0_one_bc(spec, xs, t, tol):
    """Airy-kernel convolution at each point x >= 0 of the 1-D array xs
    (datum value at x = 0).  Over w = x/(3(t-s))^{1/3} it is the layer
    potential of f0 with q = 3, reach x/3^{1/3} and the kernel 3 Ai(w),
    over a span past which Ai(w) < e^{-5} tol/4."""
    require_half_line(xs, "one-condition boundary integral")
    span = (1.5 * (math.log(4.0 / tol) + 5.0)) ** (2.0 / 3.0) + 2.0
    return layer_potential(spec.f0, xs / 3.0 ** (1.0 / 3.0), t, 3,
                           lambda w: 3.0 * _real_airy(w), span, tol,
                           "kdv1 boundary")


def kdv1_coefficient(spec, order, t, tol):
    """Taylor coefficient a_order(t) of the one-condition boundary part:
    (-1)^m times the fractional family, beta = 1/3 for order 3m - 2 and
    2/3 (negated) for order 3m - 1."""
    cache = spec.deriv("f0")
    if order % 3 == 0:
        return datum_coefficient(cache, order, t, 3, 0, -1.0)
    if order % 3 == 1:  # order = 3m - 2
        m, beta, front_sign = (order + 2) // 3, 1.0 / 3.0, 1.0
    else:  # order = 3m - 1
        m, beta, front_sign = (order + 1) // 3, 2.0 / 3.0, -1.0
    total = (-1.0) ** m * fractional_family(spec, "f0", m, t, beta, tol)
    return over_factorial(front_sign * SQRT3 / (2.0 * math.pi) * total,
                          order)


def w0_one_bc(spec, xs):
    """w0 at each point of the 1-D array xs: u0 for x >= 0; for x < 0 the
    small-time limit of the doubled series, 3 sum (-1)^m x^{3m}
    f0^{(m)}(0) / (3m)!, less 2 Re u0(alpha x)."""
    out = np.empty(xs.shape)
    ahead = xs >= 0
    out[ahead] = spec.u0.eval(xs[ahead])
    behind = xs[~ahead]
    series = doubled_series(datum_ladder(spec, "f0", "cubic", 0.0), behind,
                            1e-12, factor=3.0)
    out[~ahead] = series - 2.0 * np.real(spec.u0.eval_complex(ALPHA * behind))
    return out


# ---------------------------------------------------------------------------
# two boundary conditions
# ---------------------------------------------------------------------------

# contour angle systems: (inbound angle, outbound angle) per piece
_D1_ANGLES = (math.pi / 2, -math.pi / 6)
_D2_ANGLES = (13 * math.pi / 12, 7 * math.pi / 12)
_RAW1_ANGLES = (math.pi / 3, 0.0)  # undeformed sector edges (in, out)
_RAW2_ANGLES = (math.pi, 2 * math.pi / 3)


def _ray_pair_value(f, angles, t, x_max, tol, dodge):
    """Integrate f over the (inbound, outbound) ray pair, truncating each ray
    where the cubic decay of e^{-i k^3 t} beats the |e^{ikx}| growth for
    every |x| <= x_max, and dodging the origin along the chord between the
    rays at radius ``dodge``.  f may be a vector integrand (one row per x);
    each row meets its own budget."""
    ain, aout = angles
    total = 0j
    log_target = math.log(600.0 / tol)
    for angle, inbound in ((ain, True), (aout, False)):
        decay = abs(math.sin(3 * angle)) * t
        growth = abs(math.sin(angle) * x_max)
        radius = _cubic_radius(max(decay, 1e-12), growth, log_target)
        d = cmath.exp(1j * angle)
        a, b = (radius * d, dodge * d) if inbound else (dodge * d, radius * d)
        panels = 2 + int(radius * (x_max + 1.0) / (2 * math.pi))
        total += integrate_segment(f, a, b, tol=tol / 6, rel_tol=tol / 6,
                                   initial_panels=panels).value
    a = dodge * cmath.exp(1j * ain)
    b = dodge * cmath.exp(1j * aout)
    total += integrate_segment(f, a, b, tol=tol / 6, rel_tol=tol / 6,
                               initial_panels=2).value
    return total


def i0_two_bc(spec, xs, t, tol):
    """Initial-condition part of the two-condition problem, entire in x, at
    each point of the 1-D array xs: tau^{-1} sum_n c_n [Ai((y_n - x)/tau)
    + 2 Re(alpha Ai((y_n - alpha x)/tau))] over the data rule."""
    return _airy_sum(spec, xs, t, tol, lambda x, y: _real_airy(y - x) + 2.0 * (
        np.real(ALPHA * _airy(y - ALPHA * x))), "kdv2 i0")


def _growth_rate(cache, t, depth):
    """Crude growth rate of the derivative ladder, for the dodge radius."""
    prev = abs(cache.value(0, 0.0)) + abs(cache.value(0, t)) + 1e-30
    rate = 1.0
    for j in range(1, depth + 1):
        cur = abs(cache.value(j, 0.0)) + abs(cache.value(j, t)) + 1e-30
        rate = max(rate, cur / prev)
        prev = cur
    return rate


_N_IBP = 6


def _kdv2_boundary(spec, which, xs, t, tol):
    """I_{f0} or I_{f1} at each point x >= 0 of the 1-D array xs, via
    n-fold integration by parts in time; I_{f0} at x = 0 is the datum value
    by convention.

    The corner terms use the deformed sector contours (cubic decay); the one
    remaining convolution kernel integrates over the undeformed dodged sector
    boundary, absolutely and uniformly in the time lag.  The points share
    every contour, sized for the largest x.
    """
    require_half_line(xs, "two-condition boundary integral")
    out = np.empty(xs.shape)
    inside = xs > 0 if which == "f0" else xs >= 0
    if not inside.all():
        out[~inside] = float(spec.f0.eval(t))
        if not inside.any():
            return out
    rows = xs[inside]
    cache = spec.deriv(which)
    n = _N_IBP
    rate = _growth_rate(cache, t, n + 1)
    r0 = max(1.0, (2.2 * rate) ** (1.0 / 3.0))
    x_max = float(np.max(rows))

    if which == "f0":
        weight = lambda k: k**2 / (2 * math.pi)
        coefs = (1.0 - ALPHA, 1.0 - ALPHA**2)
    else:
        weight = lambda k: k / (2j * math.pi)
        coefs = (1.0 - ALPHA**2, 1.0 - ALPHA)
    corner_data = [cache.value(m - 1, 0.0) for m in range(1, n + 1)]

    def corners(k):
        # the n corner terms at fixed t are linear in the data, so they
        # share one integrand: sum_m f^(m-1)(0) / (-i k^3)^m
        q = -1j * k**3
        data = sum(fm / q**m for m, fm in enumerate(corner_data, 1))
        return (np.exp(1j * np.outer(rows, k) - 1j * k**3 * t)
                * (weight(k) * data))

    total = 0j
    for coef, deformed, raw in zip(
        coefs, (_D1_ANGLES, _D2_ANGLES), (_RAW1_ANGLES, _RAW2_ANGLES)
    ):
        # corner terms at fixed t on the decaying contours
        if any(corner_data):
            total += coef * _ray_pair_value(corners, deformed, t, x_max, tol,
                                            r0)
        # remainder convolution on the undeformed dodged boundary
        total += coef * _kdv2_remainder(cache, weight, raw, r0, rate, n,
                                        rows, t, tol)
    out[inside] = real_part(total, tol, f"kdv2 {which} boundary")
    return out


def _kdv2_remainder(cache, weight, angles, r0, rate, n, xs, t, tol):
    # fixed k-grid along [in-ray, chord, out-ray], truncated where the
    # absolute k^{2-3n} tail is below tol
    radius = max(r0 * 1.6, (1.0 / ((3 * n - 3) * tol * 0.1)) ** (1.0 / (3 * n - 3)))
    ain, aout = angles
    din, dout = cmath.exp(1j * ain), cmath.exp(1j * aout)
    pieces = [
        (radius * din, r0 * din),
        (r0 * din, r0 * dout),
        (r0 * dout, radius * dout),
    ]
    x_max = float(np.max(xs))
    knodes, kweights = [], []
    for a, b in pieces:
        panels = 2 + int(abs(b - a) * (x_max + r0**2) / (2 * math.pi))
        tpar, wpar = gauss_panels(np.linspace(0.0, 1.0, panels + 1), 16)
        knodes.append(a + tpar.ravel() * (b - a))
        kweights.append(wpar.ravel() * (b - a))
    k = np.concatenate(knodes)
    wk = np.concatenate(kweights) * weight(k) / (-1j * k**3) ** n

    # s-panels resolve the data oscillation
    spanels = max(8, int(rate * t / 1.5))
    snodes, sweights = gauss_panels(np.linspace(0.0, t, spanels + 1), 16)
    snodes, sweights = snodes.ravel(), sweights.ravel()
    fvals = cache.derivatives(n, n, snodes)[0]

    # e^{ikx - ik^3(t-s)} = e^{ikx} e^{-ik^3(t-s)}: the s-sum is done once
    # for every x, and only the sum over k depends on x (one row at a time,
    # so a value does not depend on the other points of the call)
    lagged = (sweights * fvals) @ np.exp(-1j * k[None, :] ** 3
                                         * (t - snodes[:, None]))
    return np.einsum("xk,k->x", np.exp(1j * np.outer(xs, k)), lagged * wk)


def kdv2_coefficient(spec, which, order, t, tol):
    """Taylor coefficients: a-family for f0, b-family for f1, their
    fractional orders from the fractional family (beta = 2/3 and 1/3).
    Structural zeros (a_{3m-2}, b_{3m}) return exactly 0."""
    cache = spec.deriv(which)
    offset, beta = (0, 2.0 / 3.0) if which == "f0" else (1, 1.0 / 3.0)
    if order % 3 == offset:  # a_{3m}, b_{3m+1}
        return datum_coefficient(cache, order, t, 3, offset)
    if order % 3 != 2:  # a_{3m-2} = 0, b_{3m} = 0
        return 0.0
    m = (order + 1) // 3  # a_{3m-1}, b_{3m-1}
    total = fractional_family(spec, which, m, t, beta, tol)
    return over_factorial(-SQRT3 / (2.0 * math.pi) * total, order)


class IncompatibleDataError(ValueError):
    """Two-condition KdV data admit no boundary-to-initial map."""


def w0_two_bc(spec, xs):
    """w0 at each point of the 1-D array xs: u0 itself.  A point x < 0
    needs data compatible to order 3 (each residual within 1e-9), checked
    once per call; incompatible data raise IncompatibleDataError."""
    if np.any(xs < 0):
        residuals = check_compatibility(spec, 3)
        if any(r > 1e-9 for r in residuals):
            raise IncompatibleDataError(
                "boundary and initial data are incompatible (residuals "
                f"{[f'{r:.2e}' for r in residuals]}); the extended solution "
                "blows up as t -> 0+ and no boundary-to-initial map exists"
            )
    return spec.u0.eval(xs)
