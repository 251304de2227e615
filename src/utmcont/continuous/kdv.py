"""Linear KdV on the half-line: one and two boundary conditions.

Both initial-condition parts are Airy sums over the nodes of one fixed
rule of u0 (``_common.data_rule``, its panels split to the Airy kernel's
wavelength), with no k-contour: the data transform is the
finite sum u0_hat(k) = sum_n c_n e^{-iky_n}, and term by term the UTM
k-integral of each node is Ai at a real argument plus alpha Ai and
alpha^2 Ai at rotated ones, alpha = e^{2 pi i/3}, the last term the
conjugate of the second (``i0_one_bc``, ``i0_two_bc``).  Both Ai kernels
read one table of Taylor jets of Ai inside |z| < 10, built at the first
Airy evaluation, and the asymptotic expansions of DLMF 9.7 outside it:
``_real_airy`` for the real term, which the Airy-kernel convolution
``if0_one_bc`` reads too, and ``_airy`` for the rotated one, each a
fraction of the cost of one scipy.special call per argument.  Both
parts are entire in x.  The two-condition kernel decays
super-exponentially in y.  For
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
a vector integrand (one row per x, each meeting its own budget; a corner
row that misses it raises QuadratureError naming the row);
``if0_one_bc`` is ``_common.layer_potential`` with the kernel 3 Ai(w), one
span for every x.  The solver table of ``utmcont.continuous`` continues
both kinds' boundary parts to x < 0, with ladders of ``kdv1_coefficient``
and ``kdv2_coefficient``.  Every function that takes x, w0 included, takes
a 1-D array.  The import of scipy.special is deferred to the jet table,
so a KdV spec loads scipy at its first Airy evaluation, not with this
module.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from ..quad import QuadratureError, gauss_panels, integrate_segment, row_sums
from .problems import check_compatibility
from ._common import (data_rule, datum_coefficient, datum_ladder,
                      doubled_series, fractional_family, layer_potential,
                      over_factorial, real_part, require_half_line)

ALPHA = cmath.exp(2j * math.pi / 3)
SQRT3 = math.sqrt(3.0)


# Ai is entire and solves w'' = zw, so its Taylor jet at a center c follows
# from Ai(c) and Ai'(c) by (k+2)(k+1) a_{k+2} = c a_k + a_{k-1}.  The table
# holds the jets at the centers h(i + i j), |i| <= N and 0 <= j <= N, which
# cover the closed upper half of |z| < R; past R the expansions of DLMF 9.7
# (u_k, 9.7.2) take over.  With h = 3/8 the nearest center lies within
# h/sqrt(2) of a complex argument, where 18 terms leave a tail below 1e-16
# of |Ai| at the center, and within h/2 of a real one, where 17 do.
_R = 10.0
_H = 0.375
_N = 27  # ceil(R/h)
_TERMS = 18
_REAL_TERMS = 17
# u_0 .. u_19: at |zeta| >= (2/3) R^{3/2} = 21.1, u_20/zeta^20 < 1e-16
_U = np.cumprod([1.0] + [(6 * k - 5) * (6 * k - 3) * (6 * k - 1)
                         / ((2 * k - 1) * 216 * k) for k in range(1, 20)])
_SIGNS = np.array([1.0, -1.0] * 5)


def _jets(c, ai, aip, terms):
    """Taylor coefficients a_0 .. a_{terms-1} of Ai about each center c."""
    a = np.empty((terms,) + c.shape, complex)
    a[0], a[1], a[2] = ai, aip, c * ai / 2.0
    for k in range(1, terms - 2):
        a[k + 2] = (c * a[k] + a[k - 1]) / ((k + 2) * (k + 1))
    return a


@functools.cache
def _airy_table():
    """The jets of every center, as (terms, centers) arrays: complex ones,
    row j of the grid at index j(2N+1) + i + N, and real ones of the
    Im z = 0 row.  Built once, at the first Airy evaluation, in 3-5 ms:
    Ai and Ai' on the real row from scipy's airy, then carried up one row
    at a time by each jet's own sums (40 terms) at distance i h.
    Upward, e^{-zeta} grows against e^{zeta} everywhere in the upper
    half-plane (d Re zeta / dy = -Im sqrt z <= 0), so Ai dominates and the
    rounding of a step does not grow: the carried values are within 3.3e-14
    of mpmath's, where scipy's complex airy is up to 1.3e-13 off."""
    from scipy import special
    x = _H * np.arange(-_N, _N + 1)
    ai, aip, _, _ = special.airy(x)
    k = np.arange(40)
    step = (1j * _H) ** k
    rows = []
    for j in range(_N + 1):
        jet = _jets(x + 1j * (_H * j), ai, aip, 40)
        rows.append(jet[:_TERMS])
        ai, aip = step @ jet, (k[1:] * step[:-1]) @ jet[1:]
    table = np.stack(rows, axis=1).reshape(_TERMS, -1)
    return table, table[:_REAL_TERMS, :2 * _N + 1].real.copy()


def _series(coeffs, s):
    """sum_k coeffs[k] s^k by Horner."""
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * s + c
    return acc


def _decaying(z):
    """DLMF 9.7.5, e^{-zeta}/(2 sqrt(pi) z^{1/4}) sum_k (-1)^k u_k/zeta^k
    with zeta = (2/3) z^{3/2}: Ai(z) for |z| >= R and |arg z| <= 2 pi/3."""
    root = np.sqrt(z)
    zeta = (2.0 / 3.0) * z * root
    return np.exp(-zeta) / (2.0 * math.sqrt(math.pi) * np.sqrt(root)) * (
        _series(_U[::2], 1.0 / (zeta * zeta))
        - _series(_U[1::2], 1.0 / (zeta * zeta)) / zeta)


def _oscillating(z):
    """DLMF 9.7.9 on -z: Ai(-z) for |z| >= R and |arg z| < pi/3, as
    [cos xi (P - Q) + sin xi (P + Q)]/(sqrt(2 pi) z^{1/4}), xi =
    (2/3) z^{3/2}, P and Q its even and odd sums."""
    root = np.sqrt(z)
    xi = (2.0 / 3.0) * z * root
    s = 1.0 / (xi * xi)
    p = _series(_SIGNS * _U[::2], s)
    q = _series(_SIGNS * _U[1::2], s) / xi
    return (np.cos(xi) * (p - q) + np.sin(xi) * (p + q)) / (
        math.sqrt(2.0 * math.pi) * np.sqrt(root))


def _near(table, z, terms):
    """The nearest center's jet by Horner at each z of the table's range
    (real or complex)."""
    i = np.rint(z.real / _H).astype(np.intp)
    index = i + _N
    d = z - _H * i
    if np.iscomplexobj(z):
        j = np.rint(z.imag / _H).astype(np.intp)
        index += (2 * _N + 1) * j
        d = d - 1j * _H * j
    acc = table[terms - 1].take(index)
    for k in range(terms - 2, -1, -1):
        acc = acc * d + table[k].take(index)
    return acc


def _branches(ai, arg, pieces):
    """ai[mask] = evaluate(arg[mask]) for each (mask, evaluate) of pieces
    that selects an argument; a far argument may overflow to inf or NaN
    without a warning."""
    with np.errstate(all="ignore"):
        for mask, evaluate in pieces:
            if mask.any():
                ai[mask] = evaluate(arg[mask])
    return ai


def _real_airy(x):
    """Ai on a real array: on |x| < R = 10 the nearest of the table's 55
    real centers (spacing h = 3/8) by its first 17 jet terms, in real
    arithmetic; DLMF 9.7.5 on R <= x < 104 and 9.7.9 on x <= -R, each to
    u_19.  From x = 104 on Ai underflows to 0, and NaN and +-inf give NaN,
    as in scipy's airy.  50-70 ns an argument on 15,000-argument arrays
    (2 vCPU Xeon)."""
    _, row = _airy_table()
    return _branches(np.where((x >= 104.0) & (x < np.inf), 0.0, np.nan), x, (
        (np.abs(x) < _R, lambda v: _near(row, v, _REAL_TERMS)),
        ((x >= _R) & (x < 104.0), _decaying),
        ((x <= -_R) & (x > -np.inf), lambda v: _oscillating(-v))))


def _airy(z):
    """Ai on a complex array (``_real_airy`` takes a real one).
    Ai(conj z) = conj Ai(z) folds Im z < 0 onto the upper half-plane.
    There, on |z| < R = 10, the nearest of the table's 1540 centers
    (spacing h = 3/8) gives Ai by its 18 jet terms; past R, DLMF 9.7.5
    serves up to arg z = 2 pi/3 (the Stokes line, where the subdominant
    term is e^{-2|zeta|} < 1e-18 of Ai) and 9.7.9 on -z beyond.
    100-185 ns an argument on 15,000-argument arrays (2 vCPU Xeon).  A
    value depends on its own argument only: no step is one of numpy's
    in-place complex products, whose loop for a long array rounds
    differently from a short one's."""
    table, _ = _airy_table()
    w = np.empty(z.shape, complex)
    w.real, w.imag = z.real, np.abs(z.imag)
    size = np.abs(w)
    near = size < _R
    past = w.real < -0.5 * size
    ai = _branches(np.empty(z.shape, complex), w, (
        (near, lambda v: _near(table, v, _TERMS)),
        (~near & ~past, _decaying),
        (~near & past, lambda v: _oscillating(-v))))
    below = np.signbit(z.imag)
    ai.imag[below] = -ai.imag[below]
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
    each row meets its own budget.  Returns the integrals and each row's
    first warning of its three pieces (None where all met their budgets)."""
    ain, aout = angles
    pieces = []
    log_target = math.log(600.0 / tol)
    for angle, inbound in ((ain, True), (aout, False)):
        decay = abs(math.sin(3 * angle)) * t
        growth = abs(math.sin(angle) * x_max)
        radius = _cubic_radius(max(decay, 1e-12), growth, log_target)
        d = cmath.exp(1j * angle)
        a, b = (radius * d, dodge * d) if inbound else (dodge * d, radius * d)
        panels = 2 + int(radius * (x_max + 1.0) / (2 * math.pi))
        pieces.append(integrate_segment(f, a, b, tol=tol / 6, rel_tol=tol / 6,
                                        edges=np.linspace(0, 1, panels + 1)))
    a = dodge * cmath.exp(1j * ain)
    b = dodge * cmath.exp(1j * aout)
    pieces.append(integrate_segment(f, a, b, tol=tol / 6, rel_tol=tol / 6,
                                    edges=np.linspace(0, 1, 3)))
    return (sum((piece.value for piece in pieces), 0j),
            _first_warnings(piece.warnings for piece in pieces))


def _first_warnings(warnings):
    """Each row's first warning over the per-row warning tuples."""
    return tuple(next(filter(None, row), None) for row in zip(*warnings))


def i0_two_bc(spec, xs, t, tol):
    """Initial-condition part of the two-condition problem, entire in x, at
    each point of the 1-D array xs: tau^{-1} sum_n c_n [Ai((y_n - x)/tau)
    + 2 Re(alpha Ai((y_n - alpha x)/tau))] over the data rule."""
    return _airy_sum(spec, xs, t, tol, lambda x, y: _real_airy(y - x) + 2.0 * (
        np.real(ALPHA * _airy(y - ALPHA * x))), "kdv2 i0")


def _growth_rate(cache, t, depth):
    """Crude growth rate of the derivative ladder, for the dodge radius."""
    sizes = sum(np.abs(cache.through(x, depth)) for x in (0.0, t)) + 1e-30
    return max(1.0, float(np.max(sizes[1:] / sizes[:-1])))


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
    corner_data = cache.through(0.0, n - 1).tolist()

    def corners(k):
        # the n corner terms at fixed t are linear in the data, so they
        # share one integrand: sum_m f^(m-1)(0) / (-i k^3)^m
        q = -1j * k**3
        data = sum(fm / q**m for m, fm in enumerate(corner_data, 1))
        return (np.exp(1j * np.outer(rows, k) - 1j * k**3 * t)
                * (weight(k) * data))

    total, warnings = 0j, []
    for coef, deformed, raw in zip(
        coefs, (_D1_ANGLES, _D2_ANGLES), (_RAW1_ANGLES, _RAW2_ANGLES)
    ):
        # corner terms at fixed t on the decaying contours
        if any(corner_data):
            value, missed = _ray_pair_value(corners, deformed, t, x_max, tol,
                                            r0)
            total += coef * value
            warnings.append(missed)
        # remainder convolution on the undeformed dodged boundary
        total += coef * _kdv2_remainder(cache, weight, raw, r0, rate, n,
                                        rows, t, tol)
    out[inside] = real_part(total, tol, f"kdv2 {which} boundary",
                            _first_warnings(warnings))
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
