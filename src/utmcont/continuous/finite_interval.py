"""Heat equation on a finite interval with two Dirichlet data.

The initial part is the solution with zero boundary data: the heat
evolution of the odd, 2L-periodic continuation of u0, entire in x.  Over
one fixed rule of u0 on [0, L] it is a method-of-images sum of heat
kernels, with no k-integral.  Each boundary integral collapses, via the
geometric expansion of 1/sin(kL), to an image sum of half-line single-layer
potentials, which converges like a Gaussian in the image index.  For a
whole array of x it takes two quadratures whatever the image budget: one
single-layer call for the nearest image pair, and one layer potential in
zeta = L/sqrt(t - s) whose kernel sums every far image.
Outside the native windows the extensions tile in steps of 2L, accumulating
the doubled even series of each datum (``_common.datum_ladder``, about
x = 0 for f0 and x = L for g0), one series call per step for every point
that takes it, and evaluate the window images of all points in one call;
the tiling reaches TILE_DEPTH * L.  The same boundary integral
also has the classical Fourier-sine-series form; both evaluators are exposed
and must agree inside the common window.  w0 tiles the odd-periodic u0 by
the same rules.  Every function of x, the Fourier form included, takes a
1-D array.  The import of scipy.special (for the Hermite polynomials of
``odd_center_coefficient``) is deferred to that function, the only one
here that reads it.
"""

from __future__ import annotations

import math

import numpy as np

from ..quad import (QuadratureError, gauss_panels, geometric_edges,
                    integrate_segment, row_sums)
from ._common import (OutsideWindowError, datum_ladder, doubled_series,
                      layer_potential, over_factorial)
from .heat import SQRT_PI, single_layer

# The tiled extensions reach |x| <= TILE_DEPTH * L.
TILE_DEPTH = 5

# Images (2j + 1) L, j < CENTER_IMAGES, in the odd-center coefficients.
CENTER_IMAGES = 8


def i0(spec, xs, t, tol):
    """Initial-condition part, entire, odd and 2L-periodic in x (t > 0), at
    each point of the 1-D array xs: the heat evolution of the odd-periodic
    u0, taken term by term over one fixed rule of u0 on [0, L].  Each term
    is a method-of-images sum of heat kernels, so the value is
    sum_n c_n sum_j [G(b - y_n - 2jL, t) - G(b + y_n - 2jL, t)] at the
    window image b of x in [0, 2L), summed for each x alone."""
    L = spec.L
    # 24-point Gauss-Legendre on equal panels no wider than 2 sqrt(t)
    panels = max(4, math.ceil(L / (2.0 * math.sqrt(t))))
    y, weights = gauss_panels(np.linspace(0.0, L, panels + 1), 24)
    y = y.ravel()
    weighted = weights.ravel() * spec.u0.eval(y)
    b = (xs - 2 * np.floor(xs / (2 * L)) * L)[:, None]
    budget = _image_budget(L, t, tol)
    kernels = np.zeros((xs.size, y.size))
    for j in range(-budget, budget + 2):
        kernels += (np.exp(-(b - y - 2 * j * L) ** 2 / (4.0 * t))
                    - np.exp(-(b + y - 2 * j * L) ** 2 / (4.0 * t)))
    return row_sums(kernels, weighted) / math.sqrt(4.0 * math.pi * t)


def i0_at_zero(spec, xs):
    """Closed odd-periodic tiling of u0 (the t -> 0 limit of i0) at each
    point of the 1-D array xs; u0 itself on the closed interval [0, L]."""
    L = spec.L
    base = xs - 2 * np.floor(xs / (2 * L)) * L
    mirrored = (base >= L) & (xs != L)
    out = np.empty(xs.shape)
    out[~mirrored] = spec.u0.eval(base[~mirrored])
    out[mirrored] = -spec.u0.eval(2 * L - base[mirrored])
    return out


# ---------------------------------------------------------------------------
# boundary integrals in their native windows
# ---------------------------------------------------------------------------


def _image_budget(L, t, tol):
    return 1 + int(math.sqrt(max(4.0 * t * math.log(4.0 / tol), 0.0)) / (2 * L))


def _image_sum(spec, datum, y, t, tol):
    """sum_j [S(y + 2jL) - S(2(j+1)L - y)] for y in [0, 2L), S the
    single-layer potential of ``datum``, in two quadratures whatever the
    image budget; the datum value at y = 0.

    The nearest pair, y and 2L - y, is one single-layer call over both
    distances.  Every far image d >= 2L shares one layer potential in
    zeta = L/sqrt(t - s) (q = 2, reach L): with r = d/(2L) >= 1,
    S(d) = (2/sqrt(pi)) int f0(t - L^2/zeta^2) r e^{-(r zeta)^2} dzeta, so
    each row's kernel sums its signed far images at the same datum values,
    and single_layer's span bounds every tail.
    """
    L = spec.L
    if np.any((y < 0) | (y >= 2 * L)):
        raise OutsideWindowError("finite-interval boundary integrals live on "
                                 "their windows; use the tiled extension "
                                 "outside")
    near = single_layer(datum, np.concatenate([y, 2 * L - y]), t, tol)
    j = np.arange(1, _image_budget(L, t, tol) + 1)
    a = y[:, None] / (2 * L)
    # r of the images y + 2jL (sign +) and 2(j+1)L - y (sign -), per row
    ratio = np.concatenate([a + j, 1 + j - a], axis=1)[:, :, None]
    weight = ratio * np.repeat([1.0, -1.0], j.size)[:, None] * (2 / SQRT_PI)

    def kernel(zeta):
        return (weight * np.exp(-(ratio * zeta[:, None]) ** 2)).sum(axis=1)

    total = near[:y.size] - near[y.size:] + layer_potential(
        datum, np.full(y.size, L), t, 2, kernel,
        math.sqrt(math.log(4.0 / tol) + 5.0), tol, "far images")
    total[y == 0] = float(datum.eval(t))
    return total


def left_boundary_integral(spec, xs, t, tol):
    """I_{f0}(x, t) at each point of the 1-D array xs in [0, 2L): image sum
    of single-layer potentials."""
    return _image_sum(spec, spec.f0, xs, t, tol)


def right_boundary_integral(spec, xs, t, tol):
    """I_{g0}(x, t) at each point of the 1-D array xs in (-L, L]: the image
    sum of g0 at the distance L - x from the right end."""
    return _image_sum(spec, spec.g0, spec.L - xs, t, tol)


# ---------------------------------------------------------------------------
# Fourier-series route for the left boundary integral
# ---------------------------------------------------------------------------


def _sine_tail(order, theta):
    """sum_{n>=1} sin(n theta)/n^order for order 1, 3 or 5, at each angle
    of the 1-D array theta (taken mod 2 pi)."""
    th = theta % (2 * math.pi)
    if order == 1:
        return np.where(th != 0.0, (math.pi - th) / 2.0, 0.0)
    if order == 3:
        return math.pi**2 * th / 6.0 - math.pi * th**2 / 4.0 + th**3 / 12.0
    return (math.pi**4 * th / 90.0 - math.pi**2 * th**3 / 36.0
            + math.pi * th**4 / 48.0 - th**5 / 240.0)


def _mode_coefficient(spec, w, t):
    """e_n(t) = int_0^t e^{-w (t-s)} f0(s) ds by short geometric panels.
    ExprDomainError where f0 is not finite at a node."""
    upper = min(t, 45.0 / w) if w > 0 else t
    nodes, weights = gauss_panels(
        geometric_edges(upper, min(upper, 1.0 / max(w, 1.0 / t)), 1.7), 12)
    total = 0.0
    for tau, wt in zip(nodes, weights):
        total += float(np.sum(wt * np.exp(-w * tau) * spec.f0.eval(t - tau)))
    return total


def left_boundary_fourier(spec, xs, t):
    """Classical Fourier-sine form of I_{f0} at each point of the 1-D array
    xs: residue series over the zeros of sin(kL), with three layers of tail
    acceleration (the raw terms decay like 1/n, so the smooth tail is summed
    in closed Bernoulli form)."""
    L = spec.L
    cache = spec.deriv("f0")
    n0 = max(12, math.ceil(L / math.pi * math.sqrt(45.0 / t)))
    theta = math.pi * xs / L
    total = 0.0
    for n in range(1, n0 + 1):
        w = (n * math.pi / L) ** 2
        total += 2 * n * math.pi / L**2 * _mode_coefficient(spec, w, t) \
            * np.sin(n * theta)
    # Watson layers e_n ~ sum_r (-1)^r f0^{(r)}(t)/w^{r+1} turn the slowly
    # decaying tail into closed Bernoulli-polynomial sine sums
    for r in range(3):
        tail = _sine_tail(2 * r + 1, theta) - sum(
            np.sin(n * theta) / n ** (2 * r + 1) for n in range(1, n0 + 1)
        )
        layer = 2 * math.pi / L**2 * (L**2 / math.pi**2) ** (r + 1)
        total += (-1.0) ** r * cache.value(r, t) * layer * tail
    return total


# ---------------------------------------------------------------------------
# Taylor data and tiled extensions
# ---------------------------------------------------------------------------


def require_tiling_depth(spec, xs):
    """ValueError naming the reach of the 1-D array xs when a point lies
    past the tiling depth TILE_DEPTH * L."""
    reach = float(np.max(np.abs(xs), initial=0.0))
    if reach > TILE_DEPTH * spec.L:
        raise ValueError(f"|x| = {reach:g} beyond the supported tiling depth "
                         f"{TILE_DEPTH} L = {TILE_DEPTH * spec.L:g}")


def _tile(spec, xs, datum, at_base, t, tol):
    """2L-periodic tiling of the left window [0, 2L) of f0, or of the right
    one (-L, L] of g0, at each point of the 1-D array xs: at_base(b) at the
    window images b of the points (one call), plus the datum's doubled even
    series at time t accumulated out to each x, one series call per step of
    2L.  ValueError for a point past the tiling depth."""
    L = spec.L
    require_tiling_depth(spec, xs)
    right = datum == "g0"
    ladder = datum_ladder(spec, datum, "even", t)
    n = (np.ceil((xs - L) / (2 * L)) if right
         else np.floor(xs / (2 * L))).astype(int)
    base = xs - 2 * n * L
    # the rounded quotient can leave an image just past its window (x =
    # -3.5999999999999996 with L = 1.2 gave the right image -L): one period in
    if right:
        n += (base > L).astype(int) - (base <= -L)
    else:
        n += (base >= 2 * L).astype(int) - (base < 0)
    value = at_base(xs - 2 * n * L)
    for step in range(1, int(np.max(np.abs(n), initial=0)) + 1):
        far = np.abs(n) >= step
        k = n[far]
        # the step crosses the image 2 j L of the left boundary, or
        # (2 j + 1) L of the right one, and adds its series signed
        j = np.where(k > 0, step, 1 - step) - right
        sign = np.sign(k) if right else -np.sign(k)
        value[far] += sign * doubled_series(ladder, xs[far] - 2 * j * L, tol)
    return value


def left_extension(spec, xs, t, tol):
    """I_{f0}^ext at each point of the 1-D array xs: 2L-periodic tiling
    with accumulated doubled series."""
    return _tile(spec, xs, "f0",
                 lambda b: left_boundary_integral(spec, b, t, tol), t, tol)


def right_extension(spec, xs, t, tol):
    """I_{g0}^ext: tiling of the (-L, L] window, as left_extension."""
    return _tile(spec, xs, "g0",
                 lambda b: right_boundary_integral(spec, b, t, tol), t, tol)


def extended(spec, xs, t, tol):
    """u_ac(x, t) at each point of the 1-D array xs: i0 plus the two tiled
    extensions, which check the tiling depth."""
    left = left_extension(spec, xs, t, tol)
    right = right_extension(spec, xs, t, tol)
    return i0(spec, xs, t, tol) + left + right


def boundary_to_initial(spec, xs):
    """w0 at each point of the 1-D array xs: the odd-periodic u0 plus the
    series both tilings accumulate at t = 0.  That u0 is 2L-periodic, so
    its values at xs are its values at their window images."""
    value = _tile(spec, xs, "f0", lambda b: i0_at_zero(spec, xs), 0.0, 1e-13)
    return _tile(spec, xs, "g0", lambda b: value, 0.0, 1e-13)


# ---------------------------------------------------------------------------
# Taylor series about x = L (odd orders only)
# ---------------------------------------------------------------------------


def odd_center_coefficient(spec, n, t, tol):
    """A_{2n-1}(t): the (2n-1)-st coefficient of the left boundary integral
    about x = L, via the image expansion of its contour kernel (Hermite
    moments of the heat kernel at odd multiples of L).  QuadratureError
    names the order when the quadrature value is not finite (at high
    orders the kernel's factors overflow); a missed budget alone still
    returns the value."""
    if n < 1:
        raise ValueError("odd center coefficients start at n = 1")
    from scipy import special
    L = spec.L

    def kernel(sigma):
        sigma = np.maximum(np.real(np.asarray(sigma)), 1e-300)
        tau = sigma * sigma
        out = np.zeros_like(sigma)
        for j in range(CENTER_IMAGES):
            y = (2 * j + 1) * L
            # support cutoff: the factors overflow individually where the
            # product (2 z^2 / y)^{2n} e^{-z^2} has already vanished
            zmax = 30.0
            for _ in range(3):
                zmax = math.sqrt(700.0 + 2 * n * math.log(
                    max(2 * zmax * zmax / y, 4.0)))
            z = y / (2.0 * sigma)
            live = z <= zmax
            if not np.any(live):
                continue
            zl = z[live]
            contrib = (4.0 * tau[live]) ** (-n) * special.eval_hermite(
                2 * n, zl)
            out[live] += contrib * np.exp(-zl * zl)
        return out * np.sqrt(math.pi) / sigma

    def integrand(sigma):
        sigma = np.real(np.asarray(sigma))
        datum = spec.f0.eval(t - sigma * sigma)
        # a kernel factor that overflows makes the value inf or nan, which
        # the check below refuses
        with np.errstate(over="ignore", invalid="ignore"):
            return datum * kernel(sigma) * 2.0 * sigma

    res = integrate_segment(integrand, 0.0, math.sqrt(t), tol=tol, rel_tol=tol)
    value = res.value[0].real
    if not math.isfinite(value):
        raise QuadratureError(
            f"odd center coefficient of order {2 * n - 1}: {res.warning}")
    return over_factorial(-2.0 / math.pi * float(value), 2 * n - 1)
