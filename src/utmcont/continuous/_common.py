"""Shared machinery for the per-problem solvers: Taylor data, continuation
across the boundary, and ``layer_potential``, the one quadrature of every
half-line boundary part that is a datum's time convolution with a kernel."""

from __future__ import annotations

import bisect
import math

import numpy as np

from ..expr import MAX_DERIVATIVE_ORDER, ExprDomainError
from ..quad import (HalfLineTransform, QuadratureError, gauss_panels,
                    integrate_segment, singular_time_convolution)
from ..specfun import gamma

__all__ = [
    "real_part",
    "layer_potential",
    "require_half_line",
    "data_rule",
    "over_factorial",
    "datum_coefficient",
    "fractional_family",
    "CoeffLadder",
    "datum_ladder",
    "doubled_series",
    "reflected",
    "adaptive_series",
    "ResidualWarning",
    "OutsideWindowError",
    "COEFF_TOL",
]

# Tolerance of the Taylor coefficients behind every continued solution.
COEFF_TOL = 1e-11

# Orders per block of the fractional coefficient families.
FRACTIONAL_BLOCK = 16


class ResidualWarning(RuntimeError):
    """Imaginary residual of a real-valued assembly exceeded its budget."""


class OutsideWindowError(ValueError):
    """Boundary integral requested outside its representation window."""


def real_part(rows, tol, where, warnings=()):
    """Real parts of the 1-D complex array ``rows`` of assembled integrals.
    QuadratureError names ``where`` and the first row whose quadrature
    missed its budget (``warnings``, the per-row warnings of the
    ``integrate_segment`` result the rows were read from); ResidualWarning
    names the first row whose imaginary part is not within its budget or
    whose real part is not finite (a NaN fits no budget)."""
    missed = next((row for row, w in enumerate(warnings) if w), None)
    if missed is not None:
        raise QuadratureError(f"{where} row {missed}: {warnings[missed]}")
    ok = np.isfinite(rows.real) & (
        np.abs(rows.imag) <= 100 * tol * np.maximum(1.0, np.abs(rows.real)))
    if not ok.all():
        row = int(np.argmin(ok))
        raise ResidualWarning(
            f"{where} row {row}: value {rows[row]:.3e} is not a finite real "
            "within its imaginary-residual budget")
    return rows.real


def layer_potential(datum, reach, t, q, kernel, span, tol, where):
    """int datum(t - (reach/w)^q) kernel(w) dw over [w0, w0 + span],
    w0 = reach/t^{1/q}, for each row of the 1-D array reach >= 0, on one
    ``integrate_segment`` rule in u = w - w0 shared by the rows, each with
    budget tol/2.  The datum is read through its checked eval; a missed
    budget raises QuadratureError naming the row and ``where``; a row with
    reach 0 is datum(t), the limit as reach -> 0+."""
    rows = reach[:, None]

    def integrand(u):
        w = rows / t ** (1.0 / q) + np.real(u)
        return datum.eval(np.clip(t - (rows / w) ** q, 0.0, t)) * kernel(w)

    res = integrate_segment(integrand, 0.0, span, tol=tol / 2)
    out = real_part(res.value, tol, where, res.warnings)
    out[reach == 0] = float(datum.eval(t))
    return out


def require_half_line(xs, where):
    """OutsideWindowError naming ``where`` if a point of the 1-D array xs
    lies behind the boundary."""
    if np.any(xs < 0):
        raise OutsideWindowError(f"{where} needs x >= 0; use the extension "
                                 "for x < 0")


def data_rule(spec, tol, width=None):
    """(nodes y, weighted values c = w u0(y)) of the rule of u0 behind a
    half-line i0 of tolerance tol, one row per panel, so that
    u0_hat(k) = sum_n c_n e^{-iky_n}.  The panels are the edges of the
    half-line transform of u0 at its resolved decay class and tolerance
    min(tol, 1e-12)/100, each [a, b] split into equal panels no wider than
    width(b) when ``width`` is given."""
    edges = HalfLineTransform(spec.u0, *spec.decay(),
                              tol=min(tol, 1e-12) * 1e-2).edges()
    if width is not None:
        splits = np.ceil(np.diff(edges) / width(edges[1:])).astype(int)
        edges = np.concatenate(
            [np.linspace(lo, hi, n, endpoint=False)
             for lo, hi, n in zip(edges[:-1], edges[1:], splits)]
            + [edges[-1:]])
    y, w = gauss_panels(edges, 24)
    return y, w * spec.u0.eval(y)


def over_factorial(value, n):
    """value / n!, taken as value / min(n, 170)! / (171 * ... * n): past
    n = 170, n! no longer converts to a float."""
    return (value / math.factorial(min(n, 170))
            / math.prod(range(171, n + 1)))


def datum_coefficient(cache, order, t, stride=2, offset=0, sign=1.0):
    """sign^i f^(i)(t) / order! for order = stride*i + offset: one term of
    the doubled series a datum contributes across the boundary."""
    i = (order - offset) // stride
    return over_factorial(sign**i * cache.value(i, t), order)


def fractional_family(spec, datum, m, t, beta, tol):
    """sum_{r=1}^{m} (-1)^{m-r} G(m-r+beta) t^{-(m-r+beta)} f^(r-1)(0)
    + G(beta) int_0^t f^(m)(s) (t-s)^{-beta} ds for the datum f: the
    boundary-derivative sum plus endpoint-singular time convolution behind
    every fractional coefficient family (heat Dirichlet odd orders with
    beta = 1/2, the KdV families with beta = 1/3 and 2/3).

    The orders come in fixed blocks b of FRACTIONAL_BLOCK = 16, m = 16b + 1
    ... 16b + 16, each computed once and kept on the spec per (datum, beta,
    t, tol, b), so a value depends on no other request.  An order raises
    what its own terms raise: QuadratureError when its convolution misses
    its budget, ExprDomainError when a derivative it reads is not finite,
    OverflowError when one of its boundary weights, or their sum, leaves
    the float range.
    """
    block, row = divmod(m - 1, FRACTIONAL_BLOCK)
    key = (datum, beta, t, tol, block)
    if key not in spec.fractional:
        spec.fractional[key] = _fractional_block(
            spec.deriv(datum), block, t, beta, tol)
    value = spec.fractional[key][row]
    if isinstance(value, Exception):
        raise type(value)(*value.args)
    return value


def _fractional_block(cache, block, t, beta, tol):
    """One entry per order m of block ``block``: its fractional family, or
    the exception its request raises.  The time convolutions are one vector
    integrand (one row per order, one jet per node), and the boundary sums
    read one list of weights and one of f^(j)(0), in the order of r."""
    lo = FRACTIONAL_BLOCK * block + 1
    hi = lo + FRACTIONAL_BLOCK - 1
    finite = np.ones(FRACTIONAL_BLOCK, dtype=bool)

    def smooth(s):
        # a row with a non-finite value fails alone, and integrates zeros
        rows = cache.derivatives(lo, hi, s)
        ok = np.isfinite(rows).all(axis=1)
        np.logical_and(finite, ok, out=finite)
        rows[~ok] = 0.0
        return rows

    conv = singular_time_convolution(beta, smooth, t, tol=tol)
    # the boundary terms up to the first j that raises; an order m reads
    # j < m, so it raises that error when m > len(at_zero)
    weights, at_zero, failed = [], [], None
    try:
        for j in range(hi):
            weights.append((-1.0) ** j * gamma(j + beta) * t ** -(j + beta))
            at_zero.append(cache.value(j, 0.0))
    except (OverflowError, ExprDomainError) as err:
        failed = err
    scale = gamma(beta)
    entries = []
    for row, (integral, warning) in enumerate(zip(conv.value,
                                                  conv.warnings)):
        m = lo + row
        if m > len(at_zero):
            entries.append(failed)
        elif not finite[row]:
            entries.append(ExprDomainError(
                "evaluation produced a non-finite value"))
        elif warning:
            entries.append(QuadratureError(warning))
        else:
            total = 0.0
            for r in range(1, m + 1):
                total += weights[m - r] * at_zero[r - 1]
            # a weight past the float range makes the sum inf or nan
            entries.append(total + scale * float(integral)
                           if math.isfinite(total) else OverflowError(
                               f"boundary sum of order {m} overflows"))
    return entries


class CoeffLadder:
    """Lazily extended Taylor data (order, coefficient) of one series about
    ``center``.

    The series carries the orders stride*q + r, r in ``offsets``, up to
    MAX_DERIVATIVE_ORDER (a stride-1 series carries its structural zeros);
    ``coefficient(order)`` computes one coefficient.  Entries are computed
    in order of the orders and kept in ``entries``.
    """

    def __init__(self, stride, offsets, coefficient, center=0.0):
        self.stride = stride
        self.offsets = offsets
        self.coefficient = coefficient
        self.center = center
        self.orders = [o for o in range(MAX_DERIVATIVE_ORDER + 1)
                       if o % stride in offsets]
        self.entries = []

    def get(self, i):
        """Entry i, or None past the last carried order."""
        if i >= len(self.orders):
            return None
        self._extend(i + 1)
        return self.entries[i]

    def through(self, order):
        """The entries of every carried order <= ``order``; computes none
        beyond it."""
        count = bisect.bisect_right(self.orders, order)
        self._extend(count)
        return self.entries[:count]

    def capped_below(self, order):
        """Whether the series carries an order <= ``order`` that the cap
        cuts off."""
        return any(o % self.stride in self.offsets
                   for o in range(MAX_DERIVATIVE_ORDER + 1, order + 1))

    def _extend(self, count):
        while len(self.entries) < count:
            order = self.orders[len(self.entries)]
            self.entries.append((order, self.coefficient(order)))


_DATUM_PARITIES = {
    # parity: (stride, offset, sign)
    "even": (2, 0, 1.0),
    "odd": (2, 1, 1.0),
    "cubic": (3, 0, -1.0),
}


def datum_ladder(spec, datum, parity, t):
    """Ladder of a datum's doubled series at time t: "even" carries
    f^(i)(t)/(2i)!, "odd" f^(i)(t)/(2i+1)!, "cubic" (-1)^i f^(i)(t)/(3i)!.
    The series is about the datum's boundary point: x = L for g0, the
    right-end datum of the finite interval, and x = 0 for every other."""
    stride, offset, sign = _DATUM_PARITIES[parity]
    cache = spec.deriv(datum)
    return CoeffLadder(
        stride, (offset,),
        lambda order: datum_coefficient(cache, order, t, stride, offset, sign),
        spec.L if datum == "g0" else 0.0)


def doubled_series(ladder, xs, tol, factor=2.0):
    """factor * sum coefficient * (x - center)^order at each point of the
    1-D array xs, summed adaptively: the reflected series the extensions add
    across a boundary."""
    value, _, _ = adaptive_series(ladder, xs - ladder.center, tol)
    return factor * value


def reflected(xs, boundary, ladder, sign, tol):
    """A half-line boundary part at each point of the 1-D array xs,
    continued across x = 0 by its reflection identity: boundary(x) for
    x >= 0, and the doubled series of ``ladder`` plus sign * boundary(-x)
    for x < 0.  ``boundary`` is called once, on the distinct values of |x|,
    and the series once, on the points behind the boundary.
    """
    dist, back = np.unique(np.abs(xs), return_inverse=True)
    out = boundary(dist)[back]
    neg = xs < 0
    out[neg] = doubled_series(ladder, xs[neg], tol) + sign * out[neg]
    return out


def adaptive_series(ladder, dx, tol):
    """Sum coefficient * dx^order adaptively at each offset of the 1-D
    array dx, reading each ladder entry once for all of them.

    Past the first three entries, a point stops once three consecutive
    terms are below tol relative to its running magnitude, and its sum is
    frozen; the series stops when every point has, or at the ladder's order
    cap.  Returns (values, last order read, stop_reason), where stop_reason
    is "cap" when a point reached the cap and "converged" otherwise.
    """
    total = np.zeros(dx.shape)
    # the points still summing, compacted: positions, offsets, partial
    # sums, max(1, largest |partial sum|) and quiet-term counts
    live, x, part, scale, quiet = (np.arange(dx.size), dx, np.zeros(dx.size),
                                   np.ones(dx.size), 0)
    i = order = 0
    while live.size:
        entry = ladder.get(i)
        if entry is None:
            total[live] = part
            return total, order, "cap"
        order, coeff = entry
        term = coeff * x ** order
        part = part + term
        scale = np.maximum(scale, np.abs(part))
        if i >= 3:
            quiet = (quiet + 1) * (np.abs(term) <= 0.5 * tol * scale)
            if quiet.max() >= 3:
                done = quiet >= 3
                total[live[done]] = part[done]
                live, x, part, scale, quiet = (
                    a[~done] for a in (live, x, part, scale, quiet))
        i += 1
    return total, order, "converged"
