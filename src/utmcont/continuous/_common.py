"""Shared machinery for the per-problem solvers: Taylor data, continuation
across the boundary, and ``layer_potential``, the one quadrature of every
half-line boundary part that is a datum's time convolution with a kernel."""

from __future__ import annotations

import bisect
import math

import numpy as np

from ..expr import MAX_DERIVATIVE_ORDER, ExprDomainError
from ..quad import (HalfLineTransform, QuadratureError, gauss_panels,
                    graded_fractions, integrate_segment,
                    singular_time_convolution)
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
    reach 0 is datum(t), the limit as reach -> 0+.

    A row reads the datum at s = t(1 - (w0/(w0 + u))^q), which sweeps
    three quarters of [0, t] or more within u <= w0, so its integrand
    varies on the scale w0 near u = 0.  The rule therefore starts on panels
    graded from the smallest positive w0 (at most 1), doubling in width
    (``graded_fractions``): every row's layer is resolved from the first
    round, where a single starting interval would bisect down to it one
    interval per round, and for a tiny w0 would let the K15 and G7 nodes
    miss the layer and agree on a wrong value."""
    rows = reach[:, None]
    w0 = reach / t ** (1.0 / q)
    first = min(1.0, np.min(w0[w0 > 0], initial=1.0))

    def integrand(u):
        w = w0[:, None] + np.real(u)
        return datum.eval(np.clip(t - (rows / w) ** q, 0.0, t)) * kernel(w)

    res = integrate_segment(integrand, 0.0, span, tol=tol / 2,
                            edges=graded_fractions(span, first))
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


# the two divisors of over_factorial for each order n <= MAX_DERIVATIVE_ORDER,
# min(n, 170)! and 171 * ... * n (past n = 170, n! no longer converts to a
# float), each rounded to a float as Python rounds an integer divisor
_FACTORIAL_HEAD = np.array([float(math.factorial(min(n, 170)))
                            for n in range(MAX_DERIVATIVE_ORDER + 1)])
_FACTORIAL_TAIL = np.array([float(math.prod(range(171, n + 1)))
                            for n in range(MAX_DERIVATIVE_ORDER + 1)])


def over_factorial(value, n):
    """value / n!, taken as value / min(n, 170)! / (171 * ... * n)."""
    return float(value / _FACTORIAL_HEAD[n] / _FACTORIAL_TAIL[n])


def _checked(entry):
    """entry, or a fresh raise of the exception kept in its place."""
    if isinstance(entry, Exception):
        raise type(entry)(*entry.args)
    return entry


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
    ... 16b + 16, each computed whole once and kept on the spec per (datum,
    beta, t, tol, b), so a value depends on no other request, and every
    ladder that reads the family shares its blocks.  An order raises what
    its own terms raise: QuadratureError when its convolution misses its
    budget, ExprDomainError when a derivative it reads is not finite,
    OverflowError when one of its boundary weights, or their sum, leaves
    the float range.
    """
    block, row = divmod(m - 1, FRACTIONAL_BLOCK)
    key = (datum, beta, t, tol, block)
    if key not in spec.fractional:
        spec.fractional[key] = _fractional_block(
            spec.deriv(datum), block, t, beta, tol)
    return _checked(spec.fractional[key][row])


def _fractional_block(cache, block, t, beta, tol):
    """One entry per order m of block ``block``: its fractional family, or
    the exception its request raises.  The time convolutions are one vector
    integrand (one row per order, one jet to the block's last order per
    node) on the starting panels of ``singular_time_convolution``, which
    computes the jets once per round of its rule, and a smooth block meets
    its budget in the first round.  The boundary sums read one list of
    weights and one of f^(j)(0), in the order of r."""
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
    for m, ok, integral, warning in zip(range(lo, hi + 1), finite,
                                        conv.value, conv.warnings):
        if m > len(at_zero):
            entries.append(failed)
        elif not ok:
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
    ``coefficient(order)`` computes one coefficient, which may cost a
    quadrature or a fractional block.  The coefficients are computed in
    order of the orders, one per entry requested past the last one held,
    and kept in ``entries``.  A datum's ladder (``datum_ladder``) fills
    every entry of a derivative jet at once instead, and keeps in the place
    of an entry that is not finite its ExprDomainError, which every read of
    that entry raises.
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
        order, coeff = self.entries[i]
        return order, _checked(coeff)

    def block(self, i):
        """The orders and the coefficients, two arrays, of the entries held
        from i, which ``get(i)`` has read, up to the first one whose read
        raises."""
        orders, coeffs = [], []
        for order, coeff in self.entries[i:]:
            if isinstance(coeff, Exception):
                break
            orders.append(order)
            coeffs.append(coeff)
        return np.array(orders), np.array(coeffs)

    def through(self, order):
        """The entries of every carried order <= ``order``, raising the
        first error kept among them; computes no coefficient, jet or
        quadrature that they do not need."""
        count = bisect.bisect_right(self.orders, order)
        self._extend(count)
        return [(o, _checked(coeff)) for o, coeff in self.entries[:count]]

    def capped_below(self, order):
        """Whether the series carries an order <= ``order`` that the cap
        cuts off."""
        return any(o % self.stride in self.offsets
                   for o in range(MAX_DERIVATIVE_ORDER + 1, order + 1))

    def _extend(self, count):
        while len(self.entries) < count:
            order = self.orders[len(self.entries)]
            self.entries.append((order, self.coefficient(order)))


class _DatumLadder(CoeffLadder):
    """The doubled series of a datum at time t: entry i is sign^i f^(i)(t)
    / order!, order = stride*i + offset, read from the datum's derivative
    cache.  Entry 0 reads f(t) through ``DerivativeCache.value``; an entry
    i >= 1 past the last one held reads ``DerivativeCache.at(t, i)``, which
    computes the jet a per-entry read computes there, and fills every
    entry that array holds from i on, in one vectorized step with
    over_factorial's divisors."""

    def __init__(self, cache, t, stride, offset, sign, center):
        super().__init__(stride, (offset,), None, center)
        self.cache, self.t, self.sign = cache, t, sign

    def _extend(self, count):
        while len(self.entries) < count:
            i = len(self.entries)
            held = (self.cache.at(self.t, i)[i - 1:len(self.orders) - 1] if i
                    else [self.cache.value(0, self.t)])
            orders = self.orders[i:i + len(held)]
            signs = np.where(np.arange(i, i + len(held)) % 2, self.sign, 1.0)
            coeffs = (signs * held / _FACTORIAL_HEAD[orders]
                      / _FACTORIAL_TAIL[orders]).tolist()
            self.entries.extend(
                (o, c if math.isfinite(c) else ExprDomainError(
                    "evaluation produced a non-finite value"))
                for o, c in zip(orders, coeffs))


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
    right-end datum of the finite interval, and x = 0 for every other.
    A read past the entries held fills every entry that the datum's
    derivatives at t (``DerivativeCache.at``) cover at once, with the bits
    of ``datum_coefficient``; an entry whose derivative is not finite
    raises ExprDomainError when it is read."""
    stride, offset, sign = _DATUM_PARITIES[parity]
    return _DatumLadder(spec.deriv(datum), t, stride, offset, sign,
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


# a row past a point's stop is summed too, and dropped: its overflow is no
# error
@np.errstate(over="ignore", invalid="ignore")
def adaptive_series(ladder, dx, tol):
    """Sum coefficient * dx^order adaptively at each offset of the 1-D
    array dx, reading each ladder entry once for all of them.

    Past the first three entries, a point stops once three consecutive
    terms are below tol relative to its running magnitude, and its sum is
    frozen; the series stops when every point has, or at the ladder's order
    cap.  Every entry the ladder holds is summed in one array pass, its
    partial sums accumulated in turn, so that each point has the bits of
    its term-by-term sum.  The ladder is asked for more entries only while
    some point still needs one, and only for those that every point still
    summing reads, so it computes none that a term-by-term sum would not.
    Returns (values, last order read, stop_reason): the last order is that
    of the last entry a point needed, and stop_reason is "cap" when a point
    reached the cap and "converged" otherwise.
    """
    total = np.zeros(dx.shape)
    # the points still summing, compacted: positions, offsets, partial
    # sums, max(1, largest |partial sum|) and quiet-term counts
    live, x, part, scale, quiet = (np.arange(dx.size), dx, np.zeros(dx.size),
                                   np.ones(dx.size), np.zeros(dx.size, int))
    i = order = 0
    while live.size:
        # every live point reads the first six entries, and three more after
        # its last term that is not quiet: ask for those at once
        need = max(6 - i, 3 - int(quiet.min()))
        if ladder.get(max(i, min(i + need, len(ladder.orders)) - 1)) is None:
            total[live] = part
            return total, order, "cap"
        orders, coeffs = ladder.block(i)
        powers = x ** orders[:, None]
        if orders[0] <= 2 <= orders[-1]:
            # numpy's x ** 2 is a square, which its power can miss by an ulp
            powers[orders == 2] = x * x
        terms = coeffs[:, None] * powers
        # one row per entry, after a first row of the sums so far
        parts = np.add.accumulate(np.concatenate((part[None], terms)))
        mags = np.abs(parts)
        mags[0] = scale
        scales = np.maximum.accumulate(mags)
        # three quiet terms in a row, counting the run a point brings in;
        # the first three terms are never quiet
        runs = np.concatenate(((quiet >= 2)[None], (quiet >= 1)[None],
                               np.abs(terms) <= 0.5 * tol * scales[1:]))
        runs[2:2 + max(0, 3 - i)] = False
        stops = runs[:-2] & runs[1:-1] & runs[2:]
        part, scale = parts[-1], scales[-1]
        quiet = runs[-1] * (1 + runs[-2])
        if stops.any():
            stop = np.argmax(stops, axis=0)
            done = stops[stop, np.arange(x.size)]
            total[live[done]] = parts[stop[done] + 1, done]
            if done.all():
                return total, int(orders[stop.max()]), "converged"
            keep = ~done
            live, x, part, scale, quiet = (
                a[keep] for a in (live, x, part, scale, quiet))
        i += len(orders)
        order = int(orders[-1])
    return total, order, "converged"
