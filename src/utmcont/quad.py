"""Quadrature over straight segments.

:func:`integrate_segment` is adaptive Gauss-Kronrod (G7/K15) with interval
bisection, vectorized over the active intervals, from starting panels
that its caller may grade (``edges``) to where the integrand varies
fastest, so that a layer near an endpoint is resolved in the first round
rather than bisected down to one interval at a time.  Its callers integrate
over real segments (boundary potentials, time convolutions), except the
two-condition KdV corner terms, which still integrate on complex rays in
the k-plane.  Every fixed rule of the package comes from
:func:`gauss_panels`.

Also provides the half-line transform of initial data, whose fixed rule
every half-line initial part reads as a finite sum (the heat-type kinds
over its panels, the KdV kinds over its panels split to the Airy kernel's
wavelength); no solver evaluates the transform or the finite-interval
transform at any k, and tests use both as oracles.  Last come the
endpoint-singular time convolutions appearing in the odd/fractional
Taylor-coefficient formulas (beta = 1/2, 1/3 and 2/3), a block of them
(one row each) on one shared rule over one substitution u = (t-s)^{1/p},
started on CONVOLUTION_PANELS equal panels in u so that a smooth block
meets its budget in the first round and computes its derivative jets once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureResult",
    "QuadratureError",
    "DecayError",
    "integrate_segment",
    "gauss_panels",
    "geometric_edges",
    "graded_fractions",
    "row_sums",
    "HalfLineTransform",
    "finite_interval_transform",
    "singular_time_convolution",
]


class QuadratureError(RuntimeError):
    """Adaptive subdivision failed to reach the requested tolerance."""


class DecayError(ValueError):
    """Declared decay of the data cannot dominate a transform kernel."""


# Gauss-Kronrod 15-point nodes/weights on [-1, 1] with embedded Gauss-7.
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])  # 15 ascending nodes
_WK = np.concatenate([_WGK[:-1], _WGK[::-1]])
_WG15 = np.zeros(15)
_WG15[1:-1:2] = np.concatenate([_WG[:-1], _WG[::-1]])


@dataclass
class QuadratureResult:
    """One quadrature's values, error estimates and warnings, one per row of
    its integrand, with its evaluation count and its first warning."""

    value: np.ndarray
    error: np.ndarray
    evaluations: int = 0
    warning: str | None = None
    warnings: tuple = ()


# ---------------------------------------------------------------------------
# Core adaptive Gauss-Kronrod on a straight segment (complex line integral)
# ---------------------------------------------------------------------------


def integrate_segment(f, a, b, tol, max_intervals=4096, edges=(0.0, 1.0),
                      rel_tol=None):
    """Adaptive GK15 of a vectorized complex integrand along segment a->b.

    ``f`` maps a 1-D array of nodes to an array of shape (rows,
    len(nodes)), one row per component (e.g. one per x of a grid) sharing
    the nodes; an array of the nodes' length is the one-row case.  Each row
    gets its own K15 value and |K15 - G7| error estimate on one shared set
    of intervals, and its own budget: tol (absolute), or
    rel_tol * |row integral| when ``rel_tol`` is given and larger.  The
    intervals start as the panels between ``edges``, fractions
    0 = e_0 < ... < e_m = 1 of the segment (one panel by default), and each
    round bisects the third of the intervals (at least one) carrying the
    largest share of the budget of any row still above it; refinement stops
    when every row meets its budget, or at ``max_intervals``.

    The result holds arrays of values and errors, one warning per row in
    ``warnings`` (None where the row met its budget), and the first of those
    warnings in ``warning``.  A row whose value or error is not finite gets
    a warning too, and the arithmetic that makes it raises no numpy warning;
    a NaN error is never above its budget, so a row with one does not steer
    refinement.
    """
    a = complex(a)
    direction = complex(b) - a
    edges = np.asarray(edges, dtype=float)
    lo = edges[:-1]
    hi = edges[1:]

    def eval_intervals(lo_arr, hi_arr):
        mid = 0.5 * (lo_arr + hi_arr)[:, None]
        half = 0.5 * (hi_arr - lo_arr)[:, None]
        z = a + (mid + half * _NODES[None, :]) * direction
        vals = np.asarray(f(z.ravel()), dtype=complex)
        # (rows, intervals, 15) @ (15,) is one product per row, so a row's
        # values do not depend on the other rows or their order
        with np.errstate(over="ignore", invalid="ignore"):
            scaled = vals.reshape(-1, *z.shape) * direction
            k15 = (scaled @ _WK) * half[:, 0]
            g7 = (scaled @ _WG15) * half[:, 0]
            return k15, np.abs(k15 - g7)

    vals, errs = eval_intervals(lo, hi)
    evaluations = 15 * len(lo)

    limit = np.full(len(vals), float(tol))
    while True:
        total_errs = errs.sum(axis=1)
        if rel_tol is not None:
            limit = np.maximum(tol, rel_tol * np.abs(vals.sum(axis=1)))
        over = total_errs > limit
        if not over.any() or len(lo) >= max_intervals:
            break
        share = (errs[over] / limit[over, None]).max(axis=0)
        n_split = max(1, len(lo) // 3)
        order = np.argsort(share)[::-1]
        split = order[:n_split]
        keep = order[n_split:]
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[keep], lo[split], mid])
        new_hi = np.concatenate([hi[keep], mid, hi[split]])
        new_vals, new_errs = eval_intervals(
            np.concatenate([lo[split], mid]), np.concatenate([mid, hi[split]])
        )
        evaluations += 15 * 2 * n_split
        vals = np.concatenate([vals[:, keep], new_vals], axis=1)
        errs = np.concatenate([errs[:, keep], new_errs], axis=1)
        lo, hi = new_lo, new_hi

    totals = vals.sum(axis=1)
    warnings = [None] * len(vals)
    for row in np.flatnonzero(over):
        worst = int(np.argmax(errs[row]))
        warnings[row] = (
            f"tolerance {tol:g} not met (error {total_errs[row]:g}); worst "
            f"subinterval [{lo[worst]:.6g}, {hi[worst]:.6g}] in fractions "
            "of the segment"
        )
    bad = ~(np.isfinite(totals) & np.isfinite(total_errs))
    for row in np.flatnonzero(bad):
        warnings[row] = (f"value {totals[row]:.3g} or error "
                         f"{total_errs[row]:g} is not finite")
    first = next((w for w in warnings if w is not None), None)
    return QuadratureResult(totals, total_errs, evaluations, first,
                            tuple(warnings))


# ---------------------------------------------------------------------------
# Data transforms
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _legendre(order):
    # leggauss solves an eigenproblem (about 0.5 ms at order 24): once each
    return np.polynomial.legendre.leggauss(order)


def gauss_panels(edges, order):
    """Composite ``order``-point Gauss-Legendre rule over the panels
    [edges[i], edges[i+1]]: (nodes, weights), one row per panel."""
    x, w = _legendre(order)
    edges = np.asarray(edges, dtype=float)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return mid + half * x, half * w


def geometric_edges(upper, first, ratio):
    """Panel edges 0 = e_0 < e_1 < ... = upper whose widths start at
    ``first`` and grow by ``ratio``; the last panel is cut at ``upper``."""
    edges = [0.0]
    step = first
    while edges[-1] < upper:
        edges.append(min(edges[-1] + step, upper))
        step *= ratio
    return np.array(edges)


def graded_fractions(upper, first):
    """``edges`` of :func:`integrate_segment` over [0, upper] for a layer of
    width ``first`` at 0: the panels' widths start at ``first`` and double,
    as fractions of upper.  A first width below eps * upper is raised to
    it: a narrower layer moves the integral by less than the rounding of
    the rule's own sum, about eps * upper * max|f|."""
    floor = np.finfo(float).eps * upper
    return geometric_edges(upper, max(first, floor), 2.0) / upper


def row_sums(matrix, wvals):
    """matrix @ wvals, one row at a time: unlike a matrix-vector product,
    whose blocking sums a row differently with different companions, each
    value depends only on its own row."""
    return np.einsum("kn,n->k", matrix, wvals)


def _decay_truncation_point(u0, decay_kind, rate, tol):
    """Upper limit Y with |u0(Y)| below tol."""
    if decay_kind == "exponential":
        return math.log(10.0 / tol) / rate
    # gaussian / superexponential: scan geometrically in log space
    log_target = math.log(tol) - 5.0
    y = 4.0
    for _ in range(60):
        val = abs(float(u0.eval(y)))
        if (math.log(val) if val > 0 else -1e9) < log_target:
            return y
        y *= 1.3
    raise DecayError("could not find a truncation point for the data transform")


class HalfLineTransform:
    """u0_hat(k) = integral over (0, inf) of e^{-iky} u0(y) dy.

    Evaluation uses one fixed rule: 24-point Gauss-Legendre panels on (0, Y),
    geometrically growing from the origin (ratio 1.6, :meth:`edges`), with Y
    chosen from the declared decay class so the discarded tail is below tol.
    The rule does not adapt to k, so the transform is the finite sum
    u0_hat(k) = sum_n c_n e^{-iky_n}, c_n = w_n u0(y_n).  Every solver's
    k-integral of that sum has a closed form, so the solvers read the rule
    (``continuous._common.data_rule`` builds it from :meth:`edges`) and no
    solver calls the transform itself; tests use its values as the
    k-integral oracle of those closed forms.  Each value is a row-wise sum
    over the rule, so it depends only on its own k, never on the other k of
    a call.
    """

    def __init__(self, u0, decay_kind="exponential", rate=1.0, tol=1e-12):
        self.u0 = u0
        self.decay_kind = decay_kind
        self.rate = rate
        self.tol = tol

    def edges(self):
        """Edges of the rule's panels on (0, Y): geometric, so that they
        resolve both the origin region and the slow tail."""
        upper = _decay_truncation_point(self.u0, self.decay_kind, self.rate,
                                        self.tol)
        return geometric_edges(upper, min(1.0, upper / 8), 1.6)

    def __call__(self, k):
        k_arr = np.atleast_1d(np.asarray(k, dtype=complex))
        if np.any(k_arr.imag > 1e-12):
            raise DecayError(
                "transform requested above the real axis (Im k = "
                f"{float(np.max(k_arr.imag)):g} > 0)")
        nodes, weights = (a.ravel() for a in gauss_panels(self.edges(), 24))
        wvals = weights * self.u0.compiled()(nodes)
        out = row_sums(np.exp(-1j * np.outer(k_arr, nodes)), wvals)
        if np.ndim(k) == 0:
            return complex(out[0])
        return out


def finite_interval_transform(u0, L, k):
    """u0_hat(k) = integral over (0, L) of e^{-iky} u0(y) dy (entire in k).

    24-point Gauss-Legendre panels on [0, L], max(4, |k| L / 6) of them,
    sized for each k separately: a value depends only on its own k.  No
    solver calls it: finite-interval i0 is an image sum over its own rule
    of u0.  It stays as the oracle of that sum's eigenfunction series.
    """
    if L <= 0:
        raise ValueError("interval length L must be positive")
    k_arr = np.atleast_1d(np.asarray(k, dtype=complex))
    panels = np.maximum(4, (np.abs(k_arr) * L / 6.0).astype(int))
    out = np.empty(k_arr.shape, dtype=complex)
    for count in np.unique(panels):
        nodes, weights = gauss_panels(np.linspace(0.0, L, count + 1), 24)
        nodes = nodes.ravel()
        wvals = weights.ravel() * u0.eval(nodes)
        group = panels == count
        out[group] = row_sums(np.exp(-1j * np.outer(k_arr[group], nodes)),
                              wvals)
    if np.ndim(k) == 0:
        return complex(out[0])
    return out


# beta -> p of the substitution u = (t - s)^{1/p}
_ROOTS = {0.5: 2, 1.0 / 3.0: 3, 2.0 / 3.0: 3}

# Starting panels of a time convolution, equal in u.  Each round of the
# rule calls the integrand once, and a block of fractional orders computes
# its derivative jets once per call, at about 0.2-0.3 ms whatever the node
# count.  From one interval the rule grows by one interval per round: the
# 12 blocks of one pass of the benchmark's sweep list took 59 rounds.  On
# 8 panels each block of its sweep and continuation lists (seeds 1 and 2)
# meets its budget in the first round: 12 rounds and 1,440 evaluations per
# sweep pass instead of 59 and 1,590.
CONVOLUTION_PANELS = 8
_CONVOLUTION_EDGES = np.linspace(0.0, 1.0, CONVOLUTION_PANELS + 1)


def singular_time_convolution(beta, smooth, t, tol):
    """integral over (0, t) of g(s)/(t-s)^beta ds, for each row of a real
    smooth part g = smooth(s) of shape (rows, nodes).

    One substitution u = (t-s)^{1/p} removes the endpoint singularity, with
    p = 2 for beta = 1/2 and p = 3 for beta = 1/3 and 2/3: then s is a
    polynomial in u, (t-s)^{-beta} ds = p u^{p(1-beta)-1} du with a whole
    exponent, and the integrand p u^{p(1-beta)-1} g(t - u^p) over
    (0, t^{1/p}) is smooth wherever g is.  Any other beta raises
    ValueError.  The rows share one rule, each with its own budget
    tol max(1, |value|), and a missed budget never raises: the result is
    the QuadratureResult of the rule, with the real row values and one
    warning per row.

    The rule starts on CONVOLUTION_PANELS equal panels in u and calls
    ``smooth`` once per round, on the nodes of every interval that round
    evaluates: a smooth part that computes derivative jets computes them
    once per round, and a smooth block meets its budget in the first.
    """
    if beta not in _ROOTS:
        raise ValueError(f"singular exponent beta must be one of 1/2, 1/3 "
                         f"and 2/3, not {beta!r}")
    if t <= 0:
        raise ValueError("time convolution requires t > 0")
    p = _ROOTS[beta]
    power = round(p * (1.0 - beta)) - 1
    upper = t ** (1.0 / p)

    def integrand(u):
        u = np.minimum(np.real(np.asarray(u)), upper)
        rows = np.asarray(smooth(np.clip(t - u ** p, 0.0, t)), dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            return rows * (p * u ** power)

    res = integrate_segment(integrand, 0.0, upper, tol=tol, rel_tol=tol,
                            edges=_CONVOLUTION_EDGES)
    res.value = res.value.real
    return res
