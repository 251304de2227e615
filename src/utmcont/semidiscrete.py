"""Semi-discrete heat equation: centered stencil on a half-line lattice.

The lattice solution is a pair of integrals over one period of the discrete
dispersion relation W(k) = (2 - 2 cos kh)/h^2; the substitution theta = k h
makes the oscillation e^{i n theta} uniform in the lattice index.  For
indices behind the boundary the solution continues through an exact finite
sum over boundary-datum derivatives weighted by pole-free gamma-ratio
products, plus the reflected interior value.  A profile over a window is
one range call over every interior index the window reads, its own and
those its continued values reflect to, so all share one theta grid, and
one continued call over its indices behind the boundary, whose weights
form one table, a row per derivative order p and a column per index: each
weight is the running product of its gamma ratios down its column, for
either condition, and the table is summed row by row in the order p, its
derivatives read from one jet of the datum at T.

Both conditions read one theta rule over [0, pi] for their data part,
the Dirichlet integrand being odd in theta and the Neumann one conjugate
at -theta: equal panels of 12 Gauss nodes, node i of panel p at c_i + 2 pi
p / L, L twice the panel count.  So e^{i m theta} = e^{i m c_i} e^{2 pi i
m p / L} exactly, and each theta-sum is one length-L FFT over the panel
index per offset c_i: the data transform sum_m u0(m h) e^{-+i m theta}
transforms the samples weighted by e^{-+i m c_i} and folded mod L in
blocks m = q L + r, at 12 (Q + L) exponentials for Q L samples, and
the interior sum of e^{i n theta} against the integrand reads its FFTs at
n mod L.

The boundary part is read in closed form.  The datum convolution C(theta)
= int_0^T e^{-W(theta) tau} datum(T - tau) dtau depends on theta through
cos theta alone; by Jacobi-Anger, C = a_0 / 2 + sum_m a_m cos m theta with
a_m = int_0^T datum(T - tau) 2 e^{-z} I_m(z) dtau, z = 2 tau / h^2.  Its
theta-integrals against sin theta sin n theta and (1 + e^{i theta}) e^{i n
theta} are (a_{n-1} - a_{n+1}) / 2 and (a_n + a_{n+1}) / 2, so the
boundary part is (a_{n-1} - a_{n+1}) / (2 h^2) for Dirichlet and -(a_n +
a_{n+1}) / (2 h) for Neumann.  The coefficients a_0 .. a_{n_max + 1} are
one DCT-I of C at M + 1 equal angles, the trapezoid rule, whose aliases of
a_m lie at the indices 2 j M -+ m.  M is sized so that these are all at
least m_tail, where a Chernoff bound on the tail of e^{-z} I_m(z) puts the
coefficients' sum below 2 e^{-40} T max|datum|; it grows as sqrt(T) / h,
the scale of C near theta = 0.

C is one lag rule of geometric Gauss panels, shared by every angle but
cut per angle: the rule ends, at each angle, before the first lag panel
whose first node has W tau > 40.  Every term it drops is below e^{-40} |w
datum(T - tau)|, so each a_m moves by less than 2 e^{-40} T max|datum|,
and the aliases add less than as much again: u_n moves by less than 2e-17
T max|datum| / h^2 for Dirichlet and 2e-17 T max|datum| / h for Neumann.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .expr import DerivativeCache, Expression, ExprDomainError
from .quad import gauss_panels, geometric_edges

__all__ = [
    "LatticeSpec",
    "sd_heat_dirichlet_range",
    "sd_heat_dirichlet_continued",
    "sd_heat_neumann_range",
    "sd_heat_neumann_continued",
    "continuum_limit_check",
    "window_nodes",
]


@dataclass
class LatticeSpec:
    """Centered-stencil lattice problem on n >= 0 with spacing h.

    ``condition`` is "dirichlet" (datum f0 = u at node 0) or "neumann"
    (datum u = backward-difference slope).  ``u0`` supplies the initial
    samples u0(n h).
    """

    h: float
    u0: Expression
    datum: Expression
    T: float
    condition: str = "dirichlet"

    def __post_init__(self):
        if self.h <= 0:
            raise ValueError("lattice spacing h must be positive")
        if self.T <= 0:
            raise ValueError("final time T must be positive")
        if self.condition not in ("dirichlet", "neumann"):
            raise ValueError(f"unknown boundary condition {self.condition!r}")

    @cached_property
    def deriv(self):
        """Derivative ladder of the boundary datum."""
        return DerivativeCache(self.datum)

    @cached_property
    def samples(self):
        """(m0, values): the initial samples u0(m h), m = m0, m0 + 1, ...,
        read (checked) in blocks of 4096 until the last 256 of a block fall
        below 1e-17 max|u0|, and a ValueError if they have not by
        m = 2,000,000.  The Dirichlet sum starts at m0 = 1, Neumann at 0."""
        start = 1 if self.condition == "dirichlet" else 0
        block, keep, scale = 4096, [], 1.0
        for m0 in range(start, 2_000_000, block):
            vals = np.asarray(self.u0.eval(np.arange(m0, m0 + block)
                                           * self.h), dtype=float)
            keep.append(vals)
            scale = max(scale, float(np.max(np.abs(vals))))
            tail = float(np.max(np.abs(vals[-256:])))
            if tail < 1e-17 * scale:
                return start, np.concatenate(keep)
        raise ValueError(f"u0 samples do not decay: |u0(m h)| is still "
                         f"{tail:.3g} at m = {m0 + block - 1}")

    def dispersion(self, theta):
        return (2.0 - 2.0 * np.cos(theta)) / (self.h * self.h)


# ---------------------------------------------------------------------------
# shared grids
# ---------------------------------------------------------------------------


def _theta_grid(n_max):
    """Equal Gauss panels over [0, pi] resolving e^{i n theta}: (nodes,
    weights) in rows of 12, one row per panel."""
    panels = max(24, int(1.5 * n_max) + 8)
    return gauss_panels(np.linspace(0.0, math.pi, panels + 1), 12)


# the lag rule ends, at each angle, before the first lag panel whose first
# node has W tau past this, and the cosine coefficients are cut where their
# tail falls below e^{-_CUT}
_CUT = 40.0


def _tail_index(z):
    """m_tail, an integer with sum_{m >= m_tail} e^{-z} I_m(z) <= e^{-40}.
    e^{-z} I_m(z) is the law of a difference of two Poisson variables of
    mean z / 2, whose tail from m on is at most e^{-phi(m)}, phi(m) = m
    asinh(m / z) - sqrt(m^2 + z^2) + z (Chernoff).  phi is convex and
    increasing, so a Newton step from any m > 0 lands at or above the root
    of phi = 40, and the steps after it descend to the root: the ceiling
    of the last step is an m_tail."""
    m = math.sqrt(2.0 * _CUT * z) + 1.0
    for _ in range(6):
        phi = m * math.asinh(m / z) - m * m / (math.hypot(m, z) + z)
        m += (_CUT - phi) / math.asinh(m / z)
    return math.ceil(m)


def _angle_count(spec, top):
    """M for the DCT-I of C whose coefficients a_0 .. a_top keep their
    aliases, at the indices 2 j M -+ m, past the tail: M > top and 2 M - top
    >= m_tail at z = 2 T / h^2, the largest z the convolution reaches (the
    tail bound grows with z)."""
    tail = _tail_index(2.0 * spec.T / (spec.h * spec.h))
    return max(top + 1, -(-(top + tail) // 2))


def _cosine_coefficients(spec, top):
    """a_0 .. a_top of C(theta) = a_0 / 2 + sum_m a_m cos m theta: C at the
    M + 1 angles pi k / M, k = 0 .. M, and one rfft of its even extension,
    the trapezoid rule (a DCT-I)."""
    M = _angle_count(spec, top)
    conv = _datum_convolution(spec, np.linspace(0.0, math.pi, M + 1))
    spectrum = np.fft.rfft(np.concatenate([conv, conv[-2:0:-1]]))
    return spectrum[:top + 1].real / M


def _datum_convolution(spec, theta_nodes):
    """C(theta) = int_0^T e^{-W(theta) tau} datum(T - tau) dtau at the
    ascending angles in [0, pi], the datum read once through the checked
    ``eval``.  The lag rule is geometric panels of 12 Gauss nodes, which
    resolve the stiffest mode W = 4/h^2; a panel whose first lag node is
    tau_0 adds its terms only at the angles where W tau_0 <= 40.  W
    ascends with theta, so those angles are a prefix, found by one search,
    and each panel's exponentials fill the prefix of one buffer.  Every
    dropped term is below e^{-40} |w datum(T - tau)|, so C moves by less
    than e^{-40} T max|datum| and each cosine coefficient by less than
    twice that."""
    T, h = spec.T, spec.h
    nodes, weights = gauss_panels(geometric_edges(T, h * h / 8.0, 1.5), 12)
    weighted = weights * spec.datum.eval(T - nodes)
    w_disp = spec.dispersion(theta_nodes)
    total = np.zeros_like(theta_nodes)
    block = np.empty((nodes.shape[1], len(theta_nodes)))
    for tau, wt in zip(nodes, weighted):
        alive = np.searchsorted(w_disp, _CUT / tau[0], side="right")
        part = block[:, :alive]
        np.multiply.outer(-tau, w_disp[:alive], out=part)
        np.exp(part, out=part)
        total[:alive] += wt @ part
    return total


def _data_sum(theta, start, values, sign):
    """sum_m values[m - start] e^{sign i m theta} on the rule's nodes: with
    m = q L + r, the samples times e^{sign i m c_i} fold onto r, and one FFT
    over r per offset c_i gives every panel."""
    period = 2 * len(theta)
    blocks = -(-(start + len(values)) // period)
    folded = np.zeros(blocks * period)
    folded[start:start + len(values)] = values
    offsets = theta[0][:, None]
    heads = np.exp((sign * 1j) * offsets * (period * np.arange(blocks)))
    folded = (heads @ folded.reshape(blocks, period)
              * np.exp((sign * 1j) * offsets * np.arange(period)))
    panels = (-sign * np.arange(len(theta))) % period
    return np.fft.fft(folded, axis=1)[:, panels].T


def _wave_sum(theta, ns, values):
    """sum of e^{i n theta} values over the rule's nodes at each index n:
    per offset c_i, e^{i n c_i} times an FFT over the panels read at -n mod
    L, added in order of i, so that each value is a sum over its own n."""
    period = 2 * len(theta)
    spectra = np.fft.fft(values.T, n=period, axis=1)[:, (-ns) % period]
    phases = np.exp(1j * theta[0][:, None] * ns)
    return sum(phase * spectrum for phase, spectrum in zip(phases, spectra))


# ---------------------------------------------------------------------------
# Dirichlet
# ---------------------------------------------------------------------------


def sd_heat_dirichlet_range(spec, ns):
    """Lattice solution u_n(T) at the indices ``ns`` (all >= 0) on one theta
    grid; n = 0 gives the boundary datum by convention."""
    ns = np.asarray(ns, dtype=int)
    if np.any(ns < 0):
        raise ValueError("sd_heat_dirichlet_range evaluates n >= 0")
    if spec.condition != "dirichlet":
        raise ValueError("spec has a Neumann datum")
    n_max = int(np.max(ns)) if len(ns) else 0
    theta, wq = _theta_grid(n_max)
    decay = np.exp(-spec.dispersion(theta) * spec.T)
    dsum = _data_sum(theta, *spec.samples, 1).imag
    base = wq * (2.0 / math.pi) * (decay * dsum)
    coeffs = _cosine_coefficients(spec, n_max + 1)
    # a_{-1} = a_1: the n = 0 boundary part is 0, then set by convention
    out = (_wave_sum(theta, ns, base).imag
           + (coeffs[np.abs(ns - 1)] - coeffs[ns + 1]) / (2.0 * spec.h**2))
    out[ns == 0] = float(spec.datum.eval(spec.T))
    return out


def _datum_sum(spec, weights):
    """sum_p datum^{(p)}(T) weights[p] over the rows p in order, up to the
    last row with a nonzero weight: order 0 the checked value, orders 1 on
    from one jet.  ExprDomainError when a row with a nonzero weight reads a
    derivative that is not finite; the other rows are not read.  Those rows
    are added whole in order of p onto +0.0 by one accumulation over axis
    0, whose last row is the sum (a reduction over a single column would
    sum pairwise).  A zero weight adds a signed zero, which leaves every
    partial sum as it is, since a sum that starts at +0.0 never reaches
    -0.0."""
    live = np.flatnonzero(weights.any(axis=1))
    top = int(live.max(initial=0))
    derivs = np.zeros(top + 1)
    if top:
        derivs[1:] = spec.deriv.derivatives(1, top, np.array([spec.T]))[:, 0]
    if weights[0].any():
        derivs[0] = spec.deriv.value(0, spec.T)
    if not np.isfinite(derivs[live]).all():
        raise ExprDomainError("evaluation produced a non-finite value")
    terms = np.zeros((len(live) + 1,) + weights.shape[1:])
    np.multiply(derivs[live, None], weights[live], out=terms[1:])
    return np.add.accumulate(terms, axis=0, out=terms)[-1]


def dirichlet_reflection_sum(spec, nus):
    """The exact finite sum 2 sum_p f0^{(p)}(T) h^{2p} f(nu,p) / (2p)! at
    each index of the 1-D array nus >= 0; the bracket h^{2p} f(nu,p) /
    (2p)! is the running product of its ratios, zero from p = nu + 1 on."""
    nus = np.asarray(nus)
    p = np.arange(1, int(np.max(nus, initial=0)) + 1)[:, None]
    ratios = (spec.h * spec.h * (nus - p + 1) * (nus + p - 1)
              / ((2 * p) * (2 * p - 1)))
    return 2.0 * _datum_sum(spec, np.cumprod(
        np.vstack([np.ones(len(nus)), ratios]), axis=0))


def sd_heat_dirichlet_continued(spec, ns, u_pos):
    """Continued values u_n(T) at the indices ns <= 0: exact finite sum minus
    the interior values u_pos = u_{-n}(T)."""
    ns = np.asarray(ns)
    if np.any(ns > 0):
        raise ValueError("the continuation evaluates n <= 0")
    return dirichlet_reflection_sum(spec, -ns) - u_pos


# ---------------------------------------------------------------------------
# Neumann (backward-difference boundary slope)
# ---------------------------------------------------------------------------


def sd_heat_neumann_range(spec, ns):
    """Lattice solution q_n(T) at indices ns >= 0 on one theta grid, as
    twice the real part of the integral over the half period [0, pi]."""
    ns = np.asarray(ns, dtype=int)
    if np.any(ns < 0):
        raise ValueError("sd_heat_neumann_range evaluates n >= 0; use the "
                         "continuation for n < 0")
    if spec.condition != "neumann":
        raise ValueError("spec has a Dirichlet datum")
    n_max = int(np.max(ns)) if len(ns) else 0
    theta, wq = _theta_grid(n_max)
    decay = np.exp(-spec.dispersion(theta) * spec.T)
    trans = _data_sum(theta, *spec.samples, -1)
    phase = np.exp(1j * theta)
    base = wq / math.pi * (decay * (trans + phase * np.conj(trans)))
    coeffs = _cosine_coefficients(spec, n_max + 1)
    return (_wave_sum(theta, ns, base).real
            - (coeffs[ns] + coeffs[ns + 1]) / (2.0 * spec.h))


def neumann_reflection_sum(spec, ns):
    """(1-2n) h sum_{p<n} u^{(p)}(T) h^{2p} G(p+n)/G(n-p) / (2p+1)! at each
    index of the 1-D array ns >= 1; the weight h^{2p+1} G(p+n)/G(n-p) /
    (2p+1)! is h times the running product of its ratios, 0 from p = n."""
    ns = np.asarray(ns)
    h = spec.h
    p = np.arange(1, int(np.max(ns, initial=0)))[:, None]
    ratios = h * h * (ns + p - 1) * (ns - p) / ((2 * p) * (2 * p + 1))
    weights = np.cumprod(np.vstack([np.full(len(ns), h), ratios]), axis=0)
    return (1 - 2 * ns) * _datum_sum(spec, weights)


def sd_heat_neumann_continued(spec, ns, q_prev):
    """Continued values q_{-n}(T) at the indices ns >= 1: finite sum plus
    the interior values q_prev = q_{n-1}(T)."""
    ns = np.asarray(ns)
    if np.any(ns < 1):
        raise ValueError("the Neumann continuation evaluates q_{-n}, n >= 1")
    return neumann_reflection_sum(spec, ns) + q_prev


# ---------------------------------------------------------------------------
# continuum-limit study
# ---------------------------------------------------------------------------


def lattice_profile(spec, n_lo, n_hi):
    """Values at n in [n_lo, n_hi], integral representation ahead of the
    boundary and exact continuation behind it.  One range call over
    max(n_lo, 0) .. max(n_hi, -n_lo) gives the window's interior values and
    every interior value its continued ones reflect to, on one theta grid
    sized for the largest of them.  Neumann reads only up to -n_lo - 1; the
    range is the same for both conditions, so that a window's values have
    the bits of the symmetric window (n_lo, -n_lo)."""
    first = max(n_lo, 0)
    ns = np.arange(first, max(n_hi, -n_lo) + 1)
    back = np.arange(n_lo, min(n_hi, -1) + 1)  # nonempty only when first = 0
    if spec.condition == "dirichlet":
        interior = sd_heat_dirichlet_range(spec, ns)
        continued = sd_heat_dirichlet_continued(spec, back, interior[-back])
    else:
        interior = sd_heat_neumann_range(spec, ns)
        continued = sd_heat_neumann_continued(spec, -back, interior[-back - 1])
    return np.concatenate([continued, interior[:max(n_hi + 1 - first, 0)]])


def window_nodes(x_window, h):
    """Lattice indices n with n h in the window, and their positions n h."""
    ns = np.arange(math.ceil(x_window[0] / h), math.floor(x_window[1] / h) + 1)
    return ns, ns * h


def continuum_limit_check(make_spec, h_values, x_window, reference):
    """Refinement study: per-h max error against the continuum solution over
    the window (including x < 0), plus observed log-ratio orders.  An order
    between two levels where either error is 0 is undefined: None.

    ``make_spec(h)`` builds the lattice problem, ``reference(x)`` evaluates
    the continuum solution at the spec's time T at one node of
    ``window_nodes``.
    """
    if len(h_values) < 3:
        raise ValueError("need at least three h values for a refinement study")
    rows = []
    for h in h_values:
        spec = make_spec(h)
        ns, xs = window_nodes(x_window, h)
        vals = lattice_profile(spec, ns[0], ns[-1])
        ref = np.array([reference(float(x)) for x in xs])
        rows.append((h, float(np.max(np.abs(vals - ref)))))
    orders = []
    for (h1, e1), (h2, e2) in zip(rows[:-1], rows[1:]):
        orders.append(math.log(e1 / e2) / math.log(h1 / h2) if e1 and e2
                      else None)
    return {"errors": rows, "orders": orders}
