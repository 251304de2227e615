"""Problem descriptions (``KIND_KEYS``: the data and keys each kind reads),
reference solutions, and compatibility checks."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..expr import DerivativeCache, Expression

__all__ = [
    "ProblemSpec",
    "TaylorExtension",
    "ProblemSpecError",
    "DecayClassError",
    "KINDS",
    "KIND_KEYS",
    "reference_whole_line",
    "REFERENCE_NAMES",
    "check_compatibility",
    "transport_solution",
]

# kind: (the data it requires, the other problem keys it reads); only the
# half-line data rule reads u0_decay, and transport reads f0 when c > 0
KIND_KEYS = {
    "transport": (("u0",), ("f0", "c")),
    "heat-dirichlet": (("u0", "f0"), ("u0_decay",)),
    "heat-neumann": (("u0", "f1"), ("u0_decay",)),
    "heat-finite-interval": (("u0", "f0", "g0"), ("L",)),
    "advected-heat": (("u0", "f0"), ("c", "u0_decay")),
    "kdv-one-bc": (("u0", "f0"), ("u0_decay",)),
    "kdv-two-bc": (("u0", "f0", "f1"), ("u0_decay",)),
}
KINDS = tuple(KIND_KEYS)


class ProblemSpecError(ValueError):
    """Inconsistent problem description."""


class DecayClassError(ValueError):
    """Initial datum decays too slowly for the requested representation."""


@dataclass
class ProblemSpec:
    """Tagged IBVP description.

    ``u0_decay`` declares the decay class of the initial datum on the
    half-line: ("gaussian",), ("exponential", rate) with a finite rate > 0,
    or ("auto",) to probe numerically; any other form raises
    ProblemSpecError, as does any other value than None, 0 or ("auto",) of a
    field that the kind does not read (``KIND_KEYS``), a u0_decay included.
    """

    kind: str
    u0: Expression | None = None
    f0: Expression | None = None
    f1: Expression | None = None
    g0: Expression | None = None
    c: float = 0.0
    L: float = 0.0
    u0_decay: tuple = ("auto",)
    # caches of costly work only: derivative jets per datum, the gauged
    # heat-Dirichlet spec of an advected spec, and blocks of fractional
    # coefficients per (datum, beta, t, tol, block).  Data rules and Taylor
    # ladders are built inside each call that reads them.
    derivs: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)
    gauged: ProblemSpec | None = field(default=None, init=False, repr=False,
                                       compare=False)
    fractional: dict = field(default_factory=dict, init=False, repr=False,
                             compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ProblemSpecError(f"unknown problem kind {self.kind!r}")
        data, keys = KIND_KEYS[self.kind]
        for name in data:
            if getattr(self, name) is None:
                raise ProblemSpecError(f"{self.kind} requires datum {name!r}")
        for name in ("f0", "f1", "g0", "c", "L", "u0_decay"):
            if name not in data + keys and getattr(self, name) not in (
                    None, 0, ("auto",)):  # a field the kind drops unread
                raise ProblemSpecError(
                    f"{name} is not read by {self.kind} problems")
        if self.kind == "transport":
            if self.c == 0:
                raise ProblemSpecError("transport requires a nonzero speed c")
            if self.c > 0 and self.f0 is None:
                raise ProblemSpecError("transport with c > 0 requires f0")
            if self.c < 0 and self.f0 is not None:
                # every characteristic leaves through the boundary
                raise ProblemSpecError("f0 is not read by transport with "
                                       "c < 0")
        if self.kind == "heat-finite-interval" and self.L <= 0:
            raise ProblemSpecError("finite interval requires L > 0")
        decay = tuple(self.u0_decay)
        rate = decay[1] if len(decay) == 2 else None
        if decay not in (("auto",), ("gaussian",)) and not (
                decay[:1] == ("exponential",) and isinstance(rate, (int, float))
                and 0 < rate < math.inf):
            raise ProblemSpecError(
                f"u0_decay must be ('auto',), ('gaussian',) or ('exponential', "
                f"rate) with a finite rate > 0, not {self.u0_decay!r}")

    def deriv(self, which):
        if which not in self.derivs:
            self.derivs[which] = DerivativeCache(getattr(self, which))
        return self.derivs[which]

    def decay(self):
        """Resolved decay class of u0: ("gaussian",) or ("exponential", rate)."""
        return _resolve_decay(self.u0, self.u0_decay)


def _resolve_decay(u0, declared):
    if declared[0] != "auto":
        return tuple(declared)
    # probe |u0| at growing y; superexponential decay shows an accelerating
    # log-slope, exponential a stable one
    ys = np.array([2.0, 4.0, 8.0, 16.0, 32.0])
    vals = np.abs(np.asarray(u0.eval(ys), dtype=float))
    if np.all(vals < 1e-300):
        return ("gaussian",)
    tiny = vals < 1e-280
    logs = np.log(np.where(tiny, 1e-300, vals))
    slopes = -(logs[1:] - logs[:-1]) / (ys[1:] - ys[:-1])
    if np.any(tiny) or slopes[-1] > 2.5 * max(slopes[0], 1e-9):
        return ("gaussian",)
    # algebraic tails show a log-slope that keeps halving per doubling of y
    halving = all(b < 0.62 * a for a, b in zip(slopes, slopes[1:]))
    rate = float(np.min(slopes))
    if rate <= 0.02 or (halving and slopes[-1] < 0.25):
        raise DecayClassError(
            "initial datum does not decay fast enough for a half-line transform"
        )
    return ("exponential", 0.9 * rate)


@dataclass
class TaylorExtension:
    """Computed Taylor data of a boundary integral about ``expansion_point``.

    ``orders`` are the global exponents carried and ``parity`` records
    which sub-series this is: a doubled sub-series omits its structural
    zeros, kdv-two-bc's "all" series carries them as exact 0.0.
    """

    which: str
    t: float
    expansion_point: float
    parity: str
    orders: list
    coeffs: list
    stop_reason: str


# ---------------------------------------------------------------------------
# Reference whole-line solutions
# ---------------------------------------------------------------------------


def _gaussian_drift(x, t):
    return math.exp(-((x - 1.0) ** 2) / (4.0 * t + 1.0)) / math.sqrt(4.0 * t + 1.0)


# name: u(x, t, c)
_REFERENCES = {
    "gaussian-drift": lambda x, t, c: _gaussian_drift(x, t),
    "gaussian-drift-advected": lambda x, t, c: _gaussian_drift(
        x + c * t + 1.0, t),
    "kdv-decaying-cos": lambda x, t, c: (
        2.0 * math.exp(-(x + 2.0 * t)) * math.cos(x - 2.0 * t)),
    "kdv2-exp-cos": lambda x, t, c: (
        2.0 * math.exp(-math.sqrt(3.0) * x) * math.cos(x + 8.0 * t)),
}
REFERENCE_NAMES = tuple(_REFERENCES)


def reference_whole_line(name, x, t, c=1.0):
    """Evaluate a named exact whole-line solution.

    ``gaussian-drift-advected`` is the drifting Gaussian in the advected frame
    u(x + c t + 1, t).
    """
    if name not in _REFERENCES:
        raise KeyError(f"unknown reference solution {name!r}")
    return _REFERENCES[name](x, t, c)


def transport_solution(spec, xs, t):
    """d'Alembert evaluation of the transport problem, extended off-domain,
    at each point of the 1-D array xs, like every kind's function (the
    public ``evaluate_extended`` takes a point).  Each datum is evaluated
    only on its own points (f0 may be undefined at negative times)."""
    c = spec.c
    behind = t > xs / c if c > 0 else np.zeros(xs.shape, dtype=bool)
    out = np.empty(xs.shape)
    if behind.any():
        out[behind] = spec.f0.eval(t - xs[behind] / c)
    if not behind.all():
        out[~behind] = spec.u0.eval(xs[~behind] - c * t)
    return out


# ---------------------------------------------------------------------------
# Compatibility conditions
# ---------------------------------------------------------------------------


# kind: (s, a).  The generator of u_t = A u is A = s d^a (d + c) in
# d = d/dx, so that A^n = s^n sum_j C(n, j) c^{n-j} d^{an+j}; c is the
# problem's drift where the kind reads one, else 0.
_GENERATORS = {
    "heat-dirichlet": (1.0, 1),
    "heat-neumann": (1.0, 1),
    "heat-finite-interval": (1.0, 1),
    "advected-heat": (1.0, 1),
    "kdv-one-bc": (-1.0, 2),
    "kdv-two-bc": (1.0, 2),
}


def check_compatibility(spec, orders):
    """Per-order residuals |d^n/dt^n(datum)(0) - A^n u0 at the boundary|,
    with A^n u0 read from one jet of u0 at each boundary point: the maximum
    over the kind's boundary data (read at x = L for g0, with one extra
    x-derivative of u0 for f1) at each order 0..orders."""
    if spec.kind not in _GENERATORS:
        raise ProblemSpecError(
            f"no compatibility conditions for kind {spec.kind!r}")
    s, a = _GENERATORS[spec.kind]
    data, keys = KIND_KEYS[spec.kind]
    c = spec.c if "c" in keys else 0.0
    u0 = spec.deriv("u0")
    per_datum = {}
    for datum in data[1:]:  # every datum after u0
        point = spec.L if datum == "g0" else 0.0
        extra = int(datum == "f1")
        du = u0.through(point, (a + 1) * orders + extra).tolist()
        df = spec.deriv(datum).through(0.0, orders).tolist()
        per_datum[datum] = [
            abs(df[n] - s**n * sum(
                math.comb(n, j) * c ** (n - j) * du[a * n + j + extra]
                for j in range(n + 1)))
            for n in range(orders + 1)]
    return [max(col) for col in zip(*per_datum.values())]
