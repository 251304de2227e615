"""Exact whole-line (and whole-lattice) solutions that seed the benchmark.

Each family draws its parameters from a ``random.Random`` and yields the
expression strings a utmcont config needs plus the exact solution u(x, t),
evaluated here with the standard library only, so the checker shares no code
with the solvers it checks.  Restricted to the half-line (or interval,
or half-lattice), each whole-line solution solves the boundary value problem
whose data are its own boundary traces, and the analytically continued
solution must reproduce it behind the boundary.
"""

from __future__ import annotations

import cmath
import math


def _num(v):
    """Shortest round-trip literal for the expression grammar."""
    return repr(float(v))


def _shift(var, a):
    """``(var - a)`` written without a double sign."""
    return f"({var}-{_num(a)})" if a >= 0 else f"({var}+{_num(-a)})"


class DriftingGaussian:
    """u(x, t) = sqrt(s/(s+4t)) exp(-(x + c t - a)^2 / (s+4t)).

    Solves u_t = u_xx + c u_x on the whole line (c = 0 is plain heat)."""

    def __init__(self, a, s, c=0.0):
        self.a, self.s, self.c = a, s, c

    @classmethod
    def draw(cls, rng, c=0.0):
        return cls(round(rng.uniform(0.8, 1.2), 3),
                   round(rng.uniform(0.9, 1.2), 3), c)

    def u(self, x, t):
        sig = self.s + 4.0 * t
        return math.sqrt(self.s / sig) * math.exp(
            -((x + self.c * t - self.a) ** 2) / sig)

    def u0(self):
        return f"exp(-{_shift('x', self.a)}^2/{_num(self.s)})"

    def trace(self, x0):
        """u(x0, t) as an expression in t."""
        s = _num(self.s)
        if self.c == 0.0:
            top = _num((x0 - self.a) ** 2)
        else:
            top = f"({_num(self.c)}*t{'+' if x0 - self.a >= 0 else '-'}" \
                  f"{_num(abs(x0 - self.a))})^2"
        return (f"{_num(math.sqrt(self.s))}*exp(-{top}/({s}+4*t))"
                f"/sqrt({s}+4*t)")

    def slope_trace(self):
        """u_x(0, t) for c = 0 as an expression in t."""
        s = _num(self.s)
        return (f"{_num(2 * self.a * math.sqrt(self.s))}"
                f"*exp(-{_num(self.a ** 2)}/({s}+4*t))/({s}+4*t)^1.5")


class KdvMode:
    """u(x, t) = Re 2 exp(kappa x - sign kappa^3 t), kappa = -p + i q.

    sign = +1 solves u_t + u_xxx = 0 (one boundary condition), sign = -1
    solves u_t - u_xxx = 0 (two boundary conditions)."""

    def __init__(self, p, q, sign):
        self.p, self.q, self.sign = p, q, sign
        kappa = complex(-p, q)
        self.kappa = kappa
        self.omega = -sign * kappa ** 3

    @classmethod
    def draw_one_condition(cls, rng):
        return cls(round(rng.uniform(0.92, 1.08), 3),
                   round(rng.uniform(0.92, 1.08), 3), +1)

    def u(self, x, t):
        return (2.0 * cmath.exp(self.kappa * x + self.omega * t)).real

    def u0(self):
        return f"2*exp(-{_num(self.p)}*x)*cos({_num(self.q)}*x)"

    def trace(self):
        g, d = self.omega.real, self.omega.imag
        return f"2*exp({_num(g)}*t)*cos({_num(d)}*t)"

    def slope_trace(self):
        g, d = self.omega.real, self.omega.imag
        return (f"2*exp({_num(g)}*t)*({_num(-self.p)}*cos({_num(d)}*t)"
                f"-{_num(self.q)}*sin({_num(d)}*t))")


class LatticeMode:
    """u_n(t) = Re 2 exp(kappa n h + omega t), kappa = -p + i q, with the
    centered-stencil dispersion omega = (2 cosh(kappa h) - 2) / h^2, an exact
    solution of the semidiscrete heat equation on the whole lattice."""

    def __init__(self, p, q, h):
        self.p, self.q, self.h = p, q, h
        self.kappa = complex(-p, q)
        self.omega = (2.0 * cmath.cosh(self.kappa * h) - 2.0) / (h * h)

    def u(self, n, t):
        return (2.0 * cmath.exp(self.kappa * n * self.h
                                + self.omega * t)).real

    def u0(self):
        return f"2*exp(-{_num(self.p)}*x)*cos({_num(self.q)}*x)"

    def trace(self):
        """u_0(t) as an expression in t."""
        g, d = self.omega.real, self.omega.imag
        return f"2*exp({_num(g)}*t)*cos({_num(d)}*t)"

    def backward_slope_trace(self):
        """(u_0 - u_{-1}) / h as an expression in t."""
        g, d = self.omega.real, self.omega.imag
        w = (1.0 - cmath.exp(-self.kappa * self.h)) / self.h
        amp, phase = 2.0 * abs(w), cmath.phase(w)
        return f"{_num(amp)}*exp({_num(g)}*t)*cos({_num(d)}*t+{_num(phase)})"
