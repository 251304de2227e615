"""Shared machinery for the per-problem solvers."""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "real_part",
    "like_input",
    "CoeffLadder",
    "adaptive_series",
    "growth_radius",
    "ResidualWarning",
]


class ResidualWarning(RuntimeError):
    """Imaginary residual of a real-valued assembly exceeded its budget."""


def real_part(value, tol, where=""):
    """Real part of an assembled integral, or of an array of them; every
    imaginary part must be noise."""
    v = np.asarray(value, dtype=complex)
    bad = np.abs(v.imag) > 100 * tol * np.maximum(1.0, np.abs(v.real))
    if np.any(bad):
        residual = float(v.imag[bad][0])
        raise ResidualWarning(
            f"imaginary residual {residual:.3e} exceeds budget near "
            f"{where or 'assembly'}"
        )
    return float(v.real) if v.ndim == 0 else v.real


def like_input(values, x):
    """``values`` computed for np.atleast_1d(x), shaped like ``x``: a float
    for a scalar x, the array itself otherwise."""
    return float(values[0]) if np.ndim(x) == 0 else values


class CoeffLadder:
    """Lazily extended list of Taylor data (order, coefficient).

    ``build(i)`` returns the i-th kept entry; structural zeros are never
    stored.  One ladder per (problem, datum, time); extension is sequential.
    """

    def __init__(self, build, cap=200):
        self.build = build
        self.cap = cap
        self.entries = []

    def get(self, i):
        while len(self.entries) <= i:
            idx = len(self.entries)
            if self.entries and self.entries[-1][0] >= self.cap:
                return None
            self.entries.append(self.build(idx))
        return self.entries[i]


def adaptive_series(ladder, dx, tol, min_entries=3, quiet_needed=3):
    """Sum coefficient * dx^order adaptively.

    Stops once ``quiet_needed`` consecutive terms are below tol relative to
    the running magnitude, or at the ladder's order cap.  Returns (value,
    last_order, stop_reason).
    """
    total = 0.0
    scale = 0.0
    quiet = 0
    i = 0
    last_order = 0
    while True:
        entry = ladder.get(i)
        if entry is None:
            return total, last_order, "cap"
        order, coeff = entry
        term = coeff * dx**order
        total += term
        scale = max(scale, abs(total), 1e-300)
        last_order = order
        if i >= min_entries and abs(term) <= 0.5 * tol * max(scale, 1.0):
            quiet += 1
            if quiet >= quiet_needed:
                return total, last_order, "converged"
        else:
            quiet = 0
        i += 1


def growth_radius(decay_rate, growth_rate, log_target):
    """Radius R with decay_rate*R^2 - growth_rate*R >= log_target (tail cut
    for Gaussian-decaying integrands with exponential growth factors)."""
    a = decay_rate
    b = growth_rate
    disc = b * b + 4.0 * a * log_target
    return (b + math.sqrt(max(disc, 0.0))) / (2.0 * a)


def oscillation_panels(length, frequency, base=1):
    return base + int(abs(length) * abs(frequency) / (2.0 * math.pi))
