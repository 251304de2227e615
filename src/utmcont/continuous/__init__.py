"""Per-problem UTM solvers and analytic continuation (continuous space).

Public surface: problem descriptions, the four evaluation operations
(initial part, boundary integrals, Taylor data, extended solution), the
boundary-to-initial map, compatibility checks, and the reference-solution
library.  Dispatch is by ``ProblemSpec.kind``.
"""

from __future__ import annotations

import math

import numpy as np

from . import advected, finite_interval, heat, kdv
from ._common import like_input
from .kdv import IncompatibleDataError
from .problems import (
    KINDS,
    REFERENCE_NAMES,
    DecayClassError,
    ProblemSpec,
    ProblemSpecError,
    TaylorExtension,
    check_compatibility,
    compatible_to_order,
    reference_whole_line,
    transport_solution,
)

__all__ = [
    "ProblemSpec",
    "TaylorExtension",
    "ProblemSpecError",
    "DecayClassError",
    "IncompatibleDataError",
    "OutsideWindowError",
    "KINDS",
    "REFERENCE_NAMES",
    "evaluate_I0",
    "evaluate_boundary_integral",
    "fourier_boundary_integral",
    "taylor_coefficients",
    "evaluate_extended",
    "boundary_to_initial",
    "check_compatibility",
    "compatible_to_order",
    "reference_whole_line",
    "transport_solution",
]


def _require(spec, kinds, op):
    if spec.kind not in kinds:
        raise ProblemSpecError(f"{op} is not defined for kind {spec.kind!r}")


def evaluate_I0(spec, x, t, tol=1e-10):
    """Initial-condition contribution; entire in x, t > 0."""
    if t <= 0:
        raise ValueError("evaluate_I0 requires t > 0 (use boundary_to_initial "
                         "for the t = 0 profile)")
    kind = spec.kind
    if kind in ("heat-dirichlet", "heat-neumann"):
        return heat.i0(spec, x, t, tol)
    if kind == "advected-heat":
        return advected.i0(spec, x, t, tol)
    if kind == "kdv-one-bc":
        return kdv.i0_one_bc(spec, x, t, tol)
    if kind == "kdv-two-bc":
        return kdv.i0_two_bc(spec, x, t, tol)
    if kind == "heat-finite-interval":
        return finite_interval.i0(spec, x, t, tol)
    raise ProblemSpecError(f"evaluate_I0 is not defined for kind {kind!r}")


class OutsideWindowError(ValueError):
    """Boundary integral requested outside its representation window."""


def evaluate_boundary_integral(spec, which, x, t, tol=1e-10):
    """Boundary-datum contribution on its native window.

    Boundary points return the datum value by convention.  Outside the
    window an :class:`OutsideWindowError` directs the caller to
    :func:`evaluate_extended`.
    """
    kind = spec.kind
    try:
        if kind in ("heat-dirichlet", "heat-neumann"):
            _check_which(kind, which, {"heat-dirichlet": ("f0",),
                                       "heat-neumann": ("f1",)})
            return heat.boundary_integral(spec, x, t, tol)
        if kind == "advected-heat":
            _check_which(kind, which, {"advected-heat": ("f0",)})
            return advected.boundary_integral(spec, x, t, tol)
        if kind == "kdv-one-bc":
            _check_which(kind, which, {"kdv-one-bc": ("f0",)})
            return kdv.if0_one_bc(spec, x, t, tol)
        if kind == "kdv-two-bc":
            if which not in ("f0", "f1"):
                raise ProblemSpecError(f"kind {kind} has data f0, f1")
            if x < 0:
                raise ValueError("two-condition boundary integrals need "
                                 "x >= 0; use the extension")
            if which == "f0" and x == 0:
                return float(spec.f0.eval(t))
            return kdv._kdv2_boundary(spec, which, x, t, tol)
        if kind == "heat-finite-interval":
            if which == "f0":
                return finite_interval.left_boundary_integral(spec, x, t, tol)
            if which == "g0":
                return finite_interval.right_boundary_integral(spec, x, t, tol)
            raise ProblemSpecError(f"kind {kind} has data f0, g0")
    except ValueError as err:
        if isinstance(err, ProblemSpecError):
            raise
        if "extension" in str(err):
            raise OutsideWindowError(str(err)) from None
        raise
    raise ProblemSpecError(f"no boundary integral for kind {kind!r}")


def _check_which(kind, which, allowed):
    if which not in allowed[kind]:
        raise ProblemSpecError(f"kind {kind} has data {allowed[kind]}")


def fourier_boundary_integral(spec, x, t, tol=1e-10):
    """Residue/Fourier-series evaluation of the finite-interval left
    boundary integral (cross-check path for the contour form)."""
    _require(spec, ("heat-finite-interval",), "fourier_boundary_integral")
    return finite_interval.left_boundary_fourier(spec, x, t, tol)


_COEFF_BUILDERS = {
    ("heat-dirichlet", "f0", "even"): lambda spec, t, tol: (
        lambda i: (2 * i, spec.deriv("f0").value(i, t) / math.factorial(2 * i))
    ),
    ("heat-dirichlet", "f0", "all"): lambda spec, t, tol: (
        lambda i: (i, heat.full_series_coefficient(spec, i, t, tol))
    ),
    ("heat-neumann", "f1", "odd"): lambda spec, t, tol: (
        lambda i: (2 * i + 1,
                   spec.deriv("f1").value(i, t) / math.factorial(2 * i + 1))
    ),
    ("advected-heat", "f0", "even"): lambda spec, t, tol: (
        lambda i: (2 * i, advected.boundary_coefficient(spec, 2 * i, t, tol))
    ),
    ("advected-heat", "f0", "all"): lambda spec, t, tol: (
        lambda i: (i, advected.boundary_coefficient(spec, i, t, tol))
    ),
    ("kdv-one-bc", "f0", "even"): lambda spec, t, tol: (
        lambda i: (2 * i, kdv.kdv1_coefficient(spec, 2 * i, t, tol))
    ),
    ("kdv-one-bc", "f0", "all"): lambda spec, t, tol: (
        lambda i: (i, kdv.kdv1_coefficient(spec, i, t, tol))
    ),
    ("kdv-two-bc", "f0", "all"): lambda spec, t, tol: (
        lambda i: (i, kdv.kdv2_coefficient(spec, "f0", i, t, tol))
    ),
    ("kdv-two-bc", "f1", "all"): lambda spec, t, tol: (
        lambda i: (i, kdv.kdv2_coefficient(spec, "f1", i, t, tol))
    ),
    ("heat-finite-interval", "f0", "even"): lambda spec, t, tol: (
        lambda i: (2 * i, spec.deriv("f0").value(i, t) / math.factorial(2 * i))
    ),
    ("heat-finite-interval", "g0", "even"): lambda spec, t, tol: (
        lambda i: (2 * i, spec.deriv("g0").value(i, t) / math.factorial(2 * i))
    ),
    ("heat-finite-interval", "f0", "odd-center"): lambda spec, t, tol: (
        lambda i: (2 * i + 1,
                   finite_interval.odd_center_coefficient(spec, i + 1, t, tol))
    ),
}

_DEFAULT_PARITY = {
    ("heat-dirichlet", "f0"): "even",
    ("heat-neumann", "f1"): "odd",
    ("advected-heat", "f0"): "even",
    ("kdv-one-bc", "f0"): "even",
    ("kdv-two-bc", "f0"): "even",
    ("kdv-two-bc", "f1"): "odd",
    ("heat-finite-interval", "f0"): "even",
    ("heat-finite-interval", "g0"): "even",
}


def taylor_coefficients(spec, which, t, N, tol=1e-11, parity=None):
    """Taylor data of the requested boundary integral through order N.

    ``parity`` selects the sub-series: the default is the preferred
    reduction for the datum (doubled-even for Dirichlet-type data,
    doubled-odd for derivative data); "all" gives the full series where
    available; "odd-center" the finite-interval series about x = L.
    Structural zeros are stored as omitted orders.
    """
    if t <= 0:
        raise ValueError("taylor coefficients require t > 0")
    kind = spec.kind
    parity = parity or _DEFAULT_PARITY.get((kind, which))
    if parity is None:
        raise ProblemSpecError(f"no Taylor data for ({kind}, {which})")

    expansion_point = spec.L if (kind, parity) == (
        "heat-finite-interval", "odd-center") else 0.0

    if kind == "kdv-two-bc" and parity in ("even", "odd"):
        ladder = kdv.kdv2_tilde_ladder(spec, which, t, tol)
        entries = []
        i = 0
        while True:
            entry = ladder.get(i)
            if entry is None or entry[0] > N:
                break
            entries.append(entry)
            i += 1
    else:
        build = _COEFF_BUILDERS[(kind, which, parity)](spec, t, tol)
        entries = []
        i = 0
        while True:
            order, coeff = build(i)
            if order > N:
                break
            entries.append((order, coeff))
            i += 1

    return TaylorExtension(
        which=which,
        t=t,
        expansion_point=expansion_point,
        parity=parity,
        orders=[o for o, _ in entries],
        coeffs=[c for _, c in entries],
        truncation_order=entries[-1][0] if entries else 0,
        stop_reason="requested",
    )


def evaluate_extended(spec, x, t, tol=1e-10, tile_depth=5):
    """Full analytically-continued solution u_ac(x, t).

    ``x`` is a point or a 1-D array of points; a scalar gives a float, an
    array an array.  Heat, advected-heat and finite-interval problems
    integrate the initial-condition part of the whole array on one shared
    k-rule; KdV and transport problems are evaluated point by point.
    """
    kind = spec.kind
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if xs.ndim != 1:
        raise ValueError("evaluate_extended takes a point or a 1-D array")
    if xs.size == 0:
        return xs
    points = xs.tolist()
    if kind == "transport":
        return like_input(
            np.array([transport_solution(spec, p, t) for p in points]), x)
    if t <= 0:
        raise ValueError("evaluate_extended requires t > 0")
    if kind in ("heat-dirichlet", "heat-neumann"):
        values = heat.extended(spec, xs, t, tol)
    elif kind == "advected-heat":
        values = advected.extended(spec, xs, t, tol)
    elif kind == "kdv-one-bc":
        values = np.array([kdv.extended_one_bc(spec, p, t, tol)
                           for p in points])
    elif kind == "kdv-two-bc":
        values = np.array([kdv.extended_two_bc(spec, p, t, tol)
                           for p in points])
    elif kind == "heat-finite-interval":
        values = finite_interval.extended(spec, xs, t, tol, tile_depth)
    else:
        raise ProblemSpecError(
            f"evaluate_extended undefined for kind {kind!r}")
    return like_input(values, x)


def boundary_to_initial(spec, x, tile_depth=5):
    """w0(x): initial condition of the whole-line problem the extension
    solves.  Refuses incompatible two-condition KdV data."""
    kind = spec.kind
    if kind in ("heat-dirichlet", "heat-neumann"):
        return heat.boundary_to_initial(spec, x)
    if kind == "advected-heat":
        return advected.boundary_to_initial(spec, x)
    if kind == "kdv-one-bc":
        return kdv.w0_one_bc(spec, x)
    if kind == "kdv-two-bc":
        return kdv.w0_two_bc(spec, x)
    if kind == "heat-finite-interval":
        return finite_interval.boundary_to_initial(spec, x, tile_depth)
    raise ProblemSpecError(f"boundary_to_initial undefined for kind {kind!r}")
