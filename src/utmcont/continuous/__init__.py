"""Per-problem UTM solvers and analytic continuation (continuous space).

Public surface: problem descriptions, the evaluation operations, the
boundary-to-initial map, compatibility checks, and the reference-solution
library.  The public functions are the one front door: each checks its
request once (``_solver`` its t and tol, ``_at_points`` its points), only
they turn a point into an array, and each dispatches through one table of
per-kind :class:`Solver` entries, keyed by ``ProblemSpec.kind``.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import advected, finite_interval, heat, kdv
from ._common import (COEFF_TOL, CoeffLadder, OutsideWindowError,
                      datum_ladder, reflected)
from .kdv import IncompatibleDataError
from .problems import (
    KIND_KEYS,
    KINDS,
    REFERENCE_NAMES,
    DecayClassError,
    ProblemSpec,
    ProblemSpecError,
    TaylorExtension,
    check_compatibility,
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
    "KIND_KEYS",
    "REFERENCE_NAMES",
    "evaluate_I0",
    "evaluate_boundary_integral",
    "fourier_boundary_integral",
    "taylor_coefficients",
    "evaluate_extended",
    "boundary_to_initial",
    "check_compatibility",
    "reference_whole_line",
    "transport_solution",
]


@dataclass(frozen=True)
class Solver:
    """What a problem kind provides, with the choices that differ by kind
    (heat's image sign, the ladder and sign of each reflection) bound here.

    ``i0(spec, xs, t, tol)``, ``boundary[datum](spec, xs, t, tol)`` (on
    the datum's native window), ``extended(spec, xs, t, tol)`` and
    ``w0(spec, xs)`` take a nonempty 1-D array of finite points and return
    one value per point; the public functions below check each request and
    turn a point into such an array and back.  ``ladders[(datum,
    parity)](spec, t, tol)`` is the Taylor ladder; a datum's first one
    listed has its default parity, the one its reflection reads.
    """

    extended: Callable
    i0: Callable | None = None
    boundary: dict = field(default_factory=dict)
    w0: Callable | None = None
    ladders: dict = field(default_factory=dict)


def _late(fn, *bound):
    """fn(spec, *bound, *args), with fn looked up through its module at
    call time, so that a rebinding of the module attribute (a tracer, a
    test double) sees every call."""
    module, name = sys.modules[fn.__module__], fn.__name__
    return lambda spec, *args: getattr(module, name)(spec, *bound, *args)


def _ladder(stride, offsets, coefficient):
    """The ladder of the orders stride*q + r, r in ``offsets``, each
    coefficient(spec, order, t, tol)."""
    return lambda spec, t, tol: CoeffLadder(
        stride, offsets, lambda order: coefficient(spec, order, t, tol))


def _odd_center_ladder(spec, t, tol):
    return CoeffLadder(
        2, (1,), lambda order: finite_interval.odd_center_coefficient(
            spec, (order + 1) // 2, t, tol),
        center=spec.L)


def _default_parity(solver, which):
    """The parity of the first ladder listed for ``which``, or None."""
    return next((parity for datum, parity in solver.ladders
                 if datum == which), None)


def _reflected_part(spec, which, xs, boundary, t, tol):
    """boundary(dist), a half-line part of datum ``which``, continued by
    ``reflected`` with the datum's default ladder at time t (COEFF_TOL): the
    sign -1 for an even ladder (Dirichlet-type data), +1 for an odd one."""
    solver = _SOLVERS[spec.kind]
    parity = _default_parity(solver, which)
    return reflected(xs, boundary,
                     solver.ladders[(which, parity)](spec, t, COEFF_TOL),
                     -1.0 if parity == "even" else 1.0, tol)


def _continued(spec, xs, t, tol):
    """u_ac(x, t) at each point of the 1-D array xs: i0 plus each datum's
    boundary part, continued by ``_reflected_part``."""
    solver = _SOLVERS[spec.kind]
    total = solver.i0(spec, xs, t, tol)
    for which, boundary in solver.boundary.items():
        total = total + _reflected_part(
            spec, which, xs, lambda dist: boundary(spec, dist, t, tol), t, tol)
    return total


def _reflected_w0(spec, xs):
    """w0 of a one-datum half-line kind, the t -> 0 limit of ``_continued``:
    its reflection step at t = 0 with u0 in place of the boundary part."""
    (which,) = _SOLVERS[spec.kind].boundary
    return _reflected_part(spec, which, xs, spec.u0.eval, 0.0, 1e-13)


def _datum_ladder(datum, parity):
    """``datum_ladder`` as a ladder entry: its coefficients read no tol."""
    ladder = _late(datum_ladder, datum, parity)
    return lambda spec, t, tol: ladder(spec, t)


_SOLVERS = {
    "transport": Solver(
        extended=lambda spec, xs, t, tol: transport_solution(spec, xs, t)),
    "heat-dirichlet": Solver(
        i0=_late(heat.i0, -1.0),
        boundary={"f0": _late(heat.boundary_integral)},
        extended=_late(_continued),
        w0=_late(_reflected_w0),
        ladders={("f0", "even"): _datum_ladder("f0", "even"),
                 ("f0", "all"): _ladder(1, (0,),
                                        _late(heat.full_series_coefficient))}),
    "heat-neumann": Solver(
        i0=_late(heat.i0, 1.0),
        boundary={"f1": _late(heat.boundary_integral)},
        extended=_late(_continued),
        w0=_late(_reflected_w0),
        ladders={("f1", "odd"): _datum_ladder("f1", "odd")}),
    "advected-heat": Solver(
        i0=_late(advected.i0),
        boundary={"f0": _late(advected.boundary_integral)},
        extended=_late(advected.extended),
        w0=_late(advected.boundary_to_initial),
        ladders={("f0", "even"): _late(advected.coefficient_ladder, 2),
                 ("f0", "all"): _late(advected.coefficient_ladder, 1)}),
    "kdv-one-bc": Solver(
        i0=_late(kdv.i0_one_bc),
        boundary={"f0": _late(kdv.if0_one_bc)},
        extended=_late(_continued),
        w0=_late(kdv.w0_one_bc),
        ladders={("f0", "even"): _ladder(2, (0,),
                                         _late(kdv.kdv1_coefficient)),
                 ("f0", "all"): _ladder(1, (0,),
                                        _late(kdv.kdv1_coefficient))}),
    "kdv-two-bc": Solver(
        i0=_late(kdv.i0_two_bc),
        boundary={w: _late(kdv._kdv2_boundary, w) for w in ("f0", "f1")},
        extended=_late(_continued),
        w0=_late(kdv.w0_two_bc),
        # even a-family and odd b-family orders, structural zeros skipped
        ladders={("f0", "even"): _ladder(6, (0, 2),
                                         _late(kdv.kdv2_coefficient, "f0")),
                 ("f1", "odd"): _ladder(6, (1, 5),
                                        _late(kdv.kdv2_coefficient, "f1")),
                 **{(w, "all"): _ladder(1, (0,),
                                        _late(kdv.kdv2_coefficient, w))
                    for w in ("f0", "f1")}}),
    "heat-finite-interval": Solver(
        i0=_late(finite_interval.i0),
        boundary={"f0": _late(finite_interval.left_boundary_integral),
                  "g0": _late(finite_interval.right_boundary_integral)},
        extended=_late(finite_interval.extended),
        w0=_late(finite_interval.boundary_to_initial),
        ladders={**{(w, "even"): _datum_ladder(w, "even")
                    for w in ("f0", "g0")},
                 ("f0", "odd-center"): _odd_center_ladder}),
}


def _solver(spec, op, part, t=None, tol=None):
    """The kind's ``part`` of the table, for the request ``op`` at t with
    tolerance tol (None where ``op`` reads none).  ProblemSpecError when the
    kind has no such part; ValueError naming ``op`` for a t or tol that is
    not finite and > 0 (a kind with no initial part takes any finite t)."""
    solver = _SOLVERS[spec.kind]
    found = getattr(solver, part)
    if not found:
        raise ProblemSpecError(f"{op} is not defined for kind {spec.kind!r}")
    if t is not None and not (math.isfinite(t) and (t > 0 or not solver.i0)):
        raise ValueError(f"{op} requires a finite t > 0, not {t!r}")
    if tol is not None and not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"{op} requires a finite tol > 0, not {tol!r}")
    return found


def _at_points(op, part, spec, x, *args):
    """part(spec, xs, *args) on x as a 1-D array xs, shaped like x: a float
    for a point; an empty array gives an empty array without a call.
    ValueError naming ``op`` unless x is a finite point or a 1-D array of
    finite points."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if xs.ndim != 1 or not np.isfinite(xs).all():
        raise ValueError(f"{op} takes a finite point or a 1-D array of them")
    values = part(spec, xs, *args) if xs.size else xs
    return values if np.ndim(x) else float(values[0])


def evaluate_I0(spec, x, t, tol=1e-10):
    """Initial-condition contribution at a point or a 1-D array of points
    (an empty array gives an empty array); entire in x, t > 0."""
    op = "evaluate_I0"
    return _at_points(op, _solver(spec, op, "i0", t, tol), spec, x, t, tol)


def evaluate_boundary_integral(spec, which, x, t, tol=1e-10):
    """Boundary-datum contribution on its native window, at a point or a
    1-D array of points (one shared time rule for the whole array).

    An empty array gives an empty array.  Dirichlet-type data return the
    datum value at their boundary point by convention.  Outside the window
    an :class:`OutsideWindowError` directs the caller to
    :func:`evaluate_extended`.
    """
    op = "evaluate_boundary_integral"
    boundary = _solver(spec, op, "boundary", t, tol)
    if which not in boundary:
        raise ProblemSpecError(f"kind {spec.kind} has data {tuple(boundary)}")
    return _at_points(op, boundary[which], spec, x, t, tol)


def fourier_boundary_integral(spec, x, t):
    """Residue/Fourier-series evaluation of the finite-interval left
    boundary integral, at a point or a 1-D array of points (cross-check
    path for the contour form)."""
    op = "fourier_boundary_integral"
    if spec.kind != "heat-finite-interval":
        raise ProblemSpecError(f"{op} is not defined for kind {spec.kind!r}")
    _solver(spec, op, "i0", t)  # the request check
    return _at_points(op, finite_interval.left_boundary_fourier, spec, x, t)


def taylor_coefficients(spec, which, t, N, tol=1e-11, parity=None):
    """Taylor data of the requested boundary integral through order N, an
    integer >= 0 (a bool or a float is refused, as a bad t or tol is).

    ``parity`` selects the sub-series: the default is the first ladder the
    table lists for the datum, the doubled series its continuation reads
    (even for Dirichlet-type data, odd for derivative data); "all" gives
    the full series where available; "odd-center" the finite-interval
    series about x = L.
    A doubled sub-series omits its structural zeros; kdv-two-bc's "all"
    series carries every order, exact 0.0 at 3m - 2 (f0) or 3m (f1).  No
    coefficient past order N is computed (the fractional families integrate
    whole blocks of derivative orders, see ``_common.fractional_family``);
    ``stop_reason`` is "cap" when the series carries orders up to N that
    the order cap (200) cuts off.
    """
    op = "taylor_coefficients"
    ladders = _solver(spec, op, "ladders", t, tol)
    if isinstance(N, bool) or not isinstance(N, numbers.Integral) or N < 0:
        raise ValueError(f"{op} requires an integer N >= 0, not {N!r}")
    parity = parity or _default_parity(_SOLVERS[spec.kind], which)
    build = ladders.get((which, parity))
    if build is None:
        raise ProblemSpecError(
            f"no Taylor data for ({spec.kind}, {which}, {parity})")
    ladder = build(spec, t, tol)
    entries = ladder.through(N)
    return TaylorExtension(
        which=which, t=t, expansion_point=ladder.center, parity=parity,
        orders=[o for o, _ in entries], coeffs=[c for _, c in entries],
        stop_reason="cap" if ladder.capped_below(N) else "requested")


def evaluate_extended(spec, x, t, tol=1e-10):
    """Full analytically-continued solution u_ac(x, t).

    ``x`` is a point or a 1-D array of points; a scalar gives a float, an
    array an array.  Every kind takes the whole array.  No initial part
    integrates in k: the heat, advected and finite-interval ones are
    heat-kernel sums and the KdV ones Airy sums over the nodes of a fixed
    rule of u0, each point summed alone (a KdV row that rule cannot resolve
    raises QuadratureError naming x).  The boundary integrals run on one
    shared rule per integral (on the distinct values of |x|, or per
    finite-interval image), each point meeting its own budget.  The doubled
    Taylor series that continue the boundary parts are summed for every
    point behind a boundary in one call, each point by its own stopping
    rule.
    """
    op = "evaluate_extended"
    return _at_points(op, _solver(spec, op, "extended", t, tol), spec, x, t,
                      tol)


def boundary_to_initial(spec, x):
    """w0(x): initial condition of the whole-line problem the extension
    solves, at a point or a 1-D array of points; each kind continues u0
    with the reflection or tiling rule of its extension, at t = 0.
    Refuses incompatible two-condition KdV data when a point lies behind
    the boundary."""
    op = "boundary_to_initial"
    return _at_points(op, _solver(spec, op, "w0"), spec, x)
