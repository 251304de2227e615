"""The public functions of ``utmcont.continuous`` check each request once,
before any solving: a t or tol that is not finite and > 0, a point that
is not finite, or an order N that is not an integer >= 0, raises ValueError
naming the operation, for every continuous kind (transport takes any finite
t: it has no initial part)."""

import math

import numpy as np
import pytest

import utmcont.continuous as continuous
from utmcont.continuous import KINDS, ProblemSpec
from utmcont.expr import parse

X, T, TOL = 0.3, 0.5, 1e-8

_CALLS = {
    "evaluate_I0": lambda spec, which, x, t, tol:
        continuous.evaluate_I0(spec, x, t, tol),
    "evaluate_boundary_integral": lambda spec, which, x, t, tol:
        continuous.evaluate_boundary_integral(spec, which, x, t, tol),
    "fourier_boundary_integral": lambda spec, which, x, t, tol:
        continuous.fourier_boundary_integral(spec, x, t),
    "taylor_coefficients": lambda spec, which, x, t, tol:
        continuous.taylor_coefficients(spec, which, t, 3, tol),
    "evaluate_extended": lambda spec, which, x, t, tol:
        continuous.evaluate_extended(spec, x, t, tol),
}


def _requests(kind):
    """(op, datum) for every timed operation the kind defines, once per
    datum where the operation reads one."""
    solver = continuous._SOLVERS[kind]
    data = tuple(solver.boundary)
    yield "evaluate_extended", None
    if solver.i0:
        yield "evaluate_I0", None
    for which in data:
        yield "evaluate_boundary_integral", which
        yield "taylor_coefficients", which
    if kind == "heat-finite-interval":
        yield "fourier_boundary_integral", None


def _bad_values(kind, op):
    """(name, value) of each refused value the operation reads."""
    if kind != "transport":
        yield from (("t", 0.0), ("t", -1.0))
    yield from (("t", math.nan), ("t", math.inf))
    if op != "fourier_boundary_integral":
        yield from (("tol", 0.0), ("tol", -1e-10), ("tol", math.nan))
    if op != "taylor_coefficients":
        yield from (("x", math.nan), ("x", math.inf))


_CASES = [(kind, op, which, name, value) for kind in KINDS
          for op, which in _requests(kind)
          for name, value in _bad_values(kind, op)]


@pytest.mark.parametrize("kind, op, which, name, value", _CASES, ids=[
    f"{kind}-{op}-{which}-{name}={value}"
    for kind, op, which, name, value in _CASES])
def test_bad_request_is_refused_naming_the_operation(
        fresh_spec, kind, op, which, name, value):
    spec = (ProblemSpec("transport", u0=parse("exp(-x^2)"), c=-1.0)
            if kind == "transport" else fresh_spec(kind))
    request = {"x": X, "t": T, "tol": TOL, name: value}
    refusal = ("takes a finite point" if name == "x"
               else f"requires a finite {name} > 0")
    with pytest.raises(ValueError, match=f"^{op} {refusal}") as caught:
        _CALLS[op](spec, which, **request)
    assert caught.type is ValueError


@pytest.mark.parametrize("x", [np.array([0.3, math.nan]),
                               np.zeros((2, 2))])
def test_points_past_a_point_or_a_finite_1d_array_are_refused(heat_gaussian,
                                                              x):
    with pytest.raises(ValueError, match="^boundary_to_initial takes"):
        continuous.boundary_to_initial(heat_gaussian, x)


@pytest.mark.parametrize("N", [12.0, 12.5, math.nan, -1, True, "3", None])
def test_order_that_is_not_an_integer_from_0_is_refused(heat_gaussian, N):
    # refused at the door, not as a TypeError deep in the ladder (a float),
    # an empty series (-1) or order 1 (True)
    with pytest.raises(ValueError, match="^taylor_coefficients requires an "
                                         "integer N >= 0"):
        continuous.taylor_coefficients(heat_gaussian, "f0", T, N, TOL)


@pytest.mark.parametrize("N", [0, np.int64(3)])
def test_integer_n_is_accepted(heat_gaussian, N):
    ext = continuous.taylor_coefficients(heat_gaussian, "f0", T, N, TOL)
    assert ext.orders == list(range(0, int(N) + 1, 2))


def test_unknown_datum_is_refused_naming_the_kind_s_data(heat_gaussian):
    with pytest.raises(continuous.ProblemSpecError,
                       match=r"^kind heat-dirichlet has data \('f0',\)$"):
        continuous.evaluate_boundary_integral(heat_gaussian, "f1", X, T, TOL)


def test_fourier_boundary_integral_is_only_for_the_finite_interval(
        heat_gaussian):
    with pytest.raises(continuous.ProblemSpecError,
                       match="^fourier_boundary_integral is not defined for "
                             "kind 'heat-dirichlet'$"):
        continuous.fourier_boundary_integral(heat_gaussian, X, T)


def test_unknown_parity_is_refused(heat_gaussian):
    with pytest.raises(continuous.ProblemSpecError,
                       match=r"^no Taylor data for \(heat-dirichlet, f0, "
                             r"odd\)$"):
        continuous.taylor_coefficients(heat_gaussian, "f0", T, 3, TOL,
                                       parity="odd")
