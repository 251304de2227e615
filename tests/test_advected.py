"""Advected heat: recovery, coefficient machinery, boundary-to-initial."""

import math

import numpy as np
import pytest

from utmcont import quad
from utmcont.expr import parse
from utmcont.quad import integrate_segment
from utmcont.continuous import (
    ProblemSpec,
    boundary_to_initial,
    evaluate_boundary_integral,
    evaluate_extended,
    evaluate_I0,
    reference_whole_line,
    taylor_coefficients,
)
from utmcont.continuous import advected, finite_interval, heat, kdv


@pytest.mark.parametrize("fixture", ["advected_plus", "advected_minus"])
def test_whole_line_recovery(fixture, request):
    spec = request.getfixturevalue(fixture)
    for x in (-2.0, -1.0, -0.3, 0.0, 0.5, 1.5, 3.0):
        ua = evaluate_extended(spec, x, 1.0, 1e-10)
        ur = reference_whole_line("gaussian-drift-advected", x, 1.0, c=spec.c)
        assert ua == pytest.approx(ur, abs=1e-6)


def test_first_coefficient_is_datum(advected_plus):
    # a_0(t) = f0(t) pins the contour orientation and scaling
    for t in (0.3, 1.0):
        a0 = taylor_coefficients(advected_plus, "f0", t, 0,
                                 parity="all").coeffs[0]
        assert a0 == pytest.approx(float(advected_plus.f0.eval(t)), abs=1e-10)


def test_ladder_coefficients_keep_the_bits_of_a_fresh_call(advected_plus):
    # the ladder shares one heat ladder and one series (-c/2)^k/k! among
    # its orders; each coefficient is the one a fresh ladder computes last
    t = 1.0
    ladder = advected.coefficient_ladder(advected_plus, 1, t, 1e-11)
    for order, coeff in ladder.through(12):
        fresh = advected.coefficient_ladder(advected_plus, 1, t, 1e-11)
        assert fresh.through(order)[-1] == (order, coeff)


def test_small_drift_matches_heat_structural():
    spec = ProblemSpec("advected-heat", c=1e-6, u0=parse("exp(-x^2)"),
                       f0=parse("exp(-t^2/(4*t+1))/sqrt(4*t+1)"))
    cache = spec.deriv("f0")
    for n in (1, 2, 4):
        adv = taylor_coefficients(spec, "f0", 1.0, 2 * n,
                                  parity="all").coeffs[2 * n]
        structural = cache.value(n, 1.0) / math.factorial(2 * n)
        assert adv == pytest.approx(structural, abs=1e-7)


def test_odd_coefficient_against_kernel_slope(advected_plus):
    # a_1(t) should equal the one-sided x-derivative of the boundary kernel
    t = 1.0
    a1 = taylor_coefficients(advected_plus, "f0", t, 1, parity="all").coeffs[1]
    h = 1e-4
    vals = [evaluate_boundary_integral(advected_plus, "f0", x, t, 1e-12)
            for x in (h, 2 * h, 3 * h, 4 * h)]
    # one-sided 3rd-order difference using the datum value at x = 0
    f0t = float(advected_plus.f0.eval(t))
    slope = (-11 * f0t / 6 + 3 * vals[0] - 1.5 * vals[1] + vals[2] / 3) / h
    assert a1 == pytest.approx(slope, abs=1e-5)


def test_boundary_recovery(advected_plus, advected_minus):
    for spec in (advected_plus, advected_minus):
        for t in (0.1, 0.5, 1.0):
            assert evaluate_extended(spec, 0.0, t, 1e-10) == pytest.approx(
                float(spec.f0.eval(t)), abs=1e-8
            )


def test_taylor_extension_object(advected_plus):
    ext = taylor_coefficients(advected_plus, "f0", 1.0, 12)
    assert ext.parity == "even"
    assert ext.orders[0] == 0
    assert ext.coeffs[0] == pytest.approx(
        float(advected_plus.f0.eval(1.0)), abs=1e-10
    )


def test_pde_residual_both_sides(advected_plus):
    c = advected_plus.c
    u = lambda x, t: evaluate_extended(advected_plus, x, t, 1e-11)
    for x0 in (0.6, -0.6):
        res = []
        for h in (0.08, 0.04):
            ut = (u(x0, 1.0 + h) - u(x0, 1.0 - h)) / (2 * h)
            uxx = (u(x0 + h, 1.0) - 2 * u(x0, 1.0) + u(x0 - h, 1.0)) / h**2
            ux = (u(x0 + h, 1.0) - u(x0 - h, 1.0)) / (2 * h)
            res.append(abs(ut - uxx - c * ux))
        assert res[1] < res[0] / 2.5
        assert res[1] < 5e-4


def test_smooth_gluing(advected_plus):
    from test_heat import one_sided_derivatives

    right, left = one_sided_derivatives(
        lambda x: evaluate_extended(advected_plus, x, 1.0, 1e-12)
    )
    for k in range(4):
        assert right[k] == pytest.approx(left[k], abs=1e-5)


def test_w0_compatible_is_continuation(advected_plus):
    # native side: w0 = u0
    assert boundary_to_initial(advected_plus, 0.7) == pytest.approx(
        math.exp(-0.49), rel=1e-12
    )
    # continued side: w0(x) = 2 e^{-cx/2} sum_n g^(n)(0) x^{2n}/(2n)!
    # - e^{-cx} u0(-x) with g = e^{c^2 t/4} f0, the heat-Dirichlet w0 of the
    # gauged data times e^{-cx/2}; compatible data continue u0 = e^{-x^2}
    for x in (-0.3, -1.0, -1.5, -2.0):
        got = boundary_to_initial(advected_plus, x)
        assert got == pytest.approx(math.exp(-x * x), abs=1e-12)
    # the drifting Gaussian e^{-(x + t - 1)^2/(4t+1)}/sqrt(4t+1) gives
    # compatible data with w0 = u0 = e^{-(x-1)^2}
    drifted = ProblemSpec("advected-heat", c=1.0, u0=parse("exp(-(x-1)^2)"),
                          f0=parse("exp(-(t-1)^2/(4*t+1))/sqrt(4*t+1)"))
    assert boundary_to_initial(drifted, -0.3) == pytest.approx(
        math.exp(-1.69), abs=1e-12)


def test_w0_negative_side_structure():
    # zero boundary datum: w0(x<0) = -e^{-c x} u0(-x) exactly
    spec = ProblemSpec("advected-heat", c=1.0, u0=parse("exp(-x^2)"),
                       f0=parse("0*t"))
    x = -0.8
    got = boundary_to_initial(spec, x)
    want = -math.exp(-1.0 * x) * math.exp(-x * x)
    assert got == pytest.approx(want, abs=1e-9)


def test_i0_zero_data():
    spec = ProblemSpec("advected-heat", c=1.0, u0=parse("0*x"),
                       f0=parse("t*exp(-t)"))
    assert evaluate_I0(spec, -0.5, 0.7) == 0.0


def _drifting_gaussian(c, a=0.3):
    """Advected heat data whose exact solution is the drifting Gaussian
    u = e^{-(x + ct - a)^2/(1 + 4t)}/sqrt(1 + 4t), with that solution."""
    spec = ProblemSpec(
        "advected-heat", c=c, u0=parse(f"exp(-(x-{a})^2)"),
        f0=parse(f"exp(-({c}*t-{a})^2/(1+4*t))/sqrt(1+4*t)"))

    def exact(x, t):
        return np.exp(-(x + c * t - a) ** 2 / (1 + 4 * t)) / math.sqrt(
            1 + 4 * t)

    return spec, exact


def test_i0_makes_no_k_quadrature(fresh_spec, monkeypatch):
    # every i0 is a kernel sum over the nodes of a fixed rule of u0 (heat
    # kernels, or Airy functions for KdV): no k-contour, and no value of a
    # transform itself
    def refuse(*args, **kwargs):
        raise AssertionError("k-quadrature in a closed-form i0")

    for module in (quad, heat, advected, finite_interval, kdv):
        if hasattr(module, "integrate_segment"):
            monkeypatch.setattr(module, "integrate_segment", refuse)
    monkeypatch.setattr(quad.HalfLineTransform, "__call__", refuse)
    monkeypatch.setattr(quad, "finite_interval_transform", refuse)
    assert not hasattr(finite_interval, "finite_interval_transform")
    xs = np.linspace(-3.0, 5.0, 9)
    for kind in ("heat-dirichlet", "heat-neumann", "advected-heat",
                 "heat-finite-interval", "kdv-one-bc", "kdv-two-bc"):
        for t in (1e-3, 1.0):
            # one-condition KdV refuses the rows its data rule ends too
            # soon for: x < 0 at t = 1e-3, x = -3 at t = 1 (see test_kdv)
            ys = xs[xs >= (0.0 if t < 1 else -2.0)] if kind == "kdv-one-bc" \
                else xs
            assert np.all(np.isfinite(evaluate_I0(fresh_spec(kind), ys, t)))


@pytest.mark.parametrize("c", [-2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 3.0, 4.0])
def test_drift_matches_exact(c):
    # At c >= 3 the shifted k-contour this part used to integrate had a
    # rounding floor above its budget: 1.0-2.2 s a call, and 1.4e-11 off at
    # c = 4, t = 2.
    spec, exact = _drifting_gaussian(c)
    xs = np.linspace(-3.0, 5.0, 81)
    for t in (1.0, 2.0):
        got = evaluate_extended(spec, xs, t, 1e-10)
        np.testing.assert_allclose(got, exact(xs, t), rtol=0, atol=1e-10)


@pytest.mark.parametrize("c", [-2.0, 1.0, 4.0])
@pytest.mark.parametrize("t", [0.1, 1.0])
def test_i0_matches_k_integral_of_the_data_rule(c, t):
    # The oracle integrates the UTM initial part in k over the same
    # transform: the real-line piece, and the shifted piece on Im k = c
    # (each node's term is entire), where e^{ikx - W t} u0_hat(-k + ic) is
    # e^{-cx} e^{i kappa (x - ct) - kappa^2 t} u0_hat(-kappa), k = kappa + ic
    spec, _ = _drifting_gaussian(c)
    tf = quad.HalfLineTransform(spec.u0, *spec.decay(), tol=1e-14)
    xs = np.linspace(-1.0, 2.0, 7)
    r = math.sqrt(40.0 / t)

    def k_integral(phase, shift, data):
        res = integrate_segment(
            lambda k: np.exp(1j * np.outer(xs + shift, k.real) + phase(k.real))
            * data(k.real), -r, r, tol=1e-13, initial_panels=4 + int(r))
        assert res.warning is None
        return res.value.real / (2 * math.pi)

    line = k_integral(lambda k: -(k * k - 1j * c * k) * t, 0.0, tf)
    shifted = k_integral(lambda k: -k * k * t, -c * t, lambda k: tf(-k))
    oracle = line - np.exp(-c * xs) * shifted
    np.testing.assert_allclose(evaluate_I0(spec, xs, t, 1e-10), oracle,
                               rtol=0, atol=1e-12)


def test_negative_drift_matches_exact_behind_boundary():
    # c = -2 at t = 1: with the contour at Im k = |c| + 1 the error at
    # x = -2 is 6.4e-10, and on a grid down to x = -3 i0 raises
    # ResidualWarning
    spec, exact = _drifting_gaussian(-2.0)
    xs = np.array([0.0, -0.5, -1.0, -1.5, -2.0])
    got = evaluate_extended(spec, xs, 1.0, 1e-10)
    np.testing.assert_allclose(got, exact(xs, 1.0), rtol=0, atol=1e-10)
