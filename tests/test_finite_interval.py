"""Finite-interval heat: recovery, dual boundary evaluators, tilings, w0."""

import math
import warnings

import numpy as np
import pytest

from conftest import GAUSS_F0, GAUSS_U0, taylor_sum
from utmcont.continuous import finite_interval
from utmcont.continuous.heat import single_layer
from utmcont.expr import ExprDomainError, parse
from utmcont.quad import QuadratureError, finite_interval_transform
from utmcont.continuous import (
    ProblemSpec,
    boundary_to_initial,
    evaluate_boundary_integral,
    evaluate_extended,
    evaluate_I0,
    fourier_boundary_integral,
    reference_whole_line,
    taylor_coefficients,
)


def test_whole_line_recovery(interval_gaussian):
    for x in (-1.0, -0.4, 0.0, 0.3, 0.5, 1.0, 1.6, 2.0):
        ua = evaluate_extended(interval_gaussian, x, 1.0, 1e-10)
        ur = reference_whole_line("gaussian-drift", x, 1.0)
        assert ua == pytest.approx(ur, abs=1e-8)


def test_boundary_recovery_both_ends(interval_gaussian):
    for t in (0.1, 0.5, 1.0):
        assert evaluate_extended(interval_gaussian, 0.0, t, 1e-10) == \
            pytest.approx(float(interval_gaussian.f0.eval(t)), abs=1e-8)
        assert evaluate_extended(interval_gaussian, 1.0, t, 1e-10) == \
            pytest.approx(float(interval_gaussian.g0.eval(t)), abs=1e-8)


def test_fourier_matches_images(interval_gaussian):
    for t in (0.25, 1.0):
        for x in (0.1, 0.5, 1.0, 1.5, 1.9):
            a = evaluate_boundary_integral(interval_gaussian, "f0", x, t, 1e-11)
            b = fourier_boundary_integral(interval_gaussian, x, t)
            assert a == pytest.approx(b, abs=1e-8)


def test_left_integral_antisymmetry(interval_gaussian):
    # I_{f0}(2L - x) = -I_{f0}(x)
    t = 0.7
    for x in (0.3, 0.8):
        a = evaluate_boundary_integral(interval_gaussian, "f0", x, t, 1e-11)
        b = evaluate_boundary_integral(interval_gaussian, "f0", 2.0 - x, t,
                                       1e-11)
        assert a == pytest.approx(-b, abs=1e-11)


def test_boundary_integral_windows(interval_gaussian):
    from utmcont.continuous import OutsideWindowError

    with pytest.raises(OutsideWindowError):
        evaluate_boundary_integral(interval_gaussian, "f0", -0.5, 1.0)
    with pytest.raises(OutsideWindowError):
        evaluate_boundary_integral(interval_gaussian, "g0", 1.5, 1.0)


def test_center_series_matches_integral(interval_gaussian):
    t = 1.0
    ext = taylor_coefficients(interval_gaussian, "f0", t, 37,
                              parity="odd-center")
    assert ext.expansion_point == 1.0
    assert all(o % 2 == 1 for o in ext.orders)
    for x in (0.3, 1.0, 1.7):
        series = taylor_sum(ext, x)
        integral = evaluate_boundary_integral(interval_gaussian, "f0", x, t,
                                              1e-11)
        assert series == pytest.approx(integral, abs=1e-9)


def test_odd_center_refuses_a_non_finite_datum():
    # f0 = sqrt(t - 0.5) is NaN on [0, 0.5) of [0, t]
    spec = ProblemSpec("heat-finite-interval", u0=parse("exp(-(x-1)^2)"),
                       f0=parse("sqrt(t-0.5)", var_name="t"),
                       g0=parse("1/(1+t)", var_name="t"), L=1.0)
    with pytest.raises(ExprDomainError, match="non-finite"):
        taylor_coefficients(spec, "f0", 1.0, 3, parity="odd-center")


def test_odd_center_past_the_float_range_raises_quietly():
    # at n = 47 (order 93) the kernel's factors overflow and the quadrature
    # value is NaN: QuadratureError names the order, and no numpy warning
    # escapes
    spec = ProblemSpec("heat-finite-interval", u0=parse("exp(-(x-1)^2)"),
                       f0=parse("t*exp(-t)", var_name="t"),
                       g0=parse("1/(1+t)", var_name="t"), L=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError, match="order 93"):
            finite_interval.odd_center_coefficient(spec, 47, 1.0, 1e-11)


def test_fourier_refuses_a_non_finite_datum():
    # the same datum: the Fourier cross-check refuses it as the solver does,
    # instead of returning NaN
    spec = ProblemSpec("heat-finite-interval", u0=parse("exp(-(x-1)^2)"),
                       f0=parse("sqrt(t-0.5)", var_name="t"),
                       g0=parse("1/(1+t)", var_name="t"), L=1.0)
    with pytest.raises(ExprDomainError, match="non-finite"):
        evaluate_extended(spec, 0.3, 1.0)
    with pytest.raises(ExprDomainError, match="non-finite"):
        fourier_boundary_integral(spec, 0.3, 1.0)


def test_tiling_depth_guard(interval_gaussian):
    with pytest.raises(ValueError, match="tiling depth"):
        evaluate_extended(interval_gaussian, 5.5, 1.0, 1e-9)


def test_deep_tiles(interval_gaussian):
    # third tile on each side still matches the whole-line solution
    for x in (-2.5, 3.5):
        ua = evaluate_extended(interval_gaussian, x, 1.0, 1e-10)
        ur = reference_whole_line("gaussian-drift", x, 1.0)
        assert ua == pytest.approx(ur, abs=1e-7)


def test_a_rounded_window_image_moves_into_its_window():
    # with L = 1.2, x = -3.5999999999999996 / 2.4 rounds so that the right
    # tiling put its window image at -L, outside (-L, L], and the solve
    # raised OutsideWindowError
    spec = ProblemSpec("heat-finite-interval", L=1.2, u0=parse(GAUSS_U0),
                       f0=parse(GAUSS_F0),
                       g0=parse("exp(-0.04/(4*t+1))/sqrt(4*t+1)"))
    x = -3.5999999999999996
    ua = evaluate_extended(spec, x, 1.0, 1e-10)
    assert ua == pytest.approx(reference_whole_line("gaussian-drift", x, 1.0),
                               abs=1e-12)


_SMALL_T_DEEP_DEFECT = pytest.mark.xfail(
    strict=True, reason="the accumulated doubled series reads up to 138 "
    "orders at |x - center| = 5 and its terms cancel: errors 2.7e-9 to "
    "2.3e-3, exit 0")


@pytest.mark.parametrize("t", [1e-3, 0.1])
@pytest.mark.parametrize("x", [
    -2.0, -1.0, 3.0,
    pytest.param(-4.0, marks=_SMALL_T_DEEP_DEFECT),
    pytest.param(-5.0, marks=_SMALL_T_DEEP_DEFECT),
    pytest.param(5.0, marks=_SMALL_T_DEEP_DEFECT),
])
def test_tiles_at_small_t_match_the_whole_line_solution(interval_gaussian,
                                                        x, t):
    # inside the supported depth 5 L, each tile should meet the exact
    # solution; the near tiles do, to 3.7e-13
    ua = evaluate_extended(interval_gaussian, x, t, 1e-10)
    ur = reference_whole_line("gaussian-drift", x, t)
    assert abs(ua - ur) <= 1e-12


def test_smooth_gluing_at_both_boundaries(interval_gaussian):
    from test_heat import one_sided_derivatives

    right, left = one_sided_derivatives(
        lambda x: evaluate_extended(interval_gaussian, x, 1.0, 1e-12), h=0.06
    )
    for k in range(4):
        assert right[k] == pytest.approx(left[k], abs=1e-5)
    # about x = L
    right, left = one_sided_derivatives(
        lambda s: evaluate_extended(interval_gaussian, 1.0 + s, 1.0, 1e-12),
        h=0.06,
    )
    for k in range(4):
        assert right[k] == pytest.approx(left[k], abs=1e-5)


def test_w0_compatible(interval_gaussian):
    for x in (-0.9, -0.3, 0.4, 1.0, 1.2, 1.9):
        got = boundary_to_initial(interval_gaussian, x)
        assert got == pytest.approx(
            reference_whole_line("gaussian-drift", x, 0.0), abs=1e-10
        )


def test_w0_zero_boundary_data_is_odd_tiling():
    spec = ProblemSpec("heat-finite-interval", L=1.0,
                       u0=parse("exp(-(x-1)^2)"), f0=parse("0*t"),
                       g0=parse("0*t"))
    x = 0.4
    assert boundary_to_initial(spec, -x) == pytest.approx(
        -float(spec.u0.eval(x)), rel=1e-12
    )
    assert boundary_to_initial(spec, 2.0 - x) == pytest.approx(
        -float(spec.u0.eval(x)), rel=1e-12
    )


def test_i0_zero_data():
    spec = ProblemSpec("heat-finite-interval", L=1.0, u0=parse("0*x"),
                       f0=parse("t"), g0=parse("t"))
    assert evaluate_I0(spec, 0.5, 0.5) == 0.0


@pytest.mark.parametrize("L", [0.9, 1.0, 1.2])
@pytest.mark.parametrize("t", [1e-3, 0.1, 1.0, 4.0])
def test_i0_matches_eigenfunction_series(L, t):
    # i0 solves the heat equation with zero boundary data, so it is the sine
    # series sum_n b_n e^{-(n pi/L)^2 t} sin(n pi x/L), with b_n = (2/L)
    # int_0^L u0(y) sin(n pi y/L) dy = -(2/L) Im u0_hat(n pi/L): the modes
    # come from the finite-interval transform, on its own rule, and the
    # last one kept is below e^{-40}
    spec = ProblemSpec("heat-finite-interval", L=L, u0=parse("exp(-(x-1)^2)"),
                       f0=parse("t*exp(-t)"), g0=parse("exp(-t)"))
    k = np.arange(1, int(L / math.pi * math.sqrt(40.0 / t)) + 6) * math.pi / L
    b = -(2.0 / L) * finite_interval_transform(spec.u0, L, k).imag
    xs = np.linspace(-5.0 * L, 5.0 * L, 41)
    oracle = np.sin(np.outer(xs, k)) @ (b * np.exp(-k * k * t))
    got = evaluate_I0(spec, xs, t, 1e-10)
    np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-12)
    # each x is summed alone
    alone = np.array([evaluate_I0(spec, x, t, 1e-10) for x in xs])
    assert alone.tobytes() == got.tobytes()
    assert evaluate_I0(spec, xs[::-1], t, 1e-10)[::-1].tobytes() == \
        got.tobytes()


def test_pde_residual_off_domain(interval_gaussian):
    u = lambda x, t: evaluate_extended(interval_gaussian, x, t, 1e-11)
    for x0 in (-0.5, 1.5):
        res = []
        for h in (0.08, 0.04):
            ut = (u(x0, 1.0 + h) - u(x0, 1.0 - h)) / (2 * h)
            uxx = (u(x0 + h, 1.0) - 2 * u(x0, 1.0) + u(x0 - h, 1.0)) / h**2
            res.append(abs(ut - uxx))
        assert res[1] < res[0] / 2.5
        assert res[1] < 5e-4


def _per_image_sum(spec, datum, y, t, tol, quad_tol):
    """The reference image sum: one single-layer call per image, each at
    quad_tol, over the images the budget of tol keeps."""
    L = spec.L
    total = np.zeros(y.shape)
    for j in range(finite_interval._image_budget(L, t, tol) + 1):
        total += single_layer(datum, y + 2 * j * L, t, quad_tol)
        total -= single_layer(datum, 2 * (j + 1) * L - y, t, quad_tol)
    total[y == 0] = float(datum.eval(t))
    return total


@pytest.mark.parametrize("L", [0.9, 1.0, 1.2])
@pytest.mark.parametrize("t", [1e-3, 0.1, 1.0, 4.0])
def test_boundary_integrals_match_the_per_image_sum(L, t):
    # the nearest pair and the far images in two quadratures sum the same
    # images as one single-layer call per image.  At the call's own tol the
    # per-image sum is off by 3.6e-12 at t = 4 (the image at 15.95, against
    # an independent quadrature), so its images run at 1e-12.  At t = 1e-3
    # the budget is one image pair and the far integrand underflows to 0.
    spec = ProblemSpec("heat-finite-interval", L=L, u0=parse(GAUSS_U0),
                       f0=parse(GAUSS_F0), g0=parse("1/sqrt(4*t+1)"))
    tol = 1e-10
    y = np.concatenate([[0.0, L, 2 * L - 1e-9],
                        np.linspace(0.0, 2 * L, 21, endpoint=False)[1:]])
    for got, datum in (
            (finite_interval.left_boundary_integral(spec, y, t, tol),
             spec.f0),
            (finite_interval.right_boundary_integral(spec, L - y, t, tol),
             spec.g0)):
        oracle = _per_image_sum(spec, datum, y, t, tol, 1e-12)
        assert np.all(np.abs(got - oracle)
                      <= 1e-13 * np.maximum(1.0, np.abs(oracle)))


@pytest.mark.parametrize("L", [0.9, 1.2])
@pytest.mark.parametrize("t", [1e-3, 1.0, 4.0])
def test_extended_makes_two_quadratures_per_datum(segment_calls, L, t):
    # the nearest image pair and the far images, whatever the image budget
    # (one call per image made 2 (budget + 1) per datum).  A count, not a
    # time, so the guard is free of timing noise.
    spec = ProblemSpec("heat-finite-interval", L=L, u0=parse(GAUSS_U0),
                       f0=parse(GAUSS_F0), g0=parse("1/sqrt(4*t+1)"))
    xs = np.linspace(-4.5 * L, 4.5 * L, 19)
    values = evaluate_extended(spec, xs, t, 1e-10)
    assert np.all(np.isfinite(values))
    assert len(segment_calls) == 4
