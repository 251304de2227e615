"""Contour quadrature, data transforms, and singular time convolutions."""

import cmath
import math

import numpy as np
import pytest

from utmcont.expr import parse
from utmcont.quad import (
    ContourPath,
    QuadratureError,
    DecayDescriptor,
    DecayError,
    Ray,
    Segment,
    SingularKernel,
    finite_interval_transform,
    half_line_transform,
    HalfLineTransform,
    heat_sector_path,
    horizontal_path,
    integrate_path,
    integrate_segment,
    real_line_path,
    singular_time_convolution,
)

GAUSS = DecayDescriptor(rate=1.0, power=2)


def test_segment_constant():
    res = integrate_segment(lambda z: np.ones_like(z), 0.0, 1.0, 1e-13)
    assert res.value == pytest.approx(1.0, abs=1e-13)


def test_rotated_gaussian_ray():
    # int over the pi/4 ray of e^{ik^2} dk = (sqrt(pi)/2) e^{i pi/4}
    path = ContourPath((Ray(0j, cmath.exp(1j * math.pi / 4)),))
    res = integrate_path(lambda k: np.exp(1j * k**2), path, GAUSS, 1e-12)
    expected = (math.sqrt(math.pi) / 2) * cmath.exp(1j * math.pi / 4)
    assert res.value == pytest.approx(expected, abs=1e-12)


def test_gamma_contour_against_closed_form():
    # int over Im k = 1 of k e^{ik - k^2/2} dk = i sqrt(2 pi) e^{-1/2}
    def f(k):
        return k * np.exp(1j * k - 0.5 * k**2)

    res = integrate_path(
        f, horizontal_path(1.0), DecayDescriptor(rate=0.5, oscillation=1.0), 1e-12
    )
    assert res.value == pytest.approx(
        1j * math.sqrt(2 * math.pi) * math.exp(-0.5), abs=1e-12
    )


def test_gamma_contour_against_trapezoid_oracle():
    def f(k):
        return k * np.exp(1j * k - 0.5 * k**2)

    ks = np.linspace(-30.0, 30.0, 1_000_001) + 1j
    oracle = np.trapezoid(f(ks), ks.real)
    res = integrate_path(
        f, horizontal_path(1.0), DecayDescriptor(rate=0.5, oscillation=1.0), 1e-12
    )
    assert res.value == pytest.approx(oracle, abs=1e-9)


def test_contour_deformation_independence():
    # Cauchy: sector boundary and horizontal contour agree for the heat kernel
    x, tau = 0.7, 0.25

    def f(k):
        return k * np.exp(1j * k * x - k**2 * tau) / (1j * math.pi)

    sector = integrate_path(
        f,
        heat_sector_path(1.0),
        DecayDescriptor(rate=x * math.sin(math.pi / 4), power=1, scale=80.0,
                        oscillation=x),
        1e-10,
    )
    gamma = integrate_path(
        f, horizontal_path(0.5),
        DecayDescriptor(rate=0.5 * tau, oscillation=x), 1e-12
    )
    exact = x / (2 * math.sqrt(math.pi)) * tau**-1.5 * math.exp(-(x**2) / (4 * tau))
    assert sector.value.real == pytest.approx(exact, rel=1e-10)
    assert abs(sector.value - gamma.value) < 10 * 1e-10


def test_truncation_soundness():
    radius = GAUSS.truncation_radius(1e-12)
    short = integrate_segment(lambda k: np.exp(-(k**2)), 0.0, radius, 1e-13)
    long = integrate_segment(lambda k: np.exp(-(k**2)), 0.0, 2 * radius, 1e-13)
    assert abs(short.value - long.value) < 1e-12


def test_linearity():
    path = real_line_path(8.0)

    def f(k):
        return np.exp(-(k**2))

    def g(k):
        return k**2 * np.exp(-(k**2))

    combined = integrate_path(lambda k: 2 * f(k) + 3 * g(k), path, GAUSS, 1e-13)
    separate = (
        2 * integrate_path(f, path, GAUSS, 1e-13).value
        + 3 * integrate_path(g, path, GAUSS, 1e-13).value
    )
    assert combined.value == pytest.approx(separate, rel=1e-12)


def test_vector_segment_rows_meet_own_budgets():
    # one hard row (a narrow Lorentzian) drives refinement; the easy rows
    # ride along on its intervals and every row meets the unchanged budget
    def rows(z):
        return np.array([np.exp(z), np.cos(3 * z), 1 / (z * z + 1e-4)])

    exact = np.array([math.e - 1 / math.e, 2 * math.sin(3) / 3,
                      200 * math.atan(100)])
    tol = 1e-11
    res = integrate_segment(rows, -1.0, 1.0, tol)
    np.testing.assert_allclose(res.value, exact, rtol=0, atol=tol)
    assert np.all(res.error <= tol)
    assert res.warning is None and res.warnings == (None, None, None)
    easy = integrate_segment(lambda z: rows(z)[:2], -1.0, 1.0, tol)
    assert res.evaluations > easy.evaluations


def test_vector_segment_cap_warns_failing_row_only():
    def rows(z):
        x = np.real(z)
        return np.array([np.exp(x), np.abs(x - 0.37) ** -0.95])

    res = integrate_segment(rows, 0.0, 1.0, tol=1e-13, max_intervals=32)
    assert res.warnings[0] is None
    assert res.warnings[1] is not None and "subinterval" in res.warnings[1]
    assert res.warning == res.warnings[1]
    assert res.value[0] == pytest.approx(math.e - 1, abs=1e-13)


def test_scalar_segment_is_one_row_case():
    def f(z):
        return np.exp(2j * z) / (1 + z * z)

    scalar = integrate_segment(f, -3.0, 4.0, 1e-12, initial_panels=3)
    vector = integrate_segment(lambda z: f(z)[None, :], -3.0, 4.0, 1e-12,
                               initial_panels=3)
    assert scalar.value == vector.value[0]
    assert scalar.error == vector.error[0]
    assert scalar.evaluations == vector.evaluations


def test_decay_descriptor_requires_positive_rate():
    with pytest.raises(DecayError):
        DecayDescriptor(rate=0.0).truncation_radius(1e-10)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def test_half_line_transform_exponential():
    u0 = parse("exp(-y)")
    for k in (0.0, 2.0, -1.5):
        assert half_line_transform(u0, k, "exponential", 1.0) == pytest.approx(
            1 / (1 + 1j * k), abs=1e-12
        )


def test_half_line_transform_linear_exponential():
    u0 = parse("3*y*exp(-y)")
    assert half_line_transform(u0, 0.0, "exponential", 1.0) == pytest.approx(
        3.0, abs=1e-11
    )


def test_half_line_transform_gaussian_oracle():
    u0 = parse("exp(-(y-1)^2)")
    ys = np.linspace(0.0, 40.0, 2_000_001)
    oracle = np.trapezoid(u0.eval(ys) * np.exp(-1j * ys), ys)
    assert half_line_transform(u0, 1.0, "gaussian") == pytest.approx(oracle, abs=1e-9)


def test_half_line_transform_cache_and_vector():
    tf = HalfLineTransform(parse("exp(-y)"), "exponential", 1.0, tol=1e-12)
    ks = np.array([0.3, 1.0, 0.3, 2.5])
    vals = tf(ks)
    np.testing.assert_allclose(vals, 1 / (1 + 1j * ks), atol=1e-12)
    assert tf(0.3) == pytest.approx(complex(vals[0]), abs=0)


def test_half_line_transform_decay_violation():
    tf = HalfLineTransform(parse("exp(-y)"), "exponential", 1.0, max_im=0.0)
    with pytest.raises(DecayError):
        tf(0.5 + 2.0j)


def test_half_line_transform_complex_argument():
    # Im k < 0 strengthens convergence; value continues 1/(1+ik)
    u0 = parse("exp(-y)")
    k = 1.0 - 0.5j
    assert half_line_transform(u0, k, "exponential", 1.0) == pytest.approx(
        1 / (1 + 1j * k), abs=1e-12
    )


def test_finite_interval_transform_constant():
    one = parse("1 + 0*y")
    assert finite_interval_transform(one, 1.0, 0.0) == pytest.approx(1.0, abs=1e-13)
    assert finite_interval_transform(one, 1.0, math.pi) == pytest.approx(
        2 / (1j * math.pi), abs=1e-12
    )


def test_finite_interval_transform_gaussian_oracle():
    u0 = parse("exp(-(y-1)^2/(4*0+1))/sqrt(4*0+1)")
    ys = np.linspace(0.0, 1.0, 400_001)
    oracle = np.trapezoid(u0.eval(ys) * np.exp(-2j * ys), ys)
    assert finite_interval_transform(u0, 1.0, 2.0) == pytest.approx(oracle, abs=1e-10)


def test_transform_value_depends_only_on_its_own_k():
    u0 = parse("exp(-(y-1)^2)")
    k, far = 2.0 - 0.1j, 90.0
    alone = finite_interval_transform(u0, 1.5, np.array([k]))[0]
    batched = finite_interval_transform(u0, 1.5, np.array([k, far]))[0]
    assert alone == batched
    single = HalfLineTransform(u0, "gaussian")(np.array([k.real]))[0]
    shared = HalfLineTransform(u0, "gaussian")(np.array([k.real, far]))[0]
    assert single == shared


# ---------------------------------------------------------------------------
# singular convolutions
# ---------------------------------------------------------------------------


def test_singular_convolution_constant_half():
    kern = SingularKernel(0.5, lambda s: np.ones_like(np.asarray(s, dtype=float)))
    assert singular_time_convolution(kern, 1.0) == pytest.approx(2.0, rel=1e-12)


def test_singular_convolution_constant_two_thirds():
    kern = SingularKernel(2 / 3, lambda s: np.ones_like(np.asarray(s, dtype=float)))
    assert singular_time_convolution(kern, 1.0) == pytest.approx(3.0, rel=1e-12)


def test_singular_convolution_exponential_oracle():
    # frozen 30-digit oracle of int_0^1 e^s (1-s)^{-1/2} ds
    oracle = 4.06015693855741
    kern = SingularKernel(0.5, lambda s: np.exp(np.asarray(s, dtype=float)))
    assert singular_time_convolution(kern, 1.0) == pytest.approx(oracle, rel=1e-12)


def test_singular_convolution_beta_third():
    # int_0^t s (t-s)^{-1/3} ds = t^{5/3} * 9/10 at t = 2
    kern = SingularKernel(1 / 3, lambda s: np.asarray(s, dtype=float))
    t = 2.0
    assert singular_time_convolution(kern, t) == pytest.approx(
        0.9 * t ** (5 / 3), rel=1e-12
    )


def test_singular_kernel_rejects_nonintegrable():
    with pytest.raises(ValueError):
        SingularKernel(1.0, lambda s: s)


def test_singular_convolution_requires_positive_time():
    kern = SingularKernel(0.5, lambda s: np.ones_like(np.asarray(s, dtype=float)))
    with pytest.raises(ValueError):
        singular_time_convolution(kern, 0.0)


def test_ray_pair_dodge_independence():
    # the origin dodge radius is arbitrary for integrands analytic away from
    # zero: two different dodges give the same value (Cauchy)
    from utmcont.quad import ray_pair_path

    def f(k):
        return k**2 * np.exp(1j * k * 0.4 - 1j * k**3 * 0.8) / (-1j * k**3) ** 2

    decay = DecayDescriptor(rate=0.5, power=3, oscillation=1.0)
    a = integrate_path(f, ray_pair_path(math.pi / 2, -math.pi / 6, 1.0),
                       decay, 1e-11)
    b = integrate_path(f, ray_pair_path(math.pi / 2, -math.pi / 6, 1.7),
                       decay, 1e-11)
    assert a.value == pytest.approx(b.value, abs=1e-10)


def test_nonconvergence_reports_worst_subinterval():
    def nasty(z):
        x = np.real(z)
        return np.abs(x - 0.37) ** -0.95

    res = integrate_segment(nasty, 0.0, 1.0, tol=1e-13, max_intervals=32)
    assert res.warning is not None and "subinterval" in res.warning
    with pytest.raises(QuadratureError):
        integrate_path(nasty, ContourPath((Segment(0.0, 1.0),)),
                       GAUSS, 1e-13, max_intervals=32)
