"""Contour quadrature, data transforms, and singular time convolutions."""

import cmath
import importlib
import math

import numpy as np
import pytest

from utmcont.continuous import ProblemSpec
from utmcont.expr import parse
from utmcont.quad import (
    DecayError,
    finite_interval_transform,
    gauss_panels,
    geometric_edges,
    HalfLineTransform,
    integrate_segment,
    singular_time_convolution,
)


def _radius(rate, power=2.0, scale=1.0, tol=1e-12):
    """Truncation radius of a tail bounded by scale * exp(-rate r^power)."""
    return ((math.log(scale / (0.25 * tol)) + 5.0) / rate) ** (1.0 / power)


def _path(f, points, tol, oscillation=0.0):
    """Sum of integrate_segment over the polygon through ``points``, each
    segment with an equal share of tol and panels resolving e^{ikx} for
    |x| = oscillation."""
    pieces = list(zip(points[:-1], points[1:]))
    total = 0j
    for a, b in pieces:
        panels = 1 + int(abs(b - a) * oscillation / (2 * math.pi))
        res = integrate_segment(f, a, b, tol=tol / len(pieces),
                                initial_panels=min(panels, 256))
        assert res.warning is None, res.warning
        total += res.value[0]
    return total


def test_segment_constant():
    res = integrate_segment(lambda z: np.ones_like(z), 0.0, 1.0, 1e-13)
    assert res.value[0] == pytest.approx(1.0, abs=1e-13)


def test_rotated_gaussian_ray():
    # int over the pi/4 ray of e^{ik^2} dk = (sqrt(pi)/2) e^{i pi/4}
    far = _radius(1.0) * cmath.exp(1j * math.pi / 4)
    res = integrate_segment(lambda k: np.exp(1j * k**2), 0j, far, 1e-12)
    expected = (math.sqrt(math.pi) / 2) * cmath.exp(1j * math.pi / 4)
    assert res.value[0] == pytest.approx(expected, abs=1e-12)


def _gamma_integrand(k):
    return k * np.exp(1j * k - 0.5 * k**2)


def test_gamma_contour_against_closed_form():
    # int over Im k = 1 of k e^{ik - k^2/2} dk = i sqrt(2 pi) e^{-1/2}
    r = _radius(0.5)
    value = _path(_gamma_integrand, [-r + 1j, 1j, r + 1j], 1e-12,
                  oscillation=1.0)
    assert value == pytest.approx(
        1j * math.sqrt(2 * math.pi) * math.exp(-0.5), abs=1e-12
    )


def test_gamma_contour_against_trapezoid_oracle():
    ks = np.linspace(-30.0, 30.0, 1_000_001) + 1j
    oracle = np.trapezoid(_gamma_integrand(ks), ks.real)
    r = _radius(0.5)
    value = _path(_gamma_integrand, [-r + 1j, 1j, r + 1j], 1e-12,
                  oscillation=1.0)
    assert value == pytest.approx(oracle, abs=1e-9)


def test_contour_deformation_independence():
    # Cauchy: sector boundary and horizontal contour agree for the heat kernel
    x, tau = 0.7, 0.25

    def f(k):
        return k * np.exp(1j * k * x - k**2 * tau) / (1j * math.pi)

    # in along arg 3pi/4, chord at radius 1, out along arg pi/4
    far = _radius(x * math.sin(math.pi / 4), power=1, scale=80.0, tol=1e-10)
    din, dout = cmath.exp(3j * math.pi / 4), cmath.exp(1j * math.pi / 4)
    sector = _path(f, [far * din, din, dout, far * dout], 1e-10,
                   oscillation=x)
    r = _radius(0.5 * tau)
    gamma = _path(f, [-r + 0.5j, 0.5j, r + 0.5j], 1e-12, oscillation=x)
    exact = x / (2 * math.sqrt(math.pi)) * tau**-1.5 * math.exp(-(x**2) / (4 * tau))
    assert sector.real == pytest.approx(exact, rel=1e-10)
    assert abs(sector - gamma) < 10 * 1e-10


def test_truncation_soundness():
    radius = _radius(1.0)
    short = integrate_segment(lambda k: np.exp(-(k**2)), 0.0, radius, 1e-13)
    long = integrate_segment(lambda k: np.exp(-(k**2)), 0.0, 2 * radius, 1e-13)
    assert abs(short.value[0] - long.value[0]) < 1e-12


def test_linearity():
    def f(k):
        return np.exp(-(k**2))

    def g(k):
        return k**2 * np.exp(-(k**2))

    def on_line(h):
        return integrate_segment(h, -8.0, 8.0, 1e-13).value[0]

    combined = on_line(lambda k: 2 * f(k) + 3 * g(k))
    separate = 2 * on_line(f) + 3 * on_line(g)
    assert combined == pytest.approx(separate, rel=1e-12)


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
    # a 1-D integrand gets the result of its one-row form: one value, error
    # and warning per row
    def f(z):
        return np.exp(2j * z) / (1 + z * z)

    scalar = integrate_segment(f, -3.0, 4.0, 1e-12, initial_panels=3)
    vector = integrate_segment(lambda z: f(z)[None, :], -3.0, 4.0, 1e-12,
                               initial_panels=3)
    assert scalar.value.shape == scalar.error.shape == (1,)
    assert scalar.value.tobytes() == vector.value.tobytes()
    assert scalar.error.tobytes() == vector.error.tobytes()
    assert scalar.warnings == vector.warnings == (None,)
    assert scalar.evaluations == vector.evaluations


def test_non_finite_segment_warns():
    # a NaN error is never above its budget, so the row used to pass
    res = integrate_segment(lambda z: np.full(z.shape, np.nan), 0.0, 1.0,
                            1e-10)
    assert res.warning is not None and "not finite" in res.warning
    assert res.warnings == (res.warning,)


def test_vector_segment_non_finite_row_warns_alone():
    def finite(z):
        return np.exp(np.real(z)) * np.cos(5 * np.real(z))

    def rows(z):
        return np.array([finite(z), np.full(z.shape, np.inf)])

    with np.errstate(invalid="ignore"):
        res = integrate_segment(rows, 0.0, 2.0, 1e-12)
    alone = integrate_segment(finite, 0.0, 2.0, 1e-12)
    assert res.warnings[0] is None
    assert res.warnings[1] is not None and "not finite" in res.warnings[1]
    # the row of inf steers no refinement: the finite row keeps its bits
    assert res.value[0] == alone.value[0]
    assert res.error[0] == alone.error[0]


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def test_half_line_transform_exponential():
    tf = HalfLineTransform(parse("exp(-y)"), "exponential", 1.0)
    for k in (0.0, 2.0, -1.5):
        assert tf(k) == pytest.approx(1 / (1 + 1j * k), abs=1e-12)


def test_half_line_transform_linear_exponential():
    tf = HalfLineTransform(parse("3*y*exp(-y)"), "exponential", 1.0)
    assert tf(0.0) == pytest.approx(3.0, abs=1e-11)


def test_half_line_transform_gaussian_oracle():
    u0 = parse("exp(-(y-1)^2)")
    ys = np.linspace(0.0, 40.0, 2_000_001)
    oracle = np.trapezoid(u0.eval(ys) * np.exp(-1j * ys), ys)
    assert HalfLineTransform(u0, "gaussian")(1.0) == pytest.approx(oracle,
                                                                   abs=1e-9)


def test_half_line_transform_cache_and_vector():
    tf = HalfLineTransform(parse("exp(-y)"), "exponential", 1.0, tol=1e-12)
    ks = np.array([0.3, 1.0, 0.3, 2.5])
    vals = tf(ks)
    np.testing.assert_allclose(vals, 1 / (1 + 1j * ks), atol=1e-12)
    assert tf(0.3) == pytest.approx(complex(vals[0]), abs=0)


def test_half_line_transform_decay_violation():
    tf = HalfLineTransform(parse("exp(-y)"), "exponential", 1.0)
    with pytest.raises(DecayError):
        tf(0.5 + 2.0j)


def test_half_line_transform_complex_argument():
    # Im k < 0 strengthens convergence; value continues 1/(1+ik)
    tf = HalfLineTransform(parse("exp(-y)"), "exponential", 1.0)
    k = 1.0 - 0.5j
    assert tf(k) == pytest.approx(1 / (1 + 1j * k), abs=1e-12)


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


def _one_row_convolution(beta, t, row):
    # the vector convolution on a single row, which must converge
    res = singular_time_convolution(beta, lambda s: np.array([row(s)]), t,
                                    1e-12)
    assert res.warnings == (None,)
    return res.value[0]


def test_singular_convolution_constant_half():
    value = _one_row_convolution(0.5, 1.0, np.ones_like)
    assert value == pytest.approx(2.0, rel=1e-12)


def test_singular_convolution_constant_two_thirds():
    value = _one_row_convolution(2 / 3, 1.0, np.ones_like)
    assert value == pytest.approx(3.0, rel=1e-12)


def test_singular_convolution_exponential_oracle():
    # frozen 30-digit oracle of int_0^1 e^s (1-s)^{-1/2} ds
    oracle = 4.06015693855741
    value = _one_row_convolution(0.5, 1.0, np.exp)
    assert value == pytest.approx(oracle, rel=1e-12)


def test_singular_convolution_beta_third():
    # int_0^t s (t-s)^{-1/3} ds = t^{5/3} * 9/10 at t = 2
    t = 2.0
    value = _one_row_convolution(1 / 3, t, lambda s: s)
    assert value == pytest.approx(0.9 * t ** (5 / 3), rel=1e-12)


@pytest.mark.parametrize("t", [1e-3, 1.0, 2.0])
def test_singular_convolution_beta_third_on_powers(t):
    # int_0^t s^k (t-s)^{-1/3} ds = B(k+1, 2/3) t^{k+2/3}, k = 0...3: over
    # t - s = u^3 the integrand 3u (t - u^3)^k is a polynomial in u
    res = singular_time_convolution(
        1 / 3, lambda s: np.array([s**k for k in range(4)]), t, 1e-12)
    assert res.warnings == (None,) * 4
    for k, got in enumerate(res.value):
        want = math.gamma(k + 1) * math.gamma(2 / 3) / math.gamma(k + 5 / 3)
        assert got == pytest.approx(want * t ** (k + 2 / 3), rel=1e-12)


def test_singular_convolution_beta_third_needs_no_bisection_at_the_end():
    # the beta = 1/3 block of the kdv2_te datum f1 at t = 1: the first 16
    # derivatives of -2 sqrt(3) cos 8t - 2 sin 8t against (1-s)^{-1/3}.
    # Over u = (t-s)^{2/3} the integrand had a u^{3/2} term at u = 0 and
    # took 645 evaluations; over u = (t-s)^{1/3} it is smooth.
    f1 = parse("-2*sqrt(3)*cos(8*t) - 2*sin(8*t)", var_name="t")
    cache = ProblemSpec("kdv-two-bc", u0=parse("exp(-x)"),
                        f0=parse("0*t", var_name="t"), f1=f1).deriv("f1")
    res = singular_time_convolution(
        1 / 3, lambda s: cache.derivatives(1, 16, s), 1.0, tol=1e-11)
    assert res.warning is None
    assert res.evaluations <= 200


def test_vector_singular_convolution_rows_match_closed_forms():
    # rows 1, s and e^s against (1-s)^{-1/2} on (0, 1): 2, B(2, 1/2) = 4/3
    # and the frozen oracle above
    res = singular_time_convolution(
        0.5, lambda s: np.array([np.ones_like(s), s, np.exp(s)]), 1.0, 1e-12)
    assert res.warnings == (None, None, None)
    want = [2.0, 4.0 / 3.0, 4.06015693855741]
    for got, exact in zip(res.value, want):
        assert got == pytest.approx(exact, rel=1e-12)


def test_vector_singular_convolution_reports_the_missed_row_only():
    def rows(s):
        return np.array([np.ones_like(s), np.abs(s - 0.37) ** -0.95])

    res = singular_time_convolution(0.5, rows, 1.0, tol=1e-13)
    assert res.warnings[0] is None
    assert "subinterval" in res.warnings[1]
    assert res.value[0] == pytest.approx(2.0, rel=1e-12)


def test_singular_kernel_rejects_nonintegrable():
    with pytest.raises(ValueError):
        singular_time_convolution(1.0, lambda s: s, 1.0, 1e-12)


def test_singular_convolution_rejects_other_exponents():
    # one substitution u = (t-s)^{1/p} serves beta = 1/2, 1/3 and 2/3 only
    with pytest.raises(ValueError, match="beta"):
        singular_time_convolution(
            0.25, lambda s: np.array([np.ones_like(s)]), 1.0, 1e-12)


def test_singular_convolution_requires_positive_time():
    with pytest.raises(ValueError):
        singular_time_convolution(
            0.5, lambda s: np.array([np.ones_like(s)]), 0.0, 1e-12)


def test_ray_pair_dodge_independence():
    # the origin dodge radius is arbitrary for integrands analytic away from
    # zero: two different dodges give the same value (Cauchy)
    def f(k):
        return k**2 * np.exp(1j * k * 0.4 - 1j * k**3 * 0.8) / (-1j * k**3) ** 2

    # in from infinity along arg pi/2, chord at the dodge radius, out along
    # arg -pi/6; the cubic phase decays like e^{-0.8 r^3} on both rays
    far = _radius(0.5, power=3, tol=1e-11)
    din, dout = cmath.exp(1j * math.pi / 2), cmath.exp(-1j * math.pi / 6)

    def dodged(r0):
        return _path(f, [far * din, r0 * din, r0 * dout, far * dout], 1e-11,
                     oscillation=1.0)

    assert dodged(1.0) == pytest.approx(dodged(1.7), abs=1e-10)


def test_nonconvergence_reports_worst_subinterval():
    def nasty(z):
        x = np.real(z)
        return np.abs(x - 0.37) ** -0.95

    res = integrate_segment(nasty, 0.0, 1.0, tol=1e-13, max_intervals=32)
    assert res.warning is not None and "subinterval" in res.warning
    res = singular_time_convolution(0.5, lambda s: np.array([nasty(s)]),
                                    1.0, tol=1e-13)
    assert "subinterval" in res.warnings[0]


@pytest.mark.parametrize("edges", [
    np.linspace(-1.0, 2.0, 5),
    geometric_edges(3.0, 0.05, 1.6),
], ids=["uniform", "geometric"])
@pytest.mark.parametrize("order", [1, 4, 12])
def test_gauss_panels_exact_to_degree_2n_minus_1(edges, order):
    nodes, weights = gauss_panels(edges, order)
    assert nodes.shape == weights.shape == (len(edges) - 1, order)
    lo, hi = edges[0], edges[-1]
    for degree in range(2 * order):
        want = (hi ** (degree + 1) - lo ** (degree + 1)) / (degree + 1)
        got = float(np.sum(weights * nodes**degree))
        assert got == pytest.approx(want, rel=1e-13, abs=1e-13), degree
    # each row stays inside its own panel
    assert np.all((nodes > edges[:-1, None]) & (nodes < edges[1:, None]))


@pytest.mark.parametrize("upper, first, ratio", [
    (10.0, 0.1, 1.6), (1.0, 1.0, 1.7), (2.5, 0.001, 1.5)])
def test_geometric_edges_grow_by_ratio(upper, first, ratio):
    edges = geometric_edges(upper, first, ratio)
    assert edges[0] == 0.0 and edges[-1] == upper
    widths = np.diff(edges)
    assert np.all(widths > 0)
    assert widths[0] == pytest.approx(min(first, upper))
    # every width but the last (cut at upper) is ratio times the one before
    np.testing.assert_allclose(widths[1:-1] / widths[:-2], ratio, rtol=1e-9)
    assert widths[-1] <= first * ratio ** (len(widths) - 1) * (1 + 1e-12)


@pytest.mark.parametrize("module", ["utmcont.quad", "utmcont.semidiscrete",
                                    "utmcont.continuous"])
def test_every_exported_name_resolves(module):
    # no deletion leaves a name in __all__ that the module no longer has
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
