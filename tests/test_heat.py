"""Half-line heat: recovery, Taylor data, extensions, boundary-to-initial."""

import math
import re

import mpmath as mp
import numpy as np
import pytest

from conftest import taylor_sum
from utmcont.expr import ExprDomainError, parse
from utmcont.quad import HalfLineTransform, QuadratureError, integrate_segment
from utmcont.continuous import (
    ProblemSpec,
    boundary_to_initial,
    evaluate_boundary_integral,
    evaluate_extended,
    evaluate_I0,
    reference_whole_line,
    taylor_coefficients,
)
from utmcont.continuous import _common, finite_interval, heat
from utmcont.continuous._common import datum_ladder, doubled_series


def test_whole_line_recovery(heat_gaussian):
    for x in (-3.0, -1.0, 0.0, 0.5, 2.0, 5.0):
        ua = evaluate_extended(heat_gaussian, x, 1.0, 1e-10)
        ur = reference_whole_line("gaussian-drift", x, 1.0)
        assert ua == pytest.approx(ur, abs=5e-11)


def test_extended_at_example_point(heat_gaussian):
    # continuation value at (-1, 1) equals the whole-line solution there
    assert evaluate_extended(heat_gaussian, -1.0, 1.0) == pytest.approx(
        math.exp(-0.8) / math.sqrt(5.0), abs=1e-11
    )


def test_i0_zero_data():
    spec = ProblemSpec("heat-dirichlet", u0=parse("0*x"), f0=parse("t*exp(-t)"))
    for x, t in ((0.5, 0.3), (-1.0, 1.0)):
        assert evaluate_I0(spec, x, t) == 0.0


def test_i0_against_method_of_images():
    # u0 = e^-y with zero boundary datum: whole-line heat kernel against the
    # odd extension of u0
    spec = ProblemSpec("heat-dirichlet", u0=parse("exp(-x)"), f0=parse("0*t"))
    x, t = 0.5, 0.25

    oracle = 0.0  # trapezoid on each side of the odd-extension kink
    for lo, hi, sgn in ((-40.0, 0.0, -1.0), (0.0, 40.0, 1.0)):
        ys = np.linspace(lo, hi, 800_001)
        kernel = np.exp(-((x - ys) ** 2) / (4 * t)) / math.sqrt(4 * math.pi * t)
        oracle += np.trapezoid(kernel * sgn * np.exp(-np.abs(ys)), ys)

    val = evaluate_extended(spec, x, t, 1e-11)
    assert val == pytest.approx(oracle, abs=2e-9)
    assert evaluate_I0(spec, x, t, 1e-11) == pytest.approx(oracle, abs=2e-9)


@pytest.mark.parametrize("kind", ["heat-dirichlet", "heat-neumann"])
@pytest.mark.parametrize("t", [1e-3, 0.1, 1.0])
def test_i0_matches_k_integral_of_the_data_rule(fresh_spec, kind, t):
    # The oracle integrates (1/2pi) int e^{ikx - k^2 t} (u0_hat(k) +
    # s u0_hat(-k)) dk in k over the same transform that i0 sums in closed
    # form
    spec = fresh_spec(kind)
    tf = HalfLineTransform(spec.u0, *spec.decay(), tol=1e-14)
    sign = -1.0 if kind == "heat-dirichlet" else 1.0
    xs = np.linspace(-1.0, 3.0, 9)
    r = math.sqrt(40.0 / t)

    def integrand(k):
        k = k.real
        return (np.exp(1j * np.outer(xs, k) - k * k * t)
                * (tf(k) + sign * tf(-k)))

    res = integrate_segment(integrand, -r, r, tol=1e-13,
                            edges=np.linspace(0, 1, 5 + int(r)))
    assert res.warning is None
    np.testing.assert_allclose(evaluate_I0(spec, xs, t, 1e-10),
                               res.value.real / (2 * math.pi),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", ["heat-dirichlet", "heat-neumann",
                                  "advected-heat", "kdv-one-bc",
                                  "kdv-two-bc"])
def test_i0_value_depends_on_its_own_x_alone(fresh_spec, kind):
    spec = fresh_spec(kind)
    for t in (1e-3, 0.5):
        # one-condition KdV refuses x < 0 at t = 1e-3 (see test_kdv)
        low = 0.0 if kind == "kdv-one-bc" and t < 0.5 else -2.0
        xs = np.linspace(low, 3.0, 11)
        grid = evaluate_I0(spec, xs, t)
        assert evaluate_I0(spec, xs[::-1], t)[::-1].tobytes() == grid.tobytes()
        points = np.array([evaluate_I0(spec, x, t) for x in xs])
        assert points.tobytes() == grid.tobytes()


def test_boundary_recovery(heat_gaussian):
    for t in (0.1, 0.5, 1.0):
        ua = evaluate_extended(heat_gaussian, 0.0, t, 1e-10)
        assert ua == pytest.approx(heat_gaussian.f0.eval(t), abs=1e-8)


def test_boundary_integral_limit(heat_te):
    # x -> 0+ limit of the boundary integral is the datum
    t = 0.7
    val = evaluate_boundary_integral(heat_te, "f0", 1e-7, t, 1e-12)
    assert val == pytest.approx(0.7 * math.exp(-0.7), abs=1e-7)
    assert evaluate_boundary_integral(heat_te, "f0", 0.0, t) == pytest.approx(
        0.7 * math.exp(-0.7), rel=1e-14
    )


def test_zero_datum_odd_symmetry():
    spec = ProblemSpec("heat-dirichlet", u0=parse("exp(-(x-1)^2)"),
                       f0=parse("0*t"))
    for x in (0.3, 1.1, 2.4):
        a = evaluate_extended(spec, x, 0.7, 1e-11)
        b = evaluate_extended(spec, -x, 0.7, 1e-11)
        assert a == pytest.approx(-b, abs=1e-11)


def test_tilde_closed_form(heat_te):
    # f0 = t e^-t gives tilde = e^-t (2t cos x + x sin x)
    for t in (0.1, 1.0):
        for x in np.linspace(-5.0, 5.0, 21):
            got = doubled_series(datum_ladder(heat_te, "f0", "even", t),
                                 np.array([x]), 1e-12)[0]
            want = math.exp(-t) * (2 * t * math.cos(x) + x * math.sin(x))
            assert got == pytest.approx(want, abs=1e-10)


def test_tilde_constant_datum():
    spec = ProblemSpec("heat-dirichlet", u0=parse("exp(-x^2)"),
                       f0=parse("3 + 0*t"))
    ext = taylor_coefficients(spec, "f0", 0.5, 12)
    assert ext.coeffs[0] == pytest.approx(3.0)
    assert all(abs(c) < 1e-15 for c in ext.coeffs[1:])
    assert doubled_series(datum_ladder(spec, "f0", "even", 0.5),
                          np.array([1.7]), 1e-10)[0] == pytest.approx(
        6.0, rel=1e-12)


def test_full_series_matches_kernel(heat_gaussian):
    # even + odd Taylor series of the boundary part against the closed
    # kernel convolution, on the native side
    t = 0.7
    ext = taylor_coefficients(heat_gaussian, "f0", t, 25, parity="all")
    for x in (0.1, 0.4, 0.9):
        series = taylor_sum(ext, x)
        kernel = evaluate_boundary_integral(heat_gaussian, "f0", x, t, 1e-12)
        assert series == pytest.approx(kernel, abs=1e-11)


def test_full_series_gives_extension_at_negative_args(heat_gaussian):
    # series representation continues to x < 0 and matches tilde - kernel
    t = 0.7
    ext = taylor_coefficients(heat_gaussian, "f0", t, 30, parity="all")
    for x in (-0.2, -0.6):
        series = taylor_sum(ext, x)
        extension = doubled_series(
            datum_ladder(heat_gaussian, "f0", "even", t),
            np.array([x]), 1e-12)[0] - \
            evaluate_boundary_integral(heat_gaussian, "f0", -x, t, 1e-12)
        assert series == pytest.approx(extension, abs=1e-10)


def test_interior_agreement(heat_gaussian):
    for x in (0.4, 1.7):
        whole = evaluate_extended(heat_gaussian, x, 1.0, 1e-10)
        parts = evaluate_I0(heat_gaussian, x, 1.0, 1e-10) + \
            evaluate_boundary_integral(heat_gaussian, "f0", x, 1.0, 1e-10)
        assert whole == pytest.approx(parts, abs=1e-9)


def test_truncation_convergence(heat_gaussian):
    # adding ten more orders beyond the adaptive stop changes nothing
    t = 1.0
    ext30 = taylor_coefficients(heat_gaussian, "f0", t, 60)
    ext40 = taylor_coefficients(heat_gaussian, "f0", t, 80)
    for x in (-2.0, -3.0):
        assert 2.0 * taylor_sum(ext30, x) == pytest.approx(
            2.0 * taylor_sum(ext40, x), abs=1e-10)


def test_pde_residual_both_sides(heat_gaussian):
    u = lambda x, t: evaluate_extended(heat_gaussian, x, t, 1e-11)
    for x0 in (0.7, -0.7):
        res = []
        for h in (0.08, 0.04):
            ut = (u(x0, 1.0 + h) - u(x0, 1.0 - h)) / (2 * h)
            uxx = (u(x0 + h, 1.0) - 2 * u(x0, 1.0) + u(x0 - h, 1.0)) / h**2
            res.append(abs(ut - uxx))
        assert res[1] < res[0] / 2.5  # second-order shrinkage
        assert res[1] < 5e-4


def one_sided_derivatives(u, h=0.1, deg=7):
    """Orders 0..3 at 0+ and 0- from one-sided degree-``deg`` fits."""
    offsets = np.arange(1, deg + 1) * h
    u0val = u(0.0)
    sides = []
    for sign in (1.0, -1.0):
        xs = np.concatenate([[0.0], sign * offsets])
        vals = [u0val] + [u(float(x)) for x in xs[1:]]
        coeffs = np.polyfit(xs, vals, deg)
        sides.append([np.polyval(np.polyder(coeffs, k), 0.0)
                      for k in range(4)])
    return sides


def test_smooth_gluing(heat_gaussian):
    # one-sided derivative match at x = 0 through order 3
    right, left = one_sided_derivatives(
        lambda x: evaluate_extended(heat_gaussian, x, 1.0, 1e-12)
    )
    for k in range(4):
        assert right[k] == pytest.approx(left[k], abs=1e-5)


def test_w0_images_and_te_value(heat_te):
    # zero datum: odd image; t e^-t datum: closed form x sin x
    spec0 = ProblemSpec("heat-dirichlet", u0=parse("exp(-(x-1)^2)"),
                        f0=parse("0*t"))
    assert boundary_to_initial(spec0, -1.5) == pytest.approx(
        -math.exp(-(1.5 - 1.0) ** 2), rel=1e-12
    )
    got = boundary_to_initial(heat_te, -2.0)
    want = (-2.0) * math.sin(-2.0) - heat_te.u0.eval(2.0)
    assert got == pytest.approx(want, rel=1e-12)


def test_w0_compatible_is_continuation(heat_gaussian):
    for x in (-0.4, -1.2):
        assert boundary_to_initial(heat_gaussian, x) == pytest.approx(
            reference_whole_line("gaussian-drift", x, 0.0), abs=1e-10
        )


# ---------------------------------------------------------------------------
# Neumann
# ---------------------------------------------------------------------------


def test_neumann_even_image():
    spec = ProblemSpec("heat-neumann", u0=parse("exp(-(x-1)^2)"),
                       f1=parse("0*t"))
    for x in (0.4, 1.3):
        a = evaluate_extended(spec, x, 0.5, 1e-11)
        b = evaluate_extended(spec, -x, 0.5, 1e-11)
        assert a == pytest.approx(b, abs=1e-12)


def test_neumann_slope_recovery(neumann_spec):
    t, h = 0.3, 1e-4
    u = lambda x: evaluate_extended(neumann_spec, x, t, 1e-11)
    slope = (u(-2 * h) - 8 * u(-h) + 8 * u(h) - u(2 * h)) / (12 * h)
    assert slope == pytest.approx(neumann_spec.f1.eval(t), abs=1e-9)


def test_neumann_w0_even_image():
    spec = ProblemSpec("heat-neumann", u0=parse("exp(-(x-1)^2)"),
                       f1=parse("0*t"))
    assert boundary_to_initial(spec, -0.8) == pytest.approx(
        float(spec.u0.eval(0.8)), rel=1e-12
    )


def test_coefficient_factorial_decay_bound(heat_gaussian):
    # |a_{2n}| (2n)! r^n / n! stays bounded for r inside the datum's
    # analyticity radius (bound-shape of the entire-series estimate)
    ext = taylor_coefficients(heat_gaussian, "f0", 1.0, 120)
    ratios = [
        abs(c) * math.factorial(o) * 1.0**(o // 2) / math.factorial(o // 2)
        for o, c in zip(ext.orders, ext.coeffs)
    ]
    assert max(ratios[30:]) <= max(ratios[:30]) + 1e-12


def test_outside_window_error_half_line(heat_gaussian):
    from utmcont.continuous import OutsideWindowError

    with pytest.raises(OutsideWindowError):
        evaluate_boundary_integral(heat_gaussian, "f0", -0.5, 1.0)


def test_single_layer_missed_budget_raises(monkeypatch):
    # at tol 1e-13 the row x = 1e-9 of a 41-row grid meets its budget on
    # the graded start: it is within tol of mpmath (30 digits) and keeps
    # the bits of the row alone.  Capped at 16 intervals, fewer than the
    # graded start has panels, the same grid still raises, naming the row
    spec = ProblemSpec("heat-dirichlet", u0=parse("exp(-x^2)"),
                       f0=parse("sin(3*t)", var_name="t"))
    xs = np.concatenate([[1e-9], np.linspace(0.05, 2.0, 40)])
    row = evaluate_boundary_integral(spec, "f0", xs, 1.0, 1e-13)[0]
    assert row == pytest.approx(0.14112000917431872, abs=1e-13)
    alone = evaluate_boundary_integral(spec, "f0", 1e-9, 1.0, 1e-13)
    assert row == alone

    def capped(*args, **kwargs):
        return integrate_segment(*args, **kwargs, max_intervals=16)

    monkeypatch.setattr(_common, "integrate_segment", capped)
    with pytest.raises(QuadratureError, match="dirichlet boundary row 0"):
        evaluate_boundary_integral(spec, "f0", xs, 1.0, 1e-13)


def test_capped_single_layer_names_its_subinterval_in_fractions(
        monkeypatch):
    # the single layer's quadrature variable is u/span, not a time: the
    # missed budget names its worst subinterval as fractions of the segment
    def capped(*args, **kwargs):
        return integrate_segment(*args, **kwargs, max_intervals=16)

    monkeypatch.setattr(_common, "integrate_segment", capped)
    spec = ProblemSpec("heat-dirichlet", u0=parse("exp(-x^2)"),
                       f0=parse("sin(3*t)", var_name="t"))
    xs = np.concatenate([[1e-9], np.linspace(0.05, 2.0, 40)])
    with pytest.raises(QuadratureError) as err:
        evaluate_boundary_integral(spec, "f0", xs, 1.0, 1e-13)
    assert "t in" not in str(err.value)
    lo, hi = map(float, re.search(
        r"subinterval \[(\S+), (\S+)\] in fractions of the segment",
        str(err.value)).groups())
    assert 0.0 <= lo < hi <= 1.0


_SMALL_XS = (1e-9, 1e-7, 1e-5, 1e-3)


def _sin3t_spec(kind):
    """A spec of ``kind`` whose boundary datum is sin 3t, and its name."""
    datum = "f1" if kind == "heat-neumann" else "f0"
    u0 = "exp(-x)" if kind == "kdv-one-bc" else "exp(-x^2)"
    return ProblemSpec(kind, u0=parse(u0),
                       **{datum: parse("sin(3*t)", var_name="t")}), datum


def _small_x_references(kind, t):
    """mpmath values (20 digits) of the boundary part of ``kind`` with datum
    sin 3s at each x of _SMALL_XS.  Dirichlet and KdV are the integrals
    over w >= w0 of sin(3t(1 - (w0/w)^q)) times (2/sqrt(pi)) e^{-w^2}
    (q = 2, w0 = x/(2 sqrt t)) or 3 Ai(w) (q = 3, w0 = x/(3t)^{1/3});
    Neumann is -(2/sqrt(pi)) int_0^{sqrt t} sin(3(t - s^2)) e^{-(x/2s)^2}
    ds.  Each is split at its row scale (w0, or x/2) times 10^k.  The x
    are 100 apart, so their splits coincide, and Ai is read once a node."""
    with mp.workdps(20):
        t = mp.mpf(t)
        x_min = mp.mpf(10) ** -9
        if kind == "heat-neumann":
            scale, upper = x_min / 2, mp.sqrt(t)
        elif kind == "heat-dirichlet":
            scale, upper = x_min / (2 * mp.sqrt(t)), mp.mpf(8)
        else:
            scale, upper = x_min / mp.cbrt(3 * t), mp.mpf(12)
        splits = [scale]
        while splits[-1] * 10 < upper:
            splits.append(splits[-1] * 10)
        airy = {}

        def ai(w):
            if w not in airy:
                airy[w] = mp.airyai(w)
            return airy[w]

        out = []
        for j in range(len(_SMALL_XS)):
            w0 = splits[2 * j]
            points = splits[2 * j:] + [upper]
            if kind == "heat-neumann":
                value = -2 / mp.sqrt(mp.pi) * mp.quad(
                    lambda s: mp.sin(3 * (t - s * s)) * mp.exp(-(w0 / s) ** 2),
                    [0] + points)
            elif kind == "heat-dirichlet":
                value = 2 / mp.sqrt(mp.pi) * mp.quad(
                    lambda w: mp.sin(3 * t * (1 - (w0 / w) ** 2))
                    * mp.exp(-w * w), points)
            else:
                value = 3 * mp.quad(
                    lambda w: mp.sin(3 * t * (1 - (w0 / w) ** 3)) * ai(w),
                    points)
            out.append(float(value))
        return out


@pytest.mark.parametrize("t", [0.1, 1.0])
@pytest.mark.parametrize("kind", ["heat-dirichlet", "heat-neumann",
                                  "kdv-one-bc"])
def test_boundary_part_at_small_x_meets_tol_against_mpmath(kind, t):
    # the rows' layers (w <= 2 w0, or sigma <= x) start resolved on panels
    # graded from the smallest row scale; from one starting interval the
    # nodes missed the layer at x <= 1e-7, and the rows came back 1e-9 to
    # 1.2e-7 off with no warning
    spec, datum = _sin3t_spec(kind)
    grid = np.linspace(0.05, 2.0, 40)
    for x, ref in zip(_SMALL_XS, _small_x_references(kind, t)):
        alone = evaluate_boundary_integral(spec, datum, x, t, 1e-10)
        row = evaluate_boundary_integral(
            spec, datum, np.concatenate([[x], grid]), t, 1e-10)[0]
        assert alone == pytest.approx(ref, abs=1e-10), x
        assert row == pytest.approx(ref, abs=1e-10), x


@pytest.mark.parametrize("kind", ["heat-dirichlet", "heat-neumann",
                                  "kdv-one-bc"])
def test_boundary_part_at_vanishing_x_is_its_limit(kind):
    # the graded start stops at eps times the segment: from the row scale
    # itself it took 1,000 panels at x = 1e-300, its Neumann nodes squared
    # to 0 (a NaN row at x = 1e-200), and x = 5e-324 never ended
    spec, datum = _sin3t_spec(kind)
    xs = np.array([0.0, 1e-30, 1e-200, 5e-324, 0.5])
    got = evaluate_boundary_integral(spec, datum, xs, 1.0, 1e-10)
    np.testing.assert_allclose(got[1:4], got[0], rtol=0, atol=1e-10)


@pytest.mark.parametrize("kind,xs,bound", [
    ("heat-dirichlet", np.linspace(0.25, 4.0, 16), 210),
    ("heat-neumann", np.linspace(0.25, 4.0, 16), 180),
    ("kdv-one-bc", np.linspace(0.25, 4.0, 16), 255),
    ("heat-dirichlet", np.concatenate([[1e-7], np.linspace(0.05, 2.0, 40)]),
     405),
], ids=["heat-dirichlet", "heat-neumann", "kdv-one-bc",
        "heat-dirichlet-small-x"])
def test_boundary_layer_quadrature_evaluation_count(monkeypatch, kind, xs,
                                                    bound):
    # a noise-free cost guard: integrand evaluations of the one boundary
    # quadrature at t = 1, tol 1e-10.  From one starting interval they were
    # 285, 225, 375 and 34,935
    counts = []

    def counting(*args, **kwargs):
        res = integrate_segment(*args, **kwargs)
        counts.append(res.evaluations)
        return res

    monkeypatch.setattr(_common, "integrate_segment", counting)
    monkeypatch.setattr(heat, "integrate_segment", counting)
    spec, datum = _sin3t_spec(kind)
    evaluate_boundary_integral(spec, datum, xs, 1.0, 1e-10)
    assert len(counts) == 1 and counts[0] <= bound


@pytest.mark.parametrize("kind,label,xs", [
    ("heat-dirichlet", "dirichlet boundary row 1", [100.0, 0.5]),
    ("kdv-one-bc", "kdv1 boundary row 1", [100.0, 0.5]),
    ("heat-finite-interval", "far images row 0", [0.5, 1.0]),
], ids=["heat-dirichlet", "kdv-one-bc", "finite-interval-far-images"])
def test_layer_potential_missed_budget_raises_in_every_caller(
        monkeypatch, kind, label, xs):
    # the graded starting panels alone, with no bisection, miss every row's
    # budget except where the kernel has underflowed (x = 100); the error
    # names the row and the caller.  The
    # finite interval's nearest images are single layers too, so they are
    # replaced by zeros to reach its far-image rule
    def capped(*args, **kwargs):
        return integrate_segment(*args, **kwargs, max_intervals=1)

    monkeypatch.setattr(_common, "integrate_segment", capped)
    monkeypatch.setattr(finite_interval, "single_layer",
                        lambda f0, d, t, tol: np.zeros(d.shape))
    right = ({"g0": parse("t", var_name="t"), "L": 1.0}
             if kind == "heat-finite-interval" else {})
    spec = ProblemSpec(kind, u0=parse("exp(-x^2)"),
                       f0=parse("sin(3*t)", var_name="t"), **right)
    with pytest.raises(QuadratureError, match=f"{label}: tolerance"):
        evaluate_boundary_integral(spec, "f0", np.array(xs), 1.0, 1e-10)


@pytest.mark.parametrize("kind", ["heat-dirichlet", "kdv-one-bc"])
def test_layer_potential_refuses_a_non_finite_datum(kind):
    # f0 = sqrt(t - 0.5) is NaN on [0, 0.5) of [0, t]: every layer
    # potential reads it through the checked eval
    spec = ProblemSpec(kind, u0=parse("exp(-x^2)"),
                       f0=parse("sqrt(t-0.5)", var_name="t"))
    with pytest.raises(ExprDomainError, match="non-finite"):
        evaluate_boundary_integral(spec, "f0", np.array([0.5, 1.0]), 1.0)
