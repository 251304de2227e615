"""Linear KdV (one and two boundary conditions): recovery, coefficients,
structural zeros, blow-up, boundary-to-initial maps."""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate, special

from conftest import taylor_sum
from utmcont.expr import ExprDomainError, parse
from utmcont.quad import QuadratureError, integrate_segment
from utmcont.continuous import (
    DecayClassError,
    IncompatibleDataError,
    ProblemSpec,
    boundary_to_initial,
    evaluate_boundary_integral,
    evaluate_extended,
    evaluate_I0,
    reference_whole_line,
    taylor_coefficients,
)
from utmcont.continuous import _common, kdv
from utmcont.continuous._common import datum_ladder, doubled_series
from test_exact_families import KDV_FAMILIES, KDV_TOL, _kdv_spec, accepted_rows


def _tilde_at_zero(spec, x):
    """Small-time limit of the doubled series, 3 sum (-1)^m x^{3m}
    f0^(m)(0) / (3m)!."""
    return doubled_series(datum_ladder(spec, "f0", "cubic", 0.0),
                          np.array([x]), 1e-12, factor=3.0)[0]


def test_one_bc_recovery(kdv1_cos):
    for x in (-2.0, -1.0, -0.4, 0.0, 0.6, 1.5, 3.0):
        ua = evaluate_extended(kdv1_cos, x, 1.0, 1e-9)
        ur = reference_whole_line("kdv-decaying-cos", x, 1.0)
        assert ua == pytest.approx(ur, abs=1e-6)


def test_one_bc_extension_example(kdv1_cos):
    # u_ac(-0.5, 1) = 2 e^{-1.5} cos(-2.5)
    want = 2 * math.exp(-1.5) * math.cos(-2.5)
    assert evaluate_extended(kdv1_cos, -0.5, 1.0, 1e-9) == pytest.approx(
        want, abs=1e-8
    )


def test_one_bc_boundary_recovery(kdv1_cos):
    for t in (0.1, 0.5, 1.0):
        assert evaluate_extended(kdv1_cos, 0.0, t, 1e-9) == pytest.approx(
            float(kdv1_cos.f0.eval(t)), abs=1e-8
        )


def test_one_bc_airy_limit(kdv1_cos):
    # x -> 0+ of the Airy convolution recovers the datum
    t = 0.7
    val = evaluate_boundary_integral(kdv1_cos, "f0", 1e-7, t, 1e-11)
    assert val == pytest.approx(float(kdv1_cos.f0.eval(t)), abs=1e-6)


def test_one_bc_tilde_small_time_closed_form(kdv1_te):
    # f0 = t e^-t: tilde at t -> 0+ has the closed exponential-sine form
    for x in np.linspace(-3.0, 1.0, 17):
        got = _tilde_at_zero(kdv1_te, float(x))
        want = -x * math.exp(x) / 3.0 + (2.0 / 3.0) * x * math.exp(-x / 2) * \
            math.sin(math.sqrt(3) * x / 2 + math.pi / 6)
        assert got == pytest.approx(want, abs=1e-8)


def test_one_bc_w0(kdv1_cos, kdv1_te):
    # compatible trace data continue u0 across the boundary
    for x in (-0.5, -1.5):
        got = boundary_to_initial(kdv1_cos, x)
        want = reference_whole_line("kdv-decaying-cos", x, 0.0)
        assert got == pytest.approx(want, abs=1e-8)
    # rotated-argument structure for the te^-t datum
    x = -1.0
    alpha = kdv.ALPHA
    rotated = 2.0 * np.real(kdv1_te.u0.eval_complex(alpha * x))
    want = _tilde_at_zero(kdv1_te, x) - float(rotated)
    assert boundary_to_initial(kdv1_te, x) == pytest.approx(want, rel=1e-12)


def test_one_bc_rejects_branchy_initial_data():
    spec = ProblemSpec("kdv-one-bc", u0=parse("exp(-x)*sqrt(x+4)"),
                       f0=parse("t"), u0_decay=("exponential", 1.0))
    with pytest.raises(Exception):
        boundary_to_initial(spec, -0.5)


def test_one_bc_requires_decay():
    slow = ProblemSpec("kdv-one-bc", u0=parse("1/(1+x)^2"), f0=parse("t"))
    with pytest.raises(DecayClassError):
        evaluate_I0(slow, 0.5, 1.0)


def test_one_bc_i0_refuses_a_lost_row(fresh_spec):
    # At x = -2, t = 1e-3 the alpha term of the Airy kernel grows like
    # e^{C|x| sqrt(y)/tau^{3/2}} faster than u0 decays: the data rule ends
    # with terms of ~1e62, and the sum it would return is off by ~1e90
    spec = fresh_spec("kdv-one-bc")
    with pytest.raises(QuadratureError, match=r"x = -2: last-panel term"):
        evaluate_I0(spec, -2.0, 1e-3, 1e-9)


def _kernel(kind, x, y, t):
    """The Airy kernel of each KdV i0 at one (x, y), from scipy alone."""
    tau = (3.0 * t) ** (1.0 / 3.0)
    a, b = ((x - y) / tau, (x - kdv.ALPHA * y) / tau) if kind == "kdv-one-bc" \
        else ((y - x) / tau, (y - kdv.ALPHA * x) / tau)
    return (special.airy(a)[0]
            + 2.0 * (kdv.ALPHA * special.airy(b)[0]).real) / tau


_U0 = {"kdv-one-bc": lambda y: 2.0 * math.exp(-y) * math.cos(y),
       "kdv-two-bc": lambda y: 2.0 * math.exp(-math.sqrt(3.0) * y)
       * math.cos(y)}


@pytest.mark.parametrize("kind", ["kdv-one-bc", "kdv-two-bc"])
def test_i0_matches_the_exact_integral_over_y(fresh_spec, kind):
    # The exact u0 against the Airy kernel by adaptive quadrature in y on
    # unit intervals to y = 60: no node of the data rule, and no truncation
    # where the rule ends (y = 34.5).  The contour this closed form
    # replaced was 1.4e-6 off at t = 0.1, x = -1.
    spec = fresh_spec(kind)
    xs = np.array([-1.0, 0.0, 0.5, 2.0])
    for t in (0.1, 0.5, 1.0):
        want = []
        for x in xs:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", integrate.IntegrationWarning)
                want.append(sum(integrate.quad(
                    lambda y: _U0[kind](y) * _kernel(kind, x, y, t), a, a + 1,
                    epsabs=1e-16, epsrel=1e-14, limit=200)[0]
                    for a in range(60)))
        np.testing.assert_allclose(evaluate_I0(spec, xs, t), want, rtol=0,
                                   atol=1e-12)


def test_one_bc_i0_matches_mpmath_at_one_point(fresh_spec):
    # the K_{1/3} Airy kernel against mpmath's Ai at 20 digits, through the
    # whole y-integral at one (x, t) where the alpha term carries weight
    mpmath = pytest.importorskip("mpmath")
    x, t = -1.0, 0.5
    with mpmath.workdps(20):
        tau = mpmath.cbrt(3 * mpmath.mpf(t))
        alpha = mpmath.exp(2j * mpmath.pi / 3)
        want = mpmath.quad(
            lambda y: 2 * mpmath.exp(-y) * mpmath.cos(y) * (
                mpmath.airyai((x - y) / tau)
                + 2 * mpmath.re(alpha * mpmath.airyai((x - alpha * y) / tau))
            ) / tau, mpmath.linspace(0, 40, 9))
    assert evaluate_I0(fresh_spec("kdv-one-bc"), x, t) == pytest.approx(
        float(want), rel=0, abs=1e-13)


def _rotated_arguments(t):
    """The rotated Airy arguments (x - alpha y)/tau and (y - alpha x)/tau
    of both kinds' alpha terms, x in [-2, 3], y in (0, 40]."""
    tau = (3.0 * t) ** (1.0 / 3.0)
    x = np.linspace(-2.0, 3.0, 26)[:, None]
    y = np.linspace(0.0, 40.0, 161)[1:]
    return np.concatenate([((x - kdv.ALPHA * y) / tau).ravel(),
                           ((y - kdv.ALPHA * x) / tau).ravel()])


@pytest.mark.parametrize("t", [1e-3, 1e-2, 0.1, 1.0])
def test_rotated_airy_kernel_matches_mpmath_and_airy(t):
    mpmath = pytest.importorskip("mpmath")
    z = _rotated_arguments(t)
    got, airy = kdv._airy(z), special.airy(z)[0]
    assert np.array_equal(np.isfinite(got), np.isfinite(airy))
    small = np.abs(z) <= 30.0
    np.testing.assert_allclose(got[small], airy[small], rtol=1e-13, atol=0)
    # 120 random arguments, and the 12 nearest |arg z| = 2 pi/3 on each
    # side, where the connection formula takes over
    edge = np.abs(np.angle(z)) - 2.0 * math.pi / 3.0
    inside, past = np.flatnonzero(edge < 0), np.flatnonzero(edge >= 0)
    picks = np.concatenate([
        np.random.default_rng(1).choice(z.size, 120, replace=False),
        inside[np.argsort(-edge[inside])[:12]],
        past[np.argsort(edge[past])[:12]]])
    assert past.size >= 12
    checked = 0
    with mpmath.workdps(30):
        for i in picks:
            want = mpmath.airyai(mpmath.mpc(z[i].real, z[i].imag))
            if not 1e-290 < abs(want) < 1e300:
                continue
            bound = max(2e-13, 4 * np.finfo(float).eps * abs(z[i]) ** 1.5)
            assert abs(mpmath.mpc(got[i]) - want) <= bound * abs(want), z[i]
            checked += 1
    assert checked >= 100


def test_rotated_airy_kernel_at_the_extremes():
    # near z = 0, where zeta underflows, and on rings where Ai under- and
    # overflows: non-finite wherever airy is, and finite wherever airy is
    # finite and nonzero.  Just below overflow (|Ai| ~ 1e302) airy returns
    # 0 and the kernel NaN, which the i0 guard refuses.
    theta = np.linspace(-math.pi, math.pi, 721)
    for r in (0.0, 1e-300, 1e-120, 1e-20):
        z = r * np.exp(1j * theta)
        np.testing.assert_allclose(kdv._airy(z), special.airy(z)[0],
                                   rtol=1e-13, atol=0)
    for r in (200.0, 1000.0):
        z = r * np.exp(1j * theta)
        with np.errstate(all="ignore"):
            got, airy = kdv._airy(z), special.airy(z)[0]
        assert not np.isfinite(got[~np.isfinite(airy)]).any()
        assert np.isfinite(got[np.isfinite(airy) & (airy != 0)]).all()


def test_real_airy_matches_mpmath_across_its_bands():
    # the three bands of the real Ai (airy on |x| <= 2, a real K_{1/3}
    # beyond 2, an imaginary one below -2), on a grid of [-60, 60] and on
    # both sides of x = +-2, within rounding of Ai's envelope |x|^{-1/4},
    # times e^{-(2/3) x^{3/2}} for x > 0
    mpmath = pytest.importorskip("mpmath")
    steps = np.array([1e-12, 1e-6, 1e-3, 0.05])
    x = np.concatenate([np.linspace(-60.0, 60.0, 400), 2.0 + steps,
                        2.0 - steps, -2.0 + steps, -2.0 - steps])
    got = kdv._real_airy(x)
    eps = np.finfo(float).eps
    with mpmath.workdps(30):
        for xi, gi in zip(x, got):
            envelope = abs(xi) ** -0.25 * math.exp(
                -(2.0 / 3.0) * max(xi, 0.0) ** 1.5)
            bound = max(2e-13, 4 * eps * abs(xi) ** 1.5) * envelope
            assert abs(mpmath.mpf(gi) - mpmath.airyai(xi)) <= bound, xi


def test_real_airy_at_the_extremes():
    nan_in = np.array([math.nan, math.inf, -math.inf])
    assert np.isnan(special.airy(nan_in)[0]).all()
    assert np.isnan(kdv._real_airy(nan_in)).all()
    # Ai(104) is 1e-307 in the subnormal range: from there on it is 0
    assert (kdv._real_airy(np.array([104.0, 110.0, 1e3, 1e10,
                                     1e300])) == 0).all()
    near = np.array([0.0, 1e-300, -1e-300])
    np.testing.assert_allclose(kdv._real_airy(near), special.airy(near)[0],
                               rtol=1e-15, atol=0)


@pytest.mark.parametrize("kind", ["kdv-one-bc", "kdv-two-bc"])
def test_i0_guard_and_values_keep_to_scipy_airy(kind, monkeypatch):
    # the guard accepts the same rows of the exact-family grid whether Ai is
    # K_{1/3} (rotated and real) or scipy's airy, and the values agree within
    # the panel-halving scale
    spec = _kdv_spec(kind)
    xs = KDV_FAMILIES[kind][2]
    for t in (1e-3, 1e-2, 0.1, 1.0):
        rows = accepted_rows(spec, xs, t)
        base = evaluate_I0(spec, rows, t, KDV_TOL)
        with monkeypatch.context() as patch:
            patch.setattr(kdv, "_airy", lambda z: special.airy(z)[0])
            patch.setattr(kdv, "_real_airy", lambda x: special.airy(x)[0])
            assert np.array_equal(accepted_rows(spec, xs, t), rows)
            airy = evaluate_I0(spec, rows, t, KDV_TOL)
        assert np.all(np.abs(airy - base)
                      <= 1e-12 * np.maximum(1.0, np.abs(base)))


@pytest.mark.parametrize("kind", ["kdv-one-bc", "kdv-two-bc"])
def test_i0_moves_by_rounding_when_every_panel_halves(fresh_spec, kind,
                                                      monkeypatch):
    xs = np.linspace(-2.0, 3.0, 21)
    for t in (1e-3, 1e-2, 0.1, 1.0):
        rows = accepted_rows(fresh_spec(kind), xs, t, 1e-10)
        assert rows.size >= 9
        base = evaluate_I0(fresh_spec(kind), rows, t)
        with monkeypatch.context() as patch:
            real = _common.gauss_panels
            patch.setattr(_common, "gauss_panels", lambda edges, order: real(
                np.sort(np.concatenate([edges, (edges[1:] + edges[:-1]) / 2])),
                order))
            halved = evaluate_I0(fresh_spec(kind), rows, t)
        # within the guard's own scale, 1e-12 max(1, |i0|): behind the
        # boundary at small t the two-condition i0 reaches 1e14
        assert np.all(np.abs(halved - base)
                      <= 1e-12 * np.maximum(1.0, np.abs(base)))


def test_one_bc_i0_vanishes_at_the_boundary(fresh_spec):
    # Ai(z) + alpha Ai(alpha z) + alpha^2 Ai(alpha^2 z) = 0 term by term
    spec = fresh_spec("kdv-one-bc")
    for t in (1e-3, 1e-2, 0.1, 1.0, 2.0):
        assert abs(evaluate_I0(spec, 0.0, t)) <= 1e-14


def test_one_bc_i0_refuses_only_rows_its_rule_cannot_resolve(fresh_spec):
    # against the y-integral run on to y = 100, the rule (which ends at
    # y = 34.5) is 1.5e-9 off at t = 0.1, x = -2 and 5e8 off at t = 1e-2,
    # x = -2; the rows it keeps are within 6e-11 at tol 1e-9
    spec = fresh_spec("kdv-one-bc")
    xs = np.array([-2.0, -1.0, -0.5, -0.25, 0.0, 1.0])
    assert accepted_rows(spec, xs, 1e-3).tolist() == [0.0, 1.0]
    assert accepted_rows(spec, xs, 1e-2).tolist() == [-0.5, -0.25, 0.0, 1.0]
    assert accepted_rows(spec, xs, 0.1).tolist() == xs[1:].tolist()
    assert accepted_rows(spec, xs, 1.0).tolist() == xs.tolist()


def test_one_bc_coefficient_families(kdv1_cos):
    # a_0(t) = f0(t); a_3(t) = -f0'(t)/3!
    t = 1.0
    cache = kdv1_cos.deriv("f0")
    assert kdv.kdv1_coefficient(kdv1_cos, 0, t, 1e-11) == pytest.approx(
        cache.value(0, t), rel=1e-12
    )
    assert kdv.kdv1_coefficient(kdv1_cos, 3, t, 1e-11) == pytest.approx(
        -cache.value(1, t) / 6.0, rel=1e-12
    )


def test_one_bc_full_series_matches_airy_kernel(kdv1_cos):
    # all three coefficient families against the Airy-kernel convolution
    t = 1.0
    ext = taylor_coefficients(kdv1_cos, "f0", t, 30, parity="all")
    for x in (0.2, 0.6, 1.0):
        series = taylor_sum(ext, x)
        kernel = evaluate_boundary_integral(kdv1_cos, "f0", x, t, 1e-11)
        assert series == pytest.approx(kernel, abs=1e-8)


# ---------------------------------------------------------------------------
# two boundary conditions
# ---------------------------------------------------------------------------


def test_two_bc_recovery(kdv2_cos):
    for x in (-1.0, -0.6, -0.2, 0.0, 0.4, 1.0, 2.0):
        ua = evaluate_extended(kdv2_cos, x, 1.0, 1e-9)
        ur = reference_whole_line("kdv2-exp-cos", x, 1.0)
        assert ua == pytest.approx(ur, abs=1e-4)


def test_two_bc_boundary_recovery(kdv2_cos):
    for t in (0.1, 0.5, 1.0):
        assert evaluate_extended(kdv2_cos, 0.0, t, 1e-9) == pytest.approx(
            float(kdv2_cos.f0.eval(t)), abs=1e-7
        )


def test_two_bc_structural_zeros(kdv2_cos):
    for n in range(1, 11):
        assert kdv.kdv2_coefficient(kdv2_cos, "f0", 3 * n - 2, 1.0,
                                     1e-11) == 0.0
    for n in range(0, 11):
        assert kdv.kdv2_coefficient(kdv2_cos, "f1", 3 * n, 1.0, 1e-11) == 0.0


def test_two_bc_explicit_families(kdv2_cos):
    t = 0.8
    f0c = kdv2_cos.deriv("f0")
    f1c = kdv2_cos.deriv("f1")
    assert kdv.kdv2_coefficient(kdv2_cos, "f0", 0, t, 1e-11) == pytest.approx(
        f0c.value(0, t), rel=1e-12
    )
    assert kdv.kdv2_coefficient(kdv2_cos, "f0", 6, t, 1e-11) == pytest.approx(
        f0c.value(2, t) / math.factorial(6), rel=1e-12
    )
    assert kdv.kdv2_coefficient(kdv2_cos, "f1", 7, t, 1e-11) == pytest.approx(
        f1c.value(2, t) / math.factorial(7), rel=1e-12
    )


def test_two_bc_series_matches_boundary_integrals(kdv2_cos):
    # full a- and b-series against the integration-by-parts evaluation
    t = 1.0
    ext0 = taylor_coefficients(kdv2_cos, "f0", t, 24, parity="all")
    ext1 = taylor_coefficients(kdv2_cos, "f1", t, 24, parity="all")
    for x in (0.2, 0.5):
        i_f0 = evaluate_boundary_integral(kdv2_cos, "f0", x, t, 1e-10)
        i_f1 = evaluate_boundary_integral(kdv2_cos, "f1", x, t, 1e-10)
        assert taylor_sum(ext0, x) == pytest.approx(i_f0, abs=1e-7)
        assert taylor_sum(ext1, x) == pytest.approx(i_f1, abs=1e-7)


def test_two_bc_corner_terms_raise_on_a_missed_budget(monkeypatch):
    # four intervals leave the corner-term rows over budget, which raise
    # naming the part instead of returning values 5e-10 off
    def capped(*args, **kwargs):
        return integrate_segment(*args, **kwargs, max_intervals=4)

    monkeypatch.setattr(kdv, "integrate_segment", capped)
    spec = ProblemSpec("kdv-two-bc", u0=parse("exp(-x)"),
                       f0=parse("exp(-t)*cos(t)", var_name="t"),
                       f1=parse("sin(t)", var_name="t"))
    with pytest.raises(QuadratureError,
                       match=r"kdv2 f0 boundary row \d: tolerance"):
        evaluate_boundary_integral(spec, "f0", np.array([0.5, 1.0, 2.0]),
                                   1.0, 1e-10)


@pytest.mark.parametrize("which", ["f0", "f1"])
def test_two_bc_boundary_raises_where_a_derivative_is_not_finite(which):
    # the growth rate of the datum's derivatives at t = 0 reads the first
    # derivative of sqrt(t) there
    data = {"f0": parse("cos(t)"), "f1": parse("cos(t)"),
            which: parse("sqrt(t)")}
    spec = ProblemSpec("kdv-two-bc", u0=parse("2*exp(-sqrt(3)*x)*cos(x)"),
                       **data)
    with pytest.raises(ExprDomainError):
        evaluate_boundary_integral(spec, which, 0.5, 1.0)


def test_two_bc_incompatible_blowup(kdv2_zero_data):
    v_coarse = evaluate_extended(kdv2_zero_data, -1.0, 1e-1, 1e-9)
    v_fine = evaluate_extended(kdv2_zero_data, -1.0, 1e-2, 1e-9)
    assert abs(v_fine) > 10.0 * abs(v_coarse)


def test_two_bc_w0_refusal(kdv2_zero_data):
    with pytest.raises(IncompatibleDataError):
        boundary_to_initial(kdv2_zero_data, -0.5)


def test_two_bc_w0_compatible(kdv2_cos):
    for x in (-0.4, 0.9):
        assert boundary_to_initial(kdv2_cos, x) == pytest.approx(
            reference_whole_line("kdv2-exp-cos", x, 0.0), rel=1e-10
        )


def test_smooth_gluing_both_kinds(kdv1_cos, kdv2_cos):
    from test_heat import one_sided_derivatives

    right, left = one_sided_derivatives(
        lambda x: evaluate_extended(kdv1_cos, x, 1.0, 1e-11), h=0.06
    )
    for k in range(4):
        assert right[k] == pytest.approx(left[k], abs=1e-5)
    # the two-condition case carries large derivative scales (|u'''| ~ 16,
    # datum frequency 8); the tight stencil needs tight evaluations
    right, left = one_sided_derivatives(
        lambda x: evaluate_extended(kdv2_cos, x, 1.0, 1e-12), h=0.04, deg=8
    )
    for k in range(4):
        assert right[k] == pytest.approx(left[k], abs=1e-5)


def test_pde_residual_one_bc(kdv1_cos):
    # u_t + u_xxx -> 0 at the stencil order, both sides of the boundary
    u = lambda x, t: evaluate_extended(kdv1_cos, x, t, 1e-10)
    c7 = (1 / 8, -1.0, 13 / 8, 0.0, -13 / 8, 1.0, -1 / 8)
    for x0 in (0.8, -0.8):
        res = []
        for h in (0.12, 0.06):
            uxxx = sum(ci * u(x0 + (i - 3) * h, 1.0)
                       for i, ci in enumerate(c7)) / h**3
            ut = (u(x0, 1.0 + 1e-4) - u(x0, 1.0 - 1e-4)) / 2e-4
            res.append(abs(ut + uxxx))
        assert res[1] < res[0] / 3.0 or res[1] < 1e-6
        assert res[1] < 2e-3


def test_two_bc_structural_zero_storage(kdv2_cos):
    ext0 = taylor_coefficients(kdv2_cos, "f0", 1.0, 20, parity="even")
    assert 4 not in ext0.orders and 10 not in ext0.orders and 16 not in ext0.orders
    ext1 = taylor_coefficients(kdv2_cos, "f1", 1.0, 20, parity="odd")
    assert 3 not in ext1.orders and 9 not in ext1.orders and 15 not in ext1.orders


@pytest.mark.parametrize("which, zeros, parity, doubled", [
    ("f0", [1, 4, 7], "even", [0, 2, 6, 8]),
    ("f1", [0, 3, 6], "odd", [1, 5, 7]),
])
def test_two_bc_all_series_carries_its_structural_zeros(kdv2_cos, which,
                                                        zeros, parity,
                                                        doubled):
    # the "all" series carries every order, exact 0.0 at 3m - 2 (f0) or
    # 3m (f1); the doubled sub-series omits them
    full = taylor_coefficients(kdv2_cos, which, 1.0, 8, parity="all")
    assert full.orders == list(range(9))
    assert [o for o, c in zip(full.orders, full.coeffs) if c == 0.0] == zeros
    assert all(type(full.coeffs[o]) is float for o in zeros)
    half = taylor_coefficients(kdv2_cos, which, 1.0, 8, parity=parity)
    assert half.orders == doubled
    assert all(c != 0.0 for c in half.coeffs)
