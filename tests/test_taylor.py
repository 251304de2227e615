"""Taylor data and native windows across the continuous kinds: values that
do not depend on earlier calls, the order cap, and window errors."""

import math

import numpy as np
import pytest

from conftest import taylor_sum
from utmcont.continuous import (
    OutsideWindowError,
    ProblemSpec,
    _common,
    boundary_to_initial,
    evaluate_boundary_integral,
    evaluate_extended,
    taylor_coefficients,
)
from utmcont.expr import MAX_DERIVATIVE_ORDER, ExprDomainError, parse
from utmcont.quad import QuadratureError


def test_coefficients_do_not_depend_on_an_earlier_tol(fresh_spec):
    used = fresh_spec("kdv-two-bc")
    taylor_coefficients(used, "f0", 1.0, 40, tol=1e-2)
    got = taylor_coefficients(used, "f0", 1.0, 40, tol=1e-12)
    want = taylor_coefficients(fresh_spec("kdv-two-bc"), "f0", 1.0, 40,
                               tol=1e-12)
    assert got.orders == want.orders
    assert got.coeffs == want.coeffs


_FAMILIES = {
    "heat-dirichlet": (("f0", "even"), ("f0", "all")),
    "heat-neumann": (("f1", "odd"),),
    "advected-heat": (("f0", "even"), ("f0", "all")),
    "kdv-one-bc": (("f0", "even"), ("f0", "all")),
    "kdv-two-bc": (("f0", "even"), ("f1", "odd"), ("f1", "all")),
    "heat-finite-interval": (("f0", "even"), ("g0", "even"),
                             ("f0", "odd-center")),
}


@pytest.mark.parametrize("kind", sorted(_FAMILIES))
def test_reused_spec_gives_the_bytes_of_fresh_ones(fresh_spec, kind):
    # one spec solved at t1, t2, t1, asked for Taylor data at two tols and
    # mapped to t = 0 twice: each result has the bytes of a fresh spec's
    xs = np.linspace(-1.5, 2.5, 9)
    used = fresh_spec(kind)
    for t in (0.5, 1.0, 0.5):
        assert (evaluate_extended(used, xs, t).tobytes()
                == evaluate_extended(fresh_spec(kind), xs, t).tobytes())
    for which, parity in _FAMILIES[kind]:
        for tol in (1e-8, 1e-11):
            got, want = (taylor_coefficients(spec, which, 0.5, 24, tol,
                                             parity=parity)
                         for spec in (used, fresh_spec(kind)))
            assert got.orders == want.orders
            assert (np.array(got.coeffs).tobytes()
                    == np.array(want.coeffs).tobytes())
    want = boundary_to_initial(fresh_spec(kind), xs).tobytes()
    for _ in range(2):
        assert boundary_to_initial(used, xs).tobytes() == want


@pytest.mark.parametrize("kind,which,parity", [
    ("heat-dirichlet", "f0", "all"),
    ("advected-heat", "f0", "even"),
    ("advected-heat", "f0", "all"),
    ("kdv-one-bc", "f0", "even"),
    ("kdv-one-bc", "f0", "all"),
    ("kdv-two-bc", "f0", "even"),
    ("kdv-two-bc", "f1", "odd"),
    ("kdv-two-bc", "f0", "all"),
    ("kdv-two-bc", "f1", "all"),
])
def test_fractional_coefficients_do_not_depend_on_n(fresh_spec, kind, which,
                                                    parity):
    # the fractional orders come in fixed blocks: a request for N = 41 or
    # 200, on a fresh spec or after one for another N, computes the same
    # blocks as one for N = 168
    t = 0.9
    base = taylor_coefficients(fresh_spec(kind), which, t, 168,
                               parity=parity)
    want = dict(zip(base.orders, base.coeffs))
    used = fresh_spec(kind)
    taylor_coefficients(used, which, t, 41, parity=parity)
    for spec, n in ((fresh_spec(kind), 41), (fresh_spec(kind), 200),
                    (used, 200)):
        ext = taylor_coefficients(spec, which, t, n, parity=parity)
        got = {o: c for o, c in zip(ext.orders, ext.coeffs) if o <= 168}
        assert got == {o: c for o, c in want.items() if o <= n}


def test_fractional_orders_share_time_convolutions(fresh_spec, monkeypatch):
    # 84 odd orders to 167, in blocks of 16 orders: 6 vector convolutions
    calls = []
    convolve = _common.singular_time_convolution
    monkeypatch.setattr(_common, "singular_time_convolution",
                        lambda *a, **k: calls.append(a) or convolve(*a, **k))
    taylor_coefficients(fresh_spec("heat-dirichlet"), "f0", 1.0, 168,
                        parity="all")
    assert 0 < len(calls) <= 6


def test_kdv1_even_and_all_ladders_share_blocks(monkeypatch):
    # the even ladder reads beta = 1/3 at even m and beta = 2/3 at odd m:
    # to N = 168 it makes 8 vector convolutions of whole blocks (m <= 56,
    # four blocks per beta), the "all" ladder that follows on the same spec
    # reads the same blocks and makes none, and the even coefficients have
    # the bits of the full series' even orders
    rows = []
    convolve = _common.singular_time_convolution

    def counting(beta, smooth, t, tol):
        res = convolve(beta, smooth, t, tol)
        rows.append(len(res.value))
        return res

    monkeypatch.setattr(_common, "singular_time_convolution", counting)
    spec = ProblemSpec("kdv-one-bc", **{
        key: parse(value) if isinstance(value, str) else value
        for key, value in _BENCHMARK_TAYLOR_DATA["kdv-one-bc"].items()})
    even = taylor_coefficients(spec, "f0", 1.0, 168, parity="even")
    assert rows == [16] * 8
    rows.clear()
    full = taylor_coefficients(spec, "f0", 1.0, 168, parity="all")
    assert rows == []
    kept = dict(zip(full.orders, full.coeffs))
    assert even.orders == list(range(0, 169, 2))
    assert (np.array(even.coeffs).tobytes()
            == np.array([kept[o] for o in even.orders]).tobytes())


_BENCHMARK_TAYLOR_DATA = {
    "heat-dirichlet": dict(u0="exp(-(x-1)^2)", f0="t*exp(-t)"),
    "kdv-one-bc": dict(u0="2*exp(-x)*cos(x)", f0="t*exp(-t)",
                       u0_decay=("exponential", 1.0)),
    "kdv-two-bc": dict(u0="2*exp(-sqrt(3)*x)*cos(x)", f0="t*exp(-t)",
                       f1="-2*sqrt(3)*cos(8*t) - 2*sin(8*t)"),
}


@pytest.mark.parametrize("kind,which", [
    ("heat-dirichlet", "f0"), ("kdv-one-bc", "f0"), ("kdv-two-bc", "f0"),
    ("kdv-two-bc", "f1")])
def test_fractional_blocks_read_their_jets_once(monkeypatch, kind, which):
    # every block of the data of the Taylor benchmark meets its budget on
    # the starting panels of the time convolution, so it computes its
    # derivative jets in one call
    reads = []
    convolve = _common.singular_time_convolution

    def counting(beta, smooth, t, tol):
        reads.append(0)

        def counted(s):
            reads[-1] += 1
            return smooth(s)
        return convolve(beta, counted, t, tol)

    monkeypatch.setattr(_common, "singular_time_convolution", counting)
    spec = ProblemSpec(kind, **{
        key: parse(value) if isinstance(value, str) else value
        for key, value in _BENCHMARK_TAYLOR_DATA[kind].items()})
    taylor_coefficients(spec, which, 1.0, 168, parity="all")
    assert reads and reads == [1] * len(reads)


@pytest.mark.parametrize("f0,t,last,error", [
    # the boundary weight G(j + 1/2) t^-(j + 1/2) leaves the float range
    # from j = 58: order 117 (m = 59) needs it, order 115 does not; block
    # m = 49 ... 64
    ("t*exp(-t)", 1e-4, 115, OverflowError),
    # f0^(m) = (-1)^m m! / (t + 0.01)^(m + 1) overflows at t = 0 from
    # m = 87, order 173; block m = 81 ... 96
    ("1/(t+0.01)", 1.0, 171, ExprDomainError),
    # f0' = -1.7e308 e^{-s} is finite, but the beta = 1/2 integrand 2 f0'
    # is not near s = 0: order 1 (m = 1), whose error estimate is NaN
    ("1.7e308*exp(-t)", 100.0, 0, QuadratureError),
])
def test_fractional_order_fails_alone(f0, t, last, error):
    spec = ProblemSpec("heat-dirichlet", u0=parse("exp(-(x-1)^2)"),
                       f0=parse(f0))
    ext = taylor_coefficients(spec, "f0", t, last, parity="all")
    assert ext.orders[-1] == last
    with pytest.raises(error):
        taylor_coefficients(spec, "f0", t, last + 2, parity="all")


def test_boundary_sum_past_float_range_raises(fresh_spec):
    # f0 = t e^{-t} at t = 1e-3: the boundary sums of orders 141 on are
    # inf or nan, and come back as OverflowError, not as coefficients
    with pytest.raises(OverflowError):
        taylor_coefficients(fresh_spec("heat-dirichlet"), "f0", 1e-3, 168,
                            parity="all")
    ext = taylor_coefficients(fresh_spec("heat-dirichlet"), "f0", 1e-3, 139,
                              parity="all")
    assert ext.orders[-1] == 139 and ext.stop_reason == "requested"
    assert all(math.isfinite(c) for c in ext.coeffs)
    # values recorded before the overflowing orders were refused
    assert ext.coeffs[-3:] == [8.930514295950136e+60, 9.96417506681179e-236,
                               -3.1425787007898777e+61]


@pytest.mark.parametrize("kind,which,x", [
    ("heat-dirichlet", "f0", -0.5),
    ("heat-neumann", "f1", -0.5),
    ("advected-heat", "f0", -0.5),
    ("kdv-one-bc", "f0", -0.5),
    ("kdv-two-bc", "f0", -0.5),
    ("kdv-two-bc", "f1", -0.5),
    ("heat-finite-interval", "f0", -0.5),
    ("heat-finite-interval", "g0", -1.5),
])
def test_boundary_integral_outside_window(fresh_spec, kind, which, x):
    with pytest.raises(OutsideWindowError):
        evaluate_boundary_integral(fresh_spec(kind), which, x, 1.0)


@pytest.mark.parametrize("kind,which,parity", [
    ("heat-dirichlet", "f0", "even"),
    ("heat-neumann", "f1", "odd"),
    ("kdv-one-bc", "f0", "all"),
    ("kdv-two-bc", "f1", "odd"),
])
def test_coefficients_reach_order_200(fresh_spec, kind, which, parity):
    t = 0.9
    base = taylor_coefficients(fresh_spec(kind), which, t, 168,
                               parity=parity)
    assert base.stop_reason == "requested"
    for n in (170, 200):
        ext = taylor_coefficients(fresh_spec(kind), which, t, n,
                                  parity=parity)
        assert ext.orders[-1] <= n
        assert all(math.isfinite(c) for c in ext.coeffs)
        assert ext.stop_reason == "requested"
        kept = [(o, c) for o, c in zip(ext.orders, ext.coeffs) if o <= 168]
        assert kept == list(zip(base.orders, base.coeffs))


def test_stop_reason_cap_past_order_200(fresh_spec):
    ext = taylor_coefficients(fresh_spec("heat-dirichlet"), "f0", 1.0, 230)
    assert ext.orders[-1] == 200
    assert ext.stop_reason == "cap"


def test_g0_series_is_about_the_right_end(interval_gaussian):
    # the doubled g0 series reflects about x = L, where its data sit
    ext = taylor_coefficients(interval_gaussian, "g0", 1.0, 30)
    assert ext.expansion_point == interval_gaussian.L
    assert 2.0 * taylor_sum(ext, interval_gaussian.L) == pytest.approx(
        2.0 * float(interval_gaussian.g0.eval(1.0)), rel=1e-14)


def test_doubled_series_of_an_array_has_the_bits_of_each_point(heat_te):
    # each point stops by its own rule (x = 0 after a few orders, x = -4
    # after many), so an array call has the bytes of every point alone and
    # of the reversed array
    ladder = _common.datum_ladder(heat_te, "f0", "even", 0.7)
    xs = np.linspace(-4.0, 0.0, 17)
    got = _common.doubled_series(ladder, xs, 1e-12)
    alone = [_common.doubled_series(ladder, xs[i:i + 1], 1e-12)
             for i in range(len(xs))]
    assert got.tobytes() == np.concatenate(alone).tobytes()
    assert got[::-1].tobytes() == _common.doubled_series(
        ladder, xs[::-1], 1e-12).tobytes()


def test_series_cap_leaves_the_converged_points_alone():
    # coefficient 1 at every order: dx = 1 never falls below tol and reaches
    # the order cap, dx = 0.5 and -0.25 converge
    ladder = _common.CoeffLadder(1, (0,), lambda order: 1.0)
    dx = np.array([0.5, 1.0, -0.25])
    values, last, reason = _common.adaptive_series(ladder, dx, 1e-12)
    assert (reason, last) == ("cap", MAX_DERIVATIVE_ORDER)
    assert values[1] == MAX_DERIVATIVE_ORDER + 1
    for i in (0, 2):
        alone, alone_last, alone_reason = _common.adaptive_series(
            ladder, dx[i:i + 1], 1e-12)
        assert alone_reason == "converged"
        assert values[i] == alone[0]
        assert alone_last < MAX_DERIVATIVE_ORDER
