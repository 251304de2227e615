"""Oracles that share no code with utmcont.

Jet derivatives are checked against sympy on random expressions of the
data grammar, and against 50-digit mpmath on data whose exponential factors
cancel when multiplied as series.  The Taylor-coefficient families are
checked against their defining integrals evaluated by mpmath at 30 digits:
mpmath quadrature and gamma, sympy derivatives of the data, and none of
utmcont's quadrature, gamma or transform code.
"""

import mpmath as mp
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from utmcont.continuous import (ProblemSpec, advected, finite_interval, heat,
                                kdv)
from utmcont.expr import DerivativeCache, parse

# ---------------------------------------------------------------------------
# DerivativeCache.value against sympy.diff
# ---------------------------------------------------------------------------

_X = sympy.Symbol("x")


def _positive(a):
    """1 + a^2: the argument of roots, fractional powers and divisors."""
    return f"(1+({a[0]})^2)", 1 + a[1] ** 2


def _damped(a):
    """a / (1 + a^2): a bounded argument for exp, sinh and cosh, so nested
    growth stays inside double range."""
    pos = _positive(a)
    return f"({a[0]})/{pos[0]}", a[1] / pos[1]


def _extend(children):
    """Grammar nodes over (text, sympy expression) pairs; every expression
    is real and finite for real x."""

    def binary(op, sym):
        return st.tuples(children, children).map(
            lambda p: (f"({p[0][0]}){op}({p[1][0]})", sym(p[0][1], p[1][1])))

    def function(name, sym, argument):
        return children.map(lambda a: (f"{name}({argument(a)[0]})",
                                       sym(argument(a)[1])))

    same = lambda a: a  # noqa: E731
    return st.one_of(
        binary("+", lambda a, b: a + b),
        binary("-", lambda a, b: a - b),
        binary("*", lambda a, b: a * b),
        st.tuples(children, children).map(
            lambda p: (f"({p[0][0]})/{_positive(p[1])[0]}",
                       p[0][1] / _positive(p[1])[1])),
        st.tuples(children, st.integers(2, 3)).map(
            lambda p: (f"({p[0][0]})^{p[1]}", p[0][1] ** p[1])),
        children.map(lambda a: (f"{_positive(a)[0]}^1.5",
                                _positive(a)[1] ** sympy.Rational(3, 2))),
        function("sqrt", sympy.sqrt, _positive),
        children.map(lambda a: (f"-({a[0]})", -a[1])),
        function("exp", sympy.exp, _damped),
        function("sinh", sympy.sinh, _damped),
        function("cosh", sympy.cosh, _damped),
        function("sin", sympy.sin, same),
        function("cos", sympy.cos, same),
    )


_LEAVES = st.one_of(
    st.just(("x", _X)),
    st.integers(1, 9).map(lambda n: (str(n), sympy.Integer(n))),
    st.just(("0.5", sympy.Rational(1, 2))),
    st.just(("pi", sympy.pi)),
)
_EXPRESSIONS = st.recursive(_LEAVES, _extend, max_leaves=6)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_EXPRESSIONS, st.integers(0, 3), st.sampled_from([-0.6, 0.3, 1.3]))
def test_diff_matches_sympy(pair, order, x0):
    text, sym = pair
    got = DerivativeCache(parse(text, var_name="x")).value(order, x0)
    want = float(sympy.diff(sym, _X, order).subs(_X, x0).evalf(30))
    assert got == pytest.approx(want, rel=1e-9, abs=1e-9), text


# ---------------------------------------------------------------------------
# Derivative ladders whose series products cancel, against 50-digit mpmath
# ---------------------------------------------------------------------------

# (text, exponential components (coefficient, rate) with
# f = sum coefficient * exp(rate * t), top order).  Multiplied as series,
# e^{-2t} and cos 2t cancel terms of size 4^n/n! down to (2 sqrt 2)^n/n!.
_G, _D, _P, _Q = -0.75, 2.5, 1.0, 2.0
_WAVE_DATA = [
    ("2*exp(-2*t)*cos(2*t)", [(1, -2 + 2j), (1, -2 - 2j)], 67),
    ("sin(2*t)^2", [(0.5, 0), (-0.25, 4j), (-0.25, -4j)], 40),
    (f"2*exp({_G}*t)*(-{_P}*cos({_D}*t)-{_Q}*sin({_D}*t))",
     [(-_P + 1j * _Q, _G + 1j * _D), (-_P - 1j * _Q, _G - 1j * _D)], 60),
]


@pytest.mark.parametrize("text,components,top", _WAVE_DATA,
                         ids=[d[0] for d in _WAVE_DATA])
@pytest.mark.parametrize("t", [0.3, 0.9])
def test_wave_ladders_do_not_cancel(text, components, top, t):
    cache = DerivativeCache(parse(text))
    with mp.workdps(50):
        terms = [(mp.mpc(c), mp.mpc(r)) for c, r in components]
        for n in range(top + 1):
            want = sum(c * r**n * mp.exp(r * t) for c, r in terms).real
            # order-n envelope of the exponential components
            envelope = sum(abs(c * r**n * mp.exp(r * t)) for c, r in terms)
            error = abs(cache.value(n, t) - want)
            assert error <= 1e-13 * envelope, (n, float(error / envelope))


@pytest.mark.parametrize("t", [0.0, 0.3, 0.9])
def test_gauged_gaussian_trace_ladder(t):
    # e^{t/4} times the adv_plus datum: the gauged advected boundary datum
    cache = DerivativeCache(
        parse("exp(t/4)*exp(-t^2/(4*t+1))/sqrt(4*t+1)"))
    with mp.workdps(50):
        want = mp.taylor(lambda s: mp.exp(s / 4 - s**2 / (4 * s + 1))
                         / mp.sqrt(4 * s + 1), mp.mpf(t), 60)
        want = [c * mp.factorial(n) for n, c in enumerate(want)]
    for n in range(61):
        assert cache.value(n, t) == pytest.approx(float(want[n]), rel=1e-12), n


# ---------------------------------------------------------------------------
# Taylor-coefficient families against their defining integrals
# ---------------------------------------------------------------------------

TOL = 1e-11  # the request tol; an oracle allows 100 x TOL relative
_S = sympy.Symbol("s")


@pytest.fixture(autouse=True, scope="module")
def _thirty_digits():
    with mp.workdps(30):
        yield


def _derivative(text, order):
    """order-th derivative of a datum in the time variable, as an mpmath
    function (sympy differentiates; no utmcont expression code)."""
    sym = sympy.sympify(text.replace("^", "**"), locals={"t": _S})
    return sympy.lambdify(_S, sympy.diff(sym, _S, order), "mpmath")


def _gamma_sum(text, m, t, beta, sign):
    """sum_{r=1}^m sign(r) G(m-r+beta) t^-(m-r+beta) f^(r-1)(0)."""
    return sum(sign(r) * mp.gamma(m - r + beta) * t ** -(m - r + beta)
               * _derivative(text, r - 1)(0) for r in range(1, m + 1))


def _singular_convolution(text, m, t, beta):
    """int_0^t f^(m)(s) (t-s)^-beta ds."""
    fm = _derivative(text, m)
    return mp.quad(lambda s: fm(s) * (t - s) ** -beta, [0, t])


def _close(got, want):
    assert got == pytest.approx(float(want), rel=100 * TOL)


@pytest.mark.parametrize("order", [1, 2, 4, 5, 22, 23, 46, 47, 49, 50])
def test_kdv1_family_oracle(kdv1_cos, order):
    # order 3m-2: +sqrt3/(2 pi) with beta = 1/3; order 3m-1: -sqrt3/(2 pi)
    # with beta = 2/3; bracket sum (-1)^r G(...) f^(r-1)(0) + (-1)^m G(beta)
    # conv, over (3m-2)! or (3m-1)!.  Orders 46 to 50 (m = 16 and 17) sit
    # on both sides of the edge between the first two fractional blocks.
    f0, t = "2*exp(-2*t)*cos(2*t)", mp.mpf("0.8")
    if order % 3 == 1:
        m, beta, front = (order + 2) // 3, mp.mpf(1) / 3, 1
    else:
        m, beta, front = (order + 1) // 3, mp.mpf(2) / 3, -1
    bracket = (_gamma_sum(f0, m, t, beta, lambda r: (-1) ** r)
               + (-1) ** m * mp.gamma(beta)
               * _singular_convolution(f0, m, t, beta))
    want = front * mp.sqrt(3) / (2 * mp.pi) * bracket / mp.factorial(order)
    _close(kdv.kdv1_coefficient(kdv1_cos, order, float(t), TOL), want)


@pytest.mark.parametrize("which,order", [
    (which, order) for which in ("f0", "f1") for order in (2, 5, 23, 47, 50)])
def test_kdv2_family_oracle(kdv2_cos, which, order):
    # order 3m-1: -sqrt3/(2 pi (3m-1)!) [sum (-1)^(m-r) G(...) f^(r-1)(0)
    # + G(beta) conv], beta = 2/3 for the a-family (f0), 1/3 for the
    # b-family (f1)
    data = {"f0": "2*cos(8*t)", "f1": "-2*sqrt(3)*cos(8*t) - 2*sin(8*t)"}
    beta = mp.mpf(2) / 3 if which == "f0" else mp.mpf(1) / 3
    m, t = (order + 1) // 3, mp.mpf("0.6")
    bracket = (_gamma_sum(data[which], m, t, beta, lambda r: (-1) ** (m - r))
               + mp.gamma(beta) * _singular_convolution(data[which], m, t,
                                                        beta))
    want = -mp.sqrt(3) / (2 * mp.pi * mp.factorial(order)) * bracket
    _close(kdv.kdv2_coefficient(kdv2_cos, which, order, float(t), TOL), want)


@pytest.mark.parametrize("order", [1, 15, 31, 33])
def test_heat_dirichlet_odd_family_oracle(order):
    # order 2n-1: -(1/pi) [sum (-1)^(n-r) G(...) f^(r-1)(0) + G(1/2) conv]
    # / (2n-1)!, beta = 1/2; orders 31 and 33 (n = 16 and 17) sit on both
    # sides of the edge between the first two fractional blocks
    f0, t, n = "t*exp(-t)", mp.mpf("0.9"), (order + 1) // 2
    half = mp.mpf(1) / 2
    bracket = (_gamma_sum(f0, n, t, half, lambda r: (-1) ** (n - r))
               + mp.gamma(half) * _singular_convolution(f0, n, t, half))
    want = -bracket / (mp.pi * mp.factorial(order))
    spec = ProblemSpec("heat-dirichlet", u0=parse("exp(-(x-1)^2)"),
                       f0=parse(f0))
    _close(heat.dirichlet_odd_coefficient(spec, n, float(t), TOL), want)


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_advected_family_oracle(order):
    # a_j = (1/j!) Re[sum_{m=1}^{n+1} f^(m-1)(0) phi_m^(j)(0, t)
    #   + int_0^t f^(n+1)(s) phi_{n+1}^(j)(0, t-s) ds], n = j // 2, with the
    # kernel family phi_m^(j)(0, tau) = -((-1)^m / 2 pi) int (ik)^j (2ik + c)
    # e^{-W tau} / W^m dk, W = k^2 - ick, along Im k = 2 (above both zeros
    # of W).  For data f = sum A e^{lam s} the time integral is closed,
    # int_0^t e^{lam s} e^{-W (t-s)} ds = (e^{lam t} - e^{-W t}) / (lam + W),
    # which leaves one contour integral.
    terms = ((1, mp.mpf(-1) / 2), (mp.mpf(1) / 2, mp.mpf(1) / 3))
    spec = ProblemSpec("advected-heat", c=1.0, u0=parse("exp(-x^2)"),
                       f0=parse("exp(-t/2) + exp(t/3)/2"))
    c, t, n = 1, mp.mpf("0.7"), order // 2

    def integrand(x):
        k = mp.mpc(x, 2)
        w = k * k - 1j * c * k
        data = sum((-1) ** m * sum(a * lam ** (m - 1) for a, lam in terms)
                   * mp.exp(-w * t) / w ** m for m in range(1, n + 2))
        conv = sum(a * lam ** (n + 1) * (mp.exp(lam * t) - mp.exp(-w * t))
                   / (lam + w) for a, lam in terms)
        data += (-1) ** (n + 1) * conv / w ** (n + 1)
        return (1j * k) ** order * (2j * k + c) * data

    moment = mp.quad(integrand, [-mp.inf, -4, 0, 4, mp.inf])
    want = mp.re(-moment / (2 * mp.pi)) / mp.factorial(order)
    ladder = advected.coefficient_ladder(spec, 1, float(t), TOL)
    _close(ladder.through(order)[-1][1], want)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_finite_interval_odd_center_oracle(interval_gaussian, n):
    # about x = L the image pair SL(y_j + u) - SL(y_j - u), y_j = (2j+1)L,
    # is odd in u, so A_{2n-1} = (2/(2n-1)!) sum_j int_0^t f0(s)
    # d^{2n-1}G/dy^{2n-1}(y_j, t-s) ds with the single-layer kernel
    # G = y e^{-y^2/4tau} / (2 sqrt(pi) tau^{3/2}) = -(pi tau)^{-1/2} d/dy
    # e^{-y^2/4tau}, whose derivatives are Hermite polynomials
    f0 = _derivative("exp(-1/(4*t+1))/sqrt(4*t+1)", 0)
    L, t = 1, mp.mpf(1)

    def kernel(tau):
        a = 2 * mp.sqrt(tau)
        return sum(-(mp.pi * tau) ** -0.5 * a ** (-2 * n)
                   * mp.hermite(2 * n, (2 * j + 1) * L / a)
                   * mp.exp(-(((2 * j + 1) * L / a) ** 2)) for j in range(12))

    integral = mp.quad(lambda s: f0(s) * kernel(t - s), [0, t])
    want = 2 * integral / mp.factorial(2 * n - 1)
    _close(finite_interval.odd_center_coefficient(interval_gaussian, n,
                                                  float(t), TOL), want)
