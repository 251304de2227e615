"""Shared problem fixtures (session-scoped so derivative jets persist), the
Taylor-sum helper of the series tests, and a quadrature call counter."""

import sys

import pytest

from utmcont import quad
from utmcont.expr import parse
from utmcont.continuous import ProblemSpec

GAUSS_U0 = "exp(-(x-1)^2)"
GAUSS_F0 = "exp(-1/(4*t+1))/sqrt(4*t+1)"


def taylor_sum(ext, x):
    """sum c_m (x - x0)^m over the orders a TaylorExtension carries, term by
    term at one point: the tests' own sum, independent of the solvers'
    doubled-series evaluator."""
    dx = x - ext.expansion_point
    return sum(c * dx**m for m, c in zip(ext.orders, ext.coeffs))


@pytest.fixture
def segment_calls(monkeypatch):
    """A list that gains one entry per ``integrate_segment`` call, through
    every utmcont module that bound it."""
    calls = []
    real = quad.integrate_segment

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name.startswith("utmcont")
                and getattr(module, "integrate_segment", None) is real):
            monkeypatch.setattr(module, "integrate_segment", counting)
    return calls


@pytest.fixture(scope="session")
def heat_gaussian():
    return ProblemSpec("heat-dirichlet", u0=parse(GAUSS_U0),
                       f0=parse(GAUSS_F0))


@pytest.fixture(scope="session")
def heat_te():
    return ProblemSpec("heat-dirichlet", u0=parse(GAUSS_U0),
                       f0=parse("t*exp(-t)"))


@pytest.fixture(scope="session")
def neumann_spec():
    return ProblemSpec("heat-neumann", u0=parse("exp(-x)*cos(3*pi*x)"),
                       f1=parse("-sin(4*pi*t)/(4*pi)"))


@pytest.fixture(scope="session")
def advected_plus():
    return ProblemSpec("advected-heat", c=1.0, u0=parse("exp(-x^2)"),
                       f0=parse("exp(-t^2/(4*t+1))/sqrt(4*t+1)"))


@pytest.fixture(scope="session")
def advected_minus():
    return ProblemSpec("advected-heat", c=-1.0, u0=parse("exp(-x^2)"),
                       f0=parse("exp(-t^2/(4*t+1))/sqrt(4*t+1)"))


@pytest.fixture(scope="session")
def kdv1_cos():
    return ProblemSpec("kdv-one-bc", u0=parse("2*exp(-x)*cos(x)"),
                       f0=parse("2*exp(-2*t)*cos(2*t)"),
                       u0_decay=("exponential", 1.0))


@pytest.fixture(scope="session")
def kdv1_te():
    return ProblemSpec("kdv-one-bc", u0=parse("2*exp(-x)*cos(x)"),
                       f0=parse("t*exp(-t)"),
                       u0_decay=("exponential", 1.0))


@pytest.fixture(scope="session")
def kdv2_cos():
    return ProblemSpec("kdv-two-bc", u0=parse("2*exp(-sqrt(3)*x)*cos(x)"),
                       f0=parse("2*cos(8*t)"),
                       f1=parse("-2*sqrt(3)*cos(8*t) - 2*sin(8*t)"))


@pytest.fixture(scope="session")
def kdv2_zero_data():
    return ProblemSpec("kdv-two-bc", u0=parse("2*exp(-sqrt(3)*x)*cos(x)"),
                       f0=parse("0*t"), f1=parse("0*t"))


@pytest.fixture(scope="session")
def interval_gaussian():
    return ProblemSpec("heat-finite-interval", L=1.0, u0=parse(GAUSS_U0),
                       f0=parse(GAUSS_F0), g0=parse("1/sqrt(4*t+1)"))


_FRESH_DATA = {
    "heat-dirichlet": dict(u0="exp(-(x-1)^2)", f0="t*exp(-t)"),
    "heat-neumann": dict(u0="exp(-x)*cos(3*pi*x)", f1="-sin(4*pi*t)/(4*pi)"),
    "advected-heat": dict(u0="exp(-x^2)", f0="exp(-t/2)", c=1.0),
    "kdv-one-bc": dict(u0="2*exp(-x)*cos(x)", f0="2*exp(-2*t)*cos(2*t)",
                       u0_decay=("exponential", 1.0)),
    "kdv-two-bc": dict(u0="2*exp(-sqrt(3)*x)*cos(x)", f0="2*cos(8*t)",
                       f1="-2*sqrt(3)*cos(8*t) - 2*sin(8*t)"),
    "heat-finite-interval": dict(u0="exp(-(x-1)^2)", f0="t*exp(-t)",
                                 g0="exp(-t)", L=1.0),
}


@pytest.fixture
def fresh_spec():
    """A new ProblemSpec of a kind on every call: nothing cached."""

    def make(kind):
        fields = {k: parse(v) if isinstance(v, str) else v
                  for k, v in _FRESH_DATA[kind].items()}
        return ProblemSpec(kind, **fields)

    return make
