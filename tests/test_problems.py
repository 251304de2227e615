"""Problem descriptions, reference solutions, compatibility conditions."""

import math

import numpy as np
import pytest

from utmcont.expr import DerivativeCache, ExprDomainError, parse
from utmcont.continuous import (
    KIND_KEYS,
    KINDS,
    ProblemSpec,
    ProblemSpecError,
    check_compatibility,
    reference_whole_line,
    transport_solution,
)


def test_kind_data_consistency():
    with pytest.raises(ProblemSpecError):
        ProblemSpec("kdv-two-bc", u0=parse("exp(-x)"), f0=parse("t"))
    with pytest.raises(ProblemSpecError):
        ProblemSpec("heat-finite-interval", u0=parse("exp(-x)"),
                    f0=parse("t"), g0=parse("t"))  # missing L
    with pytest.raises(ProblemSpecError):
        ProblemSpec("not-a-kind", u0=parse("exp(-x)"))


# what each kind needs to be built, and a value of each optional field
# that a kind which does not read it must refuse
_NEEDS = {
    "transport": dict(f0="t", c=1.0),
    "heat-dirichlet": dict(f0="t"),
    "heat-neumann": dict(f1="t"),
    "heat-finite-interval": dict(f0="t", g0="t", L=1.0),
    "advected-heat": dict(f0="t", c=1.0),
    "kdv-one-bc": dict(f0="t"),
    "kdv-two-bc": dict(f0="t", f1="t"),
}
_UNREAD = {"f0": "t", "f1": "t", "g0": "t", "c": 2.0, "L": 1.0,
           "u0_decay": ("gaussian",)}


def _spec(kind, **fields):
    fields = {**_NEEDS[kind], **fields}
    return ProblemSpec(kind, u0=parse("exp(-x^2)"), **{
        k: parse(v, var_name="t") if isinstance(v, str) else v
        for k, v in fields.items()})


@pytest.mark.parametrize("kind,name", [
    (kind, name) for kind in KINDS for name in _UNREAD
    if name not in sum(KIND_KEYS[kind], ())])
def test_unread_field_is_refused(kind, name):
    # a field the kind does not read would be dropped in silence
    with pytest.raises(ProblemSpecError,
                       match=f"^{name} is not read by {kind} problems$"):
        _spec(kind, **{name: _UNREAD[name]})


@pytest.mark.parametrize("kind", KINDS)
def test_unread_fields_at_their_unset_values_are_accepted(kind):
    # the command line passes c, L and u0_decay to every kind
    reads = sum(KIND_KEYS[kind], ())
    unset = {name: value for name, value in
             (("c", 0.0), ("L", 0.0), ("u0_decay", ("auto",)))
             if name not in reads}
    assert _spec(kind, **unset).kind == kind


def test_transport_refuses_zero_speed_and_inflow_without_f0():
    u0 = parse("exp(-x^2)")
    with pytest.raises(ProblemSpecError,
                       match="^transport requires a nonzero speed c$"):
        ProblemSpec("transport", u0=u0)
    with pytest.raises(ProblemSpecError,
                       match=r"^transport with c > 0 requires f0$"):
        ProblemSpec("transport", u0=u0, c=1.0)


@pytest.mark.parametrize("decay", [
    ("algebraic",),
    ("exponential",),
    ("gaussian", 3.0),
    ("exponential", 0.0),
    ("exponential", math.inf),
    ("exponential", "fast"),
], ids=["unknown-type", "exponential-without-rate", "gaussian-with-rate",
        "zero-rate", "infinite-rate", "rate-not-a-number"])
def test_malformed_decay_is_refused(decay):
    # each was accepted once: ("algebraic",) was scanned as Gaussian,
    # ("exponential",) took rate 1 in silence, and the Gaussian ignored
    # its rate
    with pytest.raises(ProblemSpecError, match="u0_decay"):
        ProblemSpec("kdv-one-bc", u0=parse("exp(-x)"), f0=parse("t"),
                    u0_decay=decay)


@pytest.mark.parametrize("decay", [("auto",), ("gaussian",),
                                   ("exponential", 0.5), ["exponential", 2]])
def test_wellformed_decay_is_kept(decay):
    spec = ProblemSpec("kdv-one-bc", u0=parse("exp(-x)"), f0=parse("t"),
                       u0_decay=decay)
    assert spec.u0_decay == decay


def test_reference_values():
    assert reference_whole_line("gaussian-drift", 1.0, 0.0) == pytest.approx(1.0)
    assert reference_whole_line("kdv-decaying-cos", 0.0, 0.0) == pytest.approx(2.0)
    assert reference_whole_line("kdv2-exp-cos", 0.0, 0.0) == pytest.approx(2.0)
    with pytest.raises(KeyError):
        reference_whole_line("nope", 0.0, 0.0)


_PDE = {
    "gaussian-drift": lambda u, x, t, h: _dt(u, x, t, h) - _dxx(u, x, t, h),
    "kdv-decaying-cos": lambda u, x, t, h: _dt(u, x, t, h) + _dxxx(u, x, t, h),
    "kdv2-exp-cos": lambda u, x, t, h: _dt(u, x, t, h) - _dxxx(u, x, t, h),
}


def _dt(u, x, t, h):
    ht = 2e-5  # time step independent of the spatial stencil width
    return (u(x, t + ht) - u(x, t - ht)) / (2 * ht)


def _dxx(u, x, t, h):
    return (u(x + h, t) - 2 * u(x, t) + u(x - h, t)) / h**2


def _dxxx(u, x, t, h):
    # seven-point fourth-order stencil keeps truncation and round-off both
    # below the 1e-6 residual budget
    c = (1 / 8, -1.0, 13 / 8, 0.0, -13 / 8, 1.0, -1 / 8)
    return sum(
        ci * u(x + (i - 3) * h, t) for i, ci in enumerate(c)
    ) / h**3


@pytest.mark.parametrize("name", sorted(_PDE))
def test_references_satisfy_their_pde(name):
    u = lambda x, t: reference_whole_line(name, x, t)
    h = 5e-3 if "kdv" in name else 1e-4
    worst = 0.0
    for x in (-0.7, 0.3, 1.1):
        for t in (0.2, 0.8):
            scale = max(1.0, abs(u(x, t)))
            worst = max(worst, abs(_PDE[name](u, x, t, h)) / scale)
    assert worst < 1e-6


def test_advected_reference_satisfies_its_pde():
    c = 1.0
    u = lambda x, t: reference_whole_line("gaussian-drift-advected", x, t, c=c)
    h = 1e-4
    for x, t in ((-0.4, 0.3), (0.8, 0.9)):
        resid = _dt(u, x, t, h) - _dxx(u, x, t, h) - c * (
            u(x + h, t) - u(x - h, t)
        ) / (2 * h)
        assert abs(resid) < 1e-6


def test_transport_dalembert():
    spec = ProblemSpec("transport", c=2.0, u0=parse("exp(-(x-1)^2)"),
                       f0=parse("exp(-(2*t+1)^2)"))
    # ahead of the characteristic: initial datum; behind: boundary datum
    assert transport_solution(spec, np.array([1.0]), 0.1) == pytest.approx(
        [math.exp(-(0.8 - 1.0) ** 2)]
    )
    assert transport_solution(spec, np.array([0.2]), 1.0) == pytest.approx(
        [math.exp(-(2 * (1.0 - 0.1) + 1.0) ** 2)]
    )
    left = ProblemSpec("transport", c=-1.0, u0=parse("exp(-(x-1)^2)"))
    assert transport_solution(left, np.array([-0.5]), 0.5) == pytest.approx(
        [math.exp(-(0.0 - 1.0) ** 2)]
    )


def test_compatibility_trace_data(heat_gaussian):
    residuals = check_compatibility(heat_gaussian, 4)
    assert all(r < 1e-9 for r in residuals)


def test_compatibility_te_data_fails_at_order_one(heat_te):
    residuals = check_compatibility(heat_te, 1)
    # f0' (0) = 1 while u0''(0) = 2 e^-1 for the drifting Gaussian
    u0pp = DerivativeCache(heat_te.u0).value(2, 0.0)
    assert residuals[1] == pytest.approx(abs(1.0 - u0pp), rel=1e-12)
    assert residuals[1] > 0.1


def test_compatibility_kdv2_zero_data(kdv2_zero_data):
    # the order-0 residuals are |u0(0)| = 2 for f0 and |u0'(0)| = 2 sqrt(3)
    # for f1, and the larger is reported
    assert check_compatibility(kdv2_zero_data, 0)[0] == pytest.approx(
        2.0 * math.sqrt(3.0), rel=1e-12)


def test_compatibility_kdv2_trace(kdv2_cos):
    assert all(r < 1e-9 for r in check_compatibility(kdv2_cos, 3))


@pytest.mark.parametrize("u0, f0", [("sqrt(x+0)", "exp(-t)"),
                                    ("exp(-x^2)", "sqrt(t)")])
def test_compatibility_raises_where_a_derivative_is_not_finite(u0, f0):
    # the first derivative of the square root at 0, of u0 or of f0
    spec = ProblemSpec("heat-dirichlet", u0=parse(u0), f0=parse(f0),
                       u0_decay=("gaussian",))
    with pytest.raises(ExprDomainError):
        check_compatibility(spec, 1)


def test_decay_probing():
    gauss = ProblemSpec("heat-dirichlet", u0=parse("exp(-x^2)"), f0=parse("t"))
    assert gauss.decay()[0] == "gaussian"
    expo = ProblemSpec("heat-dirichlet", u0=parse("3*x*exp(-x)"), f0=parse("t"))
    kind, rate = expo.decay()
    assert kind == "exponential"
    assert 0.5 < rate <= 1.0
