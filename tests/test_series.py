"""The doubled series in blocks: datum ladders filled a derivative jet at a
time, and ``adaptive_series`` summing every entry its ladder holds in one
array pass, with the bits, stop orders and errors of the term-by-term sum
kept here as the reference."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

from utmcont import cli, expr
from utmcont.continuous import (
    ProblemSpec,
    _common,
    boundary_to_initial,
    taylor_coefficients,
)
from utmcont.expr import (MAX_DERIVATIVE_ORDER, DerivativeOrderError,
                          ExprDomainError, parse)


def _term_by_term(ladder, dx, tol):
    """The series one entry at a time: each point adds its terms in turn
    and stops after three consecutive quiet terms past the first three."""
    total = np.zeros(dx.shape)
    live, x, part, scale, quiet = (np.arange(dx.size), dx, np.zeros(dx.size),
                                   np.ones(dx.size), 0)
    i = order = 0
    while live.size:
        entry = ladder.get(i)
        if entry is None:
            total[live] = part
            return total, order, "cap"
        order, coeff = entry
        term = coeff * x ** order
        part = part + term
        scale = np.maximum(scale, np.abs(part))
        if i >= 3:
            quiet = (quiet + 1) * (np.abs(term) <= 0.5 * tol * scale)
            if quiet.max() >= 3:
                done = quiet >= 3
                total[live[done]] = part[done]
                live, x, part, scale, quiet = (
                    a[~done] for a in (live, x, part, scale, quiet))
        i += 1
    return total, order, "converged"


def _entry_ladder(spec, datum, parity, t):
    """The datum ladder of ``datum_ladder``, one ``datum_coefficient`` per
    entry."""
    stride, offset, sign = _common._DATUM_PARITIES[parity]
    cache = spec.deriv(datum)
    return _common.CoeffLadder(
        stride, (offset,), lambda order: _common.datum_coefficient(
            cache, order, t, stride, offset, sign),
        spec.L if datum == "g0" else 0.0)


def _bits(entries):
    """The orders and the coefficients' bytes of ladder entries."""
    return [o for o, _ in entries], np.array([c for _, c in entries]).tobytes()


_DATUM_CASES = {
    # name: (spec fixture, datum, parity, t)
    "heat-even": ("heat_te", "f0", "even", 0.7),
    "heat-even-t0": ("heat_gaussian", "f0", "even", 0.0),
    "neumann-odd": ("neumann_spec", "f1", "odd", 0.3),
    "kdv-cubic": ("kdv1_te", "f0", "cubic", 0.0),
    "interval-g0": ("interval_gaussian", "g0", "even", 0.5),
}

_POINTS = {
    "empty": np.array([]),
    "one": np.array([-1.3]),
    "grid": np.linspace(-4.0, 0.0, 17),
    "reversed": np.linspace(-4.0, 0.0, 17)[::-1].copy(),
    "both-sides": np.linspace(-2.5, 2.5, 11),
}


@pytest.mark.parametrize("case", sorted(_DATUM_CASES))
def test_datum_ladder_fills_the_bits_of_each_entry(request, case):
    name, datum, parity, t = _DATUM_CASES[case]
    spec = request.getfixturevalue(name)
    got = _common.datum_ladder(spec, datum, parity, t)
    want = _entry_ladder(spec, datum, parity, t)
    top = got.orders[-1]
    assert _bits(got.through(top)) == _bits(want.through(top))
    assert got.center == want.center


@pytest.mark.parametrize("points", sorted(_POINTS))
@pytest.mark.parametrize("case", sorted(_DATUM_CASES))
def test_block_sum_has_the_bits_of_the_term_by_term_sum(request, case,
                                                        points):
    name, datum, parity, t = _DATUM_CASES[case]
    spec = request.getfixturevalue(name)
    dx = _POINTS[points] - _common.datum_ladder(spec, datum, parity, t).center
    for tol in (1e-10, 1e-13):
        values, last, reason = _common.adaptive_series(
            _common.datum_ladder(spec, datum, parity, t), dx, tol)
        want, want_last, want_reason = _term_by_term(
            _entry_ladder(spec, datum, parity, t), dx, tol)
        assert values.tobytes() == want.tobytes()
        assert (last, reason) == (want_last, want_reason)


@pytest.mark.parametrize("dx", [
    np.array([]), np.array([0.0]), np.array([0.5]), np.array([1.0]),
    # many squares: numpy's x ** 2 and its power of x and 2 can differ in
    # the last bit
    np.linspace(0.01, 0.8, 199),
    np.array([0.5, 1.0, -0.25]), np.array([-0.25, 1.0, 0.5]),
    np.array([1.0, 1.5, -1.0])])
def test_constant_ladder_block_sum_matches_term_by_term(dx):
    # coefficient 1 at every order: |dx| >= 1 reaches the order cap, the
    # other points converge; a constant ladder computes one entry at a time
    values, last, reason = _common.adaptive_series(
        _common.CoeffLadder(1, (0,), lambda order: 1.0), dx, 1e-12)
    want, want_last, want_reason = _term_by_term(
        _common.CoeffLadder(1, (0,), lambda order: 1.0), dx, 1e-12)
    assert values.tobytes() == want.tobytes()
    assert (last, reason) == (want_last, want_reason)
    assert (reason == "cap") == bool(np.any(np.abs(dx) >= 1.0))
    if dx.size == 1 and dx[0] == 0.0:
        # terms 1, 0, 0, ...: the first three never count as quiet
        assert last == 5


def test_per_entry_ladder_computes_no_entry_the_sum_does_not_read():
    # a ladder that pays per entry grows only to the last entry a point
    # reads, as the term-by-term sum does
    dx = np.linspace(-2.0, -0.1, 9)
    built, reference = [], []
    ladder = _common.CoeffLadder(
        1, (0,), lambda order: built.append(order) or 1.0 / math.factorial(
            order))
    _, last, _ = _common.adaptive_series(ladder, dx, 1e-12)
    _term_by_term(_common.CoeffLadder(
        1, (0,), lambda order: reference.append(order) or 1.0
        / math.factorial(order)), dx, 1e-12)
    assert built == reference == list(range(last + 1))


def _pole_spec():
    # f0^(i)(t) = (-1)^i i! / (t + 0.01)^(i + 1) overflows at t = 0 from
    # i = 87: the even ladder's order 174
    return ProblemSpec("heat-dirichlet", u0=parse("exp(-(x-1)^2)"),
                       f0=parse("1/(t+0.01)"))


def test_datum_ladder_raises_only_at_an_order_that_is_read():
    spec = _pole_spec()
    ladder = _common.datum_ladder(spec, "f0", "even", 0.0)
    # the jet that entry 71 computes covers entries 71 ... 100, the last 14
    # of them not finite; the entries before them read as usual
    assert ladder.through(172)[-1][0] == 172
    assert len(ladder.entries) == len(ladder.orders)
    with pytest.raises(ExprDomainError):
        ladder.through(174)
    with pytest.raises(ExprDomainError):
        ladder.get(87)
    # a point near the boundary converges long before order 174, one at
    # x = -3 needs it
    near = np.array([-0.01, -0.002])
    values, last, _ = _common.adaptive_series(ladder, near, 1e-12)
    assert last < 174 and np.all(np.isfinite(values))
    with pytest.raises(ExprDomainError):
        _common.adaptive_series(ladder, np.array([-0.01, -3.0]), 1e-12)
    with pytest.raises(ExprDomainError):
        _term_by_term(_entry_ladder(spec, "f0", "even", 0.0),
                      np.array([-0.01, -3.0]), 1e-12)
    # w0 reads the same ladder at t = 0
    assert np.all(np.isfinite(boundary_to_initial(_pole_spec(), near)))


def test_taylor_coefficients_raise_only_past_the_last_finite_order():
    t = 1e-9
    ext = taylor_coefficients(_pole_spec(), "f0", t, 172, parity="even")
    assert ext.orders[-1] == 172 and all(map(math.isfinite, ext.coeffs))
    with pytest.raises(ExprDomainError):
        taylor_coefficients(_pole_spec(), "f0", t, 174, parity="even")


def test_datum_not_finite_at_the_point_fails_at_entry_zero():
    spec = ProblemSpec("heat-dirichlet", u0=parse("exp(-(x-1)^2)"),
                       f0=parse("1/t"))
    ladder = _common.datum_ladder(spec, "f0", "even", 0.0)
    with pytest.raises(ExprDomainError):
        ladder.get(0)
    with pytest.raises(ExprDomainError):
        _common.adaptive_series(ladder, np.array([-0.5]), 1e-12)


def test_dirichlet_w0_computes_the_jets_of_a_term_by_term_read(monkeypatch):
    # one jet per ladder entry that the derivative cache does not hold:
    # orders 16 and 34 at the one point t = 0, as when each entry was read
    # alone; a ladder that read ahead would add a jet
    calls = []
    taylor = expr._taylor
    monkeypatch.setattr(expr, "_taylor", lambda node, x, n: calls.append(
        (n, len(x))) or taylor(node, x, n))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "w0.csv"
        assert cli.main(["map-initial", "--scenario", "heat_te", "--out",
                         str(out)]) == 0
    assert calls == [(16, 1), (34, 1)]


def test_block_read_reaches_the_order_cap(heat_te):
    # every carried order of a datum ladder, in one through(), with the
    # bits of one datum_coefficient each
    for parity in ("even", "odd", "cubic"):
        got = _common.datum_ladder(heat_te, "f0", parity, 0.4).through(
            MAX_DERIVATIVE_ORDER)
        want = _entry_ladder(heat_te, "f0", parity, 0.4).through(
            MAX_DERIVATIVE_ORDER)
        assert _bits(got) == _bits(want)
        assert got[-1][0] <= MAX_DERIVATIVE_ORDER


def test_at_extends_one_array_a_jet_at_a_time(monkeypatch, heat_te):
    # a read past the end of the array at a point computes one jet to
    # max(2k, 16), capped at the order cap, and appends what it adds
    calls = []
    taylor = expr._taylor
    monkeypatch.setattr(expr, "_taylor", lambda node, x, n: calls.append(
        (n, len(x))) or taylor(node, x, n))
    cache = expr.DerivativeCache(heat_te.f0)
    short = cache.at(0.3, 5)
    assert calls == [(16, 1)] and len(short) == 16
    assert cache.at(0.3, 16) is short and cache.value(12, 0.3) == short[11]
    assert calls == [(16, 1)]  # a read inside the array computes no jet
    grown = cache.at(0.3, 90)
    assert calls == [(16, 1), (180, 1)] and len(grown) == 180
    assert grown[:16].tobytes() == short.tobytes()
    assert len(cache.at(0.3, 181)) == MAX_DERIVATIVE_ORDER
    assert calls[-1] == (MAX_DERIVATIVE_ORDER, 1)
    for held in (short, grown):
        with pytest.raises(ValueError):
            held[0] = 0.0
    with pytest.raises(DerivativeOrderError):
        cache.at(0.3, MAX_DERIVATIVE_ORDER + 1)
