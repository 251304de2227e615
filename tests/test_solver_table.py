"""Every entry of the per-kind solver table looks its target up through the
target's module at call time: a double bound to the module attribute sees
the call that the matching public function makes.  The table's boundary
parts and the compatibility conditions read the data of ``KIND_KEYS``."""

import numpy as np
import pytest

import utmcont.continuous as continuous
from utmcont.continuous import (
    KIND_KEYS,
    KINDS,
    ProblemSpec,
    _common,
    advected,
    boundary_to_initial,
    check_compatibility,
    evaluate_boundary_integral,
    evaluate_extended,
    evaluate_I0,
    finite_interval,
    heat,
    kdv,
    problems,
    taylor_coefficients,
)
from utmcont.expr import parse


def _parts(i0, extended, w0, boundary, ladders):
    """Targets of one kind: "i0", "extended", "w0", ("boundary", datum)
    and (datum, parity) ladders, each to (module, attribute)."""
    return {"i0": i0, "extended": extended, "w0": w0,
            **{("boundary", datum): t for datum, t in boundary.items()},
            **ladders}


_TARGETS = {
    "transport": {"extended": (continuous, "transport_solution")},
    "heat-dirichlet": _parts(
        (heat, "i0"), (continuous, "_continued"),
        (continuous, "_reflected_w0"), {"f0": (heat, "boundary_integral")},
        {("f0", "even"): (_common, "datum_ladder"),
         ("f0", "all"): (heat, "full_series_coefficient")}),
    "heat-neumann": _parts(
        (heat, "i0"), (continuous, "_continued"),
        (continuous, "_reflected_w0"), {"f1": (heat, "boundary_integral")},
        {("f1", "odd"): (_common, "datum_ladder")}),
    "heat-finite-interval": _parts(
        (finite_interval, "i0"), (finite_interval, "extended"),
        (finite_interval, "boundary_to_initial"),
        {"f0": (finite_interval, "left_boundary_integral"),
         "g0": (finite_interval, "right_boundary_integral")},
        {("f0", "even"): (_common, "datum_ladder"),
         ("g0", "even"): (_common, "datum_ladder"),
         ("f0", "odd-center"): (finite_interval, "odd_center_coefficient")}),
    "advected-heat": _parts(
        (advected, "i0"), (advected, "extended"),
        (advected, "boundary_to_initial"),
        {"f0": (advected, "boundary_integral")},
        {("f0", "even"): (advected, "coefficient_ladder"),
         ("f0", "all"): (advected, "coefficient_ladder")}),
    "kdv-one-bc": _parts(
        (kdv, "i0_one_bc"), (continuous, "_continued"), (kdv, "w0_one_bc"),
        {"f0": (kdv, "if0_one_bc")},
        {("f0", "even"): (kdv, "kdv1_coefficient"),
         ("f0", "all"): (kdv, "kdv1_coefficient")}),
    "kdv-two-bc": _parts(
        (kdv, "i0_two_bc"), (continuous, "_continued"), (kdv, "w0_two_bc"),
        {"f0": (kdv, "_kdv2_boundary"), "f1": (kdv, "_kdv2_boundary")},
        {("f0", "even"): (kdv, "kdv2_coefficient"),
         ("f1", "odd"): (kdv, "kdv2_coefficient"),
         ("f0", "all"): (kdv, "kdv2_coefficient"),
         ("f1", "all"): (kdv, "kdv2_coefficient")}),
}

_CASES = [(kind, part) for kind, parts in _TARGETS.items() for part in parts]


def _call(spec, part):
    """The public function that reads ``part`` of the spec's table entry,
    at one point inside the domain (three orders for a ladder)."""
    xs, t, tol = np.array([0.3]), 0.5, 1e-8
    if part == "i0":
        return evaluate_I0(spec, xs, t, tol)
    if part == "extended":
        return evaluate_extended(spec, xs, t, tol)
    if part == "w0":
        return boundary_to_initial(spec, xs)
    if part[0] == "boundary":
        return evaluate_boundary_integral(spec, part[1], xs, t, tol)
    which, parity = part
    return taylor_coefficients(spec, which, t, 3, parity=parity)


def test_cases_cover_the_table():
    for kind in KINDS:
        solver = continuous._SOLVERS[kind]
        table = {"extended", *(p for p in ("i0", "w0") if getattr(solver, p)),
                 *(("boundary", d) for d in solver.boundary), *solver.ladders}
        assert set(_TARGETS[kind]) == table, kind


@pytest.mark.parametrize("kind, part", _CASES, ids=[
    "-".join((kind, *part) if isinstance(part, tuple) else (kind, part))
    for kind, part in _CASES])
def test_entry_looks_its_target_up_at_call_time(monkeypatch, fresh_spec,
                                                kind, part):
    module, name = _TARGETS[kind][part]
    target = getattr(module, name)
    calls = []

    def double(*args, **kwargs):
        calls.append(args)
        return target(*args, **kwargs)

    monkeypatch.setattr(module, name, double)
    spec = (ProblemSpec("transport", u0=parse("exp(-x^2)"), c=-1.0)
            if kind == "transport" else fresh_spec(kind))
    _call(spec, part)
    assert calls


@pytest.mark.parametrize("kind", KINDS)
def test_boundary_entries_and_conditions_read_the_kinds_data(fresh_spec,
                                                             kind):
    # the table's boundary parts are the kind's data past u0, and its
    # compatibility conditions read those data; transport has neither
    data, _ = KIND_KEYS[kind]
    boundary = set(continuous._SOLVERS[kind].boundary)
    assert boundary == set(data) - {"u0"}
    assert (kind in problems._GENERATORS) == bool(boundary)
    if boundary:
        spec = fresh_spec(kind)
        check_compatibility(spec, 2)
        assert set(spec.derivs) == set(data)
