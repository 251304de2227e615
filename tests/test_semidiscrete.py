"""Lattice heat equation: representations, continuations, continuum limits."""

import cmath
import math
from fractions import Fraction
import tracemalloc

import numpy as np
import pytest

from utmcont.expr import parse
from utmcont.quad import geometric_edges, integrate_segment
from utmcont.specfun import bessel_i_scaled
from utmcont import continuous as cont
from utmcont import semidiscrete
from utmcont.semidiscrete import (
    LatticeSpec,
    _data_sum,
    _theta_grid,
    _wave_sum,
    continuum_limit_check,
    dirichlet_reflection_sum,
    lattice_profile,
    neumann_reflection_sum,
    sd_heat_dirichlet_continued,
    sd_heat_dirichlet_range,
    sd_heat_neumann_continued,
    sd_heat_neumann_range,
)

U0 = "3*x*exp(-x)"
F0 = "sin(4*pi*t)"


@pytest.fixture(scope="module")
def lattice():
    return LatticeSpec(h=0.05, u0=parse(U0), datum=parse(F0), T=0.5)


@pytest.fixture(scope="module")
def lattice_zero_datum():
    return LatticeSpec(h=0.05, u0=parse(U0), datum=parse("0*t"), T=0.5)


@pytest.fixture(scope="module")
def neumann_lattice():
    return LatticeSpec(h=0.02, u0=parse("exp(-x)*cos(3*pi*x)"),
                       datum=parse("-sin(4*pi*t)/(4*pi)"), T=0.1,
                       condition="neumann")


def test_boundary_convention(lattice):
    assert sd_heat_dirichlet_range(lattice, [0])[0] == float(
        lattice.datum.eval(0.5))


def test_zero_data_is_zero():
    spec = LatticeSpec(h=0.1, u0=parse("0*x"), datum=parse("0*t"), T=0.3)
    u3 = sd_heat_dirichlet_range(spec, [3])[0]
    assert u3 == pytest.approx(0.0, abs=1e-14)
    assert sd_heat_dirichlet_continued(spec, [-3], [u3])[0] == pytest.approx(
        0.0, abs=1e-14)


def test_homogeneous_antisymmetry(lattice_zero_datum):
    ns = np.arange(1, 21)
    pos = sd_heat_dirichlet_range(lattice_zero_datum, ns)
    un = sd_heat_dirichlet_continued(lattice_zero_datum, -ns, u_pos=pos)
    assert np.all(np.abs(un + pos) < 1e-10)


def test_seam_identity(lattice):
    # u_{-1} = 2 f0(T) + h^2 f0'(T) - u_1 exactly (p <= 1 terms of the sum)
    h, T = lattice.h, lattice.T
    u1 = sd_heat_dirichlet_range(lattice, [1])[0]
    um1 = sd_heat_dirichlet_continued(lattice, [-1], u_pos=[u1])[0]
    want = 2 * lattice.datum.eval(T) + h * h * lattice.deriv.value(1, T) \
        - u1
    assert um1 == pytest.approx(want, abs=1e-14)


def test_reflection_sum_boundary_term(lattice):
    # p = 0 term alone doubles the datum: the nu = 0 sum is 2 f0(T)
    assert dirichlet_reflection_sum(lattice, [0])[0] == pytest.approx(
        2 * float(lattice.datum.eval(lattice.T)), rel=1e-14
    )


def test_lattice_ode_at_seam(lattice):
    # residual of h^2 du_n/dT = u_{n-1} - 2 u_n + u_{n+1} across the seam,
    # du/dT by fourth-order differences of repeated solves
    h = lattice.h
    dT = 2e-3
    profiles = {}
    for k in (-2, -1, 1, 2):
        spec = LatticeSpec(h=h, u0=lattice.u0, datum=lattice.datum,
                           T=lattice.T + k * dT)
        profiles[k] = lattice_profile(spec, -4, 4)
    base = lattice_profile(lattice, -4, 4)
    dudt = (profiles[-2] - 8 * profiles[-1] + 8 * profiles[1]
            - profiles[2]) / (12 * dT)
    scale = np.max(np.abs(base))
    for idx, n in enumerate(range(-4, 5)):
        if abs(n) > 3:
            continue
        lap = (base[idx - 1] - 2 * base[idx] + base[idx + 1]) / h**2
        assert abs(dudt[idx] - lap) < 1e-6 * scale


def sd_bessel_kernel_form(spec, n, tol=1e-10):
    """Boundary term K(n,T) via the scaled-Bessel kernel: the oracle of the
    theta-integral boundary term of the lattice representation."""
    if n == 0:
        raise ValueError("the Bessel kernel form carries an n prefactor; "
                         "n = 0 is the boundary convention")
    h, T = spec.h, spec.T
    fc = spec.datum.compiled()
    n_abs = abs(int(n))

    def integrand(tau):
        tau = np.maximum(np.real(np.asarray(tau)), 1e-300)
        a = 2.0 * tau / (h * h)
        kern = np.where(
            a > 0, bessel_i_scaled(n_abs, a) / tau, 0.0
        )
        return fc(T - tau) * kern

    # the integrand extends continuously to tau -> 0 (value n-dependent);
    # geometric panels near zero resolve the h^2-scale transition
    edges = geometric_edges(T, h * h / 4.0, 1.6)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        total += integrate_segment(integrand, lo, hi,
                                   tol=tol / len(edges)).value[0].real
    return int(n) * total


def test_bessel_kernel_matches_boundary_term(lattice, lattice_zero_datum):
    ns = np.arange(1, 11)
    full = sd_heat_dirichlet_range(lattice, ns)
    ic_only = sd_heat_dirichlet_range(lattice_zero_datum, ns)
    for n, f, i in zip(ns, full, ic_only):
        K = sd_bessel_kernel_form(lattice, int(n), tol=1e-11)
        assert K == pytest.approx(float(f - i), abs=1e-9)


def test_bessel_kernel_fine_quadrature_oracle():
    spec = LatticeSpec(h=0.25, u0=parse("0*x"), datum=parse(F0), T=0.5)
    taus = np.linspace(1e-12, 0.5, 100_001)
    f0c = spec.datum.compiled()
    kern = bessel_i_scaled(2, 2 * taus / 0.0625) / taus
    oracle = 2 * np.trapezoid(f0c(0.5 - taus) * kern, taus)
    assert sd_bessel_kernel_form(spec, 2) == pytest.approx(oracle, abs=1e-6)


def test_boundary_identity_as_integral_limit(lattice):
    # the n = 0 limit of the continued representation reproduces the datum:
    # 2 f0(T) + (finite sum with nu = 0) - u_0 = f0(T)
    val = (dirichlet_reflection_sum(lattice, [0])[0]
           - sd_heat_dirichlet_range(lattice, [0])[0])
    assert val == pytest.approx(float(lattice.datum.eval(lattice.T)),
                                abs=1e-8)


def test_continuum_limit_dirichlet():
    u0 = parse(U0)
    f0 = parse(F0)
    T = 0.5
    cspec = cont.ProblemSpec("heat-dirichlet", u0=u0, f0=f0)
    cache = {}

    def ref(x):
        if x not in cache:
            cache[x] = cont.evaluate_extended(cspec, x, T, 1e-11)
        return cache[x]

    rep = continuum_limit_check(
        lambda h: LatticeSpec(h=h, u0=u0, datum=f0, T=T),
        [0.1, 0.05, 0.025], (-1.0, 1.0), ref,
    )
    assert all(1.7 < order < 2.3 for order in rep["orders"])


def test_continuum_limit_requires_three_spacings():
    with pytest.raises(ValueError):
        continuum_limit_check(lambda h: None, [0.1, 0.05], (-1, 1),
                              lambda x: 0.0)


def test_images_case_error_is_purely_spatial(lattice_zero_datum):
    # zero datum: lattice solution equals the image solution of the sampled
    # data; its continuum error is O(h^2) from the stencil alone
    u0 = parse(U0)
    cspec = cont.ProblemSpec("heat-dirichlet", u0=u0, f0=parse("0*t"))
    rep = continuum_limit_check(
        lambda h: LatticeSpec(h=h, u0=u0, datum=parse("0*t"), T=0.5),
        [0.1, 0.05, 0.025], (-0.8, 0.8),
        lambda x: cont.evaluate_extended(cspec, x, 0.5, 1e-11),
    )
    assert all(1.8 < order < 2.2 for order in rep["orders"])


# ---------------------------------------------------------------------------
# Neumann
# ---------------------------------------------------------------------------


def test_neumann_backward_stencil_identity(neumann_lattice):
    q0 = sd_heat_neumann_range(neumann_lattice, [0])[0]
    qm1 = sd_heat_neumann_continued(neumann_lattice, [1], q_prev=[q0])[0]
    h = neumann_lattice.h
    datum = float(neumann_lattice.datum.eval(neumann_lattice.T))
    assert (q0 - qm1) / h == pytest.approx(datum, abs=1e-10)


def test_neumann_homogeneous_reflection():
    spec = LatticeSpec(h=0.02, u0=parse("exp(-x)*cos(3*pi*x)"),
                       datum=parse("0*t"), T=0.1, condition="neumann")
    ns = np.arange(0, 15)
    qs = sd_heat_neumann_range(spec, ns)
    q_neg = sd_heat_neumann_continued(spec, np.arange(1, 16), q_prev=qs)
    assert np.all(np.abs(q_neg - qs) < 1e-10)


def test_neumann_smoke_continuum_agreement(neumann_lattice):
    # O(h) agreement with the continuous Neumann solution
    cspec = cont.ProblemSpec("heat-neumann",
                             u0=neumann_lattice.u0,
                             f1=neumann_lattice.datum)
    T, h = neumann_lattice.T, neumann_lattice.h
    vals = lattice_profile(neumann_lattice, -10, 20)
    worst = 0.0
    for idx, n in enumerate(range(-10, 21)):
        ref = cont.evaluate_extended(cspec, n * h, T, 1e-10)
        worst = max(worst, abs(vals[idx] - ref))
    assert worst < 10 * h


def test_neumann_continuum_order_is_one():
    u0 = parse("exp(-x)*cos(3*pi*x)")
    datum = parse("-sin(4*pi*t)/(4*pi)")
    cspec = cont.ProblemSpec("heat-neumann", u0=u0, f1=datum)
    cache = {}

    def ref(x):
        if x not in cache:
            cache[x] = cont.evaluate_extended(cspec, x, 0.1, 1e-10)
        return cache[x]

    rep = continuum_limit_check(
        lambda h: LatticeSpec(h=h, u0=u0, datum=datum, T=0.1,
                              condition="neumann"),
        [0.04, 0.02, 0.01], (-0.4, 0.8), ref,
    )
    assert all(0.8 < order < 1.2 for order in rep["orders"])


def test_dispersion_properties(lattice):
    theta = np.linspace(-math.pi, math.pi, 101)
    w = lattice.dispersion(theta)
    assert np.all(w >= 0)
    assert w[50] == pytest.approx(0.0, abs=1e-14)  # theta = 0
    assert np.max(w) == pytest.approx(4.0 / lattice.h**2, rel=1e-12)
    assert lattice.dispersion(0.3) == pytest.approx(
        lattice.dispersion(0.3 + 2 * math.pi), rel=1e-12
    )


# ---------------------------------------------------------------------------
# theta-sums as panel FFTs, exact lattice modes, memory
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def theta_rules(lattice):
    """(nodes, DFT period) of the rule over [0, pi] for n_max = 20, keyed by
    full_period = False: the period is twice its panel count."""
    theta = _theta_grid(lattice, 20)[0]
    return {False: (theta, 2 * len(theta))}


def _check_data_sum(rule, start, size, sign):
    theta, _ = rule
    rng = np.random.default_rng(size + 10 * start)
    values = rng.standard_normal(size) * np.exp(-0.002 * np.arange(size))
    ms = np.arange(start, start + size)
    direct = values @ np.exp(sign * 1j * np.outer(ms, theta.ravel()))
    got = _data_sum(theta, start, values, sign)
    assert got.shape == theta.shape
    assert (np.max(np.abs(got.ravel() - direct))
            <= 1e-13 * np.sum(np.abs(values)))


@pytest.mark.parametrize("start", [0, 1])
@pytest.mark.parametrize("size", [1, 7, 64, 1000, 4097])
@pytest.mark.parametrize("sign", [1, -1])
def test_phase_sum_matches_direct_sum(theta_rules, start, size, sign):
    # the FFT data sum against e^{sign i m theta} summed node by node
    for rule in theta_rules.values():
        _check_data_sum(rule, start, size, sign)


@pytest.mark.parametrize("full_period", [False])
@pytest.mark.parametrize("start", [0, 1])
@pytest.mark.parametrize("sign", [1, -1])
def test_data_sum_folds_across_the_period(theta_rules, full_period, start,
                                          sign):
    # one sample short of a whole period, and one sample into the next block
    rule = theta_rules[full_period]
    for size in (rule[1] - 1, rule[1] + 1):
        _check_data_sum(rule, start, size, sign)


@pytest.mark.parametrize("full_period", [False])
def test_wave_sum_matches_direct_sum(theta_rules, full_period):
    theta, _ = theta_rules[full_period]
    rng = np.random.default_rng(5)
    values = (rng.standard_normal(theta.shape)
              + 1j * rng.standard_normal(theta.shape))
    ns = np.arange(0, 21)
    direct = np.exp(1j * np.outer(ns, theta.ravel())) @ values.ravel()
    got = _wave_sum(theta, ns, values)
    assert np.max(np.abs(got - direct)) <= 1e-13 * np.sum(np.abs(values))
    # each value is a sum over its own index alone
    for n in (0, 20):
        assert _wave_sum(theta, np.array([n]), values)[0] == got[n]


def _direct_range(spec, ns):
    """The range values as dense theta-sums, the data transform and the
    interior sum each node by node: Dirichlet over the rule on [0, pi],
    Neumann over the whole period on that rule mirrored to -theta (its
    weights too, and its datum convolution, since W is even)."""
    neumann = spec.condition == "neumann"
    theta, wq, conv = (a.ravel() for a in _theta_grid(spec, int(np.max(ns))))
    if neumann:
        theta, wq, conv = (np.concatenate([sign * a[::-1], a])
                           for sign, a in ((-1, theta), (1, wq), (1, conv)))
    start, values = spec.samples
    trans = np.zeros(len(theta), dtype=complex)
    for m0 in range(0, len(values), 512):
        ms = np.arange(start + m0, start + min(m0 + 512, len(values)))
        trans += values[m0:m0 + 512] @ np.exp(
            (-1j if neumann else 1j) * np.outer(ms, theta))
    decay = np.exp(-spec.dispersion(theta) * spec.T)
    if not neumann:
        base = wq * (2.0 / math.pi) * (decay * trans.imag
                                       + np.sin(theta) * conv / spec.h**2)
        out = np.sin(np.outer(ns, theta)) @ base
        out[ns == 0] = float(spec.datum.eval(spec.T))
        return out
    phase = np.exp(1j * theta)
    integrand = (decay * (trans + phase * np.conj(trans)) / (2 * math.pi)
                 - (1.0 + phase) * conv / (2 * math.pi * spec.h))
    return (np.exp(1j * np.outer(ns, theta)) @ (wq * integrand)).real


@pytest.mark.parametrize("h", [0.1, 0.05, 0.025])
@pytest.mark.parametrize("condition", ["dirichlet", "neumann"])
def test_range_matches_direct_theta_sums(h, condition):
    # the sd_heat refinement spacings over its window's interior indices;
    # the observed orders of its study move by about 100x any change here
    if condition == "dirichlet":
        spec = LatticeSpec(h=h, u0=parse(U0), datum=parse(F0), T=0.5)
        fn = sd_heat_dirichlet_range
    else:
        spec = LatticeSpec(h=h, u0=parse("exp(-x)*cos(3*pi*x)"),
                           datum=parse("-sin(4*pi*t)/(4*pi)"), T=0.1,
                           condition="neumann")
        fn = sd_heat_neumann_range
    ns = np.arange(0, round(1.0 / h) + 1)
    assert np.max(np.abs(fn(spec, ns) - _direct_range(spec, ns))) <= 1e-13


def _exact_reflection_sum(spec, n):
    """(sum, sum of |terms|) of the reflection sum at index n in exact
    rationals: the weights from the float h by their ratios, the float
    derivatives as they are."""
    h, T = Fraction(spec.h), spec.T
    dirichlet = spec.condition == "dirichlet"
    # 2 sum_{p<=n} from weight 1, or (1-2n) sum_{p<n} from weight h
    scale, weight, last = ((2, Fraction(1), n + 1) if dirichlet
                           else (1 - 2 * n, h, n))
    total = size = Fraction(0)
    for p in range(last):
        if p and dirichlet:
            weight *= (h * h * (n - p + 1) * (n + p - 1)
                       / ((2 * p) * (2 * p - 1)))
        elif p:
            weight *= h * h * (n + p - 1) * (n - p) / ((2 * p) * (2 * p + 1))
        term = scale * Fraction(spec.deriv.value(p, T)) * weight
        total += term
        size += abs(term)
    return total, size


@pytest.mark.parametrize("h", [0.02, 0.1, 0.5])
@pytest.mark.parametrize("condition", ["dirichlet", "neumann"])
def test_reflection_sums_within_rounding_of_exact_weights(lattice,
                                                          neumann_lattice,
                                                          condition, h):
    # both lattice reflection sums against the same sums in rationals,
    # within 4 eps sum_p |term_p|: a bound of the arithmetic, not of a
    # rounding order
    base = lattice if condition == "dirichlet" else neumann_lattice
    spec = LatticeSpec(h=h, u0=base.u0, datum=base.datum, T=base.T,
                       condition=condition)
    fn = (dirichlet_reflection_sum if condition == "dirichlet"
          else neumann_reflection_sum)
    ns = np.array(list(range(1, 61)) + [120, 199])
    got = fn(spec, ns)
    eps = Fraction(np.finfo(float).eps)
    for n, value in zip(ns.tolist(), got.tolist()):
        exact, size = _exact_reflection_sum(spec, n)
        assert abs(Fraction(value) - exact) <= 4 * eps * size, n


def _loop_reflection_sum(spec, n):
    """The Neumann finite sum at one index, p by p in Python floats: the
    weight h times the running product of its ratios, and the nonzero
    weights added in order of p."""
    h, T = spec.h, spec.T
    weight, total = h, 0.0
    for p in range(n):
        if p:
            weight = weight * (h * h * (n + p - 1) * (n - p)
                               / ((2 * p) * (2 * p + 1)))
        if weight != 0.0:
            total = total + spec.deriv.value(p, T) * weight
    return (1 - 2 * n) * total


@pytest.mark.parametrize("h", [0.02, 0.1, 0.5])
def test_neumann_weight_table_keeps_the_loop_bits(neumann_lattice, h):
    # up to n = 199, where the weights reach orders p whose (2p+1)! is no
    # finite float
    spec = LatticeSpec(h=h, u0=neumann_lattice.u0,
                       datum=neumann_lattice.datum, T=neumann_lattice.T,
                       condition="neumann")
    ns = np.arange(1, 200)
    want = np.array([_loop_reflection_sum(spec, int(n)) for n in ns])
    assert np.all(np.isfinite(want))
    assert neumann_reflection_sum(spec, ns).tobytes() == want.tobytes()
    # a subset in another order reads its own columns of the table
    part = ns[::-13]
    assert (neumann_reflection_sum(spec, part).tobytes()
            == want[part - 1].tobytes())


def _mode_spec(h, condition, p=1.2, q=4.0, T=0.1):
    """u_n(t) = Re 2 exp(kappa n h + omega t), kappa = -p + i q, solves the
    lattice heat equation on the whole lattice when
    omega = (2 cosh(kappa h) - 2) / h^2."""
    kappa = complex(-p, q)
    omega = (2.0 * cmath.cosh(kappa * h) - 2.0) / (h * h)
    g, d = omega.real, omega.imag
    if condition == "dirichlet":
        datum = f"2*exp({g!r}*t)*cos({d!r}*t)"
    else:  # backward slope (u_0 - u_{-1}) / h
        w = (1.0 - cmath.exp(-kappa * h)) / h
        datum = (f"{2.0 * abs(w)!r}*exp({g!r}*t)"
                 f"*cos({d!r}*t+{cmath.phase(w)!r})")
    spec = LatticeSpec(h=h, u0=parse(f"2*exp({-p!r}*x)*cos({q!r}*x)"),
                       datum=parse(datum), T=T, condition=condition)
    return spec, lambda n: (2.0 * np.exp(kappa * n * h + omega * T)).real


@pytest.mark.parametrize("condition", ["dirichlet", "neumann"])
@pytest.mark.parametrize("inv_h", [40, 60])
def test_exact_lattice_mode(condition, inv_h):
    spec, exact = _mode_spec(1.0 / inv_h, condition)
    vals = lattice_profile(spec, -60, 120)
    assert np.max(np.abs(vals - exact(np.arange(-60, 121)))) < 1e-8


@pytest.mark.parametrize("condition", ["dirichlet", "neumann"])
def test_exact_lattice_mode_at_fine_spacing(condition):
    # both conditions read one theta rule, and so resolve the mode alike
    spec, exact = _mode_spec(1.0 / 100, condition)
    vals = lattice_profile(spec, -60, 120)
    assert np.max(np.abs(vals - exact(np.arange(-60, 121)))) < 1e-11


@pytest.mark.parametrize("condition", ["dirichlet", "neumann"])
def test_profile_reaching_behind_is_one_range_call(condition, monkeypatch):
    # a window reaching further behind the boundary than ahead of it reads
    # every interior value it reflects to from one range call, and so has
    # the bits of the window that covers those values itself
    # every value behind it from one continued call
    spec, _ = _mode_spec(1.0 / 50, condition)
    calls = []

    def counting(name):
        original = getattr(semidiscrete, name)

        def counted(*args):
            calls.append(name)
            return original(*args)
        return counted

    names = [f"sd_heat_{condition}_{part}" for part in ("range", "continued")]
    for name in names:
        monkeypatch.setattr(semidiscrete, name, counting(name))
    vals = lattice_profile(spec, -60, 5)
    assert sorted(calls) == sorted(names)
    full = lattice_profile(spec, -60, 60)
    assert vals.tobytes() == full[:66].tobytes()
    assert lattice_profile(spec, -60, -5).tobytes() == full[:56].tobytes()


def test_neumann_continuation_past_the_factorial_range():
    # from n = 86 on the weights reach 2p + 1 > 170, where (2p+1)! is no
    # float; they continue by their ratio
    spec, exact = _mode_spec(1.0 / 50, "neumann")
    vals = lattice_profile(spec, -120, 10)
    assert np.max(np.abs(vals - exact(np.arange(-120, 11)))) < 1e-8


def test_neumann_range_memory_stays_small():
    spec, _ = _mode_spec(1.0 / 60, "neumann")
    tracemalloc.start()
    try:
        sd_heat_neumann_range(spec, np.arange(0, 121))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
