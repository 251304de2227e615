"""Seeded operation lists for the four workloads, and their output checks.

An op is one user-level call: a ``utmcont.cli.main`` command on a generated
(or built-in) config, or one ``continuous.taylor_coefficients`` request.
Every op carries the check its output must pass.  Seeded ops are checked
against an exact whole-line solution from :mod:`families`; fixed ops against
golden outputs recorded from the program (``golden.json``).

Workloads, and why each exists:

sweep         ``solve`` over space-time grids.  The spectral i0 integrals and
              the u0 half-line transform dominate, and grid reuse drives the
              transform cache.  Built-in corner-incompatible jobs (heat_te
              with t = 1e-3, fi_te_inv, kdv1_te, kdv2_te) run unchanged;
              adv_minus runs on the part of its grid where its 5 missed
              quadrature tolerances occur, so they show in the trace.
continuation  Work behind the boundary with no i0: ``map-initial`` for every
              continuous family and ``taylor_coefficients`` for every family
              and parity.  Coefficient families, singular time convolutions,
              series assembly and derivative ladders do the work.
lattice       ``solve`` on both semidiscrete kinds over seeded spacing and
              datum frequency plus one ``converge`` study: the only place
              where lattice range sums and gamma-ratio products dominate.

A fourth workload of 100+ fresh small problems ("cold") was dropped: every
layer it runs also runs in sweep, and the time it took was needed to make
the other runs long enough to be steady on a shared machine.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

from families import DriftingGaussian, KdvMode, LatticeMode

WORKLOADS = ("sweep", "continuation", "lattice")
DEFAULT_SEED = 1
HELD_OUT_SEED = 2  # kept out of tuning; a claim made on seed 1 must hold here

GOLDEN_PATH = Path(__file__).with_name("golden.json")

# Largest Taylor order every parity survives on this code: the ladder
# builders compute one entry past N, and 171! does not convert to float.
TAYLOR_N = 168
# The odd-center family's coefficients grow from about order 25 and are NaN
# from order 93 (a defect probe shows it); a request to 91 costs ~3 s a
# pass, so it stops at 41.
ODD_CENTER_N = 41

# Absolute error allowed against the exact solution, per family: the
# accuracy each solver documents, with margin (advected w0 is a small-time
# extrapolation, plot grade by design).
SOLVE_ATOL = {
    "transport": 1e-12,
    "heat-dirichlet": 1e-8,
    "heat-neumann": 1e-8,
    "heat-finite-interval": 1e-8,
    "advected-heat": 1e-6,
    "kdv-one-bc": 1e-6,
    "kdv-two-bc": 1e-5,
    "lattice": 1e-7,
}
W0_ATOL = {
    "heat-dirichlet": 1e-8,
    "heat-neumann": 1e-8,
    "heat-finite-interval": 1e-8,
    "kdv-one-bc": 1e-8,
    "kdv-two-bc": 1e-12,
    "advected-heat": 5e-2,
}


@dataclass
class Op:
    """One closed-loop request and the check its output must pass.

    ``command`` is a CLI command or ``"taylor"``.  CLI ops run either a
    generated ``config`` or a built-in ``scenario``; taylor ops carry the
    ProblemSpec fields and the request in ``taylor``.  ``check`` maps the
    parsed output to a list of failure messages (empty when correct).
    """

    name: str
    command: str
    check: object
    config: dict | None = None
    scenario: str | None = None
    taylor: dict | None = None
    points: int | None = None  # fixed value count (converge); else counted
    argv: list = field(default_factory=list)
    outputs: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_exact(column, exact, atol):
    """Compare one CSV column against exact(x, t) row by row."""

    def check(rows):
        bad = []
        for row in rows:
            want = exact(row["x"], row.get("t", 0.0))
            got = row[column]
            if not (got is not None and abs(got - want) <= atol):
                bad.append(f"x={row['x']:.6g}: {column}={got!r}, exact "
                           f"{want:.12g} (atol {atol:g})")
        return bad[:3] + ([f"... {len(bad) - 3} more"] if len(bad) > 3 else [])

    return check


def check_golden(key, tol, golden, relative=False):
    """Compare every numeric output value with the recorded one, within
    tol * max(1, |golden|), or tol * |golden| when ``relative`` (Taylor
    coefficients decay like 1/n!)."""
    want = golden.get(key)

    def check(values):
        if want is None:
            return [f"no golden output recorded for {key}"]
        if len(values) != len(want):
            return [f"{len(values)} values, golden has {len(want)}"]
        bad = []
        for i, (got, ref) in enumerate(zip(values, want)):
            if ref is None or got is None:
                if ref is not got:
                    bad.append(f"value {i}: {got!r} vs golden {ref!r}")
                continue
            scale = abs(ref) if relative else max(1.0, abs(ref))
            if not (math.isfinite(got) and abs(got - ref) <= tol * scale):
                bad.append(f"value {i}: {got!r} vs golden {ref!r}")
        return bad[:3] + ([f"... {len(bad) - 3} more"] if len(bad) > 3 else [])

    return check


def load_golden():
    if GOLDEN_PATH.exists():
        return json.loads(GOLDEN_PATH.read_text())
    return {}


# ---------------------------------------------------------------------------
# op builders
# ---------------------------------------------------------------------------


def _solve(name, kind, problem, grid, tol, exact, atol, command="solve"):
    cfg = {
        "problem": {"kind": kind, **problem},
        "grid": grid,
        "numerics": {"tol": tol},
    }
    column = "w0" if command == "map-initial" else "u_ac"
    return Op(name, command, check_exact(column, exact, atol), config=cfg)


def _grid(x_min, x_max, n, times):
    return {"x_min": x_min, "x_max": x_max, "n_points": n, "times": times}


def _continuous(kind, rng, c=None):
    """(problem fields, exact solution) for a fresh seeded instance."""
    if kind in ("heat-dirichlet", "heat-neumann"):
        g = DriftingGaussian.draw(rng)
        datum = ({"f0": g.trace(0.0)} if kind == "heat-dirichlet"
                 else {"f1": g.slope_trace()})
        return {"u0": g.u0(), **datum}, g.u
    if kind == "advected-heat":
        # a = 0: the boundary trace exp(-c^2 t^2/(s+4t))/sqrt(s+4t) keeps the
        # derivative ladder's expression growth at the built-in scenarios'
        c = c if c is not None else rng.choice((-1.0, 1.0)) * round(
            rng.uniform(0.95, 1.05), 3)
        g = DriftingGaussian(0.0, round(rng.uniform(0.95, 1.05), 3), c)
        return {"u0": g.u0(), "f0": g.trace(0.0), "c": c}, g.u
    if kind == "heat-finite-interval":
        g = DriftingGaussian.draw(rng)
        L = round(rng.uniform(0.9, 1.2), 3)
        return ({"u0": g.u0(), "f0": g.trace(0.0), "g0": g.trace(L), "L": L},
                g.u)
    if kind == "kdv-one-bc":
        m = KdvMode.draw_one_condition(rng)
        return ({"u0": m.u0(), "f0": m.trace(),
                 "u0_decay": {"type": "exponential", "rate": m.p}}, m.u)
    if kind == "kdv-two-bc":
        # the two-condition solver resolves only data frequencies near 8 and
        # times t in {0.5, 1} (see the kdv2 probes); seed the mode there
        q = round(rng.uniform(0.98, 1.005), 4)
        m = KdvMode(round(math.sqrt(3.0) * q * rng.uniform(0.97, 1.01), 4),
                    q, -1)
        return {"u0": m.u0(), "f0": m.trace(), "f1": m.slope_trace()}, m.u
    if kind == "transport":
        g = DriftingGaussian.draw(rng)
        c = round(rng.uniform(0.5, 1.5), 3)

        def exact(x, t, g=g, c=c):
            return math.exp(-((x - c * t - g.a) ** 2) / g.s)

        f0 = f"exp(-({c!r}*t+{g.a!r})^2/{g.s!r})"
        return {"u0": g.u0(), "f0": f0, "c": c}, exact
    raise ValueError(kind)


# (kind, which, parity) for every Taylor family and parity, with fixed data
# that keep derivative ladders cheap to order 170.
TAYLOR_DATA = {
    "heat-dirichlet": {"u0": "exp(-(x-1)^2)", "f0": "t*exp(-t)"},
    "heat-neumann": {"u0": "exp(-(x-1)^2)", "f1": "t*exp(-t)"},
    "advected-heat": {"u0": "exp(-x^2)", "f0": "t*exp(-t)", "c": 1.0},
    "kdv-one-bc": {"u0": "2*exp(-x)*cos(x)", "f0": "t*exp(-t)",
                   "u0_decay": {"type": "exponential", "rate": 1.0}},
    "kdv-two-bc": {"u0": "2*exp(-sqrt(3)*x)*cos(x)", "f0": "t*exp(-t)",
                   "f1": "-2*sqrt(3)*cos(8*t) - 2*sin(8*t)"},
    "heat-finite-interval": {"u0": "exp(-(x-1)^2)", "f0": "t*exp(-t)",
                             "g0": "1/(1+t)", "L": 1.0},
}
TAYLOR_FAMILIES = (
    ("heat-dirichlet", "f0", "even"), ("heat-dirichlet", "f0", "all"),
    ("heat-neumann", "f1", "odd"),
    ("advected-heat", "f0", "even"), ("advected-heat", "f0", "all"),
    ("kdv-one-bc", "f0", "even"), ("kdv-one-bc", "f0", "all"),
    ("kdv-two-bc", "f0", "even"), ("kdv-two-bc", "f1", "odd"),
    ("kdv-two-bc", "f0", "all"), ("kdv-two-bc", "f1", "all"),
    ("heat-finite-interval", "f0", "even"),
    ("heat-finite-interval", "g0", "even"),
    ("heat-finite-interval", "f0", "odd-center"),
)
TAYLOR_TOL = 1e-11

# built-in jobs that run unchanged, with their configured tol
FIXED_SOLVES = (("heat_te", 1e-10), ("fi_te_inv", 1e-10), ("kdv1_te", 1e-9),
                ("kdv2_te", 1e-9))


def taylor_op(kind, which, parity, N, golden, check=True):
    key = f"taylor/{kind}/{which}/{parity}/{N}"
    # coefficients from time convolutions carry the quadrature's relative
    # error; 100 x the request tol leaves room for reordered sums
    return Op(key, "taylor",
              check_golden(key, 100 * TAYLOR_TOL, golden, relative=True)
              if check else None,
              taylor={"kind": kind, "which": which, "parity": parity,
                      "N": N, "t": 1.0, "data": TAYLOR_DATA[kind]})


def fixed_solve_op(name, tol, golden, command="solve"):
    key = f"{command}/{name}"
    return Op(key, command, check_golden(key, tol, golden), scenario=name)


def sweep_ops(rng, golden, smoke=False):
    ops = [fixed_solve_op(n, tol, golden) for n, tol in
           (FIXED_SOLVES[1:2] if smoke else FIXED_SOLVES)]
    if not smoke:
        # the built-in adv_minus data on the part of its grid, x in [-2,
        # -1.5] at step 0.05, where all 5 of its missed segment tolerances
        # occur (its full 101-point grid costs 6 s a pass)
        g = DriftingGaussian(0.0, 1.0, -1.0)
        ops.append(_solve("solve/adv_minus[x<=-1.5]", "advected-heat",
                          {"u0": "exp(-x^2)", "c": -1.0,
                           "f0": "exp(-t^2/(4*t+1))/sqrt(4*t+1)"},
                          _grid(-2.0, -1.5, 11, [1.0]), 1e-10, g.u,
                          SOLVE_ATOL["advected-heat"]))
    # two instances of each seeded family, so the median op falls inside
    # the seeded cluster rather than between two dissimilar ops
    plans = [
        ("heat-dirichlet", None, (-3.0, 4.0, 29, [0.5, 1.0])),
        ("heat-neumann", None, (-3.0, 4.0, 29, [0.5, 1.0])),
        ("advected-heat", 1.0, (-1.0, 3.0, 11, [1.0])),
        ("heat-finite-interval", None, (-1.0, 2.0, 16, [1.0])),
        ("kdv-one-bc", None, (-2.0, 3.0, 13, [1.0])),
        ("kdv-two-bc", None, (-1.0, 2.0, 7, [1.0])),
    ]
    copies = 1 if smoke else 2
    for i, (kind, c, (lo, hi, n, times)) in enumerate(plans * copies):
        problem, exact = _continuous(kind, rng, c)
        tol = 1e-9 if kind.startswith("kdv") else 1e-10
        grid = _grid(lo, hi, max(2, n // 5) if smoke else n, times)
        ops.append(_solve(f"solve/{kind}#{i}", kind, problem, grid, tol,
                          exact, SOLVE_ATOL[kind]))
    problem, exact = _continuous("transport", rng)
    ops.append(_solve("solve/transport", "transport", problem,
                      _grid(-2.0, 3.0, 51, [0.5, 1.0]), 1e-10, exact,
                      SOLVE_ATOL["transport"]))
    return ops


def continuation_ops(rng, golden, smoke=False):
    windows = {
        "heat-dirichlet": (-2.0, 1.0, 25),
        "heat-neumann": (-2.0, 1.0, 25),
        "kdv-one-bc": (-2.0, 1.0, 25),
        "kdv-two-bc": (-1.0, 1.0, 17),
        # 0.35 steps keep nodes off the tiling edges x = +-L (L in [0.9, 1.2])
        "heat-finite-interval": (-1.45, 2.75, 13),
        # |x| <= 0.14 takes the advected Taylor ladder past order 40 while
        # the derivative ladder stays near order 24 (order 50 costs ~13 s)
        "advected-heat": (-0.14, 0.5, 17),
    }
    ops = []
    for kind, (lo, hi, n) in windows.items():
        # four instances of each cheap family put the median op inside a
        # dense cluster; the advected one costs as much as the rest together
        copies = 1 if smoke or kind == "advected-heat" else 4
        if smoke and kind == "advected-heat":
            lo = -0.05
        for i in range(copies):
            problem, exact = _continuous(kind, rng)
            ops.append(_solve(f"map-initial/{kind}#{i}", kind, problem,
                              _grid(lo, hi, n, [1.0]), 1e-10, exact,
                              W0_ATOL[kind], command="map-initial"))
    for kind, which, parity in TAYLOR_FAMILIES:
        N = ODD_CENTER_N if parity == "odd-center" else TAYLOR_N
        if smoke:
            N = 12
        ops.append(taylor_op(kind, which, parity, N, golden))
    return ops


def _lattice_op(name, condition, rng):
    # the Neumann interior loses accuracy as h shrinks and the decay rate p
    # drops (see the lattice probe); seed where both kinds meet 1e-8
    h = 1.0 / rng.choice((40, 50, 60))
    m = LatticeMode(round(rng.uniform(1.1, 1.3), 3),
                    round(rng.uniform(3.0, 6.0), 3), h)
    kind = "sd-heat-dirichlet" if condition == "dirichlet" else "sd-heat-neumann"
    datum = ({"f0": m.trace()} if condition == "dirichlet"
             else {"f1": m.backward_slope_trace()})
    T = round(rng.uniform(0.05, 0.15), 3)
    cfg = {
        "problem": {"kind": kind, "u0": m.u0(), "h": h, **datum},
        "grid": {"n_min": -60, "n_max": 120, "times": [T]},
        "numerics": {"tol": 1e-10},
    }

    def exact(x, t, m=m):
        return m.u(round(x / m.h), t)

    return Op(name, "solve", check_exact("u_ac", exact, SOLVE_ATOL["lattice"]),
              config=cfg)


def lattice_ops(rng, golden, smoke=False):
    # more Neumann than Dirichlet solves: the two kinds differ in cost by
    # 2x, and the median op should not sit on the boundary between them
    ops = []
    for condition, count in (("dirichlet", 3), ("neumann", 11)):
        for i in range(1 if smoke else count):
            ops.append(_lattice_op(f"solve/sd-heat-{condition}#{i}",
                                   condition, rng))
    study = fixed_solve_op("sd_heat", 1e-10, golden, command="converge")
    # lattice nodes the study evaluates: its window is n_min..n_max at the
    # scenario's h = 0.05, sampled at each refinement spacing
    lo, hi = -20 * 0.05, 20 * 0.05
    study.points = sum(math.floor(hi / h) - math.ceil(lo / h) + 1
                       for h in (0.1, 0.05, 0.025))
    ops.append(study)
    return ops


def check_finite(values):
    """A failure message if any value is NaN or infinite."""
    bad = sum(not math.isfinite(v) for v in values)
    return [f"{bad} of {len(values)} values NaN or infinite"] if bad else []


def defect_probes(workload):
    """Requests that fail on this code, grouped by the workload whose layers
    they run; a traced run of that workload runs them after its measured
    passes and lists them by op.  No workload's op list contains them."""
    ops = []
    if workload == "sweep":
        for name, q, t in (("q=1.08", 1.08, 1.0), ("t=1.25", 1.0, 1.25)):
            # data frequency 8 q^3; q = 1 is the built-in kdv2_cos mode
            m = KdvMode(round(math.sqrt(3.0) * q, 4), q, -1)
            ops.append(_solve(
                f"solve/kdv-two-bc/{name}", "kdv-two-bc",
                {"u0": m.u0(), "f0": m.trace(), "f1": m.slope_trace()},
                _grid(-0.6, 0.6, 4, [t]), 1e-9, m.u,
                SOLVE_ATOL["kdv-two-bc"]))
    elif workload == "continuation":
        ops += [taylor_op(kind, which, parity, 200, {}, check=False)
                for kind, which, parity in (("heat-dirichlet", "f0", "even"),
                                            ("heat-neumann", "f1", "odd"),
                                            ("kdv-one-bc", "f0", "all"),
                                            ("kdv-two-bc", "f1", "odd"))]
        # the odd-center coefficient of order 93 is NaN
        odd = taylor_op("heat-finite-interval", "f0", "odd-center", 93, {},
                        check=False)
        odd.check = check_finite
        ops.append(odd)
        g = DriftingGaussian(1.0, 1.0)
        ops.append(_solve(
            "map-initial/heat-finite-interval/x=L", "heat-finite-interval",
            {"u0": g.u0(), "f0": g.trace(0.0), "g0": g.trace(1.0), "L": 1.0},
            _grid(-0.5, 1.0, 4, [1.0]), 1e-10, g.u,
            W0_ATOL["heat-finite-interval"], command="map-initial"))
        # drift a != 0 in the boundary trace: compiling its derivative of
        # order 41 exceeds the recursion limit (~50 s to get there)
        g = DriftingGaussian(1.0, 1.0, 1.0)
        ops.append(_solve(
            "map-initial/advected-heat/a=1,x=-0.3", "advected-heat",
            {"u0": g.u0(), "f0": g.trace(0.0), "c": 1.0},
            _grid(-0.3, -0.3, 1, [1.0]), 1e-10, g.u,
            W0_ATOL["advected-heat"], command="map-initial"))
    elif workload == "lattice":
        m = LatticeMode(1.0, 2.0, 1.0 / 200)
        ops.append(Op(
            "solve/sd-heat-neumann/h=1/200", "solve",
            check_exact("u_ac", lambda x, t: m.u(round(x / m.h), t),
                        SOLVE_ATOL["lattice"]),
            config={"problem": {"kind": "sd-heat-neumann", "u0": m.u0(),
                                "f1": m.backward_slope_trace(), "h": m.h},
                    "grid": {"n_min": -10, "n_max": 20, "times": [0.1]},
                    "numerics": {"tol": 1e-10}}))
    return ops


BUILDERS = {
    "sweep": sweep_ops,
    "continuation": continuation_ops,
    "lattice": lattice_ops,
}


def build(workload, seed, smoke=False, golden=None):
    """The workload's op list for ``seed``; the same seed gives the same ops."""
    rng = random.Random(f"{workload}:{seed}")
    golden = load_golden() if golden is None else golden
    return BUILDERS[workload](rng, golden, smoke)
