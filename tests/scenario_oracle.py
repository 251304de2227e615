"""30-digit reference values of the built-in scenarios heat_te, adv_te and
fi_te_inv inside their domains.

Each scenario's classical solution is evaluated in mpmath at 30 digits,
from data written out here by hand; nothing reads utmcont, so the values
check the program from outside.  With the heat kernel
G(x, t) = e^{-x^2/(4t)} / sqrt(4 pi t) and the half-line single-layer
potential of a boundary datum f at distance d >= 0,

    S_f(d, t) = int_0^t f(t - r) d e^{-d^2/(4r)} / (2 sqrt(pi) r^{3/2}) dr,
    S_f(0, t) = f(t),

the solutions are:

- heat_te, u_t = u_xx on x >= 0 with u(x, 0) = e^{-(x-1)^2} and
  u(0, t) = t e^{-t}: the image sum of the initial datum plus S_f0,

      u(x, t) = int_0^inf u0(y) [G(x - y, t) - G(x + y, t)] dy + S_f0(x, t);

- adv_te, u_t = u_xx + c u_x on x >= 0 with c = 1, u(x, 0) = e^{-x^2} and
  u(0, t) = t e^{-t}: the gauge u = E v, E(x, t) = e^{-cx/2 - c^2 t/4},
  turns it into heat_te's problem for v, with initial datum e^{cx/2} u0
  and boundary datum e^{c^2 t/4} f0, so u is E times that image sum plus
  that single layer;
- fi_te_inv, u_t = u_xx on [0, L] with L = 1, u(x, 0) = e^{-(x-1)^2},
  u(0, t) = t e^{-t} and u(L, t) = 1/(1 + t): the image sum of the odd
  2L-periodic initial datum plus the image sums of both single layers,

      u(x, t) = int_0^L u0(y) sum_j [G(x - y - 2jL, t) - G(x + y - 2jL, t)] dy
                + sum_{j>=0} [S_f0(x + 2jL, t) - S_f0(2(j+1)L - x, t)]
                + the same sum of S_g0 at the distance L - x from x = L,

  the images cut where e^{-d^2/(4t)} is below 1e-40.

Every integral is an mpmath quadrature split where its kernel peaks, whose
error estimate must be below 1e-25.  Each value is written with 20
significant digits.

    python tests/scenario_oracle.py          # rewrite scenario_oracle.csv
    python tests/scenario_oracle.py --check  # exit 1 if the file differs
"""

import sys
from pathlib import Path

import mpmath as mp

mp.mp.dps = 30

OUT = Path(__file__).with_suffix(".csv")


def heat_kernel(x, t):
    return mp.exp(-x * x / (4 * t)) / mp.sqrt(4 * mp.pi * t)


def _quad(f, points):
    value, error = mp.quad(f, points, error=True)
    assert error < 1e-25, (points, error)
    return value


def image_part(u0, peak, x, t):
    """int_0^inf u0(y) [G(x - y, t) - G(x + y, t)] dy for u0 peaked at
    ``peak``."""
    # G(x - y, t) peaks at y = x with width sqrt(t)
    width = mp.sqrt(t)
    points = {mp.mpf(0), mp.mpf(peak)} | {
        x + k * width for k in (-12, -6, -3, -1, 0, 1, 3, 6, 12)
        if x + k * width > 0}
    return _quad(lambda y: u0(y) * (heat_kernel(x - y, t)
                                    - heat_kernel(x + y, t)),
                 sorted(points) + [mp.inf])


def single_layer(f, d, t):
    """S_f(d, t), f(t) at d = 0."""
    if d == 0:
        return f(t)
    # over r = t - s the kernel peaks at r = d^2/6
    points = {mp.mpf(0), t} | {r for r in (d * d / 24, d * d / 6, d * d / 1.5)
                               if r < t}
    return _quad(lambda r: f(t - r) * d * mp.exp(-d * d / (4 * r))
                 / (2 * mp.sqrt(mp.pi) * r ** 1.5), sorted(points))


def heat_te(x, t):
    return (image_part(lambda y: mp.exp(-(y - 1) ** 2), 1, x, t)
            + single_layer(lambda s: s * mp.exp(-s), x, t))


def adv_te(x, t, c=1):
    # the gauged data: e^{cy/2} u0, which peaks at y = c/4, and
    # e^{c^2 s/4} f0
    initial = image_part(lambda y: mp.exp(c * y / 2 - y * y), mp.mpf(c) / 4,
                         x, t)
    boundary = single_layer(lambda s: mp.exp(c * c * s / 4) * s * mp.exp(-s),
                            x, t)
    return mp.exp(-c * x / 2 - c * c * t / 4) * (initial + boundary)


def fi_te_inv(x, t, L=1):
    # images past d = sqrt(4 t ln 1e40) add below 1e-40
    images = int(mp.sqrt(4 * t * mp.log(1e40)) / (2 * L)) + 2

    def periodic_kernel(y):
        return sum(heat_kernel(x - y - 2 * j * L, t)
                   - heat_kernel(x + y - 2 * j * L, t)
                   for j in range(-images, images + 1))

    def image_sum(f, y):
        return sum(single_layer(f, y + 2 * j * L, t)
                   - single_layer(f, 2 * (j + 1) * L - y, t)
                   for j in range(images))

    initial = _quad(lambda y: mp.exp(-(y - 1) ** 2) * periodic_kernel(y),
                    sorted({mp.mpf(0), x, mp.mpf(L)}))
    return (initial + image_sum(lambda s: s * mp.exp(-s), x)
            + image_sum(lambda s: 1 / (1 + s), L - x))


# scenario: (solution, points, times); the points lie on the scenario's
# solve grid (numpy's linspace) as the CSV prints them, at x >= 0
SCENARIOS = {
    "heat_te": (heat_te, (0.0, 0.10000000000000053, 0.5, 1.0, 1.5, 2.0, 2.5,
                          3.0, 3.5, 4.0), (0.001, 1.0)),
    "adv_te": (adv_te, (0.0, 0.5, 1.0, 1.5, 2.0), (1.0,)),
    "fi_te_inv": (fi_te_inv, (0.0, 0.25, 0.5, 0.75, 1.0), (1.0,)),
}


def table():
    lines = ["scenario,x,t,u"]
    for name, (solution, points, times) in SCENARIOS.items():
        for t in times:
            for x in points:
                u = solution(mp.mpf(x), mp.mpf(t))
                lines.append(f"{name},{x!r},{t!r},"
                             f"{mp.nstr(u, 20, strip_zeros=False)}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        if OUT.read_text() != table():
            sys.exit(f"{OUT.name} differs from the values this script "
                     "computes")
    elif sys.argv[1:]:
        sys.exit(__doc__)
    else:
        OUT.write_text(table())
