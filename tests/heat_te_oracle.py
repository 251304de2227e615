"""30-digit reference values of the built-in scenario heat_te at x >= 0.

heat_te is the half-line heat equation u_t = u_xx with u(x, 0) =
e^{-(x-1)^2} and the Dirichlet datum u(0, t) = t e^{-t}.  Its classical
solution is the image sum of the initial datum plus the single-layer
potential of the boundary datum,

    u(x, t) = int_0^inf u0(y) [G(x - y, t) - G(x + y, t)] dy
              + int_0^t f0(t - r) x e^{-x^2/(4r)} / (2 sqrt(pi) r^{3/2}) dr,

with G(x, t) = e^{-x^2/(4t)} / sqrt(4 pi t), and u(0, t) = f0(t).  Both
integrals are mpmath quadratures at 30 digits, split where their kernels
peak; the scenario's data are written out here by hand and nothing reads
utmcont, so the values check the program from outside.  Each value is
written with 20 significant digits, and its quadrature error estimate must
be below 1e-25.

    python tests/heat_te_oracle.py          # rewrite heat_te_oracle.csv
    python tests/heat_te_oracle.py --check  # exit 1 if the file differs
"""

import sys
from pathlib import Path

import mpmath as mp

mp.mp.dps = 30

OUT = Path(__file__).with_suffix(".csv")

# points of the scenario's solve grid, numpy's linspace(-4, 4, 81), as the
# CSV prints them, and its two times
POINTS = (0.0, 0.10000000000000053, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)
TIMES = (0.001, 1.0)


def u0(y):
    return mp.exp(-(y - 1) ** 2)


def f0(s):
    return s * mp.exp(-s)


def heat_kernel(x, t):
    return mp.exp(-x * x / (4 * t)) / mp.sqrt(4 * mp.pi * t)


def _quad(f, points):
    value, error = mp.quad(f, points, error=True)
    assert error < 1e-25, (points, error)
    return value


def initial_part(x, t):
    # G(x - y, t) peaks at y = x with width sqrt(t); u0 at y = 1
    width = mp.sqrt(t)
    points = {mp.mpf(0), mp.mpf(1)} | {
        x + k * width for k in (-12, -6, -3, -1, 0, 1, 3, 6, 12)
        if x + k * width > 0}
    return _quad(lambda y: u0(y) * (heat_kernel(x - y, t)
                                    - heat_kernel(x + y, t)),
                 sorted(points) + [mp.inf])


def boundary_part(x, t):
    if x == 0:
        return f0(t)
    # over r = t - s the kernel peaks at r = x^2/6
    points = {mp.mpf(0), t} | {r for r in (x * x / 24, x * x / 6, x * x / 1.5)
                               if r < t}
    return _quad(lambda r: f0(t - r) * x * mp.exp(-x * x / (4 * r))
                 / (2 * mp.sqrt(mp.pi) * r ** 1.5), sorted(points))


def table():
    lines = ["x,t,u"]
    for t in TIMES:
        for x in POINTS:
            xm, tm = mp.mpf(x), mp.mpf(t)
            u = initial_part(xm, tm) + boundary_part(xm, tm)
            lines.append(f"{x!r},{t!r},{mp.nstr(u, 20, strip_zeros=False)}")
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
