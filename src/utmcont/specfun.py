"""Special functions backing the kernel and coefficient formulas.

Gamma, the lower incomplete gamma, and the scaled modified Bessel function of
the first kind are thin wrappers over scipy.special with the domain contracts
the solvers rely on.  The gamma-ratio weights of the lattice continuation
formulas are evaluated through pole-free telescoping products instead of gamma
quotients, so no limits at negative integers are ever taken numerically.

The import of scipy.special is deferred: each wrapper imports it when
called, so a process that evaluates none of them never loads scipy.  All
functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "gamma",
    "log_gamma",
    "lower_incomplete_gamma",
    "regularized_lower_gamma",
    "bessel_i_scaled",
    "gamma_ratio",
    "reflection_product_dirichlet",
    "reflection_product_neumann",
    "GammaPoleError",
    "SpecfunDomainError",
    "IndexRangeError",
]


class GammaPoleError(ValueError):
    """Gamma requested at a non-positive integer."""


class SpecfunDomainError(ValueError):
    """Argument outside the supported domain."""


class IndexRangeError(ValueError):
    """Index outside the finite-sum range of a continuation formula."""


def gamma(s):
    """Gamma function for real s away from the poles at 0, -1, -2, ..."""
    s = float(s)
    if s <= 0 and s == round(s):
        raise GammaPoleError(f"gamma pole at s={s}")
    from scipy import special
    return float(special.gamma(s))


def log_gamma(s):
    """(log|Gamma(s)|, sign) for real s; use for ratios beyond overflow range."""
    s = float(s)
    if s <= 0 and s == round(s):
        raise GammaPoleError(f"gamma pole at s={s}")
    from scipy import special
    return float(special.gammaln(s)), float(special.gammasgn(s))


def lower_incomplete_gamma(s, y):
    """gamma(s, y) = integral of u^(s-1) e^-u over (0, y); s > 0, y >= 0."""
    s = float(s)
    y = float(y)
    if s <= 0:
        raise SpecfunDomainError(f"lower incomplete gamma requires s > 0, got {s}")
    if y < 0:
        raise SpecfunDomainError(f"lower incomplete gamma requires y >= 0, got {y}")
    from scipy import special
    return float(special.gammainc(s, y)) * gamma(s)


def regularized_lower_gamma(s, y):
    """gamma(s, y)/Gamma(s), overflow-safe for large s."""
    s = float(s)
    y = float(y)
    if s <= 0:
        raise SpecfunDomainError(f"regularized lower gamma requires s > 0, got {s}")
    if y < 0:
        raise SpecfunDomainError(f"regularized lower gamma requires y >= 0, got {y}")
    from scipy import special
    return float(special.gammainc(s, y))


def bessel_i_scaled(n, a):
    """e^-a I_n(a) for integer order n (any sign) and a >= 0.

    The order symmetry I_-n = I_n is applied up front so both signs share one
    code path.  Accepts scalars or arrays in ``a``.
    """
    n = abs(int(n))
    arr = np.asarray(a, dtype=float)
    if np.any(arr < 0):
        raise SpecfunDomainError("bessel_i_scaled requires a >= 0")
    from scipy import special
    out = special.ive(n, arr)
    if np.ndim(a) == 0:
        return float(out)
    return out


def reflection_product_dirichlet(nu, p):
    """prod_{l=0}^{p-1} (nu - l)(nu + l), the weight nu*G(p+nu)/G(1+nu-p).

    Equals 1 for p = 0, vanishes for p > nu, and is integer-exact for small
    arguments.  Used by the lattice Dirichlet continuation sum.
    """
    nu = int(nu)
    p = int(p)
    if p < 0:
        raise IndexRangeError("p must be >= 0")
    out = 1.0
    for el in range(p):
        out *= (nu - el) * (nu + el)
    return out


def reflection_product_neumann(n, p):
    """prod_{l=0}^{p-1} (n + l)(n - 1 - l), the weight G(p+n)/G(n-p).

    Equals 1 for p = 0.  Used by the lattice Neumann continuation sum.
    """
    n = int(n)
    p = int(p)
    if p < 0:
        raise IndexRangeError("p must be >= 0")
    out = 1.0
    for el in range(p):
        out *= (n + el) * (n - 1 - el)
    return out


def gamma_ratio(p, n):
    """The ratio G(p-n)/(G(1-n-p) G(2p+1)) from the lattice continuation sum,
    evaluated pole-free for the finite-sum index range 0 <= p <= -n, n < 0.
    """
    p = int(p)
    n = int(n)
    if n >= 0:
        raise IndexRangeError("gamma_ratio is defined for n < 0")
    if not 0 <= p <= -n:
        raise IndexRangeError(f"p={p} outside finite-sum range [0, {-n}]")
    nu = -n
    return reflection_product_dirichlet(nu, p) / (nu * math.factorial(2 * p))
