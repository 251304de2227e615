"""Closed-form data expressions: parsing, evaluation and Taylor jets.

Boundary and initial data (f0, f1, g0, u0) enter every coefficient formula
through their derivatives, often to high order.  The grammar is read by
Python's own parser, with ``^`` as ``**``: constants (including ``pi``),
one free variable, ``+ - * /``, powers with constant exponents, and
``exp, sin, cos, sinh, cosh, sqrt``.

Trees are canonicalized on construction: constants fold, products flatten,
merge repeated bases into powers and their exponentials into one, and
distribute over sums; sums flatten and collect like terms.  Values come
from one evaluator, the tree compiled once to numpy code; derivatives of
any order come from truncated Taylor series (jets) propagated over the
tree, f^(k)(x)/k! for k up to the requested order at every point at once.
"""

from __future__ import annotations

import ast
import math
import re

import numpy as np

__all__ = [
    "Expression",
    "DerivativeCache",
    "ExprSyntaxError",
    "ExprDomainError",
    "DerivativeOrderError",
    "parse",
]

MAX_DERIVATIVE_ORDER = 200

_FUNCTIONS = ("exp", "sin", "cos", "sinh", "cosh", "sqrt")


class ExprSyntaxError(ValueError):
    """Malformed expression text, with the character offset of the problem."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class ExprDomainError(ArithmeticError):
    """Evaluation hit a pole, an even root of a negative number, or overflow."""


class DerivativeOrderError(ValueError):
    """Requested derivative order exceeds the configured maximum."""


# ---------------------------------------------------------------------------
# Canonical tree nodes
# ---------------------------------------------------------------------------


class _Node:
    __slots__ = ("_key",)

    def __eq__(self, other):
        return isinstance(other, _Node) and self._key == other._key

    def __hash__(self):
        return hash(self._key)


def _finite(value):
    """value as a float, refused past the float range where it is built."""
    value = float(value)
    if not math.isfinite(value):
        raise ExprDomainError(f"non-finite constant {value}")
    return value


class _Num(_Node):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = _finite(value)
        self._key = ("num", self.value)


class _Var(_Node):
    __slots__ = ()

    def __init__(self):
        self._key = ("var",)


class _Fn(_Node):
    __slots__ = ("name", "arg")

    def __init__(self, name, arg):
        self.name = name
        self.arg = arg
        self._key = ("fn", name, arg._key)


class _Pow(_Node):
    # Exponents are constant reals; bases are Var/Fn/Add or an unexpandable Mul.
    __slots__ = ("base", "expo")

    def __init__(self, base, expo):
        self.base = base
        self.expo = _finite(expo)
        self._key = ("pow", base._key, self.expo)


class _Mul(_Node):
    # coeff * prod(base**expo); factors sorted by key, no _Num factors.
    __slots__ = ("coeff", "factors")

    def __init__(self, coeff, factors):
        self.coeff = _finite(coeff)
        self.factors = tuple(factors)
        self._key = ("mul", self.coeff, tuple((b._key, e) for b, e in self.factors))


class _Add(_Node):
    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = tuple(terms)
        self._key = ("add", tuple(t._key for t in self.terms))


_ZERO = _Num(0.0)
_ONE = _Num(1.0)
_VAR = _Var()


def _is_int(x):
    return abs(x - round(x)) < 1e-12 and abs(x) < 1e15


# ---------------------------------------------------------------------------
# Smart constructors (canonicalization happens here)
# ---------------------------------------------------------------------------


def _as_factors(node):
    """Decompose a node into (coeff, tuple of (base, expo)) for product merging."""
    if isinstance(node, _Num):
        return node.value, ()
    if isinstance(node, _Mul):
        return node.coeff, node.factors
    if isinstance(node, _Pow):
        return 1.0, ((node.base, node.expo),)
    return 1.0, ((node, 1.0),)


def _mul_from(coeff, factors):
    if coeff == 0.0:
        return _ZERO
    if not factors:
        return _Num(coeff)
    if coeff == 1.0 and len(factors) == 1:
        return _pow(*factors[0])
    return _Mul(coeff, factors)


def _mul(*nodes):
    coeff = 1.0
    merged = {}  # base key: (base, summed exponent), in order of appearance
    for node in nodes:
        c, facs = _as_factors(node)
        coeff *= c
        for base, expo in facs:
            _, seen = merged.get(base._key, (base, 0.0))
            merged[base._key] = (base, seen + expo)
    if coeff == 0.0:
        return _ZERO
    exps = [(b, e) for b, e in merged.values() if _is_exp(b)]
    if len(exps) > 1 or (exps and exps[0][1] != 1.0):
        # exp(a)^p * exp(b)^q = exp(p*a + q*b)
        arg = _add(*[_mul(_Num(e), b.arg) for b, e in exps])
        rest = [_Pow(b, e) for b, e in merged.values() if not _is_exp(b)]
        return _mul(_Num(coeff), _fn("exp", arg), *rest)
    factors = []
    adds_to_expand = []
    for base, expo in merged.values():
        if expo == 0.0:
            continue
        if isinstance(base, _Add) and expo > 0 and _is_int(expo) and expo <= 16:
            adds_to_expand.append((base, int(round(expo))))
        else:
            factors.append((base, expo))
    factors.sort(key=lambda f: (f[0]._key, f[1]))
    result = _mul_from(coeff, tuple(factors))
    for base, n in adds_to_expand:
        for _ in range(n):
            result = _add(*[_mul(result, t) for t in base.terms])
    return result


def _is_exp(node):
    return isinstance(node, _Fn) and node.name == "exp"


def _add(*nodes):
    const = 0.0
    parts = {}  # part key: (summed coefficient, part)
    for node in nodes:
        todo = node.terms if isinstance(node, _Add) else (node,)
        for t in todo:
            if isinstance(t, _Num):
                const += t.value
                continue
            c, part = ((t.coeff, _mul_from(1.0, t.factors))
                       if isinstance(t, _Mul) else (1.0, t))
            total, _ = parts.get(part._key, (0.0, part))
            parts[part._key] = (total + c, part)
    terms = []
    for k in sorted(parts):
        c, part = parts[k]
        if c == 0.0:
            continue
        terms.append(_mul(_Num(c), part))
    if const != 0.0 or not terms:
        terms.append(_Num(const))
    if len(terms) == 1:
        return terms[0]
    return _Add(tuple(terms))


def _pow(base, expo):
    expo = float(expo)
    if expo == 0.0:
        return _ONE
    if expo == 1.0:
        return base
    if isinstance(base, _Num):  # ValueError for (-2)^0.5 and 0^-1
        return _Num(math.pow(base.value, expo))
    if isinstance(base, _Pow):
        return _pow(base.base, base.expo * expo)
    if _is_exp(base):
        return _fn("exp", _mul(_Num(expo), base.arg))
    if isinstance(base, _Mul) and _is_int(expo):
        n = int(round(expo))
        return _mul(_Num(base.coeff**n), *[_pow(b, e * n) for b, e in base.factors])
    if isinstance(base, _Add) and _is_int(expo) and 1 < expo <= 16:
        out = base
        for _ in range(int(round(expo)) - 1):
            out = _mul(out, base)
        return out
    return _Pow(base, expo)


def _fn(name, arg):
    if isinstance(arg, _Num):
        return _Num(getattr(math, name)(arg.value))
    if name == "sqrt":
        return _pow(arg, 0.5)
    return _Fn(name, arg)


# ---------------------------------------------------------------------------
# Taylor jets: J[k] = f^(k)(x)/k! for k = 0..n at each point of a 1-D x, by
# the truncated Taylor recurrences (Griewank & Walther, Evaluating
# Derivatives, ch. 13).  A product fuses its exp, sin, cos, sinh and cosh
# factors into one sum of exponentials, so no Cauchy product of two growing
# or oscillating series cancels.  Sums over the order index run in one fixed
# sequence and every other step is elementwise, so an entry depends neither
# on the jet's order nor on the other points.
# ---------------------------------------------------------------------------

# f(a) = sum of coefficient * exp(multiplier * a)
_WAVES = {
    "exp": ((1.0, 1.0),),
    "sinh": ((0.5, 1.0), (-0.5, -1.0)),
    "cosh": ((0.5, 1.0), (0.5, -1.0)),
    "sin": ((-0.5j, 1j), (0.5j, -1j)),
    "cos": ((0.5, 1j), (0.5, -1j)),
}


def _is_linear(node):
    if isinstance(node, _Add):
        return all(_is_linear(t) for t in node.terms)
    return isinstance(node, (_Num, _Var)) or (
        isinstance(node, _Mul) and node.factors == ((_VAR, 1.0),))


def _is_wave(base, expo):
    return isinstance(base, _Fn) and expo > 0 and _is_int(expo)


def _jet(node, x, n):
    if isinstance(node, _Var):
        out = np.zeros((n + 1, len(x)))
        out[0] = x
        out[1:2] = 1.0
        return out
    if isinstance(node, _Add):
        return sum((_jet(t, x, n) for t in node.terms[1:]),
                   _jet(node.terms[0], x, n))
    coeff, factors = _as_factors(node)
    waves = [(b, int(round(e))) for b, e in factors if _is_wave(b, e)]
    out = _wave_jet(waves, x, n) if waves else None
    for base, expo in factors:
        if not _is_wave(base, expo):
            factor = _power_jet(base, expo, x, n)
            out = factor if out is None else _cauchy(factor, out)
    if out is None:
        out = np.zeros((n + 1, len(x)))
        out[0] = 1.0
    return coeff * out


def _wave_jet(waves, x, n):
    """Jet of a product of positive integer powers of exp, sin, cos, sinh
    and cosh: the real part of a sum of exponentials of argument jets."""
    args = list(dict.fromkeys(fn.arg for fn, _ in waves))
    terms = {(0,) * len(args): 1.0}  # multipliers of the args: coefficient
    for fn, power in waves:
        slot = args.index(fn.arg)
        for _ in range(power):
            grown = {}
            for mult, c in terms.items():
                for wc, wm in _WAVES[fn.name]:
                    key = mult[:slot] + (mult[slot] + wm,) + mult[slot + 1:]
                    grown[key] = grown.get(key, 0) + c * wc
            terms = grown
    jets = [_jet(a, x, n) for a in args]
    linear = all(map(_is_linear, args))
    total, done = 0.0, set()
    for mult, c in terms.items():
        # the terms pair up with their conjugates: take one of each, twice
        partner = tuple(complex(m).conjugate() for m in mult)
        if c == 0 or partner in done:
            continue
        done.add(mult)
        expo = sum((m * jet for m, jet in zip(mult, jets) if m != 0),
                   np.zeros((n + 1, len(x))))
        weight = c if partner == mult else 2 * c
        total = total + weight * _exp_jet(expo, linear)
    return np.real(total)


def _exp_jet(a, linear):
    """Jet of exp(a) from the jet of a."""
    if linear:
        # e^{a0 + a1 h} = e^{a0} sum (a1 h)^k / k!
        out = np.empty_like(a)
        out[0] = np.exp(a[0])
        out[1:] = a[1:2] / np.arange(1, len(a))[:, None]
        return np.cumprod(out, axis=0)
    return _recurrence(a, np.exp(a[0]), 1.0)


def _power_jet(base, expo, x, n):
    """Jet of base**expo."""
    if expo > 0 and _is_int(expo):
        # the power recurrence cancels badly for positive integer powers
        a = out = _jet(base, x, n)
        for _ in range(int(round(expo)) - 1):
            out = _cauchy(a, out)
        return out
    if _is_linear(base):
        # (a0 + a1 h)^expo: b_k = b_{k-1} (expo - k + 1) / k * a1 / a0
        a = _jet(base, x, 1)
        k = np.arange(1, n + 1)[:, None]
        out = np.empty((n + 1, len(x)))
        out[0] = a[0] ** expo
        out[1:] = (expo - k + 1) / k * (a[1] / a[0])
        return np.cumprod(out, axis=0)
    a = _jet(base, x, n)
    return _recurrence(a, a[0] ** expo, a[0],
                       lambda j, k: (expo + 1) * j - k)


def _recurrence(a, b0, scale, weight=None):
    """The jet b with b_0 = b0 and k scale b_k = sum_{j=1}^{k} weight(j, k)
    a_j b_{k-j}; each sum gathers its terms as the b_m become known.  With
    no ``weight`` it is j (the exponential's), and the products j a_j come
    from one table."""
    n = len(a) - 1
    top = np.flatnonzero(a[1:].any(axis=1)).max(initial=-1) + 1
    out = np.empty(a.shape, np.result_type(a, b0))
    out[0] = b0
    acc = np.zeros_like(out[1:])
    if weight is None:
        weighted = np.arange(1, top + 1)[:, None] * a[1:top + 1]
    for m in range(n):
        hi = min(n, m + top)
        if weight is None:
            terms = weighted[:hi - m]
        else:
            k = np.arange(m + 1, hi + 1)[:, None]
            terms = weight(k - m, k) * a[1:hi - m + 1]
        acc[m:hi] += terms * out[m]
        out[m + 1] = acc[m] / ((m + 1) * scale)
    return out


def _cauchy(a, b):
    """Truncated product of two jets: entry k sums a_j b_{k-j} over
    j = 0, 1, ..., k in turn (past the last nonzero a_j only zeros), and
    reads no entry of a or b past k."""
    n, points = b.shape
    terms = np.flatnonzero(a.any(axis=1)).max(initial=0) + 1
    padded = np.concatenate([np.zeros((terms - 1, points)), b])
    # shifted[j, k, p] = b[k - j, p] where k >= j
    shifted = np.lib.stride_tricks.sliding_window_view(padded, n, axis=0)
    shifted = shifted[::-1].transpose(0, 2, 1)
    lower = (np.arange(n) >= np.arange(terms)[:, None])[:, :, None]
    out = np.empty_like(b)
    step = max(1, (1 << 18) // (terms * n))  # a block stays under 2 MB
    for lo in range(0, points, step):
        part = slice(lo, min(points, lo + step))
        block = np.zeros((terms, n, part.stop - lo))
        np.multiply(a[:terms, None, part], shifted[:, :, part], out=block,
                    where=lower)
        # a reduction over the leading axis adds whole rows in turn
        out[:, part] = np.add.reduce(block.reshape(terms, -1),
                                     axis=0).reshape(n, -1)
    return out


def _taylor(node, x, n):
    """The jet of node at the 1-D points x to order n."""
    with np.errstate(all="ignore"):
        return _jet(node, np.asarray(x, dtype=float), n)


# k! for k <= 170, the last factorial in range
_FACTORIALS = np.array([float(math.factorial(k)) for k in range(171)])


def _from_taylor(rows, lo):
    """n! * coeff for the rows of Taylor coefficients of orders n = lo,
    lo + 1, ...: the derivatives, one row per order, unchecked."""
    rows = np.array(rows, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        # each row times 171, ..., n in turn, then min(n, 170)!
        for m in range(171, lo + len(rows)):
            rows[max(m - lo, 0):] *= m
        return rows * _FACTORIALS[np.minimum(np.arange(lo, lo + len(rows)),
                                             170), None]


# ---------------------------------------------------------------------------
# Evaluation: the tree compiled once to numpy code, and its text
# ---------------------------------------------------------------------------


def _shaped_like(value, x):
    """value, repeated over the shape of x if it is a constant's."""
    if np.ndim(value) == 0 and np.ndim(x) > 0:
        return np.full(np.shape(x), value)
    return value


def _check_finite(value):
    if not np.all(np.isfinite(value)):
        raise ExprDomainError("evaluation produced a non-finite value")
    return value


def _complex_safe(node):
    """True when evaluation at complex points is single-valued (no fractional
    powers of variable quantities, whose principal branch would be ambiguous)."""
    if isinstance(node, _Add):
        return all(map(_complex_safe, node.terms))
    if isinstance(node, _Fn):
        return _complex_safe(node.arg)
    if isinstance(node, (_Mul, _Pow)):
        return all(_is_int(e) and _complex_safe(b)
                   for b, e in _as_factors(node)[1])
    return True


def _emit(node, var="x", fn="np."):
    """Fully parenthesized text of a node: numpy code by default, and with
    ``fn=""`` expression text that reparses to a pointwise-equal
    expression."""
    if isinstance(node, _Num):
        return repr(node.value)
    if isinstance(node, _Var):
        return var
    if isinstance(node, _Add):
        return "(" + "+".join(_emit(t, var, fn) for t in node.terms) + ")"
    if isinstance(node, _Mul):
        parts = [] if node.coeff == 1.0 else [repr(node.coeff)]
        for base, expo in node.factors:
            parts.append(_emit(_Pow(base, expo) if expo != 1.0 else base,
                               var, fn))
        return "(" + "*".join(parts) + ")"
    if isinstance(node, _Pow):
        base = _emit(node.base, var, fn)
        if _is_int(node.expo):
            return f"({base}**{int(round(node.expo))})"
        # numpy's power: nan, not a complex number, for a negative float
        return (f"np.power({base}, {node.expo!r})" if fn
                else f"({base}**{node.expo!r})")
    if isinstance(node, _Fn):
        return f"{fn}{node.name}({_emit(node.arg, var, fn)})"
    raise TypeError(f"unknown node {node!r}")


def _compile(node):
    code = compile(_emit(node), "<expression>", "eval")
    consts = {"np": np}

    def call(x):
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            out = eval(code, consts, {"x": x})
        return _shaped_like(out, x)

    return call


# ---------------------------------------------------------------------------
# Parser: Python's own, with ^ read as **, and a whitelist walk of its tree
# ---------------------------------------------------------------------------

_NUMBER = re.compile(r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")
_STRAY = re.compile(r"[^\w\s+\-*/^().]")  # Python also reads , # : and more
_UNBALANCED = ("'(' was never closed", "unmatched ')'")


class _Reader:
    """Python's syntax tree of expression text, walked over a whitelist of
    its nodes into the canonical tree by the smart constructors, in reading
    order.  Offsets are character offsets into the caller's text."""

    def __init__(self, text, var_name):
        self.line = re.sub(r"\s", " ", text)  # one line: no newline ends it
        self.lead = len(self.line) - len(self.line.lstrip(" "))
        self.source = self.line[self.lead:].replace("^", "**").encode()
        self.var_name = var_name
        try:
            self.body = ast.parse(self.source, mode="eval").body
        except SyntaxError as err:
            message = ("expression nested too deeply" if "nested" in err.msg
                       else "unbalanced parenthesis" if err.msg in _UNBALANCED
                       else err.msg)
            self.error(message, max((err.offset or 1) - 1, 0))

    def error(self, message, at):
        """Refuse the text at ``at``: a node, or a byte offset into source."""
        at = getattr(at, "col_offset", at)
        # the index into text of each character of source
        origin = [i for i, ch in enumerate(self.line) if i >= self.lead
                  for _ in range(1 + (ch == "^"))] + [len(self.line)]
        char = len(self.source[:at].decode(errors="ignore"))
        raise ExprSyntaxError(message, origin[char])

    def text(self, node):
        return self.source[node.col_offset:node.end_col_offset].decode()

    def walk(self, node):
        spine = []  # a chain of binary operators, read without recursion
        while isinstance(node, ast.BinOp):
            spine.append(node)
            node = node.left
        try:
            out = self.leaf(node)
            for node in reversed(spine):
                out = self.binary(node, out, self.walk(node.right))
        except ExprSyntaxError:
            raise
        except (ArithmeticError, ValueError) as err:
            # a constant that does not fold: an error of the text at node
            self.error(str(err), node)
        return out

    def binary(self, node, left, right):
        op = type(node.op)
        if op is ast.Pow:
            if not isinstance(right, _Num):
                self.error("exponent must be constant", node.right)
            return _pow(left, right.value)
        if op is ast.Div:
            if right == _ZERO:
                self.error("division by constant zero", node.right)
            right = (_Num(1.0 / right.value) if isinstance(right, _Num)
                     else _pow(right, -1.0))
        elif op is ast.Sub:
            right = _mul(_Num(-1.0), right)
        elif op not in (ast.Add, ast.Mult):
            self.error(f"unsupported syntax {self.text(node)!r}", node)
        return (_add if op in (ast.Add, ast.Sub) else _mul)(left, right)

    def leaf(self, node):
        kind = type(node)
        if kind is ast.UnaryOp and type(node.op) in (ast.USub, ast.UAdd):
            arg = self.walk(node.operand)
            return _mul(_Num(-1.0), arg) if type(node.op) is ast.USub else arg
        text = self.text(node)
        if kind is ast.Constant and _NUMBER.fullmatch(text):
            return _Num(float(text))
        if (kind is ast.Call and type(node.func) is ast.Name
                and node.func.col_offset == node.col_offset
                and self.text(node.func) in _FUNCTIONS and len(node.args) == 1
                and not node.keywords):
            return _fn(self.text(node.func), self.walk(node.args[0]))
        # a name starts with a letter or _ (Python would also take Ⅻ)
        if not (kind is ast.Name and (text[0].isalpha() or text[0] == "_")):
            self.error(f"unsupported syntax {text!r}", node)
        if text in _FUNCTIONS:
            self.error(f"function '{text}' requires parentheses", node)
        if text == "pi":
            return _Num(math.pi)
        if self.var_name is None:
            self.var_name = text
        elif text != self.var_name:
            self.error(f"unknown identifier '{text}' (variable already bound "
                       f"to '{self.var_name}')", node)
        return _VAR


# ---------------------------------------------------------------------------
# Public facade
# ---------------------------------------------------------------------------


class Expression:
    """Immutable closed-form expression of one real variable."""

    def __init__(self, node, var_name="x"):
        self._node = node
        self.var_name = var_name

    def eval(self, x):
        """Evaluate at a real point or numpy array of points (x's shape)."""
        try:
            return _check_finite(self.compiled()(x))
        except ZeroDivisionError:
            raise ExprDomainError("division by zero") from None
        except OverflowError:  # a Python float's power past the float range
            raise ExprDomainError("evaluation overflowed") from None

    def compiled(self):
        """Unchecked numpy callable of this expression, built once: what
        ``eval`` checks, for transforms and cross-checks."""
        fn = getattr(self, "_compiled", None)
        if fn is None:
            fn = _compile(self._node)
            self._compiled = fn
        return fn

    def eval_complex(self, z):
        """Evaluate at complex points; requires a single-valued continuation."""
        if not _complex_safe(self._node):
            raise ExprDomainError(
                "expression has fractional powers; complex evaluation is "
                "branch-ambiguous and refused"
            )
        return self.eval(np.asarray(z, dtype=complex) + 0j)

    def to_text(self):
        return _emit(self._node, self.var_name, "")

    def __mul__(self, other):
        if isinstance(other, Expression):
            return Expression(_mul(self._node, other._node), self.var_name)
        return Expression(_mul(_Num(other), self._node), self.var_name)

    __rmul__ = __mul__

    def __repr__(self):
        return f"Expression({self.to_text()!r})"


class _Derivative:
    """The ``order``-th derivative of an expression, evaluated from its jet
    at a point or an array of points."""

    def __init__(self, expression, order):
        self._node, self.order = expression._node, order

    def eval(self, x):
        xs = np.asarray(x, dtype=float)
        jet = _taylor(self._node, xs.ravel(), self.order)
        return _check_finite(_from_taylor(jet[self.order:], self.order)[0]
                             .reshape(xs.shape)[()])


class DerivativeCache:
    """Derivatives of one expression, computed from its Taylor jets.

    ``derivative(k)`` is the k-th derivative (entry 0 is the expression
    itself).  ``at`` memoizes the derivatives at a scalar point in one
    array, which a read past its end extends by one jet to order
    max(2k, 16), so a ladder read in increasing order costs a few jets, not
    one per order; ``value`` reads one derivative from it, and ``through``
    every order up to one, checked.
    """

    def __init__(self, expression):
        self.base = expression
        self._ladder = [expression]
        self._values = {}

    def derivative(self, order):
        if order > MAX_DERIVATIVE_ORDER:
            raise DerivativeOrderError(
                f"order {order} exceeds maximum {MAX_DERIVATIVE_ORDER}"
            )
        while len(self._ladder) <= order:
            self._ladder.append(_Derivative(self.base, len(self._ladder)))
        return self._ladder[order]

    def derivatives(self, lo, hi, x):
        """The derivatives of orders lo..hi, 1 <= lo, at the 1-D points x,
        one row per order, from one jet to order hi, unchecked: row k - lo
        has the bits of ``derivative(k).eval(x)`` wherever that is finite.
        Order 0 is refused: the jet's value is not the compiled one."""
        if lo < 1:
            raise ValueError("derivatives start at order 1")
        self.derivative(hi)  # the order cap
        return _from_taylor(_taylor(self.base._node, x, hi)[lo:], lo)

    def at(self, x, order):
        """The memoized derivatives f^(1)(x), f^(2)(x), ... at the point x,
        one read-only array (entry k - 1 is order k), unchecked, through
        order ``order`` at least: a read past its end first computes one jet
        to order max(2 order, 16), capped, and appends the orders it adds."""
        x = float(x)
        held = self._values.get(x, ())
        if len(held) < order:
            self.derivative(order)  # the order cap
            top = min(MAX_DERIVATIVE_ORDER, max(2 * order, 16))
            held = np.concatenate(
                (held, self.derivatives(len(held) + 1, top, [x])[:, 0]))
            held.flags.writeable = False
            self._values[x] = held
        return held

    def value(self, order, x):
        """Derivative value at the point x (the boundary formulas reuse
        f^(p)(0) and f^(p)(T) heavily), read from ``at`` past order 0;
        ExprDomainError where it is not finite.  An array of points reads
        ``derivative(order).eval`` or ``derivatives``."""
        if order == 0:
            return float(self.base.eval(float(x)))
        value = float(self.at(x, order)[order - 1])
        if not math.isfinite(value):
            raise ExprDomainError("evaluation produced a non-finite value")
        return value

    def through(self, x, order):
        """The values f(x), f'(x), ..., f^(order)(x), one array read from
        ``value`` and ``at``; ExprDomainError where ``value`` raises it."""
        out = np.concatenate(([self.value(0, x)], self.at(x, order)[:order]))
        return _check_finite(out)


def parse(text, var_name=None):
    """Parse expression text into an :class:`Expression`.

    The single free variable is inferred from the text; ``var_name`` pins it
    (parsing fails if the text uses a different name).
    """
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    if stray := _STRAY.search(text):
        raise ExprSyntaxError(f"unexpected character {stray[0]!r}",
                              stray.start())
    try:
        reader = _Reader(text, var_name)
        expr = Expression(reader.walk(reader.body), reader.var_name or "x")
        # compiled here: its numpy code nests deeper than the text, and
        # Python's compiler refuses past 200 parentheses
        expr.compiled()
    except (RecursionError, MemoryError, SyntaxError):
        raise ExprSyntaxError("expression nested too deeply", 0) from None
    return expr
