"""Closed-form data expressions: parsing, exact differentiation, evaluation.

Boundary and initial data (f0, f1, g0, u0) enter every coefficient formula
through their derivatives, often to high order, so expressions are kept
symbolic and differentiated exactly.  The grammar covers constants (including
``pi``), one free variable, ``+ - * /``, powers with constant exponents, and
``exp, sin, cos, sinh, cosh, sqrt``, closed under differentiation.

Trees are canonicalized on construction: constants fold, products flatten and
merge repeated bases into powers, sums flatten and collect like terms.  This
keeps the derivative sequence of the supported data class (polynomial x
exponential x trigonometric, rational powers of linear factors) at polynomial
size in the derivative order.
"""

from __future__ import annotations

import math

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

_NUMPY_FN = {
    "exp": np.exp,
    "sin": np.sin,
    "cos": np.cos,
    "sinh": np.sinh,
    "cosh": np.cosh,
}


class ExprSyntaxError(ValueError):
    """Malformed expression text; carries the byte offset of the problem."""

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

    def key(self):
        return self._key

    def __eq__(self, other):
        return isinstance(other, _Node) and self._key == other._key

    def __hash__(self):
        return hash(self._key)


class _Num(_Node):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = float(value)
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
        self._key = ("fn", name, arg.key())


class _Pow(_Node):
    # Exponents are constant reals; bases are Var/Fn/Add or an unexpandable Mul.
    __slots__ = ("base", "expo")

    def __init__(self, base, expo):
        self.base = base
        self.expo = float(expo)
        self._key = ("pow", base.key(), self.expo)


class _Mul(_Node):
    # coeff * prod(base**expo); factors sorted by key, no _Num factors.
    __slots__ = ("coeff", "factors")

    def __init__(self, coeff, factors):
        self.coeff = float(coeff)
        self.factors = tuple(factors)
        self._key = ("mul", self.coeff, tuple((b.key(), e) for b, e in self.factors))


class _Add(_Node):
    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = tuple(terms)
        self._key = ("add", tuple(t.key() for t in self.terms))


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
    if coeff == 1.0 and len(factors) == 1 and factors[0][1] == 1.0:
        return factors[0][0]
    if len(factors) == 1 and factors[0][1] != 1.0 and coeff == 1.0:
        return _pow(factors[0][0], factors[0][1])
    return _Mul(coeff, factors)


def _mul(*nodes):
    coeff = 1.0
    merged = {}
    order = []
    stack = list(nodes)
    for node in stack:
        c, facs = _as_factors(node)
        coeff *= c
        for base, expo in facs:
            k = base.key()
            if k in merged:
                b0, e0 = merged[k]
                merged[k] = (b0, e0 + expo)
            else:
                merged[k] = (base, expo)
                order.append(k)
    if coeff == 0.0:
        return _ZERO
    factors = []
    adds_to_expand = []
    for k in order:
        base, expo = merged[k]
        if expo == 0.0:
            continue
        if isinstance(base, _Add) and expo > 0 and _is_int(expo) and expo <= 16:
            adds_to_expand.append((base, int(round(expo))))
        else:
            factors.append((base, expo))
    factors.sort(key=lambda f: (f[0].key(), f[1]))
    result = _mul_from(coeff, tuple(factors))
    for base, n in adds_to_expand:
        for _ in range(n):
            result = _distribute(result, base)
    return result


def _distribute(node, add):
    return _add(*[_mul(node, t) for t in add.terms])


def _split_coeff(node):
    """Split a term into (coefficient, canonical non-numeric part key, part)."""
    if isinstance(node, _Num):
        return node.value, None
    if isinstance(node, _Mul):
        return node.coeff, _mul_from(1.0, node.factors)
    return 1.0, node


def _add(*nodes):
    const = 0.0
    parts = {}
    order = []
    for node in nodes:
        todo = node.terms if isinstance(node, _Add) else (node,)
        for t in todo:
            c, part = _split_coeff(t)
            if part is None:
                const += c
                continue
            k = part.key()
            if k in parts:
                parts[k] = (parts[k][0] + c, part)
            else:
                parts[k] = (c, part)
                order.append(k)
    terms = []
    for k in sorted(order):
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
    if isinstance(base, _Num):
        if base.value == 0.0 and expo < 0:
            raise ExprDomainError("0 raised to a negative power")
        val = base.value**expo
        if isinstance(val, complex) or not math.isfinite(val):
            raise ExprDomainError(f"cannot fold constant power {base.value}^{expo}")
        return _Num(val)
    if isinstance(base, _Pow):
        return _pow(base.base, base.expo * expo)
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
        val = getattr(math, name)(arg.value) if name != "sqrt" else math.sqrt(arg.value)
        return _Num(val)
    if name == "sqrt":
        return _pow(arg, 0.5)
    return _Fn(name, arg)


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------

_FN_DERIV = {
    "exp": lambda a: _fn("exp", a),
    "sin": lambda a: _fn("cos", a),
    "cos": lambda a: _mul(_Num(-1.0), _fn("sin", a)),
    "sinh": lambda a: _fn("cosh", a),
    "cosh": lambda a: _fn("sinh", a),
}


def _diff(node):
    if isinstance(node, _Num):
        return _ZERO
    if isinstance(node, _Var):
        return _ONE
    if isinstance(node, _Add):
        return _add(*[_diff(t) for t in node.terms])
    if isinstance(node, _Mul):
        pieces = []
        factors = node.factors
        for i, (base, expo) in enumerate(factors):
            db = _diff(base)
            if db is _ZERO:
                continue
            rest = [(b, e) for j, (b, e) in enumerate(factors) if j != i]
            rest.append((base, expo - 1.0))
            pieces.append(
                _mul(_Num(node.coeff * expo), db, _mul_from(1.0, tuple(rest)))
            )
        return _add(*pieces) if pieces else _ZERO
    if isinstance(node, _Pow):
        db = _diff(node.base)
        if db is _ZERO:
            return _ZERO
        return _mul(_Num(node.expo), _pow(node.base, node.expo - 1.0), db)
    if isinstance(node, _Fn):
        da = _diff(node.arg)
        if da is _ZERO:
            return _ZERO
        return _mul(_FN_DERIV[node.name](node.arg), da)
    raise TypeError(f"unknown node {node!r}")


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _eval(node, x):
    if isinstance(node, _Num):
        return node.value
    if isinstance(node, _Var):
        return x
    if isinstance(node, _Add):
        total = _eval(node.terms[0], x)
        for t in node.terms[1:]:
            total = total + _eval(t, x)
        return total
    if isinstance(node, _Mul):
        out = node.coeff
        for base, expo in node.factors:
            out = out * _pow_eval(_eval(base, x), expo)
        return out
    if isinstance(node, _Pow):
        return _pow_eval(_eval(node.base, x), node.expo)
    if isinstance(node, _Fn):
        return _NUMPY_FN[node.name](_eval(node.arg, x))
    raise TypeError(f"unknown node {node!r}")


def _pow_eval(base, expo):
    if _is_int(expo):
        try:
            return base ** int(round(expo))
        except ZeroDivisionError:
            raise ExprDomainError("division by zero") from None
    if np.iscomplexobj(base):
        return base**expo
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.power(np.asarray(base, dtype=float), expo)


def _check_finite(value):
    if not np.all(np.isfinite(value)):
        raise ExprDomainError("evaluation produced a non-finite value")
    return value


def _contains_var(node):
    if isinstance(node, _Var):
        return True
    if isinstance(node, _Add):
        return any(_contains_var(t) for t in node.terms)
    if isinstance(node, _Mul):
        return any(_contains_var(b) for b, _ in node.factors)
    if isinstance(node, _Pow):
        return _contains_var(node.base)
    if isinstance(node, _Fn):
        return _contains_var(node.arg)
    return False


def _complex_safe(node):
    """True when evaluation at complex points is single-valued (no fractional
    powers of variable quantities, whose principal branch would be ambiguous)."""
    if isinstance(node, (_Num, _Var)):
        return True
    if isinstance(node, _Add):
        return all(_complex_safe(t) for t in node.terms)
    if isinstance(node, _Mul):
        return all(_is_int(e) and _complex_safe(b) for b, e in node.factors)
    if isinstance(node, _Pow):
        return _is_int(node.expo) and _complex_safe(node.base)
    if isinstance(node, _Fn):
        return _complex_safe(node.arg)
    return False


# ---------------------------------------------------------------------------
# Compilation to a single numpy callable (hot-loop evaluation)
# ---------------------------------------------------------------------------


def _emit(node):
    if isinstance(node, _Num):
        return repr(node.value)
    if isinstance(node, _Var):
        return "x"
    if isinstance(node, _Add):
        return "(" + "+".join(_emit(t) for t in node.terms) + ")"
    if isinstance(node, _Mul):
        parts = [] if node.coeff == 1.0 else [repr(node.coeff)]
        for base, expo in node.factors:
            parts.append(_emit(_Pow(base, expo) if expo != 1.0 else base))
        return "(" + "*".join(parts) + ")"
    if isinstance(node, _Pow):
        e = int(round(node.expo)) if _is_int(node.expo) else node.expo
        return f"({_emit(node.base)}**{repr(e)})"
    if isinstance(node, _Fn):
        return f"np.{node.name}({_emit(node.arg)})"
    raise TypeError(f"unknown node {node!r}")


def _compile(node):
    code = compile(_emit(node), "<expression>", "eval")
    consts = {"np": np}

    def call(x):
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            out = eval(code, consts, {"x": x})
        if np.ndim(out) == 0 and np.ndim(x) > 0:
            out = np.full(np.shape(x), out)
        return out

    return call


# ---------------------------------------------------------------------------
# Printing (canonical text that reparses to a pointwise-equal expression)
# ---------------------------------------------------------------------------


def _fmt_num(v):
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _print(node, var, prec=0):
    # prec levels: 0 sum, 1 product, 2 power/atom
    if isinstance(node, _Num):
        s = _fmt_num(node.value)
        return f"({s})" if node.value < 0 and prec > 0 else s
    if isinstance(node, _Var):
        return var
    if isinstance(node, _Fn):
        return f"{node.name}({_print(node.arg, var)})"
    if isinstance(node, _Pow):
        if node.expo == 0.5:
            return f"sqrt({_print(node.base, var)})"
        base = _print(node.base, var, 2)
        if not isinstance(node.base, (_Var, _Fn)):
            base = f"({_print(node.base, var)})"
        e = node.expo
        es = _fmt_num(e) if e >= 0 else f"({_fmt_num(e)})"
        return f"{base}^{es}"
    if isinstance(node, _Mul):
        pieces = []
        if node.coeff != 1.0:
            pieces.append(_fmt_num(node.coeff) if node.coeff > 0 else f"({_fmt_num(node.coeff)})")
        for base, expo in node.factors:
            pieces.append(_print(_pow(base, expo) if expo != 1.0 else base, var, 1))
        s = "*".join(pieces)
        return f"({s})" if prec > 1 else s
    if isinstance(node, _Add):
        s = " + ".join(_print(t, var) for t in node.terms)
        return f"({s})" if prec > 0 else s
    raise TypeError(f"unknown node {node!r}")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.var_name = None

    def error(self, message, offset=None):
        raise ExprSyntaxError(message, self.pos if offset is None else offset)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch):
        if self.peek() != ch:
            self.error(f"expected '{ch}'")
        self.pos += 1

    def parse(self):
        node = self.sum()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error(f"unexpected trailing input {self.text[self.pos]!r}")
        return node

    def sum(self):
        node = self.product()
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                node = _add(node, self.product())
            elif ch == "-":
                self.pos += 1
                node = _add(node, _mul(_Num(-1.0), self.product()))
            else:
                return node

    def product(self):
        node = self.unary()
        while True:
            ch = self.peek()
            if ch == "*" and not self.text.startswith("**", self.pos):
                self.pos += 1
                node = _mul(node, self.unary())
            elif ch == "/":
                self.pos += 1
                node = _mul(node, self._reciprocal(self.unary()))
            else:
                return node

    def _reciprocal(self, node):
        if isinstance(node, _Num):
            if node.value == 0.0:
                self.error("division by constant zero")
            return _Num(1.0 / node.value)
        return _pow(node, -1.0)

    def unary(self):
        ch = self.peek()
        if ch == "-":
            self.pos += 1
            return _mul(_Num(-1.0), self.unary())
        if ch == "+":
            self.pos += 1
            return self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        self.skip_ws()
        if self.text.startswith("**", self.pos):
            self.pos += 2
        elif self.peek() == "^":
            self.pos += 1
        else:
            return base
        start = self.pos
        expo = self.unary()  # right-assoc through recursion in unary/power
        if _contains_var(expo):
            self.error("exponent must be constant", start)
        if not isinstance(expo, _Num):
            self.error("exponent must fold to a constant", start)
        return _pow(base, expo.value)

    def atom(self):
        self.skip_ws()
        if self.pos >= len(self.text):
            self.error("unexpected end of input")
        ch = self.text[self.pos]
        if ch == "(":
            self.pos += 1
            node = self.sum()
            if self.peek() != ")":
                self.error("unbalanced parenthesis")
            self.pos += 1
            return node
        if ch.isdigit() or ch == ".":
            return self.number()
        if ch.isalpha() or ch == "_":
            return self.identifier()
        self.error(f"unexpected character {ch!r}")

    def number(self):
        start = self.pos
        text = self.text
        n = len(text)
        while self.pos < n and (text[self.pos].isdigit() or text[self.pos] == "."):
            self.pos += 1
        if self.pos < n and text[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < n and text[self.pos] in "+-":
                self.pos += 1
            if self.pos < n and text[self.pos].isdigit():
                while self.pos < n and text[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = mark  # 'e' was not an exponent marker
        try:
            return _Num(float(text[start : self.pos]))
        except ValueError:
            self.error("malformed number", start)

    def identifier(self):
        start = self.pos
        text = self.text
        while self.pos < len(text) and (text[self.pos].isalnum() or text[self.pos] == "_"):
            self.pos += 1
        name = text[start : self.pos]
        if name in _FUNCTIONS:
            if self.peek() != "(":
                self.error(f"function '{name}' requires parentheses", start)
            self.pos += 1
            arg = self.sum()
            if self.peek() != ")":
                self.error("unbalanced parenthesis")
            self.pos += 1
            return _fn(name, arg)
        if name == "pi":
            return _Num(math.pi)
        if self.var_name is None:
            self.var_name = name
        elif name != self.var_name:
            self.error(
                f"unknown identifier '{name}' (variable already bound to "
                f"'{self.var_name}')",
                start,
            )
        return _VAR


# ---------------------------------------------------------------------------
# Public facade
# ---------------------------------------------------------------------------


class Expression:
    """Immutable closed-form expression of one real variable."""

    def __init__(self, node, var_name="x"):
        self._node = node
        self.var_name = var_name

    @classmethod
    def constant(cls, value, var_name="x"):
        return cls(_Num(value), var_name)

    @property
    def is_zero(self):
        return isinstance(self._node, _Num) and self._node.value == 0.0

    def eval(self, x):
        """Evaluate at a real point or numpy array of points."""
        return _check_finite(_eval(self._node, x))

    __call__ = eval

    def compiled(self):
        """Fast unchecked numpy callable of this expression (internal hot
        loops; domains are the caller's responsibility)."""
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
        return _check_finite(_eval(self._node, np.asarray(z, dtype=complex) + 0j))

    def diff(self, order=1):
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        if order > MAX_DERIVATIVE_ORDER:
            raise DerivativeOrderError(
                f"order {order} exceeds maximum {MAX_DERIVATIVE_ORDER}"
            )
        node = self._node
        for _ in range(order):
            node = _diff(node)
        return Expression(node, self.var_name)

    def to_text(self):
        return _print(self._node, self.var_name)

    def __add__(self, other):
        if isinstance(other, Expression):
            return Expression(_add(self._node, other._node), self.var_name)
        return Expression(_add(self._node, _Num(other)), self.var_name)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, Expression):
            return Expression(_mul(self._node, other._node), self.var_name)
        return Expression(_mul(_Num(other), self._node), self.var_name)

    __rmul__ = __mul__

    def __sub__(self, other):
        if isinstance(other, Expression):
            return Expression(
                _add(self._node, _mul(_Num(-1.0), other._node)), self.var_name
            )
        return Expression(_add(self._node, _Num(-other)), self.var_name)

    def __neg__(self):
        return Expression(_mul(_Num(-1.0), self._node), self.var_name)

    def __repr__(self):
        return f"Expression({self.to_text()!r})"

    def key(self):
        return self._node.key()

    @property
    def complex_safe(self):
        return _complex_safe(self._node)


class DerivativeCache:
    """Memoized derivative ladder of one expression.

    Entry ``k`` is the exact k-th derivative expression.  A cache belongs to
    one worker; the underlying expressions may be shared freely.
    """

    def __init__(self, expression, max_order=MAX_DERIVATIVE_ORDER):
        self.base = expression
        self.max_order = max_order
        self._ladder = [expression]
        self._values = {}

    def derivative(self, order):
        if order > self.max_order:
            raise DerivativeOrderError(
                f"order {order} exceeds maximum {self.max_order}"
            )
        while len(self._ladder) <= order:
            self._ladder.append(
                Expression(_diff(self._ladder[-1]._node), self.base.var_name)
            )
        return self._ladder[order]

    def value(self, order, x):
        """Derivative value at a point; scalar values are memoized (the
        boundary formulas reuse f^(p)(0) and f^(p)(T) heavily)."""
        if np.ndim(x) == 0:
            key = (order, float(x))
            hit = self._values.get(key)
            if hit is None:
                hit = float(self.derivative(order).eval(float(x)))
                self._values[key] = hit
            return hit
        return self.derivative(order).eval(x)

    def compiled(self, order):
        return self.derivative(order).compiled()

    def values_up_to(self, order, x):
        """Array of derivative values [f(x), f'(x), ..., f^(order)(x)]."""
        return np.array([self.value(p, x) for p in range(order + 1)], dtype=float)


def parse(text, var_name=None):
    """Parse expression text into an :class:`Expression`.

    The single free variable is inferred from the text; ``var_name`` pins it
    (parsing fails if the text uses a different name).
    """
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    p = _Parser(text)
    if var_name is not None:
        p.var_name = var_name
    node = p.parse()
    return Expression(node, p.var_name or var_name or "x")
