"""Parser, evaluation and Taylor-jet derivatives of data expressions."""

import math

import mpmath as mp
import numpy as np
import pytest
import sympy

from utmcont.expr import (
    DerivativeCache,
    DerivativeOrderError,
    ExprDomainError,
    ExprSyntaxError,
    _cauchy,
    _taylor,
    parse,
)

CORPUS = [
    ("t*exp(-t)", 0.7),
    ("sin(4*pi*t)", 0.33),
    ("3*x*exp(-x)", 1.2),
    ("exp(-(x-1)^2/(4*1+1))/sqrt(4*1+1)", 0.4),
    ("1/(1+t)", 0.5),
    ("exp(-x)*cos(3*pi*x)", 0.8),
    ("exp(-x^2)", 0.6),
    ("cosh(x)-sinh(x)", 0.9),
    ("2*exp(-sqrt(3)*x)*cos(x+8*0.5)", 0.25),
]


def test_parse_exact_angle():
    e = parse("sin(4*pi*t)")
    assert e.eval(0.125) == pytest.approx(1.0, abs=1e-15)


def test_parse_te_at_zero():
    assert parse("t*exp(-t)").eval(0.0) == 0.0


def test_parse_unbalanced_paren():
    with pytest.raises(ExprSyntaxError):
        parse("3*x*exp(-x")


def test_parse_unknown_second_identifier():
    with pytest.raises(ExprSyntaxError, match="unknown identifier"):
        parse("x + y")


def test_parse_empty():
    with pytest.raises(ExprSyntaxError):
        parse("   ")


@pytest.mark.parametrize("text", ["(" * 210 + "x" + ")" * 210,
                                  "sin(" * 210 + "x" + ")" * 210],
                         ids=["parentheses", "sin"])
def test_parse_deep_nesting_is_a_syntax_error(text):
    # past Python's limit of 200 nested brackets, which is reported as
    # malformed text, not as a SyntaxError of Python's
    with pytest.raises(ExprSyntaxError, match="nested too deeply"):
        parse(text)


# canonical text of each input, pinned: precedence, associativity, stacked
# signs, number forms, whitespace and pi read the same under any parser
PINNED = [
    ("-x^2", "(-1.0*(x**2))"),
    ("2^3^2", "512.0"),
    ("x^2^-1", "(x**0.5)"),
    ("x/2/4", "(0.125*x)"),
    ("1/x/(1+x)", "(((x+1.0)**-1)*(x**-1))"),
    ("x-1-x^2", "((-1.0*(x**2))+x+-1.0)"),
    ("x**2", "(x**2)"),
    ("x^2", "(x**2)"),
    ("2^-1", "0.5"),
    ("x^-0.5", "(x**-0.5)"),
    ("-2^2", "-4.0"),
    ("(-2)^2", "4.0"),
    ("--x", "x"),
    ("-+-x", "x"),
    ("+x", "x"),
    ("2*-x", "(-2.0*x)"),
    ("x**-2**2", "(x**-4)"),
    ("3.*x", "(3.0*x)"),
    (".25*x", "(0.25*x)"),
    ("2E+2*x", "(200.0*x)"),
    ("1e-3*x", "(0.001*x)"),
    ("1.5e2", "150.0"),
    ("3.e2", "300.0"),
    ("  x  *  2 ", "(2.0*x)"),
    ("x\t+\n1", "(x+1.0)"),
    ("pi", "3.141592653589793"),
    ("2*pi*t", "(6.283185307179586*t)"),
    ("sqrt(x)", "(x**0.5)"),
    ("exp(2*x)*exp(-x)", "exp(x)"),
    ("sin (x)^2+cos(x)^2", "((cos(x)**2)+(sin(x)**2))"),
    ("cosh(y)-sinh(y)", "(cosh(y)+(-1.0*sinh(y)))"),
    ("(-+2E+2/(2^(1/2))^(-2))", "-400.0000000000001"),
    ("(x+1)^2", "((x**2)+(2.0*x)+1.0)"),
    ("1/(1+x)^2", "(((x**2)+(2.0*x)+1.0)**-1)"),
    ("x/(2*x)", "0.5"),
    ("00*x+007.5", "7.5"),
    ("\u03b1*exp(-\u03b1)", "(exp((-1.0*\u03b1))*\u03b1)"),
]


@pytest.mark.parametrize("text,canonical", PINNED)
def test_parse_keeps_its_canonical_text(text, canonical):
    assert parse(text).to_text() == canonical


@pytest.mark.parametrize("text", [
    "0x1F", "1_0", "2j", '"a"', "x.real", "x[0]", "x < 1", "x if x else x",
    "lambda: x", "sin(x, 2)", "exp", "exp(x=1)", "sin(x,)", "(sin)(x)",
    "sin(*x)", "x # 1", "x\0", "x // 2", "x % 2", "~x", "x @ x", "x := 1",
    "[x]", "e\u0301*x", "x)", "(x", "1 + @",
])
def test_parse_refuses_text_outside_the_grammar(text):
    with pytest.raises(ExprSyntaxError) as err:
        parse(text)
    assert 0 <= err.value.offset <= len(text)


@pytest.mark.parametrize("text", ["08*x", "True*exp(-True)", "if"])
def test_parse_refuses_python_literals_and_keywords(text):
    with pytest.raises(ExprSyntaxError) as err:
        parse(text)
    assert 0 <= err.value.offset <= len(text)


@pytest.mark.parametrize("text,offset", [
    ("x + y", 4), ("  2^x", 4), ("2^^x", 2), ("x/0", 2), ("\u03b1 + \u03b2", 4),
    ("x^2 ^ x", 6), ("sqrt(-1)*x", 0), ("x + 1e400", 4), ("x +\n  y", 6),
])
def test_parse_offsets_count_characters_of_the_text(text, offset):
    with pytest.raises(ExprSyntaxError) as err:
        parse(text)
    assert err.value.offset == offset


def test_parse_a_long_flat_sum():
    assert parse("+".join(["x"] * 2000)).to_text() == "(2000.0*x)"


def test_parse_many_unary_signs_is_nested_too_deeply():
    with pytest.raises(ExprSyntaxError, match="nested too deeply"):
        parse("-" * 10_000 + "x")


def test_parse_takes_170_nested_functions():
    value = 0.3
    for _ in range(170):
        value = math.sin(value)
    assert parse("sin(" * 170 + "x" + ")" * 170).eval(0.3) == value


@pytest.mark.parametrize("text", [
    "1e400*exp(-x)", "exp(-x)^1e400", "1e200*1e200*x", "x^1e200^2",
    "x/5e-324", "exp(1000)*x", "sqrt(-1)*x", "0^-1*x", "(-2)^0.5*x",
])
def test_parse_refuses_constants_that_do_not_fold(text):
    with pytest.raises(ExprSyntaxError):
        parse(text)


def test_non_finite_factor_is_a_domain_error():
    with pytest.raises(ExprDomainError, match="non-finite"):
        parse("exp(-x)") * math.inf


def test_parse_variable_exponent_rejected():
    with pytest.raises(ExprSyntaxError, match="constant"):
        parse("2^x")


def test_parse_offset_reported():
    with pytest.raises(ExprSyntaxError) as err:
        parse("1 + @")
    assert err.value.offset == 4


def test_eval_simple_rational():
    assert parse("1/(1+t)").eval(1.0) == pytest.approx(0.5, abs=1e-16)


def test_eval_reference_gaussian_at_minus_one():
    e = parse("exp(-(x-1)^2/(4*1+1))/sqrt(4*1+1)")
    assert e.eval(-1.0) == pytest.approx(math.exp(-0.8) / math.sqrt(5), rel=1e-15)


def test_eval_pole_is_domain_error():
    with pytest.raises(ExprDomainError):
        parse("1/(1+t)").eval(-1.0)
    with pytest.raises(ExprDomainError, match="division by zero"):
        parse("1/t").eval(0.0)  # a Python float raises ZeroDivisionError
    with pytest.raises(ExprDomainError, match="overflowed"):
        parse("x^2").eval(1e200)  # a Python float raises OverflowError
    with pytest.raises(ExprDomainError):
        parse("1/(1+z)").eval_complex(-1.0)


def test_eval_sqrt_of_negative_is_domain_error():
    with pytest.raises(ExprDomainError):
        parse("sqrt(x)").eval(-2.0)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 20])
def test_te_derivative_closed_form(n):
    # n-th derivative of t*exp(-t) is (-1)^n e^{-t} (t-n)
    d = DerivativeCache(parse("t*exp(-t)")).derivative(n)
    for t in (0.0, 0.3, 1.7):
        assert d.eval(t) == pytest.approx(
            (-1) ** n * math.exp(-t) * (t - n), rel=1e-12, abs=1e-12
        )


@pytest.mark.parametrize("n", [1, 2, 5, 11])
def test_te_derivative_at_zero(n):
    assert DerivativeCache(parse("t*exp(-t)")).value(n, 0.0) == pytest.approx(
        -((-1.0) ** n) * n, rel=1e-13
    )


def test_chain_rule_sin():
    d = DerivativeCache(parse("sin(4*pi*t)")).derivative(1)
    for t in (0.0, 0.2, 0.9):
        assert d.eval(t) == pytest.approx(4 * math.pi * math.cos(4 * math.pi * t), rel=1e-13)


@pytest.mark.parametrize("text,point", CORPUS)
def test_derivative_matches_finite_differences(text, point):
    cache = DerivativeCache(parse(text))
    h = 1e-5
    for k in range(1, 9):
        fd = (cache.value(k - 1, point + h) - cache.value(k - 1, point - h)) / (2 * h)
        assert cache.value(k, point) == pytest.approx(fd, rel=1e-6, abs=1e-6)


@pytest.mark.parametrize("text,point", CORPUS)
def test_derivative_composition(text, point):
    # the jet's order j + k equals sympy's k-th derivative of the j-th
    e = parse(text)
    var = sympy.Symbol(e.var_name)
    sym = sympy.sympify(text.replace("^", "**"), locals={e.var_name: var})
    cache = DerivativeCache(e)
    for j, k in [(1, 1), (2, 1), (1, 3), (2, 2)]:
        want = sympy.diff(sympy.diff(sym, var, j), var, k)
        want = float(want.subs(var, point).evalf(30))
        assert cache.value(j + k, point) == pytest.approx(want, rel=1e-12,
                                                          abs=1e-12)


@pytest.mark.parametrize("text,point", CORPUS)
def test_print_reparse_roundtrip(text, point):
    e = parse(text)
    r = parse(e.to_text(), var_name=e.var_name)
    xs = np.array([point, point + 0.25, point + 1.0])
    np.testing.assert_allclose(r.eval(xs), e.eval(xs), rtol=1e-13, atol=1e-15)


def test_array_evaluation_matches_scalar():
    e = parse("3*x*exp(-x)")
    xs = np.linspace(0.0, 4.0, 17)
    vals = e.eval(xs)
    assert vals.shape == xs.shape
    for x, v in zip(xs, vals):
        assert v == pytest.approx(e.eval(float(x)), rel=1e-15)


def test_derivative_cache_extends_lazily():
    cache = DerivativeCache(parse("sin(4*pi*t)"))
    v10 = cache.value(10, 0.2)
    assert cache.value(10, 0.2) == v10


@pytest.mark.parametrize("text", [
    "2*exp(-2*t)*cos(2*t)",
    "sin(2*t)^2",
    "exp(t/4)*exp(-t^2/(4*t+1))/sqrt(4*t+1)",
    "1/(1+t)",
    "t*exp(-t)",
])
@pytest.mark.parametrize("t", [0.0, 0.3, 0.9])
def test_value_independent_of_evaluation_order(text, t):
    # the same bits on a fresh cache, after a higher order at the same
    # point, and as one entry of an array evaluation
    e = parse(text)
    warm = DerivativeCache(e)
    warm.value(60, t)
    for n in range(61):
        fresh = DerivativeCache(e).value(n, t)
        assert warm.value(n, t) == fresh, n
        pair = DerivativeCache(e).derivative(n).eval(np.array([t, t + 0.1]))
        assert pair[0] == fresh, n


def test_derivatives_rows_keep_the_bits_of_derivative_eval():
    # each row is derivative(k).eval at the points; order 0 is refused, as
    # the jet's order-0 entry is not the compiled value (for sin(2*t)^2 at
    # t = 0.3 it differs in the last bit)
    cache = DerivativeCache(parse("sin(2*t)^2"))
    x = np.array([0.3, 0.9])
    for k, row in enumerate(cache.derivatives(1, 8, x), 1):
        assert row.tolist() == cache.derivative(k).eval(x).tolist(), k
    with pytest.raises(ValueError, match="start at order 1"):
        cache.derivatives(0, 8, x)


@pytest.mark.parametrize("text", [
    "t*exp(-t)",
    "1/(1+t)",
    "sin(4*pi*t)",
    "sin(2*t)^2",
    "(1+t)^(-1.5)",
    "2*exp(-1.2*t)*cos(5.1*t)",
    "exp(t/4)*exp(-t^2/(4*t+1))/sqrt(4*t+1)",
    # the drifting-Gaussian boundary trace of a seeded benchmark problem
    "1.0488088481701516*exp(-0.0009/(1.1+4*t))/sqrt(1.1+4*t)",
])
def test_derivatives_keep_the_bits_of_the_order_by_order_factorials(text):
    # every order 1-199 at t in {0, 0.5, 1}: one call, four narrower calls
    # (on both sides of 170, the last factorial in range) and value() all
    # have the bits of each jet row times k! taken order by order: times
    # 171, ..., k in turn, then min(k, 170)!
    cache = DerivativeCache(parse(text, var_name="t"))
    x = np.array([0.0, 0.5, 1.0])
    jet = _taylor(cache.base._node, x, 199)
    want = []
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, 200):
            row = jet[k]
            for m in range(171, k + 1):
                row = row * m
            want.append(row * float(math.factorial(min(k, 170))))
    want = np.array(want)
    assert cache.derivatives(1, 199, x).tobytes() == want.tobytes()
    for lo, hi in ((1, 16), (17, 60), (100, 171), (150, 190)):
        assert (cache.derivatives(lo, hi, x).tobytes()
                == want[lo - 1:hi].tobytes()), (lo, hi)
    for j, t in enumerate(x.tolist()):
        for k in np.flatnonzero(np.isfinite(want[:, j])) + 1:
            assert cache.value(int(k), t) == want[k - 1, j], (t, k)


@pytest.mark.parametrize("n,points,degree", [(1, 1, None), (9, 1, 2),
                                              (41, 2, None), (201, 60, None),
                                              (201, 3, 1)])
def test_cauchy_product_matches_loop(n, points, degree):
    # entry k is sum_j a_j b_{k-j} added in the order j = 0..k, bit for bit,
    # and an overflow past order k does not reach entry k
    rng = np.random.default_rng(n + points)
    a, b = rng.standard_normal((2, n, points))
    if degree is not None:
        a[degree + 1:] = 0.0
    a[-1], b[-1] = np.inf, np.inf
    want = np.empty((n, points))
    with np.errstate(invalid="ignore"):  # inf - inf in the last entry
        for k in range(n):
            total = a[0] * b[k]
            for j in range(1, k + 1):
                total = total + a[j] * b[k - j]
            want[k] = total
        got = _cauchy(a, b)
    np.testing.assert_array_equal(got[:-1], want[:-1])


def test_order_limit():
    with pytest.raises(DerivativeOrderError):
        DerivativeCache(parse("t*exp(-t)")).derivative(201)


def test_high_order_stays_compact():
    # order 40 of a Gaussian-type trace against 40-digit mpmath
    d = DerivativeCache(parse("exp(-1/(4*t+1))/sqrt(4*t+1)")).derivative(40)
    with mp.workdps(40):
        want = mp.diff(lambda t: mp.exp(-1 / (4 * t + 1)) / mp.sqrt(4 * t + 1),
                       mp.mpf(1), 40)
    assert d.eval(1.0) == pytest.approx(float(want), rel=1e-12)


def test_complex_evaluation_entire():
    e = parse("2*exp(-x)*cos(x)")
    z = 0.3 + 0.4j
    expected = 2 * np.exp(-z) * np.cos(z)
    assert e.eval_complex(z) == pytest.approx(expected, rel=1e-13)


def test_complex_evaluation_refuses_brancy_ambiguity():
    with pytest.raises(ExprDomainError, match="fractional"):
        parse("sqrt(1+x)").eval_complex(0.5j)


def test_parse_refuses_text_too_deep_to_compile():
    # the parser accepts 120 nested sin(2*...), but the numpy code written
    # from it nests past the 200 parentheses Python's compiler allows
    with pytest.raises(ExprSyntaxError, match="nested too deeply"):
        parse("sin(2*" * 120 + "x" + ")" * 120 + "*exp(-x^2)")
