"""Tests for the exact scalar, combinatorial, expression, and polynomial cores."""

from __future__ import annotations

import operator
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, strategies as st

from discsemi.combin import (
    falling_factorial,
    pochhammer,
    stirling2,
)
from discsemi.errors import InputError
from discsemi.params import compile_expr
from discsemi.polys import (
    Poly,
    difference_quotient_rows,
    poly_from_root_offsets,
)
from discsemi.scalars import (
    agree,
    dot,
    exact_value,
    format_rational,
    is_nonpos_integer,
    parse_rational,
    ratio_to_mpf,
    scalar_to_json,
    to_mpf,
)


# ---------------------------------------------------------------------------
# scalars


def test_parse_rational_forms():
    assert parse_rational("3") == 3
    assert parse_rational("-1/2") == Fraction(-1, 2)
    assert parse_rational(" 5/10 ") == Fraction(1, 2)
    assert parse_rational("0.75") == Fraction(3, 4)
    assert parse_rational(0.1) == Fraction(1, 10)
    assert parse_rational(7) == 7
    assert parse_rational(Fraction(2, 3)) == Fraction(2, 3)


def test_parse_rational_rejects_junk():
    with pytest.raises(InputError):
        parse_rational("two")
    with pytest.raises(InputError):
        parse_rational("1/0")
    with pytest.raises(InputError):
        parse_rational(None)


def test_format_and_json():
    assert format_rational(Fraction(-3, 4)) == "-3/4"
    assert format_rational(Fraction(8, 4)) == "2"
    assert scalar_to_json(Fraction(1, 3)) == "1/3"
    assert scalar_to_json(Fraction(4, 2)) == 2
    assert scalar_to_json(5) == 5
    rendered = scalar_to_json(mp.mpf(2) / 3)
    assert isinstance(rendered, str) and rendered.startswith("0.6666")


def test_integer_predicates():
    assert is_nonpos_integer(0)
    assert is_nonpos_integer(Fraction(-6, 3))
    assert not is_nonpos_integer(2)


def test_to_mpf_is_correctly_rounded():
    x = to_mpf(Fraction(1, 3))
    assert abs(x - mp.mpf(1) / 3) == 0


def _half_ulp(q: Fraction, prec: int) -> Fraction:
    """Half a unit in the last of ``prec`` bits, in the binade of ``q``."""
    n, d = abs(q.numerator), q.denominator
    k = n.bit_length() - d.bit_length()  # now 2^(k-1) < |q| < 2^(k+1)
    if Fraction(n, d) < Fraction(2) ** k:
        k -= 1
    return Fraction(2) ** (k - prec)


@pytest.mark.parametrize("dps", [15, 60])
def test_exact_ratios_round_to_nearest(dps):
    # ratio_to_mpf and to_mpf round an exact ratio once, to nearest: within
    # half an ulp (rounding toward zero, or a numerator longer than prec
    # bits rounded before the division, can miss by more)
    rng = random.Random(dps)
    with mp.workdps(dps):
        for _ in range(3000):
            num = rng.getrandbits(rng.randrange(1, 400)) * rng.choice((1, -1)) or 1
            q = Fraction(num, rng.getrandbits(rng.randrange(1, 400)) or 1)
            half = _half_ulp(q, mp.mp.prec)
            for got in (ratio_to_mpf(q.numerator, q.denominator), to_mpf(q)):
                assert abs(exact_value(got) - q) <= half, q


with mp.workdps(50):
    _THIRD = mp.mpf(1) / 3
    _NEAR_1000 = 1000 + mp.mpf(10) ** -27


_EXACT = st.one_of(st.integers(-10**6, 10**6), st.fractions(max_denominator=10**6))
_MPF = st.builds(
    lambda m, e: mp.mpf(m) * mp.mpf(2) ** e,
    st.integers(-(2**200), 2**200),
    st.integers(-300, 300),
)


@given(st.lists(st.tuples(_EXACT, _EXACT), max_size=6))
def test_dot_on_exact_data_is_the_plain_loop(pairs):
    total = 0
    for c, v in pairs:
        total = total + c * v
    got = dot([c for c, _ in pairs], [v for _, v in pairs])
    assert got == total and type(got) is type(total)


@given(
    st.lists(st.tuples(_EXACT, st.one_of(_EXACT, _MPF)), max_size=6),
    _EXACT,
    _MPF,
    st.sampled_from([15, 50]),
)
def test_dot_on_mixed_data_rounds_the_exact_sum_once(pairs, c, v, dps):
    pairs = pairs + [(c, v)]  # one mpf at least
    with mp.workdps(dps):
        got = dot([c for c, _ in pairs], [v for _, v in pairs])
        want = sum(c * exact_value(v) for c, v in pairs)
        assert isinstance(got, mp.mpf) and got == to_mpf(want)


@pytest.mark.parametrize("got, want, tol, ok", [
    (Fraction(1, 3), Fraction(2, 6), Fraction(1, 10**30), True),
    (2, Fraction(4, 2), 0, True),
    (Fraction(1, 3), Fraction(1, 4), 1, False),
    (Fraction(1, 3), _THIRD, Fraction(1, 10**40), True),
    (_THIRD, Fraction(1, 3), Fraction(1, 10**40), True),
    (Fraction(1, 7), _THIRD, Fraction(1, 10**40), False),
    (_THIRD, Fraction(1, 7), Fraction(1, 10**40), False),
    # |got - want| = 1e-27 passes at tol 1e-30 only through the 1 + |want|
    (_NEAR_1000, 1000, Fraction(1, 10**30), True),
    (_NEAR_1000 - 1000, 0, Fraction(1, 10**30), False),
])
def test_agree(got, want, tol, ok):
    with mp.workdps(50):
        error, within = agree(got, want, tol)
        assert within is ok
    exact = not isinstance(got, mp.mpf) and not isinstance(want, mp.mpf)
    if exact and got == want:
        assert type(error) is int and error == 0
        return
    with mp.workdps(50):  # the exact difference of the stored values, rounded once
        oracle = abs(to_mpf(exact_value(got) - exact_value(want)))
    assert isinstance(error, mp.mpf) and error.man_exp == oracle.man_exp


# ---------------------------------------------------------------------------
# combin


def test_pochhammer_and_falling():
    assert pochhammer(Fraction(1, 2), 3) == Fraction(1, 2) * Fraction(3, 2) * Fraction(5, 2)
    assert pochhammer(5, 0) == 1
    assert falling_factorial(5, 3) == 60
    assert falling_factorial(Fraction(1, 2), 2) == Fraction(1, 2) * Fraction(-1, 2)
    assert falling_factorial(2, 5) == 0


@given(st.integers(min_value=-8, max_value=8), st.integers(min_value=0, max_value=8))
def test_stirling2_changes_basis(x, k):
    assert x**k == sum(
        stirling2(k, n) * falling_factorial(x, n) for n in range(k + 1)
    )


# ---------------------------------------------------------------------------
# expressions


@given(
    st.fractions(min_value=-100, max_value=100, max_denominator=50),
    st.fractions(min_value=-100, max_value=100, max_denominator=50),
)
def test_compile_expr(a, b):
    values = {"a": a, "b": b, "t": a}
    square, names = compile_expr("(a+b)^2 - a**2 - 2*a*b - b^2")
    assert names == ("a", "b")
    assert square(values) == 0 and type(square(values)) is Fraction
    line, names = compile_expr("3/2*t - 1/2")
    assert names == ("t",) and line(values) == Fraction(3, 2) * a - Fraction(1, 2)
    evaluate, names = compile_expr("-(b-1)*(a+1)/(3-1)^2 + b")
    assert names == ("b", "a")
    assert evaluate(values) == -(b - 1) * (a + 1) / 4 + b


_NAMES = ("a", "b", "c")
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "**": 4}
_ARITHMETIC = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}


def _trees(leaves, divisors):
    """Expression trees: a leaf is an int literal or a name; a node is
    ``(op, left, right)``, ``(power, base, exponent)`` or ``("neg", x)``."""
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.tuples(st.sampled_from("+-*"), sub, sub),
            st.tuples(st.just("/"), sub, divisors),
            st.tuples(st.sampled_from(("^", "**")), sub, st.integers(0, 3)),
            st.tuples(st.just("neg"), sub),
        ),
        max_leaves=8,
    )


def _value(tree, values):
    if type(tree) is not tuple:
        return values[tree] if type(tree) is str else Fraction(tree)
    op, *args = tree
    if op == "neg":
        return -_value(args[0], values)
    if op in ("^", "**"):
        return _value(args[0], values) ** args[1]
    return _ARITHMETIC[op](_value(args[0], values), _value(args[1], values))


def _render(tree) -> tuple[str, int]:
    """The tree's text with only the parentheses precedence needs, and its
    precedence: ``-`` and ``/`` associate to the left, and a power binds
    tighter than unary minus."""
    if type(tree) is not tuple:
        return str(tree), 5
    op, *args = tree
    prec = _PRECEDENCE[op]
    left, left_prec = _render(args[0])
    if op == "neg":
        return "-" + (left if left_prec >= prec else f"({left})"), prec
    if left_prec < prec or (left_prec == prec and op in ("^", "**")):
        left = f"({left})"
    if op in ("^", "**"):
        return f"{left} {op} {args[1]}", prec
    right, right_prec = _render(args[1])
    return f"{left} {op} " + (right if right_prec > prec else f"({right})"), prec


def _leaves(tree):
    if type(tree) is tuple:
        for arg in tree[1:]:
            yield from _leaves(arg)
    else:
        yield tree


_CONSTANTS = _trees(st.integers(0, 9), st.integers(1, 9))
_DIVISORS = _CONSTANTS.filter(lambda tree: _value(tree, {}) != 0)
_EXPRESSIONS = _trees(st.integers(0, 9) | st.sampled_from(_NAMES), _DIVISORS)


@given(
    _EXPRESSIONS,
    st.tuples(*[st.fractions(min_value=-5, max_value=5, max_denominator=9)] * 3),
)
def test_compile_expr_follows_precedence(tree, values):
    values = dict(zip(_NAMES, values))
    text, _prec = _render(tree)
    evaluate, names = compile_expr(text)
    got = evaluate(values)
    assert got == _value(tree, values) and type(got) is Fraction
    assert names == tuple(dict.fromkeys(x for x in _leaves(tree) if type(x) is str))


# past the parser's nesting limit, and past the recursion limit of a walk
_DEEP = "(" * 300 + "a" + ")" * 300
_LONG = "+".join("a" * 5000)


@pytest.mark.parametrize(
    "text, message",
    [
        ("a/b", "division is only supported by nonzero constants"),
        ("a/(2-2)", "division is only supported by nonzero constants"),
        ("a/a", "division is only supported by nonzero constants"),
        ("a^b", "exponents must be nonnegative integer literals"),
        ("a +* b", "malformed expression 'a +* b'"),
        ("a ? b", "malformed expression 'a ? b'"),
        ("2 a", "malformed expression '2 a'"),
        ("(a + 1", "malformed expression '(a + 1'"),
        # texts Python's grammar admits but the catalog language does not
        ("True", "malformed expression 'True'"),
        ("0x10", "malformed expression '0x10'"),
        ("1_000", "malformed expression '1_000'"),
        ("007", "malformed expression '007'"),
        ("1.5", "malformed expression '1.5'"),
        ("f(x)", "malformed expression 'f(x)'"),
        ("a[0]", "malformed expression 'a[0]'"),
        ("a.b", "malformed expression 'a.b'"),
        ("a**2**3", "exponents must be nonnegative integer literals"),
        ("2**-1", "exponents must be nonnegative integer literals"),
        ("a^(2)", "exponents must be nonnegative integer literals"),
        ("ω + 1", "malformed expression 'ω + 1'"),
        ("'\\d'", "malformed expression \"'\\\\d'\""),
        ("a\0b", "malformed expression 'a\\x00b'"),
        (" a", "malformed expression ' a'"),
        ("a ", "malformed expression 'a '"),
        pytest.param(_DEEP, f"malformed expression {_DEEP!r}", id="deep-nesting"),
        pytest.param(_LONG, f"malformed expression {_LONG!r}", id="long-sum"),
    ],
)
def test_compile_expr_rejects(text, message):
    with pytest.raises(InputError) as err:
        compile_expr(text)
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# Poly


def test_poly_basicas():
    p = Poly([Fraction(1, 2), 0, 3])
    assert p.degree == 2
    assert p.coeff(0) == Fraction(1, 2)
    assert p.coeff(5) == 0
    assert p(2) == Fraction(25, 2)
    assert Poly([1, 0, 0]).degree == 0
    assert Poly.zero().degree == -1
    assert Poly.zero().is_zero()


def test_poly_arithmetic():
    x = Poly((0, 1))
    p = (x - 1) * (x + 2)
    assert p == Poly([-2, 1, 1])
    assert p - p == Poly.zero()
    assert (p * 0).is_zero()
    assert 2 * p == p + p
    assert (x * x * x).coeffs == (0, 0, 0, 1)
    assert p(Fraction(1, 2)) == Fraction(-5, 4)
    # Fraction - mpf raises, so equality must not subtract
    assert (Poly((Fraction(1, 3), 1)) == Poly((mp.mpf(1), 1))) is False
    assert (Poly((Fraction(1, 2), 1)) == Poly((mp.mpf(0.5), 1))) is True


def test_poly_from_roots_and_offsets():
    p = poly_from_root_offsets([-1, Fraction(-1, 2)], leading=2)
    assert p == Poly([1, -3, 2])
    q = poly_from_root_offsets([Fraction(1, 3), 2], leading=3)
    assert q == 3 * Poly((Fraction(1, 3), 1)) * Poly((2, 1))


def test_poly_shift_and_composition():
    p = Poly([1, -2, 5])
    shifted = p.shift(Fraction(3, 2))
    for point in (0, 1, Fraction(-2, 7)):
        assert shifted(point) == p(point + Fraction(3, 2))
    composed = p(Poly([0, 0, 1]))
    assert composed == Poly([1, 0, -2, 0, 5])
    # a zero shift keeps the coefficients, types included
    q = Poly((Fraction(0), 1))
    assert [type(c) for c in q.shift(0).coeffs] == [Fraction, int]


def test_poly_rendering():
    assert str(Poly([-2, 1, 1])) == "x^2+x-2"
    assert str(Poly([Fraction(1, 2), Fraction(-3, 2)])) == "-3/2*x+1/2"
    assert str(Poly.zero()) == "0"


def test_poly_deflate_exact_and_failing():
    p = poly_from_root_offsets([Fraction(1, 2), -3, Fraction(5, 7)])
    q = p.deflate(3)  # root x = 3 comes from the offset -3
    assert q * Poly([-3, 1]) == p
    with pytest.raises(ArithmeticError):
        p.deflate(Fraction(1, 2))
    assert Poly.zero().deflate(5).is_zero()


def test_difference_quotient_rows_match_power_slices():
    # For p(t) = sum c_i t^i the quotient rows are D_j(x) = sum_{i>j} c_i x^(i-j-1)
    p = Poly([Fraction(2), Fraction(-1, 3), 0, Fraction(5), Fraction(1, 2)])
    rows = difference_quotient_rows(p)
    assert len(rows) == p.degree
    for j, row in enumerate(rows):
        expected = Poly(
            [p.coeff(i) for i in range(j + 1, p.degree + 1)]
        )
        assert row == expected
    # evaluate both sides numerically
    t0, x0 = Fraction(7, 2), Fraction(-4, 3)
    lhs = (p(t0) - p(x0)) / (t0 - x0)
    rhs = sum(t0**j * row(x0) for j, row in enumerate(rows))
    assert lhs == rhs
    assert difference_quotient_rows(Poly([Fraction(4)])) == []
    assert difference_quotient_rows(Poly.zero()) == []


