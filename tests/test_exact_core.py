"""Tests for the exact scalar, combinatorial, expression, and polynomial cores."""

from __future__ import annotations

from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, strategies as st

from discsemi.combin import (
    binomial,
    pochhammer_multi,
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
    format_rational,
    is_nonneg_integer,
    is_nonpos_integer,
    parse_rational,
    scalar_is_zero,
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
    assert is_nonneg_integer(Fraction(4, 2))
    assert not is_nonneg_integer(Fraction(1, 2))
    assert not is_nonneg_integer(-1)
    assert is_nonpos_integer(0)
    assert is_nonpos_integer(Fraction(-6, 3))
    assert not is_nonpos_integer(2)


def test_to_mpf_is_correctly_rounded():
    x = to_mpf(Fraction(1, 3))
    assert abs(x - mp.mpf(1) / 3) == 0


with mp.workdps(50):
    _THIRD = mp.mpf(1) / 3
    _NEAR_1000 = 1000 + mp.mpf(10) ** -27


def _old_sub(x, y):
    """The subtraction the comparisons used before ``agree``: ``x + (-y)``
    where ``x - y`` raises (a Fraction ``x`` and an mpf ``y``)."""
    try:
        return x - y
    except TypeError:
        return x + (-y)


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
    with mp.workdps(50):
        oracle = abs(to_mpf(_old_sub(got, want)))
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


def test_pochhammer_multi_is_product_of_pochhammers():
    params = [Fraction(1, 2), Fraction(-3), 2]
    assert pochhammer_multi(params, 3) == (
        pochhammer(Fraction(1, 2), 3) * pochhammer(Fraction(-3), 3) * pochhammer(2, 3)
    )
    assert pochhammer_multi([], 5) == 1
    assert pochhammer_multi(params, 0) == 1


def test_binomial_edges():
    assert binomial(5, 2) == 10
    assert binomial(5, -1) == 0
    assert binomial(3, 7) == 0


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


@pytest.mark.parametrize(
    "text, message",
    [
        ("a/b", "division is only supported by nonzero constants"),
        ("a/(2-2)", "division is only supported by nonzero constants"),
        ("a/a", "division is only supported by nonzero constants"),
        ("a^b", "exponents must be nonnegative integer literals"),
        ("a +* b", "unexpected token '*' in expression"),
        ("a ? b", "unexpected character ' ? b' in expression"),
        ("2 a", "unexpected trailing token 'a' in expression"),
        ("(a + 1", "expected ')' in expression, got None"),
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
    x = Poly.x()
    p = (x - 1) * (x + 2)
    assert p == Poly([-2, 1, 1])
    assert p - p == Poly.zero()
    assert (p * 0).is_zero()
    assert 2 * p == p + p
    assert (x**3).coeffs == (0, 0, 0, 1)
    assert p(Fraction(1, 2)) == Fraction(-5, 4)


def test_poly_from_roots_and_offsets():
    p = poly_from_root_offsets([-1, Fraction(-1, 2)], leading=2)
    assert p == Poly([1, -3, 2])
    q = poly_from_root_offsets([Fraction(1, 3), 2], leading=3)
    assert q == 3 * (Poly.x() + Fraction(1, 3)) * (Poly.x() + 2)


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
    assert Poly([Fraction(1, 2), Fraction(-3, 2)]).to_str("t") == "-3/2*t+1/2"
    assert str(Poly.zero()) == "0"


def test_scalar_is_zero():
    assert scalar_is_zero(Fraction(0))
    assert not scalar_is_zero(mp.mpf("1e-60"))


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


