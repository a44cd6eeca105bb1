"""Scalar utilities shared across the package.

Exact scalars are ``fractions.Fraction`` (or plain ``int``); floating
scalars are ``mpmath.mpf`` at a configurable working precision.  Every
parameter and point of a functional is an exact rational, and
:func:`require_rational` rejects anything else (an mpf, a float, a bool)
where a spec or a point enters; so floating values only appear when an
infinite series has to be summed numerically.  An exact value meets an mpf
only in :func:`ratio_to_mpf`, which rounds it once, to nearest, and
:func:`dot`, which so rounds a sum of exact coefficients times values with an
mpf among them (mpmath would round a Fraction operand toward zero first).

Every verdict on scalars is made one way.  A value is zero when ``x == 0``
and two values are equal when ``a == b``; :func:`agree` decides whether a
computed value matches a wanted one (exact values when they are equal,
others when they are within ``tol (1 + |want|)``), and :func:`max_error` is
the one loop over it.

Rationals are rendered as ``p/q`` strings (or bare integers) in JSON and
tables; floats are rendered with the full working precision.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

import mpmath as mp
from mpmath.libmp import from_man_exp, from_rational, round_nearest

from .errors import InputError

#: Default tolerance used when deciding that a numerically summed series
#: has converged.
DEFAULT_TOL = Fraction(1, 10**30)

Scalar = Union[int, Fraction, mp.mpf]


def parse_rational(value: object) -> Fraction:
    """Parse an exact rational from a string, int, float, or Fraction.

    Strings may look like ``"3"``, ``"-1/2"``, or ``"0.75"``.  Floats are
    parsed via their shortest decimal representation, so the JSON literal
    ``0.1`` becomes exactly ``1/10``.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InputError(f"expected a rational number, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        value = repr(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse {value!r} as a rational: {exc}") from None
    raise InputError(f"cannot parse {value!r} as a rational")


def format_rational(q: Fraction | int) -> str:
    """Render a rational as ``p/q``, or ``p`` when the denominator is 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def scalar_to_json(x: Scalar) -> object:
    """Convert a scalar to a JSON-friendly value.

    Integers stay integers, other rationals become ``p/q`` strings, and
    floating values become decimal strings at the working precision.
    """
    if isinstance(x, bool):
        raise TypeError("booleans are not scalars")
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return int(x)
        return format_rational(x)
    return mp.nstr(mp.mpf(x), mp.mp.dps, strip_zeros=False)


def to_mpf(x: Scalar) -> mp.mpf:
    """Convert an exact or floating scalar to ``mpf`` at current precision."""
    if isinstance(x, Fraction):
        return ratio_to_mpf(x.numerator, x.denominator)
    return mp.mpf(x)


def ratio_to_mpf(num: int, den: int, shift: int = 0, prec: int | None = None) -> mp.mpf:
    """``num / den * 2^shift`` rounded once, to nearest, to ``prec`` bits
    (the working precision by default); factors of two go to the exponent
    (mpmath strips them bytewise)."""
    if not num:
        return mp.mpf(0)
    a, b = (num & -num).bit_length() - 1, (den & -den).bit_length() - 1
    num, den, prec = num >> a, den >> b, prec or mp.mp.prec
    if den == 1:  # a dyadic value: no division
        return mp.mp.make_mpf(from_man_exp(num, a - b + shift, prec, round_nearest))
    sign, man, exp, bc = from_rational(num, den, prec, round_nearest)
    return mp.mp.make_mpf((sign, man, exp + a - b + shift, bc))


def is_exact(x: Scalar) -> bool:
    """True when ``x`` is an exact rational (int or Fraction)."""
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def require_rational(x, what: str):
    """``x``, or ``InputError`` when it is not an exact rational: a spec's
    parameters and the points it is asked at are ints or Fractions."""
    if not is_exact(x):
        raise InputError(f"{what} must be a rational (int or Fraction), got {x!r}")
    return x


def require_count(n, what: str) -> int:
    """``n``, or ``InputError`` when it is not a nonnegative int."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise InputError(f"{what} must be a nonnegative integer")
    return n


def integer_ratio(x: Scalar) -> tuple[int, int]:
    """``x`` in lowest terms (an mpf: the dyadic rational it stores)."""
    if isinstance(x, mp.mpf):
        man, exp = x.man_exp
        man = -man if x < 0 else man
        return (man << exp, 1) if exp >= 0 else (man, 1 << -exp)
    return x.as_integer_ratio()


def clear_denominators(values) -> tuple[int, list[int]]:
    """The lcm ``D`` of the denominators of ``values`` (an mpf read as the
    dyadic rational it stores), and the integers ``D * v``."""
    ratios = [integer_ratio(v) for v in values]
    D = math.lcm(*(d for _, d in ratios))
    return D, [n * (D // d) for n, d in ratios]


def exact_value(x: Scalar) -> Fraction:
    """``x`` as a Fraction; an mpf is the dyadic rational it stores."""
    return Fraction(*integer_ratio(x))


def dot(coeffs, values) -> Scalar:
    """``c_0 v_0 + c_1 v_1 + ...`` over the pairs of ``coeffs`` and ``values``:
    on exact operands the plain sum ``0 + c_0 v_0 + ...`` (its value and
    type); with an mpf among them, the exact sum of the dyadic rationals the
    mpfs store, formed on cleared integers and rounded once, to nearest."""
    pairs = list(zip(coeffs, values))
    if all(is_exact(c) and is_exact(v) for c, v in pairs):
        return sum(c * v for c, v in pairs)
    (Dc, cs), (Dv, vs) = (clear_denominators(side) for side in zip(*pairs))
    return ratio_to_mpf(sum(c * v for c, v in zip(cs, vs)), Dc * Dv)


def is_nonpos_integer(x: Scalar) -> bool:
    """True when ``x`` is an exact rational of integer value <= 0."""
    return is_exact(x) and x.denominator == 1 and x <= 0


def difference(got: Scalar, want: Scalar) -> Scalar:
    """``got - want``, through :func:`dot` when exactly one is an mpf."""
    if is_exact(got) is is_exact(want):
        return got - want
    return dot((1, -1), (got, want))


def agree(got: Scalar, want: Scalar, tol: Scalar) -> tuple:
    """``(error, ok)``: exact values agree when equal, others when
    ``|got - want| <= tol (1 + |want|)``.

    An equal exact pair gives the int 0, any other pair the exact
    ``|got - want|`` rounded once to an mpf (:func:`difference`).
    """
    error = abs(difference(got, want))
    if is_exact(error):
        return (0, True) if error == 0 else (to_mpf(error), False)
    return error, error <= to_mpf(tol) * (1 + abs(to_mpf(want)))


def max_error(pairs, tol: Scalar) -> tuple:
    """``(worst, ok)`` over ``(got, want)`` pairs: the largest :func:`agree`
    error and whether every pair agrees.  An equal exact pair leaves the
    maximum alone, so all-exact agreement reports the int 0."""
    worst: Scalar = 0
    ok_all = True
    for got, want in pairs:
        err, ok = agree(got, want, tol)
        if not is_exact(err):
            worst = max(to_mpf(worst), err)
        ok_all = ok_all and ok
    return worst, ok_all
