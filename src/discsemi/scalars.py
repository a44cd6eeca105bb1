"""Scalar utilities shared across the package.

Exact scalars are ``fractions.Fraction`` (or plain ``int``); floating
scalars are ``mpmath.mpf`` at a configurable working precision.  All
user-facing parameters are exact rationals, so floating values only appear
when an infinite series has to be summed numerically.  mpmath interoperates
natively with ``Fraction`` (products and sums promote to ``mpf`` at the
current precision), which lets the same code paths run exactly on rational
data and numerically otherwise.

Rationals are rendered as ``p/q`` strings (or bare integers) in JSON and
tables; floats are rendered with the full working precision.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

import mpmath as mp

from .errors import InputError

#: Default decimal working precision for numeric evaluation.
DEFAULT_DPS = 50

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
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


def is_exact(x: Scalar) -> bool:
    """True when ``x`` is an exact rational (int or Fraction)."""
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def integer_ratio(x: Scalar) -> tuple[int, int]:
    """``x`` as an integer ratio; an mpf is the dyadic rational it stores."""
    if isinstance(x, mp.mpf):
        man, exp = x.man_exp
        man = -man if x < 0 else man
        return (man << exp, 1) if exp >= 0 else (man, 1 << -exp)
    return x.as_integer_ratio()


def is_integer(x: object) -> bool:
    """True when ``x`` is a scalar (int, Fraction or mpf) of integer value."""
    if isinstance(x, bool) or not isinstance(x, (int, Fraction, mp.mpf)):
        return False
    return integer_ratio(x)[1] == 1


def is_nonneg_integer(x: Scalar) -> bool:
    """True when ``x`` is a scalar of integer value >= 0."""
    return is_integer(x) and x >= 0


def is_nonpos_integer(x: Scalar) -> bool:
    """True when ``x`` is a scalar of integer value <= 0."""
    return is_integer(x) and x <= 0


def exact_div(x, y):
    """Division that keeps exact operands exact.

    Plain ``/`` between two ints produces a float; this routes exact inputs
    through Fraction arithmetic instead, and leaves mpf operands to mpf
    division.  A Fraction numerator over an mpf
    denominator needs an explicit promotion (Fraction refuses the mpf and
    mpf has no reflected division for Fraction).
    """
    if is_exact(x) and is_exact(y):
        return Fraction(x) / Fraction(y)
    try:
        return x / y
    except TypeError:
        return to_mpf(x) / y


def agree(got: Scalar, want: Scalar, tol: Scalar) -> tuple:
    """``(error, ok)``: exact values agree when equal, others when
    ``|got - want| <= tol (1 + |want|)``.

    An equal exact pair gives the int 0, an unequal one ``|got - want|`` as
    an mpf.  ``Fraction - mpf`` raises (mpf has no reflected subtraction),
    so an exact ``got`` against an mpf takes ``|want - got|``, which rounds
    to the same value.
    """
    if is_exact(got) and is_exact(want):
        return (0, True) if got == want else (abs(to_mpf(got - want)), False)
    error = abs(to_mpf(want - got if is_exact(got) else got - want))
    return error, error <= to_mpf(tol) * (1 + abs(to_mpf(want)))


def scalar_is_zero(x: Scalar) -> bool:
    """Exact zero test for an int, Fraction or mpf."""
    return x == 0
