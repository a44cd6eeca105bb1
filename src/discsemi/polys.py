"""Dense univariate polynomials with scalar coefficients.

A :class:`Poly` stores coefficients from lowest to highest degree in a
trimmed tuple, so the zero polynomial is the empty tuple and has degree -1.
Coefficients are ints, Fractions or mpmath floats, so the same polynomial
code runs exactly on rational data and numerically on floats.

Evaluation accepts either a scalar or another Poly (composition, by
Horner's scheme).  On exact data (int and Fraction coefficients, an exact
point or shift) evaluation, products and the shift ``p(x + h)`` clear
every denominator, run on integers and make each ``Fraction`` once, with
the types the Fraction arithmetic would give: a value is a ``Fraction``
when the point or a coefficient is one, a coefficient of a product when a
``Fraction`` entered it, and a shifted coefficient as :meth:`Poly.shift`
states.  Sums stay coefficientwise.  An mpf polynomial at an exact point,
and each coefficient of :func:`combine`, is one rounded-once
:func:`~discsemi.scalars.dot`; other mpf data take the generic loops.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .scalars import clear_denominators, dot

_EXACT = frozenset((int, Fraction))  # the types evaluated and shifted on integers


class Poly:
    """Immutable dense univariate polynomial, coefficients low-to-high."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence = ()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    # -- basic views ----------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def coeff(self, i: int):
        """Coefficient of ``x**i`` (0 beyond the stored degree)."""
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self):
        if not self.coeffs:
            return 0
        return self.coeffs[-1]

    # -- arithmetic -----------------------------------------------------------

    @classmethod
    def _coerce(cls, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, bool):
            return None
        return cls((other,))

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        return Poly(
            [self.coeff(i) + o.coeff(i) for i in range(n)]
        )

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        """Product; on exact data with a ``Fraction`` in it, on cleared
        integers, coefficient k a ``Fraction`` when a product into it had a
        ``Fraction`` operand."""
        if isinstance(other, Poly):
            a, b = self.coeffs, other.coeffs
            if not a or not b:
                return Poly()
            out = [0] * (len(a) + len(b) - 1)
            exact = _fraction_data(a, b)
            if exact:
                fed = [False] * len(out)
                for cs, width in ((a, len(b)), (b, len(a))):
                    for i, c in enumerate(cs):
                        if type(c) is Fraction:
                            fed[i : i + width] = [True] * width
                (D1, a), (D2, b) = clear_denominators(a), clear_denominators(b)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out[i + j] = out[i + j] + x * y
            if not exact:
                return Poly(out)
            D = D1 * D2
            return Poly(Fraction(n, D) if f else n // D for n, f in zip(out, fed))
        if isinstance(other, bool):
            return NotImplemented
        return Poly([c * other for c in self.coeffs])

    def __rmul__(self, other):
        if isinstance(other, bool):
            return NotImplemented
        return Poly([other * c for c in self.coeffs])

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    # -- evaluation and composition --------------------------------------------

    def __call__(self, value):
        """Evaluate at a scalar, or compose when ``value`` is a Poly.

        On exact data Horner's rule runs on cleared integers; the value is a
        ``Fraction`` exactly when the point or some coefficient is one.  An
        mpf coefficient at an exact point gives one :func:`dot` of the
        coefficients with the exact powers of the point, rounded once.
        """
        coeffs = self.coeffs
        if coeffs and _fraction_data(coeffs, (value,)):  # all ints: the loop below
            (vn, vd), (D, ints) = value.as_integer_ratio(), clear_denominators(coeffs)
            acc, w = 0, 1
            for n in reversed(ints):
                acc, w = acc * vn + n * w, w * vd
            return Fraction(acc, D * vd ** (len(coeffs) - 1))
        if type(value) in _EXACT and not {*map(type, coeffs)} <= _EXACT:
            return dot(coeffs, [value**k for k in range(len(coeffs))])
        result = Poly.zero() if isinstance(value, Poly) else 0
        for c in reversed(coeffs):
            result = result * value + c
        return result

    def shift(self, h) -> "Poly":
        """The polynomial ``p(x + h)``; ``p`` itself, coefficients and all,
        when ``h == 0``.

        On exact data this is a Taylor shift by ``hn`` of the integers
        ``D c_i hd^(k-i)``, ``h = hn/hd``, ``D`` the common denominator and
        k the degree.  Coefficient j is a ``Fraction`` when ``h`` is one and
        j < k, or a nonzero ``Fraction`` sits at degree >= j: the types that
        composition with ``x + h`` gives, as it trims a zero constant.
        """
        if h == 0:
            return self
        coeffs, k = self.coeffs, self.degree
        if not {type(h), *map(type, coeffs)} <= _EXACT:
            return self(Poly((h, 1)))
        (hn, hd), (D, a) = h.as_integer_ratio(), clear_denominators(coeffs)
        a = [ai * hd ** (k - i) for i, ai in enumerate(a)]
        for i in range(k):
            for j in range(k - 1, i - 1, -1):
                a[j] += hn * a[j + 1]
        top = max([i for i, c in enumerate(coeffs) if type(c) is Fraction and c], default=-1)
        top = max(top, k - 1) if type(h) is Fraction else top
        dens = [D * hd ** (k - j) for j in range(k + 1)]
        return Poly(Fraction(n, d) if j <= top else n // d for j, (n, d) in enumerate(zip(a, dens)))

    def deflate(self, root) -> "Poly":
        """Exact division by ``(x - root)``.

        Raises :class:`ArithmeticError` when ``root`` is not a root, so
        callers can turn an inexact division into a domain-specific error.
        """
        if self.is_zero():
            return Poly()
        quotient = [0] * self.degree
        carry = 0
        for i in range(self.degree, 0, -1):
            carry = self.coeff(i) + root * carry
            quotient[i - 1] = carry
        remainder = self.coeff(0) + root * carry
        if remainder != 0:
            raise ArithmeticError("deflation remainder is nonzero")
        return Poly(quotient)

    # -- rendering --------------------------------------------------------------

    def __str__(self):
        if not self.coeffs:
            return "0"
        pieces = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                body = f"({c})" if _needs_parens(c) else f"{c}"
            else:
                xpart = "x" if i == 1 else f"x^{i}"
                if c == 1:
                    body = xpart
                elif c == -1:
                    body = f"-{xpart}"
                else:
                    cstr = f"({c})" if _needs_parens(c) else f"{c}"
                    body = f"{cstr}*{xpart}"
            if pieces and not body.startswith("-"):
                pieces.append("+" + body)
            else:
                pieces.append(body)
        return "".join(pieces)

    def __repr__(self):
        return f"Poly({self})"


def _fraction_data(a: tuple, b: tuple) -> bool:
    """Both coefficient tuples exact, with a ``Fraction`` among them."""
    kinds = {*map(type, a), *map(type, b)}
    return Fraction in kinds and kinds <= _EXACT


def _needs_parens(c) -> bool:
    text = str(c)
    return ("+" in text[1:]) or ("-" in text[1:])


def poly_from_root_offsets(offsets: Iterable, leading=1) -> Poly:
    """The polynomial ``leading * prod_i (x + o_i)`` (roots at ``-o_i``).

    This is the natural builder for Pearson data, where parameter lists
    enter as ``prod_i (x + a_i)``.
    """
    result = Poly((leading,))
    for o in offsets:
        result = result * Poly((o, 1))
    return result


def combine(polys: Sequence[Poly], values: Sequence) -> Poly:
    """``sum_i values[i] polys[i]`` for exact ``polys``: coefficient k is one
    :func:`~discsemi.scalars.dot` of the polys' k-th coefficients with
    ``values``, so an mpf among the values rounds each coefficient once."""
    width = max((len(p.coeffs) for p in polys), default=0)
    return Poly(dot([p.coeff(k) for p in polys], values) for k in range(width))


def falling_coeffs(p: Poly) -> list:
    """Coefficients of ``p`` in the falling-factorial basis.

    Returns ``c_0 .. c_deg`` with ``p(x) = sum_n c_n * x(x-1)...(x-n+1)``,
    using the Stirling-number change of basis on each power.
    """
    from .combin import stirling2

    if p.is_zero():
        return []
    out = [0] * (p.degree + 1)
    for k, ck in enumerate(p.coeffs):
        for n in range(k + 1):
            s = stirling2(k, n)
            if s:
                out[n] = out[n] + ck * s
    return out


def difference_quotient_rows(p: Poly) -> list[Poly]:
    """Coefficient rows of the difference quotient of ``p``.

    Returns ``D_0 .. D_{deg-1}`` (polynomials in ``x``) with

        (p(t) - p(x)) / (t - x)  ==  sum_j t^j * D_j(x),

    where ``D_j(x) = sum_{i>j} c_i x^(i-j-1)`` for ``p = sum_i c_i x^i``,
    i.e. row j holds the coefficients ``c_{j+1} .. c_deg``.  The zero and
    constant polynomials give an empty list.
    """
    return [Poly(p.coeffs[j + 1 :]) for j in range(max(p.degree, 0))]
