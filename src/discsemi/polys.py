"""Dense univariate polynomials with scalar coefficients.

A :class:`Poly` stores coefficients from lowest to highest degree in a
trimmed tuple, so the zero polynomial is the empty tuple and has degree -1.
Coefficients are ints, Fractions or mpmath floats, so the same polynomial
code runs exactly on rational data and numerically on floats.

Evaluation uses Horner's scheme and accepts either a scalar or another
Poly, so composition (in particular the argument shift ``p(x + h)``) needs
no separate implementation.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .scalars import scalar_is_zero


class Poly:
    """Immutable dense univariate polynomial, coefficients low-to-high."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence = ()):
        coeffs = list(coeffs)
        while coeffs and scalar_is_zero(coeffs[-1]):
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def x(cls) -> "Poly":
        return cls((0, 1))

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
        if isinstance(other, Poly):
            if not self.coeffs or not other.coeffs:
                return Poly()
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return Poly(out)
        if isinstance(other, bool):
            return NotImplemented
        return Poly([c * other for c in self.coeffs])

    def __rmul__(self, other):
        if isinstance(other, bool):
            return NotImplemented
        return Poly([other * c for c in self.coeffs])

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("Poly powers must be nonnegative integers")
        result = Poly.one()
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if len(self.coeffs) != len(o.coeffs):
            return False
        return all(
            scalar_is_zero(a - b) for a, b in zip(self.coeffs, o.coeffs)
        )

    def __hash__(self):
        return hash(self.coeffs)

    # -- evaluation and composition --------------------------------------------

    def __call__(self, value):
        """Evaluate at a scalar, or compose when ``value`` is a Poly."""
        result = Poly.zero() if isinstance(value, Poly) else 0
        for c in reversed(self.coeffs):
            result = result * value + c
        return result

    def shift(self, h) -> "Poly":
        """The polynomial ``p(x + h)``; ``p`` itself, coefficients and all,
        when ``h == 0``."""
        if h == 0:
            return self
        return self(Poly((h, 1)))

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
        if not scalar_is_zero(remainder):
            raise ArithmeticError("deflation remainder is nonzero")
        return Poly(quotient)

    # -- rendering --------------------------------------------------------------

    def to_str(self, variable: str = "x") -> str:
        if not self.coeffs:
            return "0"
        pieces = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if scalar_is_zero(c):
                continue
            if i == 0:
                body = f"({c})" if _needs_parens(c) else f"{c}"
            else:
                xpart = variable if i == 1 else f"{variable}^{i}"
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

    def __str__(self):
        return self.to_str()

    def __repr__(self):
        return f"Poly({self.to_str()})"


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
