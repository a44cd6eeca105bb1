"""Exact multivariate polynomials over the rationals, with named symbols.

A :class:`ParamPoly` represents an element of ``Q[s1, ..., sk]`` for named
symbols ``s1 .. sk``.  Internally it is a mapping from monomials to nonzero
``Fraction`` coefficients, where a monomial is a tuple of ``(name, exp)``
pairs sorted by name with strictly positive exponents; the empty tuple is
the constant monomial.  The zero polynomial has no terms.

ParamPoly supports ``+ - *`` with other ParamPoly values and exact scalars
(int/Fraction), nonnegative integer powers, division by a nonzero exact
scalar, equality, substitution of values for symbols, and rendering.
Mixing with floating values is deliberately rejected at the arithmetic
level: substitute all symbols first, then compute numerically.

The module also provides :func:`parse_param_expr`, a small recursive-descent
parser for arithmetic expressions over symbols, used to load polynomial data
from JSON as human-readable strings like ``"(t-omega)*(t-omega+1)-z*nu0"``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Mapping, Tuple

from .errors import InputError

Mono = Tuple[Tuple[str, int], ...]


def _mono_mul(m1: Mono, m2: Mono) -> Mono:
    exps: dict[str, int] = dict(m1)
    for name, e in m2:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted((n, e) for n, e in exps.items() if e))


class ParamPoly:
    """Exact multivariate polynomial over ``Fraction`` coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Mono, Fraction] | None = None):
        cleaned: dict[Mono, Fraction] = {}
        for mono, coeff in (terms or {}).items():
            c = Fraction(coeff)
            if c:
                cleaned[tuple(sorted(mono))] = c
        self._terms = cleaned

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, value) -> "ParamPoly":
        return cls({(): Fraction(value)})

    @classmethod
    def var(cls, name: str) -> "ParamPoly":
        return cls({((name, 1),): Fraction(1)})

    # -- predicates and views ----------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(mono == () for mono in self._terms)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (raises otherwise)."""
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self._terms.get((), Fraction(0))

    def variables(self) -> set[str]:
        return {name for mono in self._terms for name, _ in mono}

    def terms(self) -> Iterable[tuple[Mono, Fraction]]:
        return self._terms.items()

    # -- arithmetic ---------------------------------------------------------

    @classmethod
    def _coerce(cls, other):
        if isinstance(other, ParamPoly):
            return other
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return cls.const(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self._terms)
        for mono, coeff in o._terms.items():
            terms[mono] = terms.get(mono, Fraction(0)) + coeff
        return ParamPoly(terms)

    __radd__ = __add__

    def __neg__(self):
        return ParamPoly({m: -c for m, c in self._terms.items()})

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
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms: dict[Mono, Fraction] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in o._terms.items():
                mono = _mono_mul(m1, m2)
                terms[mono] = terms.get(mono, Fraction(0)) + c1 * c2
        return ParamPoly(terms)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            if other == 0:
                raise ZeroDivisionError("division of ParamPoly by zero")
            return ParamPoly(
                {m: c / Fraction(other) for m, c in self._terms.items()}
            )
        if isinstance(other, ParamPoly) and other.is_constant():
            return self / other.constant_value()
        return NotImplemented

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("ParamPoly powers must be nonnegative integers")
        result = ParamPoly.const(1)
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._terms == o._terms

    def __hash__(self):
        return hash(tuple(sorted(self._terms.items())))

    def __bool__(self):
        return not self.is_zero()

    # -- substitution and restructuring -------------------------------------

    def subs(self, mapping: Mapping[str, object]):
        """Substitute values for *all* symbols and return the scalar result.

        Values may be ints, Fractions, mpf floats, or ParamPoly.  Raises
        ``InputError`` if a symbol appearing in the polynomial is missing
        from ``mapping``.
        """
        missing = self.variables() - set(mapping)
        if missing:
            raise InputError(
                f"no value supplied for symbol(s): {', '.join(sorted(missing))}"
            )
        total = None
        for mono, coeff in self._terms.items():
            term = coeff
            for name, e in mono:
                term = term * mapping[name] ** e
            total = term if total is None else total + term
        if total is None:
            return Fraction(0)
        return total

    # -- rendering -----------------------------------------------------------

    def __str__(self):
        if not self._terms:
            return "0"

        def mono_key(item):
            mono, _ = item
            total = sum(e for _, e in mono)
            return (-total, mono)

        pieces = []
        for mono, coeff in sorted(self._terms.items(), key=mono_key):
            factors = []
            for name, e in mono:
                factors.append(name if e == 1 else f"{name}^{e}")
            body = "*".join(factors)
            if not body:
                text = str(coeff)
            elif coeff == 1:
                text = body
            elif coeff == -1:
                text = f"-{body}"
            else:
                text = f"{coeff}*{body}"
            if pieces and not text.startswith("-"):
                pieces.append("+" + text)
            else:
                pieces.append(text)
        return "".join(pieces)

    def __repr__(self):
        return f"ParamPoly({self})"


# ---------------------------------------------------------------------------
# Expression parsing


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>\*\*|[-+*/^()]))"
)


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if not match or match.end() == pos:
            raise InputError(f"unexpected character {text[pos:]!r} in expression")
        if match.group("int") is not None:
            tokens.append(("int", match.group("int")))
        elif match.group("name") is not None:
            tokens.append(("name", match.group("name")))
        else:
            tokens.append(("op", match.group("op")))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, tokens, allowed):
        self.tokens = tokens
        self.pos = 0
        self.allowed = allowed

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, value = self.take()
        if kind != "op" or value != op:
            raise InputError(f"expected {op!r} in expression, got {value!r}")

    def parse_expr(self) -> ParamPoly:
        value = self.parse_term()
        while True:
            kind, op = self.peek()
            if kind == "op" and op in "+-":
                self.take()
                rhs = self.parse_term()
                value = value + rhs if op == "+" else value - rhs
            else:
                return value

    def parse_term(self) -> ParamPoly:
        value = self.parse_unary()
        while True:
            kind, op = self.peek()
            if kind == "op" and op in "*/":
                self.take()
                rhs = self.parse_unary()
                if op == "*":
                    value = value * rhs
                else:
                    if not rhs.is_constant() or rhs.constant_value() == 0:
                        raise InputError(
                            "division is only supported by nonzero constants"
                        )
                    value = value / rhs.constant_value()
            else:
                return value

    def parse_unary(self) -> ParamPoly:
        kind, op = self.peek()
        if kind == "op" and op in "+-":
            self.take()
            value = self.parse_unary()
            return value if op == "+" else -value
        return self.parse_power()

    def parse_power(self) -> ParamPoly:
        base = self.parse_atom()
        kind, op = self.peek()
        if kind == "op" and op in ("^", "**"):
            self.take()
            ekind, etext = self.take()
            if ekind != "int":
                raise InputError("exponents must be nonnegative integer literals")
            return base ** int(etext)
        return base

    def parse_atom(self) -> ParamPoly:
        kind, value = self.take()
        if kind == "int":
            return ParamPoly.const(int(value))
        if kind == "name":
            if self.allowed is not None and value not in self.allowed:
                raise InputError(f"unknown symbol {value!r} in expression")
            return ParamPoly.var(value)
        if kind == "op" and value == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        raise InputError(f"unexpected token {value!r} in expression")


def parse_param_expr(text: str, allowed: set[str] | None = None) -> ParamPoly:
    """Parse an arithmetic expression into a :class:`ParamPoly`.

    Supports ``+ - * /`` (division by nonzero constants only), powers via
    ``^`` or ``**`` with nonnegative integer exponents, parentheses, integer
    literals, and symbol names.  When ``allowed`` is given, any symbol
    outside that set raises :class:`~discsemi.errors.InputError`.
    """
    parser = _Parser(_tokenize(text), allowed)
    value = parser.parse_expr()
    if parser.pos != len(parser.tokens):
        raise InputError(
            f"unexpected trailing token {parser.peek()[1]!r} in expression"
        )
    return value
