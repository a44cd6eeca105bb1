"""Arithmetic expressions over named parameters, compiled to exact evaluators.

The catalog stores its parameter-dependent data as human-readable strings
like ``"(t-omega)*(t-omega+1)-z*nu0"``.  :func:`compile_expr` parses such a
text once, with a small recursive-descent parser, into postfix code: a
tuple of symbol names, rational constants and binary operators, run on a
stack against a symbol table.  The text is never handed to Python's
``eval`` or ``compile``: a catalog file is outside input.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from functools import partial
from typing import Callable, Mapping

from .errors import InputError

Evaluator = Callable[[Mapping[str, Fraction]], Fraction]

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>\*\*|[-+*/^()]))"
)

_BINARY = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}

_OPERATOR = type(operator.add)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if not match or match.end() == pos:
            raise InputError(f"unexpected character {text[pos:]!r} in expression")
        kind = match.lastgroup
        tokens.append((kind, match.group(kind)))
        pos = match.end()
    return tokens


def _run(code: tuple, values: Mapping[str, Fraction]) -> Fraction:
    """Run postfix code: a name pushes its value, a constant itself, and an
    operator replaces the top two entries with its result."""
    stack: list = []
    push = stack.append
    for item in code:
        kind = type(item)
        if kind is str:
            push(values[item])
        elif kind is _OPERATOR:
            right = stack.pop()
            stack[-1] = item(stack[-1], right)
        else:
            push(item)
    return stack[0]


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.code: list = []

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

    def parse_expr(self) -> None:
        self.parse_term()
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            _, op = self.take()
            self.parse_term()
            self.code.append(_BINARY[op])

    def parse_term(self) -> None:
        self.parse_unary()
        while self.peek()[0] == "op" and self.peek()[1] in "*/":
            _, op = self.take()
            start = len(self.code)
            self.parse_unary()
            if op == "/":
                # a divisor that names no symbol is a constant: fold it now
                divisor = self.code[start:]
                symbolic = any(type(item) is str for item in divisor)
                value = 0 if symbolic else _run(divisor, {})
                if value == 0:
                    raise InputError(
                        "division is only supported by nonzero constants"
                    )
                self.code[start:] = [value]
            self.code.append(_BINARY[op])

    def parse_unary(self) -> None:
        kind, op = self.peek()
        if kind == "op" and op in "+-":
            self.take()
            self.parse_unary()
            if op == "-":
                self.code += [Fraction(-1), operator.mul]
        else:
            self.parse_power()

    def parse_power(self) -> None:
        self.parse_atom()
        kind, op = self.peek()
        if kind == "op" and op in ("^", "**"):
            self.take()
            ekind, etext = self.take()
            if ekind != "int":
                raise InputError("exponents must be nonnegative integer literals")
            self.code += [int(etext), operator.pow]

    def parse_atom(self) -> None:
        kind, value = self.take()
        if kind == "int":
            self.code.append(Fraction(int(value)))
        elif kind == "name":
            self.code.append(value)
        elif kind == "op" and value == "(":
            self.parse_expr()
            self.expect_op(")")
        else:
            raise InputError(f"unexpected token {value!r} in expression")


def compile_expr(text: str) -> tuple[Evaluator, tuple[str, ...]]:
    """Compile an arithmetic expression into ``(evaluate, names)``.

    Supports ``+ - * /`` (division by nonzero constants only), powers via
    ``^`` or ``**`` with nonnegative integer exponents, parentheses, integer
    literals, and symbol names.  ``evaluate(values)`` computes the value
    for a mapping from every name to a rational; ``names`` lists the
    symbols in order of first appearance.  A malformed text raises
    :class:`~discsemi.errors.InputError`.
    """
    parser = _Parser(_tokenize(text))
    parser.parse_expr()
    if parser.pos != len(parser.tokens):
        raise InputError(
            f"unexpected trailing token {parser.peek()[1]!r} in expression"
        )
    code = tuple(parser.code)
    names = tuple(dict.fromkeys(item for item in code if type(item) is str))
    return partial(_run, code), names
