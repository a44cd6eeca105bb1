"""Arithmetic expressions over named parameters, compiled to exact evaluators.

The catalog stores its parameter-dependent data as strings like
``"(t-omega)*(t-omega+1)-z*nu0"``, which :func:`compile_expr` compiles once
into postfix code.  Only Python's own parser, ``ast.parse`` in ``"eval"`` mode
after ``^`` becomes ``**``, ever sees the text, and its tree is walked through
a whitelist; nothing reaches ``eval``, ``compile`` or ``exec``, as a catalog
file is outside input.  The language: ASCII names; integer literals of plain
decimal digits (not ``007``, ``0x10``, ``1_000``, ``1.5`` or ``True``);
parentheses; unary ``+ -``; ``+ - * /`` with a nonzero constant divisor,
folded at compile time; ``^`` or ``**`` to an integer literal, binding tighter
than unary minus; spaces only between tokens.
"""

from __future__ import annotations

import ast
import operator
from fractions import Fraction
from functools import partial
from typing import Callable, Mapping

from .errors import InputError

Evaluator = Callable[[Mapping[str, Fraction]], Fraction]

# quotes, backslashes, NUL bytes and non-ASCII letters never reach the parser
_CHARACTERS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_ +-*/^()"
)
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: operator.pow}
_OPERATOR = type(operator.add)


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


def compile_expr(text: str) -> tuple[Evaluator, tuple[str, ...]]:
    """Compile a text into ``(evaluate, names)``: ``evaluate`` maps a table of
    rationals for ``names``, the symbols in order of first appearance, to the
    value.  A text outside the module's language raises ``InputError``."""
    source = text.replace("^", "**")
    code: list = []
    def literal(node, stop=None) -> bool:  # offsets index characters: ASCII text
        digits = source[node.col_offset : stop or node.end_col_offset]
        return type(node) is ast.Constant and digits.isdigit()

    def emit(node) -> None:
        kind, op = type(node), type(getattr(node, "op", None))
        if kind is ast.Name:
            code.append(node.id)
        elif literal(node):
            code.append(Fraction(node.value))
        elif kind is ast.UnaryOp and op in (ast.UAdd, ast.USub):
            emit(node.operand)
            code.extend((Fraction(-1), operator.mul) if op is ast.USub else ())
        elif kind is ast.BinOp and op in _BINARY:
            emit(node.left)
            start = len(code)
            emit(node.right)
            if op is ast.Pow:  # digits up to the power's end: no parenthesized one
                if not literal(node.right, node.end_col_offset):
                    raise InputError("exponents must be nonnegative integer literals")
                code[start:] = [node.right.value]
            elif op is ast.Div:  # a divisor naming no symbol is a constant: fold it
                value = 0 if str in map(type, code[start:]) else _run(code[start:], {})
                if value == 0:
                    raise InputError("division is only supported by nonzero constants")
                code[start:] = [value]
            code.append(_BINARY[op])
        else:
            raise SyntaxError  # reported below, like the parser's own faults

    try:
        if text.strip() != text or not _CHARACTERS.issuperset(text):
            raise SyntaxError
        emit(ast.parse(source, mode="eval").body)
    except (SyntaxError, RecursionError):
        raise InputError(f"malformed expression {text!r}") from None
    names = tuple(dict.fromkeys(item for item in code if type(item) is str))
    return partial(_run, tuple(code)), names
