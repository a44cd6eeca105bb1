"""Combinatorial primitives: shifted factorials and Stirling numbers.

The rising factorial (Pochhammer symbol) and the falling factorial take an
int, Fraction or mpf base, so the same helpers serve exact and floating
computations.
"""

from __future__ import annotations

import math
from functools import lru_cache


def pochhammer(x, n: int):
    """Rising factorial ``(x)_n = x (x+1) ... (x+n-1)``; ``(x)_0 = 1``."""
    if n < 0:
        raise ValueError("pochhammer order must be a nonnegative integer")
    result = 1
    for i in range(n):
        result = result * (x + i)
    return result


def falling_factorial(x, n: int):
    """Falling factorial ``x (x-1) ... (x-n+1)``; the empty product is 1."""
    if n < 0:
        raise ValueError("falling factorial order must be nonnegative")
    result = 1
    for i in range(n):
        result = result * (x - i)
    return result


@lru_cache(maxsize=None)
def stirling2(k: int, n: int) -> int:
    """Stirling number of the second kind.

    These are the change-of-basis coefficients from powers to falling
    factorials: ``x**k == sum_n stirling2(k, n) * falling_factorial(x, n)``.
    """
    if k < 0 or n < 0:
        return 0
    if k == 0 and n == 0:
        return 1
    if k == 0 or n == 0:
        return 0
    return n * stirling2(k - 1, n) + stirling2(k - 1, n - 1)


def stirling_convert(nu) -> list:
    """Power moments from falling-factorial moments.

    ``nu`` is a moment table with ``values[n] = L[phi_n(x + basis_shift)]``;
    the result is ``L[x^k]`` for k = 0..K.  With a basis shift m the powers
    are first taken of (x+m) via Stirling numbers and then recentred with
    the binomial theorem.
    """
    values = list(nu.values)
    shift = nu.basis_shift
    K = len(values) - 1
    shifted_powers = [
        sum(stirling2(j, n) * values[n] for n in range(j + 1)) for j in range(K + 1)
    ]
    if shift == 0:
        return shifted_powers
    return [
        sum(
            math.comb(k, j) * (-shift) ** (k - j) * shifted_powers[j]
            for j in range(k + 1)
        )
        for k in range(K + 1)
    ]

