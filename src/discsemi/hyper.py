"""Generalized hypergeometric series with an explicit convergence policy.

A :class:`HyperSeries` holds numerator parameters ``a``, denominator
parameters ``b``, and an argument ``z`` for the series

    sum_k  (a_1)_k ... (a_p)_k / [(b_1)_k ... (b_q)_k]  * z^k / k!

Evaluation is gated by :func:`classify_convergence`, which reports one of
four regimes:

* ``Terminating`` -- some ``a_i`` is a nonpositive integer, so the series is
  a finite sum (a polynomial in ``z``); evaluated exactly on rational data.
* ``Entire`` -- ``p < q+1``: converges for every ``z``.
* ``UnitDisk`` -- ``p = q+1``: converges for ``|z| < 1``; on ``|z| = 1`` the
  balance parameter ``gamma = sum(b) - sum(a)`` decides (absolutely
  convergent when ``gamma > 0``, convergent except at ``z = 1`` when
  ``-1 < gamma <= 0``, divergent otherwise).
* ``Divergent`` -- ``p > q+1`` without termination.

Finite sums on exact rational data go through one kernel,
:func:`eval_hyper_finite_sum`, which sums by binary splitting: the term
ratio is cleared into integer linear factors, products over halves of the
index range are combined as integers, and the result is reduced to a
``Fraction`` once at the end instead of after every term.

Nonterminating sums run at the current mpmath working precision and stop
when two consecutive terms fall below ``tol`` times the partial sum, which
protects against accidental zero terms in alternating series.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import mpmath as mp

from .errors import DivergentSeries, PoleInDenominator
from .scalars import (
    DEFAULT_TOL,
    Scalar,
    is_exact,
    is_nonpos_integer,
    to_mpf,
)

#: Hard cap on the number of terms summed on the numeric path.
MAX_TERMS = 10**6


@dataclass(frozen=True)
class HyperSeries:
    """Parameters of a generalized hypergeometric series."""

    a: tuple
    b: tuple
    z: Scalar

    def __init__(self, a: Sequence, b: Sequence, z: Scalar):
        object.__setattr__(self, "a", tuple(a))
        object.__setattr__(self, "b", tuple(b))
        object.__setattr__(self, "z", z)


@dataclass(frozen=True)
class ConvergenceClass:
    """Convergence regime of a series.

    ``tag`` is one of ``"Terminating"``, ``"Entire"``, ``"UnitDisk"``,
    ``"Divergent"``.  ``degree`` is set for Terminating; ``gamma`` is set
    for UnitDisk.
    """

    tag: str
    degree: int | None = None
    gamma: Scalar | None = None

    def to_json(self) -> dict:
        out: dict = {"tag": self.tag}
        if self.degree is not None:
            out["degree"] = self.degree
        if self.gamma is not None:
            from .scalars import scalar_to_json

            out["gamma"] = scalar_to_json(self.gamma)
        return out


def termination_degree(a: Sequence) -> int | None:
    """Smallest K with some a_i = -K (K >= 0), or None if no a_i is a
    nonpositive integer."""
    degrees = [int(-x) for x in a if is_nonpos_integer(x)]
    if not degrees:
        return None
    return min(degrees)


def classify_convergence(h: HyperSeries) -> ConvergenceClass:
    """Classify a series into Terminating/Entire/UnitDisk/Divergent.

    Termination takes precedence regardless of p and q.  For the balanced
    case p = q+1 the class carries gamma = sum(b) - sum(a).
    """
    deg = termination_degree(h.a)
    if deg is not None:
        return ConvergenceClass("Terminating", degree=deg)
    p, q = len(h.a), len(h.b)
    if p < q + 1:
        return ConvergenceClass("Entire")
    if p == q + 1:
        gamma = sum(h.b, Fraction(0)) - sum(h.a, Fraction(0))
        return ConvergenceClass("UnitDisk", gamma=gamma)
    return ConvergenceClass("Divergent")


def _check_poles(b: Sequence, last_index: int) -> None:
    """Raise PoleInDenominator if some (b_j)_k vanishes for a k <= last_index
    that the sum will actually visit with a nonzero term."""
    for bj in b:
        if is_nonpos_integer(bj) and -int(bj) < last_index:
            raise PoleInDenominator(
                f"denominator parameter {bj} produces a zero factor at "
                f"term {int(-bj) + 1} before the series terminates"
            )


#: Terms multiplied out directly at each leaf of the binary splitting.
_LEAF_TERMS = 16


def _split_sum(a: Sequence, b: Sequence, z, K: int) -> Fraction:
    """Exact ``sum_{k=0}^{K} prod_{j<k} p(j)/q(j)`` by binary splitting.

    Clearing the denominators of ``a``, ``b`` and ``z`` turns the term ratio
    ``z prod(a_i + j) / ((j+1) prod(b_i + j))`` into integer polynomials
    ``p(j)/q(j)`` that are products of linear factors ``n + d j``.  Over an
    index range [lo, hi) the integers P = prod p, Q = prod q and T, with
    ``T/Q = sum_{lo<=k<hi} prod_{lo<=j<=k} p(j)/q(j)``, combine as
    ``(P1 P2, Q1 Q2, T1 Q2 + P1 T2)``; the only reduction is the final
    ``Fraction(Q + T, Q)``.  The caller guarantees q(j) != 0 for j < K.
    """
    z_num, z_den = z.as_integer_ratio()
    p_lin = [x.as_integer_ratio() for x in a]
    q_lin = [(1, 1)] + [x.as_integer_ratio() for x in b]
    p_const, q_const = z_num, z_den
    for _, d in q_lin:
        p_const *= d
    for _, d in p_lin:
        q_const *= d

    def pqt(lo: int, hi: int) -> tuple[int, int, int]:
        if hi - lo <= _LEAF_TERMS:
            P, Q, T = 1, 1, 0
            for j in range(lo, hi):
                pj, qj = p_const, q_const
                for n, d in p_lin:
                    pj *= n + d * j
                for n, d in q_lin:
                    qj *= n + d * j
                P *= pj
                Q *= qj
                T = T * qj + P
            return P, Q, T
        mid = (lo + hi) // 2
        P1, Q1, T1 = pqt(lo, mid)
        P2, Q2, T2 = pqt(mid, hi)
        return P1 * P2, Q1 * Q2, T1 * Q2 + P1 * T2

    _, Q, T = pqt(0, K)
    return Fraction(Q + T, Q)


def eval_hyper_finite_sum(h: HyperSeries, K: int) -> Scalar:
    """Partial sum of the series through the term of index K.

    If a numerator parameter terminates the series before K, the remaining
    terms are zero and summation stops there; a zero denominator factor
    reached before that point raises PoleInDenominator.  All-exact inputs
    are summed exactly by binary splitting (rational in, ``Fraction`` out);
    otherwise the terms are accumulated one by one in mpf arithmetic.
    """
    if K < 0:
        raise ValueError("partial-sum length must be nonnegative")
    stop = termination_degree(h.a)
    stop = K if stop is None else min(K, stop)
    pole = termination_degree(h.b)
    if pole is not None and pole < stop:
        raise PoleInDenominator(
            f"denominator factor vanishes at term {pole + 1} "
            f"while the numerator is still nonzero"
        )
    if is_exact(h.z) and all(map(is_exact, h.a + h.b)):
        return _split_sum(h.a, h.b, h.z, stop)
    one = mp.mpf(1)
    term = one
    total = one
    for k in range(stop):
        num = one
        for ai in h.a:
            num = num * (ai + k)
        den = one * (k + 1)
        for bj in h.b:
            den = den * (bj + k)
        term = term * num * h.z / den
        total = total + term
    return total


def eval_hyper(
    h: HyperSeries,
    tol: Scalar = DEFAULT_TOL,
    max_terms: int = MAX_TERMS,
) -> Scalar:
    """Evaluate the series under the convergence policy.

    Terminating series are summed exactly (rational in, rational out).
    Entire series and unit-disk series inside the admissible region are
    summed numerically at the current mpmath precision until two
    consecutive terms drop below ``tol`` times the running sum.
    """
    cls = classify_convergence(h)
    if cls.tag == "Terminating":
        _check_poles(h.b, cls.degree)
        return eval_hyper_finite_sum(h, cls.degree)
    for bj in h.b:
        if is_nonpos_integer(bj):
            raise PoleInDenominator(
                f"denominator parameter {bj} is a nonpositive integer in a "
                f"nonterminating series"
            )
    if cls.tag == "Divergent":
        raise DivergentSeries(
            "series with more numerator than denominator-plus-one parameters "
            "diverges unless it terminates"
        )
    if cls.tag == "UnitDisk":
        absz = abs(h.z)
        if absz > 1:
            raise DivergentSeries("balanced series diverges for |z| > 1")
        if absz == 1:
            gamma = cls.gamma
            if gamma <= -1:
                raise DivergentSeries(
                    "balanced series on |z| = 1 diverges when the parameter "
                    "balance is -1 or less"
                )
            if gamma <= 0 and h.z == 1:
                raise DivergentSeries(
                    "balanced series at z = 1 requires positive parameter "
                    "balance"
                )
    return _sum_numeric(h, tol, max_terms)


def _sum_numeric(h: HyperSeries, tol: Scalar, max_terms: int) -> mp.mpf:
    z = to_mpf(h.z)
    term = mp.mpf(1)
    total = mp.mpf(1)
    tol = to_mpf(tol)
    small_streak = 0
    for k in range(max_terms):
        num = mp.mpf(1)
        for ai in h.a:
            num = num * (to_mpf(ai) + k)
        if num == 0:
            return total
        den = mp.mpf(k + 1)
        for bj in h.b:
            den = den * (to_mpf(bj) + k)
        term = term * num * z / den
        total = total + term
        if abs(term) <= tol * (1 + abs(total)):
            small_streak += 1
            if small_streak >= 2:
                return total
        else:
            small_streak = 0
    raise DivergentSeries(
        f"series did not meet tolerance within {max_terms} terms"
    )


def weight_partial_sum(a: Sequence, b: Sequence, z: Scalar, K: int) -> Scalar:
    """Exact sum  sum_{x=0}^{K} (a)_x / (b+1)_x * z^x / x!  .

    This is the building block for truncated-support moments: the
    denominator parameters enter shifted by one, matching the weight
    convention.
    """
    return eval_hyper_finite_sum(
        HyperSeries(tuple(a), tuple(bj + 1 for bj in b), z), K
    )


def weight_partial_sum_reversed(a: Sequence, b: Sequence, z: Scalar, K: int) -> Scalar:
    """The same partial sum computed from its reversal identity.

    Reversing the order of summation turns the partial sum into a single
    terminating series of argument (-1)^{p+q+1} / z:

        sum_{x=0}^{K} (a)_x/(b+1)_x z^x/x!
          = (a)_K/(b+1)_K z^K/K! * F(-K, 1, -K-b; 1-K-a; (-1)^{p+q+1}/z)

    with q+2 upper and p lower parameters.  Used as a cross-check for the
    direct sum; requires z != 0 and K >= 1.
    """
    if K < 1:
        raise ValueError("the reversal identity needs K >= 1")
    if z == 0:
        raise ValueError("the reversal identity needs z != 0")
    from .combin import pochhammer

    p, q = len(a), len(b)
    prefactor = Fraction(1) if is_exact(z) else mp.mpf(1)
    for ai in a:
        prefactor = prefactor * pochhammer(ai, K)
    for bj in b:
        prefactor = prefactor / pochhammer(bj + 1, K)
    zK = z**K if is_exact(z) else to_mpf(z) ** K
    import math

    prefactor = prefactor * zK / math.factorial(K)
    upper = [Fraction(-K), Fraction(1)] + [-K - bj for bj in b]
    lower = [1 - K - ai for ai in a]
    argument = Fraction((-1) ** (p + q + 1)) / z if is_exact(z) else (
        (-1) ** (p + q + 1) / to_mpf(z)
    )
    inner = eval_hyper_finite_sum(HyperSeries(upper, lower, argument), K)
    return prefactor * inner
