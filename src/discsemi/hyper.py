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

Finite sums go through one kernel, :func:`eval_hyper_finite_sum`, which
sums by binary splitting: the term ratio is cleared into integer linear
factors, products over halves of the index range are combined as integers,
and the result is reduced to a ``Fraction`` once at the end instead of
after every term.  An ``mpf`` input enters as the dyadic rational it
stores, and the exact sum ``T/Q`` is rounded to ``mpf`` once, unreduced.
The same tree can carry ``sum_k t_k (1+t)^k`` up to ``t^top``: every
moment of a finite weight.

Nonterminating sums go through one fixed-point kernel, :func:`sum_numeric`,
on the same integer factors of the term ratio: the term and the running sum
are Python integers scaled by ``2^wp``, with ``wp`` the working precision
(or ``log2(1/tol)``, if larger) plus guard bits, and one ``mpf`` is made at
the end.  Summation stops when two consecutive terms fall below ``tol``
times ``1 + |sum|``, which protects against accidental zero terms in
alternating series.  When the largest term shows that rounding could have
cancelled more than the tolerance allows, the sum is redone once with the
lost bits added (as ``mpmath``'s ``hypsum`` does), and a term that rounded
to zero in a dip before a negative denominator parameter sends the sum to
a pass whose precision covers the dip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import mpmath as mp

from .errors import ComputationError, DivergentSeries, PoleInDenominator
from .scalars import (
    DEFAULT_TOL,
    Scalar,
    exact_value,
    integer_ratio,
    is_exact,
    is_nonpos_integer,
    ratio_to_mpf,
    scalar_to_json,
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
    case p = q+1 the class carries gamma = sum(b) - sum(a), exact: an mpf
    parameter enters as the dyadic rational it stores.
    """
    deg = termination_degree(h.a)
    if deg is not None:
        return ConvergenceClass("Terminating", degree=deg)
    p, q = len(h.a), len(h.b)
    if p < q + 1:
        return ConvergenceClass("Entire")
    if p == q + 1:
        gamma = sum(map(exact_value, h.b)) - sum(map(exact_value, h.a))
        return ConvergenceClass("UnitDisk", gamma=gamma)
    return ConvergenceClass("Divergent")


#: Terms multiplied out directly at each leaf of the binary splitting.
_LEAF_TERMS = 64

#: Bits the fixed-point kernel carries beyond its target precision.
_GUARD_BITS = 24


def linear_factors(a: Sequence, b: Sequence, z):
    """The term ratio ``z prod(a_i + j) / ((j+1) prod(b_i + j))`` as ``p(j)/q(j)``.

    Clearing the denominators of ``a``, ``b`` and ``z`` gives integer
    polynomials ``p(j) = p_const prod(n + d j)`` over the pairs ``(n, d)`` of
    ``p_lin``, and ``q(j)`` likewise over ``q_lin``; every ``d`` is positive.
    """
    z_num, z_den = integer_ratio(z)
    p_lin = [integer_ratio(x) for x in a]
    q_lin = [(1, 1)] + [integer_ratio(x) for x in b]
    p_const, q_const = z_num, z_den
    for _, d in q_lin:
        p_const *= d
    for _, d in p_lin:
        q_const *= d
    return p_const, p_lin, q_const, q_lin


def _split_sum(a: Sequence, b: Sequence, z, K: int, top: int = 0) -> tuple:
    """Integers Q and T[0..top] with ``T[n]/Q = [t^n] sum_{k<=K} t_k (1+t)^k``.

    The terms ``t_k = prod_{j<k} p(j)/q(j)`` come from :func:`linear_factors`,
    and q(j) != 0 for j < K; ``top = 0`` gives the partial sum.  A range
    [lo, hi) holds P = prod p, Q = prod q and T, cut after ``t^top``, with
    ``T/Q = sum_{lo<=k<hi} prod_{lo<=j<=k} p(j)/q(j) (1+t)^(k-lo+1)``.
    A leaf takes backward Horner steps ``T <- p(j) (1+t) (T + Q)``; halves
    combine as ``T1 Q2 + P1 (1+t)^L1 T2``, L1 the length of the left half.
    """
    def values(const, lin):  # const * prod(n + d j) over lin, for j < K
        if not (lin and const):
            return [const] * K
        (n, d), *rest = lin
        out = list(range(const * n, const * (n + d * K), const * d))
        for n, d in rest:
            out = [x * y for x, y in zip(out, range(n, n + d * K, d))]
        return out

    p_const, p_lin, q_const, q_lin = linear_factors(a, b, z)
    ps, qs = values(p_const, p_lin), values(q_const, q_lin)

    def pqt(lo: int, hi: int) -> tuple:
        if hi - lo <= _LEAF_TERMS:
            # no merge reads P on the right edge: 0 there; T0 is T[0], kept scalar
            P, Q, T0, T = int(hi < K), 1, 0, [0] * (top + 1)
            for j in range(hi - 1, lo - 1, -1):
                pj = ps[j]
                if top:
                    for i in range(min(top, hi - j), 1, -1):
                        T[i] = pj * (T[i] + T[i - 1])
                    T[1] = pj * (T[1] + T0 + Q)
                T0 = (T0 + Q) * pj
                P *= pj
                Q *= qs[j]
            T[0] = T0
            return P, Q, T
        mid = (lo + hi) // 2
        P1, Q1, T = pqt(lo, mid)
        P2, Q2, T2 = pqt(mid, hi)
        T[0] = T[0] * Q2 + P1 * T2[0]
        L1, L2 = mid - lo, hi - mid  # T2 has degree <= L2, C(L1, m) = 0 for m > L1
        binom = [math.comb(L1, m) for m in range(min(L1, top) + 1)]
        for n in range(1, min(top, hi - lo) + 1):
            shifted = sum(binom[n - i] * T2[i] for i in range(max(0, n - L1), min(n, L2) + 1))
            T[n] = T[n] * Q2 + P1 * shifted
        return P1 * P2, Q1 * Q2, T

    _, Q, T = pqt(0, K)
    del pqt  # it refers to itself, a cycle that would keep ps and qs alive
    T[0] += Q
    return Q, T


def eval_hyper_finite_sum(h: HyperSeries, K: int, top: int | None = None) -> Scalar | list:
    """Partial sum of the series through the term of index K.

    If a numerator parameter terminates the series before K, the remaining
    terms are zero and summation stops there; a zero denominator factor
    reached before that point raises PoleInDenominator.  The sum is exact,
    by binary splitting: rational in, ``Fraction`` out; with an mpf input,
    the exact sum over the dyadic rationals it stores, rounded to mpf once.
    Given ``top``, the same tree returns the list of coefficients of
    ``t^0..t^top`` in ``sum_{k<=K} t_k (1+t)^k`` instead.
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
    Q, T = _split_sum(h.a, h.b, h.z, stop, top or 0)
    exact = is_exact(h.z) and all(map(is_exact, h.a + h.b))
    sums = [Fraction(Tn, Q) if exact else ratio_to_mpf(Tn, Q) for Tn in T]
    return sums[0] if top is None else sums


def eval_hyper(h: HyperSeries, tol: Scalar = DEFAULT_TOL) -> Scalar:
    """Evaluate the series under the convergence policy.

    Terminating series are summed exactly (rational in, rational out).
    Entire series and unit-disk series inside the admissible region are
    summed by the fixed-point kernel :func:`sum_numeric` until two
    consecutive terms drop below ``tol`` times ``1 + |sum|``; the result is
    an mpf at the current precision.
    """
    cls = classify_convergence(h)
    if cls.tag == "Terminating":
        return eval_hyper_finite_sum(h, cls.degree)
    check_summable(h, cls)
    return sum_numeric(linear_factors(h.a, h.b, h.z), integer_ratio(tol))


def check_summable(h: HyperSeries, cls: ConvergenceClass, shift: int = 0) -> None:
    """Raise the typed error that keeps nonterminating ``h``, every parameter
    raised by ``shift``, from the kernel; ``cls`` is the class of ``h``
    (a shift keeps p, q and z, and lowers a balanced ``gamma`` by it)."""
    for bj in h.b:
        if is_nonpos_integer(bj + shift):
            raise PoleInDenominator(
                f"denominator parameter {bj + shift} is a nonpositive integer in a "
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
            gamma = cls.gamma - shift
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


def sum_numeric(factors: tuple, tol: tuple) -> mp.mpf:
    """Nonterminating sum on one fixed-point integer.

    ``factors`` is the term ratio from :func:`linear_factors` and ``tol``
    an integer ratio in lowest terms (its bit lengths set ``wp``).  The
    term and the running sum are integers scaled by ``2^wp``; each step is
    ``term = term * p(k) // q(k)`` rounded toward zero, so a vanished term
    stays 0.  Each step rounds by at most one unit of ``2^-wp``, which
    every later term carries, scaled by the growth of the terms since that
    step: at most M for a step whose term was at least 1, and at most
    ``2^(r+1)`` for one below 1, r the largest number of bits a term has
    grown over a smaller earlier one.  Over n terms that is taken as
    ``n^2 max(M + 1, 2^(r+1))`` units; if that exceeds ``tol (1 + |sum|)``,
    the sum is redone once with ``wp`` raised by the bits it lacks.

    Summation stops at two consecutive terms below ``tol (1 + |sum|)``, but
    not before every factor ``b_j + k`` of q is positive: below a negative
    ``-b_j`` the terms can dip under the tolerance and grow again.  A dip
    deeper than ``wp`` rounds the term to 0, and the terms after it would
    be lost; so a zero term when k reaches that point restarts the sum once
    with ``wp`` raised by the depth of the dip, taken from the exact
    products of p and q.  Only ``z = 0`` makes a term of a nonterminating
    series exactly 0, so otherwise a term still 0 after that raises
    ComputationError.
    """
    p_const, p_lin, q_const, q_lin = factors
    start = max([0] + [-n // d + 1 for n, d in q_lin if n < 0])
    tol_num, tol_den = tol
    tol_bits = tol_den.bit_length() - abs(tol_num).bit_length() + 1
    wp = max(mp.mp.prec, tol_bits) + _GUARD_BITS
    retried = dipped = False
    while True:
        one = 1 << wp
        term = total = big = low = one
        streak = rise = 0
        lost = False
        for k in range(MAX_TERMS):
            pk, qk = p_const, q_const
            for n, d in p_lin:
                pk *= n + d * k
            for n, d in q_lin:
                qk *= n + d * k
            if qk < 0:
                pk, qk = -pk, -qk
            term *= pk
            term = term // qk if term >= 0 else -(-term // qk)
            total += term
            size = abs(term)
            if size > big:
                big = size
            if size < low:
                low = size
            elif low < one:
                rise = max(rise, size.bit_length() - low.bit_length())
            if k >= start and size * tol_den <= tol_num * (one + abs(total)):
                if not size and k == start and p_const:
                    lost = True  # the term underflowed in the dip
                    break
                streak += 1
                if streak == 2:
                    break
            else:
                streak = 0
        else:
            raise DivergentSeries(
                f"series did not meet tolerance within {MAX_TERMS} terms"
            )
        if lost:
            if dipped:
                raise ComputationError(
                    f"a term of the series underflowed at {wp} working bits"
                )
            dipped = True
            wp += _dip_depth(p_const, p_lin, q_const, q_lin, start) + _GUARD_BITS
            continue
        error = (k + 1) ** 2 * max((big >> wp) + 1, 2 << rise) * tol_den
        allowed = tol_num * (one + abs(total))
        if error <= allowed or retried:
            return mp.ldexp(total, -wp)
        retried = True
        wp += error.bit_length() - allowed.bit_length() + _GUARD_BITS


def _dip_depth(p_const, p_lin, q_const, q_lin, last: int) -> int:
    """Bits by which the smallest of the terms 1..last+1 falls below 1.

    The terms are the exact products ``prod_{j<k} p(j)/q(j)``.
    """
    P = Q = 1
    depth = 0
    for j in range(last + 1):
        P *= p_const * math.prod(n + d * j for n, d in p_lin)
        Q *= q_const * math.prod(n + d * j for n, d in q_lin)
        depth = max(depth, abs(Q).bit_length() - abs(P).bit_length())
    return depth

