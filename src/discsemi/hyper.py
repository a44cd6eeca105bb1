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

Finite sums go through one kernel, the binary-splitting tree :func:`split_sum`:
the term ratio is cleared into integer linear factors, products over halves
of the index range are combined as integers, and ``sum_k t_k (1+t)^k`` up
to ``t^top``, every moment of a finite weight, is returned over one integer
denominator.  ``moments`` and ``stieltjes_eval`` call it directly, and
:func:`eval_hyper_finite_sum` makes its ``top = 0`` sum of one exact series
one ``Fraction`` (an mpf, a float or a bool input raises ``InputError``).

Nonterminating sums go through one fixed-point kernel, :func:`sum_fixed`,
on the same integer factors of the term ratio: the term and the running
sums are Python integers scaled by ``2^wp``, with ``wp`` sized once from
the working precision and ``log2(1/tol)`` plus guard bits.  One pass over
the terms ``t_u`` gives every ``sum_u t_u C(u, n)`` for ``n <= top`` (the
moments of an infinite weight, up to ``scale n!``), each sum stopped as
the series raised by n would be: when two consecutive terms fall below its
tolerance times ``1 + |sum|``, which protects against accidental zero
terms in alternating series; ``top = 0``
is the plain sum, which :func:`eval_hyper` rounds to one ``mpf`` (to the
working precision, or to 4 bits past ``log2(1/tol)`` if larger, so the
rounding costs at most ``tol / 16``).  When the largest term shows that
rounding could have cancelled more than the tolerance allows, the pass is
redone once with the lost bits added (as ``mpmath``'s ``hypsum`` does),
and a term that rounded to zero in a dip before a negative denominator
parameter sends the sum to a pass whose precision covers the dip.  Before
any term, :func:`check_summable` refuses a series (or an order of a table)
the kernel cannot sum, and a tolerance that is not positive raises InputError.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import mpmath as mp

from .errors import ComputationError, DivergentSeries, InputError, PoleInDenominator
from .scalars import (
    DEFAULT_TOL,
    Scalar,
    integer_ratio,
    is_nonpos_integer,
    ratio_to_mpf,
    require_rational,
    scalar_to_json,
)

#: Hard cap on the number of terms summed on the numeric path.
MAX_TERMS = 10**6


@dataclass(frozen=True)
class HyperSeries:
    """Parameters of a generalized hypergeometric series, all rational."""

    a: tuple
    b: tuple
    z: Scalar

    def __init__(self, a: Sequence, b: Sequence, z: Scalar):
        object.__setattr__(self, "a", tuple(require_rational(x, "a parameter") for x in a))
        object.__setattr__(self, "b", tuple(require_rational(x, "a parameter") for x in b))
        object.__setattr__(self, "z", require_rational(z, "the argument z"))


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
    case p = q+1 the class carries the Fraction gamma = sum(b) - sum(a).
    """
    deg = termination_degree(h.a)
    if deg is not None:
        return ConvergenceClass("Terminating", degree=deg)
    p, q = len(h.a), len(h.b)
    if p < q + 1:
        return ConvergenceClass("Entire")
    if p == q + 1:
        gamma = sum(h.b, Fraction(0)) - sum(h.a)
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


def split_sum(factors: tuple, K: int, top: int = 0) -> tuple:
    """Integers Q and T[0..top] with ``T[n]/Q = [t^n] sum_{k<=K} t_k (1+t)^k``.

    The terms ``t_k = prod_{j<k} p(j)/q(j)`` come from ``factors``, the term
    ratio as :func:`linear_factors` gives it, and q(j) != 0 for j < K;
    ``top = 0`` gives the partial sum.  A range [lo, hi) holds P = prod p,
    Q = prod q and T, cut after ``t^top``, with
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

    p_const, p_lin, q_const, q_lin = factors
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


def eval_hyper_finite_sum(h: HyperSeries, K: int) -> Fraction:
    """Partial sum of the series through the term of index K.

    If a numerator parameter terminates the series before K, the remaining
    terms are zero and summation stops there; a zero denominator factor
    reached before that point raises PoleInDenominator.  The sum is an
    exact ``Fraction``, by binary splitting.
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
    Q, (T,) = split_sum(linear_factors(h.a, h.b, h.z), stop)
    return Fraction(T, Q)


def eval_hyper(h: HyperSeries, tol: Scalar = DEFAULT_TOL) -> Scalar:
    """Evaluate the series under the convergence policy.

    Terminating series are summed exactly (rational in, rational out).
    Entire series and unit-disk series inside the admissible region are
    summed by the fixed-point kernel :func:`sum_fixed` until two
    consecutive terms drop below ``tol`` times ``1 + |sum|``; the result is
    an mpf rounded once, to :func:`output_bits`.
    """
    cls = classify_convergence(h)
    if cls.tag == "Terminating":
        return eval_hyper_finite_sum(h, cls.degree)
    check_summable(h, cls)
    tol = integer_ratio(tol)
    (total,), wp = sum_fixed(linear_factors(h.a, h.b, h.z), tol)
    return ratio_to_mpf(total, 1, -wp, output_bits(tol))


def check_summable(h: HyperSeries, cls: ConvergenceClass, shift: int = 0, top: int = 0) -> None:
    """For the first n in ``shift..shift+top`` at which nonterminating ``h``
    (of class ``cls``) with every parameter raised by n may not reach the
    kernel, raise that series' typed error.  The raise moves only a balanced
    ``gamma``, to ``gamma - n``; the pole test reads ``h``, as ``n >= 1``
    makes no new pole."""
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
            first = cls.gamma - shift  # the balance of order shift
            last = first - top  # and of order shift + top, the lowest
            if first <= -1 or (h.z != 1 and last <= -1):
                raise DivergentSeries(
                    "balanced series on |z| = 1 diverges when the parameter "
                    "balance is -1 or less"
                )
            if last <= 0 and h.z == 1:
                raise DivergentSeries(
                    "balanced series at z = 1 requires positive parameter "
                    "balance"
                )


def output_bits(tol: tuple) -> int:
    """Bits a value summed to ``tol`` is rounded to: the working precision,
    or 4 bits past ``log2(1/tol)`` when that is more (a rounding of at most
    ``tol / 16``)."""
    tol_num, tol_den = tol
    return max(mp.mp.prec, tol_den.bit_length() - abs(tol_num).bit_length() + 5)


def sum_fixed(factors: tuple, tol: tuple, top: int = 0, scale: tuple = (1, 1)) -> tuple:
    """``(acc, wp)``: ``acc[n] 2^-wp`` is ``sum_u t_u C(u, n)`` for
    every ``n <= top``, over the terms ``t_u`` of one nonterminating series.

    ``factors`` is the term ratio from :func:`linear_factors` and ``tol``
    a positive integer ratio in lowest terms (its bit lengths set ``wp``); ``scale``
    (an integer ratio) makes value n ``nu_n = scale n! acc[n] 2^-wp``.  The
    term and the sums are integers scaled by ``2^wp``; each step is ``term =
    term * p(k) // q(k)`` rounded toward zero, so a vanished term stays 0,
    and adds ``term C(u, n)`` to each sum, the binomials exact by Pascal's
    rule.  At ``top = 0`` with unit scale this is the plain partial sum.

    Sum n is the series raised by n, ``sum_k t_{n+k} C(n+k, n) / t_n``,
    times ``t_n``, and it follows that series' rule: it stops at two
    consecutive terms below ``tol_n (|t_n| + |sum|)``, ``tol_n = tol /
    max(1, |pref_n|)`` with the prefactor ``pref_n = scale n! t_n``, so that
    ``nu_n`` meets ``tol (1 + |nu_n|)`` and a small ``nu_n`` is still summed
    relative to ``t_n``.  It does not stop before every factor ``b_j + k`` of
    q is positive: below a negative ``-b_j`` the terms can dip under the
    tolerance and grow again.  ``wp`` is sized once, from the tightest n:
    the working precision, or ``log2(max(1, |pref_n|) / tol)`` if larger,
    below ``|t_n|`` (exact products of p and q), plus guard bits.

    Each step rounds the term by at most one unit of ``2^-wp``, which every
    later term carries, scaled by the growth of the terms since that step:
    at most M for a step whose term was at least 1, and at most
    ``2^(r+1)`` for one below 1, r the largest number of bits a term has
    grown over a smaller earlier one.  So after U steps a term is off by at
    most ``U max(M + 1, 2^(r+1))`` units and sum n, through
    ``sum_{1<=u<=U} C(u, n) = C(U+1, n+1) - [n = 0]``, by that times
    ``C(U+1, n+1) - [n = 0]``.  If that exceeds the tolerance of some n,
    the table is redone once with ``wp`` raised by the bits it lacks.

    A dip deeper than ``wp`` rounds the term to 0, and the terms after it
    would be lost; so a zero term when k reaches the dip's end restarts the
    table once with ``wp`` raised by the depth of the dip, taken from the
    exact products of p and q.  Only ``z = 0`` makes a term of a
    nonterminating series exactly 0, so otherwise a term still 0 after that
    raises ComputationError.  The table stops when every sum has; a sum that
    has not met its tolerance within ``MAX_TERMS`` terms of its own raises
    DivergentSeries.
    """
    p_const, p_lin, q_const, q_lin = factors
    start = max([0] + [-n // d + 1 for n, d in q_lin if n < 0])
    tol_num, tol_den = tol
    if tol_num <= 0:
        raise InputError("tolerance must be positive")
    tol_bits = tol_den.bit_length() - abs(tol_num).bit_length() + 1
    s_num, s_den = abs(scale[0]), scale[1]
    # sum n is done at |part| A[n] <= B[n] 2^wp + C[n] |acc[n]|, for part its
    # term's share: times s_den |Q|, for t_n = P / Q, that is the rule above
    A, B, C, wp = [], [], [], 0
    P = Q = factorial = 1
    for n in range(top + 1):
        if n:
            factorial *= n
            P *= p_const * math.prod(c + d * (n - 1) for c, d in p_lin)
            Q *= q_const * math.prod(c + d * (n - 1) for c, d in q_lin)
        unit = s_den * abs(Q)
        pref = max(unit, s_num * factorial * abs(P))  # max(1, |pref_n|) unit
        A.append(tol_den * pref)
        B.append(tol_num * s_den * abs(P))
        C.append(tol_num * unit)
        bits = max(mp.mp.prec, tol_bits + pref.bit_length() - unit.bit_length())
        wp = max(wp, bits + abs(Q).bit_length() - abs(P).bit_length())
    wp += _GUARD_BITS
    retried = dipped = False
    while True:
        ones = [b << wp for b in B]
        acc, stop, growth, lost = _table_pass(factors, start, 1 << wp, A, ones, C)
        if lost is not None:
            if dipped:
                raise ComputationError(
                    f"a term of the series underflowed at {wp} working bits"
                )
            dipped = True
            wp += _dip_depth(p_const, p_lin, q_const, q_lin, lost) + _GUARD_BITS
            continue
        short = missing = 0
        for n, k in enumerate(stop):
            error = (k + 1) * growth * (math.comb(k + 2, n + 1) - (n == 0)) * A[n]
            allowed = ones[n] + C[n] * abs(acc[n])
            if error > allowed:
                short = True
                missing = max(missing, error.bit_length() - allowed.bit_length())
        if not short or retried:
            return acc, wp
        retried = True
        wp += missing + _GUARD_BITS


def _table_pass(factors: tuple, start: int, one: int, A: list, B: list, C: list) -> tuple:
    """One pass of :func:`sum_fixed` at ``2^wp = one``: ``(acc, stop,
    growth, lost)``, with ``stop[n]`` the step at which sum n stopped,
    ``growth`` the factor ``max(M + 1, 2^(r+1))`` of the error bound, and
    ``lost`` the step at which a term vanished in the dip (else None)."""
    p_const, p_lin, q_const, q_lin = factors
    top = len(A) - 1
    term = big = low = one
    acc = [one] + [0] * top
    binom = [1] + [0] * top  # C(k+1, n) at step k
    streak = [0] * (top + 1)
    stop = [0] * (top + 1)
    live = [0]  # the sums still running, in order; sum n starts at step n-1
    rise = 0
    # |part| A <= B + C |total| needs bits(part) <= near or <= bits(total) + rel
    near = [b.bit_length() - a.bit_length() + 2 for a, b in zip(A, B)]
    rel = [c.bit_length() - a.bit_length() + 2 for a, c in zip(A, C)]
    for k in itertools.count():
        pk, qk = p_const, q_const
        for n, d in p_lin:
            pk *= n + d * k
        for n, d in q_lin:
            qk *= n + d * k
        if qk < 0:
            pk, qk = -pk, -qk
        term *= pk
        term = term // qk if term >= 0 else -(-term // qk)
        size = abs(term)
        if size > big:
            big = size
        if size < low:
            low = size
        elif low < one:
            rise = max(rise, size.bit_length() - low.bit_length())
        if k < top:
            live.append(k + 1)
        for n in range(min(k + 1, top), 0, -1):
            binom[n] += binom[n - 1]
        started, done = k >= start, False
        for n in live:
            part = term * binom[n]
            total = acc[n] = acc[n] + part
            bits = part.bit_length()  # too many bits to be small: skip the products
            if (
                started
                and k >= n
                and (bits <= near[n] or bits <= total.bit_length() + rel[n])
                and abs(part) * A[n] <= B[n] + C[n] * abs(total)
            ):
                if not part and k == max(n, start) and p_const:
                    return acc, stop, 0, k  # the term underflowed in the dip
                streak[n] += 1
                if streak[n] == 2:
                    stop[n], done = k, True
            else:
                streak[n] = 0
        if done:
            live = [n for n in live if streak[n] < 2]
        if not live:
            return acc, stop, max((big // one) + 1, 2 << rise), None
        if k + 1 - live[0] >= MAX_TERMS:
            raise DivergentSeries(f"series did not meet tolerance within {MAX_TERMS} terms")


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

