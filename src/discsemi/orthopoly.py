"""Monic orthogonal polynomials from moment tables.

Two independent routes produce the three-term recurrence

    p_{n+1}(x) = (x - alpha_n) p_n(x) - beta_n p_{n-1}(x),  p_0 = 1,

from a :class:`~discsemi.functional.MomentTable`: :func:`recurrence_from_moments`
from the pivots of one elimination of the power-basis Hankel matrix, and
:func:`chebyshev_from_moments` by the modified Chebyshev algorithm on the
falling-factorial moments themselves (the falling factorials are a monic
family with coefficients l - shift and 0).  They are cross-asserted in the
test-suite, and :func:`orthogonality_check` (the Gram matrix of ``p_0..p_K``
against the functional) is the final oracle.  Only the Hankel route converts
moments to powers of ``y = x + shift``, and the Gram check forms mixed
moments by the identity ``y phi_n(y) = phi_{n+1}(y) + n phi_n(y)`` the
Chebyshev route runs on, on polynomials it shifts itself, so a fault in one
shows as a disagreement with another.

Both routes read ``nu_0..nu_{2K-1}`` (``nu_0`` at K = 0) and need only the
Hankel minors ``H_1..H_K``: a weight on N points gives N pairs.  Every loop
runs on ints (an mpf is the dyadic rational it stores).  An exact table is
eliminated fraction-free, by each route to ``H_1..H_K`` and one neighbour
minor ``t_k`` per level, which one finisher turns into the coefficients;
they do not change when the table is scaled.  An mpf
table is eliminated in fixed point with a running error bound, and
fraction-free too where the bound cannot put an output within ``2^-prec (1 +
|v|)`` of the exact one, so only exact arithmetic finds a table singular.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .combin import stirling_convert
from .errors import InputError, MissingParameter, SingularHankel
from .functional import FunctionalSpec, MomentTable, moments
from .polys import Poly, falling_coeffs
from .scalars import (
    DEFAULT_TOL,
    Scalar,
    clear_denominators,
    exact_value,
    integer_ratio,
    is_exact,
    ratio_to_mpf,
    require_count,
    scalar_to_json,
    to_mpf,
)

#: Largest supported recurrence length; the regression families never need
#: more.  Both routes give a table's own recurrence to about ``2^-prec``: at
#: dps 60 and K = 24 they are within 2.7e-33 (relative) of the recurrence of
#: a table summed at dps 120 on the 65 infinite weights with one or two
#: parameter pairs of the benchmark's recurrence pool, and an exact K = 24
#: Hankel pass on its truncated weights takes 0.01 to 0.2 s (one core of a
#: 2-vCPU host).
MAX_K = 12

#: Bits the fixed-point eliminations carry beyond the working precision.
_GUARD_BITS = 160


@dataclass(frozen=True)
class Recurrence:
    """Monic three-term recurrence coefficients alpha_0.., beta_0..

    beta_0 is the total mass nu_0 (the usual convention making
    L[p_n^2] = beta_0 beta_1 ... beta_n).
    """

    alpha: tuple
    beta: tuple

    def __len__(self) -> int:
        return len(self.alpha)

    def to_json(self) -> dict:
        return {
            "alpha": [scalar_to_json(c) for c in self.alpha],
            "beta": [scalar_to_json(c) for c in self.beta],
        }

    def polynomials(self, n: int) -> list[Poly]:
        """The monic polynomials p_0..p_n generated by the recurrence."""
        _check_pairs(self, n)
        polys = [Poly.one()]
        for k in range(n):
            nxt = Poly((-self.alpha[k], 1)) * polys[k]
            if k > 0:
                nxt = nxt - polys[k - 1] * self.beta[k]
            polys.append(nxt)
        for k, p in enumerate(polys):
            assert p.degree == k and p.leading() == 1
        return polys


def _check_pairs(rec: Recurrence, n: int):
    if n > len(rec.alpha):
        raise InputError(
            f"the recurrence holds {len(rec.alpha)} coefficient pairs; cannot build p_{n}"
        )


def _finish(nu: MomentTable, K: int, offset, pivots, fixed) -> Recurrence:
    """The recurrence of length K of ``nu_0..nu_{2K-1}`` (``nu_0`` at K = 0)
    from one route's kernels on the table's cleared ints ``m``: for an mpf
    table ``fixed(m, offsets)`` if it certifies all (no None), else from the
    int pivots ``H_1..H_K``, ``t_1..t_K`` of ``pivots(m, K)`` (``H_0 = 1``,
    ``t_0 = 0``), rounded once for an mpf table: ``alpha_n = offset(n) +
    t_{n+1}/H_{n+1} - t_n/H_n``, ``beta_n = (H_{n+1}/H_n) / (H_n/H_{n-1})``;
    ``beta_0`` is ``nu_0``."""
    if require_count(K, "the recurrence length K") > MAX_K:
        raise InputError(f"the recurrence length K is capped at {MAX_K}")
    size = max(2 * K, 1)
    if len(nu.values) < size:
        raise MissingParameter(
            f"building {K} recurrence coefficients needs moments through "
            f"nu_{size - 1}, table has {len(nu.values)}"
        )
    values = nu.values[:size]
    _, m = clear_denominators(values)
    offsets = [offset(n) for n in range(K)]
    exact = all(map(is_exact, values))
    coeffs = [None] if exact else fixed(m, offsets)  # [None]: take the pivots
    if all(c is not None for c in coeffs):
        alpha, beta = coeffs[:K], coeffs[K:]
    else:
        H, t = pivots(m, K)
        H, t = [1, *H], [0, *t]
        r = [Fraction(t[k], H[k]) for k in range(K + 1)]  # t_k / H_k
        q = [Fraction(H[k + 1], H[k]) for k in range(K)]  # H_{k+1} / H_k
        alpha = [c + r[n + 1] - r[n] for n, c in enumerate(offsets)]
        beta = [q[n] / q[n - 1] for n in range(1, K)]
        if not exact:
            alpha, beta = ([ratio_to_mpf(*integer_ratio(c)) for c in p] for p in (alpha, beta))
    return Recurrence(tuple(alpha), ((values[0],) + tuple(beta))[:K])


def _shifted(x: int, s: int) -> int:
    """``floor(x 2^s)``."""
    return x << s if s >= 0 else x >> -s


def _quotient(a: int, b: int, ea: int, eb: int, s: int) -> tuple[int, int]:
    """``floor(a 2^s / b)`` and a bound in its units on its distance from
    ``x 2^s / y`` when ``|x - a| <= ea`` and ``|y - b| <= eb < |b|``."""
    num, den = ea * abs(b) + eb * abs(a), abs(b) * (abs(b) - eb)
    up, down = max(s, 0), max(-s, 0)
    return (a << up) // (b << down), 1 - (-num << up) // (den << down)


def _fixed_to_mpf(v: int, e: int, wp: int):
    """The mpf ``v 2^-wp`` rounded once, or None when its error bound
    ``e 2^-wp`` may exceed ``2^-prec (1 + |v 2^-wp|)``."""
    if e << mp.mp.prec > (1 << wp) + abs(v):
        return None
    return ratio_to_mpf(v, 1, -wp)


def _ratio_to_mpf(a: int, b: int, ea: int, eb: int, s: int):
    """The mpf ``a 2^s / b`` rounded once, or None when ``x / y`` may be
    ``2^-prec`` (relative) away for ``|x - a| <= ea`` and ``|y - b| <= eb``."""
    if (ea * abs(b) + eb * abs(a)) << mp.mp.prec > abs(a) * (abs(b) - eb):
        return None
    return ratio_to_mpf(a, b, s)


def _hankel_pivots(m: list, K: int) -> tuple[list, list]:
    """The pivots ``H_1..H_K`` and their right neighbours ``t_1..t_K`` in one
    Bareiss elimination of the K x (K + 1) block ``(m_{i+j})``, rows
    ``0..K-1`` and columns ``0..K``, of the ints ``m_0..m_{2K-1}``: ``H_k``
    is its k x k leading minor and ``t_k`` that minor with its last column
    advanced by one.  Only the upper triangle of the (symmetric) square part
    and column K are updated.  Raises ``SingularHankel(k)`` at the first
    vanishing pivot ``H_{k+1}``."""
    A = [m[i : i + K + 1] for i in range(K)]
    pivots, right, prev = [], [], 1
    for k, row in enumerate(A):
        pivot = row[k]
        if pivot == 0:
            raise SingularHankel(k)
        pivots.append(pivot)
        right.append(row[k + 1])
        for i in range(k + 1, K):
            lower, head = A[i], row[i]
            for j in range(i, K + 1):  # the division by the previous pivot is exact
                lower[j] = (pivot * lower[j] - head * row[j]) // prev
        prev = pivot
    return pivots, right


def _hankel_fixed(m: list, offsets: list) -> list:
    """The coefficients as mpf (None where not certified) by Gaussian
    elimination in fixed point of the K x (K + 1) block of the int power
    moments ``m_0..m_{2K-1}``, ``K = len(offsets)``.

    Row and column i < K are scaled by ``2^-f_i``, ``f_i`` half the bit
    length of ``m_{2i}``, and column K by ``2^-f_K``, ``f_K`` the least that
    puts its entries below 1, so entries are O(1) at ``wp`` fractional bits.  Updates
    are ``x_ij -= x_ik x_kj // x_kk``; stage-k entries are within ``E_k``
    units of the exact elimination, ``E_0 = 1`` and ``E_{k+1} = E_k (1 +
    r/c)^2 + 1`` (Higham, *Accuracy and Stability of Numerical Algorithms*,
    2002, ch. 9; second-order terms kept) with ``c = |x_kk|``, ``r =
    max_{j>k} |x_kj|``.  ``alpha_n`` is ``offsets[n]`` plus a difference of
    ratios ``x_{n,n+1} / x_nn``, ``beta_n`` is ``x_nn / x_{n-1,n-1}``.  A
    pivot ``x_kk``, ``k < K``, within its bound of zero gives ``[None]``."""
    wp = mp.mp.prec + _GUARD_BITS
    K = len(offsets)
    f = [abs(m[2 * i]).bit_length() // 2 for i in range(K)]
    f.append(max((abs(m[i + K]).bit_length() - f[i] for i in range(K)), default=0))
    A = [[_shifted(m[i + j], wp - f[i] - f[j]) for j in range(K + 1)] for i in range(K)]
    err, pivots, errs, ratios = 1, [], [], [(0, 0)]
    for k, row in enumerate(A):
        pivot = row[k]
        c = abs(pivot)
        if c <= err:
            return [None]
        pivots.append(pivot)
        errs.append(err)
        ratios.append(_quotient(row[k + 1], pivot, err, err, wp + f[k + 1] - f[k]))
        for i in range(k + 1, K):
            lower, head = A[i], row[i]
            for j in range(i, K + 1):
                lower[j] -= head * row[j] // pivot
        r = max(map(abs, row[k + 1 :]))
        err += 1 - (-err * ((2 * r + err) * c + r * r) // (c * (c - err)))
    alpha = [
        _fixed_to_mpf((o << wp) + q - p, e + d, wp)
        for o, (p, d), (q, e) in zip(offsets, ratios, ratios[1:])
    ]
    return alpha + [
        _ratio_to_mpf(pivots[k], pivots[k - 1], errs[k], errs[k - 1], 2 * (f[k] - f[k - 1]))
        for k in range(1, K)
    ]


def recurrence_from_moments(nu: MomentTable, K: int) -> Recurrence:
    """alpha_0..alpha_{K-1}, beta_0..beta_{K-1} from Hankel minors.

    Reads ``nu_0..nu_{2K-1}``.  The table is scaled by the lcm of its
    denominators and converted on those ints to the power moments ``L[y^k]``
    of ``y = x + shift``, whose ``H_1..H_K`` and ``t_1..t_K``
    (:func:`_hankel_pivots`) :func:`_finish` turns into the coefficients
    with offsets ``-shift``; the minors do not change under this
    unitriangular change of basis.  An mpf table runs :func:`_hankel_fixed`.
    Raises ``SingularHankel(k)`` at the first ``k < K`` with ``H_{k+1} =
    0``, so a weight on K points gives its K pairs.
    """
    shift = nu.basis_shift
    return _finish(
        nu, K, lambda n: -shift,
        lambda m, K: _hankel_pivots(stirling_convert(m), K),
        lambda m, offsets: _hankel_fixed(stirling_convert(m), offsets),
    )


def chebyshev_from_moments(nu: MomentTable, K: int) -> Recurrence:
    """The same coefficients via the modified Chebyshev algorithm.

    Reads ``nu_0..nu_{2K-1}``.  The reference system is phi_l, with
    coefficients ``l - shift`` and 0.  The sigma form (Gautschi, *Orthogonal
    Polynomials: Computation and Approximation*, 2004, §2.1.7) runs on
    ``sigma_k(l) = L[p_k phi_l]``: ``sigma_0(l) = nu_l``,

        sigma_{k+1}(l) = sigma_k(l+1) - (alpha_k - l + shift) sigma_k(l)
                         - beta_k sigma_{k-1}(l),

    ``alpha_k = k - shift + sigma_k(k+1)/sigma_k(k) - sigma_{k-1}(k)/sigma_{k-1}(k-1)``
    and ``beta_k = sigma_k(k)/sigma_{k-1}(k-1)``; ``beta_0`` is ``nu_0``.
    An mpf table runs it in fixed point (:func:`_chebyshev_fixed`).  An
    exact one, scaled by the lcm of its denominators, runs fraction-free
    on ints, on ``T_k(l) = H_k sigma_k(l)`` with ``H_k`` the k x k Hankel
    minor: ``T_0(l) = nu_l``, ``T_k(k) = H_{k+1}``, and

        Y(l) = (T_{k-1}(k) T_k(l) - H_{k+1} T_{k-1}(l)) / H_k,
        T_{k+1}(l) = (H_{k+1} (T_k(l+1) + (l-k) T_k(l) + Y(l)) - T_k(k+1) T_k(l)) / H_k,

    two exact divisions.  :func:`_finish` takes ``H_{k+1}`` and ``t_{k+1} =
    T_k(k+1)``, with offsets ``n - shift``.  Raises ``SingularHankel(k)`` at
    the first ``k < K`` with ``H_{k+1} = 0``, as the Hankel route does.

    Exactness: with ``[R; x]`` the determinant of the rows R and x of the
    int matrix ``(L[phi_i phi_j])`` on its first ``|R| + 1`` columns,
    ``T_k(l) = [0..k-1; l]``, and the Plücker relation of the rows ``k-1, k,
    l`` and the unit row of column k over the rows ``0..k-2`` gives ``Y(l) =
    [0..k-2, k; l]``.  ``H_k`` times the second numerator is ``H_k^2 T_{k+1}(l)``.
    """
    shift = nu.basis_shift
    return _finish(nu, K, lambda n: n - shift, _chebyshev_integers, _chebyshev_fixed)


def _chebyshev_integers(curr: list, K: int) -> tuple[list, list]:
    """The pivots ``H_1..H_K`` and ``t_1..t_K``, ``t_{k+1} = T_k(k+1)``, of
    the fraction-free sigma form on the ints ``nu_0..nu_{2K-1}``."""
    prev = [0] * (2 * K)  # T_{-1} = 0
    H, t, below = [], [], 1  # below = H_k
    for k in range(K):
        pivot, right, above = curr[k], curr[k + 1], prev[k]
        if pivot == 0:
            raise SingularHankel(k)
        H.append(pivot)
        t.append(right)
        if k == K - 1:
            break
        nxt = [0] * (2 * K)
        for l in range(k + 1, 2 * K - k - 1):
            c = curr[l]
            y = (above * c - pivot * prev[l]) // below
            nxt[l] = (pivot * (curr[l + 1] + (l - k) * c + y) - right * c) // below
        prev, curr, below = curr, nxt, pivot
    return H, t


def _chebyshev_fixed(nums: list, offsets: list) -> list:
    """The coefficients as mpf (None where not certified) by the sigma form
    in fixed point on the ints ``nu_0..nu_{2K-1}``, ``K = len(offsets)``,
    with ``alpha_k`` offset by ``offsets[k]``.

    ``sigma_k(l)`` is ``S_k[l] 2^(c_l + r_k - wp)`` over the cleared table,
    ``c_l`` the bit length of its nu_l and ``r_k`` such that row k's largest
    entry has ``wp`` bits.  ``alpha_k`` is a difference of ratios, and
    ``beta_k`` enters row k + 1 as ``S_k[k] / S_{k-1}[k-1]`` over the column
    exponents.  Row k is within ``E_k`` units of the exact sigma form:
    ``E_0 = 1``, and ``E_{k+1}`` adds up, at the row maxima (at most
    ``2^wp``), the errors of each term and its floors, rescaled with the
    row.  A diagonal within its bound of zero gives ``[None]``."""
    wp = mp.mp.prec + _GUARD_BITS
    K = len(offsets)
    col = [abs(v).bit_length() for v in nums]
    curr = [_shifted(v, wp - c) for v, c in zip(nums, col)]
    prev = [0] * (2 * K)  # sigma_{-1} = 0
    err, err_prev, rise = 1, 0, 0  # rise = r_k - r_{k-1}
    ratio = spread = 0  # sigma_{k-1}(k)/sigma_{k-1}(k-1) and its bound
    alpha, beta = [], []
    for k in range(K):
        diag = curr[k]
        if abs(diag) <= err:
            return [None]
        r, u = _quotient(curr[k + 1], diag, err, err, wp + col[k + 1] - col[k])
        a, da = r - ratio, u + spread
        alpha.append(_fixed_to_mpf((offsets[k] << wp) + a, da, wp))
        b = db = 0
        if k:
            s = col[k] - col[k - 1]
            beta.append(_ratio_to_mpf(diag, prev[k - 1], err, err_prev, s + rise))
            b, db = _quotient(diag, prev[k - 1], err, err_prev, wp + s)
        if k == K - 1:
            break
        ratio, spread = r, u
        cols = range(k + 1, 2 * K - k - 1)
        nxt = [0] * (2 * K)
        for l in cols:
            t = curr[l]
            nxt[l] = _shifted(curr[l + 1], col[l + 1] - col[l]) + (l - k) * t
            nxt[l] -= (a * t >> wp) + (b * prev[l] >> wp)
        grow = max(0, max(col[l + 1] - col[l] for l in cols))
        bound = (err << grow) + (2 * K - k) * err + da + db + 5
        bound += (abs(a) * err + abs(b) * err_prev) >> wp
        rise = max(map(abs, nxt)).bit_length() - wp
        nxt = [_shifted(x, -rise) for x in nxt]
        err_prev, err = err, (bound >> rise) + 2 if rise > 0 else bound << -rise
        prev, curr = curr, nxt
    return alpha + beta


def _polynomials(rec: Recurrence, K: int, shift: int) -> tuple[list, list, list]:
    """p_0..p_K in ``y = x + shift`` on ints, ``p_k = P_k / d_k``, ``d_k > 0``,
    ``gcd(d_k, content P_k) = 1`` (an mpf coefficient is its dyadic rational).

    The flags say which ``p_k`` of an exact recurrence
    :meth:`Recurrence.polynomials` and ``Poly.shift`` give a ``Fraction``
    coefficient.  Poly arithmetic makes Fractions of coefficients
    ``0..m_k-1``: ``m_{k+1}`` is the largest of ``m_k + 1`` (if ``m_k``),
    ``k + 1`` if alpha_k is a Fraction, and, if ``beta_k != 0`` (``Poly``
    trims ``p_{k-1} * 0``), ``m_{k-1}`` and ``k`` if beta_k is a Fraction;
    a shift keeps the nonzero ones."""
    dens, polys, marks = [1], [[1]], [0]
    for k in range(K):
        alpha, P = rec.alpha[k], polys[k]
        a, b = integer_ratio(alpha)
        num, den = [b * x - a * y for x, y in zip([0] + P, P + [0])], b * dens[k]
        m = max(marks[k] + (marks[k] > 0), (k + 1) * isinstance(alpha, Fraction))
        beta = rec.beta[k] if k else 0
        if beta != 0:
            c, e = integer_ratio(beta)
            other = e * dens[k - 1]
            g = math.gcd(den, other)
            u, v = other // g, c * (den // g)
            num = [x * u - v * y for x, y in zip(num, polys[k - 1] + [0, 0])]
            den = den // g * other
            m = max(m, marks[k - 1], k * isinstance(beta, Fraction))
        h = math.gcd(den, *num)
        dens.append(den // h)
        polys.append([x // h for x in num])
        marks.append(m)
    fractional = [any(P[:m]) if shift else m > 0 for P, m in zip(polys, marks)]
    for P in polys if shift else ():  # P(y - shift), by repeated synthetic division
        for i in range(len(P) - 1):
            for j in range(len(P) - 2, i - 1, -1):
                P[j] -= shift * P[j + 1]
    return dens, polys, fractional


def _largest(cells: list) -> int:
    """The index of the largest ``|t| / d`` over pairs ``(t, d)``, ``d > 0``,
    compared on integers (the first, on a tie)."""
    best, (top, den) = 0, cells[0]
    for i, (t, d) in enumerate(cells):
        if abs(t) * den > abs(top) * d:
            best, top, den = i, t, d
    return best


def orthogonality_check(
    spec: FunctionalSpec, rec: Recurrence, K: int, tol: Scalar = DEFAULT_TOL
) -> dict:
    """Gram matrix L[p_i p_j] for i, j <= K against the spec's functional.

    Each ``p_i``, in the table's basis variable ``y = x + shift`` and scaled
    by the lcm ``d_i`` of its denominators (:func:`_polynomials`, on the
    dyadic rationals an mpf recurrence stores), is expanded in the falling
    basis (:func:`~discsemi.polys.falling_coeffs`).  The mixed moments
    ``L[p_j phi_n]``, n <= j, come from the table scaled by the lcm ``D`` of
    its denominators, by Horner's rule with ``y phi_n = phi_{n+1} + n
    phi_n``; entry (i, j), i <= j, is the ints of ``p_i`` dotted with them,
    over ``D d_i d_j``.  With an exact table and recurrence it is an ``int``
    exactly when every shifted coefficient and moment it uses is one, else
    a ``Fraction``; otherwise it is rounded to ``mpf`` once.

    PASS iff no diagonal entry vanishes and every off-diagonal entry is
    exactly zero when the arithmetic is exact, or at most tol times the
    largest diagonal entry otherwise.  The matrix is symmetric, so only the
    entries with j > i are computed off the diagonal.

    The moments of an infinite weight are summed to a tol of their own, and
    the same dot products, on magnitudes (``1 + |nu_n|`` for ``nu_n``) rounded
    up to 64 bits, bound how far that moves each entry.  The table
    is summed again at a tighter power of two until every bound is at most
    half of ``tol (1 + |h_i|)`` on the diagonal and of tol times the largest
    diagonal entry off it.  The first sum is 4 bits per degree tighter than
    tol: on the benchmark's infinite weights at K = 6 the bound asks for 16
    to 23 bits, so that sum is the only one.
    """
    _check_pairs(rec, K)
    infinite = spec.scale != 0 and spec.weight_upper_bound() is None
    moment_tol = exact_value(tol) / 2 ** (4 * K) if infinite else tol
    table = moments(spec, 2 * K, moment_tol)
    dens, coeffs, fractional = _polynomials(rec, K, table.basis_shift)
    exact = all(map(is_exact, (*rec.alpha[:K], *rec.beta[1:K], *table.values)))
    # entry (i, j) uses the coefficients of p_i, p_j and nu_0..nu_{i+j}
    prefix = list(itertools.accumulate(
        (isinstance(v, Fraction) for v in table.values), operator.or_
    ))
    polys = [Poly(c) for c in coeffs]
    falling = [falling_coeffs(p) for p in polys]

    def mixed(p: Poly, m: list) -> list:
        """``L[p phi_n]`` for n <= deg p (scaled as ``m`` and ``p`` are)."""
        *rest, lead = p.coeffs
        s = [lead * v for v in m[: 2 * len(rest) + 1]]
        for c in reversed(rest):
            s = [s[n + 1] + n * s[n] + c * m[n] for n in range(len(s) - 1)]
        return s

    def dots(polys: list, falling: list, m: list) -> list:
        """Row i: ``D d_i d_j`` times entry (i, j) for j = i..K, on ints."""
        mu = [mixed(p, m) for p in polys]
        return [
            [sum(map(operator.mul, falling[i], mu[j])) for j in range(i, K + 1)]
            for i in range(K + 1)
        ]

    def ceil64(values: list) -> tuple:
        """``s`` and each ``ceil(|v| / 2^s)``, the largest of 64 bits at most."""
        s = max(0, max(map(int.bit_length, values)) - 64)
        return s, [-(-abs(v) >> s) for v in values]

    def entry(i: int, j: int):
        total = rows[i][j - i]
        if not exact:
            return ratio_to_mpf(total, D * dens[i] * dens[j])
        if fractional[i] or fractional[j] or prefix[i + j]:
            return Fraction(total, D * dens[i] * dens[j])
        return total // (D * dens[i] * dens[j])

    while True:
        D, m = clear_denominators(table.values)
        rows = dots(polys, falling, m)
        diagonal = [entry(i, i) for i in range(K + 1)]
        k = _largest([(rows[i][0], dens[i] ** 2) for i in range(K + 1)])
        scale = ratio_to_mpf(abs(rows[k][0]), D * dens[k] ** 2)
        if not infinite or not scale:
            break
        # bound S over yardstick, tol cancelled: S_ii / (D d_i^2 + |T_ii|), S_ij
        # d_k^2 / (d_i d_j |T_kk|) off it (T the entries); S from magnitudes
        # rounded up to 64 bits, 1e-9 over the float error of the log2 sums
        u, M = ceil64([D + abs(v) for v in m])
        (s, P), (t, F) = (zip(*map(ceil64, cs)) for cs in (coeffs, falling))
        slack, bits, log2 = dots(list(map(Poly, P)), F, M), 0, math.log2
        for i in range(K + 1):
            for j in range(i, K + 1):
                below = log2(D * dens[i] ** 2 + abs(rows[i][0])) if i == j else (
                    log2(dens[i]) + log2(dens[j]) + log2(abs(rows[k][0])) - 2 * log2(dens[k]))
                r = 1 + log2(slack[i][j - i]) + t[i] + s[j] + u - below
                bits = max(bits, math.floor(r + 1e-9) + 1)
        needed = exact_value(tol) / 2**bits
        if moment_tol <= needed:
            break
        moment_tol = needed
        table = moments(spec, 2 * K, moment_tol)
    off = [(i, j) for i in range(K + 1) for j in range(i + 1, K + 1)]
    max_off = 0
    if off:
        i, j = off[_largest([(rows[i][j - i], dens[i] * dens[j]) for i, j in off])]
        if rows[i][j - i]:
            max_off = ratio_to_mpf(abs(rows[i][j - i]), D * dens[i] * dens[j])
    ok = all(d != 0 for d in diagonal) and (
        max_off == 0 if exact else max_off <= to_mpf(tol) * scale
    )
    return {
        "pass": bool(ok),
        "K": K,
        "max_offdiagonal": max_off,
        "diagonal": diagonal,
    }
