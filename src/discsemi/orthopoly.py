"""Monic orthogonal polynomials from moment tables.

Two independent routes produce the three-term recurrence

    p_{n+1}(x) = (x - alpha_n) p_n(x) - beta_n p_{n-1}(x),  p_0 = 1,

from a :class:`~discsemi.functional.MomentTable`:

* :func:`recurrence_from_moments` — quotients of the leading and shifted
  minors of the power-basis Hankel moment matrix, all read off the pivots
  of one fraction-free (Bareiss) elimination.  Exact arithmetic
  neutralizes the notorious conditioning of this construction at the
  small degrees used here.
* :func:`chebyshev_from_moments` — the modified Chebyshev algorithm run
  directly on the falling-factorial moments (the falling factorials are
  themselves a monic family with recurrence coefficients â_l = l - shift,
  b̂_l = 0, which is what makes the moment table usable as modified
  moments without conversion), in a fraction-free form whose entries are
  the mixed moments scaled by the Hankel minors.

The two are cross-asserted in the test-suite; orthogonality against the
originating functional (:func:`orthogonality_check`, the Gram matrix of
``p_0..p_K`` through the falling basis) is the final oracle.  The Hankel
route is the only one that converts moments to powers.  The Gram check
converts polynomials, not moments, to the falling basis, and forms its
mixed moments ``L[p_i phi_n]`` with the identity
``y phi_n(y) = phi_{n+1}(y) + n phi_n(y)`` that the Chebyshev route also
runs on; a fault in the Stirling conversion of moments therefore shows as
a disagreement between the two recurrences, and one in the Chebyshev loop
as a failed Gram check.  All three run on ints when the table is exact
(scaled once by the lcm of its denominators, with exact division inside
the loop) and on ``mpf`` otherwise.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .combin import stirling_convert
from .errors import InputError, MissingParameter, SingularHankel
from .functional import FunctionalSpec, MomentTable, moments
from .polys import Poly, falling_coeffs
from .scalars import (
    DEFAULT_TOL,
    Scalar,
    is_exact,
    scalar_to_json,
    to_mpf,
)

#: Largest supported recurrence length.  The limit is accuracy, not speed:
#: at dps 60 and K = 24 the numeric Hankel and Chebyshev routes disagree by
#: 2e-29 to 1e-14 (relative) on infinite weights with one or two parameter
#: pairs, beyond the default tol of 1e-30, while an exact K = 24 Hankel
#: pass on a truncated weight with N in 30..64 and up to one parameter
#: pair takes 0.01 to 0.2 s (Python 3.11, one core of a 2-vCPU host).  The
#: regression families never need more.
MAX_K = 12


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
        if n > len(self.alpha):
            raise InputError(
                f"the recurrence holds {len(self.alpha)} coefficient pairs; "
                f"cannot build p_{n}"
            )
        polys = [Poly.one()]
        for k in range(n):
            nxt = Poly((-self.alpha[k], 1)) * polys[k]
            if k > 0:
                nxt = nxt - polys[k - 1] * self.beta[k]
            polys.append(nxt)
        for k, p in enumerate(polys):
            assert p.degree == k and p.leading() == 1
        return polys


def _check_length(nu: MomentTable, needed: int, K: int):
    if len(nu.values) < needed:
        raise MissingParameter(
            f"building {K} recurrence coefficients needs moments through "
            f"nu_{needed - 1}, table has {len(nu.values)}"
        )


def _check_cap(K: int):
    if not isinstance(K, int) or isinstance(K, bool) or K < 0:
        raise InputError("the recurrence length K must be a nonnegative integer")
    if K > MAX_K:
        raise InputError(f"the recurrence length K is capped at {MAX_K}")


def _clear_denominators(values) -> tuple[int, list[int]]:
    """The lcm ``D`` of the denominators of exact ``values``, and the
    integers ``D * v``."""
    D = math.lcm(*(v.denominator for v in values))
    return D, [v.numerator * (D // v.denominator) for v in values]


def _arithmetic(values) -> tuple[list, object, object]:
    """Decide integer or ``mpf`` arithmetic once for a slice of moments.

    Returns ``(entries, divide, ratio)``: an exact slice becomes the ints
    of :func:`_clear_denominators`, with exact ``//`` inside the loop and
    ``Fraction`` quotients at the end; any other slice becomes ``mpf``
    values with ``/`` for both.
    """
    if all(is_exact(v) for v in values):
        _, entries = _clear_denominators(values)
        return entries, operator.floordiv, Fraction
    return [to_mpf(v) for v in values], operator.truediv, operator.truediv


def _hankel_minors(m: list, K: int, divide) -> tuple[list, list]:
    """Leading minors ``H_0..H_{K+1}`` and shifted minors ``t_0..t_K`` of
    the Hankel matrix ``(m_{i+j})_{i,j<=K}``, from one Bareiss elimination.

    ``H_k`` is the k x k leading minor (``H_0 = 1``); ``t_k`` is the same
    minor with its last column advanced by one (``t_0 = 0``).  After step k
    the pivot ``A[k][k]`` is ``H_{k+1}`` and the entry to its right is
    ``t_{k+1}``.  ``divide`` takes Bareiss's division by the previous
    pivot, which is exact on integer entries.  The matrix is symmetric, and
    so is every Bareiss stage, so only the upper triangle is updated.
    Raises ``SingularHankel(k)`` at the first vanishing pivot, i.e. the
    first k with ``H_{k+1} = 0``.
    """
    n = K + 1
    A = [m[i : i + n] for i in range(n)]
    H, t = [1], [0]
    prev = 1
    for k in range(n):
        row = A[k]
        pivot = row[k]
        if pivot == 0:
            raise SingularHankel(k)
        H.append(pivot)
        if k < K:
            t.append(row[k + 1])
        for i in range(k + 1, n):
            lower, head = A[i], row[i]
            for j in range(i, n):
                lower[j] = divide(pivot * lower[j] - head * row[j], prev)
        prev = pivot
    return H, t


def recurrence_from_moments(nu: MomentTable, K: int) -> Recurrence:
    """alpha_0..alpha_{K-1}, beta_0..beta_{K-1} from Hankel minors.

    With ``H_k`` the leading and ``t_k`` the shifted minors of the power
    moment matrix, read off one Bareiss pass (:func:`_hankel_minors`),
    ``alpha_n = t_{n+1}/H_{n+1} - t_n/H_n`` and
    ``beta_n = H_{n+1} H_{n-1} / H_n^2``; ``beta_0`` is ``nu_0``.  An
    exact table is scaled by the lcm ``D`` of its denominators, converted
    to power moments on those ints, and divided by the gcd ``g`` of ``D``
    and the converted ints: that leaves the power moments scaled by the lcm
    ``D / g`` of their own denominators.  The elimination runs on these
    ints, which multiplies ``H_k`` and ``t_k`` by ``(D / g)^k``, and every
    quotient above cancels that.  Any other table is converted and
    eliminated on ``mpf``.

    Checks quasi-definiteness through level K+1 and raises
    ``SingularHankel(n)`` at the first vanishing leading determinant.
    """
    _check_cap(K)
    _check_length(nu, 2 * K + 1, K)
    values = nu.values[: 2 * K + 1]
    if all(map(is_exact, values)):
        D, scaled = _clear_denominators(values)
        powers = stirling_convert(MomentTable(scaled, nu.basis_shift))
        g = math.gcd(D, *powers)
        entries, divide, ratio = [p // g for p in powers], operator.floordiv, Fraction
    else:
        powers = stirling_convert(MomentTable(values, nu.basis_shift))
        entries, divide, ratio = _arithmetic(powers)
    H, t = _hankel_minors(entries, K, divide)
    alpha = tuple(
        ratio(t[n + 1] * H[n] - t[n] * H[n + 1], H[n + 1] * H[n])
        for n in range(K)
    )
    beta = tuple(
        values[0] if n == 0 else ratio(H[n + 1] * H[n - 1], H[n] * H[n])
        for n in range(K)
    )
    return Recurrence(alpha, beta)


def chebyshev_from_moments(nu: MomentTable, K: int) -> Recurrence:
    """The same coefficients via the modified Chebyshev algorithm.

    The falling-factorial family phi_l (recentred by the table's basis
    shift) serves as the reference system, so the table's entries are the
    modified moments as-is.  The loop runs fraction-free on
    ``T_k(l) = H_k L[p_k phi_l]``, with ``H_k`` the k x k Hankel minor:
    ``T_0(l) = nu_l``, ``T_k(k) = H_{k+1}``, and

        T_{k+1}(l) = [H_k H_{k+1} (T_k(l+1) - (k-l) T_k(l))
                      - H_k T_k(k+1) T_k(l)
                      + H_{k+1} (T_{k-1}(k) T_k(l) - H_{k+1} T_{k-1}(l))] / H_k^2,

    where the division is exact.  Then
    ``alpha_k = k - shift + (T_k(k+1) H_k - T_{k-1}(k) H_{k+1}) / (H_{k+1} H_k)``
    and ``beta_k = H_{k+1} H_{k-1} / H_k^2``; ``beta_0`` is ``nu_0``.  An
    exact table is scaled by the lcm ``D`` of its denominators and run on
    ints (``T_k`` picks up ``D^{k+1}``, which the quotients cancel); any
    other table runs the same loop on ``mpf``.  Raises ``SingularHankel(k)``
    at the first ``k < K`` with ``H_{k+1} = 0``.
    """
    _check_cap(K)
    if K == 0:
        _check_length(nu, 1, K)
        return Recurrence((), ())
    _check_length(nu, 2 * K, K)
    curr, divide, ratio = _arithmetic(nu.values[: 2 * K])
    if curr[0] == 0:
        raise SingularHankel(0)
    shift = nu.basis_shift
    prev = [0] * (2 * K)  # T_{-1} = 0
    H = [1, curr[0]]
    alpha, beta = [], [nu.values[0]]
    for k in range(K):
        h0, h1, right, above = H[k], H[k + 1], curr[k + 1], prev[k]
        alpha.append(k - shift + ratio(right * h0 - above * h1, h1 * h0))
        if k:
            beta.append(ratio(h1 * H[k - 1], h0 * h0))
        if k == K - 1:
            break
        square, lead, mix, back = h0 * h0, h0 * h1, h1 * above - h0 * right, h1 * h1
        nxt = [0] * (2 * K)
        for l in range(k + 1, 2 * K - k - 1):
            t = curr[l]
            nxt[l] = divide(
                lead * (curr[l + 1] + (l - k) * t) + mix * t - back * prev[l], square
            )
        if nxt[k + 1] == 0:
            raise SingularHankel(k + 1)
        H.append(nxt[k + 1])
        prev, curr = curr, nxt
    return Recurrence(tuple(alpha), tuple(beta))


def orthogonality_check(
    spec: FunctionalSpec, rec: Recurrence, K: int, tol: Scalar = DEFAULT_TOL
) -> dict:
    """Gram matrix L[p_i p_j] for i, j <= K against the spec's functional.

    Each ``p_i`` is shifted to the table's basis ``phi_n(y)``, ``y = x +
    shift``, and expanded in it once (:func:`~discsemi.polys.falling_coeffs`).
    The mixed moments ``L[p_i phi_n]`` for n <= K come from the table by
    Horner's rule on the shifted power coefficients of ``p_i``, with
    ``y phi_n = phi_{n+1} + n phi_n`` (the identity the Chebyshev route
    runs on); an entry ``L[p_i p_j]`` is then one dot product of the
    falling coefficients of ``p_j`` with these.  When the table and the
    recurrence are exact, the table is scaled by the lcm ``D`` of its
    denominators and each shifted ``p_i`` by the lcm ``d_i`` of its own, so
    the sums run on ints and each entry is one division by ``D d_i d_j``;
    an entry is an ``int`` exactly when every shifted coefficient and
    moment it uses is one.  Otherwise the same sums run on ``mpf`` moments.

    PASS iff no diagonal entry vanishes and every off-diagonal entry is
    exactly zero when the arithmetic is exact, or at most tol times the
    largest diagonal entry otherwise.  The matrix is symmetric, so only the entries
    with j > i are computed off the diagonal.
    """
    table = moments(spec, 2 * K, tol)
    polys = [p.shift(-table.basis_shift) for p in rec.polynomials(K)]
    values = table.values
    exact = all(map(is_exact, values)) and all(
        is_exact(c) for p in polys for c in p.coeffs
    )
    if exact:
        # entry (i, j) uses the coefficients of p_i, p_j and nu_0..nu_{i+j}
        fractional = [any(isinstance(c, Fraction) for c in p.coeffs) for p in polys]
        prefix = list(itertools.accumulate(
            (isinstance(v, Fraction) for v in values), operator.or_
        ))
        D, m = _clear_denominators(values)
        scaled = [_clear_denominators(p.coeffs) for p in polys]
        dens = [den for den, _ in scaled]
        polys = [Poly(coeffs) for _, coeffs in scaled]
    else:
        m = [to_mpf(v) for v in values]

    def mixed(p: Poly) -> list:
        """``L[p phi_n]`` for n <= K (scaled as ``m`` and ``p`` are)."""
        *rest, lead = p.coeffs
        s = [lead * v for v in m[: K + len(rest) + 1]]
        for c in reversed(rest):
            s = [s[n + 1] + n * s[n] + c * m[n] for n in range(len(s) - 1)]
        return s

    falling = [falling_coeffs(p) for p in polys]
    mu = [mixed(p) for p in polys]

    def entry(i: int, j: int):
        total = sum(c * mu[i][n] for n, c in enumerate(falling[j]))
        if not exact:
            return total
        if fractional[i] or fractional[j] or prefix[i + j]:
            return Fraction(total, D * dens[i] * dens[j])
        return total // (D * dens[i] * dens[j])

    diagonal = [entry(i, i) for i in range(K + 1)]
    scale = max(abs(to_mpf(d)) for d in diagonal)
    max_off = 0
    for i in range(K + 1):
        for j in range(i + 1, K + 1):
            max_off = max(max_off, abs(to_mpf(entry(i, j))))
    ok = all(d != 0 for d in diagonal) and (
        max_off == 0 if exact else max_off <= to_mpf(tol) * scale
    )
    return {
        "pass": bool(ok),
        "K": K,
        "max_offdiagonal": max_off,
        "diagonal": diagonal,
    }
