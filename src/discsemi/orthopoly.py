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
  moments without conversion).

The two are cross-asserted in the test-suite; orthogonality against the
originating functional is the final oracle.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .combin import stirling_convert
from .errors import InputError, MissingParameter, SingularHankel
from .functional import (
    FunctionalSpec,
    MomentTable,
    functional_of_poly,
    moments,
)
from .polys import Poly
from .scalars import (
    DEFAULT_TOL,
    Scalar,
    exact_div,
    exact_sub,
    is_exact,
    scalar_is_zero,
    scalar_to_json,
    to_mpf,
)

#: Largest supported recurrence length.  The limit is accuracy, not speed:
#: at dps 60 and K = 24 the numeric Hankel and Chebyshev routes disagree by
#: 2e-29 to 1e-14 (relative) on infinite weights with one or two parameter
#: pairs, beyond the default tol of 1e-30, while an exact K = 24 Hankel
#: pass takes about 0.3 s.  The regression families never need more.
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
            assert p.degree == k and scalar_is_zero(p.leading() - 1)
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
    exact table is scaled by the lcm ``D`` of its denominators and
    eliminated on ints; that multiplies ``H_k`` and ``t_k`` by ``D^k``,
    which every quotient above cancels.  Any other table runs the same
    pass on ``mpf``.

    Checks quasi-definiteness through level K+1 and raises
    ``SingularHankel(n)`` at the first vanishing leading determinant.
    """
    _check_cap(K)
    _check_length(nu, 2 * K + 1, K)
    m = stirling_convert(nu)[: 2 * K + 1]
    if all(is_exact(v) for v in m):
        scale = math.lcm(*(v.denominator for v in m))
        entries = [v.numerator * (scale // v.denominator) for v in m]
        divide, ratio = operator.floordiv, Fraction
    else:
        entries = [to_mpf(v) for v in m]
        divide = ratio = operator.truediv
    H, t = _hankel_minors(entries, K, divide)
    alpha = tuple(
        ratio(t[n + 1] * H[n] - t[n] * H[n + 1], H[n + 1] * H[n])
        for n in range(K)
    )
    beta = tuple(
        m[0] if n == 0 else ratio(H[n + 1] * H[n - 1], H[n] * H[n])
        for n in range(K)
    )
    return Recurrence(alpha, beta)


def chebyshev_from_moments(nu: MomentTable, K: int) -> Recurrence:
    """The same coefficients via the modified Chebyshev algorithm.

    The falling-factorial family phi_l (recentred by the table's basis
    shift) serves as the reference system, so the table's entries are the
    modified moments as-is.
    """
    _check_cap(K)
    if K == 0:
        _check_length(nu, 1, K)
        return Recurrence((), ())
    _check_length(nu, 2 * K, K)
    shift = nu.basis_shift

    def ahat(l: int):
        return l - shift

    if scalar_is_zero(nu.values[0]):
        raise SingularHankel(0)
    alpha = [ahat(0) + exact_div(nu.values[1], nu.values[0])]
    beta = [nu.values[0]]
    sigma_prev: dict[int, Scalar] = {}
    sigma_curr = {l: nu.values[l] for l in range(2 * K)}
    for k in range(1, K):
        sigma_next: dict[int, Scalar] = {}
        for l in range(k, 2 * K - k):
            val = exact_sub(
                sigma_curr[l + 1],
                (exact_sub(alpha[k - 1], ahat(l))) * sigma_curr[l],
            )
            if k >= 2:
                val = exact_sub(val, beta[k - 1] * sigma_prev[l])
            sigma_next[l] = val
        if scalar_is_zero(sigma_next[k]):
            raise SingularHankel(k)
        alpha.append(
            ahat(k)
            + exact_sub(
                exact_div(sigma_next[k + 1], sigma_next[k]),
                exact_div(sigma_curr[k], sigma_curr[k - 1]),
            )
        )
        beta.append(exact_div(sigma_next[k], sigma_curr[k - 1]))
        sigma_prev, sigma_curr = sigma_curr, sigma_next
    return Recurrence(tuple(alpha), tuple(beta))


def orthogonality_check(
    spec: FunctionalSpec, rec: Recurrence, K: int, tol: Scalar = DEFAULT_TOL
) -> dict:
    """Gram matrix L[p_i p_j] for i, j <= K against the spec's functional.

    PASS iff every off-diagonal entry is at most tol times the largest
    diagonal entry (exactly zero when the arithmetic is exact) and no
    diagonal entry vanishes.  The matrix is symmetric, so only the entries
    with j > i are computed off the diagonal.
    """
    polys = rec.polynomials(K)
    table = moments(spec, 2 * K, tol)
    diagonal = [functional_of_poly(table, p * p) for p in polys]
    scale = max(abs(to_mpf(d)) for d in diagonal)
    max_off = 0
    for i in range(K + 1):
        for j in range(i + 1, K + 1):
            entry = functional_of_poly(table, polys[i] * polys[j])
            max_off = max(max_off, abs(to_mpf(entry)))
    ok = (
        all(not scalar_is_zero(d) for d in diagonal)
        and max_off <= to_mpf(tol) * scale
    )
    return {
        "pass": bool(ok),
        "K": K,
        "max_offdiagonal": max_off,
        "diagonal": diagonal,
    }
