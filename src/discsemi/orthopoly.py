"""Monic orthogonal polynomials from moment tables.

Two independent routes produce the three-term recurrence

    p_{n+1}(x) = (x - alpha_n) p_n(x) - beta_n p_{n-1}(x),  p_0 = 1,

from a :class:`~discsemi.functional.MomentTable`:

* :func:`recurrence_from_moments` — quotients of the leading and shifted
  minors of the power-basis Hankel moment matrix, read off the pivots of
  one elimination.
* :func:`chebyshev_from_moments` — the modified Chebyshev algorithm run
  directly on the falling-factorial moments (the falling factorials are
  themselves a monic family with recurrence coefficients â_l = l - shift,
  b̂_l = 0, so the table serves as modified moments without conversion).

The two are cross-asserted in the test-suite; orthogonality against the
originating functional (:func:`orthogonality_check`, the Gram matrix of
``p_0..p_K`` through the falling basis) is the final oracle.  Only the
Hankel route converts moments to powers; the Gram check forms its mixed
moments with the identity ``y phi_n(y) = phi_{n+1}(y) + n phi_n(y)`` that
the Chebyshev route runs on, so a fault in the conversion shows as a
disagreement between the recurrences, and one in the Chebyshev loop as a
failed Gram check.  The linear maps (Stirling conversion, mixed moments,
dot products) run on ints for every table, scaled by the lcm of its
denominators (an mpf is the dyadic rational it stores); a numeric output is
rounded to ``mpf`` once.  An exact table is eliminated fraction-free with
exact division; an ``mpf`` one, where division is free, by the division
forms (Gaussian pivots, the sigma form of the Chebyshev algorithm).
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
    integer_ratio,
    is_exact,
    ratio_to_mpf,
    scalar_to_json,
    to_mpf,
)

#: Largest supported recurrence length.  The limit is accuracy, not speed:
#: at dps 60 and K = 24 the numeric Hankel and Chebyshev routes disagree by
#: up to 4e-15 (relative; 2e-34 at best) on the 65 infinite weights with one
#: or two parameter pairs of the benchmark's recurrence pool, far beyond the
#: default tol of 1e-30, while an exact K = 24 Hankel pass on a truncated
#: weight with N in 30..64 and up to one parameter pair takes 0.01 to 0.2 s
#: (Python 3.11, one core of a 2-vCPU host).  The regression families never
#: need more.
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
    """The lcm ``D`` of the denominators of ``values`` (an mpf read as the
    dyadic rational it stores), and the integers ``D * v``."""
    ratios = [integer_ratio(v) for v in values]
    D = math.lcm(*(d for _, d in ratios))
    return D, [n * (D // d) for n, d in ratios]


def _hankel_pivots(m: list, K: int) -> tuple[list, list]:
    """The pivots ``A[k][k]`` (k <= K) and their right neighbours
    ``A[k][k+1]`` (k < K) in one elimination of ``(m_{i+j})_{i,j<=K}``.

    With ``H_k`` its k x k leading minor and ``t_k`` that minor with its
    last column advanced by one, Bareiss steps on ints give ``H_{k+1}`` and
    ``t_{k+1}``; Gaussian steps on ``mpf`` (one division per row, one
    product per entry) give ``d_k = H_{k+1}/H_k`` and ``e_k = t_{k+1}/H_k``.
    Stages stay symmetric, so only the upper triangle is updated.  Raises
    ``SingularHankel(k)`` at the first vanishing pivot.
    """
    n = K + 1
    A = [m[i : i + n] for i in range(n)]
    pivots, right = [], []
    exact, prev = isinstance(m[0], int), 1
    for k in range(n):
        row = A[k]
        pivot = row[k]
        if pivot == 0:
            raise SingularHankel(k)
        pivots.append(pivot)
        if k < K:
            right.append(row[k + 1])
        for i in range(k + 1, n):
            lower, head = A[i], row[i]
            if exact:  # Bareiss's division by the previous pivot is exact
                for j in range(i, n):
                    lower[j] = (pivot * lower[j] - head * row[j]) // prev
            else:
                factor = head / pivot
                for j in range(i, n):
                    lower[j] -= factor * row[j]
        prev = pivot
    return pivots, right


def recurrence_from_moments(nu: MomentTable, K: int) -> Recurrence:
    """alpha_0..alpha_{K-1}, beta_0..beta_{K-1} from Hankel minors.

    With ``H_k`` and ``t_k`` as in :func:`_hankel_pivots` for the power
    moments, ``alpha_n = t_{n+1}/H_{n+1} - t_n/H_n`` and
    ``beta_n = H_{n+1} H_{n-1} / H_n^2``; ``beta_0`` is ``nu_0``.  The table
    is scaled by the lcm ``D`` of its denominators and converted to power
    moments on those ints.  An exact table is divided by the gcd ``g`` of
    ``D`` and them, leaving power moments scaled by ``D / g``, which the
    quotients cancel.  Any other table rounds each power moment to ``mpf``
    once and takes ``alpha_n = e_n/d_n - e_{n-1}/d_{n-1}`` and
    ``beta_n = d_n / d_{n-1}`` from Gaussian pivots.  Raises
    ``SingularHankel(n)`` at the first vanishing leading determinant.
    """
    _check_cap(K)
    _check_length(nu, 2 * K + 1, K)
    values = nu.values[: 2 * K + 1]
    D, scaled = _clear_denominators(values)
    powers = stirling_convert(MomentTable(scaled, nu.basis_shift))
    if all(map(is_exact, values)):
        g = math.gcd(D, *powers)
        H, t = _hankel_pivots([p // g for p in powers], K)
        H, t = [1] + H, [0] + t
        alpha = [Fraction(t[n + 1] * H[n] - t[n] * H[n + 1], H[n + 1] * H[n]) for n in range(K)]
        beta = [Fraction(H[n + 1] * H[n - 1], H[n] * H[n]) for n in range(1, K)]
    else:
        d, e = _hankel_pivots([ratio_to_mpf(p, D) for p in powers], K)
        ratios = [0] + [e[n] / d[n] for n in range(K)]
        alpha = [ratios[n + 1] - ratios[n] for n in range(K)]
        beta = [d[n] / d[n - 1] for n in range(1, K)]
    return Recurrence(tuple(alpha), tuple([values[0]] + beta)[:K])


def chebyshev_from_moments(nu: MomentTable, K: int) -> Recurrence:
    """The same coefficients via the modified Chebyshev algorithm.

    The reference system is phi_l, with coefficients ``l - shift`` and 0.
    An ``mpf`` table runs the sigma form (Gautschi, *Orthogonal Polynomials:
    Computation and Approximation*, 2004, §2.1.7) on
    ``sigma_k(l) = L[p_k phi_l]``: ``sigma_0(l) = nu_l``,

        sigma_{k+1}(l) = sigma_k(l+1) - (alpha_k - l + shift) sigma_k(l)
                         - beta_k sigma_{k-1}(l),

    ``alpha_k = k - shift + sigma_k(k+1)/sigma_k(k) - sigma_{k-1}(k)/sigma_{k-1}(k-1)``
    and ``beta_k = sigma_k(k)/sigma_{k-1}(k-1)``; ``beta_0`` is ``nu_0``.
    An exact table, scaled by the lcm of its denominators, runs fraction-free
    on ints, on ``T_k(l) = H_k sigma_k(l)`` with ``H_k`` the k x k Hankel
    minor: ``T_0(l) = nu_l``, ``T_k(k) = H_{k+1}``, and

        T_{k+1}(l) = [H_k H_{k+1} (T_k(l+1) - (k-l) T_k(l))
                      - H_k T_k(k+1) T_k(l)
                      + H_{k+1} (T_{k-1}(k) T_k(l) - H_{k+1} T_{k-1}(l))] / H_k^2,

    an exact division.  Raises ``SingularHankel(k)`` at the first
    ``k < K`` with ``H_{k+1} = 0``.
    """
    _check_cap(K)
    if K == 0:
        _check_length(nu, 1, K)
        return Recurrence((), ())
    _check_length(nu, 2 * K, K)
    values = nu.values[: 2 * K]
    loop = _chebyshev_integers if all(map(is_exact, values)) else _chebyshev_sigma
    alpha, beta = loop(values, K, nu.basis_shift)
    return Recurrence(tuple(alpha), (values[0],) + tuple(beta))


def _chebyshev_integers(values, K: int, shift) -> tuple[list, list]:
    """alpha_0..alpha_{K-1} and beta_1..beta_{K-1}, fraction-free on ints."""
    _, curr = _clear_denominators(values)
    prev = [0] * (2 * K)  # T_{-1} = 0
    H = [1, curr[0]]
    alpha, beta = [], []
    for k in range(K):
        h0, h1, right, above = H[k], H[k + 1], curr[k + 1], prev[k]
        if h1 == 0:
            raise SingularHankel(k)
        alpha.append(k - shift + Fraction(right * h0 - above * h1, h1 * h0))
        if k:
            beta.append(Fraction(h1 * H[k - 1], h0 * h0))
        if k == K - 1:
            break
        square, lead, mix, back = h0 * h0, h0 * h1, h1 * above - h0 * right, h1 * h1
        nxt = [0] * (2 * K)
        for l in range(k + 1, 2 * K - k - 1):
            t = curr[l]
            nxt[l] = (lead * (curr[l + 1] + (l - k) * t) + mix * t - back * prev[l]) // square
        H.append(nxt[k + 1])
        prev, curr = curr, nxt
    return alpha, beta


def _chebyshev_sigma(values, K: int, shift) -> tuple[list, list]:
    """alpha_0..alpha_{K-1} and beta_1..beta_{K-1}, in the sigma form on ``mpf``."""
    curr = [to_mpf(v) for v in values]
    prev = [0] * (2 * K)  # sigma_{-1} = 0
    alpha, beta = [], []
    ratio = diagonal = 0  # sigma_{k-1}(k)/sigma_{k-1}(k-1) and sigma_{k-1}(k-1)
    for k in range(K):
        if curr[k] == 0:
            raise SingularHankel(k)
        r = curr[k + 1] / curr[k]
        a, b = k - shift + r - ratio, curr[k] / diagonal if k else 0
        alpha.append(a)
        if k:
            beta.append(b)
        if k == K - 1:
            break
        ratio, diagonal = r, curr[k]
        nxt = [0] * (2 * K)
        for l in range(k + 1, 2 * K - k - 1):
            nxt[l] = curr[l + 1] - (a - l + shift) * curr[l] - b * prev[l]
        prev, curr = curr, nxt
    return alpha, beta


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
    falling coefficients of ``p_j`` with these.  The table is scaled by the
    lcm ``D`` of its denominators and each shifted ``p_i`` by the lcm
    ``d_i`` of its own (an mpf read as the dyadic rational it stores), so
    the sums run on ints and each entry is one division by ``D d_i d_j``.
    When the table and the recurrence are exact, an entry is an ``int``
    exactly when every shifted coefficient and moment it uses is one, else
    a ``Fraction``; otherwise every entry is rounded to ``mpf`` once.

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
    # entry (i, j) uses the coefficients of p_i, p_j and nu_0..nu_{i+j}
    fractional = [any(isinstance(c, Fraction) for c in p.coeffs) for p in polys]
    prefix = list(itertools.accumulate(
        (isinstance(v, Fraction) for v in values), operator.or_
    ))
    D, m = _clear_denominators(values)
    scaled = [_clear_denominators(p.coeffs) for p in polys]
    dens = [den for den, _ in scaled]
    polys = [Poly(coeffs) for _, coeffs in scaled]

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
            return ratio_to_mpf(total, D * dens[i] * dens[j])
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
