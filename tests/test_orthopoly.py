"""Recurrence construction from moment tables: the two routes, closed-form
coefficient checks, orthogonality against the originating functional, and
degenerate-table behavior."""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp

from discsemi.combin import falling_factorial, stirling_convert
from discsemi.errors import InputError, MissingParameter, SingularHankel
from discsemi.functional import (
    FunctionalSpec,
    Mass,
    MomentTable,
    Support,
    functional_of_poly,
    moments,
    stieltjes_eval,
)
from discsemi import orthopoly
from discsemi.orthopoly import (
    MAX_K,
    Recurrence,
    _hankel_pivots,
    chebyshev_from_moments,
    orthogonality_check,
    recurrence_from_moments,
)
from discsemi.polys import Poly
from discsemi.scalars import (
    DEFAULT_TOL,
    agree,
    clear_denominators,
    exact_value,
    is_exact,
    ratio_to_mpf,
    to_mpf,
)
from discsemi.transforms import (
    apply_christoffel,
    apply_geronimus,
    apply_symmetrization,
    apply_truncation,
    apply_uvarov,
)


def exact_div(x, y):
    """``x / y``, a ``Fraction`` when both are exact (plain ``/`` on two
    ints gives a float), else the mpf quotient."""
    if is_exact(x) and is_exact(y):
        return Fraction(x) / Fraction(y)
    return x / y


HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


def charlier():
    return FunctionalSpec(a=(), b=(), z=HALF)


def krawtchouk(N=4):
    return FunctionalSpec(a=(-N,), b=(), z=HALF)


def hahn():
    return FunctionalSpec(a=(THIRD, -4), b=(HALF,), z=1)


def max_err(pairs):
    return max(abs(to_mpf(x) - to_mpf(y)) for x, y in pairs)


# -- closed-form coefficients -------------------------------------------------


def test_poisson_type_weight_closed_form():
    with mp.workdps(50):
        z = HALF
        nu = moments(charlier(), 12)
        rec = recurrence_from_moments(nu, 6)
        assert max_err((rec.alpha[n], n + z) for n in range(6)) < 1e-24
        assert max_err((rec.beta[n], n * z) for n in range(1, 6)) < 1e-24
        assert abs(to_mpf(rec.beta[0]) - to_mpf(nu.values[0])) == 0


def test_negative_binomial_weight_closed_form():
    with mp.workdps(50):
        a, z = THIRD, HALF
        nu = moments(FunctionalSpec(a=(a,), b=(), z=z), 12)
        rec = recurrence_from_moments(nu, 6)
        expected_alpha = [(n + (n + a) * z) / (1 - z) for n in range(6)]
        expected_beta = [n * (n + a - 1) * z / (1 - z) ** 2 for n in range(6)]
        assert max_err(zip(rec.alpha, expected_alpha)) < 1e-24
        assert max_err(zip(rec.beta[1:], expected_beta[1:])) < 1e-24


def test_indefinite_poisson_type_weights_without_pivoting():
    # z < 0 makes the weight z^x / x! alternate in sign: the functional is
    # quasi-definite (beta_n = n z != 0) but not positive, so the numeric
    # Hankel pass meets signed pivots without row exchanges.
    with mp.workdps(50):
        for z in (Fraction(-1, 2), Fraction(-3, 2)):
            spec = FunctionalSpec(a=(), b=(), z=z)
            nu = moments(spec, 12)
            rec = recurrence_from_moments(nu, 6)
            alt = chebyshev_from_moments(nu, 6)
            assert max_err(zip(rec.alpha + rec.beta, alt.alpha + alt.beta)) < 1e-30
            assert max_err((rec.alpha[n], n + z) for n in range(6)) < 1e-30
            assert max_err((rec.beta[n], n * z) for n in range(1, 6)) < 1e-30
            assert orthogonality_check(spec, rec, 6)["pass"]


def test_binomial_weight_exact_closed_form():
    # Terminating numerator parameter a = -N specializes the
    # negative-binomial formulas; everything stays rational.
    N, z = 4, HALF
    nu = moments(krawtchouk(N), 8)
    rec = recurrence_from_moments(nu, 4)
    assert rec.alpha == tuple(
        Fraction(n + (n - N) * z, 1 - z) for n in range(4)
    )
    assert rec.beta[0] == Fraction(1, 16)
    assert rec.beta[1:] == tuple(
        Fraction(n * (n - N - 1) * z, (1 - z) ** 2) for n in range(1, 4)
    )


# -- the two routes agree -----------------------------------------------------


def test_routes_agree_exactly_on_rational_tables():
    for spec, K in [(krawtchouk(), 4), (hahn(), 4)]:
        nu = moments(spec, 2 * K)
        assert recurrence_from_moments(nu, K) == chebyshev_from_moments(nu, K)


def test_routes_agree_numerically():
    with mp.workdps(50):
        nu = moments(charlier(), 12)
        r1 = recurrence_from_moments(nu, 6)
        r2 = chebyshev_from_moments(nu, 6)
        assert max_err(zip(r1.alpha + r1.beta, r2.alpha + r2.beta)) < 1e-30


def test_routes_agree_on_shifted_basis():
    base = FunctionalSpec(a=(THIRD, -4), b=(), z=HALF)
    out = apply_symmetrization(base, 2)
    nu = moments(out, 8)
    assert nu.basis_shift == 2
    r1 = recurrence_from_moments(nu, 4)
    r2 = chebyshev_from_moments(nu, 4)
    assert r1 == r2


# -- symmetric window => alpha identically zero -------------------------------


def test_symmetrized_weight_has_zero_alpha():
    out = apply_symmetrization(charlier(), 2)
    nu = moments(out, 8)
    rec = recurrence_from_moments(nu, 4)
    assert all(a == 0 for a in rec.alpha)
    assert all(not b == 0 for b in rec.beta)
    report = orthogonality_check(out, rec, 4)
    assert report["pass"] and report["max_offdiagonal"] == 0


# -- orthogonality checks -----------------------------------------------------


def test_orthogonality_exact_zeros_terminating_families():
    for spec, K in [(krawtchouk(), 3), (hahn(), 4)]:
        nu = moments(spec, 2 * K)
        rec = recurrence_from_moments(nu, K)
        report = orthogonality_check(spec, rec, K)
        assert report["pass"]
        assert report["max_offdiagonal"] == 0
        assert len(report["diagonal"]) == K + 1
        assert all(d != 0 for d in report["diagonal"])


def test_orthogonality_numeric_infinite_weight():
    with mp.workdps(50):
        spec = charlier()
        rec = recurrence_from_moments(moments(spec, 12), 6)
        report = orthogonality_check(spec, rec, 5)
        assert report["pass"]
        assert report["max_offdiagonal"] < 1e-30


def test_orthogonality_k_zero_trivially_passes():
    spec = krawtchouk()
    rec = recurrence_from_moments(moments(spec, 1), 0)
    assert rec == Recurrence((), ())
    assert orthogonality_check(spec, rec, 0)["pass"]


def test_orthogonality_detects_corrupted_coefficients():
    spec = krawtchouk()
    rec = recurrence_from_moments(moments(spec, 8), 4)
    # an exact off-diagonal entry fails however small it is
    for shift in (1, Fraction(1, 10**40)):
        bad = Recurrence(
            rec.alpha[:1] + (rec.alpha[1] + shift,) + rec.alpha[2:], rec.beta
        )
        assert not orthogonality_check(spec, bad, 3)["pass"]


def test_orthogonality_with_point_mass_spec():
    spec = apply_uvarov(krawtchouk(), Fraction(-3, 2), 1)
    nu = moments(spec, 8)
    rec = recurrence_from_moments(nu, 4)
    report = orthogonality_check(spec, rec, 3)
    assert report["pass"] and report["max_offdiagonal"] == 0


# -- degenerate tables --------------------------------------------------------


def test_unit_mass_table_is_singular_at_level_one():
    unit = MomentTable((1, 0, 0, 0, 0))
    with pytest.raises(SingularHankel) as info:
        recurrence_from_moments(unit, 2)
    assert info.value.index == 1
    with pytest.raises(SingularHankel) as info:
        chebyshev_from_moments(unit, 2)
    assert info.value.index == 1


def test_five_point_support_exhausts_at_level_five():
    # A terminating weight on {0..4} is quasi-definite only through
    # degree 4: its five points give five pairs, and K = 6 needs H_6 = 0.
    nu = moments(krawtchouk(4), 12)
    assert len(recurrence_from_moments(nu, 5)) == 5
    with pytest.raises(SingularHankel) as info:
        recurrence_from_moments(nu, 6)
    assert info.value.index == 5


def test_zero_total_mass_is_singular_at_level_zero():
    table = MomentTable((0, 1, 2, 3))
    with pytest.raises(SingularHankel) as info:
        recurrence_from_moments(table, 1)
    assert info.value.index == 0
    with pytest.raises(SingularHankel):
        chebyshev_from_moments(table, 1)


def test_mpf_table_with_zero_mass_is_singular_at_level_zero():
    # the division forms meet nu_0 = 0 as a zero pivot, as the integer loops do
    with mp.workdps(60):
        table = MomentTable([mp.mpf(0)] + [mp.mpf(n) / 3 for n in range(1, 7)])
        for route in (recurrence_from_moments, chebyshev_from_moments):
            with pytest.raises(SingularHankel) as info:
                route(table, 3)
            assert info.value.index == 0


def _both_routes(nu: MomentTable, K: int):
    """The outcome of both routes, asserted equal in values and types."""
    hankel, chebyshev = (
        _outcome(route, nu, K) for route in (recurrence_from_moments, chebyshev_from_moments)
    )
    if isinstance(hankel, tuple) or isinstance(chebyshev, tuple):
        assert hankel == chebyshev  # the same SingularHankel index
    else:
        assert _typed(hankel.alpha) == _typed(chebyshev.alpha)
        assert _typed(hankel.beta) == _typed(chebyshev.beta)
    return chebyshev


def test_routes_agree_on_a_weight_with_exactly_k_points():
    # both routes read nu_0..nu_{2K-1} and need only H_1..H_K, so N points
    # give N pairs; the Gram check's p_N has a zero norm
    spec = apply_truncation(FunctionalSpec(a=[THIRD], z=HALF), 2)  # on {0, 1, 2}
    rec = _both_routes(moments(spec, 5), 3)
    assert len(rec) == 3
    report = orthogonality_check(spec, rec, 3)
    assert report["diagonal"] == [Fraction(11, 9), Fraction(43, 132), Fraction(4, 43), 0]
    assert report["max_offdiagonal"] == 0 and report["pass"] is False
    # two masses: two pairs, and level 2 is singular at K = 3
    masses = (Mass(Fraction(-1, 2), 1), Mass(Fraction(3, 2), 1))
    nu = moments(FunctionalSpec(a=(), b=(), z=1, scale=0, masses=masses), 5)
    assert len(_both_routes(nu, 2)) == 2
    assert _both_routes(nu, 3) == ("singular", 2)


# -- invariance under equivalent constructions --------------------------------


def test_equivalent_specs_produce_identical_recurrences():
    spec = hahn()
    omega = Fraction(-3, 2)
    base = recurrence_from_moments(moments(spec, 8), 4)

    with_zero_mass = apply_uvarov(spec, omega, 0)
    assert recurrence_from_moments(moments(with_zero_mass, 8), 4) == base

    divided = apply_geronimus(spec, omega, 1)
    restored = apply_christoffel(divided, omega)
    assert recurrence_from_moments(moments(restored, 8), 4) == base


def test_divided_spec_table_matches_its_own_moments():
    # the oracle table comes from the base moments alone, through
    # nu_0' = M - S(omega) and nu_{n+1}' = nu_n - (n - omega) nu_n'
    spec, omega, M = krawtchouk(3), Fraction(-5, 2), 1
    divided = apply_geronimus(spec, omega, M)
    K = 4
    base = moments(spec, 2 * K)
    values = [M - stieltjes_eval(spec, omega)]
    for n in range(2 * K):
        values.append(base[n] - (n - omega) * values[n])
    r_from_table = recurrence_from_moments(MomentTable(values), K)
    r_from_spec = recurrence_from_moments(moments(divided, 2 * K), K)
    assert r_from_table == r_from_spec
    report = orthogonality_check(divided, r_from_table, K)
    assert report["pass"] and report["max_offdiagonal"] == 0


# -- interface ----------------------------------------------------------------


def test_recurrence_json_uses_rational_strings():
    rec = recurrence_from_moments(moments(krawtchouk(), 4), 2)
    body = rec.to_json()
    assert set(body) == {"alpha", "beta"}
    assert body["beta"][0] == "1/16"
    assert all(isinstance(c, (str, int)) for c in body["alpha"] + body["beta"])


def test_polynomials_are_monic_with_correct_degrees():
    rec = recurrence_from_moments(moments(hahn(), 8), 4)
    polys = rec.polynomials(4)
    for n, p in enumerate(polys):
        assert p.degree == n
        assert p.leading() == 1
    with pytest.raises(InputError):
        rec.polynomials(5)


def test_gram_check_of_an_mpf_recurrence_rounds_each_entry_once():
    # every entry is the exact Gram entry of the dyadic rationals the
    # recurrence stores, rounded once; p_0..p_6 were mpf Poly products, each
    # coefficient rounded, and entries moved in their last digits
    spec = FunctionalSpec(a=(Fraction(1, 3), -8), b=(Fraction(2, 5),), z=HALF)
    with mp.workdps(50):
        table = moments(spec, 12)
        exact = chebyshev_from_moments(table, 6)
        rec = Recurrence(tuple(map(to_mpf, exact.alpha)), tuple(map(to_mpf, exact.beta)))
        got = orthogonality_check(spec, rec, 6)
        dyadic = Recurrence(tuple(map(exact_value, rec.alpha)), tuple(map(exact_value, rec.beta)))
        polys = dyadic.polynomials(6)
        gram = [[functional_of_poly(table, p * q) for q in polys] for p in polys]
        assert got["diagonal"] == [to_mpf(gram[i][i]) for i in range(7)]
        assert got["max_offdiagonal"] == max(
            to_mpf(abs(gram[i][j])) for i in range(7) for j in range(i + 1, 7)
        )
        with pytest.raises(InputError):
            orthogonality_check(spec, rec, 7)


def test_length_cap_and_validation():
    nu = moments(krawtchouk(), 8)
    with pytest.raises(InputError):
        recurrence_from_moments(nu, MAX_K + 1)
    with pytest.raises(InputError):
        chebyshev_from_moments(nu, -1)
    with pytest.raises(MissingParameter):
        recurrence_from_moments(nu, 5)
    with pytest.raises(MissingParameter):
        chebyshev_from_moments(MomentTable((1,)), 1)


def test_mass_only_spec_recurrence():
    # Two point masses alone form a valid discrete functional; its monic
    # orthogonal polynomials stop at degree 2 (which annihilates both
    # points): K = 2 gives two pairs, and level 2 is singular at K = 3.
    spec = FunctionalSpec(
        a=(),
        b=(),
        z=1,
        scale=0,
        masses=(Mass(Fraction(-1, 2), 1), Mass(Fraction(3, 2), 1)),
    )
    nu = moments(spec, 6)
    rec = recurrence_from_moments(nu, 2)
    assert rec.alpha[0] == HALF  # midpoint of the two masses
    assert rec == Recurrence((HALF, HALF), (2, 1))
    with pytest.raises(SingularHankel) as info:
        recurrence_from_moments(nu, 3)
    assert info.value.index == 2


# -- one Bareiss pass against per-level determinants ---------------------------


def _determinant_oracle(matrix: list) -> Fraction:
    """Exact Gaussian elimination with a search for a nonzero pivot."""
    n = len(matrix)
    rows = [[Fraction(v) for v in row] for row in matrix]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        head = rows[col][col]
        det *= head
        for r in range(col + 1, n):
            factor = rows[r][col] / head
            if factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return det


def _hankel_oracle(m: list, k: int, shifted: bool = False) -> Fraction:
    """det of the k x k matrix (m_{i+j}); ``shifted`` advances the last
    column by one (m_{i+k} instead of m_{i+k-1})."""
    last = k if shifted else k - 1
    return _determinant_oracle(
        [[m[i + j] for j in range(k - 1)] + [m[i + last]] for i in range(k)]
    )


def _recurrence_oracle(nu: MomentTable, K: int):
    """The recurrence from separately computed leading and shifted minors
    of the power moments ``L[x^k]``, k < 2K (taken by ``functional_of_poly``,
    which shifts the basis itself), or the index ``n < K`` of the first
    vanishing leading minor H_{n+1}."""
    m = [functional_of_poly(nu, Poly([0] * k + [1])) for k in range(max(2 * K, 1))]
    H = [_hankel_oracle(m, k) for k in range(K + 1)]
    for n in range(K):
        if H[n + 1] == 0:
            return n
    t = [Fraction(0)] + [_hankel_oracle(m, k, shifted=True) for k in range(1, K + 1)]
    alpha = tuple(t[n + 1] / H[n + 1] - t[n] / H[n] for n in range(K))
    beta = tuple(
        m[0] if n == 0 else H[n + 1] * H[n - 1] / (H[n] * H[n]) for n in range(K)
    )
    return Recurrence(alpha, beta)


_positive = st.fractions(min_value=Fraction(1, 12), max_value=5, max_denominator=12)
_signed = st.builds(lambda sign, w: sign * w, st.sampled_from((-1, 1)), _positive)
_off_lattice = st.builds(
    lambda k, j: k + Fraction(j, 4),
    st.integers(min_value=-3, max_value=9),
    st.integers(min_value=1, max_value=3),
)


@st.composite
def discrete_measures(draw):
    """(points, weights, basis_shift, positive): lattice points {0..N-1}
    with optional masses at off-lattice rationals, 1 to 8 points in all.
    Signed measures may have their total mass cancelled to zero."""
    n_lattice = draw(st.integers(min_value=0, max_value=8))
    masses = draw(
        st.lists(
            _off_lattice,
            min_size=1 if n_lattice == 0 else 0,
            max_size=min(3, 8 - n_lattice),
            unique=True,
        )
    )
    points = [Fraction(x) for x in range(n_lattice)] + masses
    positive = draw(st.booleans())
    weights = draw(
        st.lists(
            _positive if positive else _signed,
            min_size=len(points),
            max_size=len(points),
        )
    )
    if not positive and len(points) > 1 and sum(weights[:-1]) and draw(st.booleans()):
        weights[-1] = -sum(weights[:-1])
    return points, weights, draw(st.integers(min_value=0, max_value=2)), positive


@settings(max_examples=200, deadline=None)
@given(discrete_measures(), st.integers(min_value=0, max_value=6))
def test_bareiss_pass_matches_per_level_determinants(measure, K):
    points, _, _, positive = measure
    nu = _exact_table(measure, K)
    # the pivots H_1..H_K and neighbours t_1..t_K of the cleared power moments
    _, ints = clear_denominators(stirling_convert(nu.values))
    minors = [_hankel_oracle(ints, k) for k in range(1, K + 1)]
    expected = _recurrence_oracle(nu, K)
    if isinstance(expected, Recurrence):
        neighbours = [_hankel_oracle(ints, k, shifted=True) for k in range(1, K + 1)]
        assert _hankel_pivots(ints, K) == (minors, neighbours)
        rec = recurrence_from_moments(nu, K)
        assert rec == expected
        assert all(isinstance(c, (int, Fraction)) for c in rec.alpha + rec.beta)
        assert K <= len(points)
        return
    assert minors.index(0) == expected
    for route, table in ((_hankel_pivots, ints), (recurrence_from_moments, nu)):
        with pytest.raises(SingularHankel) as info:
            route(table, K)
        assert info.value.index == expected
    assert expected <= len(points)
    if positive:
        # s distinct points carry a positive definite functional exactly
        # through degree s - 1: the first vanishing minor is H_{s+1}.
        assert expected == len(points)


# -- the integer passes against the Fraction loops they replace ----------------


def exact_sub(x, y):
    """``x - y``, also for a Fraction ``x`` and an mpf ``y`` (that
    subtraction raises, and ``x + (-y)`` does not)."""
    try:
        return x - y
    except TypeError:
        return x + (-y)


def _chebyshev_fraction_loop(nu: MomentTable, K: int) -> Recurrence:
    """The modified Chebyshev algorithm on sigma_k(l) = L[p_k phi_l], one
    Fraction (or mpf) operation at a time."""
    if K == 0:
        return Recurrence((), ())
    shift = nu.basis_shift

    def ahat(l):
        return l - shift

    if nu.values[0] == 0:
        raise SingularHankel(0)
    alpha = [ahat(0) + exact_div(nu.values[1], nu.values[0])]
    beta = [nu.values[0]]
    sigma_prev = {}
    sigma_curr = {l: nu.values[l] for l in range(2 * K)}
    for k in range(1, K):
        sigma_next = {}
        for l in range(k, 2 * K - k):
            val = exact_sub(
                sigma_curr[l + 1],
                (exact_sub(alpha[k - 1], ahat(l))) * sigma_curr[l],
            )
            if k >= 2:
                val = exact_sub(val, beta[k - 1] * sigma_prev[l])
            sigma_next[l] = val
        if sigma_next[k] == 0:
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


def _gram_per_product(spec, rec, K, tol=DEFAULT_TOL) -> dict:
    """The Gram check applying functional_of_poly to each product."""
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
        all(d != 0 for d in diagonal)
        and max_off <= to_mpf(tol) * scale
    )
    return {"pass": bool(ok), "K": K, "max_offdiagonal": max_off, "diagonal": diagonal}


def _typed(values) -> list:
    """Values with their types: the benchmark digest and the CLI render an
    int and an equal Fraction differently."""
    return [(type(v), v) for v in values]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except SingularHankel as exc:
        return ("singular", exc.index)


def _exact_table(measure, K):
    points, weights, shift, _ = measure
    return MomentTable(
        [
            sum(w * falling_factorial(x + shift, n) for x, w in zip(points, weights))
            for n in range(max(2 * K, 1))
        ],
        shift,
    )


def _assert_chebyshev_matches_fraction_loop(nu: MomentTable, K: int):
    got = _outcome(chebyshev_from_moments, nu, K)
    want = _outcome(_chebyshev_fraction_loop, nu, K)
    if isinstance(want, tuple):
        assert got == want  # the same SingularHankel index
        return
    assert _typed(got.alpha) == _typed(want.alpha)
    assert _typed(got.beta) == _typed(want.beta)


@settings(max_examples=200, deadline=None)
@given(discrete_measures(), st.integers(min_value=0, max_value=7))
def test_integer_chebyshev_matches_fraction_loop(measure, K):
    _assert_chebyshev_matches_fraction_loop(_exact_table(measure, K), K)


@st.composite
def integer_tables(draw):
    """(table, K): 2K signed ints, not only the moments of a measure, all
    times one factor c, so that c^k divides H_k and ``gcd(H_k, H_{k+1}) >=
    c^k``; any basis shift."""
    K = draw(st.integers(min_value=1, max_value=7))
    entries = st.integers(min_value=-30, max_value=30)
    values = draw(st.lists(entries, min_size=2 * K, max_size=2 * K))
    c = draw(st.integers(min_value=1, max_value=12))
    return MomentTable([c * v for v in values], draw(st.integers(0, 2))), K


@settings(max_examples=300, deadline=None)
@given(integer_tables())
# H_1..H_3 = 6, -108, -7776: gcds 6 and 108
@example((MomentTable([6, 12, -6, 18, 0, 6]), 3))
# H_2 = 1 (2 + 2) - 2^2 = 0 past H_1 = 1
@example((MomentTable([1, 2, 2, 5]), 2))
def test_integer_chebyshev_step_is_exact_on_any_integer_table(table_and_K):
    # the two divisions by H_k are exact for every int table, not only the
    # moments of a measure: Y(l) is a bordered determinant of the table
    _assert_chebyshev_matches_fraction_loop(*table_and_K)


_ints_or_fractions = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)


@st.composite
def exact_specs(draw):
    """A small exact functional: point masses alone, a symmetric window
    (basis shift 1 or 2) or a truncated weight, each with optional masses
    of int or Fraction size at lattice or off-lattice points."""
    kind = draw(st.sampled_from(("masses", "window", "truncated")))
    masses = draw(st.lists(
        st.builds(
            Mass,
            st.one_of(st.integers(min_value=-3, max_value=6), _off_lattice),
            _ints_or_fractions.map(lambda x: x or 1),
        ),
        min_size=1 if kind == "masses" else 0,
        max_size=3,
    ))
    if kind == "masses":
        return FunctionalSpec(a=(), b=(), z=1, scale=0, masses=masses)
    z = draw(_signed)
    scale = draw(_ints_or_fractions)
    if kind == "window":
        m = draw(st.integers(min_value=1, max_value=2))
        a = (-2 * m,) + tuple(draw(st.lists(_positive, max_size=1)))
        return FunctionalSpec(a=a, b=(), z=z, scale=scale,
                              support=Support.symmetrized_shift(m), masses=masses)
    a = draw(st.lists(_positive, max_size=2))
    b = draw(st.lists(_positive, max_size=1))
    N = draw(st.integers(min_value=0, max_value=6))
    return FunctionalSpec(a=a, b=b, z=z, scale=scale,
                          support=Support.truncated(N), masses=masses)


@st.composite
def exact_recurrences(draw, K):
    """Arbitrary exact coefficients, int or Fraction, so that off-diagonal
    entries are nonzero and int-only polynomials occur."""
    coeffs = st.lists(_ints_or_fractions, min_size=K, max_size=K)
    return Recurrence(tuple(draw(coeffs)), tuple(draw(coeffs)))


def _window_1(*masses):
    return FunctionalSpec(a=(-2,), b=(), z=Fraction(-1, 12), scale=0,
                          support=Support.symmetrized_shift(1), masses=masses)


def _truncated_4():
    return FunctionalSpec(a=(), b=(), z=Fraction(1, 2), support=Support.truncated(4))


@settings(max_examples=200, deadline=None)
@given(exact_specs(), st.integers(min_value=0, max_value=4), st.booleans(),
       exact_recurrences(4))
# on a shifted basis, p_1 = x - Fraction(0) becomes x - 1 with int
# coefficients, so its Gram entries are ints
@example(_window_1(), 1, True, Recurrence((Fraction(0),) * 4, (0,) * 4))
@example(_window_1(Mass(0, 1)), 1, False, Recurrence((0,) * 4, (1,) * 4))
# an integral Fraction alpha keeps p_1 = x - Fraction(3) Fractional on both
# bases; a zero Fraction beta adds nothing, so p_2 stays int; and p_2 =
# (x - 1)(x - Fraction(0)) holds a Fraction(-1) at x, above its zero Fraction
@example(_window_1(), 2, True, Recurrence((Fraction(3),) * 4, (1,) * 4))
@example(_truncated_4(), 2, True, Recurrence((Fraction(3),) * 4, (1,) * 4))
@example(_truncated_4(), 3, True, Recurrence((1,) * 4, (1, Fraction(0), 2, 3)))
@example(_window_1(), 2, True, Recurrence((Fraction(0), 1, 1, 1), (0,) * 4))
def test_integer_gram_matches_per_product_check(spec, K, use_drawn, drawn):
    rec = _outcome(chebyshev_from_moments, moments(spec, max(2 * K, 1)), K)
    if isinstance(rec, tuple) or use_drawn:
        rec = drawn
    got = orthogonality_check(spec, rec, K)
    want = _gram_per_product(spec, rec, K)
    assert got["pass"] is want["pass"] and got["K"] == K
    assert _typed([got["max_offdiagonal"]]) == _typed([want["max_offdiagonal"]])
    assert _typed(got["diagonal"]) == _typed(want["diagonal"])


def _hankel_fraction_route(nu: MomentTable, K: int) -> Recurrence:
    """The Hankel route with the Stirling conversion run on the table's own
    Fractions and their denominators cleared afterwards: the route the
    conversion on cleared integers replaced."""
    m = stirling_convert(nu.values[: max(2 * K, 1)])
    _, entries = clear_denominators(m)
    H, t = _hankel_pivots(entries, K)
    H, t = [1] + H, [0] + t
    alpha = tuple(
        -nu.basis_shift + Fraction(t[n + 1] * H[n] - t[n] * H[n + 1], H[n + 1] * H[n])
        for n in range(K)
    )
    beta = tuple(
        m[0] if n == 0 else Fraction(H[n + 1] * H[n - 1], H[n] * H[n]) for n in range(K)
    )
    return Recurrence(alpha, beta)


@settings(max_examples=200, deadline=None)
@given(discrete_measures(), st.integers(min_value=0, max_value=7))
def test_integer_stirling_matches_fraction_route(measure, K):
    nu = _exact_table(measure, K + 1)  # nu_0..nu_{2K+1}; Hankel reads nu_0..nu_{2K-1}
    got = _outcome(recurrence_from_moments, nu, K)
    want = _outcome(_hankel_fraction_route, nu, K)
    if isinstance(want, tuple):
        assert got == want  # the same SingularHankel index
        return
    assert _typed(got.alpha) == _typed(want.alpha)
    assert _typed(got.beta) == _typed(want.beta)


@st.composite
def measures_and_lengths(draw):
    """(spec, K), K <= 7: an exact discrete measure that may have K points
    or fewer: point masses alone, a weight truncated to ``N + 1 <= K``
    lattice points, or a symmetric window of ``2m + 1`` points (basis shift
    m), each with optional masses of int or Fraction size."""
    K = draw(st.integers(min_value=0, max_value=7))
    kind = draw(st.sampled_from(("masses", "window", "truncated")))
    masses = draw(st.lists(
        st.builds(
            Mass,
            st.one_of(st.integers(min_value=-3, max_value=6), _off_lattice),
            _ints_or_fractions.map(lambda x: x or 1),
        ),
        min_size=1 if kind == "masses" else 0,
        max_size=3,
    ))
    if kind == "masses":
        return FunctionalSpec(a=(), b=(), z=1, scale=0, masses=masses), K
    z, scale = draw(_signed), draw(_signed)
    if kind == "window":
        m = draw(st.integers(min_value=1, max_value=3))
        a = (-2 * m,) + tuple(draw(st.lists(_positive, max_size=1)))
        return FunctionalSpec(a=a, b=(), z=z, scale=scale,
                              support=Support.symmetrized_shift(m), masses=masses), K
    a = draw(st.lists(_positive, max_size=2))
    b = draw(st.lists(_positive, max_size=1))
    N = draw(st.integers(min_value=0, max_value=max(K - 1, 0)))
    return FunctionalSpec(a=a, b=b, z=z, scale=scale,
                          support=Support.truncated(N), masses=masses), K


@settings(max_examples=200, deadline=None)
@given(measures_and_lengths(), st.booleans())
def test_exact_routes_agree_on_every_measure(spec_and_K, longer):
    # one contract: both routes read nu_0..nu_{2K-1} (the table may hold no
    # more), need only H_1..H_K even when it holds more, and give equal
    # values of equal types or the same SingularHankel index, on shifted
    # bases too
    spec, K = spec_and_K
    _both_routes(moments(spec, 2 * K + 1 if longer else max(2 * K - 1, 0)), K)


@st.composite
def numeric_weights(draw, signed=False):
    """Infinite weights (numeric moments): positive parameters, z > 0 (or
    of either sign when ``signed``, a weight that changes sign), and
    |z| <= 1/2 on the unit disk, optionally with a point mass."""
    q = draw(st.integers(min_value=0, max_value=2))
    p = draw(st.integers(min_value=0, max_value=q + 1))
    a = draw(st.lists(_positive, min_size=p, max_size=p))
    b = draw(st.lists(_positive, min_size=q, max_size=q))
    bound = Fraction(1, 2) if p == q + 1 else 4
    z = draw(st.fractions(min_value=Fraction(1, 20), max_value=bound, max_denominator=20))
    if signed and draw(st.booleans()):
        z = -z
    masses = draw(st.lists(st.builds(Mass, _off_lattice, _positive), max_size=1))
    return FunctionalSpec(a, b, z, masses=masses)


@settings(max_examples=60, deadline=None)
@given(numeric_weights(), st.integers(min_value=1, max_value=8))
def test_numeric_chebyshev_matches_fraction_loop(spec, K):
    tol = DEFAULT_TOL
    with mp.workdps(60):
        nu = moments(spec, 2 * K, tol)
        got = chebyshev_from_moments(nu, K)
        want = _chebyshev_fraction_loop(nu, K)
        for x, y in zip(got.alpha + got.beta, want.alpha + want.beta):
            assert isinstance(x, mp.mpf)
            assert abs(x - y) <= to_mpf(tol) * (1 + abs(y))


@settings(max_examples=40, deadline=None)
@given(numeric_weights(), st.integers(min_value=1, max_value=6))
# a table within tol whose h_6 dot product amplifies its moments' error past
# tol (1 + |h_6|), so the check sums it again at a tighter tol
@example(FunctionalSpec((Fraction(1, 12),), (), Fraction(8, 17)), 6)
# moments falling to 1e-11: summed only to tol (1 + |nu_n|), not relative to
# their own size, they leave p_0..p_6 off orthogonal by 4e-30
@example(FunctionalSpec((Fraction(1, 12), Fraction(1, 12)), (Fraction(1, 12),), Fraction(1, 20)), 6)
def test_numeric_gram_matches_per_product_check(spec, K):
    # mpf recurrences on infinite weights; the oracle expands each product
    # p_i p_j from a table summed at a higher precision
    tol = DEFAULT_TOL
    with mp.workdps(60):
        rec = chebyshev_from_moments(moments(spec, 2 * K, tol), K)
        got = orthogonality_check(spec, rec, K, tol)
    with mp.workdps(120):
        want = _gram_per_product(spec, rec, K, tol / 10**30)
        scale = max(abs(d) for d in want["diagonal"])
        assert got["pass"] is True and got["K"] == K
        for g, w in zip(got["diagonal"], want["diagonal"]):
            assert isinstance(g, mp.mpf)
            assert agree(g, w, tol)[1]
        assert abs(got["max_offdiagonal"] - want["max_offdiagonal"]) <= to_mpf(tol) * scale


def _units(got, want) -> Fraction:
    """|got - want| in units of ``2^-prec (1 + |want|)``."""
    want = Fraction(want)
    return abs(exact_value(got) - want) * 2**mp.prec / (1 + abs(want))


def _dyadic_recurrence(nu: MomentTable, K: int):
    """The exact recurrence of the dyadic rationals an mpf table stores, or
    ("singular", k)."""
    dyadic = MomentTable([exact_value(v) for v in nu.values], nu.basis_shift)
    return _outcome(recurrence_from_moments, dyadic, K)


@settings(max_examples=60, deadline=None)
@given(numeric_weights(signed=True), st.integers(min_value=1, max_value=MAX_K),
       st.sampled_from((None, 8, 100)))
# tables whose certified outputs drift past 4 units when the Hankel bound
# stops growing, or the sigma bound stops following its row's rescaling
@example(FunctionalSpec((Fraction(7, 2),), (), Fraction(-17, 40)), 11, 8)
@example(FunctionalSpec((), (Fraction(16, 7), Fraction(25, 4)), Fraction(4, 5),
                        masses=(Mass(Fraction(-13, 8), 18),)), 11, 100)
def test_mpf_routes_match_the_exact_recurrence_of_the_dyadic_table(spec, K, guard):
    # the fixed-point eliminations on an mpf table against the Fraction
    # recurrence of the dyadic rationals that table stores; with fewer guard
    # bits more tables fail their bound, and what it certifies must still hold
    guard = orthopoly._GUARD_BITS if guard is None else guard
    with mp.workdps(60), mock.patch.object(orthopoly, "_GUARD_BITS", guard):
        nu = moments(spec, 2 * K)
        want = _dyadic_recurrence(nu, K)
        for route in (recurrence_from_moments, chebyshev_from_moments):
            got = _outcome(route, nu, K)
            if isinstance(want, tuple):
                assert got == want, (route, spec, K)
                continue
            assert got.beta[0] is nu.values[0]
            for g, w in zip(got.alpha + got.beta, want.alpha + want.beta, strict=True):
                assert isinstance(g, mp.mpf) and _units(g, w) <= 4, (route, spec, K)


def _counting(monkeypatch) -> list:
    """Record each entry into the fraction-free loops of both routes."""
    entries = []
    for name in ("_hankel_pivots", "_chebyshev_integers"):
        inner = getattr(orthopoly, name)

        def counted(*args, inner=inner, name=name):
            entries.append(name)
            return inner(*args)

        monkeypatch.setattr(orthopoly, name, counted)
    return entries


def _lattice_table(weights, size):
    """nu_0..nu_{size-1} of masses ``weights[x]`` at x = 0, 1, ..."""
    return MomentTable([
        sum(w * falling_factorial(x, n) for x, w in enumerate(weights)) for n in range(size)
    ])


def test_mpf_routes_fall_back_to_the_exact_recurrence_rounded_once(monkeypatch):
    # masses 1 at 2 and 3 and 2^-400 at 4 and 5: H_3 is 2^-393 of its
    # scale, past what the guard bits resolve, so the pivot of level 2 is
    # within its bound of zero in both routes
    entries = _counting(monkeypatch)
    with mp.workdps(60):
        tiny = mp.ldexp(1, -400)
        nu = _lattice_table([0, 0, mp.mpf(1), mp.mpf(1), tiny, tiny], 7)
        want = _dyadic_recurrence(nu, 3)
        entries.clear()
        for route, loop in ((recurrence_from_moments, "_hankel_pivots"),
                            (chebyshev_from_moments, "_chebyshev_integers")):
            got = route(nu, 3)
            assert entries.pop() == loop and not entries
            for g, w in zip(got.alpha + got.beta[1:], want.alpha + want.beta[1:], strict=True):
                assert isinstance(g, mp.mpf) and g == ratio_to_mpf(w.numerator, w.denominator)
            assert got.beta[2] < 1e-117


def test_mpf_table_singular_past_level_zero_raises_at_the_same_level():
    # masses at 0 and 1 alone: H_3 vanishes in the dyadic table, and only
    # the exact loops may say so
    with mp.workdps(60):
        nu = _lattice_table([mp.mpf(1) / 3, mp.mpf(2) / 7], 7)
        assert _dyadic_recurrence(nu, 3) == ("singular", 2)
        for route in (recurrence_from_moments, chebyshev_from_moments):
            with pytest.raises(SingularHankel) as info:
                route(nu, 3)
            assert info.value.index == 2
