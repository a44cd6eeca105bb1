"""Tests for the difference equation satisfied by the Stieltjes transform."""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, strategies as st
from mpmath import mp

from discsemi.errors import (
    ConstraintViolated,
    DegreeMismatch,
    InputError,
    MissingParameter,
    NonPolynomialBoundary,
)
from discsemi.functional import (
    FunctionalSpec,
    Mass,
    MomentTable,
    PearsonPair,
    Support,
    moments,
    pearson_pair,
    stieltjes_eval,
)
from discsemi.polys import Poly
from discsemi.scalars import exact_value, to_mpf
from discsemi.transforms import apply_geronimus, apply_uvarov
from discsemi.stieltjeseq import (
    StieltjesEquation,
    default_sample_points,
    derive_equation,
    derive_xi,
    transform_equation,
    verify_equation,
    xi_by_interpolation,
)

mp.dps = 50

HALF = Fraction(1, 2)
TIGHT = Fraction(1, 10**36)


def charlier(z=HALF):
    return FunctionalSpec(a=(), b=(), z=z)


def krawtchouk(N=2, z=HALF):
    return FunctionalSpec(a=(-N,), b=(), z=z)


def hahn(a=Fraction(1, 3), b=HALF, N=4):
    return FunctionalSpec(a=(a, -N), b=(b,), z=1)


def test_left_side_and_xi_round_once():
    # sigma(t+1) S(t+1) - eta(t) S(t) is formed exactly from the dyadic
    # rationals the mpf values store and rounded once; multiplying operator
    # by operator rounded each Fraction toward zero first, and missed at 22
    # of these 50 points
    spec = FunctionalSpec(a=(Fraction(1, 3),), b=(Fraction(2, 5),), z=HALF)
    with mp.workdps(50):
        eq = derive_equation(spec)
        table = moments(spec, 1)
        for row, got in zip(eq.xi_symbolic, eq.xi.coeffs):
            want = sum(c * exact_value(nu) for c, nu in zip(row, table.values))
            assert got == to_mpf(want)
        for t in (Fraction(2 * k + 1, 2) for k in range(10, 60)):
            S_t, S_t1 = stieltjes_eval(spec, t), stieltjes_eval(spec, t + 1)
            want = eq.sigma_shift(t) * exact_value(S_t1) - eq.eta(t) * exact_value(S_t)
            got = eq.lhs_at(S_t, S_t1, t)
            assert isinstance(got, mp.mpf) and got == to_mpf(want), t


def test_mpf_xi_at_a_rational_point_rounds_once():
    # an mpf polynomial at an exact point is one dot of its coefficients with
    # the exact powers; Horner rounded each Fraction and each step, and missed
    # at 13 of these 50 points
    spec = FunctionalSpec(a=(Fraction(1, 3),), b=(Fraction(2, 5),), z=HALF)
    with mp.workdps(50):
        xi = derive_equation(spec).xi
        exact = Poly(map(exact_value, xi.coeffs))
        for t in (Fraction(2 * k + 1, 2) for k in range(10, 60)):
            got = xi(t)
            assert isinstance(got, mp.mpf) and got == to_mpf(exact(t)), t
    # exact data keep their values and types
    assert Poly((1, 2))(3) == 7 and type(Poly((1, 2))(3)) is int
    assert Poly((1, HALF))(4) == 3 and type(Poly((1, HALF))(4)) is Fraction


def assert_poly_close(p, q, bound=Fraction(1, 10**24)):
    assert p.degree == q.degree, f"{p!r} vs {q!r}"
    for i in range(p.degree + 1):
        assert abs(to_mpf(p.coeff(i) - q.coeff(i))) < to_mpf(bound), (
            f"coefficient {i}: {p!r} vs {q!r}"
        )


# ---------------------------------------------------------------------------
# the derivation itself


def test_charlier_equation():
    eq = derive_equation(charlier(), tol=TIGHT)
    assert eq.sigma_shift == Poly((1, 1))
    assert eq.eta == Poly((HALF,))
    # xi is the constant nu_0 = e^(1/2); exactly one symbolic row [1]
    assert eq.xi_symbolic == ((1,),)
    assert eq.xi.degree == 0
    assert abs(eq.xi.coeff(0) - mp.exp(mp.mpf(1) / 2)) < mp.mpf(10) ** -30


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
nonzero = rationals.filter(lambda q: q != 0)


def _symbolic_rows(a, b, z, class_s):
    """xi_symbolic of the weight with parameter lists a, b and argument z,
    after checking that the pair has class ``class_s``."""
    pair = pearson_pair(FunctionalSpec(a=a, b=b, z=z))
    assert pair.class_s == class_s
    return derive_xi(pair, MomentTable((1,) * (class_s + 1))).xi_symbolic


def _trimmed(rows):
    """Rows without trailing zero coefficients: xi_symbolic drops them."""
    out = []
    for row in rows:
        row = list(row)
        while row and row[-1] == 0:
            row.pop()
        out.append(row)
    return out


@given(b=rationals, z=nonzero, a=rationals)
def test_symbolic_one_denominator_families(b, z, a):
    # weight with one denominator parameter and empty numerator list:
    # xi(t) = (t + b + 1) nu_0 + nu_1
    rows = _symbolic_rows((), (b,), z, 1)
    assert _trimmed(rows) == _trimmed([[b + 1, 1], [1]])

    # adding one numerator parameter only shifts the constant by -z:
    # xi(t) = (t + b + 1 - z) nu_0 + nu_1
    rows = _symbolic_rows((a,), (b,), z, 1)
    assert _trimmed(rows) == _trimmed([[b + 1 - z, 1], [1]])


@given(A=st.lists(rationals, min_size=4, max_size=4),
       B=st.lists(rationals, min_size=3, max_size=3))
# the constant row vanishes here, so xi_symbolic stores it shorter
@example(A=[Fraction(0)] * 4, B=[Fraction(0), Fraction(0), Fraction(-1)])
def test_symbolic_elementary_symmetric_xi(A, B):
    # four numerator and three denominator parameters at z = 1 (class 2):
    # the xi coefficients are elementary-symmetric differences between the
    # shifted denominator offsets {b_j + 1} and the numerator offsets {a_i}.
    B1 = [bj + 1 for bj in B]

    def e(vals, k):
        # elementary symmetric polynomial: coefficient of x^(len-k) in prod (x+v)
        coeffs = [1]
        for v in vals:
            coeffs = [a + v * b for a, b in zip(coeffs + [0], [0] + coeffs)]
        return coeffs[k]

    # the top row vanishes, and the class drops, when e_1(B1) = e_1(A)
    assume(e(B1, 1) != e(A, 1))
    rows = _symbolic_rows(tuple(A), tuple(B), 1, 2)
    expected = [
        [
            e(B1, 3) - e(A, 3),
            e(B1, 2) - e(A, 2) - e(A, 1) - 1,
            e(B1, 1) - e(A, 1) - 2,
        ],
        [e(B1, 2) - e(A, 2), e(B1, 1) - e(A, 1) - 1],
        [e(B1, 1) - e(A, 1)],
    ]
    assert _trimmed(rows) == _trimmed(expected)


def test_binomial_weight_equation_is_exact():
    eq = derive_equation(krawtchouk(N=2, z=HALF))
    # nu_0 = (1 - z)^2 = 1/4 and xi = (1 - z) nu_0 = 1/8
    assert eq.xi == Poly((Fraction(1, 8),))
    assert eq.xi_symbolic == ((HALF,),)
    report = verify_equation(
        krawtchouk(N=2, z=HALF), eq, [5, Fraction(17, 2), 12]
    )
    assert report["pass"]
    for sample in report["samples"]:
        assert sample["exact"]
        assert sample["residual"] == 0


def test_corrupted_xi_fails_verification():
    spec = krawtchouk(N=2, z=HALF)
    eq = derive_equation(spec)
    # an exact residual fails however small it is
    for shift in (1, Fraction(1, 10**40)):
        bad = StieltjesEquation(eq.sigma_shift, eq.eta, eq.xi + shift)
        report = verify_equation(spec, bad, [5, Fraction(17, 2), 12])
        assert not report["pass"]
        assert all(not s["pass"] for s in report["samples"])


def test_derive_matches_interpolation_exact_families():
    specs = [
        hahn(),
        krawtchouk(N=4, z=Fraction(1, 3)),
        # truncated weight with one denominator parameter
        FunctionalSpec(a=(), b=(HALF,), z=HALF, support=Support.truncated(6)),
        # truncated weight plus an endpoint mass (eta vanishes there)
        FunctionalSpec(
            a=(),
            b=(),
            z=HALF,
            support=Support.truncated(5),
            masses=(Mass(5, Fraction(1, 3)),),
        ),
    ]
    for spec in specs:
        pair = pearson_pair(spec)
        table = moments(spec, pair.class_s)
        eq = derive_xi(pair, table)
        assert eq.xi == xi_by_interpolation(spec, pair), spec.to_json()
        assert len(eq.xi_symbolic) == pair.class_s + 1


def test_derive_matches_interpolation_numeric_families():
    specs = [
        charlier(),
        FunctionalSpec(a=(Fraction(1, 3),), b=(), z=HALF),  # geometric-type
        # infinite weight with a generic off-support mass (class 2)
        FunctionalSpec(a=(), b=(), z=HALF, masses=(Mass(Fraction(-3, 2), 1),)),
        # infinite weight with a mass at the support origin (class 1)
        FunctionalSpec(a=(), b=(), z=HALF, masses=(Mass(0, 1),)),
    ]
    for spec in specs:
        pair = pearson_pair(spec)
        table = moments(spec, pair.class_s, tol=TIGHT)
        eq = derive_xi(pair, table)
        assert_poly_close(eq.xi, xi_by_interpolation(spec, pair, tol=TIGHT))


def test_symmetrized_charlier_equation():
    # the symmetric-window reading of the self-terminating weight
    # (a, z) = (-4, -1) shifted by m = 2:  (t+3)S(t+1) - (2-t)S(t) = 32
    spec = FunctionalSpec(
        a=(-4,), b=(), z=-1, support=Support.symmetrized_shift(2)
    )
    eq = derive_equation(spec)
    assert eq.sigma_shift == Poly((3, 1))
    assert eq.eta == Poly((2, -1))
    assert eq.xi == Poly((32,))
    assert eq.xi_symbolic == ((2,),)
    report = verify_equation(spec, eq)
    assert report["pass"]
    assert all(s["residual"] == 0 for s in report["samples"])


def test_symmetrize_transform_matches_direct_derivation():
    rho_spec = FunctionalSpec(a=(-4,), b=(), z=-1)
    sym_spec = FunctionalSpec(
        a=(-4,), b=(), z=-1, support=Support.symmetrized_shift(2)
    )
    eq_rho = derive_equation(rho_spec)
    eq_sym = transform_equation(eq_rho, "symmetrize", {"m": 2})
    direct = derive_equation(sym_spec)
    assert eq_sym.sigma_shift == direct.sigma_shift
    assert eq_sym.eta == direct.eta
    assert eq_sym.xi == direct.xi
    assert eq_sym.xi_symbolic == direct.xi_symbolic


def test_default_sample_points():
    assert default_sample_points(charlier()) == [
        Fraction(21, 2),
        Fraction(51, 2),
        Fraction(81, 2),
    ]
    assert default_sample_points(krawtchouk(N=2)) == [
        Fraction(11, 2),
        12,
        Fraction(35, 2),
    ]
    sym = FunctionalSpec(
        a=(-4,), b=(), z=-1, support=Support.symmetrized_shift(2)
    )
    assert default_sample_points(sym) == [
        Fraction(11, 2),
        12,
        Fraction(35, 2),
    ]


def test_verify_default_points_infinite_weight():
    spec = charlier()
    eq = derive_equation(spec, tol=TIGHT)
    report = verify_equation(spec, eq)
    assert report["pass"]
    assert len(report["samples"]) == 3
    for sample in report["samples"]:
        assert not sample["exact"]
        assert sample["residual"] <= sample["bound"]


# ---------------------------------------------------------------------------
# closed-form transformation of equations


def test_uvarov_closed_form_generic_mass():
    spec = charlier()
    omega, M = Fraction(-3, 2), 1
    base = derive_equation(spec, tol=TIGHT)
    moved = transform_equation(base, "uvarov", {"omega": omega, "M": M})
    mass_spec = FunctionalSpec(a=(), b=(), z=HALF, masses=(Mass(omega, M),))
    direct = derive_equation(mass_spec, tol=TIGHT)
    assert moved.sigma_shift == direct.sigma_shift
    assert moved.eta == direct.eta
    assert moved.xi_symbolic is None
    assert_poly_close(moved.xi, direct.xi)


def test_uvarov_closed_form_mass_at_origin():
    # sigma(0) = 0, so the single-factor reduced form applies
    spec = charlier()
    base = derive_equation(spec, tol=TIGHT)
    moved = transform_equation(base, "uvarov", {"omega": 0, "M": 1})
    mass_spec = FunctionalSpec(a=(), b=(), z=HALF, masses=(Mass(0, 1),))
    direct = derive_equation(mass_spec, tol=TIGHT)
    assert moved.sigma_shift == direct.sigma_shift
    assert moved.eta == direct.eta
    assert_poly_close(moved.xi, direct.xi)


def test_uvarov_closed_form_mass_at_truncation_point():
    # eta(N) = 0 for the truncated weight, so the other reduced form applies
    spec = FunctionalSpec(a=(), b=(), z=HALF, support=Support.truncated(5))
    base = derive_equation(spec)
    moved = transform_equation(
        base, "uvarov", {"omega": 5, "M": Fraction(1, 3)}
    )
    mass_spec = FunctionalSpec(
        a=(),
        b=(),
        z=HALF,
        support=Support.truncated(5),
        masses=(Mass(5, Fraction(1, 3)),),
    )
    direct = derive_equation(mass_spec)
    assert moved.sigma_shift == direct.sigma_shift
    assert moved.eta == direct.eta
    assert moved.xi == direct.xi  # exact: finite weight


def test_uvarov_zero_mass_is_identity():
    base = derive_equation(krawtchouk())
    assert transform_equation(base, "uvarov", {"omega": 3, "M": 0}) is base


def test_christoffel_closed_form():
    spec = charlier()
    omega = Fraction(-3, 2)
    base = derive_equation(spec, tol=TIGHT)
    nu0 = moments(spec, 0, tol=TIGHT)[0]
    moved = transform_equation(
        base, "christoffel", {"omega": omega, "nu0": nu0}
    )
    # the multiplied functional in canonical form: a gains 1 - omega,
    # b gains -omega - 1, the scale picks up -omega
    c_spec = FunctionalSpec(
        a=(1 - omega,), b=(-omega - 1,), z=HALF, scale=-omega
    )
    direct = derive_equation(c_spec, tol=TIGHT)
    assert moved.sigma_shift == direct.sigma_shift
    assert moved.eta == direct.eta
    assert_poly_close(moved.xi, direct.xi)
    # the equation in the new functional's own moments: (t - omega - z)nu0 + nu1
    table = moments(c_spec, 1, tol=TIGHT)
    printed = Poly(((-omega - HALF) * table[0] + table[1], table[0]))
    assert_poly_close(direct.xi, printed)


def test_geronimus_closed_form_and_absorbed_mass():
    spec = charlier()
    omega, M = Fraction(-5, 2), 1
    base = derive_equation(spec, tol=TIGHT)
    nu0_g = M - stieltjes_eval(spec, omega, tol=TIGHT)
    moved = transform_equation(
        base, "geronimus", {"omega": omega, "nu0_g": nu0_g}
    )
    # the divided functional: a and b both gain -omega, the scale picks up
    # -1/omega, and the mass (omega, M) rides along.  Both sigma and eta
    # vanish at omega already, so the pair absorbs the mass with no extra
    # factor and the class stays 1.
    g_spec = FunctionalSpec(
        a=(-omega,),
        b=(-omega,),
        z=HALF,
        scale=-1 / omega,
        masses=(Mass(omega, M),),
    )
    pair = pearson_pair(g_spec)
    assert pair.class_s == 1
    assert pair.eta == Poly((HALF * -omega, HALF))
    direct = derive_equation(g_spec, tol=TIGHT)
    assert moved.sigma_shift == direct.sigma_shift
    assert moved.eta == direct.eta
    assert_poly_close(moved.xi, direct.xi)
    # printed form in the new moments: (t + 1 - omega - z)nu0 + nu1
    table = moments(g_spec, 1, tol=TIGHT)
    printed = Poly(((1 - omega - HALF) * table[0] + table[1], table[0]))
    assert_poly_close(direct.xi, printed)


def test_uvarov_closed_form_where_sigma_and_eta_both_vanish():
    # the Geronimus step leaves sigma(omega) = eta(omega) = 0, so a further
    # mass at omega adds no factor; the closed form used to add (t - omega)
    # and gave xi of degree 4 for a class-3 functional
    omega = Fraction(-7, 3)
    base = FunctionalSpec(
        a=(Fraction(1, 3),), b=(Fraction(2, 5),), z=HALF, support=Support.truncated(6)
    )
    g = apply_geronimus(base, omega, Fraction(1, 4))
    moved = transform_equation(
        derive_equation(g), "uvarov", {"omega": omega, "M": Fraction(2, 5)}
    )
    direct = derive_equation(apply_uvarov(g, omega, Fraction(2, 5)))
    assert direct.xi.degree == 3
    assert moved.sigma_shift == direct.sigma_shift
    assert moved.eta == direct.eta
    assert moved.xi == direct.xi  # exact: finite weight


@pytest.mark.parametrize("kind", ["uvarov", "christoffel", "geronimus", "symmetrize"])
def test_closed_forms_round_each_xi_coefficient_once(kind):
    # each new xi coefficient is the exact combination of the dyadic values
    # the mpf xi and nu_0 store, rounded once
    spec = FunctionalSpec(a=(Fraction(1, 3),), b=(Fraction(2, 5),), z=HALF)
    omega, M = Fraction(-7, 3), Fraction(2, 5)
    f_lo, f_hi = Poly((-omega, 1)), Poly((1 - omega, 1))
    with mp.workdps(50):
        eq = derive_equation(spec)
        sig, eta = eq.sigma_shift, eq.eta
        xi = Poly(map(exact_value, eq.xi.coeffs))
        nu0 = moments(spec, 0)[0]
        nu0_g = to_mpf(M - exact_value(stieltjes_eval(spec, omega)))
        params, want = {
            "uvarov": ({"omega": omega, "M": M},
                       f_lo * f_hi * xi + (f_lo * sig - f_hi * eta) * M),
            "christoffel": ({"omega": omega, "nu0": nu0},
                            f_lo * f_hi * xi - (f_lo * sig - f_hi * eta) * exact_value(nu0)),
            "geronimus": ({"omega": omega, "nu0_g": nu0_g},
                          xi + (sig - eta) * exact_value(nu0_g)),
            "symmetrize": ({"m": 3}, xi.shift(3)),
        }[kind]
        got = transform_equation(eq, kind, params).xi
        assert all(isinstance(c, mp.mpf) for c in got.coeffs)
        assert got.coeffs == tuple(map(to_mpf, want.coeffs))


def test_transform_parameter_validation():
    base = derive_equation(krawtchouk())
    with pytest.raises(ConstraintViolated):
        transform_equation(base, "truncate", {"N": 3})
    with pytest.raises(InputError):
        transform_equation(base, "uvarov-ish", {})
    with pytest.raises(MissingParameter):
        transform_equation(base, "uvarov", {"omega": 3})
    with pytest.raises(MissingParameter):
        transform_equation(base, "christoffel", {"omega": 3})
    with pytest.raises(MissingParameter):
        transform_equation(base, "geronimus", {"omega": 3})
    with pytest.raises(MissingParameter):
        transform_equation(base, "symmetrize", {})


# ---------------------------------------------------------------------------
# error paths of the derivation


def test_nonpolynomial_boundary():
    # sigma(0) != 0 cannot happen for a weight on the nonnegative integers;
    # a corrupted pair must be rejected
    pair = PearsonPair(eta=Poly((1,)), sigma=Poly((1, 1)), class_s=0)
    with pytest.raises(NonPolynomialBoundary):
        derive_xi(pair, MomentTable((1,)))


def test_degree_mismatch_on_lied_class():
    pair = PearsonPair(eta=Poly((HALF,)), sigma=Poly((0, 1)), class_s=1)
    with pytest.raises(DegreeMismatch):
        derive_xi(pair, MomentTable((1, 1)))


def test_missing_moments():
    spec = FunctionalSpec(a=(), b=(HALF,), z=HALF)
    pair = pearson_pair(spec)
    assert pair.class_s == 1
    with pytest.raises(MissingParameter):
        derive_xi(pair, MomentTable((1,)))


# ---------------------------------------------------------------------------
# serialization


def test_equation_json_round_trip():
    eq = derive_equation(krawtchouk(N=2, z=HALF))
    data = eq.to_json()
    assert data["xi"] == ["1/8"]
    assert data["xi_symbolic"] == [{"t_power": 0, "nu_coeffs": ["1/2"]}]
    back = StieltjesEquation.from_json(data)
    assert back.sigma_shift == eq.sigma_shift
    assert back.eta == eq.eta
    assert back.xi == eq.xi
    assert back.xi_symbolic == eq.xi_symbolic


def test_equation_json_without_symbolic_rows():
    base = derive_equation(krawtchouk(N=2, z=HALF))
    moved = transform_equation(base, "uvarov", {"omega": 7, "M": 1})
    data = moved.to_json()
    assert "xi_symbolic" not in data
    back = StieltjesEquation.from_json(data)
    assert back.xi == moved.xi
    assert back.xi_symbolic is None


def test_equation_json_validation():
    with pytest.raises(InputError):
        StieltjesEquation.from_json([1, 2])
    with pytest.raises(InputError):
        StieltjesEquation.from_json({"sigma_shift": [], "eta": []})
    with pytest.raises(InputError):
        StieltjesEquation.from_json(
            {"sigma_shift": [], "eta": [], "xi": [], "zeta": []}
        )
    with pytest.raises(InputError):
        StieltjesEquation.from_json(
            {"sigma_shift": ["0", "1"], "eta": ["1"], "xi": ["1"],
             "xi_symbolic": [{"nu_coeffs": ["1"]}]}
        )


@pytest.mark.parametrize(
    "rows",
    [
        [{"t_power": "x", "nu_coeffs": ["1"]}],
        [{"t_power": 0, "nu_coeffs": "12"}],
        [{"t_power": True, "nu_coeffs": ["1"]}],
        [{"t_power": 2.7, "nu_coeffs": ["1"]}],
        [{"t_power": -4, "nu_coeffs": ["1"]}],
        [{"t_power": 10000000, "nu_coeffs": ["1"]}],
        [{"t_power": 0, "nu_coeffs": ["1"]}, {"t_power": 0, "nu_coeffs": ["2"]}],
        ["row"],
    ],
)
def test_equation_json_rejects_bad_symbolic_rows(rows):
    data = {"sigma_shift": ["0", "1"], "eta": ["1"], "xi": ["1"], "xi_symbolic": rows}
    with pytest.raises(InputError):
        StieltjesEquation.from_json(data)


@pytest.mark.parametrize("order", [1, -1])
def test_pearson_pair_decides_each_mass_against_the_running_pair(order):
    # sigma vanishes at -3/2 once the mass at -5/2 is in, so the mass at -3/2
    # adds one factor, not two; the pair before masses gave class 4 and a
    # degree-4 xi where the chain of Uvarov steps gives class 3
    masses = [(Fraction(-5, 2), Fraction(1, 3)), (Fraction(-3, 2), Fraction(1, 7))][::order]
    spec = krawtchouk(N=6)
    eq = derive_equation(spec)
    for omega, M in masses:
        spec = apply_uvarov(spec, omega, M)
        eq = transform_equation(eq, "uvarov", {"omega": omega, "M": M})
    pair = pearson_pair(spec)
    assert pair.class_s == 3 and eq.xi.degree == 3
    assert (pair.sigma_shift, pair.eta) == (eq.sigma_shift, eq.eta)
    assert derive_equation(spec).xi == eq.xi
    report = verify_equation(spec, eq)
    assert report["pass"] and all(s["residual"] == 0 for s in report["samples"])


def test_interpolation_derives_its_own_pair():
    spec = krawtchouk(N=4, z=Fraction(1, 3))
    xi = xi_by_interpolation(spec)
    assert xi == xi_by_interpolation(spec, pearson_pair(spec))
    assert xi == derive_equation(spec).xi and xi.degree == pearson_pair(spec).class_s
