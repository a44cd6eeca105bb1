"""Tests for the functional model: spec JSON, weights, Pearson pairs,
class computation, moments, and Stieltjes evaluation."""

from __future__ import annotations

import math
import time
from fractions import Fraction
from unittest import mock

import mpmath as mp
import pytest
from mpmath.libmp import from_rational, round_nearest
from hypothesis import assume, given, settings, strategies as st

import discsemi.functional
import discsemi.hyper
from discsemi.combin import falling_factorial, pochhammer, stirling_convert
from discsemi.errors import (
    ConstraintViolated,
    DegreeMismatch,
    DivergentSeries,
    InputError,
    OutOfSupport,
    PoleAtSupportPoint,
    PoleInDenominator,
    TruncationAtEtaRoot,
)
from discsemi.functional import (
    FunctionalSpec,
    Mass,
    Support,
    classify_class,
    functional_of_poly,
    moments,
    pearson_pair,
    stieltjes_eval,
    weight_at,
)
from discsemi.hyper import (
    HyperSeries,
    eval_hyper,
    eval_hyper_finite_sum,
    linear_factors,
    output_bits,
    sum_fixed,
)
from discsemi.polys import Poly
from discsemi.scalars import exact_value, is_exact, to_mpf
from discsemi.stieltjeseq import derive_equation, verify_equation
from discsemi.transforms import (
    apply_christoffel,
    apply_geronimus,
    apply_truncation,
    apply_uvarov,
)


def exact_div(x, y):
    """``x / y``, a ``Fraction`` when both are exact (plain ``/`` on two
    ints gives a float), else the mpf quotient."""
    if is_exact(x) and is_exact(y):
        return Fraction(x) / Fraction(y)
    return x / y


def charlier(z=Fraction(1, 2), masses=()) -> FunctionalSpec:
    return FunctionalSpec(a=[], b=[], z=z, masses=masses)


def meixner(a=Fraction(1, 3), z=Fraction(1, 2)) -> FunctionalSpec:
    return FunctionalSpec(a=[a], b=[], z=z)


def krawtchouk(N=2, z=Fraction(1, 2)) -> FunctionalSpec:
    return FunctionalSpec(a=[Fraction(-N)], b=[], z=z)


def hahn(a=Fraction(1, 3), b=Fraction(1, 2), N=4) -> FunctionalSpec:
    return FunctionalSpec(a=[a, Fraction(-N)], b=[b], z=Fraction(1))


# ---------------------------------------------------------------------------
# spec + JSON


def test_json_round_trip_is_bit_exact():
    spec = FunctionalSpec(
        a=[Fraction(-2), Fraction(1, 2)],
        b=[Fraction(3, 4)],
        z=Fraction(1, 2),
        scale=Fraction(5, 7),
        support=Support.truncated(5),
        masses=[Mass(Fraction(3, 2), Fraction(1))],
    )
    data = spec.to_json()
    assert data["a"] == [-2, "1/2"]
    assert data["support"] == {"kind": "truncated", "N": 5}
    assert data["masses"] == [{"omega": "3/2", "M": 1}]
    assert FunctionalSpec.from_json(data) == spec
    # defaults: scale omitted when 1, infinite support assumed
    plain = FunctionalSpec.from_json({"a": [], "b": [], "z": "1/2"})
    assert plain == charlier()
    assert "scale" not in plain.to_json()


def test_json_rejects_malformed_input():
    with pytest.raises(InputError):
        FunctionalSpec.from_json({"a": [], "b": []})  # no z
    with pytest.raises(InputError):
        FunctionalSpec.from_json({"a": [], "b": [], "z": "1/2", "zz": 1})
    with pytest.raises(InputError):
        FunctionalSpec.from_json({"a": [], "b": [], "z": "0"})
    with pytest.raises(InputError):
        FunctionalSpec.from_json(
            {"a": [], "b": [], "z": "1", "support": {"kind": "bounded"}}
        )
    with pytest.raises(InputError):
        FunctionalSpec.from_json(
            {"a": [], "b": [], "z": "1", "support": {"kind": "truncated"}}
        )
    with pytest.raises(InputError):
        Support("symmetrized_shift", m=0)
    with pytest.raises(InputError):
        Support("infinite", N=3)


def test_merged_masses():
    spec = FunctionalSpec(
        a=[],
        b=[],
        z=Fraction(1, 2),
        masses=[
            Mass(Fraction(3, 2), 2),
            Mass(Fraction(1, 2), 1),
            Mass(Fraction(3, 2), -2),
        ],
    )
    merged = spec.merged_masses()
    assert merged == [Mass(Fraction(1, 2), 1)]
    # but serialization keeps what was given
    assert len(spec.to_json()["masses"]) == 3


def test_masses_merge_by_exact_value():
    # points 10^-60 apart stay two masses; equal values merge, int or Fraction
    near = Fraction(-1, 3) + Fraction(1, 10**60)
    spec = charlier(masses=[Mass(Fraction(-1, 3), 1), Mass(near, 2)])
    assert spec.merged_masses() == [Mass(Fraction(-1, 3), 1), Mass(near, 2)]
    spec = charlier(masses=[Mass(Fraction(2), 1), Mass(2, 2)])
    assert spec.merged_masses() == [Mass(Fraction(2), 3)]


# ---------------------------------------------------------------------------
# weight


def test_weight_values():
    assert weight_at(charlier(), 0) == 1
    assert weight_at(charlier(), 2) == Fraction(1, 8)
    assert weight_at(krawtchouk(), 1) == -1
    spec = FunctionalSpec(a=[], b=[], z=Fraction(1, 2), scale=Fraction(3))
    assert weight_at(spec, 2) == Fraction(3, 8)


def test_weight_out_of_support():
    with pytest.raises(OutOfSupport):
        weight_at(charlier(), -1)
    with pytest.raises(OutOfSupport):
        weight_at(charlier(), Fraction(1, 2))
    trunc = FunctionalSpec(a=[], b=[], z=Fraction(1, 2), support=Support.truncated(3))
    with pytest.raises(OutOfSupport):
        weight_at(trunc, 4)
    symm = FunctionalSpec(
        a=[Fraction(-4)], b=[], z=-1, support=Support.symmetrized_shift(2)
    )
    assert weight_at(symm, -2) == 1
    assert weight_at(symm, 0) == 6  # binomial(4, 2)
    with pytest.raises(OutOfSupport):
        weight_at(symm, 3)
    # past the weight's own termination: Krawtchouk with N = 2 stops at 2
    assert weight_at(krawtchouk(N=2), Fraction(2)) == Fraction(1, 4)
    with pytest.raises(OutOfSupport):
        weight_at(krawtchouk(N=2), 3)


def test_support_index_is_the_one_lattice_rule():
    symm = FunctionalSpec(
        a=[Fraction(-4)], b=[], z=-1, support=Support.symmetrized_shift(2)
    )
    cases = [
        (charlier(), {0: 0, 7: 7, Fraction(3): 3}, [-1, Fraction(1, 2), Fraction(5, 2)]),
        (krawtchouk(N=2), {0: 0, 2: 2}, [-1, 3]),
        (
            FunctionalSpec(a=[], b=[], z=2, support=Support.truncated(3)),
            {Fraction(3): 3},
            [4],
        ),
        (symm, {-2: 0, 0: 2, 2: 4}, [-3, 3]),
    ]
    for spec, inside, outside in cases:
        for x, u in inside.items():
            assert spec.support_index(x) == u
            assert isinstance(spec.support_index(x), int)
            with pytest.raises(PoleAtSupportPoint, match="support point"):
                stieltjes_eval(spec, x)
        for x in outside:
            assert spec.support_index(x) is None
            with pytest.raises(OutOfSupport):
                weight_at(spec, x)


def test_weight_pole_in_denominator():
    bad = FunctionalSpec(a=[], b=[Fraction(-2)], z=Fraction(1, 2))
    with pytest.raises(PoleInDenominator):
        weight_at(bad, 1)
    # truncated before the pole is fine
    ok = FunctionalSpec(
        a=[], b=[Fraction(-7)], z=Fraction(1, 2), support=Support.truncated(3)
    )
    assert weight_at(ok, 3) == Fraction(1, 2) ** 3 / (
        Fraction(-6) * Fraction(-5) * Fraction(-4) * 6
    )


def test_cached_facts_belong_to_their_spec():
    """A spec derives its facts once: a cached pole still raises on every
    call, equal specs compare and hash alike whatever either has cached,
    and a transformed spec derives its own facts, not its input's."""
    for support in (Support.infinite(), Support.truncated(5)):
        bad = FunctionalSpec(a=[Fraction(1, 2)], b=[-3], z=Fraction(1, 2), support=support)
        for _ in range(2):
            with pytest.raises(PoleInDenominator):
                weight_at(bad, 0)
            with pytest.raises(PoleInDenominator):
                moments(bad, 2)
            with pytest.raises(PoleInDenominator):
                stieltjes_eval(bad, Fraction(-1, 2))

    def build():
        return FunctionalSpec(
            a=[Fraction(1, 3)], b=[Fraction(1, 2)], z=Fraction(1, 2),
            masses=[Mass(Fraction(-1, 2), 1)],
        )

    spec, fresh = build(), build()
    weight_at(spec, 2), moments(spec, 3), stieltjes_eval(spec, Fraction(21, 2))
    spec.merged_masses()
    assert set(vars(spec)) > set(vars(fresh))  # the facts sit on spec alone
    assert spec == fresh and hash(spec) == hash(fresh) and {spec: 1}[fresh] == 1

    base = FunctionalSpec(a=[-2], z=Fraction(1, 2))
    moments(base, 3), base.merged_masses()
    outs = [
        apply_uvarov(base, Fraction(-1, 2), 1),
        apply_christoffel(base, Fraction(-1, 2)),
        apply_geronimus(base, 3, 1),
    ]
    for out in outs:
        rebuilt = FunctionalSpec.from_json(out.to_json())
        assert out.merged_masses() == rebuilt.merged_masses()
        assert out.weight_upper_bound() == rebuilt.weight_upper_bound()
        assert moments(out, 4).values == moments(rebuilt, 4).values
    assert outs[0].merged_masses() == [Mass(Fraction(-1, 2), 1)] != base.merged_masses()
    assert outs[2].merged_masses() == [Mass(3, 1)]
    # the divided weight keeps base's end: the point 3 carries only the mass
    assert (outs[2].weight_upper_bound(), base.weight_upper_bound()) == (2, 2)


def test_pearson_residual_property():
    specs = [
        charlier(),
        meixner(),
        krawtchouk(N=5),
        hahn(),
        FunctionalSpec(a=[Fraction(1, 3)], b=[Fraction(1, 2)], z=Fraction(1, 2)),
        FunctionalSpec(
            a=[], b=[Fraction(1, 2)], z=Fraction(1, 2), support=Support.truncated(6)
        ),
        FunctionalSpec(
            a=[Fraction(-8)], b=[], z=-1, support=Support.symmetrized_shift(4)
        ),
    ]
    for spec in specs:
        pair = pearson_pair(spec)
        shift = spec.basis_shift
        upper = spec.weight_upper_bound()
        hi = 20 if upper is None else upper
        for u in range(min(hi, 20) + 1):
            x = u - shift
            rho_x = weight_at(spec, x)
            # weight outside the support counts as zero in the residual
            try:
                rho_x1 = weight_at(spec, x + 1)
            except OutOfSupport:
                rho_x1 = 0
            assert rho_x1 * pair.sigma(x + 1) - rho_x * pair.eta(x) == 0


# ---------------------------------------------------------------------------
# Pearson pair and class


def test_pair_charlier():
    pair = pearson_pair(charlier())
    assert pair.eta == Poly([Fraction(1, 2)])
    assert pair.sigma == Poly([0, 1])
    assert pair.class_s == 0


def test_pair_generalized_meixner():
    spec = FunctionalSpec(a=[Fraction(1, 3)], b=[Fraction(1, 2)], z=Fraction(1, 2))
    pair = pearson_pair(spec)
    assert pair.eta == Poly([Fraction(1, 6), Fraction(1, 2)])
    assert pair.sigma == Poly([0, Fraction(1, 2), 1])
    assert pair.class_s == 1


def test_pair_truncated_charlier():
    spec = FunctionalSpec(a=[], b=[], z=Fraction(1, 2), support=Support.truncated(5))
    pair = pearson_pair(spec)
    assert pair.eta == Poly([Fraction(-5, 2), Fraction(1, 2)])
    assert pair.sigma_shift == Poly([0, 1]).shift(1) * Poly([-5, 1])
    assert pair.class_s == 1


def test_pair_classical_families():
    assert pearson_pair(meixner()).class_s == 0
    assert pearson_pair(krawtchouk()).class_s == 0
    assert pearson_pair(hahn()).class_s == 0


def test_truncation_at_eta_root():
    with pytest.raises(TruncationAtEtaRoot):
        FunctionalSpec(
            a=[Fraction(-3)], b=[], z=Fraction(1, 2), support=Support.truncated(3)
        )


def test_mass_factor_rules():
    # full set of factors for a generic mass point
    w = Fraction(-3, 2)
    spec = FunctionalSpec(a=[], b=[], z=Fraction(1, 2), masses=[Mass(w, 1)])
    pair = pearson_pair(spec)
    assert pair.eta == Poly([Fraction(1, 2)]) * Poly([-w, 1]) * Poly([1 - w, 1])
    assert pair.sigma == Poly([0, 1]) * Poly([-1 - w, 1]) * Poly([-w, 1])
    assert pair.class_s == 2
    # sigma(0) = 0 selects the reduced rule at omega = 0
    spec0 = FunctionalSpec(a=[], b=[], z=Fraction(1, 2), masses=[Mass(0, 1)])
    pair0 = pearson_pair(spec0)
    assert pair0.eta == Poly([0, Fraction(1, 2)])
    assert pair0.sigma == Poly([0, 1]) * Poly([-1, 1])
    assert pair0.class_s == 1
    # eta(omega) = 0 selects the other reduced rule (mass at the endpoint)
    specN = FunctionalSpec(
        a=[Fraction(-2)], b=[], z=Fraction(1, 2), masses=[Mass(2, 1)]
    )
    pairN = pearson_pair(specN)
    assert pairN.eta == Poly([Fraction(-1), Fraction(1, 2)]) * Poly([-1, 1])
    assert pairN.sigma == Poly([0, 1]) * Poly([-2, 1])
    assert pairN.class_s == 1


def test_classify_class_cases():
    # table rows, driven through honest pairs
    x = Poly([0, 1])
    # p > q + 1
    eta = Poly([Fraction(1, 2)]) * Poly([1, 1]) * Poly([2, 1])
    assert classify_class(eta, x, 2, 0, Fraction(1, 2)) == 1
    # p < q + 1
    assert classify_class(Poly([Fraction(1, 2)]), x, 0, 0, Fraction(1, 2)) == 0
    # p = q + 1, z != 1
    eta2 = Poly([Fraction(1, 2)]) * Poly([Fraction(1, 3), 1])
    assert classify_class(eta2, x, 1, 0, Fraction(1, 2)) == 0
    # p = q + 1, z = 1 (Hahn-like)
    assert pearson_pair(hahn()).class_s == 0
    # degenerate: ratio (x+c)/(x+1)
    with pytest.raises(DegreeMismatch):
        classify_class(Poly([Fraction(1, 3), 1]), x, 1, 0, 1)
    # inconsistent metadata is rejected
    with pytest.raises(DegreeMismatch):
        classify_class(
            Poly([Fraction(1, 2)]) * Poly([1, 1]) * Poly([2, 1]), x, 0, 0, Fraction(1, 2)
        )


# ---------------------------------------------------------------------------
# moments


def brute_force_moment(spec, n, terms=400):
    """Direct summation oracle for nu_n (plus mass contributions)."""
    shift = spec.basis_shift
    upper = spec.weight_upper_bound()
    hi = terms if upper is None else upper
    total = 0
    for u in range(hi + 1):
        x = u - shift
        w = weight_at(spec, x)
        total = total + w * falling_factorial(x + shift, n)
    for mass in spec.merged_masses():
        total = total + mass.M * falling_factorial(mass.omega + shift, n)
    return total


def test_moments_match_brute_force_exact():
    specs = [
        krawtchouk(N=4),
        hahn(),
        FunctionalSpec(
            a=[], b=[Fraction(1, 2)], z=Fraction(1, 2), support=Support.truncated(6)
        ),
        FunctionalSpec(
            a=[Fraction(-4)], b=[], z=-1, support=Support.symmetrized_shift(2)
        ),
        FunctionalSpec(
            a=[Fraction(-5)],
            b=[],
            z=Fraction(1, 2),
            masses=[Mass(Fraction(-3, 2), Fraction(1))],
        ),
    ]
    for spec in specs:
        table = moments(spec, 8)
        assert all(table.exact)
        for n in range(9):
            assert table[n] == brute_force_moment(spec, n), (spec, n)


def test_moments_match_brute_force_numeric():
    with mp.workdps(50):
        for spec in [charlier(), meixner()]:
            table = moments(spec, 8, tol=Fraction(1, 10**40))
            for n in range(9):
                direct = brute_force_moment(spec, n, terms=200)
                assert abs(table[n] - direct) < mp.mpf("1e-35"), (spec, n)


def test_moment_examples():
    # z^n * e^z at z=1
    with mp.workdps(50):
        table = moments(charlier(z=Fraction(1)), 3, tol=Fraction(1, 10**45))
        assert abs(table[3] - mp.e) < mp.mpf("1e-40")
    # Krawtchouk N=2, z=1/2: nu_1 = sum x*rho(x) = 0 - 1 + 2/4 = -1/2
    table = moments(krawtchouk(N=2), 1)
    assert table[1] == brute_force_moment(krawtchouk(N=2), 1) == Fraction(-1, 2)
    # Hahn nu_0 via the terminating 2F1 at unit argument
    from discsemi.combin import pochhammer

    a, b, N = Fraction(1, 3), Fraction(1, 2), 4
    table = moments(hahn(a, b, N), 0)
    assert table[0] == pochhammer(b + 1 - a, N) / pochhammer(b + 1, N)


def test_moments_exactness_flags_and_degenerate():
    numeric = moments(charlier(), 2)
    assert not any(numeric.exact)
    exact = moments(krawtchouk(N=3), 2)
    assert all(exact.exact)
    assert not exact.degenerate
    # Krawtchouk at z = 1 over the symmetric window: all moments vanish
    symm_kraw = FunctionalSpec(
        a=[Fraction(-2)], b=[], z=1, support=Support.symmetrized_shift(1)
    )
    table = moments(symm_kraw, 2)
    assert table.degenerate
    assert table[0] == 0


def test_moments_take_only_a_nonnegative_int_count():
    # True once gave a two-entry table and 2.0 a bare TypeError; the moment
    # count is checked as the recurrence length is
    for K in (True, 2.0, -1, "2"):
        with pytest.raises(InputError, match="nonnegative integer"):
            moments(charlier(), K)


def test_moments_shifted_basis():
    # the symmetric-window moments are taken against phi_n(x+m)
    spec = FunctionalSpec(
        a=[Fraction(-4)], b=[], z=-1, support=Support.symmetrized_shift(2)
    )
    table = moments(spec, 4)
    assert table.basis_shift == 2
    m = 2
    for n in range(5):
        direct = sum(
            weight_at(spec, x) * falling_factorial(x + m, n) for x in range(-m, m + 1)
        )
        assert table[n] == direct


def test_functional_of_poly_and_power_moments():
    spec = krawtchouk(N=4)
    table = moments(spec, 5)
    p = Poly([Fraction(1, 3), -2, 0, 1])  # x^3 - 2x + 1/3
    direct = sum(weight_at(spec, x) * p(x) for x in range(5))
    assert functional_of_poly(table, p) == direct
    powers = stirling_convert(table.values)
    for k in range(6):
        assert powers[k] == sum(weight_at(spec, x) * x**k for x in range(5))
    # shifted case: the table holds L[phi_n(x + 2)], and functional_of_poly
    # shifts the basis itself
    symm = FunctionalSpec(
        a=[Fraction(-4)], b=[], z=-1, support=Support.symmetrized_shift(2)
    )
    stable = moments(symm, 4)
    spowers = [functional_of_poly(stable, Poly([0] * k + [1])) for k in range(5)]
    for k in range(5):
        assert spowers[k] == sum(
            weight_at(symm, x) * x**k for x in range(-2, 3)
        )
    # odd power moments of a symmetric weight vanish
    assert spowers[1] == 0 and spowers[3] == 0
    with pytest.raises(InputError):
        functional_of_poly(moments(spec, 1), p)


def falling_coeffs_by_differences(p, shift):
    """``c_n`` with ``p(x) = sum_n c_n phi_n(x + shift)`` for an exact ``p``:
    the forward differences of ``p(y - shift)`` at 0 over ``n!``, a route
    apart from ``Poly.shift`` and ``falling_coeffs``."""
    at = [p(Fraction(j - shift)) for j in range(p.degree + 1)]
    return [
        sum((-1) ** (n - j) * math.comb(n, j) * at[j] for j in range(n + 1))
        / math.factorial(n)
        for n in range(p.degree + 1)
    ]


WINDOW_WEIGHT = FunctionalSpec(
    a=[-8, Fraction(1, 3)], b=[Fraction(1, 2)], z=Fraction(2, 3),
    support=Support.symmetrized_shift(4),
)


@pytest.mark.parametrize("spec", [WINDOW_WEIGHT, meixner()], ids=["window", "infinite"])
@settings(max_examples=40, deadline=None)
@given(st.lists(st.fractions(-10, 10, max_denominator=10**6), max_size=8).filter(any))
def test_functional_of_an_mpf_polynomial_rounds_once(spec, coeffs):
    # the exact value of the stored operands, rounded once: an mpf polynomial
    # against an exact window table and against an unshifted mpf table
    with mp.workdps(30):
        table = moments(spec, 7)
        p = Poly([to_mpf(c) for c in coeffs])
        got = functional_of_poly(table, p)
        stored = Poly([exact_value(c) for c in p.coeffs])
        falling = falling_coeffs_by_differences(stored, table.basis_shift)
        want = sum(c * exact_value(v) for c, v in zip(falling, table.values))
        assert isinstance(got, mp.mpf) and got == to_mpf(want)


# ---------------------------------------------------------------------------
# Stieltjes evaluation


def test_stieltjes_examples():
    assert stieltjes_eval(krawtchouk(N=1), Fraction(3)) == Fraction(1, 12)
    # unit mass only: S(t) = 1/t
    unit = FunctionalSpec(a=[], b=[], z=Fraction(1, 2), scale=0, masses=[Mass(0, 1)])
    assert stieltjes_eval(unit, Fraction(7, 2)) == Fraction(2, 7)
    with mp.workdps(50):
        t = Fraction(21, 2)  # integers >= 0 are poles of S for infinite support
        got = stieltjes_eval(charlier(), t, tol=Fraction(1, 10**45))
        direct = mp.nsum(
            lambda x: to_mpf_weight(charlier(), int(x)) / (mp.mpf(21) / 2 - x),
            [0, mp.inf],
        )
        assert abs(got - direct) < mp.mpf("1e-35")


def to_mpf_weight(spec, x):
    return mp.mpf(weight_at(spec, x).numerator) / weight_at(spec, x).denominator


def test_stieltjes_poles():
    with pytest.raises(PoleAtSupportPoint):
        stieltjes_eval(charlier(), 3)
    with pytest.raises(PoleAtSupportPoint):
        stieltjes_eval(krawtchouk(N=2), Fraction(2))
    # beyond the terminating weight an integer is fine
    assert isinstance(stieltjes_eval(krawtchouk(N=2), Fraction(5)), Fraction)
    spec = FunctionalSpec(
        a=[], b=[], z=Fraction(1, 2), masses=[Mass(Fraction(-3, 2), 1)]
    )
    with pytest.raises(PoleAtSupportPoint):
        stieltjes_eval(spec, Fraction(-3, 2))
    # symmetric window: poles live in {-m..m}
    symm = FunctionalSpec(
        a=[Fraction(-4)], b=[], z=-1, support=Support.symmetrized_shift(2)
    )
    with pytest.raises(PoleAtSupportPoint):
        stieltjes_eval(symm, Fraction(-2))
    assert isinstance(stieltjes_eval(symm, Fraction(3)), (int, Fraction))


def test_stieltjes_mass_pole_is_by_exact_value():
    # the mpf nearest to -1/3 once raised a pole at a mass at -1/3 (its
    # rounded gap was 0); a point is rational, so an mpf t is refused, and a
    # rational t 10^-60 from the mass gives the exact gap
    spec = charlier(masses=[Mass(Fraction(-1, 3), 1)])
    with mp.workdps(50), pytest.raises(InputError, match="rational"):
        stieltjes_eval(spec, -mp.mpf(1) / 3)
    tol = Fraction(1, 10**40)
    t = Fraction(-1, 3) + Fraction(1, 10**60)
    with mp.workdps(50):
        got = stieltjes_eval(spec, t, tol)
        weight_part = stieltjes_eval(charlier(), t, tol)
    with mp.workdps(120):
        want = 10**60 + weight_part
        assert abs(got - want) <= to_mpf(tol) * abs(want)
    with pytest.raises(PoleAtSupportPoint):
        stieltjes_eval(spec, Fraction(-1, 3))


REFUSED = {
    "FunctionalSpec.a": lambda x: FunctionalSpec(a=[x], b=[], z=Fraction(1, 2)),
    "FunctionalSpec.b": lambda x: FunctionalSpec(a=[], b=[x], z=Fraction(1, 2)),
    "FunctionalSpec.z": lambda x: FunctionalSpec(a=[], b=[], z=x),
    "FunctionalSpec.scale": lambda x: FunctionalSpec(a=[], b=[], z=1, scale=x),
    "Mass.omega": lambda x: Mass(x, 1),
    "Mass.M": lambda x: Mass(Fraction(-1, 2), x),
    "HyperSeries": lambda x: HyperSeries([x], [], Fraction(1, 2)),
    "stieltjes_eval": lambda x: stieltjes_eval(charlier(), x),
    "weight_at": lambda x: weight_at(charlier(), x),
    "apply_uvarov.omega": lambda x: apply_uvarov(charlier(), x, 1),
    "apply_uvarov.M": lambda x: apply_uvarov(charlier(), Fraction(-1, 2), x),
    "apply_christoffel": lambda x: apply_christoffel(charlier(), x),
    "apply_geronimus.omega": lambda x: apply_geronimus(charlier(), x, 1),
    "apply_geronimus.M": lambda x: apply_geronimus(charlier(), Fraction(-1, 2), x),
    "verify_equation": lambda x: verify_equation(
        krawtchouk(), derive_equation(krawtchouk()), [x]
    ),
}


@pytest.mark.parametrize("bad", [mp.mpf(5) / 2, 2.5, True], ids=["mpf", "float", "bool"])
@pytest.mark.parametrize("where", REFUSED)
def test_parameters_and_points_must_be_rational(where, bad):
    with pytest.raises(InputError, match="rational"):
        REFUSED[where](bad)


def test_stieltjes_exact_sum_with_masses():
    spec = FunctionalSpec(
        a=[Fraction(-2)],
        b=[],
        z=Fraction(1, 2),
        masses=[Mass(Fraction(-3, 2), Fraction(2))],
    )
    t = Fraction(7, 2)
    expected = sum(weight_at(spec, x) / (t - x) for x in range(3))
    expected += Fraction(2) / (t - Fraction(-3, 2))
    assert stieltjes_eval(spec, t) == expected


def test_stieltjes_finite_matches_direct_sum():
    # truncated weight with a mass, and a symmetric window: the exact value
    # is the plain sum over the support, at off-lattice points, below the
    # support and beyond it
    truncated = FunctionalSpec(
        a=[Fraction(1, 3)],
        b=[Fraction(1, 2)],
        z=Fraction(-2, 5),
        scale=Fraction(3, 7),
        support=Support.truncated(9),
        masses=[Mass(Fraction(-5, 2), Fraction(2, 3))],
    )
    window = FunctionalSpec(
        a=[Fraction(-6), Fraction(1, 4)], b=[Fraction(2, 3)], z=-1,
        support=Support.symmetrized_shift(3),
    )
    cases = [
        (truncated, range(10), [Fraction(7, 2), Fraction(-1, 3), -4, 10, 23]),
        (window, range(-3, 4), [Fraction(1, 2), -4, 4, Fraction(-31, 3)]),
    ]
    for spec, support, ts in cases:
        for t in ts:
            expected = sum(weight_at(spec, x) / (t - x) for x in support)
            for mass in spec.masses:
                expected += mass.M / (t - mass.omega)
            got = stieltjes_eval(spec, t)
            assert got == expected, (spec, t)
            assert isinstance(got, Fraction)


def test_stieltjes_zero_scale_support_point_is_not_a_pole():
    spec = FunctionalSpec(
        a=[], b=[], z=Fraction(1, 2), scale=0, support=Support.truncated(4),
        masses=[Mass(Fraction(-1, 2), 1)],
    )
    assert stieltjes_eval(spec, 2) == Fraction(2, 5)


def test_raw_window_must_end_at_2m():
    # without a numerator parameter -2m the weight does not vanish beyond
    # the window and the Pearson pair cannot describe it
    with pytest.raises(ConstraintViolated, match="-2m = -6"):
        FunctionalSpec(
            a=[Fraction(1, 3)], b=[Fraction(1, 2)], z=Fraction(1, 2),
            support=Support.symmetrized_shift(3),
        )
    with pytest.raises(ConstraintViolated):
        FunctionalSpec.from_json(
            {"a": ["1/3"], "b": ["1/2"], "z": "1/2",
             "support": {"kind": "symmetrized_shift", "m": 3}}
        )
    # a weight terminating inside the window is rejected too
    with pytest.raises(ConstraintViolated):
        FunctionalSpec(a=[-2], b=[], z=-1, support=Support.symmetrized_shift(2))


def test_exact_truncated_moment_at_large_n_is_fast():
    spec = FunctionalSpec(
        a=[Fraction(1, 3)], b=[Fraction(1, 2)], z=Fraction(1, 2),
        support=Support.truncated(8000),
    )
    start = time.perf_counter()
    nu0 = moments(spec, 0)[0]
    assert time.perf_counter() - start < 10
    assert isinstance(nu0, Fraction) and nu0 > 1


# ---------------------------------------------------------------------------
# finite weights: every moment from one kernel call, against the per-n route


def direct_finite_moments(spec, K):
    """nu_0..nu_K of a finite weight one moment at a time: the prefactor
    ``scale z^n (a)_n / (b+1)_n`` times a finite sum with every parameter
    raised by n, plus the masses.  The route the one-tree kernel replaced,
    kept as the oracle."""
    upper, shift = spec.weight_upper_bound(), spec.basis_shift
    b1 = [bj + 1 for bj in spec.b]
    values = []
    for n in range(K + 1):
        part = 0
        if n <= upper and spec.scale != 0:
            pref = spec.scale * spec.z**n * math.prod(pochhammer(x, n) for x in spec.a)
            pref = exact_div(pref, math.prod(pochhammer(x, n) for x in b1))
            series = HyperSeries([x + n for x in spec.a], [x + n for x in b1], spec.z)
            part = pref * eval_hyper_finite_sum(series, upper - n)
        mass_part = 0
        for mass in spec.merged_masses():
            mass_part = mass_part + mass.M * falling_factorial(mass.omega + shift, n)
        values.append(part + mass_part)
    return values


def typed(values):
    return [(type(v), v) for v in values]


@st.composite
def finite_weights(draw):
    """Truncated, symmetric-window and self-terminating specs with masses,
    any scale (zero included) and upper bounds from 0 up, so that K often
    exceeds the support.  b + 1 is never a nonpositive integer (no pole)."""
    kind = draw(st.sampled_from(["truncated", "window", "terminating"]))
    a = draw(st.lists(small_rationals(-6, 6), max_size=2))
    b = draw(st.lists(
        small_rationals(-6, 6).filter(lambda x: x.denominator != 1 or x >= 0),
        max_size=2,
    ))
    z = draw(small_rationals(-3, 3).filter(lambda x: x != 0))
    # short supports, and long ones whose trees merge over several levels
    upper = draw(st.one_of(
        st.integers(min_value=0, max_value=12), st.integers(min_value=13, max_value=150)
    ))
    support = None
    if kind == "truncated":
        support = Support.truncated(upper)
    elif kind == "window":
        m = upper // 2 + 1
        a, support = a + [Fraction(-2 * m)], Support.symmetrized_shift(m)
    else:
        a = a + [Fraction(-upper)]
    scale = draw(small_rationals(-5, 5))
    masses = draw(st.lists(
        st.builds(Mass, small_rationals(-5, 5), small_rationals(-3, 3)), max_size=2
    ))
    try:
        return FunctionalSpec(a, b, z, scale=scale, support=support, masses=masses)
    except (ConstraintViolated, TruncationAtEtaRoot):
        assume(False)


@settings(max_examples=200, deadline=None)
@given(finite_weights(), st.integers(min_value=0, max_value=14))
def test_finite_moments_match_the_per_moment_route(spec, K):
    got = moments(spec, K)
    assert typed(got.values) == typed(direct_finite_moments(spec, K))
    assert got.basis_shift == spec.basis_shift


def test_truncation_at_zero_keeps_one_point():
    spec = apply_truncation(charlier(), 0)
    got = moments(spec, 3).values
    assert typed(got) == typed((Fraction(1), 0, 0, 0))


def test_zero_order_tables():
    specs = [
        krawtchouk(N=4),
        hahn(),
        apply_truncation(meixner(), 7),
        FunctionalSpec(
            a=[Fraction(-4)], b=[], z=-1, support=Support.symmetrized_shift(2)
        ),
        FunctionalSpec(
            a=[], b=[], z=Fraction(1, 2), support=Support.truncated(5),
            masses=[Mass(Fraction(-1, 2), Fraction(3))],
        ),
    ]
    for spec in specs:
        table = moments(spec, 0)
        assert typed(table.values) == typed(direct_finite_moments(spec, 0)), spec
    with mp.workdps(50):
        nu0 = moments(charlier(), 0, tol=Fraction(1, 10**45))[0]
        assert abs(nu0 - mp.exp(Fraction(1, 2))) < mp.mpf("1e-40")


def test_pole_inside_a_finite_support_raises():
    # (b+1)_u vanishes from u = 3 on: inside {0..5}, but also inside a
    # weight that terminates at 4 on its own
    for spec in (
        FunctionalSpec(a=[Fraction(1, 3)], b=[Fraction(-3)], z=Fraction(1, 2),
                       support=Support.truncated(5)),
        FunctionalSpec(a=[Fraction(-4)], b=[Fraction(-3)], z=Fraction(1, 2)),
    ):
        with pytest.raises(PoleInDenominator, match="singular at x = 3"):
            moments(spec, 2)
    # a support that ends before the pole is fine
    ok = FunctionalSpec(a=[Fraction(-2)], b=[Fraction(-3)], z=Fraction(1, 2))
    assert typed(moments(ok, 4).values) == typed(direct_finite_moments(ok, 4))


def test_tables_past_the_leaf_length_match_the_per_moment_route():
    # with K beyond the 64-term leaves, a merge carries coefficients up to
    # the length of its range, so the bounds of the shifted sum all matter
    for spec in (
        apply_truncation(
            FunctionalSpec(a=[Fraction(1, 3)], b=[Fraction(2, 5)], z=Fraction(-1, 2)), 200
        ),
        FunctionalSpec(
            a=[Fraction(-140), Fraction(3, 7)], b=[Fraction(1, 2)], z=Fraction(2, 3),
            support=Support.symmetrized_shift(70),
        ),
    ):
        K = spec.weight_upper_bound() + 2
        assert typed(moments(spec, K).values) == typed(direct_finite_moments(spec, K))


# ---------------------------------------------------------------------------
# numeric sums: cancellation and the infinite-weight Stieltjes route


@pytest.mark.parametrize("z, dps", [(-80, 15), (-80, 50), (-50, 50)])
def test_moments_survive_cancellation(z, dps):
    # the terms of e^z peak near |z|^|z| / |z|! while the sum is e^z: at
    # fixed precision the partial sums cancel to garbage
    spec = FunctionalSpec.from_json({"a": [], "b": [], "z": str(z)})
    tol = Fraction(1, 10**30)
    with mp.workdps(dps):
        nu0 = moments(spec, 0, tol)[0]
    with mp.workdps(120):
        want = mp.exp(z)
        assert abs(nu0 - want) <= to_mpf(tol) * (1 + want)


@pytest.mark.parametrize("z", [Fraction(-80), -80])
def test_each_moment_meets_tol_despite_its_prefactor(z):
    # nu_n = z^n e^z is the prefactor z^n times the sum e^z, so the sum must
    # be taken to tol / |z|^n for nu_n to meet tol (1 + |nu_n|); an int z
    # as well as a Fraction
    spec = FunctionalSpec(a=(), b=(), z=z)
    tol = Fraction(1, 10**30)
    with mp.workdps(50):
        table = moments(spec, 3, tol)
    with mp.workdps(120):
        for n in range(4):
            want = mp.mpf(-80) ** n * mp.exp(-80)
            assert abs(table[n] - want) <= to_mpf(tol) * (1 + abs(want))


def stieltjes_loop(spec, t, tol):
    """S(t) of an infinite weight, term by term in mpf: the loop the kernel
    replaced, kept as the oracle."""
    total = 0
    for mass in spec.merged_masses():
        total = total + exact_div(mass.M, t - mass.omega)
    t_f, w_f, z_f = to_mpf(t), to_mpf(spec.scale), to_mpf(spec.z)
    total, tol_f = to_mpf(total), to_mpf(tol)
    small_streak = 0
    for u in range(10**6):
        term = w_f / (t_f - u)
        total = total + term
        num = mp.mpf(1)
        for ai in spec.a:
            num = num * (to_mpf(ai) + u)
        den = mp.mpf(u + 1)
        for bj in spec.b:
            den = den * (to_mpf(bj) + 1 + u)
        w_f = w_f * num * z_f / den
        if abs(term) <= tol_f * (1 + abs(total)):
            small_streak += 1
            if small_streak >= 2:
                return total
        else:
            small_streak = 0
    raise AssertionError("oracle did not converge")


def small_rationals(lo, hi):
    return st.fractions(min_value=lo, max_value=hi, max_denominator=9)


@st.composite
def infinite_weights(draw):
    # b + 1 > 0 and |z| <= 1/4 on the unit disk, as in the kernel's own
    # property test; a avoids nonpositive integers (a finite weight)
    q = draw(st.integers(min_value=0, max_value=2))
    p = draw(st.integers(min_value=0, max_value=q + 1))
    a = draw(st.lists(
        small_rationals(-6, 6).filter(lambda x: not (x.denominator == 1 and x <= 0)),
        min_size=p, max_size=p,
    ))
    b = draw(st.lists(small_rationals(Fraction(-8, 9), 6), min_size=q, max_size=q))
    bound = Fraction(1, 4) if p == q + 1 else 10
    z = draw(st.fractions(min_value=-bound, max_value=bound, max_denominator=20)
             .filter(lambda x: x != 0))
    scale = draw(small_rationals(-20, 20).filter(lambda x: x != 0))
    # off the lattice anywhere, or a negative integer (below the support)
    t = draw(st.one_of(
        small_rationals(-20, 30).filter(lambda x: x.denominator != 1),
        st.integers(min_value=-20, max_value=-1).map(Fraction),
    ))
    masses = draw(st.lists(
        st.builds(Mass, small_rationals(-5, 5).filter(lambda x: x != t),
                  small_rationals(-3, 3)),
        max_size=2,
    ))
    return FunctionalSpec(a, b, z, scale=scale, masses=masses), t


@settings(max_examples=150, deadline=None)
@given(infinite_weights())
def test_stieltjes_infinite_matches_per_term_loop(case):
    spec, t = case
    tol = Fraction(1, 10**30)
    with mp.workdps(50):
        got = stieltjes_eval(spec, t, tol)
        assert isinstance(got, mp.mpf)
    with mp.workdps(80):
        want = stieltjes_loop(spec, t, tol / 10**15)
        assert abs(got - want) <= to_mpf(tol) * (1 + abs(want))


@settings(max_examples=60, deadline=None)
@given(infinite_weights())
def test_stieltjes_infinite_is_rounded_once(case):
    # the kernel's fixed-point sum, the scale, 1/c and the masses combined
    # exactly and rounded to nearest once, to the bits tol asks for
    spec, t = case
    tol = Fraction(1, 10**30)
    with mp.workdps(50):
        got = stieltjes_eval(spec, t, tol)
        c = t + spec.basis_shift
        series = HyperSeries(spec.a + (-c,), [bj + 1 for bj in spec.b] + [1 - c], spec.z)
        (body,), wp = sum_fixed(linear_factors(series.a, series.b, series.z), (1, 10**30))
        exact = spec.scale * Fraction(body, 2**wp) / c
        exact += sum(m.M / (t - m.omega) for m in spec.merged_masses())
        bits = output_bits((1, 10**30))
        want = mp.mpf(from_rational(exact.numerator, exact.denominator, bits, round_nearest))
    assert isinstance(got, mp.mpf) and got._mpf_ == want._mpf_


@settings(max_examples=100, deadline=None)
@given(finite_weights(), small_rationals(-30, 160))
def test_stieltjes_finite_matches_the_series_route(spec, t):
    # the same Fraction as one finite hypergeometric sum of its own series
    assume(spec.support_index(t) is None and all(t != m.omega for m in spec.masses))
    want = 0
    for m in spec.merged_masses():
        want = want + exact_div(m.M, t - m.omega)
    if spec.scale != 0:
        c = t + spec.basis_shift
        series = HyperSeries(spec.a + (-c,), [bj + 1 for bj in spec.b] + [1 - c], spec.z)
        body = eval_hyper_finite_sum(series, spec.weight_upper_bound())
        want = want + exact_div(spec.scale * body, c)
    got = stieltjes_eval(spec, t)
    assert (type(got), got) == (type(want), want)


def test_stieltjes_divergent_weight_raises_at_once(monkeypatch):
    def no_summation(*args):
        raise AssertionError("a divergent series reached the summation kernel")

    monkeypatch.setattr(discsemi.functional, "sum_fixed", no_summation)
    divergent = [
        FunctionalSpec(a=[Fraction(1, 2), Fraction(1, 3)], b=[], z=Fraction(1, 2)),
        FunctionalSpec(a=[Fraction(1, 2)], b=[], z=2),
        # on |z| = 1 the balance of the Stieltjes series is -3/2
        FunctionalSpec(a=[Fraction(5, 2)], b=[], z=-1),
    ]
    for spec in divergent:
        with pytest.raises(DivergentSeries):
            stieltjes_eval(spec, Fraction(7, 2))


def test_unsummable_table_is_refused_before_any_sum(monkeypatch):
    # nu_3 of this weight sums a balanced series of balance 0 at z = 1, so a
    # table through K = 4 raises that order's error without summing nu_0..nu_2
    def no_summation(*args):
        raise AssertionError("a table with an unsummable order reached the kernel")

    monkeypatch.setattr(discsemi.functional, "sum_fixed", no_summation)
    spec = FunctionalSpec(a=[Fraction(1, 2), Fraction(-3, 2)], b=[1], z=1, scale=Fraction(3, 2))
    with mp.workdps(50):
        with pytest.raises(DivergentSeries, match="at z = 1 requires positive parameter balance"):
            moments(spec, 4, Fraction(1, 10**30))


@pytest.mark.parametrize("tol", [0, Fraction(-1, 10**30), -1e-30])
def test_nonpositive_tolerance_is_refused_before_any_sum(monkeypatch, tol):
    def no_summation(*args):
        raise AssertionError("a tolerance that is not positive reached the summation loop")

    monkeypatch.setattr(discsemi.hyper, "_table_pass", no_summation)
    spec = FunctionalSpec(a=[Fraction(1, 3)], b=[Fraction(2, 5)], z=Fraction(1, 2))
    with pytest.raises(InputError, match="tolerance must be positive"):
        moments(spec, 2, tol)
    with pytest.raises(InputError, match="tolerance must be positive"):
        stieltjes_eval(spec, Fraction(1, 2), tol)
    # an exact sum does not read tol
    finite = apply_truncation(spec, 5)
    assert moments(finite, 2, tol).values == moments(finite, 2).values
    assert stieltjes_eval(finite, Fraction(1, 2), tol) == stieltjes_eval(finite, Fraction(1, 2))


def test_mpf_integer_stieltjes_point_is_a_support_point():
    # an integer point is one, int or Fraction; an mpf one is refused
    spec = FunctionalSpec(a=[], b=[], z=Fraction(1, 2))
    for t in (Fraction(3), 3):
        with pytest.raises(PoleAtSupportPoint):
            stieltjes_eval(spec, t)
    with pytest.raises(InputError):
        stieltjes_eval(spec, mp.mpf(3))


def test_mpf_integer_denominator_pole_is_typed():
    # an integer parameter is one, int or Fraction; an mpf one is refused
    for b in (Fraction(-3), -3):
        spec = FunctionalSpec(a=[Fraction(1, 3)], b=[b], z=Fraction(1, 2))
        with pytest.raises(PoleInDenominator, match="singular at x = 3"):
            moments(spec, 3)
    with pytest.raises(InputError):
        FunctionalSpec(a=[Fraction(1, 3)], b=[mp.mpf(-3)], z=Fraction(1, 2))


# ---------------------------------------------------------------------------
# infinite weights: running prefactors against the per-n products


def direct_infinite_moments(spec, K, tol):
    """nu_0..nu_K of an infinite weight, each the prefactor
    ``scale z^n (a)_n / (b+1)_n`` rebuilt from ``pochhammer`` products times
    one ``eval_hyper`` call: the per-moment route that the running products
    and then the integer factors replaced, kept as the oracle.  The
    prefactor is rounded to mpf once, to nearest, as ``moments`` rounds it.
    A sum that raises ``DivergentSeries`` gives ``(type, message, n)``
    instead."""
    b1 = [bj + 1 for bj in spec.b]
    values = []
    for n in range(K + 1):
        pref = spec.scale * spec.z**n * math.prod(pochhammer(x, n) for x in spec.a)
        pref = exact_div(pref, math.prod(pochhammer(x, n) for x in b1))
        series = HyperSeries([x + n for x in spec.a], [x + n for x in b1], spec.z)
        try:
            value = to_mpf(pref) * eval_hyper(series, tol / max(1, abs(pref)))
        except DivergentSeries as exc:
            return type(exc), str(exc), n
        value += sum(m.M * falling_factorial(m.omega, n) for m in spec.merged_masses())
        values.append(value)
    return values


def assert_within_tol(got, want, tol):
    """Every value an mpf within ``tol (1 + |want|)`` of its oracle value."""
    assert len(got) == len(want)
    with mp.workdps(80):
        for g, w in zip(got, want):
            assert isinstance(g, mp.mpf)
            assert abs(g - w) <= to_mpf(tol) * (1 + abs(w)), (g, w)


@settings(max_examples=60, deadline=None)
@given(infinite_weights(), st.integers(min_value=0, max_value=30))
def test_infinite_moments_match_the_per_moment_prefactors(case, K):
    # one table against the per-moment route summed 10^10 tighter
    spec, _ = case
    tol = Fraction(1, 10**30)
    with mp.workdps(50):
        got = moments(spec, K, tol).values
    with mp.workdps(80):
        want = direct_infinite_moments(spec, K, tol / 10**10)
    assert_within_tol(got, want, tol)


def moments_outcome(spec, K, tol):
    """``moments(spec, K, tol).values``, or ``(type, message, n)`` with n the
    first order whose table raises ``DivergentSeries``."""
    try:
        return list(moments(spec, K, tol).values)
    except DivergentSeries as exc:
        error = type(exc), str(exc)
    for n in range(K + 1):
        try:
            moments(spec, n, tol)
        except DivergentSeries as exc:
            assert (type(exc), str(exc)) == error
            return error + (n,)
    raise AssertionError("no shorter table raises")


def dyadic(lo, hi):
    return st.integers(min_value=8 * lo, max_value=8 * hi).map(lambda k: Fraction(k, 8))


@st.composite
def balanced_unit_circle_weights(draw):
    """Weights with p = q + 1 on |z| = 1.  The sum of nu_n has balance
    gamma - n, so the table raises ``DivergentSeries`` at n = gamma for
    z = 1, and at n = 0 when gamma <= -1; K is cut where z = -1 would sum a
    balance below 1, which converges too slowly to test."""
    q = draw(st.integers(min_value=1, max_value=2))
    a = draw(st.lists(dyadic(0, 2).filter(bool), min_size=q, max_size=q))
    b = draw(st.lists(dyadic(0, 2), min_size=q, max_size=q))
    z = draw(st.sampled_from([1, -1]))
    gamma = draw(st.sampled_from([-2, Fraction(-3, 2), -1] + ([0, 1, 2, 3] if z == 1 else [2, 3])))
    last = sum(b) + q - sum(a) - gamma
    assume(not (last.denominator == 1 and last <= 0))  # a finite weight
    K = draw(st.integers(min_value=0, max_value=4))
    if z == -1 and gamma > 0:
        K = min(K, gamma - 1)
    return FunctionalSpec(a + [last], b, z, scale=draw(dyadic(-4, 4).filter(bool))), K


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(
        st.tuples(infinite_weights().map(lambda case: case[0]),
                  st.integers(min_value=0, max_value=12), st.just(Fraction(1, 10**30))),
        balanced_unit_circle_weights().map(lambda case: case + (Fraction(1, 10**6),)),
    )
)
def test_infinite_moments_match_the_per_moment_route(case):
    # the same error at the same n; else values within tol of the per-moment
    # route summed 10^10 tighter.  A balanced series (|z| = 1) cannot be
    # summed that tightly within MAX_TERMS, so there each value is held to
    # the per-moment route at the same tol, whose stop rule every order of
    # the table follows, and at z = -1 also to mpmath.hyper.  At z = 1 both
    # routes miss the true value by more than tol: two small terms of one
    # sign, decaying like a power, leave a longer tail (ROADMAP item 2).
    spec, K, tol = case
    with mp.workdps(50):
        want = direct_infinite_moments(spec, K, tol)
        got = moments_outcome(spec, K, tol)
    if not isinstance(want, list):
        assert got == want
        return
    assert isinstance(got, list)
    if abs(spec.z) == 1 and len(spec.a) == len(spec.b) + 1:
        assert_within_tol(got, want, tol)
        if spec.z == -1:
            assert_within_tol(got, hyper_moments(spec, K), tol)
        return
    with mp.workdps(80):
        want = direct_infinite_moments(spec, K, tol / 10**10)
    assert_within_tol(got, want, tol)


def hyper_moments(spec, K):
    """nu_0..nu_K of a mass-free infinite weight from ``mpmath.hyper`` at
    dps 80: ``scale z^n (a)_n / (b+1)_n`` times the series raised by n."""
    with mp.workdps(80):
        a = [to_mpf(x) for x in spec.a]
        b = [to_mpf(x) + 1 for x in spec.b]
        z = to_mpf(spec.z)
        return [
            to_mpf(spec.scale) * z**n * mp.fprod(mp.rf(x, n) for x in a)
            / mp.fprod(mp.rf(x, n) for x in b)
            * mp.hyper([x + n for x in a], [x + n for x in b], z)
            for n in range(K + 1)
        ]


@st.composite
def dipping_weights(draw):
    """Infinite weights with some ``b + 1`` a negative non-integer: the terms
    can dip below tol before ``u = -(b + 1)`` and grow again, so no sum may
    stop before it.  Entire, or on the unit disk within |z| <= 1/4."""
    q = draw(st.integers(min_value=1, max_value=2))
    p = draw(st.integers(min_value=0, max_value=q + 1))
    a = draw(st.lists(
        small_rationals(-6, 6).filter(lambda x: not (x.denominator == 1 and x <= 0)),
        min_size=p, max_size=p,
    ))
    dips = small_rationals(-9, -1).filter(lambda x: x.denominator != 1)
    b = [draw(dips)] + draw(st.lists(small_rationals(-8, 6).filter(
        lambda x: not (x.denominator == 1 and x <= -1)), min_size=q - 1, max_size=q - 1))
    bound = Fraction(1, 4) if p == q + 1 else 10
    z = draw(st.fractions(min_value=-bound, max_value=bound, max_denominator=20)
             .filter(lambda x: x != 0))
    scale = draw(small_rationals(-20, 20).filter(lambda x: x != 0))
    return FunctionalSpec(a, b, z, scale=scale), draw(st.integers(min_value=0, max_value=12))


@settings(max_examples=60, deadline=None)
@given(dipping_weights())
def test_infinite_moments_wait_out_a_dip(case):
    spec, K = case
    tol = Fraction(1, 10**30)
    with mp.workdps(50):
        got = moments(spec, K, tol).values
    with mp.workdps(80):
        want = direct_infinite_moments(spec, K, tol / 10**10)
    assert_within_tol(got, want, tol)


@pytest.mark.parametrize("dps", [15, 50])
def test_infinite_moment_table_waits_out_a_deep_dip(dps):
    # the weight's terms fall to about 2e-14 around u = 5 and grow again past
    # the -(b_j + 1), to a sum of 745 (the kernel's dip test in test_hyper):
    # at tol 1e-12 no sum of the table may stop in the dip
    spec = FunctionalSpec(
        a=[Fraction(-9, 5), Fraction(16, 3), Fraction(-1, 3), Fraction(-1, 2)],
        b=[Fraction(-33, 4), Fraction(-26, 3), Fraction(-56, 3)],
        z=Fraction(11, 50),
    )
    tol = Fraction(1, 10**12)
    with mp.workdps(dps):
        got = moments(spec, 6, tol).values
    with mp.workdps(80):
        want = direct_infinite_moments(spec, 6, tol / 10**10)
        assert abs(want[0] - mp.mpf("745.566")) < 1e-3
    assert_within_tol(got, want, tol)


def test_infinite_moment_table_restarts_after_an_underflow():
    # (a)_u carries a + 5 = 1e-40 from u = 6 on and (b+1)_u divides it out
    # again at u = 11: at dps 15 those terms round to 0 in the table's first
    # pass, which must be redone at a precision that keeps them
    eps = Fraction(1, 10**40)
    spec = FunctionalSpec(a=[-5 + eps], b=[-11 + eps], z=1)
    tol = Fraction(1, 10**12)
    with mp.workdps(15), mock.patch.object(
        discsemi.hyper, "_table_pass", wraps=discsemi.hyper._table_pass
    ) as passes:
        got = moments(spec, 3, tol).values
    assert passes.call_count == 2
    with mp.workdps(150):
        want = direct_infinite_moments(spec, 3, tol / 10**10)
    assert_within_tol(got, want, tol)


@settings(max_examples=30, deadline=None)
@given(
    st.booleans(),
    st.fractions(min_value=-40, max_value=-20, max_denominator=4),
    small_rationals(-4, 4).filter(lambda x: x != 0),
    st.integers(min_value=0, max_value=8),
)
def test_cancelling_infinite_table_resums(pair, z, scale, K):
    # an entire weight at z <= -20: its terms peak above 2^28 while the
    # moments are about e^z, so at dps 15 the first pass cannot certify its
    # sums to tol and the table is summed once more, with the bits it lacked
    a, b = ([Fraction(2, 5)], [Fraction(1, 3)]) if pair else ([], [])
    spec = FunctionalSpec(a, b, z, scale=scale)
    tol = Fraction(1, 10**20)
    with mp.workdps(15), mock.patch.object(
        discsemi.hyper, "_table_pass", wraps=discsemi.hyper._table_pass
    ) as passes:
        got = moments(spec, K, tol).values
    assert passes.call_count == 2
    with mp.workdps(80):
        want = direct_infinite_moments(spec, K, tol / 10**10)
    assert_within_tol(got, want, tol)


