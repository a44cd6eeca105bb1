"""Tests for the five functional transformations and their composition laws."""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, strategies as st
from mpmath import mp

from discsemi.combin import falling_factorial
from discsemi.errors import (
    ConstraintViolated,
    DegenerateSymmetrization,
    DiscsemiError,
    InputError,
    PoleAtSupportPoint,
    RegularityViolation,
    TruncationAtEtaRoot,
)
from discsemi.functional import (
    FunctionalSpec,
    Mass,
    Support,
    moments,
    pearson_pair,
    stieltjes_eval,
    weight_at,
)
from discsemi.scalars import agree, to_mpf
from discsemi import functional, transforms
from discsemi.transforms import (
    apply_christoffel,
    apply_geronimus,
    apply_symmetrization,
    apply_transform,
    apply_truncation,
    apply_uvarov,
    canonicalize,
    compose_check,
)

mp.dps = 50

HALF = Fraction(1, 2)
TIGHT = Fraction(1, 10**36)
LOOSE = mp.mpf(10) ** -28


def charlier(z=HALF):
    return FunctionalSpec(a=(), b=(), z=z)


def meixner(a=Fraction(1, 3), z=HALF):
    return FunctionalSpec(a=(a,), b=(), z=z)


def krawtchouk(N=2, z=HALF):
    return FunctionalSpec(a=(-N,), b=(), z=z)


def hahn(a=Fraction(1, 3), b=HALF, N=4):
    return FunctionalSpec(a=(a, -N), b=(b,), z=1)


def class_of(spec):
    return pearson_pair(spec).class_s


# ---------------------------------------------------------------------------
# the JSON form of a transformation


def test_transform_kind_json_validation():
    for data in (
        {"kind": "moebius", "omega": "1"},
        {"omega": "1"},
        ["uvarov", "1", "1"],
        {"kind": "uvarov", "omega": "1"},
        {"kind": "christoffel", "omega": "1", "M": "1"},
        {"kind": "geronimus", "omega": "one", "M": "1"},
        {"kind": "truncate", "N": -1},
        {"kind": "truncate", "N": "4"},
        {"kind": "truncate", "N": True},
        {"kind": "symmetrize", "m": 0},
    ):
        with pytest.raises(InputError):
            apply_transform(charlier(), data)


@pytest.mark.parametrize(
    "kind, name, value",
    [("truncate", "N", -1), ("truncate", "N", True), ("truncate", "N", "3"),
     ("symmetrize", "m", 0)],
)
def test_bad_count_has_one_message_on_every_route(kind, name, value):
    apply = apply_truncation if name == "N" else apply_symmetrization
    support = "truncated" if name == "N" else "symmetrized_shift"
    messages = set()
    for route in (
        lambda: apply_transform(charlier(), {"kind": kind, name: value}),
        lambda: apply(charlier(), value),
        lambda: Support(support, **{name: value}),
    ):
        with pytest.raises(InputError) as err:
            route()
        messages.add(str(err.value))
    assert len(messages) == 1


def test_truncation_at_eta_root_has_one_message_on_every_route():
    # eta(3) = 0 through the numerator parameter -3
    messages = set()
    for route in (
        lambda: FunctionalSpec(a=(-3,), z=HALF, support=Support.truncated(3)),
        lambda: FunctionalSpec.from_json(
            {"a": [-3], "z": "1/2", "support": {"kind": "truncated", "N": 3}}
        ),
        lambda: apply_truncation(krawtchouk(N=3), 3),
    ):
        with pytest.raises(TruncationAtEtaRoot) as err:
            route()
        messages.add(str(err.value))
    assert len(messages) == 1


def test_apply_transform_dispatch():
    spec = charlier()
    out = apply_transform(spec, {"kind": "uvarov", "omega": 2, "M": 1})
    assert out.masses == (Mass(2, 1),)
    out = apply_transform(spec, {"kind": "geronimus", "omega": "-1/2", "M": "3"})
    assert out == apply_geronimus(spec, Fraction(-1, 2), 3)
    out = apply_transform(spec, {"kind": "christoffel", "omega": "-3/2"})
    assert out == apply_christoffel(spec, Fraction(-3, 2))
    out = apply_transform(krawtchouk(4), {"kind": "truncate", "N": 2})
    assert out.support == Support.truncated(2)
    out = apply_transform(charlier(), {"kind": "symmetrize", "m": 1})
    assert out.support == Support.symmetrized_shift(1)


_SMALL = st.sampled_from([0, 1, -1, 2, -3, "1/2", "-1/2", "1/3", "-5/2"])


@st.composite
def small_specs(draw):
    """JSON specs with N <= 5 and at most one mass.  An infinite weight
    keeps |z| != 1, where a balanced series may converge too slowly to sum."""
    N = draw(st.one_of(st.none(), st.integers(0, 5)))
    data = {
        "a": draw(st.lists(_SMALL, max_size=2)),
        "b": draw(st.lists(_SMALL, max_size=2)),
        "z": draw(st.sampled_from(["1/2", "-1/3", 2] if N is None else [1, "1/2", -2])),
        "scale": draw(st.sampled_from([1, 0, -2])),
        "masses": draw(
            st.lists(st.fixed_dictionaries({"omega": _SMALL, "M": _SMALL}), max_size=1)
        ),
    }
    if N is not None:
        data["support"] = {"kind": "truncated", "N": N}
    return data


@given(
    small_specs(),
    st.one_of(
        st.fixed_dictionaries({"kind": st.just("uvarov"), "omega": _SMALL, "M": _SMALL}),
        st.fixed_dictionaries({"kind": st.just("christoffel"), "omega": _SMALL}),
        st.fixed_dictionaries({"kind": st.just("geronimus"), "omega": _SMALL, "M": _SMALL}),
    ),
)
@example(  # Geronimus used to divide the scale by omega = 0 before any check
    {"a": [], "b": [], "z": 1, "scale": 0, "masses": [{"omega": "1/2", "M": 1}]},
    {"kind": "geronimus", "omega": 0, "M": 1},
)
@example(  # and divided a zero mass at omega by omega - omega = 0
    {"a": [], "b": [], "z": "1/2", "masses": [{"omega": -1, "M": 0}]},
    {"kind": "geronimus", "omega": -1, "M": 1},
)
def test_transforms_raise_only_typed_errors(spec_data, transform):
    try:
        out = apply_transform(FunctionalSpec.from_json(spec_data), transform)
    except DiscsemiError:
        return
    assert isinstance(out, FunctionalSpec)


# ---------------------------------------------------------------------------
# Uvarov


def test_uvarov_moment_shift():
    # nu_2 gains phi_2(2) = 2
    spec = charlier(z=1)
    out = apply_uvarov(spec, 2, 1, tol=TIGHT)
    nu2 = moments(spec, 2, tol=TIGHT)[2]
    nu2_u = moments(out, 2, tol=TIGHT)[2]
    assert abs(nu2_u - (nu2 + 2)) < LOOSE
    assert abs(nu2 - mp.e) < LOOSE  # z^2 e^z at z = 1

    exact = hahn()
    shifted = apply_uvarov(exact, Fraction(-3, 2), Fraction(2, 7))
    base = moments(exact, 10)
    got = moments(shifted, 10)
    for n in range(11):
        assert got[n] == base[n] + Fraction(2, 7) * falling_factorial(
            Fraction(-3, 2), n
        )


def test_uvarov_zero_mass_keeps_moments():
    spec = krawtchouk()
    out = apply_uvarov(spec, 3, 0)
    assert moments(out, 6).values == moments(spec, 6).values
    assert class_of(out) == class_of(spec)


def test_uvarov_class_deltas():
    base = charlier()
    assert class_of(base) == 0
    # generic mass: both sigma and eta nonzero at omega -> +2
    assert class_of(apply_uvarov(base, Fraction(-3, 2), 1, tol=TIGHT)) == 2
    # mass at the origin: sigma(0) = 0 -> +1
    assert class_of(apply_uvarov(base, 0, 1, tol=TIGHT)) == 1
    # mass at the truncation endpoint: eta(N) = 0 there -> +1
    truncated = apply_truncation(charlier(), 5)
    assert class_of(truncated) == 1
    assert class_of(apply_uvarov(truncated, 5, 1)) == 2


def test_uvarov_regularity():
    spec = krawtchouk(N=2, z=HALF)  # nu_0 = 1/4
    with pytest.raises(RegularityViolation):
        apply_uvarov(spec, 3, Fraction(-1, 4))


# ---------------------------------------------------------------------------
# Christoffel


def test_christoffel_moment_recurrence_exact():
    spec = hahn()
    omega = Fraction(-3, 2)
    out = apply_christoffel(spec, omega)
    base = moments(spec, 9)
    got = moments(out, 8)
    for n in range(9):
        assert got[n] == base[n + 1] + (n - omega) * base[n]


def test_christoffel_moments_printed_forms():
    # nu_n' = (n + z - omega) z^n e^z for the plain exponential weight
    z, omega = HALF, Fraction(-3, 2)
    out = apply_christoffel(charlier(z), omega, tol=TIGHT)
    got = moments(out, 4, tol=TIGHT)
    for n in range(5):
        expected = (n + z - omega) * to_mpf(z) ** n * mp.exp(to_mpf(z))
        assert abs(got[n] - expected) < LOOSE
    # nu_0' = (az + omega z - omega)/(1 - z) nu_0 for the (1,0) weight
    a = Fraction(1, 3)
    out2 = apply_christoffel(meixner(a, z), omega, tol=TIGHT)
    nu0 = moments(meixner(a, z), 0, tol=TIGHT)[0]
    expected0 = (a * z + omega * z - omega) / (1 - z) * nu0
    assert abs(moments(out2, 0, tol=TIGHT)[0] - expected0) < LOOSE


def test_christoffel_parameter_rewrite_and_class():
    omega = Fraction(-3, 2)
    out = apply_christoffel(charlier(), omega, tol=TIGHT)
    assert out.a == (1 - omega,)
    assert out.b == (-omega - 1,)
    assert out.scale == -omega
    assert class_of(out) == 1
    # masses are rescaled by (omega_i - omega); a mass at omega would die
    spec = FunctionalSpec(a=(), b=(), z=HALF, masses=(Mass(Fraction(5, 2), 2),))
    moved = apply_christoffel(spec, omega, tol=TIGHT)
    assert moved.masses == (Mass(Fraction(5, 2), 8),)


def test_christoffel_at_sigma_root_keeps_class():
    # multiplying at a root of sigma beyond 0 cancels against the existing
    # denominator entry, so the class stays put
    spec = FunctionalSpec(a=(), b=(HALF,), z=HALF)
    assert class_of(spec) == 1
    out = apply_christoffel(spec, Fraction(-1, 2), tol=TIGHT)
    assert out.a == ()
    assert out.b == (Fraction(-1, 2),)
    assert out.scale == HALF
    assert class_of(out) == 1


def test_christoffel_constraints():
    with pytest.raises(ConstraintViolated):
        apply_christoffel(charlier(), 3, tol=TIGHT)
    with pytest.raises(ConstraintViolated):
        apply_christoffel(krawtchouk(N=4), 2)
    # an integer beyond a terminating weight's support is fine
    out = apply_christoffel(krawtchouk(N=4, z=Fraction(1, 3)), 7)
    assert class_of(out) == 1
    # nu_1 - omega nu_0 = 0 exactly at omega = z for the exponential weight
    with pytest.raises(RegularityViolation):
        apply_christoffel(charlier(HALF), HALF, tol=TIGHT)
    sym = apply_symmetrization(charlier(), 2)
    with pytest.raises(ConstraintViolated):
        apply_christoffel(sym, Fraction(7, 2))
    # a zero scale leaves the lattice in place: Christoffel and Geronimus
    # reject the same points on it and accept the same points off it
    mass = (Mass(HALF, 1),)
    for spec, on, off in (
        (FunctionalSpec(a=(), b=(), z=1, scale=0, masses=mass), (0, Fraction(1), 5), (-1,)),
        (FunctionalSpec(a=(-3,), b=(), z=HALF, scale=0, masses=mass), (0, Fraction(1), 3), (5, -1)),
    ):
        for omega in on:
            with pytest.raises(ConstraintViolated, match="support"):
                apply_christoffel(spec, omega)
            with pytest.raises(ConstraintViolated, match="support"):
                apply_geronimus(spec, omega, 1)
        for omega in off:
            assert isinstance(apply_christoffel(spec, omega), FunctionalSpec)
            assert isinstance(apply_geronimus(spec, omega, 1), FunctionalSpec)


# ---------------------------------------------------------------------------
# Geronimus


def test_geronimus_exact_table_and_consistency():
    spec = krawtchouk(N=3, z=HALF)
    omega, M = Fraction(-3, 2), Fraction(1, 4)
    out = apply_geronimus(spec, omega, M)
    table = moments(out, 10)
    base = moments(spec, 10)
    assert all(table.exact)
    # recurrence nu_{n+1}' + (n - omega) nu_n' = nu_n, exactly
    for n in range(10):
        assert table[n + 1] + (n - omega) * table[n] == base[n]
    # nu_0' = M - S(omega)
    assert table[0] == M - stieltjes_eval(spec, omega)
    assert class_of(out) == class_of(spec) + 1


def test_geronimus_numeric_consistency():
    spec = charlier()
    omega, M = Fraction(-5, 2), 1
    table = moments(apply_geronimus(spec, omega, M, tol=TIGHT), 8, tol=TIGHT)
    base = moments(spec, 7, tol=TIGHT)
    for n in range(8):
        assert agree(table[n + 1] + (n - omega) * table[n], base[n], LOOSE)[1]
    assert agree(table[0], -stieltjes_eval(spec, omega, TIGHT) + M, LOOSE)[1]


def test_geronimus_regularity_and_poles():
    spec = krawtchouk(N=3, z=HALF)
    omega = Fraction(-3, 2)
    S = stieltjes_eval(spec, omega)
    with pytest.raises(RegularityViolation):
        apply_geronimus(spec, omega, S)
    with pytest.raises(ConstraintViolated, match="support lattice"):
        apply_geronimus(charlier(), 2, 1)
    sym = apply_symmetrization(charlier(), 2)
    with pytest.raises(ConstraintViolated):
        apply_geronimus(sym, Fraction(7, 2), 1)
    # S(omega) has a pole at an existing mass point off the lattice
    massed = apply_uvarov(charlier(), Fraction(-1, 2), 1)
    with pytest.raises(PoleAtSupportPoint, match="mass point"):
        apply_geronimus(massed, Fraction(-1, 2), 1)


_POINTS = st.one_of(
    st.integers(min_value=-3, max_value=9),
    st.fractions(min_value=-3, max_value=9, max_denominator=4),
)


@st.composite
def exact_divisions(draw):
    """``(spec, omega, M)``: a finite weight, truncated or terminating on its
    own, with up to two masses; omega off its lattice and its mass points,
    integers past the weight's end included; M often S(omega) itself."""
    N = draw(st.integers(min_value=0, max_value=6))
    a = draw(st.lists(st.sampled_from([HALF, Fraction(-5, 2), 2, Fraction(1, 3)]), max_size=1))
    support = Support.truncated(N)
    if draw(st.booleans()):  # the weight stops at N by itself
        a, support = a + [-N], None
    spec = FunctionalSpec(
        a=a,
        b=draw(st.lists(st.sampled_from([HALF, 1, Fraction(2, 3)]), max_size=1)),
        z=draw(st.sampled_from([1, HALF, -2])),
        scale=draw(st.sampled_from([1, -2, 0])),
        support=support,
        masses=[Mass(w, m) for w, m in draw(st.lists(st.tuples(_POINTS, _POINTS), max_size=2))],
    )
    omega = draw(st.one_of(_POINTS, st.just(spec.weight_upper_bound() + 1)))
    assume(spec.support_index(omega) is None)
    assume(all(mass.omega != omega for mass in spec.merged_masses()))
    S = stieltjes_eval(spec, omega)
    return spec, omega, draw(st.one_of(st.just(S), _POINTS))


@given(exact_divisions())
@example(  # the divided weight once gained the point 3, so nu_0' missed M - S
    (krawtchouk(N=2, z=HALF), 3, Fraction(1, 24)),
)
def test_geronimus_reads_regularity_off_the_divided_table(case):
    # nu_0' = M - S(omega): the regularity test on the divided spec's own
    # table agrees with the independent Stieltjes sum
    spec, omega, M = case
    S = stieltjes_eval(spec, omega)
    if M == S:
        with pytest.raises(RegularityViolation):
            apply_geronimus(spec, omega, M)
    else:
        assert moments(apply_geronimus(spec, omega, M), 0)[0] == M - S


def test_geronimus_at_an_mpf_point_keeps_rational_masses():
    # an mpf omega against a Fraction mass once took the gap from Fraction -
    # mpf (a TypeError), and at the mpf nearest -1/3 the mass at -1/3
    # counted as a pole; omega is now rational (an mpf one is refused), and
    # each mass is divided by its exact gap, next to -1/3 as well
    omega = Fraction(-1, 3) + Fraction(1, 10**60)
    for point in (Fraction(-1, 5), Fraction(-1, 3)):
        spec = apply_uvarov(charlier(), point, 2)
        with mp.workdps(50), pytest.raises(InputError, match="rational"):
            apply_geronimus(spec, -mp.mpf(1) / 3, 1)
        kept, added = apply_geronimus(spec, omega, 1).masses
        assert kept == Mass(point, 2 / (point - omega)) and added == Mass(omega, 1)


# ---------------------------------------------------------------------------
# composition laws


def test_compose_exact_round_trip():
    spec = krawtchouk(N=3, z=HALF)
    report = compose_check(spec, Fraction(-3, 2), 2)
    assert report["pass"]
    assert report["round_trip_exact"]
    assert report["divide_then_multiply"]["max_error"] == 0
    assert report["multiply_then_divide"]["max_error"] == 0


def test_compose_numeric_and_zero_mass():
    report = compose_check(charlier(Fraction(1, 3)), HALF, 2, tol=TIGHT)
    assert report["pass"]
    assert report["round_trip_exact"]
    report0 = compose_check(krawtchouk(N=3, z=HALF), Fraction(-3, 2), 0)
    assert report0["pass"]


@pytest.mark.parametrize("spec, omega, M, tables", [
    (krawtchouk(N=3, z=HALF), Fraction(-3, 2), 2, 2),
    (apply_truncation(meixner(), 9), Fraction(-1, 2), Fraction(1, 3), 2),
    (apply_uvarov(apply_truncation(hahn(N=7), 5), Fraction(-5, 2), Fraction(1, 4)),
     Fraction(-1, 2), Fraction(2, 5), 2),
    (charlier(Fraction(1, 3)), HALF, 2, 2),
    # not canonical: neither law lands verbatim, so each sums its own table
    (FunctionalSpec(a=[Fraction(3, 2)], b=[HALF], z=HALF), Fraction(-1, 2), 2, 4),
])
def test_compose_check_sums_two_tables(monkeypatch, spec, omega, M, tables):
    # the base table serves the regularity tests on spec itself, the divided
    # spec's nu_0', nu_1' serve both of its tests, and a law that lands
    # verbatim on its spec reads its table off the base table
    summed, weights = [], []
    weight_sums = functional._weight_sums

    def counting(spec, K, tol):
        summed.append((spec, K))
        return moments(spec, K, tol)

    def summing(spec, *args, **kwargs):  # every weight sum, S(t) included
        weights.append(spec)
        return weight_sums(spec, *args, **kwargs)

    monkeypatch.setattr(transforms, "moments", counting)
    monkeypatch.setattr(functional, "_weight_sums", summing)
    report = compose_check(spec, omega, M, tol=TIGHT)
    monkeypatch.undo()
    assert len(summed) == tables and weights == [spec for spec, K in summed]
    assert summed[:2] == [(spec, 9), (apply_geronimus(spec, omega, M, TIGHT), 1)]
    # the steps the report names, each through its public transform
    gc_spec = apply_geronimus(apply_christoffel(spec, omega, TIGHT), omega, M, TIGHT)
    back = apply_christoffel(apply_geronimus(spec, omega, M, TIGHT), omega, TIGHT)
    assert report["multiply_then_divide"]["spec"] == gc_spec.to_json()
    assert report["round_trip_exact"] is (tables == 2)
    assert report["round_trip_exact"] is (
        back.to_json() == spec.to_json()
        and gc_spec.to_json() == apply_uvarov(spec, omega, M, TIGHT).to_json()
    )
    assert report["pass"] is True


def test_compose_spec_level_identities():
    # divide-then-multiply restores the spec verbatim; multiply-then-divide
    # lands verbatim on the mass-extended spec
    spec = hahn()
    omega, M = Fraction(-3, 2), Fraction(2, 7)
    g_spec = apply_geronimus(spec, omega, M)
    assert apply_christoffel(g_spec, omega).to_json() == spec.to_json()
    c_spec = apply_christoffel(spec, omega)
    gc_spec = apply_geronimus(c_spec, omega, M)
    assert gc_spec.to_json() == apply_uvarov(spec, omega, M).to_json()


def test_canonicalize_cancels_matched_pairs():
    spec = FunctionalSpec(a=(Fraction(3, 2), 2), b=(HALF,), z=HALF)
    out = canonicalize(spec)
    assert out.a == (2,)
    assert out.b == ()
    # each a_i in order cancels the first remaining b_j = a_i - 1; the int 1
    # goes, the equal Fraction(1) after it finds no b_j left and stays
    spec = FunctionalSpec(
        a=(Fraction(3, 2), Fraction(3, 2), 1, Fraction(1)), b=(HALF, 0, HALF), z=HALF
    )
    out = canonicalize(spec)
    assert out.a == (1,) and type(out.a[0]) is Fraction
    assert out.b == ()
    out = canonicalize(FunctionalSpec(a=(Fraction(1), 1, 2), b=(0, 1), z=HALF))
    assert out.a == (1,) and type(out.a[0]) is int
    assert out.b == ()
    assert canonicalize(charlier()) is charlier() or canonicalize(
        charlier()
    ) == charlier()


# ---------------------------------------------------------------------------
# truncation


def test_truncation_moments_match_weight_sums():
    out = apply_truncation(charlier(z=1), 1)
    assert moments(out, 0)[0] == 2

    spec = FunctionalSpec(a=(), b=(HALF,), z=1)
    t_spec = apply_truncation(spec, 3)
    table = moments(t_spec, 2)
    for n in range(3):
        by_points = sum(
            falling_factorial(x, n) * weight_at(t_spec, x) for x in range(4)
        )
        assert table[n] == by_points
        assert isinstance(table[n], Fraction)


def test_truncation_beyond_terminating_support():
    spec = krawtchouk(N=2, z=HALF)
    out = apply_truncation(spec, 5)
    assert moments(out, 4).values == moments(spec, 4).values


def test_truncation_constraints_and_class():
    with pytest.raises(TruncationAtEtaRoot):
        apply_truncation(krawtchouk(N=2), 2)
    with pytest.raises(ConstraintViolated):
        apply_truncation(apply_truncation(charlier(), 5), 3)
    with pytest.raises(ConstraintViolated):
        apply_truncation(apply_symmetrization(charlier(), 1), 1)
    with pytest.raises(InputError):
        apply_truncation(charlier(), -2)
    assert class_of(apply_truncation(charlier(), 5)) == 1


# ---------------------------------------------------------------------------
# symmetrization


def test_symmetrization_plain_exponential():
    out = apply_symmetrization(charlier(), 1)
    assert out.a == (-2,)
    assert out.b == ()
    assert out.z == -1
    assert out.support == Support.symmetrized_shift(1)
    # moments in the shifted falling basis: (-1)^n (-2m)_n 2^(2m-n)
    table = moments(out, 3)
    assert list(table.values) == [4, 4, 2, 0]
    assert class_of(out) == 0


def test_symmetrization_one_numerator_weight():
    # z is forced to +1; weight is symmetric on the window and normalized
    # to 1 at the left endpoint
    out = apply_symmetrization(meixner(Fraction(1, 3), HALF), 2)
    assert out.a == (Fraction(1, 3), -4)
    assert out.b == (Fraction(-13, 3),)
    assert out.z == 1
    for x in range(3):
        assert weight_at(out, x) == weight_at(out, -x)
    assert weight_at(out, -2) == 1
    assert weight_at(out, 0) == Fraction(12, 35)
    assert class_of(out) == 0


def test_symmetrization_terminating_case_keeps_single_endpoint_factor():
    # the weight already terminates at 2m, so -N enters only once and the
    # argument flips sign relative to the non-terminating case
    base = FunctionalSpec(a=(Fraction(1, 3), -4), b=(), z=HALF)
    out = apply_symmetrization(base, 2)
    assert out.a == (Fraction(1, 3), -4)
    assert out.b == (Fraction(-13, 3),)
    assert out.z == -1
    assert class_of(out) == 1
    for x in range(3):
        assert weight_at(out, x) == weight_at(out, -x)


def test_symmetrization_degenerate_and_constraints():
    with pytest.raises(DegenerateSymmetrization):
        apply_symmetrization(krawtchouk(N=2, z=HALF), 1)
    with pytest.raises(ConstraintViolated):
        apply_symmetrization(apply_truncation(charlier(), 4), 2)
    with pytest.raises(ConstraintViolated):
        apply_symmetrization(
            FunctionalSpec(a=(), b=(), z=HALF, masses=(Mass(0, 1),)), 1
        )
    with pytest.raises(InputError):
        apply_symmetrization(charlier(), 0)
