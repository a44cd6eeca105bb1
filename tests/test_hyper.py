"""Tests for hypergeometric series evaluation and the convergence policy."""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

import discsemi.hyper
from discsemi.combin import pochhammer
from discsemi.errors import ComputationError, DivergentSeries, PoleInDenominator
from discsemi.hyper import (
    HyperSeries,
    classify_convergence,
    eval_hyper,
    eval_hyper_finite_sum,
    termination_degree,
)
from discsemi.scalars import exact_value, ratio_to_mpf, to_mpf


# ---------------------------------------------------------------------------
# classification


def test_termination_degree():
    assert termination_degree([Fraction(-3), 5]) == 3
    assert termination_degree([-3, -1]) == 1
    assert termination_degree([0, 7]) == 0
    assert termination_degree([Fraction(1, 2)]) is None
    assert termination_degree([]) is None


def test_classification_terminating_takes_precedence():
    cls = classify_convergence(HyperSeries([-3, 5, 7], [], 2))
    assert cls.tag == "Terminating" and cls.degree == 3
    assert cls.to_json() == {"tag": "Terminating", "degree": 3}


def test_classification_entire():
    assert classify_convergence(HyperSeries([], [], 10)).tag == "Entire"
    assert classify_convergence(HyperSeries([Fraction(1, 2)], [2], 5)).tag == "Entire"


def test_classification_unit_disk_gamma():
    cls = classify_convergence(HyperSeries([1, 2], [3], Fraction(1, 2)))
    assert cls.tag == "UnitDisk"
    assert cls.gamma == 0
    cls2 = classify_convergence(
        HyperSeries([Fraction(1, 3)], [], Fraction(1, 2))
    )
    assert cls2.tag == "UnitDisk" and cls2.gamma == Fraction(-1, 3)
    assert cls2.to_json()["gamma"] == "-1/3"


def test_classification_divergent():
    assert classify_convergence(HyperSeries([1, 1], [], Fraction(1, 2))).tag == (
        "Divergent"
    )


# ---------------------------------------------------------------------------
# evaluation: closed forms


def test_exponential_series():
    with mp.workdps(50):
        value = eval_hyper(HyperSeries([], [], 1), tol=Fraction(1, 10**48))
        assert abs(value - mp.e) < mp.mpf("1e-45")


def test_binomial_series():
    with mp.workdps(50):
        value = eval_hyper(HyperSeries([2], [], Fraction(1, 3)), tol=Fraction(1, 10**48))
        assert abs(value - Fraction(9, 4)) < mp.mpf("1e-45")


def test_vandermorde_sum_is_exact():
    # F(-n, b; c; 1) = (c-b)_n / (c)_n, here n=2, b=1, c=3
    value = eval_hyper(HyperSeries([-2, 1], [3], 1))
    assert isinstance(value, Fraction)
    assert value == Fraction(pochhammer(2, 2), pochhammer(3, 2)) == Fraction(1, 2)
    # and with rational parameters
    b, c = Fraction(1, 3), Fraction(5, 2)
    n = 4
    value = eval_hyper(HyperSeries([-n, b], [c], 1))
    assert value == pochhammer(c - b, n) / pochhammer(c, n)


def test_terminating_equals_finite_sum():
    h = HyperSeries([-4, Fraction(1, 2)], [Fraction(3, 4)], Fraction(-2, 3))
    assert eval_hyper(h) == eval_hyper_finite_sum(h, 4)
    # summing farther adds only zero terms
    assert eval_hyper_finite_sum(h, 9) == eval_hyper_finite_sum(h, 4)


def test_numeric_matches_mpmath_reference():
    with mp.workdps(40):
        got = eval_hyper(
            HyperSeries([Fraction(1, 2)], [Fraction(5, 3)], Fraction(1, 4)),
            tol=Fraction(1, 10**38),
        )
        want = mp.hyper([mp.mpf(1) / 2], [mp.mpf(5) / 3], mp.mpf(1) / 4)
        assert abs(got - want) < mp.mpf("1e-33")
    # On |z| = 1 the terms decay only polynomially, so drive the sum at a
    # loose tolerance and compare accordingly.
    with mp.workdps(30):
        got2 = eval_hyper(HyperSeries([1, 1], [3], -1), tol=Fraction(1, 10**10))
        want2 = mp.hyper([1, 1], [3], -1)
        assert abs(got2 - want2) < mp.mpf("1e-7")


def test_tolerance_tightening_improves_accuracy():
    with mp.workdps(50):
        h = HyperSeries([], [], Fraction(9, 10))
        exact = mp.exp(mp.mpf(9) / 10)
        loose = abs(eval_hyper(h, tol=Fraction(1, 10**8)) - exact)
        tight = abs(eval_hyper(h, tol=Fraction(1, 10**40)) - exact)
        assert tight <= loose
        assert tight < mp.mpf("1e-38")


# ---------------------------------------------------------------------------
# evaluation: error paths


def test_pole_in_denominator_terminating():
    # denominator hits zero at term 3 but the series runs to degree 5;
    # the terminating branch raises what the finite sum raises
    series = HyperSeries([-5], [-2], 1)
    with pytest.raises(PoleInDenominator) as direct:
        eval_hyper(series)
    with pytest.raises(PoleInDenominator) as finite:
        eval_hyper_finite_sum(series, 5)
    assert str(direct.value) == str(finite.value)
    # pole exactly at the termination degree is never reached; here the
    # parameters cancel and the sum is the truncated exponential 13/8
    value = eval_hyper(HyperSeries([-2], [-2], Fraction(1, 2)))
    assert value == Fraction(13, 8)


def test_pole_in_denominator_nonterminating():
    with pytest.raises(PoleInDenominator):
        eval_hyper(HyperSeries([Fraction(1, 2)], [-3], Fraction(1, 2)))


def test_finite_sum_pole():
    with pytest.raises(PoleInDenominator):
        eval_hyper_finite_sum(HyperSeries([1], [-2], 1), 5)


def test_divergent_when_numerator_heavy():
    with pytest.raises(DivergentSeries):
        eval_hyper(HyperSeries([1, 1], [], Fraction(1, 2)))


def test_divergent_outside_unit_disk():
    with pytest.raises(DivergentSeries):
        eval_hyper(HyperSeries([1, 2], [3], 2))


def test_divergent_on_boundary():
    # z = 1 needs positive balance
    with pytest.raises(DivergentSeries):
        eval_hyper(HyperSeries([1, 2], [3], 1))
    # balance <= -1 diverges anywhere on |z| = 1
    with pytest.raises(DivergentSeries):
        eval_hyper(HyperSeries([2, 2], [1], -1))
    # z = 1 with positive balance converges (polynomially slowly)
    with mp.workdps(30):
        got = eval_hyper(
            HyperSeries([1, Fraction(1, 2)], [3], 1), tol=Fraction(1, 10**9)
        )
        want = mp.hyper([1, mp.mpf(1) / 2], [3], 1)
        assert abs(got - want) < mp.mpf("1e-3")


def test_finite_sum_rejects_negative_length():
    with pytest.raises(ValueError):
        eval_hyper_finite_sum(HyperSeries([], [], 1), -1)
    assert eval_hyper_finite_sum(HyperSeries([5], [7], Fraction(2, 3)), 0) == 1


# ---------------------------------------------------------------------------
# weight partial sums and the reversal identity


def weight_partial_sum(a, b, z, K):
    """sum_{x=0}^{K} (a)_x / (b+1)_x * z^x / x!, the truncated-moment shape."""
    return eval_hyper_finite_sum(HyperSeries(a, [bj + 1 for bj in b], z), K)


def weight_partial_sum_reversed(a, b, z, K):
    """The same partial sum from its reversal identity (an independent oracle).

    Summing backwards from x = K gives one terminating series in 1/z:

        (a)_K/(b+1)_K z^K/K! * F(-K, 1, -K-b; 1-K-a; (-1)^{p+q+1}/z).
    """
    prefactor = Fraction(z) ** K / math.factorial(K)
    for ai in a:
        prefactor *= pochhammer(ai, K)
    for bj in b:
        prefactor /= pochhammer(bj + 1, K)
    upper = [Fraction(-K), Fraction(1)] + [-K - bj for bj in b]
    lower = [1 - K - ai for ai in a]
    argument = Fraction((-1) ** (len(a) + len(b) + 1)) / z
    return prefactor * eval_hyper_finite_sum(HyperSeries(upper, lower, argument), K)


def test_weight_partial_sum_examples():
    assert weight_partial_sum([], [], 1, 3) == Fraction(8, 3)
    assert weight_partial_sum([-2], [], Fraction(1, 2), 2) == Fraction(1, 4)


def test_reversed_matches_direct():
    cases = [
        ([], [], Fraction(1), 3),
        ([Fraction(-2)], [], Fraction(1, 2), 2),
        ([Fraction(1, 3)], [Fraction(1, 2)], Fraction(2, 5), 4),
        ([Fraction(1, 3), Fraction(2, 5)], [], Fraction(1, 2), 5),
        ([Fraction(1, 2)], [Fraction(1, 2), Fraction(3, 4)], Fraction(7, 3), 6),
        ([], [Fraction(1, 2)], Fraction(3), 4),
    ]
    for a, b, z, K in cases:
        direct = weight_partial_sum(a, b, z, K)
        reversed_ = weight_partial_sum_reversed(a, b, z, K)
        assert direct == reversed_, (a, b, z, K)
        assert isinstance(reversed_, Fraction)


# ---------------------------------------------------------------------------
# the exact finite-sum kernel against a term-by-term reference


def reference_finite_sum(a, b, z, K):
    """Term-by-term Fraction loop: the definition the kernel must match."""
    term = total = Fraction(1)
    for k in range(K):
        num = Fraction(1)
        for ai in a:
            num *= ai + k
        if num == 0:
            break
        den = Fraction(k + 1)
        for bj in b:
            den *= bj + k
        if den == 0:
            raise PoleInDenominator(
                f"denominator factor vanishes at term {k + 1} "
                f"while the numerator is still nonzero"
            )
        term = term * num * z / den
        total += term
    return total


def outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except PoleInDenominator as exc:
        return ("pole", str(exc))


# nonpositive integers are drawn often, so that numerators terminate and
# denominators hit poles inside the summed range
params = st.one_of(
    st.integers(min_value=-12, max_value=3).map(Fraction),
    st.fractions(min_value=-8, max_value=8, max_denominator=9),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(params, max_size=3),
    st.lists(params, max_size=3),
    st.fractions(min_value=-5, max_value=5, max_denominator=11),
    st.integers(min_value=0, max_value=60),
)
def test_finite_sum_matches_reference(a, b, z, K):
    got = outcome(eval_hyper_finite_sum, HyperSeries(a, b, z), K)
    want = outcome(reference_finite_sum, a, b, z, K)
    assert got == want
    if got[0] == "value":
        assert isinstance(got[1], Fraction)


def test_finite_sum_termination_and_pole_order():
    # termination at term 3 comes before the pole at term 5
    h = HyperSeries([Fraction(-2)], [Fraction(-4)], Fraction(3, 2))
    assert eval_hyper_finite_sum(h, 40) == reference_finite_sum(h.a, h.b, h.z, 40)
    # the pole at term 3 comes first: same index as the term-by-term loop
    h = HyperSeries([-6, Fraction(1, 3)], [Fraction(-2)], Fraction(-1, 2))
    with pytest.raises(PoleInDenominator, match="at term 3 "):
        eval_hyper_finite_sum(h, 10)
    # a pole beyond the summed range is never reached
    assert eval_hyper_finite_sum(h, 2) == reference_finite_sum(h.a, h.b, h.z, 2)


def test_finite_sum_numeric_inputs():
    a, b, z = [Fraction(1, 3), Fraction(-7)], [Fraction(1, 2)], Fraction(-2, 5)
    exact = eval_hyper_finite_sum(HyperSeries(a, b, z), 30)
    with mp.workdps(40):
        z_f = mp.mpf(z.numerator) / z.denominator
        numeric = eval_hyper_finite_sum(HyperSeries(a, b, z_f), 30)
        assert isinstance(numeric, mp.mpf)
        want = mp.mpf(exact.numerator) / exact.denominator
        assert abs(numeric - want) < mp.mpf("1e-35") * abs(want)
    with pytest.raises(PoleInDenominator, match="at term 3 "):
        eval_hyper_finite_sum(HyperSeries([1], [-2], mp.mpf(1)), 5)


def _truncated(w: Fraction, prec: int) -> Fraction:
    """``w`` rounded toward zero to ``prec`` significant bits, as mpmath
    rounds a Fraction."""
    n, d = abs(w.numerator), w.denominator
    e = n.bit_length() - d.bit_length()  # now 2^(e-1) < |w| < 2^(e+1)
    if Fraction(n, d) < Fraction(2) ** e:
        e -= 1
    s = prec - 1 - e
    q = (n << s) // d if s >= 0 else n // (d << -s)
    return (1 if w > 0 else -1) * Fraction(q) / Fraction(2) ** s


def test_mpf_finite_sum_rounds_each_coefficient_once():
    # each coefficient T_n/Q of a table with mpf parameters is the exact sum
    # over the dyadic parameters, rounded once (Q has about 42,000 bits)
    with mp.workdps(50):
        a, b, z = mp.mpf(1) / 3, mp.mpf(2) / 5 + 1, mp.mpf(1) / 2
        got = eval_hyper_finite_sum(HyperSeries([a], [b], z), 120, 24)
        want = eval_hyper_finite_sum(
            HyperSeries([exact_value(a)], [exact_value(b)], exact_value(z)), 120, 24
        )
        for g, w in zip(got, want, strict=True):
            assert isinstance(g, mp.mpf) and isinstance(w, Fraction)
            assert exact_value(g) == _truncated(w, mp.mp.prec)


def test_reversed_matches_direct_large_n():
    a, b, z = [Fraction(1, 3)], [Fraction(1, 2)], Fraction(2, 5)
    assert weight_partial_sum(a, b, z, 500) == weight_partial_sum_reversed(a, b, z, 500)


# ---------------------------------------------------------------------------
# the fixed-point kernel against mpmath.hyper


def rationals(lo, hi):
    return st.fractions(min_value=lo, max_value=hi, max_denominator=9)


# Numerator parameters avoid nonpositive integers (those terminate and are
# summed exactly), and denominator parameters avoid them too (poles).  A
# negative non-integer b lets the terms dip below tol and grow again near
# k = -b, which the stopping rule waits out.  Unit-disk arguments stay
# within 1/4: there the terms decrease once they are past every -b and
# below the tolerance, so two small terms in a row leave a tail under it.
# (|z| near 1 leaves a tail of about term / (1 - |z|); the stopping rule is
# not a tail bound there.)
upper_params = rationals(-8, 8).filter(
    lambda x: not (x.denominator == 1 and x <= 0)
)
lower_params = upper_params


@st.composite
def numeric_series(draw):
    q = draw(st.integers(min_value=0, max_value=3))
    p = draw(st.integers(min_value=0, max_value=q + 1))
    a = draw(st.lists(upper_params, min_size=p, max_size=p))
    b = draw(st.lists(lower_params, min_size=q, max_size=q))
    if p == q + 1:
        z = draw(st.fractions(
            min_value=Fraction(-1, 4), max_value=Fraction(1, 4), max_denominator=100
        ))
    else:
        z = draw(st.fractions(min_value=-30, max_value=30, max_denominator=10))
    # the tolerance lies above the rounding of the returned mpf
    digits = draw(st.integers(min_value=8, max_value=50))
    dps = draw(st.integers(min_value=digits + 3, max_value=digits + 20))
    return HyperSeries(a, b, z), Fraction(1, 10**digits), dps


@settings(max_examples=200, deadline=None)
@given(numeric_series())
def test_numeric_sum_matches_mpmath(case):
    h, tol, dps = case
    with mp.workdps(dps):
        got = eval_hyper(h, tol)
        assert isinstance(got, mp.mpf)
    with mp.workdps(120):
        want = mp.hyper(
            [to_mpf(x) for x in h.a], [to_mpf(x) for x in h.b], to_mpf(h.z)
        )
        assert abs(got - want) <= to_mpf(tol) * (1 + abs(want))


@pytest.mark.parametrize("dps", [15, 50])
def test_terms_that_dip_below_tol_before_a_negative_b(dps):
    # The terms fall to about 2e-14 around k = 5 and grow again past the
    # -b_j, to a sum of 745: two small terms in the dip must not stop the
    # sum, and the dip costs about 16 digits, which at dps 15 only the
    # resum restores.
    h = HyperSeries(
        [Fraction(-9, 5), Fraction(16, 3), Fraction(-1, 3), Fraction(-1, 2)],
        [Fraction(-29, 4), Fraction(-23, 3), Fraction(-53, 3)],
        Fraction(11, 50),
    )
    tol = Fraction(1, 10**12)
    with mp.workdps(dps):
        got = eval_hyper(h, tol)
    with mp.workdps(120):
        want = mp.hyper(
            [to_mpf(x) for x in h.a], [to_mpf(x) for x in h.b], to_mpf(h.z)
        )
        assert abs(want - mp.mpf("745.566")) < 1e-3
        assert abs(got - want) <= to_mpf(tol) * (1 + abs(want))


@pytest.mark.parametrize("x", [-10, -80])
def test_resum_recovers_what_the_first_pass_lost(monkeypatch, x):
    # With no guard bits the first pass of e^x runs at log2(1/tol) bits and
    # its rounding alone exceeds tol; the largest term (about e^|x|) must
    # send the sum to a second pass at a raised precision.
    monkeypatch.setattr(discsemi.hyper, "_GUARD_BITS", 0)
    tol = Fraction(1, 10**30)
    with mp.workdps(15):
        got = eval_hyper(HyperSeries([], [], x), tol)
    with mp.workdps(120):
        assert abs(got - mp.exp(x)) <= to_mpf(tol) * (1 + mp.exp(x))


UNDERFLOW_DIP = HyperSeries(
    [-5 + Fraction(1, 10**40)], [-10 + Fraction(1, 10**40)], 1
)


@pytest.mark.parametrize("dps", [15, 50])
def test_term_that_underflows_in_a_dip(dps):
    # (a)_k carries the factor a + 5 = 1e-40 from k = 6 on, and (b)_k
    # divides it out again at k = 11: at dps 15 the terms in between round
    # to 0, and the sum must be redone at a precision that keeps them.
    tol = Fraction(1, 10**12)
    with mp.workdps(dps):
        got = eval_hyper(UNDERFLOW_DIP, tol)
    with mp.workdps(150):
        a, b = (to_mpf(x) for x in UNDERFLOW_DIP.a + UNDERFLOW_DIP.b)
        want = mp.hyp1f1(a, b, 1)
        assert abs(got - want) <= to_mpf(tol) * abs(want)


def test_term_still_lost_after_the_dip_retry_raises(monkeypatch):
    monkeypatch.setattr(discsemi.hyper, "_dip_depth", lambda *args: 0)
    with mp.workdps(15), pytest.raises(ComputationError, match="underflowed"):
        eval_hyper(UNDERFLOW_DIP, Fraction(1, 10**12))


def test_mpf_integer_parameters_terminate_like_exact_ones():
    # an mpf numerator parameter -5 ends the sum before the pole of -10
    got = eval_hyper(HyperSeries([mp.mpf(-5)], [mp.mpf(-10)], 1))
    assert isinstance(got, mp.mpf)
    assert got == ratio_to_mpf(49171, 30240)  # the exact sum, rounded once
    assert eval_hyper(HyperSeries([-5], [-10], 1)) == Fraction(49171, 30240)
