"""The integer kernels of exact evaluation against the code they replaced.

``Poly.__call__``, ``Poly.shift``, the ``Poly`` ring operations and
``weight_at`` clear denominators and work on integers.  Each is compared here with the ``Fraction`` arithmetic
it replaced, kept below as the reference: values must be equal and every
value or coefficient must have the same type (an ``int`` stays an ``int``,
a ``Fraction(n, 1)`` stays a ``Fraction``).
"""

from __future__ import annotations

import math
from fractions import Fraction

from hypothesis import assume, given, strategies as st

from discsemi.combin import pochhammer
from discsemi.functional import FunctionalSpec, Support, weight_at
from discsemi.polys import Poly
from discsemi.scalars import is_exact, is_nonpos_integer


def exact_div(x, y):
    """``x / y``, a ``Fraction`` when both are exact (plain ``/`` on two
    ints gives a float), else the mpf quotient."""
    if is_exact(x) and is_exact(y):
        return Fraction(x) / Fraction(y)
    return x / y


def pochhammer_multi(params, n: int):
    """Product of rising factorials ``prod_i (p_i)_n`` over a parameter list."""
    result = 1
    for p in params:
        result = result * pochhammer(p, n)
    return result


def horner(p: Poly, x):
    """``p(x)`` by Horner's rule in plain scalar arithmetic."""
    result = 0
    for c in reversed(p.coeffs):
        result = result * x + c
    return result


def loop_product(p: Poly, q: Poly) -> Poly:
    """``p q`` by the schoolbook loop in plain scalar arithmetic."""
    if not p.coeffs or not q.coeffs:
        return Poly()
    out = [0] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] = out[i + j] + a * b
    return Poly(out)


def loop_sum(p: Poly, q: Poly) -> Poly:
    """``p + q`` coefficient by coefficient in plain scalar arithmetic."""
    return Poly([p.coeff(i) + q.coeff(i) for i in range(max(len(p.coeffs), len(q.coeffs)))])


def composed_shift(p: Poly, h) -> Poly:
    """``p(x + h)`` as the composition ``p(Poly((h, 1)))`` by Horner's rule."""
    if h == 0:
        return p
    result = Poly.zero()
    for c in reversed(p.coeffs):
        result = result * Poly((h, 1)) + c
    return result


def reference_weight(spec: FunctionalSpec, x) -> Fraction:
    """``scale (a)_u z^u / ((b+1)_u u!)`` at the stored index u of x."""
    u = spec.support_index(x)
    den = pochhammer_multi([bj + 1 for bj in spec.b], u) * math.factorial(u)
    return exact_div(spec.scale * pochhammer_multi(spec.a, u) * spec.z**u, den)


def typed(values):
    return [(type(v), v) for v in values]


#: ints, integral Fractions (zero among them), and proper fractions
exact = st.one_of(
    st.integers(-7, 7),
    st.integers(-7, 7).map(Fraction),
    st.fractions(min_value=-7, max_value=7, max_denominator=12),
)
polys = st.lists(exact, max_size=7).map(Poly)


@given(polys, exact)
def test_evaluation_matches_horner_in_value_and_type(p, x):
    got, want = p(x), horner(p, x)
    assert (type(got), got) == (type(want), want)


@given(polys, exact)
def test_shift_matches_composition_in_value_and_type(p, h):
    assert typed(p.shift(h).coeffs) == typed(composed_shift(p, h).coeffs)


@given(polys, polys)
def test_ring_matches_the_scalar_loops_in_value_and_type(p, q):
    assert typed((p * q).coeffs) == typed(loop_product(p, q).coeffs)
    assert typed((p + q).coeffs) == typed(loop_sum(p, q).coeffs)
    assert typed((p - q).coeffs) == typed(loop_sum(p, -q).coeffs)


@st.composite
def specs(draw):
    a = draw(st.lists(exact, max_size=3))
    # no denominator parameter with b + 1 a nonpositive integer: no poles
    b = [bj for bj in draw(st.lists(exact, max_size=2)) if not is_nonpos_integer(bj + 1)]
    z = draw(exact.filter(lambda v: v != 0))
    scale = draw(exact)
    kind = draw(st.sampled_from(("infinite", "truncated", "symmetrized_shift")))
    if kind == "truncated":
        N = draw(st.integers(0, 8))
        assume(all(ai + N != 0 for ai in a))
        support = Support.truncated(N)
    elif kind == "symmetrized_shift":
        m = draw(st.integers(1, 3))
        a = a + [-2 * m]
        support = Support.symmetrized_shift(m)
    else:
        support = Support.infinite()
    return FunctionalSpec(a=a, b=b, z=z, scale=scale, support=support)


@given(specs())
def test_weight_matches_the_pochhammer_formula_in_value_and_type(spec):
    upper = spec.weight_upper_bound()
    lo = -spec.basis_shift
    hi = lo + (8 if upper is None else min(upper, 8))
    points = list(range(lo, hi + 1)) + [Fraction(hi)]
    assert typed(weight_at(spec, x) for x in points) == typed(
        reference_weight(spec, x) for x in points
    )


def test_pochhammer_multi_is_product_of_pochhammers():
    params = [Fraction(1, 2), Fraction(-3), 2]
    assert pochhammer_multi(params, 3) == (
        pochhammer(Fraction(1, 2), 3) * pochhammer(Fraction(-3), 3) * pochhammer(2, 3)
    )
    assert pochhammer_multi([], 5) == 1
    assert pochhammer_multi(params, 0) == 1
