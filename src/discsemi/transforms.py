"""Spectral transformations of functionals at the specification level.

Five operations act on a :class:`~discsemi.functional.FunctionalSpec`:

* **Uvarov** — add a point mass M at omega.
* **Christoffel** — multiply by (x - omega).  In hypergeometric form the
  numerator list gains ``1 - omega``, the denominator list gains
  ``-omega - 1`` and the scale picks up ``-omega``; existing masses are
  rescaled by (omega_i - omega).
* **Geronimus** — divide by (x - omega), which introduces one free Dirac
  coefficient M at omega; the new zeroth moment is M - S(omega).
* **Truncation** — cut the support at N.
* **Symmetrization** — build the even-window weight on {-m..m} whose
  one-sided reading reuses the family's parameter lists.

The first four copy the spec with :func:`dataclasses.replace`, naming
only the fields their rule changes.

Christoffel and Geronimus insert parameters that frequently cancel against
existing ones (a numerator entry equal to a denominator entry plus one
contributes the factor 1); :func:`canonicalize` removes such pairs, and the
composition laws then hold *exactly* at the spec level: a Geronimus step
followed by a Christoffel step at the same omega returns the original
spec, and Christoffel followed by Geronimus returns the Uvarov-extended
spec.

:func:`apply_transform` takes a transformation in its JSON form,
``{"kind": "geronimus", "omega": "-1/2", "M": 3}``; :data:`TRANSFORMS`
lists each kind's fields.  The CLI passes its input through unchanged, and
the catalog passes the evaluated fields of a subcase's build.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

from .errors import (
    ConstraintViolated,
    DegenerateSymmetrization,
    InputError,
    PoleAtSupportPoint,
    RegularityViolation,
)
from .functional import (
    FunctionalSpec,
    Mass,
    Support,
    moments,
)
from .scalars import (
    DEFAULT_TOL,
    Scalar,
    agree,
    difference,
    dot,
    max_error,
    parse_rational,
)


# ---------------------------------------------------------------------------
# canonical form


def canonicalize(spec: FunctionalSpec) -> FunctionalSpec:
    """Cancel numerator/denominator pairs with a_i = b_j + 1.

    Such a pair contributes ``(b_j + 1)_x / (b_j + 1)_x = 1`` to the weight,
    so removing it leaves the functional untouched while reducing the
    hypergeometric order.  This is what makes transformation compositions
    land exactly back on familiar parameter lists.  A pair with a_i = -k <= 0
    is 0/0 past x = k: none goes when that would move the weight's end.
    """
    a_left, b_left = [], list(spec.b)
    for ai in spec.a:  # each a_i cancels the first remaining b_j = a_i - 1
        j = next((j for j, bj in enumerate(b_left) if ai == bj + 1), None)
        if j is None:
            a_left.append(ai)
        else:
            del b_left[j]
    if len(a_left) == len(spec.a):
        return spec
    out = replace(spec, a=tuple(a_left), b=tuple(b_left))
    return out if out.weight_upper_bound() == spec.weight_upper_bound() else spec


def _reject_window(spec: FunctionalSpec, what: str):
    if spec.support.kind == "symmetrized_shift":
        raise ConstraintViolated(
            f"{what} is not supported on a symmetric-window spec; transform "
            f"the one-sided reading and re-symmetrize"
        )


# ---------------------------------------------------------------------------
# the five transformations


def apply_uvarov(
    spec: FunctionalSpec, omega: Scalar, M: Scalar, tol: Scalar = DEFAULT_TOL
) -> FunctionalSpec:
    """Append the point mass M at omega.

    Moments shift by ``M * phi_n(omega)``.  Regularity requires the new
    total mass nu_0 + M to stay away from zero.
    """
    mass = Mass(omega, M)
    if agree(M, -moments(spec, 0, tol)[0], tol)[1]:
        raise RegularityViolation(
            "adding this mass makes the total mass nu_0 + M vanish"
        )
    return replace(spec, masses=spec.masses + (mass,))


def apply_christoffel(
    spec: FunctionalSpec, omega: Scalar, tol: Scalar = DEFAULT_TOL
) -> FunctionalSpec:
    """Multiply the functional by (x - omega).

    The new moments satisfy ``nu_n' = nu_{n+1} + (n - omega) nu_n``.
    Omega must avoid the support (otherwise the multiplied weight leaves
    the hypergeometric class) and must keep the new functional regular:
    L[x - omega] = nu_1 - omega nu_0 != 0.
    """
    _reject_window(spec, "a Christoffel step")
    if spec.support_index(omega) is not None:
        raise ConstraintViolated(
            f"omega = {omega} lies on the support; the multiplied weight "
            f"degenerates there"
        )
    return _christoffel(spec, omega, moments(spec, 1, tol), tol)


def _christoffel(spec, omega, table, tol) -> FunctionalSpec:
    """:func:`apply_christoffel` past its point checks, with nu_0 and nu_1
    read from ``table``, the spec's own."""
    if agree(table[1], dot((omega,), (table[0],)), tol)[1]:
        raise RegularityViolation(
            "nu_1 - omega nu_0 = 0: the multiplied functional is not regular"
        )
    masses = []
    for mass in spec.masses:
        weight = mass.M * (mass.omega - omega)
        if weight != 0:
            masses.append(Mass(mass.omega, weight))
    return canonicalize(
        replace(
            spec,
            a=spec.a + (1 - omega,),
            b=spec.b + (-omega - 1,),
            scale=spec.scale * -omega,
            masses=tuple(masses),
        )
    )


def apply_geronimus(
    spec: FunctionalSpec, omega: Scalar, M: Scalar, tol: Scalar = DEFAULT_TOL
) -> FunctionalSpec:
    """Divide the functional by (x - omega); M is the free Dirac coefficient.

    The new moments satisfy ``nu_n = nu_{n+1}' + (n - omega) nu_n'`` with
    ``nu_0' = M - S(omega)``, which must not vanish; the test reads nu_0'
    from the divided spec's own table.  The weight part of the result
    divides the old weight by (x - omega) exactly, and the mass (omega, M)
    rides along; both sigma and eta of the new pair vanish at omega, so the
    pair absorbs the mass without extra factors.  Omega must lie off the
    support lattice, whatever the scale (``ConstraintViolated``), and off
    the masses, where S has a pole (``PoleAtSupportPoint``).
    """
    divided = _divided(spec, omega, M)
    _regular(M, moments(divided, 0, tol), tol)
    return divided


def _divided(spec, omega, M) -> FunctionalSpec:
    """:func:`apply_geronimus`'s spec rule and point checks, with no sum."""
    _reject_window(spec, "a Geronimus step")
    if spec.support_index(omega) is not None:
        raise ConstraintViolated(
            f"the division point must lie off the support lattice "
            f"(omega = {omega} is a support point)"
        )
    added = Mass(omega, M)
    if any(mass.omega == omega for mass in spec.merged_masses()):
        raise PoleAtSupportPoint(f"omega = {omega} is a mass point of the functional")
    # masses left at omega sum to zero (a nonzero sum, a pole of S, raised above)
    masses = [
        Mass(mass.omega, Fraction(mass.M, mass.omega - omega))
        for mass in spec.masses
        if mass.omega != omega
    ]
    masses.append(added)
    return canonicalize(
        replace(
            spec,
            a=spec.a + (-omega,),
            b=spec.b + (-omega,),
            scale=spec.scale * Fraction(-1, omega),
            masses=tuple(masses),
        )
    )


def _regular(M, values, tol) -> None:
    """Raise unless nu_0' = ``values[0]`` of a divided functional is nonzero."""
    if agree(M, difference(M, values[0]), tol)[1]:  # S(omega) = M - nu_0'
        raise RegularityViolation("M - S(omega) = 0: the divided functional is not regular")


def apply_truncation(spec: FunctionalSpec, N: int) -> FunctionalSpec:
    """Cut the support at N (keep x = 0..N only)."""
    support = Support.truncated(N)
    if spec.support.kind != "infinite":
        raise ConstraintViolated(
            "truncation applies to a spec with untruncated support"
        )
    return replace(spec, support=support)


def apply_symmetrization(spec: FunctionalSpec, m: int) -> FunctionalSpec:
    """Build the symmetric-window weight on {-m..m} induced by the family.

    The one-sided reading on 0..2m reuses the parameter lists: with
    N = 2m, the numerator gains -N (unless the weight already terminates
    exactly there) and the mirrored offsets -N-b_j, the denominator gains
    the mirrored offsets -N-a_i, and the argument is forced to
    z0 = (-1)^(p+q+1).  The result is normalized so the weight is 1 at the
    left window endpoint.
    """
    support = Support.symmetrized_shift(m)
    if spec.support.kind != "infinite":
        raise ConstraintViolated(
            "symmetrization applies to a spec with untruncated support"
        )
    if spec.masses:
        raise ConstraintViolated("symmetrization requires a mass-free spec")
    N = 2 * m
    p, q = len(spec.a), len(spec.b)
    z0 = (-1) ** (p + q + 1)
    mirrored_b = tuple(-N - ai for ai in spec.a if ai + N != 0)
    if any(ai + N == 0 for ai in spec.a):
        # the weight terminates exactly at 2m: keep its own -N entry
        a2 = spec.a + tuple(-N - bj for bj in spec.b)
    else:
        a2 = spec.a + (-N,) + tuple(-N - bj for bj in spec.b)
    out = FunctionalSpec(
        a=a2,
        b=spec.b + mirrored_b,
        z=z0,
        support=support,
    )
    if moments(out, 0).degenerate:
        raise DegenerateSymmetrization(
            "every moment of the symmetrized functional vanishes"
        )
    return out


#: Each transformation kind and its fields, in the order its ``apply_*``
#: function takes them.  ``N`` and ``m`` are integers, which
#: :class:`~discsemi.functional.Support` checks; the rest are rationals.
TRANSFORMS = {
    "uvarov": ("omega", "M"),
    "christoffel": ("omega",),
    "geronimus": ("omega", "M"),
    "truncate": ("N",),
    "symmetrize": ("m",),
}


def apply_transform(
    spec: FunctionalSpec, data: object, tol: Scalar = DEFAULT_TOL
) -> FunctionalSpec:
    """Apply the transformation ``{"kind": ..., <fields>}``.

    The kinds and their fields are those of :data:`TRANSFORMS`, as in the
    CLI's JSON: rationals as numbers or ``"p/q"`` strings, ``N`` and ``m``
    as JSON integers.  Raises ``InputError`` for an unknown kind, a missing
    or extra field, or a bad value.
    """
    if not isinstance(data, dict) or "kind" not in data:
        raise InputError("a transformation must be an object with a 'kind'")
    kind = data["kind"]
    if kind not in TRANSFORMS:
        raise InputError(
            f"unknown transformation kind {kind!r}; expected one of "
            f"{', '.join(sorted(TRANSFORMS))}"
        )
    fields = TRANSFORMS[kind]
    extras = set(data) - {"kind", *fields}
    if extras:
        raise InputError(f"unknown fields for {kind}: {sorted(extras)}")
    missing = [f for f in fields if f not in data]
    if missing:
        raise InputError(f"{kind} needs field(s): {', '.join(missing)}")
    args = [
        data[name] if name in ("N", "m") else parse_rational(data[name])
        for name in fields
    ]
    if kind == "uvarov":
        return apply_uvarov(spec, *args, tol)
    if kind == "christoffel":
        return apply_christoffel(spec, *args, tol)
    if kind == "geronimus":
        return apply_geronimus(spec, *args, tol)
    if kind == "truncate":
        return apply_truncation(spec, *args)
    return apply_symmetrization(spec, *args)


# ---------------------------------------------------------------------------
# composition laws


def compose_check(
    spec: FunctionalSpec, omega: Scalar, M: Scalar, tol: Scalar = DEFAULT_TOL
) -> dict:
    """Check the two composition laws through the moments nu_0..nu_9.

    Dividing and then multiplying by (x - omega) recovers the original
    functional; multiplying and then dividing recovers the original plus
    the mass M at omega.  Both hold exactly at the spec level thanks to
    parameter cancellation, and a law that lands verbatim on its spec reads
    its table off the spec's, so two tables are summed: the spec's and the
    divided spec's, whose nu_0' is the Geronimus test.
    """
    K = 9
    report: dict = {"pass": True}

    def compare(label, got_spec, got_values, expected_values):
        worst, ok_all = max_error(zip(got_values, expected_values), tol)
        report[label] = {
            "spec": got_spec.to_json(),
            "max_error": worst,
            "pass": ok_all,
        }
        report["pass"] = report["pass"] and ok_all

    # the base table also serves the regularity tests on spec itself
    base = moments(spec, K, tol)
    # one table of the divided spec serves its Geronimus and Christoffel
    # tests; _divided checked omega against spec's lattice, which is g_spec's
    g_spec = _divided(spec, omega, M)
    table = moments(g_spec, 1, tol)
    _regular(M, table, tol)
    back = _christoffel(g_spec, omega, table, tol)
    # moments are a function of the spec, so a restored spec reuses the table
    got = base.values if back == spec else moments(back, K, tol).values
    compare("divide_then_multiply", back, got, base.values)

    c_spec = _christoffel(spec, omega, base, tol)
    gc_spec = _divided(c_spec, omega, M)
    shift = spec.basis_shift
    expected, falling = [], 1  # falling = phi_n(omega + shift), a running product
    for n in range(K + 1):
        expected.append(dot((1, M), (base[n], falling)))
        falling *= omega + shift - n
    law = replace(spec, masses=spec.masses + (Mass(omega, M),))
    got = expected if gc_spec == law else moments(gc_spec, K, tol).values
    _regular(M, got, tol)
    compare("multiply_then_divide", gc_spec, got, expected)
    report["round_trip_exact"] = (
        back.to_json() == spec.to_json() and gc_spec.to_json() == law.to_json()
    )
    return report
