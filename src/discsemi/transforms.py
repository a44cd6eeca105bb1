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

from typing import Optional

from .errors import (
    ConstraintViolated,
    DegenerateSymmetrization,
    InputError,
    PoleAtSupportPoint,
    RegularityViolation,
    TruncationAtEtaRoot,
)
from .functional import (
    FunctionalSpec,
    Mass,
    MomentTable,
    Support,
    moments,
    stieltjes_eval,
)
from .combin import falling_factorial
from .polys import poly_from_root_offsets
from .scalars import (
    DEFAULT_TOL,
    Scalar,
    agree,
    exact_div,
    is_exact,
    is_nonneg_integer,
    parse_rational,
    scalar_is_zero,
    to_mpf,
)


# ---------------------------------------------------------------------------
# canonical form


def canonicalize(spec: FunctionalSpec) -> FunctionalSpec:
    """Cancel numerator/denominator pairs with a_i = b_j + 1.

    Such a pair contributes ``(b_j + 1)_x / (b_j + 1)_x = 1`` to the weight,
    so removing it leaves the functional untouched while reducing the
    hypergeometric order.  This is what makes transformation compositions
    land exactly back on familiar parameter lists.
    """
    a_left = list(spec.a)
    b_left = list(spec.b)
    changed = True
    while changed:
        changed = False
        for i, ai in enumerate(a_left):
            for j, bj in enumerate(b_left):
                if is_exact(ai) and is_exact(bj) and scalar_is_zero(ai - bj - 1):
                    del a_left[i]
                    del b_left[j]
                    changed = True
                    break
            if changed:
                break
    if len(a_left) == len(spec.a):
        return spec
    return FunctionalSpec(
        a=tuple(a_left),
        b=tuple(b_left),
        z=spec.z,
        scale=spec.scale,
        support=spec.support,
        masses=spec.masses,
    )


def _reject_window(spec: FunctionalSpec, what: str):
    if spec.support.kind == "symmetrized_shift":
        raise ConstraintViolated(
            f"{what} is not supported on a symmetric-window spec; transform "
            f"the one-sided reading and re-symmetrize"
        )


def _support_integer(spec: FunctionalSpec, omega) -> bool:
    """Whether omega lands on a potential support point of the weight."""
    shift = spec.basis_shift
    if not is_nonneg_integer(omega + shift):
        return False
    upper = spec.weight_upper_bound()
    if upper is None:
        return True
    return omega + shift <= upper


def _is_zero_tol(value, reference, tol) -> bool:
    if is_exact(value):
        return scalar_is_zero(value)
    return abs(to_mpf(value)) <= to_mpf(tol) * (1 + abs(to_mpf(reference)))


# ---------------------------------------------------------------------------
# the five transformations


def apply_uvarov(
    spec: FunctionalSpec, omega: Scalar, M: Scalar, tol: Scalar = DEFAULT_TOL
) -> FunctionalSpec:
    """Append the point mass M at omega.

    Moments shift by ``M * phi_n(omega)``.  Regularity requires the new
    total mass nu_0 + M to stay away from zero.
    """
    nu0 = moments(spec, 0, tol)[0]
    if _is_zero_tol(nu0 + M, nu0, tol):
        raise RegularityViolation(
            "adding this mass makes the total mass nu_0 + M vanish"
        )
    return FunctionalSpec(
        a=spec.a,
        b=spec.b,
        z=spec.z,
        scale=spec.scale,
        support=spec.support,
        masses=spec.masses + (Mass(omega, M),),
    )


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
    if _support_integer(spec, omega):
        raise ConstraintViolated(
            f"omega = {omega} lies on the support; the multiplied weight "
            f"degenerates there"
        )
    table = moments(spec, 1, tol)
    new_nu0 = table[1] - omega * table[0]
    if _is_zero_tol(new_nu0, table[0], tol):
        raise RegularityViolation(
            "nu_1 - omega nu_0 = 0: the multiplied functional is not regular"
        )
    masses = []
    for mass in spec.masses:
        weight = mass.M * (mass.omega - omega)
        if not scalar_is_zero(weight):
            masses.append(Mass(mass.omega, weight))
    return canonicalize(
        FunctionalSpec(
            a=spec.a + (1 - omega,),
            b=spec.b + (-omega - 1,),
            z=spec.z,
            scale=spec.scale * -omega,
            support=spec.support,
            masses=tuple(masses),
        )
    )


def apply_geronimus(
    spec: FunctionalSpec,
    omega: Scalar,
    M: Scalar,
    tol: Scalar = DEFAULT_TOL,
    K: int = 12,
) -> tuple[FunctionalSpec, MomentTable]:
    """Divide the functional by (x - omega); M is the free Dirac coefficient.

    Returns the transformed spec together with its first K+1 moments,
    computed from the base moments through the solved recurrence

        nu_n' = phi_n(omega) [ nu_0' + sum_{k<n} nu_k / phi_{k+1}(omega) ],

    with ``nu_0' = M - S(omega)``.  The weight part of the result divides
    the old weight by (x - omega) exactly, and the mass (omega, M) rides
    along; both sigma and eta of the new pair vanish at omega, so the pair
    absorbs the mass without extra factors.
    """
    _reject_window(spec, "a Geronimus step")
    try:
        S_omega = stieltjes_eval(spec, omega, tol)
    except PoleAtSupportPoint:
        raise ConstraintViolated(
            f"the division point must lie off the support lattice "
            f"(omega = {omega} is a support point)"
        ) from None
    # Fraction - mpf raises; the negated difference rounds the same
    nu0_g = -(S_omega - M) if is_exact(M) else M - S_omega
    if _is_zero_tol(nu0_g, S_omega, tol):
        raise RegularityViolation(
            "M - S(omega) = 0: the divided functional is not regular"
        )
    base = moments(spec, max(K - 1, 0), tol)
    values = [nu0_g]
    acc = nu0_g
    for n in range(1, K + 1):
        acc = acc + exact_div(base[n - 1], falling_factorial(omega, n))
        values.append(falling_factorial(omega, n) * acc)
    masses = []
    for mass in spec.masses:
        masses.append(Mass(mass.omega, exact_div(mass.M, mass.omega - omega)))
    masses.append(Mass(omega, M))
    out = canonicalize(
        FunctionalSpec(
            a=spec.a + (-omega,),
            b=spec.b + (-omega,),
            z=spec.z,
            scale=spec.scale * exact_div(-1, omega),
            support=spec.support,
            masses=tuple(masses),
        )
    )
    return out, MomentTable(values, basis_shift=spec.basis_shift)


def apply_truncation(spec: FunctionalSpec, N: int) -> FunctionalSpec:
    """Cut the support at N (keep x = 0..N only)."""
    support = Support.truncated(N)
    if spec.support.kind != "infinite":
        raise ConstraintViolated(
            "truncation applies to a spec with untruncated support"
        )
    eta = poly_from_root_offsets(spec.a, leading=spec.z)
    if scalar_is_zero(eta(N)):
        raise TruncationAtEtaRoot(
            f"truncation at N = {N} is not allowed: the weight already "
            f"vanishes beyond N (eta(N) = 0)"
        )
    return FunctionalSpec(
        a=spec.a,
        b=spec.b,
        z=spec.z,
        scale=spec.scale,
        support=support,
        masses=spec.masses,
    )


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
    eta = poly_from_root_offsets(spec.a, leading=spec.z)
    mirrored_b = tuple(-N - ai for ai in spec.a if not scalar_is_zero(ai + N))
    if scalar_is_zero(eta(N)):
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
    spec: FunctionalSpec,
    data: object,
    tol: Scalar = DEFAULT_TOL,
    K: int = 12,
) -> tuple[FunctionalSpec, Optional[MomentTable]]:
    """Apply the transformation ``{"kind": ..., <fields>}``.

    The kinds and their fields are those of :data:`TRANSFORMS`, as in the
    CLI's JSON: rationals as numbers or ``"p/q"`` strings, ``N`` and ``m``
    as JSON integers.  Raises ``InputError`` for an unknown kind, a missing
    or extra field, or a bad value.  Geronimus also yields the moments
    nu_0..nu_K of the result; the other kinds yield ``None`` there.
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
        return apply_uvarov(spec, *args, tol), None
    if kind == "christoffel":
        return apply_christoffel(spec, *args, tol), None
    if kind == "geronimus":
        return apply_geronimus(spec, *args, tol, K)
    if kind == "truncate":
        return apply_truncation(spec, *args), None
    return apply_symmetrization(spec, *args), None


# ---------------------------------------------------------------------------
# composition laws


def compose_check(
    spec: FunctionalSpec,
    omega: Scalar,
    M: Scalar,
    tol: Scalar = DEFAULT_TOL,
    n_moments: int = 10,
) -> dict:
    """Check the two composition laws through the first moments.

    Dividing and then multiplying by (x - omega) recovers the original
    functional; multiplying and then dividing recovers the original plus
    the mass M at omega.  Both hold exactly at the spec level thanks to
    parameter cancellation; this reports the moment-level comparison.
    """
    K = n_moments - 1
    report: dict = {"pass": True}

    def compare(label, got_spec, expected_values):
        got = moments(got_spec, K, tol)
        worst = 0
        ok_all = True
        for n in range(K + 1):
            err, ok = agree(got[n], expected_values[n], tol)
            worst = max(worst, err)
            ok_all = ok_all and ok
        report[label] = {
            "spec": got_spec.to_json(),
            "max_error": worst,
            "pass": ok_all,
        }
        report["pass"] = report["pass"] and ok_all

    base = moments(spec, K, tol)
    g_spec, _ = apply_geronimus(spec, omega, M, tol, K)
    back = apply_christoffel(g_spec, omega, tol)
    compare("divide_then_multiply", back, list(base.values))

    c_spec = apply_christoffel(spec, omega, tol)
    gc_spec, _ = apply_geronimus(c_spec, omega, M, tol, K)
    shift = spec.basis_shift
    expected = [
        base[n] + M * falling_factorial(omega + shift, n) for n in range(K + 1)
    ]
    compare("multiply_then_divide", gc_spec, expected)
    report["round_trip_exact"] = (
        back.to_json() == spec.to_json()
        and gc_spec.to_json()
        == apply_uvarov(spec, omega, M, tol).to_json()
    )
    return report
