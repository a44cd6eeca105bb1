"""Discrete semiclassical linear functionals on the nonnegative integers.

A functional is determined by a hypergeometric-type weight

    rho(x) = scale * (a_1)_x ... (a_p)_x / [(b_1+1)_x ... (b_q+1)_x] * z^x / x!

supported on N_0 (possibly truncated to {0..N}, or recentred to the
symmetric window {-m..m}), plus an optional list of point masses
``M_i * delta(x - omega_i)``.  The weight satisfies a first-order Pearson
difference equation

    rho(x+1) * sigma(x+1) = rho(x) * eta(x)

with ``eta(x) = z * prod(x + a_i)`` and ``sigma(x) = x * prod(x + b_j)``;
truncation and point masses contribute extra linear factors to the pair.
The degree excess of the pair over the classical case is the *class* of the
functional, computed here both from the (p, q, z) case table and from the
direct degree formula as a cross-check.

Moments are taken against the falling-factorial basis
``phi_n(x) = x (x-1) ... (x-n+1)`` (shifted by ``m`` for symmetric
windows), where they reduce to single hypergeometric values.  The Stieltjes
transform ``S(t) = L[1/(t-x)]`` is one more such value: the finite-sum
kernel of :mod:`discsemi.hyper` sums it exactly for a finite weight, and
its fixed-point kernel sums it numerically for an infinite one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .combin import falling_factorial, pochhammer_multi
from .errors import (
    ConstraintViolated,
    DegreeMismatch,
    InputError,
    OutOfSupport,
    PoleAtSupportPoint,
    PoleInDenominator,
    TruncationAtEtaRoot,
)
from .hyper import (
    HyperSeries,
    eval_hyper,
    eval_hyper_finite_sum,
    termination_degree,
)
from .polys import Poly, falling_coeffs, poly_from_root_offsets
from .scalars import (
    DEFAULT_TOL,
    Scalar,
    exact_div,
    is_exact,
    is_integer,
    parse_rational,
    scalar_is_zero,
    scalar_to_json,
    to_mpf,
)

SUPPORT_KINDS = ("infinite", "truncated", "symmetrized_shift")


@dataclass(frozen=True)
class Support:
    """Where the weight lives.

    * ``infinite`` -- all of N_0 (the weight may still terminate on its own
      when some numerator parameter is a nonpositive integer).
    * ``truncated`` -- {0..N} by an explicit indicator.
    * ``symmetrized_shift`` -- the symmetric window {-m..m}; the stored
      parameters describe the weight re-indexed to {0..2m}, and moments use
      the shifted falling basis ``phi_n(x + m)``.
    """

    kind: str = "infinite"
    N: Optional[int] = None
    m: Optional[int] = None

    def __post_init__(self):
        if self.kind not in SUPPORT_KINDS:
            raise InputError(
                f"unknown support kind {self.kind!r}; expected one of "
                f"{', '.join(SUPPORT_KINDS)}"
            )
        if self.kind == "truncated":
            if not isinstance(self.N, int) or isinstance(self.N, bool) or self.N < 0:
                raise InputError("truncated support needs an integer N >= 0")
        elif self.N is not None:
            raise InputError("N is only meaningful for truncated support")
        if self.kind == "symmetrized_shift":
            if not isinstance(self.m, int) or isinstance(self.m, bool) or self.m < 1:
                raise InputError("symmetrized support needs an integer m >= 1")
        elif self.m is not None:
            raise InputError("m is only meaningful for symmetrized support")

    @classmethod
    def infinite(cls) -> "Support":
        return cls("infinite")

    @classmethod
    def truncated(cls, N: int) -> "Support":
        return cls("truncated", N=N)

    @classmethod
    def symmetrized_shift(cls, m: int) -> "Support":
        return cls("symmetrized_shift", m=m)

    @property
    def shift(self) -> int:
        """Offset between the natural variable and the stored N_0 weight."""
        return self.m if self.kind == "symmetrized_shift" else 0

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind == "truncated":
            out["N"] = self.N
        if self.kind == "symmetrized_shift":
            out["m"] = self.m
        return out

    @classmethod
    def from_json(cls, data: object) -> "Support":
        if not isinstance(data, dict) or "kind" not in data:
            raise InputError("support must be an object with a 'kind' field")
        kind = data["kind"]
        extras = set(data) - {"kind", "N", "m"}
        if extras:
            raise InputError(f"unknown support fields: {sorted(extras)}")
        if kind == "truncated":
            if "N" not in data:
                raise InputError("truncated support needs 'N'")
            return cls("truncated", N=data["N"])
        if kind == "symmetrized_shift":
            if "m" not in data:
                raise InputError("symmetrized support needs 'm'")
            return cls("symmetrized_shift", m=data["m"])
        return cls(kind)


@dataclass(frozen=True)
class Mass:
    """A point mass ``M * delta(x - omega)`` added to the functional."""

    omega: Scalar
    M: Scalar

    def to_json(self) -> dict:
        return {"omega": scalar_to_json(self.omega), "M": scalar_to_json(self.M)}

    @classmethod
    def from_json(cls, data: object) -> "Mass":
        if not isinstance(data, dict) or set(data) != {"omega", "M"}:
            raise InputError("each mass must be an object with 'omega' and 'M'")
        return cls(parse_rational(data["omega"]), parse_rational(data["M"]))


@dataclass(frozen=True)
class FunctionalSpec:
    """Full description of a discrete semiclassical functional."""

    a: tuple = ()
    b: tuple = ()
    z: Scalar = 1
    scale: Scalar = 1
    support: Support = field(default_factory=Support.infinite)
    masses: tuple = ()

    def __init__(
        self,
        a: Sequence = (),
        b: Sequence = (),
        z: Scalar = 1,
        scale: Scalar = 1,
        support: Support | None = None,
        masses: Sequence[Mass] = (),
    ):
        object.__setattr__(self, "a", tuple(a))
        object.__setattr__(self, "b", tuple(b))
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "support", support or Support.infinite())
        object.__setattr__(self, "masses", tuple(masses))
        if scalar_is_zero(self.z):
            raise InputError("the argument z must be nonzero")
        if self.support.kind == "symmetrized_shift":
            # the Pearson pair only describes the window when the weight
            # itself stops there: eta(2m) = z * prod(2m + a_i) = 0
            two_m = 2 * self.support.m
            if not any(scalar_is_zero(ai + two_m) for ai in self.a):
                raise ConstraintViolated(
                    f"a symmetric window {{-m..m}} with m = {self.support.m} "
                    f"needs a numerator parameter equal to -2m = {-two_m}, "
                    f"so that the weight vanishes beyond the window (eta(2m) = 0)"
                )

    # -- bookkeeping ---------------------------------------------------------

    @property
    def basis_shift(self) -> int:
        return self.support.shift

    def merged_masses(self) -> list[Mass]:
        """Masses with equal points combined and zero masses dropped."""
        merged: list[Mass] = []
        for mass in self.masses:
            for i, seen in enumerate(merged):
                if scalar_is_zero(seen.omega - mass.omega):
                    merged[i] = Mass(seen.omega, seen.M + mass.M)
                    break
            else:
                merged.append(mass)
        return [mass for mass in merged if not scalar_is_zero(mass.M)]

    def weight_upper_bound(self) -> Optional[int]:
        """Largest index of the stored N_0 weight that can be nonzero.

        ``None`` means the weight extends to infinity.  For the symmetric
        window this is ``2m``; for truncated support, ``N``; otherwise the
        self-termination degree of the numerator parameters, if any.
        """
        term = termination_degree(self.a)
        if self.support.kind == "truncated":
            return self.support.N if term is None else min(self.support.N, term)
        if self.support.kind == "symmetrized_shift":
            cap = 2 * self.support.m
            return cap if term is None else min(cap, term)
        return term

    # -- JSON ------------------------------------------------------------------

    def to_json(self) -> dict:
        out: dict = {
            "a": [scalar_to_json(x) for x in self.a],
            "b": [scalar_to_json(x) for x in self.b],
            "z": scalar_to_json(self.z),
        }
        if not scalar_is_zero(self.scale - 1):
            out["scale"] = scalar_to_json(self.scale)
        out["support"] = self.support.to_json()
        out["masses"] = [mass.to_json() for mass in self.masses]
        return out

    @classmethod
    def from_json(cls, data: object) -> "FunctionalSpec":
        if not isinstance(data, dict):
            raise InputError("a functional spec must be a JSON object")
        extras = set(data) - {"a", "b", "z", "scale", "support", "masses"}
        if extras:
            raise InputError(f"unknown spec fields: {sorted(extras)}")
        if "z" not in data:
            raise InputError("a functional spec needs 'z'")
        raw_a = data.get("a", [])
        raw_b = data.get("b", [])
        if not isinstance(raw_a, list) or not isinstance(raw_b, list):
            raise InputError("'a' and 'b' must be lists of rationals")
        support = (
            Support.from_json(data["support"]) if "support" in data else Support.infinite()
        )
        raw_masses = data.get("masses", [])
        if not isinstance(raw_masses, list):
            raise InputError("'masses' must be a list")
        return cls(
            a=[parse_rational(x) for x in raw_a],
            b=[parse_rational(x) for x in raw_b],
            z=parse_rational(data["z"]),
            scale=parse_rational(data.get("scale", 1)),
            support=support,
            masses=[Mass.from_json(m) for m in raw_masses],
        )


@dataclass(frozen=True)
class PearsonPair:
    """The polynomials of the first-order difference equation of the weight,

        rho(x+1) * sigma(x+1) = rho(x) * eta(x),

    together with the class of the functional they define."""

    eta: Poly
    sigma: Poly
    class_s: int

    @property
    def sigma_shift(self) -> Poly:
        """``sigma(x+1)`` -- the form in which sigma enters most formulas."""
        return self.sigma.shift(1)


@dataclass(frozen=True)
class MomentTable:
    """Moments ``nu_n = L[phi_n(x + basis_shift)]`` for n = 0..K.

    ``basis_shift`` is 0 on N_0 and ``m`` on the symmetric window, where the
    natural basis is the shifted falling factorial.  ``exact[n]`` records
    whether entry n was computed in exact rational arithmetic.  A vanishing
    nu_0 flags a non-regular functional; it only blocks orthogonal-polynomial
    construction, not further moment work.
    """

    values: tuple
    basis_shift: Scalar = 0
    exact: tuple = ()

    def __init__(self, values: Sequence, basis_shift: Scalar = 0, exact: Sequence = ()):
        object.__setattr__(self, "values", tuple(values))
        object.__setattr__(self, "basis_shift", basis_shift)
        if not exact:
            exact = tuple(is_exact(v) for v in self.values)
        object.__setattr__(self, "exact", tuple(exact))

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, n: int):
        return self.values[n]

    @property
    def degenerate(self) -> bool:
        """True when nu_0 = 0 (non-regular functional)."""
        return not self.values or scalar_is_zero(self.values[0])

    def to_json(self) -> dict:
        return {
            "values": [scalar_to_json(v) for v in self.values],
            "basis_shift": scalar_to_json(self.basis_shift),
            "exact": list(self.exact),
        }


# ---------------------------------------------------------------------------
# weight evaluation


def _validate_weight(spec: FunctionalSpec) -> None:
    """Reject denominator parameters that put a pole inside the support."""
    upper = spec.weight_upper_bound()
    for bj in spec.b:
        shifted = bj + 1
        if is_integer(shifted) and shifted <= 0:
            pole_at = int(-bj)  # first index with a vanishing denominator
            if upper is None or pole_at <= upper:
                raise PoleInDenominator(
                    f"denominator parameter {bj} makes the weight singular at "
                    f"x = {pole_at} inside the support"
                )


def _rho_hat(spec: FunctionalSpec, u: int) -> Scalar:
    """The normalized weight at N_0 index u (scale included)."""
    num = pochhammer_multi(spec.a, u)
    den = pochhammer_multi(tuple(bj + 1 for bj in spec.b), u)
    value = spec.scale * num * spec.z**u
    return exact_div(value, den * math.factorial(u))


def weight_at(spec: FunctionalSpec, x) -> Scalar:
    """The weight at a support point (point masses are NOT included)."""
    _validate_weight(spec)
    if not is_integer(x):
        raise OutOfSupport(f"support points are integers; got {x}")
    x = int(x)
    shift = spec.basis_shift
    u = x + shift
    if u < 0:
        raise OutOfSupport(f"{x} lies below the support")
    if spec.support.kind == "truncated" and u > spec.support.N:
        raise OutOfSupport(f"{x} exceeds the truncation bound N = {spec.support.N}")
    if spec.support.kind == "symmetrized_shift" and x > spec.support.m:
        raise OutOfSupport(f"{x} exceeds the symmetric window bound m = {spec.support.m}")
    return _rho_hat(spec, u)


# ---------------------------------------------------------------------------
# Pearson pair and class


def classify_class(eta: Poly, sigma: Poly, p: int, q: int, z: Scalar) -> int:
    """Class of the functional defined by a Pearson pair.

    Uses the four-way case split on (p, q, z) and cross-checks it against
    the direct degree formula ``max(deg sigma - 2, deg(sigma - eta) - 1)``.
    Here p = deg eta, q = deg sigma - 1, and z is eta's leading coefficient
    (sigma is monic).
    """
    if p > q + 1:
        s = p - 1
    elif p < q + 1:
        s = q
    elif not scalar_is_zero(z - 1):
        s = q
    else:
        s = q - 1
    direct = max(sigma.degree - 2, (sigma - eta).degree - 1)
    if s != direct:
        raise DegreeMismatch(
            f"case-table class {s} disagrees with the degree formula {direct}; "
            f"the supplied (p, q, z) do not describe this pair"
        )
    if s < 0:
        raise DegreeMismatch(
            "the pair degenerates below the classical case (class would be "
            "negative); the weight ratio is essentially (x+c)/(x+1)"
        )
    return s


def pearson_pair(spec: FunctionalSpec) -> PearsonPair:
    """Construct (eta, sigma) for a spec, including the extra linear factors
    contributed by truncation and point masses, and classify the result.

    Factor rules per mass at omega (decided against the pair before masses):
    when eta(omega) and sigma(omega) are both nonzero, eta gains
    (x-omega)(x+1-omega) and sigma gains (x-1-omega)(x-omega); when
    sigma(omega) = 0 only the first of each is added; when eta(omega) = 0
    only the second of each; when both already vanish no factor is needed
    at all (the pair already absorbs the mass, as happens for the mass
    appended by a Geronimus step).
    """
    eta = poly_from_root_offsets(spec.a, leading=spec.z)
    sigma = poly_from_root_offsets(spec.b) * Poly((0, 1))
    if spec.support.kind == "truncated":
        N = spec.support.N
        if scalar_is_zero(eta(N)):
            raise TruncationAtEtaRoot(
                f"truncation at N = {N} is not allowed: the weight already "
                f"vanishes beyond N (eta(N) = 0)"
            )
        eta = eta * Poly((-N, 1))
        sigma = sigma * Poly((-N - 1, 1))
    if spec.support.kind == "symmetrized_shift":
        m = spec.support.m
        eta = eta.shift(m)
        sigma = sigma.shift(m)
    base_eta, base_sigma = eta, sigma
    for mass in spec.merged_masses():
        w = mass.omega
        sigma_vanishes = scalar_is_zero(base_sigma(w))
        eta_vanishes = scalar_is_zero(base_eta(w))
        if sigma_vanishes and eta_vanishes:
            continue
        if sigma_vanishes:
            eta = eta * Poly((-w, 1))
            sigma = sigma * Poly((-1 - w, 1))
        elif eta_vanishes:
            eta = eta * Poly((1 - w, 1))
            sigma = sigma * Poly((-w, 1))
        else:
            eta = eta * Poly((-w, 1)) * Poly((1 - w, 1))
            sigma = sigma * Poly((-1 - w, 1)) * Poly((-w, 1))
    p = eta.degree
    q = sigma.degree - 1
    class_s = classify_class(eta, sigma, p, q, eta.leading())
    return PearsonPair(eta=eta, sigma=sigma, class_s=class_s)


# ---------------------------------------------------------------------------
# moments


def moments(spec: FunctionalSpec, K: int, tol: Scalar = DEFAULT_TOL) -> MomentTable:
    """Moments nu_0..nu_K against the (possibly shifted) falling basis.

    Each weight moment reduces to the prefactor
    ``scale * z^n * (a)_n / (b+1)_n`` times a hypergeometric sum with all
    parameters raised by n; point masses add ``M * phi_n(omega + shift)``.
    Exact rational inputs give exact values whenever every sum is finite.
    A nonterminating sum is taken to ``tol / max(1, |prefactor|)``, so that
    each moment meets ``tol (1 + |nu_n|)``.
    """
    if K < 0:
        raise InputError("moment count K must be nonnegative")
    _validate_weight(spec)
    if not all(map(is_exact, (spec.z, spec.scale, *spec.a, *spec.b))):
        tol = to_mpf(tol)  # the prefactor is an mpf, which a Fraction cannot divide
    shift = spec.basis_shift
    upper = spec.weight_upper_bound()
    b1 = tuple(bj + 1 for bj in spec.b)
    values = []
    for n in range(K + 1):
        if upper is not None and n > upper:
            series_part: Scalar = 0
        else:
            pref = spec.scale * spec.z**n
            pref = pref * pochhammer_multi(spec.a, n)
            pref = exact_div(pref, pochhammer_multi(b1, n))
            if scalar_is_zero(pref):
                series_part = 0
            else:
                series = HyperSeries(
                    tuple(ai + n for ai in spec.a),
                    tuple(bj + n for bj in b1),
                    spec.z,
                )
                if upper is not None:
                    body = eval_hyper_finite_sum(series, upper - n)
                else:
                    body = eval_hyper(series, tol / max(1, abs(pref)))
                series_part = pref * body
        mass_part: Scalar = 0
        for mass in spec.merged_masses():
            mass_part = mass_part + mass.M * falling_factorial(mass.omega + shift, n)
        values.append(series_part + mass_part)
    return MomentTable(values, basis_shift=shift)


def functional_of_poly(table: MomentTable, p: Poly):
    """Apply the functional to a polynomial, given enough moments.

    Expands ``p`` in the table's (possibly shifted) falling basis, so it
    needs moments up to deg p.
    """
    if p.is_zero():
        return 0
    if p.degree >= len(table.values):
        raise InputError(
            f"need moments up to degree {p.degree}, have {len(table.values) - 1}"
        )
    coeffs = falling_coeffs(p.shift(-table.basis_shift))
    total = 0
    for n, c in enumerate(coeffs):
        total = total + c * table.values[n]
    return total


# ---------------------------------------------------------------------------
# Stieltjes transform


def stieltjes_eval(spec: FunctionalSpec, t: Scalar, tol: Scalar = DEFAULT_TOL) -> Scalar:
    """Pointwise value of S(t) = L[1/(t - x)].

    The weight's part is one hypergeometric value, through
    ``1/(c - u) = (1/c) (-c)_u / (1-c)_u`` with ``c = t + shift``: a finite
    (truncated, symmetric-window, or self-terminating) weight sums it with
    :func:`eval_hyper_finite_sum`, exactly on rational inputs; an infinite
    weight with :func:`eval_hyper`, under its convergence policy and to
    ``tol``.  Point masses add ``M / (t - omega)``.
    """
    _validate_weight(spec)
    shift = spec.basis_shift
    upper = spec.weight_upper_bound()
    for mass in spec.merged_masses():
        if scalar_is_zero(t - mass.omega):
            raise PoleAtSupportPoint(f"t = {t} is a mass point of the functional")
    total: Scalar = 0
    for mass in spec.merged_masses():
        total = total + exact_div(mass.M, t - mass.omega)
    if scalar_is_zero(spec.scale):
        return total
    # with a nonzero scale the weight is nonzero at every support index
    if is_integer(t):
        u = int(t) + shift
        if u >= 0 and (upper is None or u <= upper):
            raise PoleAtSupportPoint(f"t = {t} is a support point of the weight")
    # support indices raised above, so c != u for every summed u, c != 0
    c = t + shift
    series = HyperSeries(
        spec.a + (-c,), tuple(bj + 1 for bj in spec.b) + (1 - c,), spec.z
    )
    if upper is None:
        body = eval_hyper(series, tol)
    else:
        body = eval_hyper_finite_sum(series, upper)
    return total + exact_div(spec.scale * body, c)
