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

Every parameter, mass and point is an exact rational; an mpf, a float or
a bool raises ``InputError`` where it enters.

Moments are taken against the falling-factorial basis
``phi_n(x) = x (x-1) ... (x-n+1)`` (shifted by ``m`` for symmetric
windows); the Stieltjes transform ``S(t) = L[1/(t-x)]`` is one
hypergeometric value on the same factors.  Both take one route, decided
once per spec: a finite weight's sums are the integers of one finite-sum
tree of :mod:`discsemi.hyper`, one ``Fraction`` per value, and an infinite
weight's those of one fixed-point pass, refused before any sum when some
order asked for cannot be summed, each value rounded to mpf once.

A spec derives its own facts once, on first use, and keeps them outside
equality and hashing: the weight's upper bound, its pole verdict (raised
again on every call that needs it), its merged masses, and its series with
that series' convergence class and integer linear factors.  Weights are
products of those factors; moments and Stieltjes values start from them.
Nothing whose cost grows with a moment order, a sum length or a tolerance
is kept, so a repeated call repeats the work it measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

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
    ConvergenceClass,
    HyperSeries,
    check_summable,
    classify_convergence,
    linear_factors,
    output_bits,
    split_sum,
    sum_fixed,
    termination_degree,
)
from .polys import Poly, falling_coeffs, poly_from_root_offsets
from .scalars import (
    DEFAULT_TOL,
    Scalar,
    dot,
    exact_value,
    integer_ratio,
    is_exact,
    is_nonpos_integer,
    parse_rational,
    ratio_to_mpf,
    require_count,
    require_rational,
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

    def __post_init__(self):
        require_rational(self.omega, "a mass point omega")
        require_rational(self.M, "a mass M")

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
        object.__setattr__(self, "a", tuple(require_rational(x, "a parameter") for x in a))
        object.__setattr__(self, "b", tuple(require_rational(x, "a parameter") for x in b))
        object.__setattr__(self, "z", require_rational(z, "the argument z"))
        object.__setattr__(self, "scale", require_rational(scale, "the scale"))
        object.__setattr__(self, "support", support or Support.infinite())
        object.__setattr__(self, "masses", tuple(masses))
        if self.z == 0:
            raise InputError("the argument z must be nonzero")
        if self.support.kind == "symmetrized_shift":
            # the Pearson pair only describes the window when the weight
            # itself stops there: eta(2m) = z * prod(2m + a_i) = 0
            two_m = 2 * self.support.m
            if not any(ai + two_m == 0 for ai in self.a):
                raise ConstraintViolated(
                    f"a symmetric window {{-m..m}} with m = {self.support.m} "
                    f"needs a numerator parameter equal to -2m = {-two_m}, "
                    f"so that the weight vanishes beyond the window (eta(2m) = 0)"
                )
        if self.support.kind == "truncated":
            # eta(N) = z * prod(N + a_i) = 0 means the weight already stops
            # at N, and the cut would add a second factor (x - N) to the pair
            N = self.support.N
            if any(ai + N == 0 for ai in self.a):
                raise TruncationAtEtaRoot(
                    f"truncation at N = {N} is not allowed: the weight already "
                    f"vanishes beyond N (eta(N) = 0)"
                )

    # -- bookkeeping (the cached facts: see the module docstring) -------------

    @property
    def basis_shift(self) -> int:
        return self.support.shift

    @cached_property
    def _merged(self) -> tuple:
        merged: list[Mass] = []
        for mass in self.masses:
            for i, seen in enumerate(merged):
                if seen.omega == mass.omega:
                    merged[i] = Mass(seen.omega, seen.M + mass.M)
                    break
            else:
                merged.append(mass)
        return tuple(mass for mass in merged if mass.M != 0)

    def merged_masses(self) -> list[Mass]:
        """Masses at the same point combined and zero masses dropped."""
        return list(self._merged)

    @cached_property
    def _upper(self) -> Optional[int]:
        term = termination_degree(self.a)
        if self.support.kind == "truncated":
            return self.support.N if term is None else min(self.support.N, term)
        return term

    def weight_upper_bound(self) -> Optional[int]:
        """Largest index of the stored N_0 weight that can be nonzero.

        ``None`` means the weight extends to infinity.  Otherwise it is the
        self-termination degree of the numerator parameters, capped at
        ``N`` on truncated support; a symmetric window's required
        numerator ``-2m`` stops its weight by ``2m``.
        """
        return self._upper

    @cached_property
    def _pole(self) -> Optional[str]:
        """Why the weight is singular inside its support, or ``None``."""
        for bj in self.b:  # -bj is the first index with a vanishing denominator
            if is_nonpos_integer(bj + 1) and (self._upper is None or -bj <= self._upper):
                return (
                    f"denominator parameter {bj} makes the weight singular at "
                    f"x = {int(-bj)} inside the support"
                )
        return None

    @cached_property
    def _series(self) -> HyperSeries:  # its terms are rho(u) / scale
        return HyperSeries(self.a, tuple(bj + 1 for bj in self.b), self.z)

    @cached_property
    def _convergence(self) -> ConvergenceClass:
        return classify_convergence(self._series)

    @cached_property
    def _factors(self) -> tuple:  # the series' term ratio, integer linear factors
        return linear_factors(self._series.a, self._series.b, self.z)

    def support_index(self, x) -> Optional[int]:
        """The stored index ``u = x + basis_shift`` of a point of the
        weight's lattice, or ``None`` when ``x`` is not one.

        ``x`` must be rational (``InputError`` otherwise); it is a lattice
        point when it is an integer and ``0 <= u <= weight_upper_bound()``.
        This is the one test of support membership; point masses do not
        enter it.
        """
        if require_rational(x, "a point x").denominator != 1:
            return None
        u = int(x) + self.basis_shift
        upper = self.weight_upper_bound()
        return u if 0 <= u and (upper is None or u <= upper) else None

    # -- JSON ------------------------------------------------------------------

    def to_json(self) -> dict:
        out: dict = {
            "a": [scalar_to_json(x) for x in self.a],
            "b": [scalar_to_json(x) for x in self.b],
            "z": scalar_to_json(self.z),
        }
        if self.scale != 1:
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

    @cached_property
    def sigma_shift(self) -> Poly:
        """``sigma(x+1)`` -- the form in which sigma enters most formulas."""
        return self.sigma.shift(1)


@dataclass(frozen=True)
class MomentTable:
    """Moments ``nu_n = L[phi_n(x + basis_shift)]`` for n = 0..K.

    ``basis_shift`` is 0 on N_0 and ``m`` on the symmetric window, where the
    natural basis is the shifted falling factorial.  ``exact[n]`` tells
    whether entry n is an exact rational.  A vanishing nu_0 flags a
    non-regular functional; it only blocks orthogonal-polynomial
    construction, not further moment work.
    """

    values: tuple
    basis_shift: Scalar = 0

    def __init__(self, values: Sequence, basis_shift: Scalar = 0):
        object.__setattr__(self, "values", tuple(values))
        object.__setattr__(self, "basis_shift", basis_shift)

    @property
    def exact(self) -> tuple:
        return tuple(map(is_exact, self.values))

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, n: int):
        return self.values[n]

    @property
    def degenerate(self) -> bool:
        """True when nu_0 = 0 (non-regular functional)."""
        return not self.values or self.values[0] == 0

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
    if spec._pole is not None:
        raise PoleInDenominator(spec._pole)


def weight_at(spec: FunctionalSpec, x) -> Fraction:
    """The weight at a support point (point masses are NOT included).

    Any other ``x`` raises :class:`OutOfSupport`, a point past the weight's
    own termination included (see :meth:`FunctionalSpec.support_index`).
    The value is ``scale prod_{j<u} p(j)/q(j)`` over the spec's integer
    factors, one ``Fraction`` made from two integer products.
    """
    _validate_weight(spec)
    u = spec.support_index(x)
    if u is None:
        raise OutOfSupport(f"x = {x} is not a support point of the weight")
    p_const, p_lin, q_const, q_lin = spec._factors
    num, den = spec.scale.as_integer_ratio()
    num *= p_const**u * math.prod(math.prod(range(n, n + d * u, d)) for n, d in p_lin)
    den *= q_const**u * math.prod(math.prod(range(n, n + d * u, d)) for n, d in q_lin)
    return Fraction(num, den)


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
    elif z != 1:
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


def mass_offsets(eta_at: Scalar, sigma_at: Scalar, w: Scalar) -> list:
    """The offsets ``o`` of the factors ``x + o`` that a mass at ``w`` adds
    to eta, given ``eta(w)`` and ``sigma(w)``: ``-w`` unless eta vanishes
    at ``w``, and ``1 - w`` unless sigma does.  sigma gains each factor at
    ``x - 1``; :func:`pearson_pair` and the equation-level Uvarov step of
    :func:`~discsemi.stieltjeseq.transform_equation` share this rule."""
    return [o for o, at in ((-w, eta_at), (1 - w, sigma_at)) if at != 0]


def pearson_pair(spec: FunctionalSpec) -> PearsonPair:
    """Construct (eta, sigma) for a spec, including the extra linear factors
    contributed by truncation and point masses, and classify the result.

    Each mass adds the factors of :func:`mass_offsets`, decided against the
    pair with the masses before it, as a chain of Uvarov steps decides them;
    none when eta and sigma both vanish at its point (the pair already
    absorbs the mass, as for a Geronimus step's mass).
    """
    eta = poly_from_root_offsets(spec.a, leading=spec.z)
    sigma = poly_from_root_offsets(spec.b) * Poly((0, 1))
    if spec.support.kind == "truncated":
        N = spec.support.N
        eta = eta * Poly((-N, 1))
        sigma = sigma * Poly((-N - 1, 1))
    if spec.support.kind == "symmetrized_shift":
        m = spec.support.m
        eta = eta.shift(m)
        sigma = sigma.shift(m)
    for mass in spec.merged_masses():
        w = mass.omega
        for o in mass_offsets(eta(w), sigma(w), w):
            eta = eta * Poly((o, 1))
            sigma = sigma * Poly((o - 1, 1))
    p = eta.degree
    q = sigma.degree - 1
    class_s = classify_class(eta, sigma, p, q, eta.leading())
    return PearsonPair(eta=eta, sigma=sigma, class_s=class_s)


# ---------------------------------------------------------------------------
# moments


def moments(spec: FunctionalSpec, K: int, tol: Scalar = DEFAULT_TOL) -> MomentTable:
    """Moments nu_0..nu_K against the (possibly shifted) falling basis.

    As ``phi_n(u) = n! C(u, n)``, every moment is ``nu_n = scale n! sum_u
    t_u C(u, n)`` over the weight's terms ``t_u``, and one kernel call
    gives them all (:func:`_weight_sums`).  A finite weight's come from one
    finite-sum tree, exactly.  An infinite weight's come from one fixed-point
    pass over its terms (:func:`~discsemi.hyper.sum_fixed`): sum n stops as
    the series ``nu_n / prefactor`` with every parameter raised by n would,
    taken to ``tol / max(1, |prefactor|)`` for the prefactor ``scale z^n
    (a)_n / (b+1)_n``, so that ``nu_n`` meets ``tol (1 + |nu_n|)`` and a
    small ``nu_n`` is summed relative to its size.  Each ``nu_n``, point
    masses included, is one ``Fraction`` or one mpf rounded once, to nearest.
    A balanced series on ``|z| = 1`` loses one unit of balance per n, and a
    table with an order it cannot sum raises that order's error before any
    sum.  Point masses add ``M phi_n(omega + shift)``, each ``phi_n`` one
    more factor of a running product.
    """
    require_count(K, "the moment count K")
    _validate_weight(spec)
    shift, masses = spec.basis_shift, spec._merged
    values = []  # the masses' part; past the support and for a zero scale, all
    falling = [1] * len(masses)  # phi_n(omega + shift), one running product per mass
    for n in range(K + 1):
        values.append(sum(m.M * f for m, f in zip(masses, falling)))
        falling = [f * (m.omega + shift - n) for m, f in zip(masses, falling)]
    if spec.scale != 0:
        s_num, s_den = spec.scale.as_integer_ratio()
        sums, den, finish = _weight_sums(spec, spec._factors, tol, K, (s_num, s_den))
        weight = s_num  # scale n!, over s_den
        for n, s in enumerate(sums):
            weight *= n or 1
            m_num, m_den = values[n].as_integer_ratio()
            num = weight * s * m_den + m_num * s_den * den
            values[n] = finish(num, s_den * m_den * den)
    return MomentTable(values, basis_shift=shift)


def _weight_sums(spec: FunctionalSpec, factors, tol, top=0, scale=(1, 1), shift=0) -> tuple:
    """``(sums, den, finish)``: ``sums[n] / den = sum_u t_u C(u, n)``, ``n <=
    top``, over the spec's support, ``t_u`` the terms on ``factors``; ``finish``
    makes a value of a ratio of integers.  A finite weight's sums are
    :func:`~discsemi.hyper.split_sum`'s (none past the support), a value one
    ``Fraction``; an infinite weight's are ``sum_fixed``'s to ``tol`` (``scale``
    in its stop rule), ``den = 2^wp``, once ``check_summable`` passes orders
    ``shift..shift+top``, a value rounded once, to nearest, to the output bits."""
    upper = spec.weight_upper_bound()
    if upper is not None:
        Q, T = split_sum(factors, upper, min(top, upper))
        return T, Q, Fraction
    check_summable(spec._series, spec._convergence, shift, top)
    tol = integer_ratio(tol)
    acc, wp = sum_fixed(factors, tol, top, scale)
    bits = output_bits(tol)
    return acc, 1 << wp, lambda num, den: ratio_to_mpf(num, den, 0, bits)


def functional_of_poly(table: MomentTable, p: Poly):
    """Apply the functional to a polynomial, given enough moments.

    Expands ``p`` in the table's (possibly shifted) falling basis, so it
    needs moments up to deg p.  An mpf coefficient is read as the dyadic
    rational it stores, so the value is exact on exact data and otherwise an
    mpf rounded once.
    """
    if p.degree >= len(table.values):
        raise InputError(
            f"need moments up to degree {p.degree}, have {len(table.values) - 1}"
        )
    numeric = not all(map(is_exact, p.coeffs))
    if numeric:
        p = Poly(map(exact_value, p.coeffs))
    value = dot(falling_coeffs(p.shift(-table.basis_shift)), table.values)
    return to_mpf(value) if numeric else value


# ---------------------------------------------------------------------------
# Stieltjes transform


def stieltjes_eval(spec: FunctionalSpec, t: Scalar, tol: Scalar = DEFAULT_TOL) -> Scalar:
    """Pointwise value of S(t) = L[1/(t - x)].

    The weight's part is one hypergeometric value, through
    ``1/(c - u) = (1/c) (-c)_u / (1-c)_u`` with ``c = t + shift``, summed by
    the route of :func:`moments` (:func:`_weight_sums`) on the spec's
    integer factors with those of ``-c`` and ``1-c`` appended: a finite
    (truncated, symmetric-window, or self-terminating) weight exactly, by
    the binary-splitting tree, and an infinite one by the fixed-point
    kernel, under the convergence policy of
    :func:`~discsemi.hyper.eval_hyper` and to ``tol``.  The scale, the sum,
    ``1/c`` and the point masses are combined exactly into one ``Fraction``,
    or rounded to mpf once, to nearest.  Point masses add
    ``M / (t - omega)``.  ``t`` must be rational (``InputError``
    otherwise).  ``PoleAtSupportPoint`` is raised at a mass point, and at a
    support point of a nonzero weight.
    """
    _validate_weight(spec)
    index = spec.support_index(t)
    total: Scalar = 0
    for mass in spec._merged:
        if t == mass.omega:
            raise PoleAtSupportPoint(f"t = {t} is a mass point of the functional")
        total = total + Fraction(mass.M, t - mass.omega)
    if spec.scale == 0:
        return total
    # with a nonzero scale the weight is nonzero at every support index
    if index is not None:
        raise PoleAtSupportPoint(f"t = {t} is a support point of the weight")
    # support indices raised above, so c != u for every summed u, c != 0;
    # -c over 1-c adds one factor to each side of the term ratio
    c = t + spec.basis_shift
    cn, cd = c.as_integer_ratio()
    p_const, p_lin, q_const, q_lin = spec._factors
    factors = (p_const * cd, [*p_lin, (-cn, cd)], q_const * cd, [*q_lin, (cd - cn, cd)])
    # an infinite weight's regime, a balance one higher, and no new pole as
    # c is off the support
    (body,), den, finish = _weight_sums(spec, factors, tol, shift=-1)
    (s_num, s_den), (m_num, m_den) = spec.scale.as_integer_ratio(), total.as_integer_ratio()
    # the value is s_num body cd / (s_den cn den) + m_num / m_den
    num = s_num * body * cd * m_den + m_num * s_den * cn * den
    return finish(num, s_den * cn * m_den * den)
