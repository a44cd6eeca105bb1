"""The first-order difference equation of the Stieltjes transform.

For a functional with Pearson pair (eta, sigma) and Stieltjes transform
``S(t) = L[1/(t-x)]``, the combination

    sigma(t+1) * S(t+1) - eta(t) * S(t)  =  xi(t)

is a polynomial whose degree equals the class of the functional.  This
module derives xi *symbolically* as explicit linear forms in the moments
nu_0..nu_s, verifies the equation numerically at sample points, and maps
equations through the standard functional transformations via their
closed forms.  Each linear form in moment or transform values is one
:func:`~discsemi.scalars.dot` (a polynomial-valued one is one
:func:`~discsemi.polys.combine`), rounded once on mpf values.

Derivation sketch (the construction implemented in :func:`derive_xi`):
write Lambda(t,x) = sigma(t+1)eta(x) - eta(t)sigma(x+1).  It vanishes at
t = x, so exact division by (t - x) yields rows
``c_j(x) = A_j(x)eta(x) + B_j(x)sigma(x+1)`` where A_j / B_j are the
difference-quotient rows of sigma(t+1) / -eta(t).  Summing
``c_j(x) rho(x) / sigma(x+1)`` and telescoping with the Pearson identity
``eta(x)rho(x) = sigma(x+1)rho(x+1)`` turns the j-th coefficient of xi into
``L[A_j(x-1)] - A_j(-1)rho(0) + L[B_j(x)]`` plus the boundary polynomial
``rho(0) * sigma(t+1)/(t+1)``.  Because sigma(0) = 0, that boundary
quotient is exact and its coefficients are precisely A_j(-1), so the rho(0)
terms cancel and

     xi_j = L[A_j(x-1) + B_j(x)] ,

a linear form in the moments once the polynomial is expanded in the
falling-factorial basis.  On the symmetric window the same construction
runs in the unshifted variable and the rows are recentred binomially.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    ConstraintViolated,
    DegreeMismatch,
    InputError,
    MissingParameter,
    NonPolynomialBoundary,
)
from .functional import (
    FunctionalSpec,
    MomentTable,
    PearsonPair,
    mass_offsets,
    moments,
    pearson_pair,
    stieltjes_eval,
)
from .polys import Poly, combine, difference_quotient_rows, falling_coeffs, poly_from_root_offsets
from .scalars import (
    DEFAULT_TOL,
    Scalar,
    agree,
    difference,
    dot,
    exact_value,
    is_exact,
    parse_rational,
    scalar_to_json,
)
from .transforms import TRANSFORMS


@dataclass(frozen=True)
class StieltjesEquation:
    """The polynomials of sigma(t+1)S(t+1) - eta(t)S(t) = xi(t).

    ``xi_symbolic`` holds xi as linear forms in the moments: entry j is the
    coefficient row of t^j, i.e. ``xi_j = sum_n row[n] * nu_n``.  Equations
    produced by closed-form transformations may carry ``xi_symbolic=None``
    (the numeric xi is still exact).
    """

    sigma_shift: Poly
    eta: Poly
    xi: Poly
    xi_symbolic: Optional[tuple] = None

    def __init__(self, sigma_shift, eta, xi, xi_symbolic=None):
        object.__setattr__(self, "sigma_shift", sigma_shift)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "xi", xi)
        if xi_symbolic is not None:
            xi_symbolic = tuple(tuple(row) for row in xi_symbolic)
        object.__setattr__(self, "xi_symbolic", xi_symbolic)

    def lhs_at(self, S_t, S_t1, t):
        """sigma(t+1)S(t+1) - eta(t)S(t) for precomputed transform values."""
        return dot((self.sigma_shift(t), -self.eta(t)), (S_t1, S_t))

    def to_json(self) -> dict:
        out = {
            "sigma_shift": [scalar_to_json(c) for c in self.sigma_shift.coeffs],
            "eta": [scalar_to_json(c) for c in self.eta.coeffs],
            "xi": [scalar_to_json(c) for c in self.xi.coeffs],
        }
        if self.xi_symbolic is not None:
            out["xi_symbolic"] = [
                {"t_power": j, "nu_coeffs": [scalar_to_json(c) for c in row]}
                for j, row in enumerate(self.xi_symbolic)
            ]
        return out

    @classmethod
    def from_json(cls, data: object) -> "StieltjesEquation":
        if not isinstance(data, dict):
            raise InputError("an equation must be a JSON object")
        extras = set(data) - {"sigma_shift", "eta", "xi", "xi_symbolic"}
        if extras:
            raise InputError(f"unknown equation fields: {sorted(extras)}")
        for key in ("sigma_shift", "eta", "xi"):
            if key not in data or not isinstance(data[key], list):
                raise InputError(f"equation needs a coefficient list {key!r}")
        symbolic = None
        if data.get("xi_symbolic") is not None:
            raw = data["xi_symbolic"]
            if not isinstance(raw, list):
                raise InputError("xi_symbolic must be a list of rows")
            rows: dict[int, tuple] = {}
            for entry in raw:
                entry = entry if isinstance(entry, dict) else {}
                j, row = entry.get("t_power"), entry.get("nu_coeffs")
                if (
                    type(j) is not int
                    or j not in range(len(raw))
                    or j in rows
                    or not isinstance(row, list)
                ):
                    raise InputError(
                        f"each xi_symbolic row needs a 't_power' in 0..{len(raw) - 1}, "
                        f"used once, and a list 'nu_coeffs'"
                    )
                rows[j] = tuple(parse_rational(c) for c in row)
            symbolic = tuple(rows[j] for j in range(len(raw)))
        return cls(
            sigma_shift=Poly([parse_rational(c) for c in data["sigma_shift"]]),
            eta=Poly([parse_rational(c) for c in data["eta"]]),
            xi=Poly([parse_rational(c) for c in data["xi"]]),
            xi_symbolic=symbolic,
        )


def _shift_rows(rows: Sequence[Sequence], h) -> list[list]:
    """Rows of p(t+h) given rows of p(t), where row j multiplies t^j.

    Each row is a coefficient vector over the moments; shifting mixes rows
    with binomial weights but leaves the moment index untouched.
    """
    J = len(rows)
    width = max((len(r) for r in rows), default=0)
    out = [[0] * width for _ in range(J)]
    for i, row in enumerate(rows):
        for j in range(i + 1):
            c = math.comb(i, j) * h ** (i - j)
            if c:
                for n, coeff in enumerate(row):
                    out[j][n] = out[j][n] + c * coeff
    return out


def derive_xi(pair: PearsonPair, table: MomentTable) -> StieltjesEquation:
    """Derive xi for a Pearson pair, symbolically and numerically.

    Follows the divided-difference construction described in the module
    docstring.  Raises NonPolynomialBoundary when sigma(t+1) is not
    divisible by (t+1) (corrupt sigma: the construction requires
    sigma(0) = 0), MissingParameter when the moment table is too short,
    and DegreeMismatch when the symbolic degree of xi differs from the
    class carried by the pair.
    """
    shift = table.basis_shift
    # recentre to the variable in which the support starts at 0
    sig_s = pair.sigma_shift.shift(-shift)
    eta = pair.eta.shift(-shift)
    # boundary polynomial rho(0) * sigma(t+1)/(t+1): exact division by (t+1)
    try:
        boundary = sig_s.deflate(-1)
    except ArithmeticError:
        raise NonPolynomialBoundary(
            "sigma(t+1) is not divisible by (t+1); sigma(0) must vanish"
        ) from None
    A_rows = difference_quotient_rows(sig_s)
    B_rows = [-row for row in difference_quotient_rows(eta)]
    J = max(len(A_rows), len(B_rows))
    rows: list[list] = []
    for j in range(J):
        A_j = A_rows[j] if j < len(A_rows) else Poly()
        B_j = B_rows[j] if j < len(B_rows) else Poly()
        # the boundary coefficient [sigma(t+1)/(t+1)]_j equals A_j(-1), so
        # the two rho(0) corrections cancel and the row is L[A_j(x-1)+B_j(x)]
        assert boundary.coeff(j) == A_j(-1)
        P_j = A_j.shift(-1) + B_j
        rows.append(falling_coeffs(P_j))
    # drop identically-zero top rows (they occur exactly when z = 1)
    while rows and all(c == 0 for c in rows[-1]):
        rows.pop()
    if shift:  # a shift leaves the top row as it is
        rows = _shift_rows(rows, shift)
    if len(rows) - 1 != pair.class_s:
        raise DegreeMismatch(
            f"xi has symbolic degree {len(rows) - 1} but the pair has class "
            f"{pair.class_s}"
        )
    needed = max((len(row) for row in rows), default=0) - 1
    if needed >= len(table.values):
        raise MissingParameter(
            f"need moments through nu_{needed}, table has {len(table.values)}"
        )
    return StieltjesEquation(
        sigma_shift=pair.sigma_shift,
        eta=pair.eta,
        xi=Poly(dot(row, table.values) for row in rows),
        xi_symbolic=rows,
    )


def derive_equation(
    spec: FunctionalSpec, tol: Scalar = DEFAULT_TOL
) -> StieltjesEquation:
    """Pearson pair + enough moments + derive_xi, in one step."""
    pair = pearson_pair(spec)
    table = moments(spec, pair.class_s, tol)
    return derive_xi(pair, table)


def default_sample_points(spec: FunctionalSpec) -> list:
    """Sample abscissas for verification, clear of the support.

    Finite weights get three points past the last support point; infinite
    weights get fixed half-integer points (integers are poles of S there).
    """
    upper = spec.weight_upper_bound()
    if upper is None:
        return [Fraction(21, 2), Fraction(51, 2), Fraction(81, 2)]
    hi = upper - spec.basis_shift
    return [hi + Fraction(7, 2), hi + 10, hi + Fraction(31, 2)]


def verify_equation(
    spec: FunctionalSpec,
    eq: StieltjesEquation,
    sample_ts: Optional[Sequence] = None,
    tol: Scalar = DEFAULT_TOL,
) -> dict:
    """Check sigma(t+1)S(t+1) - eta(t)S(t) = xi(t) at sample points.

    Returns a report with per-sample residuals; a sample passes when the
    left side agrees with ``xi(t)`` by :func:`~discsemi.scalars.agree`:
    exactly when both are exact (a terminating weight), else within
    ``bound = tol (1 + |xi(t)|)``, one :func:`~discsemi.scalars.dot`.  The
    Stieltjes values are computed at a much tighter internal tolerance so
    that the polynomial amplification of the left side cannot eat the margin.
    """
    if sample_ts is None:
        sample_ts = default_sample_points(spec)
    inner_tol = exact_value(tol) / 10**8
    samples = []
    for t in sample_ts:
        S_t = stieltjes_eval(spec, t, inner_tol)
        S_t1 = stieltjes_eval(spec, t + 1, inner_tol)
        lhs, xi_t = eq.lhs_at(S_t, S_t1, t), eq.xi(t)
        residual = difference(lhs, xi_t)
        ok = agree(lhs, xi_t, tol)[1]
        samples.append(
            {
                "t": t,
                "residual": abs(residual),
                "bound": dot((tol, tol), (1, abs(xi_t))),
                "exact": is_exact(residual),
                "pass": ok,
            }
        )
    return {"pass": all(s["pass"] for s in samples), "samples": samples}


def xi_by_interpolation(
    spec: FunctionalSpec,
    pair: Optional[PearsonPair] = None,
    tol: Scalar = DEFAULT_TOL,
) -> Poly:
    """Independent numeric oracle for xi.

    Samples sigma(t+1)S(t+1) - eta(t)S(t) at class+1 generic points and
    interpolates the polynomial through them (Lagrange, exact on rational
    data).  Used to cross-check the symbolic derivation.
    """
    if pair is None:
        pair = pearson_pair(spec)
    s = pair.class_s
    upper = spec.weight_upper_bound()
    start = (
        Fraction(23, 2)
        if upper is None
        else upper - spec.basis_shift + Fraction(9, 2)
    )
    nodes = [start + k for k in range(s + 1)]
    inner_tol = exact_value(tol) / 10**8
    # the nodes are consecutive, so S(t + 1) at one is S(t) at the next
    S = [stieltjes_eval(spec, start + k, inner_tol) for k in range(s + 2)]
    lhs = StieltjesEquation(pair.sigma_shift, pair.eta, xi=Poly()).lhs_at
    values = [lhs(S[k], S[k + 1], t) for k, t in enumerate(nodes)]
    # Lagrange interpolation on the nodes: sum_k values[k] basis_k / basis_k(t_k)
    bases = [poly_from_root_offsets([-t for t in nodes if t != t_k]) for t_k in nodes]
    return combine([p * Fraction(1, p(t_k)) for p, t_k in zip(bases, nodes)], values)


# ---------------------------------------------------------------------------
# closed-form transformation of equations


def _require(params: dict, *names):
    missing = [n for n in names if n not in params or params[n] is None]
    if missing:
        raise MissingParameter(
            f"transformation needs parameter(s): {', '.join(missing)}"
        )
    return [params[n] for n in names]


def transform_equation(
    eq: StieltjesEquation, kind: str, params: Optional[dict] = None
) -> StieltjesEquation:
    """Map an equation through a functional transformation in closed form.

    ``kind`` is one of uvarov / christoffel / geronimus / truncate /
    symmetrize.  Required params: uvarov -> omega, M; christoffel -> omega,
    nu0 (the base functional's nu_0); geronimus -> omega, nu0_g (the new
    functional's nu_0); symmetrize -> m.  Truncation admits no closed form
    at the equation level (the new xi needs fresh moments), so it is
    rejected here; use the spec-level transformation instead.

    Each form is ``xi' = F xi + value G``.  Uvarov multiplies sigma(t+1)
    and eta by the product F of the factors of
    :func:`~discsemi.functional.mass_offsets`, as the Pearson pair does, and
    ``G = F sigma(t+1) / (t + 1 - omega) - F eta / (t - omega)`` (both exact)
    goes with M; Christoffel has ``F = (t - omega)(t + 1 - omega)`` and the
    same G with -nu0, Geronimus ``F = 1`` and ``G = sigma(t+1) - eta`` with
    nu0_g.  The new xi is one :func:`~discsemi.polys.combine` of ``F t^k``
    (symmetrization: ``(t + m)^k``) and G, so an mpf rounds once.
    """
    params = dict(params or {})
    if kind not in TRANSFORMS:
        raise InputError(
            f"unknown transformation {kind!r}; expected one of "
            f"{', '.join(TRANSFORMS)}"
        )
    sig_s, eta, xi = eq.sigma_shift, eq.eta, eq.xi
    if kind == "symmetrize":
        (m,) = _require(params, "m")
        rows = None if eq.xi_symbolic is None else _shift_rows(eq.xi_symbolic, m)
        basis = [Poly((0,) * k + (1,)).shift(m) for k in range(len(xi.coeffs))]  # (t + m)^k
        xi_new = combine(basis, xi.coeffs)
        return StieltjesEquation(sig_s.shift(m), eta.shift(m), xi_new, xi_symbolic=rows)
    if kind == "truncate":
        raise ConstraintViolated(
            "truncation has no closed form at the equation level; apply it to "
            "the functional and re-derive"
        )
    value_name = {"uvarov": "M", "christoffel": "nu0", "geronimus": "nu0_g"}[kind]
    omega, value = _require(params, "omega", value_name)
    f_lo, f_hi = Poly((-omega, 1)), Poly((1 - omega, 1))  # (t - omega), (t + 1 - omega)
    if kind == "uvarov":
        if value == 0:
            return eq
        F = poly_from_root_offsets(mass_offsets(eta(omega), sig_s(omega - 1), omega))
        sig_new, eta_new = sig_s * F, eta * F
        G = sig_new.deflate(omega - 1) - eta_new.deflate(omega)
    elif kind == "christoffel":
        F, value = f_lo * f_hi, -value
        sig_new, eta_new = sig_s * f_lo, eta * f_hi
        G = f_lo * sig_s - f_hi * eta
    else:
        F = Poly.one()
        sig_new, eta_new = sig_s * f_hi, eta * f_lo
        G = sig_s - eta
    basis = [Poly((0,) * k + F.coeffs) for k in range(len(xi.coeffs))]
    return StieltjesEquation(sig_new, eta_new, combine(basis + [G], xi.coeffs + (value,)))
