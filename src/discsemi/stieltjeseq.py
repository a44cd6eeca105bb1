"""The first-order difference equation of the Stieltjes transform.

For a functional with Pearson pair (eta, sigma) and Stieltjes transform
``S(t) = L[1/(t-x)]``, the combination

    sigma(t+1) * S(t+1) - eta(t) * S(t)  =  xi(t)

is a polynomial whose degree equals the class of the functional.  This
module derives xi *symbolically* as explicit linear forms in the moments
nu_0..nu_s, verifies the equation numerically at sample points, and maps
equations through the standard functional transformations via their
closed forms.

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

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .combin import binomial
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
    moments,
    pearson_pair,
    stieltjes_eval,
)
from .polys import Poly, difference_quotient_rows, falling_coeffs
from .scalars import (
    DEFAULT_TOL,
    Scalar,
    exact_div,
    is_exact,
    parse_rational,
    scalar_is_zero,
    scalar_to_json,
    to_mpf,
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
        return self.sigma_shift(t) * S_t1 - self.eta(t) * S_t

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
                if (
                    not isinstance(entry, dict)
                    or "t_power" not in entry
                    or "nu_coeffs" not in entry
                ):
                    raise InputError(
                        "each xi_symbolic row needs 't_power' and 'nu_coeffs'"
                    )
                rows[int(entry["t_power"])] = tuple(
                    parse_rational(c) for c in entry["nu_coeffs"]
                )
            symbolic = tuple(rows.get(j, ()) for j in range(max(rows, default=-1) + 1))
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
            c = binomial(i, j) * h ** (i - j)
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
        assert scalar_is_zero(boundary.coeff(j) - A_j(-1))
        P_j = A_j.shift(-1) + B_j
        rows.append(falling_coeffs(P_j))
    # drop identically-zero top rows (they occur exactly when z = 1)
    while rows and all(scalar_is_zero(c) for c in rows[-1]):
        rows.pop()
    if shift:
        rows = _shift_rows(rows, shift)
        while rows and all(scalar_is_zero(c) for c in rows[-1]):
            rows.pop()
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
    xi_coeffs = []
    for row in rows:
        value = 0
        for n, c in enumerate(row):
            value = value + c * table.values[n]
        xi_coeffs.append(value)
    return StieltjesEquation(
        sigma_shift=pair.sigma_shift,
        eta=pair.eta,
        xi=Poly(xi_coeffs),
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

    Returns a report with per-sample residuals; a sample passes when
    ``|residual| <= tol * (1 + |xi(t)|)``.  The Stieltjes values are
    computed at a much tighter internal tolerance so that the polynomial
    amplification of the left side cannot eat the verification margin.
    """
    if sample_ts is None:
        sample_ts = default_sample_points(spec)
    inner_tol = exact_div(tol, 10**8)
    samples = []
    overall = True
    for t in sample_ts:
        S_t = stieltjes_eval(spec, t, inner_tol)
        S_t1 = stieltjes_eval(spec, t + 1, inner_tol)
        residual = eq.lhs_at(S_t, S_t1, t) - eq.xi(t)
        bound = tol * (1 + abs(eq.xi(t)))
        exact = is_exact(residual)
        ok = (abs(residual) <= bound) if exact else (abs(residual) <= to_mpf(bound))
        overall = overall and bool(ok)
        samples.append(
            {
                "t": t,
                "residual": abs(residual),
                "bound": bound,
                "exact": exact,
                "pass": bool(ok),
            }
        )
    return {"pass": overall, "samples": samples}


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
    inner_tol = exact_div(tol, 10**8)
    values = []
    for t in nodes:
        S_t = stieltjes_eval(spec, t, inner_tol)
        S_t1 = stieltjes_eval(spec, t + 1, inner_tol)
        values.append(pair.sigma_shift(t) * S_t1 - pair.eta(t) * S_t)
    # Lagrange interpolation on the nodes
    result = Poly()
    for k, t_k in enumerate(nodes):
        basis = Poly((1,))
        denom = 1
        for i, t_i in enumerate(nodes):
            if i != k:
                basis = basis * Poly((-t_i, 1))
                denom = denom * (t_k - t_i)
        result = result + basis * exact_div(values[k], denom)
    return result


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

    The Uvarov case follows the mass-factor selection of the Pearson
    construction: when sigma(omega) = 0 or eta(omega) = 0 the reduced
    single-factor forms are used.
    """
    params = dict(params or {})
    if kind not in TRANSFORMS:
        raise InputError(
            f"unknown transformation {kind!r}; expected one of "
            f"{', '.join(TRANSFORMS)}"
        )
    sig_s, eta, xi = eq.sigma_shift, eq.eta, eq.xi
    if kind == "uvarov":
        omega, M = _require(params, "omega", "M")
        if scalar_is_zero(M):
            return eq
        f_lo = Poly((-omega, 1))  # (t - omega)
        f_hi = Poly((1 - omega, 1))  # (t + 1 - omega)
        sigma_at = sig_s(omega - 1)  # = sigma(omega)
        eta_at = eta(omega)
        if scalar_is_zero(sigma_at):
            sigma1 = sig_s.deflate(omega - 1)  # sigma(t+1)/(t+1-omega)
            xi_new = f_lo * xi + (f_lo * sigma1 - eta) * M
            return StieltjesEquation(sig_s * f_lo, eta * f_lo, xi_new)
        if scalar_is_zero(eta_at):
            eta1 = eta.deflate(omega)  # eta(t)/(t-omega)
            xi_new = f_hi * xi + (sig_s - f_hi * eta1) * M
            return StieltjesEquation(sig_s * f_hi, eta * f_hi, xi_new)
        xi_new = f_lo * f_hi * xi + (f_lo * sig_s - f_hi * eta) * M
        return StieltjesEquation(sig_s * f_lo * f_hi, eta * f_lo * f_hi, xi_new)
    if kind == "christoffel":
        omega, nu0 = _require(params, "omega", "nu0")
        f_lo = Poly((-omega, 1))
        f_hi = Poly((1 - omega, 1))
        xi_new = f_lo * f_hi * xi - (f_lo * sig_s - f_hi * eta) * nu0
        return StieltjesEquation(sig_s * f_lo, eta * f_hi, xi_new)
    if kind == "geronimus":
        omega, nu0_g = _require(params, "omega", "nu0_g")
        f_lo = Poly((-omega, 1))
        f_hi = Poly((1 - omega, 1))
        xi_new = xi + (sig_s - eta) * nu0_g
        return StieltjesEquation(sig_s * f_hi, eta * f_lo, xi_new)
    if kind == "symmetrize":
        (m,) = _require(params, "m")
        rows = None
        if eq.xi_symbolic is not None:
            rows = _shift_rows(eq.xi_symbolic, m)
        return StieltjesEquation(
            sig_s.shift(m), eta.shift(m), xi.shift(m), xi_symbolic=rows
        )
    raise ConstraintViolated(
        "truncation has no closed form at the equation level; apply it to "
        "the functional and re-derive"
    )
