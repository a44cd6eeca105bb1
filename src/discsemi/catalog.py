"""Curated catalog of discrete semiclassical weight families.

The bundled data file ``data/catalog.json`` records one entry per named
family.  Canonical entries describe a hypergeometric shape directly through
parameter-list templates; subcase entries describe the result of applying a
spectral transformation (point mass, reduced point mass, Christoffel,
Geronimus, truncation, symmetrization) to a simpler base family.  Every
entry carries default parameter values, documented validity constraints,
the right-hand side of its Stieltjes difference equation stored as linear
forms in the moments, and -- where an algebraically independent one exists
-- a closed moment formula.  The expressions are stored as strings over the
entry's parameter names and compiled with :func:`~discsemi.params.compile_expr`,
once per process and text, on first use; loading the catalog compiles nothing.

:func:`instantiate` resolves an entry plus user assignments into a concrete
:class:`~discsemi.functional.FunctionalSpec`, enforcing the recorded
constraints.  :func:`regression_suite` re-derives each entry's Pearson
pair, class, moments, and difference equation from first principles and
compares them with the recorded data, so the whole catalog doubles as a
regression oracle for the rest of the package.  Each instance derives one
Pearson pair and one moment table, which serves the equation, the recorded
rows and the closed moment formula alike.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Optional, Sequence

import mpmath as mp

from .combin import falling_factorial, pochhammer
from .errors import (
    ConstraintViolated,
    DegenerateSymmetrization,
    DiscsemiError,
    InputError,
)
from .functional import (
    FunctionalSpec,
    PearsonPair,
    moments,
    pearson_pair,
    weight_at,
)
from .hyper import HyperSeries, eval_hyper_finite_sum
from .params import compile_expr
from .polys import Poly, poly_from_root_offsets
from .scalars import (
    DEFAULT_TOL,
    Scalar,
    agree,
    exact_div,
    is_exact,
    parse_rational,
    scalar_is_zero,
    to_mpf,
)
from .stieltjeseq import derive_xi, verify_equation
from .transforms import apply_transform

ROLES = ("canonical", "subcase", "special", "degenerate")
EXCLUSION_KINDS = ("ne", "not_nonneg_int", "lt_one")
SECTION_CLASS = {"4": 0, "5": 1, "6": 2}

_DATA_PATH = Path(__file__).parent / "data" / "catalog.json"


# ---------------------------------------------------------------------------
# entry model


@dataclass(frozen=True)
class CatalogEntry:
    """One named family: shape, defaults, constraints, and recorded forms."""

    id: str
    name: str
    section: str
    role: str
    class_s: Optional[int]
    parent: Optional[str]
    params: dict
    exclusions: tuple
    template: Optional[dict]
    build: Optional[dict]
    variants: Optional[tuple]
    special_values: Optional[dict]
    xi: Optional[dict]
    moments_form: Optional[dict]

    @classmethod
    def from_json(cls, data: dict) -> "CatalogEntry":
        required = {"id", "name", "section", "role", "class", "params"}
        missing = required - set(data)
        if missing:
            raise InputError(
                f"catalog entry is missing field(s): {', '.join(sorted(missing))}"
            )
        role = data["role"]
        if role not in ROLES:
            raise InputError(f"catalog entry {data['id']!r} has unknown role {role!r}")
        if (data.get("template") is None) == (data.get("build") is None):
            raise InputError(
                f"catalog entry {data['id']!r} needs exactly one of template/build"
            )
        if role != "degenerate" and data.get("xi") is None:
            raise InputError(f"catalog entry {data['id']!r} is missing its xi rows")
        for excl in data.get("exclusions", ()):
            if excl.get("kind") not in EXCLUSION_KINDS:
                raise InputError(
                    f"catalog entry {data['id']!r} has unknown exclusion kind "
                    f"{excl.get('kind')!r}"
                )
        variants = data.get("variants")
        return cls(
            id=data["id"],
            name=data["name"],
            section=data["section"],
            role=role,
            class_s=data["class"],
            parent=data.get("parent"),
            params=dict(data["params"]),
            exclusions=tuple(data.get("exclusions", ())),
            template=data.get("template"),
            build=data.get("build"),
            variants=tuple(variants) if variants else None,
            special_values=data.get("special_values"),
            xi=data.get("xi"),
            moments_form=data.get("moments"),
        )

    def to_json(self) -> dict:
        out: dict = {
            "id": self.id,
            "name": self.name,
            "section": self.section,
            "role": self.role,
            "class": self.class_s,
            "parent": self.parent,
            "params": dict(self.params),
        }
        if self.exclusions:
            out["exclusions"] = list(self.exclusions)
        if self.template is not None:
            out["template"] = self.template
        if self.build is not None:
            out["build"] = self.build
        if self.variants is not None:
            out["variants"] = list(self.variants)
        if self.special_values is not None:
            out["special_values"] = self.special_values
        if self.xi is not None:
            out["xi"] = self.xi
        if self.moments_form is not None:
            out["moments"] = self.moments_form
        return out


CATALOG_FORMAT_VERSION = 1


def set_data_path(path) -> None:
    """Point the loader at another data file (CLI override / testing)."""
    global _DATA_PATH
    _DATA_PATH = Path(path)
    catalog_entries.cache_clear()


@lru_cache(maxsize=1)
def catalog_entries() -> dict:
    """All entries keyed by id, in data-file order."""
    raw = json.loads(_DATA_PATH.read_text())
    if not isinstance(raw, dict) or "entries" not in raw:
        raise InputError(
            "the catalog data file must be an object with 'version' and "
            "'entries'"
        )
    version = raw.get("version")
    if version != CATALOG_FORMAT_VERSION:
        raise InputError(
            f"unsupported catalog format version {version!r} "
            f"(this build reads version {CATALOG_FORMAT_VERSION})"
        )
    out: dict[str, CatalogEntry] = {}
    for item in raw["entries"]:
        entry = CatalogEntry.from_json(item)
        if entry.id in out:
            raise InputError(f"duplicate catalog id {entry.id!r}")
        out[entry.id] = entry
    return out


def get_entry(entry_id: str) -> CatalogEntry:
    entries = catalog_entries()
    if entry_id not in entries:
        raise InputError(
            f"unknown catalog id {entry_id!r}; see the catalog listing for "
            f"available families"
        )
    return entries[entry_id]


def list_entries(role: Optional[str] = None, parent: Optional[str] = None) -> list:
    """Entries filtered by role and/or parent id."""
    out = []
    for entry in catalog_entries().values():
        if role is not None and entry.role != role:
            continue
        if parent is not None and entry.parent != parent:
            continue
        out.append(entry)
    return out


# ---------------------------------------------------------------------------
# parameter resolution


_GREEK_KEYS = {"ω": "omega", "Ω": "Omega", "ν": "nu"}


@lru_cache(maxsize=None)
def _compile_once(text: str) -> tuple:
    return compile_expr(text)


def _eval_expr(text: str, values: dict) -> Fraction:
    evaluate, names = _compile_once(str(text))
    for name in names:
        if name not in values:
            raise InputError(f"unknown symbol {name!r} in expression")
    return evaluate(values)


def resolve_params(entry: CatalogEntry, assignments: Optional[dict] = None) -> dict:
    """Merge defaults with assignments and enforce the entry's constraints.

    Returns the full symbol table (including any variant-derived values),
    raising ``InputError`` for malformed requests and ``ConstraintViolated``
    when a documented validity condition fails.
    """
    assignments = dict(assignments or {})
    normalized: dict[str, object] = {}
    for key, value in assignments.items():
        key = _GREEK_KEYS.get(key, key)
        normalized[key] = value
    variant_idx = normalized.pop("variant", 0)
    if not isinstance(variant_idx, int) or isinstance(variant_idx, bool):
        raise InputError("'variant' must be an integer index")
    if entry.variants is None:
        if variant_idx != 0:
            raise InputError(f"catalog entry {entry.id!r} has no variants")
    elif not 0 <= variant_idx < len(entry.variants):
        raise InputError(
            f"variant index {variant_idx} out of range for {entry.id!r} "
            f"(has {len(entry.variants)})"
        )
    unknown = set(normalized) - set(entry.params)
    if unknown:
        raise InputError(
            f"unknown parameter(s) {sorted(unknown)} for catalog entry "
            f"{entry.id!r}; expected {sorted(entry.params)}"
        )
    values: dict[str, Fraction] = {}
    for name, default in entry.params.items():
        values[name] = parse_rational(normalized.get(name, default))
    if entry.variants is not None:
        variant = entry.variants[variant_idx]
        values["omega"] = _eval_expr(variant["omega"], values)
        values["Omega"] = _eval_expr(variant["Omega"], values)
    for name in ("N", "m"):
        if name in values:
            v = values[name]
            if v.denominator != 1 or v < 1:
                raise InputError(
                    f"parameter {name} of {entry.id!r} must be a positive "
                    f"integer (got {v})"
                )
    for excl in entry.exclusions:
        pname = excl["param"]
        v = values[pname]
        kind = excl["kind"]
        if kind == "ne":
            bound = _eval_expr(excl["value"], values)
            if v == bound:
                raise ConstraintViolated(
                    f"{entry.id} requires {pname} != {excl['value']} (got {v})"
                )
        elif kind == "not_nonneg_int":
            if v.denominator == 1 and v >= 0:
                raise ConstraintViolated(
                    f"{entry.id} requires {pname} outside the nonnegative "
                    f"integers (got {v})"
                )
        else:  # lt_one
            if v >= 1:
                raise ConstraintViolated(
                    f"{entry.id} requires {pname} < 1 (got {v})"
                )
    return values


def _spec_from_lists(shape: dict, values: dict) -> FunctionalSpec:
    return FunctionalSpec(
        a=[_eval_expr(e, values) for e in shape.get("a", [])],
        b=[_eval_expr(e, values) for e in shape.get("b", [])],
        z=_eval_expr(shape["z"], values),
    )


def _build_spec(entry: CatalogEntry, values: dict, tol: Scalar) -> FunctionalSpec:
    if entry.template is not None:
        return _spec_from_lists(entry.template, values)
    base = _spec_from_lists(entry.build["base"], values)
    data = {}
    for key, text in entry.build["transform"].items():
        value = text if key == "kind" else _eval_expr(text, values)
        data[key] = int(value) if key in ("N", "m") else value
    spec, _table = apply_transform(base, data, tol)
    return spec


def instantiate(
    entry_id: str, assignments: Optional[dict] = None, tol: Scalar = DEFAULT_TOL
) -> FunctionalSpec:
    """Resolve a catalog entry into a concrete functional specification.

    ``assignments`` overrides the entry's default parameter values; the key
    ``variant`` selects among recorded point placements where an entry has
    several.  Documented constraints are enforced (``ConstraintViolated``),
    and entries recorded as degenerate raise the error that makes them so.
    """
    entry = get_entry(entry_id)
    values = resolve_params(entry, assignments)
    return _build_spec(entry, values, tol)


# ---------------------------------------------------------------------------
# closed moment formulas


def _chu_vandermonde(N: Fraction, A: Fraction, B: Fraction, n: int):
    N = int(N)
    if n > N:
        return Fraction(0)
    head = exact_div(pochhammer(-N, n) * pochhammer(A, n), pochhammer(B + 1, n))
    tail = exact_div(pochhammer(B + 1 - A, N - n), pochhammer(B + 1 + n, N - n))
    return head * tail


def moment_formula(entry: CatalogEntry, values: dict, n: int):
    """Closed-form moment value recorded for the entry, or ``None``.

    The formulas here are algebraically independent of the series summation
    used by :func:`~discsemi.functional.moments`, which is what makes them
    useful as cross-checks.
    """
    if entry.moments_form is None:
        return None
    return _eval_form(entry.moments_form, values, n)


def _eval_form(form: dict, values: dict, n: int):
    kind = form["form"]
    args = form.get("args", {})

    def ev(name):
        return _eval_expr(args[name], values)

    if kind == "poisson":
        z = ev("z")
        return to_mpf(z) ** n * mp.exp(to_mpf(z))
    if kind == "negative-binomial":
        a, z = ev("a"), ev("z")
        return (
            to_mpf(z) ** n
            * to_mpf(pochhammer(a, n))
            * mp.power(to_mpf(1 - z), to_mpf(-(a + n)))
        )
    if kind == "binomial":
        N, z = int(ev("N")), ev("z")
        head = pochhammer(-N, n)
        if scalar_is_zero(head):
            return Fraction(0)
        return z**n * head * (1 - z) ** (N - n)
    if kind == "symmetric-binomial":
        m = int(ev("m"))
        head = pochhammer(-2 * m, n)
        if scalar_is_zero(head):
            return Fraction(0)
        return (-1) ** n * head * Fraction(2) ** (2 * m - n)
    if kind == "chu-vandermonde":
        return _chu_vandermonde(ev("N"), ev("A"), ev("B"), n)
    if kind == "with-mass":
        base = _eval_form(form["base"], values, n)
        omega, M = _eval_expr(args["omega"], values), _eval_expr(args["M"], values)
        return base + M * falling_factorial(omega, n)
    if kind == "christoffel-shift":
        omega = _eval_expr(args["omega"], values)
        return _eval_form(form["base"], values, n + 1) + (n - omega) * _eval_form(
            form["base"], values, n
        )
    if kind == "truncated-reversed":
        a_list = [_eval_expr(e, values) for e in args["a"]]
        b_list = [_eval_expr(e, values) for e in args["b"]]
        z, N = ev("z"), int(ev("N"))
        if n > N:
            return Fraction(0)
        pref: Scalar = z**N
        for ai in a_list:
            pref = pref * pochhammer(ai, N)
        for bj in b_list:
            pref = exact_div(pref, pochhammer(bj + 1, N))
        pref = exact_div(pref, math.factorial(N - n))
        sign = (-1) ** (1 + len(a_list) + len(b_list))
        series = HyperSeries(
            tuple([Fraction(n - N), Fraction(1)] + [-N - bj for bj in b_list]),
            tuple(1 - N - ai for ai in a_list),
            exact_div(sign, z),
        )
        return pref * eval_hyper_finite_sum(series, N - n)
    raise InputError(f"unknown moment formula kind {kind!r}")


# ---------------------------------------------------------------------------
# regression suite


def _assemble_rows(rows: Sequence[Sequence[str]], values: dict, nu) -> Poly:
    """The polynomial sum_n (sum_j rows[n][j] t^j) * nu[n]."""
    total = Poly()
    for n, row in enumerate(rows):
        coeffs = [_eval_expr(text, values) for text in row]
        total = total + Poly(coeffs) * nu[n]
    return total


def _max_error(pairs, tol: Scalar) -> tuple:
    """(max error, all within tolerance?) over ``(got, want)`` pairs; an
    equal exact pair leaves the maximum alone, so all-exact agreement
    reports the int 0."""
    worst: Scalar = 0
    ok_all = True
    for got, want in pairs:
        err, ok = agree(got, want, tol)
        if not is_exact(err):
            worst = max(to_mpf(worst), err)
        ok_all = ok_all and ok
    return worst, ok_all


def _pearson_residual(spec: FunctionalSpec, pair: PearsonPair, points: int = 6):
    """Max |sigma(x+1)rho(x+1) - eta(x)rho(x)| over leading support points."""
    shift = spec.basis_shift
    upper = spec.weight_upper_bound()
    lo = -shift
    count = points if upper is None else min(points, upper)
    worst: Scalar = 0
    rho = [weight_at(spec, x) for x in range(lo, lo + count + 1)]
    for i, x in enumerate(range(lo, lo + count)):
        diff = pair.sigma(x + 1) * rho[i + 1] - pair.eta(x) * rho[i]
        if not scalar_is_zero(diff):
            worst = max(to_mpf(worst), abs(to_mpf(diff)))
    return worst


def _parent_pair_from_values(
    parent: CatalogEntry, sv_values: dict, shift: int
) -> tuple:
    """(eta, sigma) of the parent template at substituted parameter values."""
    template = parent.template
    a_vals = [_eval_expr(e, sv_values) for e in template.get("a", [])]
    b_vals = [_eval_expr(e, sv_values) for e in template.get("b", [])]
    z_val = _eval_expr(template["z"], sv_values)
    eta = poly_from_root_offsets(a_vals, leading=z_val)
    sigma = poly_from_root_offsets(b_vals) * Poly((0, 1))
    return eta.shift(shift), sigma.shift(shift)


def _check_instance(
    entry: CatalogEntry, values: dict, tol: Scalar, max_moment: int
) -> dict:
    checks: dict = {}
    # Quantities being *compared at* ``tol`` are *computed at* a tighter
    # tolerance so truncation error in the moment series cannot eat the
    # whole comparison budget.
    inner = exact_div(tol, 10**8)
    spec = _build_spec(entry, values, inner)
    pair = pearson_pair(spec)

    residual = _pearson_residual(spec, pair)
    checks["pearson_residual"] = {
        "max": residual,
        "pass": scalar_is_zero(residual),
    }

    checks["class"] = {
        "expected": entry.class_s,
        "derived": pair.class_s,
        "pass": pair.class_s == entry.class_s,
    }

    # one table serves xi, the recorded rows and the moment formula: each
    # nu_n is summed on its own, so a longer table agrees on its head
    K = pair.class_s if entry.moments_form is None else max(pair.class_s, max_moment)
    table = moments(spec, K, inner)
    eq = derive_xi(pair, table)
    assembled = Poly()
    if entry.xi.get("rows_self"):
        assembled = assembled + _assemble_rows(entry.xi["rows_self"], values, table)
    if entry.xi.get("rows_base"):
        base_spec = _spec_from_lists(entry.build["base"], values)
        base_table = moments(base_spec, pair.class_s, inner)
        assembled = assembled + _assemble_rows(
            entry.xi["rows_base"], values, base_table
        )
    width = max(len(assembled.coeffs), len(eq.xi.coeffs))
    xi_err, xi_ok = _max_error(
        ((assembled.coeff(j), eq.xi.coeff(j)) for j in range(width)), tol
    )
    checks["xi_identity"] = {"max_error": xi_err, "pass": xi_ok}

    verdict = verify_equation(spec, eq, tol=tol)
    checks["equation_residuals"] = {
        "max": max(s["residual"] for s in verdict["samples"]),
        "pass": verdict["pass"],
    }

    if entry.moments_form is not None:
        worst, ok = _max_error(
            ((moment_formula(entry, values, n), table[n])
             for n in range(max_moment + 1)),
            tol,
        )
        checks["moment_formula"] = {"max_error": worst, "pass": ok}

    if entry.special_values is not None:
        parent = get_entry(entry.parent)
        sv_values = dict(values)
        for pname, expr in entry.special_values["map"].items():
            sv_values[pname] = _eval_expr(expr, values)
        eta_t, sigma_t = _parent_pair_from_values(
            parent, sv_values, spec.basis_shift
        )
        checks["special_values"] = {
            "pass": eta_t == pair.eta and sigma_t == pair.sigma
        }

    checks["pass"] = all(
        c["pass"] for c in checks.values() if isinstance(c, dict)
    )
    return checks


def _check_entry(entry: CatalogEntry, tol: Scalar, max_moment: int) -> dict:
    report: dict = {
        "id": entry.id,
        "name": entry.name,
        "section": entry.section,
        "role": entry.role,
    }
    if entry.role == "degenerate":
        try:
            instantiate(entry.id)
        except DegenerateSymmetrization as exc:
            report["expected_failure"] = str(exc)
            report["pass"] = True
        except DiscsemiError as exc:
            report["expected_failure"] = f"wrong failure mode: {exc}"
            report["pass"] = False
        else:
            report["expected_failure"] = "entry unexpectedly instantiated"
            report["pass"] = False
        return report

    n_variants = len(entry.variants) if entry.variants else 1
    runs = []
    ok = True
    for idx in range(n_variants):
        values = resolve_params(entry, {"variant": idx} if entry.variants else None)
        checks = _check_instance(entry, values, tol, max_moment)
        if entry.variants:
            checks["variant"] = idx
        runs.append(checks)
        ok = ok and checks["pass"]
    report["runs"] = runs
    report["pass"] = ok
    return report


def regression_suite(
    tol: Scalar = DEFAULT_TOL,
    ids: Optional[Sequence[str]] = None,
    max_moment: int = 8,
    dps: int = 60,
) -> dict:
    """Re-derive every catalog entry and compare with its recorded forms.

    For each entry (and each recorded point placement of entries that have
    several) this instantiates the family at its default parameters and
    checks: the weight satisfies the Pearson ratio of the derived pair
    exactly; the derived class matches the recorded one; the recorded
    moment-linear forms assemble to the same right-hand side polynomial as
    the first-principles derivation; the difference equation holds at
    off-support sample points; recorded closed moment formulas match the
    computed moments through ``max_moment``; and for transformation
    subcases, substituting the recorded special values into the parent
    template reproduces the derived Pearson pair exactly.  Degenerate
    entries must fail in their recorded way.  The report also fails when
    the loaded catalog is incomplete (15 canonical + 42 subcase entries)
    or a recorded class disagrees with its chapter.
    """
    entries = catalog_entries()
    if ids is None:
        chosen = list(entries.values())
    else:
        chosen = [get_entry(i) for i in ids]
    results = []
    overall = True
    with mp.workdps(dps):
        for entry in chosen:
            try:
                result = _check_entry(entry, tol, max_moment)
            except DiscsemiError as exc:
                result = {
                    "id": entry.id,
                    "section": entry.section,
                    "role": entry.role,
                    "error": f"{type(exc).__name__}: {exc}",
                    "pass": False,
                }
            results.append(result)
            overall = overall and result["pass"]
    counts: dict[str, int] = {}
    for entry in entries.values():
        counts[entry.role] = counts.get(entry.role, 0) + 1
    complete = counts.get("canonical") == 15 and counts.get("subcase") == 42
    section_class_ok = all(
        entry.class_s == SECTION_CLASS[entry.section.split(".")[0]]
        for entry in entries.values()
        if entry.role != "degenerate"
    )
    return {
        "pass": overall and complete and section_class_ok,
        "counts": counts,
        "complete": complete,
        "section_class_consistent": section_class_ok,
        "entries": results,
    }
