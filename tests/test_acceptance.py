"""Acceptance criteria, one test (and one PASS/FAIL line) per criterion.

Each test exercises the stated property at its stated tolerance and prints
a single summary line; the assertion carries the same label so failures
are identifiable in both plain and verbose runs.
"""

import json
import math
from fractions import Fraction
from pathlib import Path

from mpmath import mp

from discsemi.catalog import (
    catalog_entries,
    _build_spec,
    _eval_expr,
    get_entry,
    instantiate,
    moment_formula,
    regression_suite,
    resolve_params,
    set_data_path,
)
from discsemi.combin import falling_factorial, pochhammer
from discsemi.errors import (
    ConstraintViolated,
    DegenerateSymmetrization,
    TruncationAtEtaRoot,
)
from discsemi.functional import (
    FunctionalSpec,
    functional_of_poly,
    moments,
    pearson_pair,
    stieltjes_eval,
    weight_at,
)
from discsemi.orthopoly import (
    chebyshev_from_moments,
    orthogonality_check,
    recurrence_from_moments,
)
from discsemi.scalars import is_exact, to_mpf
from discsemi.stieltjeseq import derive_equation, verify_equation
from discsemi.transforms import (
    apply_christoffel,
    apply_geronimus,
    apply_symmetrization,
    apply_truncation,
    compose_check,
)

F = Fraction
TOL = F(1, 10**30)


def _report(number: int, label: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {label}")
    assert ok, f"criterion {number}: {label}"


# ---------------------------------------------------------------------------
# 1. class table


def test_criterion_1_class_table():
    bad = []
    for entry in catalog_entries().values():
        if entry.role != "canonical":
            continue
        spec = instantiate(entry.id)
        derived = pearson_pair(spec).class_s
        if derived != entry.class_s:
            bad.append((entry.id, derived, entry.class_s))
    ok = not bad and sum(
        e.role == "canonical" for e in catalog_entries().values()
    ) == 15
    _report(1, "all 15 canonical families classify exactly "
               f"(mismatches: {bad})", ok)


# ---------------------------------------------------------------------------
# 2. xi regression as an identity in the moments and the parameters


def _recorded_matrix(entry, values):
    out = {}
    for nu_idx, row in enumerate(entry.xi["rows_self"]):
        for t_pow, expr in enumerate(row):
            coeff = _eval_expr(expr, values)
            if coeff != 0:
                out[(t_pow, nu_idx)] = coeff
    return out


def _derived_matrix(eq):
    out = {}
    for t_pow, row in enumerate(eq.xi_symbolic or ()):
        for nu_idx, coeff in enumerate(row):
            coeff = F(coeff)
            if coeff != 0:
                out[(t_pow, nu_idx)] = coeff
    return out


def _perturbations(entry):
    """Default parameters plus two generic rational reshufflings."""
    sets = [dict()]
    for k1, k2 in ((F(7, 8), F(1, 9)), (F(9, 7), F(-1, 11))):
        assignment = {}
        for name, default in entry.params.items():
            if name in ("N", "m"):
                continue
            assignment[name] = F(default) * k1 + k2
        sets.append(assignment)
    return sets


def test_criterion_2_xi_identity():
    with mp.workdps(60):
        named = {"0,0", "1,1", "2,1;N,1", "4,3;N,1"}
        matched, mismatched = set(), []
        for entry in catalog_entries().values():
            if entry.role == "degenerate" or not entry.xi:
                continue
            if "rows_base" in entry.xi or "rows_self" not in entry.xi:
                continue  # display recorded over another family's moments
            for assignment in _perturbations(entry):
                try:
                    values = resolve_params(entry, assignment)
                    spec = _build_spec(entry, values, TOL)
                    eq = derive_equation(spec, TOL)
                except (ConstraintViolated, TruncationAtEtaRoot):
                    continue  # a reshuffled parameter left the family's domain
                want = _recorded_matrix(entry, values)
                got = _derived_matrix(eq)
                if got == want:
                    matched.add(entry.id)
                else:
                    mismatched.append((entry.id, assignment))
    ok = (
        not mismatched
        and len(matched) >= 12
        and named <= matched
    )
    _report(2, f"recorded right-hand sides match the derivation "
               f"coefficient-for-coefficient in nu_0..nu_2 for "
               f"{len(matched)} families at 3 parameter sets "
               f"(mismatches: {mismatched[:3]})", ok)


# ---------------------------------------------------------------------------
# 3. numeric residuals of the difference equation


def test_criterion_3_equation_residuals():
    bound = mp.mpf(10) ** -20
    worst_float = mp.mpf(0)
    exact_failures, float_failures = [], []
    with mp.workdps(50):
        for entry in catalog_entries().values():
            if entry.role == "degenerate":
                continue
            spec = instantiate(entry.id, tol=F(1, 10**28))
            eq = derive_equation(spec, F(1, 10**28))
            verdict = verify_equation(spec, eq, tol=F(1, 10**20))
            for sample in verdict["samples"]:
                if sample["exact"]:
                    if sample["residual"] != 0:
                        exact_failures.append(entry.id)
                else:
                    residual = abs(to_mpf(sample["residual"]))
                    worst_float = max(worst_float, residual)
                    if residual > bound:
                        float_failures.append(entry.id)
    ok = not exact_failures and not float_failures
    _report(3, "3-point residuals: exact 0 on finite support, "
               f"max {mp.nstr(worst_float, 3)} <= 1e-20 elsewhere "
               f"(failures: {exact_failures + float_failures})", ok)


# ---------------------------------------------------------------------------
# 4. closed moment formulas against brute-force summation


def _brute_moment(spec, n, cutoff=300):
    shift = spec.basis_shift
    upper = spec.weight_upper_bound()
    stop = upper if upper is not None else cutoff
    total = 0
    for u in range(stop + 1):
        total = total + weight_at(spec, u - shift) * falling_factorial(u, n)
    for mass in spec.merged_masses():
        total = total + mass.M * falling_factorial(mass.omega + shift, n)
    return total


def test_criterion_4_moment_oracles():
    cases = [
        ("0,0", {}),                             # z^n e^z
        ("1,0", {}),                             # z^n (a)_n (1-z)^(-a-n)
        ("1,0;N", {}),                           # z^n (-N)_n (1-z)^(N-n)
        ("2,1;N,1", {}),                         # Chu-Vandermonde sum
        ("1,0;N/symmetrized-charlier", {}),      # signed central binomial
    ]
    failures = []
    with mp.workdps(50):
        for entry_id, assignment in cases:
            entry = get_entry(entry_id)
            values = resolve_params(entry, assignment)
            spec = _build_spec(entry, values, TOL)
            for n in range(9):
                want = moment_formula(entry, values, n)
                got = _brute_moment(spec, n)
                if is_exact(want) and is_exact(got):
                    if want != got:
                        failures.append((entry_id, n))
                else:
                    err = abs(to_mpf(got) - to_mpf(want))
                    if err > mp.mpf(10) ** -20 * (1 + abs(to_mpf(want))):
                        failures.append((entry_id, n))
    _report(4, "five closed moment forms match brute-force sums for "
               f"n <= 8 (failures: {failures})", not failures)


# ---------------------------------------------------------------------------
# 5. transformation composition laws and moment recurrences


def test_criterion_5_transformation_laws():
    omega, M = F(-3, 2), F(1, 2)
    problems = []
    with mp.workdps(60):
        for label, spec in (
            ("charlier", FunctionalSpec(a=[], b=[], z=F(1, 2))),
            ("generalized meixner",
             FunctionalSpec(a=[F(1, 3)], b=[F(1, 2)], z=F(1, 2))),
        ):
            report = compose_check(spec, omega, M, tol=F(1, 10**36))
            if not (report["pass"] and report["round_trip_exact"]):
                problems.append(f"composition on {label}")

        # moment recurrences on an exact (terminating) family, n <= 10
        base_spec = FunctionalSpec(a=[F(1, 3), -12], b=[F(1, 2)], z=1)
        base = moments(base_spec, 12, TOL)
        c_table = moments(apply_christoffel(base_spec, omega, TOL), 11, TOL)
        for n in range(11):
            if c_table[n] != base[n + 1] + (n - omega) * base[n]:
                problems.append(f"multiply-step recurrence at n={n}")
                break
        g_table = moments(apply_geronimus(base_spec, omega, M, TOL), 11, TOL)
        for n in range(11):
            if base[n] != g_table[n + 1] + (n - omega) * g_table[n]:
                problems.append(f"divide-step recurrence at n={n}")
                break
        if g_table[0] != M - stieltjes_eval(base_spec, omega, TOL):
            problems.append("divide-step nu_0 is not M - S(omega)")
    _report(5, "composition laws recover the original/extended functional "
               "and the moment recurrences hold exactly for n <= 10 "
               f"(problems: {problems})", not problems)


# ---------------------------------------------------------------------------
# 6. degeneracy detection


def test_criterion_6_degeneracy_detection():
    problems = []

    # the symmetrized terminating z=1 family has identically zero moments
    m = 2
    def one_sided_moment(n):
        return sum(
            F(pochhammer(-2 * m, u), math.factorial(u)) * falling_factorial(u, n)
            for u in range(2 * m + 1)
        )

    if any(one_sided_moment(n) != 0 for n in range(2 * m)):
        problems.append("expected all-zero moments below degree 2m")
    if one_sided_moment(2 * m) == 0:
        problems.append("degree-2m moment should break the pattern")

    try:
        instantiate("1,0;N/symmetrized-krawtchouk")
        problems.append("degenerate entry instantiated")
    except DegenerateSymmetrization:
        pass
    try:
        apply_symmetrization(FunctionalSpec(a=[-4], b=[], z=F(1, 2)), 2)
        problems.append("direct symmetrization not flagged")
    except DegenerateSymmetrization:
        pass

    try:
        apply_truncation(FunctionalSpec(a=[-4], b=[], z=F(1, 2)), 4)
        problems.append("truncation at a numerator root not flagged")
    except TruncationAtEtaRoot:
        pass

    try:
        apply_geronimus(FunctionalSpec(a=[], b=[], z=F(1, 2)), 3, 1)
        problems.append("division point on the support lattice not flagged")
    except ConstraintViolated:
        pass

    _report(6, "degenerate symmetrization, truncation at a numerator root, "
               "and on-lattice division points are all flagged "
               f"(problems: {problems})", not problems)


# ---------------------------------------------------------------------------
# 7. catalog completeness


def test_criterion_7_catalog_completeness(tmp_path):
    entries = catalog_entries()
    counts = {}
    for entry in entries.values():
        counts[entry.role] = counts.get(entry.role, 0) + 1
    anchors_ok = all(
        entry.section and entry.section.split(".")[0] in ("4", "5", "6")
        for entry in entries.values()
    )
    complete = counts.get("canonical") == 15 and counts.get("subcase") == 42

    # removing an entry must fail the suite, not just shrink it
    bundled = Path(__file__).parent.parent / "src" / "discsemi" / "data"
    data = json.loads((bundled / "catalog.json").read_text())
    data["entries"] = [e for e in data["entries"] if e["id"] != "2,2"]
    reduced = tmp_path / "reduced.json"
    reduced.write_text(json.dumps(data))
    try:
        set_data_path(reduced)
        tampered = regression_suite(tol=TOL, ids=["0,0"])
    finally:
        set_data_path(bundled / "catalog.json")
    tamper_detected = (
        tampered["pass"] is False and tampered["complete"] is False
    )
    ok = complete and anchors_ok and tamper_detected
    _report(7, f"catalog holds 15 canonical + 42 subcase entries with "
               f"chapter anchors, and the suite fails on a count mismatch "
               f"(counts: {counts})", ok)


# ---------------------------------------------------------------------------
# 8. orthogonality of recurrence-generated polynomials


def _exact_gram_zero(spec, K):
    table = moments(spec, 2 * K, TOL)
    rec = recurrence_from_moments(table, K)
    cheb = chebyshev_from_moments(table, K)
    if rec.alpha != cheb.alpha or rec.beta != cheb.beta:
        return False
    polys = rec.polynomials(K)
    for i in range(K + 1):
        for j in range(K + 1):
            value = functional_of_poly(table, polys[i] * polys[j])
            if i == j:
                if value == 0:
                    return False
            elif not (is_exact(value) and value == 0):
                return False
    return True


def test_criterion_8_orthogonality():
    problems = []
    with mp.workdps(50):
        if not _exact_gram_zero(instantiate("1,0;N"), 4):
            problems.append("terminating family N=4 not exactly orthogonal")
        if not _exact_gram_zero(instantiate("2,1;N,1"), 4):
            problems.append("three-parameter terminating family not exact")

        for entry_id in ("0,0", "1,0"):
            spec = instantiate(entry_id)
            table = moments(spec, 12, F(1, 10**36))
            rec = chebyshev_from_moments(table, 6)
            check = orthogonality_check(spec, rec, 6, tol=F(1, 10**18))
            if not check["pass"]:
                problems.append(f"{entry_id} off-diagonals exceed 1e-18")
    _report(8, "recurrence output is orthogonal: exact Gram zeros on the "
               "terminating families, <= 1e-18 relative at degree 6 on the "
               f"infinite ones, both algorithms agreeing (problems: "
               f"{problems})", not problems)
