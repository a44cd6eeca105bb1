"""Tests for the bundled family catalog and its regression suite."""

import dataclasses
from collections import Counter
from fractions import Fraction

import pytest
from mpmath import mp

import discsemi.catalog
from discsemi.catalog import (
    CATALOG_FORMAT_VERSION,
    SECTION_CLASS,
    _build_spec,
    _check_instance,
    _compile_once,
    _eval_expr,
    catalog_entries,
    get_entry,
    instantiate,
    list_entries,
    moment_formula,
    regression_suite,
    resolve_params,
)
from discsemi.errors import (
    ConstraintViolated,
    DegenerateSymmetrization,
    InputError,
)
from discsemi.functional import FunctionalSpec, moments, pearson_pair
from discsemi.params import compile_expr
from discsemi.stieltjeseq import derive_equation, derive_xi

mp.dps = 60

TOL = Fraction(1, 10**30)
F = Fraction


# --------------------------------------------------------------------- counts


def test_role_counts():
    entries = catalog_entries()
    assert len(entries) == 59
    by_role = {}
    for entry in entries.values():
        by_role[entry.role] = by_role.get(entry.role, 0) + 1
    assert by_role == {"canonical": 15, "subcase": 42, "special": 1,
                       "degenerate": 1}


def test_counts_per_class_chapter():
    # class 0: 3 canonical + 3 subcases; class 1: 5 + 14; class 2: 7 + 25
    want = {"4": (3, 3), "5": (5, 14), "6": (7, 25)}
    got = {k: [0, 0] for k in want}
    for entry in catalog_entries().values():
        head = entry.section.split(".")[0]
        if entry.role == "canonical":
            got[head][0] += 1
        elif entry.role == "subcase":
            got[head][1] += 1
    assert {k: tuple(v) for k, v in got.items()} == want


def test_section_anchor_matches_recorded_class():
    for entry in catalog_entries().values():
        if entry.role == "degenerate":
            assert entry.class_s is None
            continue
        assert entry.class_s == SECTION_CLASS[entry.section.split(".")[0]]


def test_parents_exist_and_listing_filters():
    entries = catalog_entries()
    for entry in entries.values():
        if entry.parent is not None:
            assert entry.parent in entries
            assert entries[entry.parent].role in ("canonical", "special")
    canonical = list_entries(role="canonical")
    assert len(canonical) == 15
    children = list_entries(parent="2,2")
    assert {e.id for e in children} == {
        "2,2/uvarov", "2,2/reduced-uvarov", "2,2/christoffel",
        "2,2/geronimus", "2,2/truncated",
    }


def test_known_ids_present():
    entries = catalog_entries()
    for entry_id in [
        "0,0", "1,0", "1,0;N", "2,1;N,1", "0,1", "1,1", "2,0;N", "2,1",
        "3,2;N,1", "0,2", "1,2", "2,2", "3,0;N", "3,1;N", "3,2", "4,3;N,1",
        "2,1/geronimus", "3,2;N,1/geronimus", "2,2/uvarov", "3,2/truncated",
        "4,3;N,1/symmetrized-1,2", "1,0;N/symmetrized-krawtchouk",
    ]:
        assert entry_id in entries


# -------------------------------------------------------------- instantiation


def test_instantiate_charlier():
    spec = instantiate("0,0", {"z": F(1, 2)})
    assert spec.a == () and spec.b == () and spec.z == F(1, 2)
    assert pearson_pair(spec).class_s == 0


def test_krawtchouk_rejects_z_one():
    with pytest.raises(ConstraintViolated, match=r"z != 1"):
        instantiate("1,0;N", {"N": 4, "z": 1})


def test_geronimus_meixner_shape():
    # two numerator parameters and one denominator parameter, with the
    # divided-out point carrying a mass
    spec = instantiate(
        "2,1/geronimus",
        {"a": F(1, 3), "omega": F(-1, 2), "z": F(1, 4), "M": 1},
    )
    assert sorted(spec.a) == [F(1, 3), F(1, 2)]
    assert list(spec.b) == [F(1, 2)]
    assert spec.z == F(1, 4)
    assert len(spec.masses) == 1 and spec.masses[0].omega == F(-1, 2)
    assert pearson_pair(spec).class_s == 1


def test_greek_parameter_keys_accepted():
    plain = instantiate("2,1/geronimus", {"omega": F(-1, 2)})
    greek = instantiate("2,1/geronimus", {"ω": F(-1, 2)})
    assert plain == greek


def test_unknown_id_and_parameter_rejected():
    with pytest.raises(InputError, match="unknown catalog id"):
        get_entry("9,9")
    with pytest.raises(InputError, match="unknown parameter"):
        instantiate("0,0", {"q": 1})


def test_variant_index_validation():
    with pytest.raises(InputError, match="out of range"):
        instantiate("3,2;N,1/reduced-uvarov", {"variant": 4})
    with pytest.raises(InputError, match="no variants"):
        instantiate("0,0", {"variant": 1})
    with pytest.raises(InputError, match="integer index"):
        instantiate("3,2;N,1/reduced-uvarov", {"variant": "0"})


def test_unknown_transform_kind_in_build_rejected():
    entry = get_entry("1,1/christoffel")
    transform = dict(entry.build["transform"], kind="moebius")
    bad = dataclasses.replace(entry, build=dict(entry.build, transform=transform))
    with pytest.raises(InputError, match="unknown transformation kind"):
        _build_spec(bad, resolve_params(entry), TOL)


def test_variants_place_the_recorded_mass_points():
    # defaults a = 1/3, b = 1/2, N = 4; the four recorded placements sit at
    # 0, -a, -b, and N
    for idx, point in enumerate([F(0), F(-1, 3), F(-1, 2), F(4)]):
        spec = instantiate("3,2;N,1/reduced-uvarov", {"variant": idx})
        assert [m.omega for m in spec.masses] == [point]


def test_exclusions_not_nonneg_int_and_lt_one():
    with pytest.raises(ConstraintViolated, match="nonnegative"):
        instantiate("2,1/geronimus", {"omega": 2})
    with pytest.raises(ConstraintViolated, match="< 1"):
        instantiate("1,0", {"z": F(3, 2)})


def test_positive_integer_parameters_enforced():
    with pytest.raises(InputError, match="positive integer"):
        instantiate("1,0;N", {"N": F(7, 2)})
    with pytest.raises(InputError, match="positive integer"):
        instantiate("3,2/symmetrized-0,2", {"m": 0})


def test_degenerate_symmetrization_raises():
    with pytest.raises(DegenerateSymmetrization):
        instantiate("1,0;N/symmetrized-krawtchouk")


# ------------------------------------------------------------- recorded forms


def test_special_values_reduce_to_parent_pair():
    # the recorded substitution a1 -> a, a2 -> -omega, b -> -omega must give
    # the same Pearson pair as direct instantiation
    a, omega, z = F(1, 3), F(-1, 2), F(1, 4)
    spec = instantiate("2,1/geronimus", {"a": a, "omega": omega, "z": z})
    parent = FunctionalSpec(a=[a, -omega], b=[-omega], z=z)
    got, want = pearson_pair(spec), pearson_pair(parent)
    assert got.eta == want.eta and got.sigma == want.sigma


def test_moment_formula_binomial_exact():
    entry = get_entry("1,0;N")
    values = resolve_params(entry, {"N": 5, "z": F(1, 3)})
    spec = instantiate("1,0;N", {"N": 5, "z": F(1, 3)})
    table = moments(spec, 6, TOL)
    for n in range(7):
        want = moment_formula(entry, values, n)
        assert isinstance(want, Fraction)
        assert want == table[n]


def test_moment_formula_entries_without_formula():
    entry = get_entry("1,1")
    values = resolve_params(entry)
    assert moment_formula(entry, values, 0) is None


def test_recorded_tables_hold_at_second_parameter_set():
    # the recorded linear forms are parameter-level identities, so they
    # must keep matching the first-principles derivation away from the
    # default instantiation point
    overrides = {"a1": F(2, 7), "a2": F(3, 11), "b1": F(4, 9),
                 "b2": F(5, 7), "N": 5}
    for entry_id in ("3,2;N,1", "4,3;N,1/christoffel", "4,3;N,1/geronimus"):
        entry = get_entry(entry_id)
        chosen = {k: v for k, v in overrides.items() if k in entry.params}
        values = resolve_params(entry, chosen)
        checks = _check_instance(entry, values, TOL, max_moment=4)
        assert checks["pass"], (entry_id, checks)


def test_deviation_markers_are_exactly_the_known_ones():
    marked = {}
    for entry in catalog_entries().values():
        statuses = []
        if entry.xi and entry.xi.get("status") != "printed":
            statuses.append("xi=" + entry.xi["status"])
        if entry.special_values and entry.special_values["status"] != "printed":
            statuses.append("sv=" + entry.special_values["status"])
        if entry.moments_form and entry.moments_form.get(
                "status", "printed") != "printed":
            statuses.append("mom=" + entry.moments_form["status"])
        if statuses:
            marked[entry.id] = statuses
    assert marked == {
        "3,2;N,1": ["xi=corrected"],
        "3,2;N,1/reduced-uvarov": ["sv=corrected"],
        "1,2/reduced-uvarov": ["xi=generalized"],
        "2,2/truncated": ["mom=corrected"],
        "3,2/symmetrized-generalized-meixner": ["sv=corrected"],
        "4,3;N,1/christoffel": ["xi=corrected"],
        "4,3;N,1/geronimus": ["xi=corrected"],
    }


# --------------------------------------------------------------------- suite


def test_regression_suite_full_pass():
    report = regression_suite(tol=TOL)
    assert report["pass"] is True
    assert report["counts"] == {"canonical": 15, "subcase": 42,
                                "special": 1, "degenerate": 1}
    assert report["section_class_consistent"] is True
    assert len(report["entries"]) == 59
    failing = [r["id"] for r in report["entries"] if not r["pass"]]
    assert failing == []
    degenerate = [r for r in report["entries"] if r["role"] == "degenerate"]
    assert len(degenerate) == 1
    assert "expected_failure" in degenerate[0]


def test_regression_suite_subset_and_bad_id():
    report = regression_suite(tol=TOL, ids=["0,0"])
    assert report["pass"] and len(report["entries"]) == 1
    assert report["entries"][0]["id"] == "0,0"
    with pytest.raises(InputError):
        regression_suite(ids=["9,9"])


def test_catalog_format_version():
    assert CATALOG_FORMAT_VERSION == 1


# ------------------------------------------------ one table, one parse per text


def _instances():
    """(entry, values) for every instance the suite checks."""
    for entry in catalog_entries().values():
        if entry.role == "degenerate":
            continue
        for idx in range(len(entry.variants or (None,))):
            yield entry, resolve_params(
                entry, {"variant": idx} if entry.variants else None
            )


def _typed(values) -> list:
    return [(type(v), v) for v in values]


def _instance_tables(max_moment=8):
    """Spec, pair and the suite's one moment table, at the suite's settings."""
    inner = TOL / 10**8
    for entry, values in _instances():
        spec = _build_spec(entry, values, inner)
        pair = pearson_pair(spec)
        yield spec, pair, moments(spec, max(pair.class_s, max_moment), inner)


def test_longer_moment_table_keeps_its_head():
    # each nu_n is summed on its own, so the suite's one table agrees with
    # the shorter tables it replaces, value and type
    inner = TOL / 10**8
    with mp.workdps(60):
        for spec, pair, table in _instance_tables():
            for k in (0, pair.class_s):
                short = moments(spec, k, inner)
                assert _typed(table.values[: k + 1]) == _typed(short.values)


def test_derive_xi_on_longer_table_matches_derive_equation():
    inner = TOL / 10**8
    with mp.workdps(60):
        for spec, pair, table in _instance_tables():
            got = derive_xi(pair, table)
            want = derive_equation(spec, inner)
            assert _typed(got.xi.coeffs) == _typed(want.xi.coeffs)
            assert got.xi_symbolic == want.xi_symbolic
            assert got.eta == want.eta and got.sigma_shift == want.sigma_shift


@pytest.mark.parametrize("text", ["a1*z + b1", "b1 - b1 + z"])
def test_cached_parse_raises_like_an_uncached_one(text):
    full = {"a1": F(1, 3), "b1": F(2), "z": F(1, 2)}
    evaluate, _names = compile_expr(text)
    assert _eval_expr(text, full) == evaluate(full)
    lacking = {"a1": F(1, 3), "z": F(1, 2)}
    for _ in range(2):  # the second call hits the cache
        with pytest.raises(InputError, match="^unknown symbol 'b1' in expression$"):
            _eval_expr(text, lacking)


def test_syntax_fault_reported_before_unknown_symbol():
    with pytest.raises(InputError, match="^unexpected token '\\)' in expression$"):
        _eval_expr("q + )", {})


def test_regression_suite_parses_each_text_once(monkeypatch):
    compiled = Counter()

    def counting(text):
        compiled[text] += 1
        return compile_expr(text)

    monkeypatch.setattr(discsemi.catalog, "compile_expr", counting)
    _compile_once.cache_clear()
    regression_suite()
    regression_suite()
    assert compiled and set(compiled.values()) == {1}
