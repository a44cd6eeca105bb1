"""Seeded workloads for the discsemi benchmark.

Each workload turns a seed into a list of items.  An item is one unit of
work, timed on its own; the program only ever sees the generated specs,
which are built through the public constructors (``FunctionalSpec``,
``apply_truncation``, ``apply_symmetrization``, ``apply_uvarov``).

Workloads draw from a fixed pool: a list of strata, each holding the same
number of candidate recipes, candidate ``c`` a little larger than ``c-1``.
A seed assigns candidate offsets to strata as a shuffled round robin (so
each offset is used equally often and the total work barely depends on the
seed), then permutes the picks.  Every item a seed can produce has its
exact outputs recorded in ``reference.json`` (see ``record_reference.py``),
so exact results are checked byte for byte against the commit that
recorded them.

Why each workload exists is written up in ``NOTES.md``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Callable, Optional

import mpmath as mp

import discsemi as ds
from discsemi.scalars import DEFAULT_TOL

# ---------------------------------------------------------------------------
# canonical JSON of results


def plain(value):
    """A JSON-ready form of a result.  Rationals are written in hex so that
    any size converts (decimal ``str`` of a huge int is capped in CPython)."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, int):
        return format(value, "x")
    if isinstance(value, F):
        return f"{value.numerator:x}/{value.denominator:x}"
    if isinstance(value, mp.mpf):
        return "mpf:" + mp.nstr(value, 30)
    if isinstance(value, dict):
        return {str(k): plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, ds.Poly):
        return plain(value.coeffs)
    raise TypeError(f"no canonical form for {type(value).__name__}")


def canonical(value) -> str:
    return json.dumps(plain(value), sort_keys=True, separators=(",", ":"))


def digest(value) -> str:
    return hashlib.sha256(canonical(value).encode()).hexdigest()


# ---------------------------------------------------------------------------
# items


@dataclass(frozen=True)
class Item:
    """One unit of work: a spec (or a catalog id) plus its call arguments."""

    label: str
    spec: Optional[ds.FunctionalSpec] = None
    entry_id: Optional[str] = None
    compose: Optional[tuple] = None  # (omega, M) for compose_check
    exact: bool = True

    def describe(self) -> dict:
        return {
            "label": self.label,
            "spec": self.spec.to_json() if self.spec is not None else None,
            "entry_id": self.entry_id,
            "compose": [str(x) for x in self.compose] if self.compose else None,
        }

    @property
    def key(self) -> str:
        """Reference-table key: a hash of everything the item feeds the program."""
        return digest(self.describe())[:20]


@dataclass(frozen=True)
class Workload:
    name: str
    dps: int
    strata: Callable[[], list]  # strata of equally many candidate recipes
    build: Callable[[tuple], Item]
    run: Callable[[Item], object]
    check: Callable[[Item, object, dict], Optional[str]]

    def recipes(self, seed: int) -> list:
        rng = random.Random(f"{self.name}:{seed}")
        strata = self.strata()
        width = len(strata[0])
        offsets = [i % width for i in range(len(strata))]
        rng.shuffle(offsets)
        picks = [stratum[c] for stratum, c in zip(strata, offsets)]
        rng.shuffle(picks)
        return picks

    def items(self, seed: int) -> list[Item]:
        return [self.build(recipe) for recipe in self.recipes(seed)]


def _require(ok: bool, reason: str, failures: list) -> None:
    if not ok:
        failures.append(reason)


def _joined(failures: list) -> Optional[str]:
    return "; ".join(failures) if failures else None


# ---------------------------------------------------------------------------
# catalog_suite


def _catalog_strata() -> list:
    return [[(entry_id,)] for entry_id in ds.catalog_entries()]


def _catalog_build(recipe: tuple) -> Item:
    return Item(label=recipe[0], entry_id=recipe[0])


def _catalog_run(item: Item):
    return ds.regression_suite(ids=[item.entry_id])


def _catalog_check(item: Item, out, reference: dict) -> Optional[str]:
    if out.get("pass") is not True:
        return f"regression_suite reports failure for {item.entry_id}"
    return None


# ---------------------------------------------------------------------------
# exact_finite

# Numerators coprime to each denominator, so a candidate changes the
# parameter values but not the bit size the exact sums grow with.
_NUMS = {
    3: (1, 2, 4, 5, 7, 8, 10, 11, 13, 14, 16, 17, 19),
    5: (1, 2, 3, 4, 6, 7, 8, 9, 11, 12, 13, 14, 16),
    7: (1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 15),
}
_CANDIDATES = 13  # = number of strata, so every seed uses each offset once
_EXACT_KINDS = ("trunc1", "trunc2", "uvarov", "symm")


def _exact_strata() -> list:
    strata = []
    for i in range(13):
        kind = _EXACT_KINDS[i % len(_EXACT_KINDS)]
        n_base = 80 + 13 * i  # the pool covers every N in 80..248 once
        strata.append([(kind, n_base + c, c) for c in range(_CANDIDATES)])
    return strata


def _exact_build(recipe: tuple) -> Item:
    kind, N, c = recipe
    a1 = F(_NUMS[5][c], 5)
    b1 = F(_NUMS[7][(c + 3) % _CANDIDATES], 7)
    if kind == "trunc1":  # class 1 after truncation
        base = ds.FunctionalSpec(a=[a1], b=[], z=F(1, 2))
        spec = ds.apply_truncation(base, N)
        compose = (F(-1, 2), F(1, 3))
    elif kind == "trunc2":  # class 2 after truncation
        base = ds.FunctionalSpec(a=[a1], b=[b1], z=F(3, 4))
        spec = ds.apply_truncation(base, N)
        compose = (F(-3, 2), F(1, 3))
    elif kind == "uvarov":  # truncated class-2 family plus a mass off the support
        base = ds.FunctionalSpec(a=[a1], b=[b1], z=F(2, 3))
        spec = ds.apply_uvarov(ds.apply_truncation(base, N), F(-5, 2), F(1, 4))
        compose = (F(-1, 2), F(2, 5))
    else:  # symmetric window {-m..m}, 2m close to N; Geronimus rejects windows
        base = ds.FunctionalSpec(a=[a1], b=[b1], z=F(3, 4))
        spec = ds.apply_symmetrization(base, N // 2)
        compose = None
    return Item(label=f"{kind}-N{N}-c{c}", spec=spec, compose=compose)


def _exact_run(item: Item):
    spec = item.spec
    table = ds.moments(spec, 12)
    eq = ds.derive_equation(spec)
    verdict = ds.verify_equation(spec, eq)
    composed = (
        ds.compose_check(spec, *item.compose) if item.compose is not None else None
    )
    return {"moments": table, "equation": eq, "verify": verdict, "compose": composed}


def _exact_record(out) -> dict:
    eq = out["equation"]
    return {
        "moments": out["moments"].values,
        "basis_shift": out["moments"].basis_shift,
        "eta": eq.eta,
        "sigma_shift": eq.sigma_shift,
        "xi": eq.xi,
        "xi_symbolic": eq.xi_symbolic,
        "verify": out["verify"],
        "compose": out["compose"],
    }


def _exact_check(item: Item, out, reference: dict) -> Optional[str]:
    failures: list = []
    _require(out["verify"]["pass"] is True, "verify_equation failed", failures)
    _require(
        all(s["exact"] for s in out["verify"]["samples"]),
        "verify_equation left the exact path",
        failures,
    )
    if out["compose"] is not None:
        _require(out["compose"]["pass"] is True, "compose_check failed", failures)
        _require(
            out["compose"]["round_trip_exact"] is True,
            "compose_check round trip not exact",
            failures,
        )
    want = reference.get(item.key)
    _require(want is not None, f"no recorded reference for {item.key}", failures)
    if want is not None:
        _require(
            digest(_exact_record(out)) == want,
            "exact outputs differ from the recorded reference",
            failures,
        )
    return _joined(failures)


# ---------------------------------------------------------------------------
# recurrence_deep

RECURRENCE_K = 12
MOMENT_K = 2 * RECURRENCE_K
GRAM_K = 6  # Gram check on p_0..p_6; the two recurrences cross-check all 12
ORACLE_DPS = 120

# (kind, z) per stratum; "t*" strata are truncated (exact), "n*" infinite.
_RECURRENCE_STRATA = (
    ("t0", F(2)),
    ("n0", F(5, 2)),
    ("t1", F(1, 2)),
    ("n11", F(3, 4)),
    ("t2", F(3, 4)),
    ("n12", F(3, 2)),
    ("t0", F(3)),
    ("n22", F(1, 2)),
    ("t1", F(2, 3)),
    ("n11", F(3, 2)),
    ("t2", F(2, 3)),
    ("n22", F(3, 4)),
    ("t1", F(3, 4)),
)


def _recurrence_strata() -> list:
    strata = []
    for i, (kind, z) in enumerate(_RECURRENCE_STRATA):
        n_base = 30 + 5 * (i // 2)  # truncations stratified over 30..64
        strata.append([(kind, z, n_base + c // 3, c) for c in range(_CANDIDATES)])
    return strata


def _recurrence_build(recipe: tuple) -> Item:
    kind, z, N, c = recipe
    a = [F(_NUMS[3][c], 3), F(_NUMS[5][c], 5)]
    b = [F(_NUMS[7][c], 7), F(_NUMS[5][(c + 2) % _CANDIDATES], 5)]
    shapes = {
        "t0": (0, 0), "t1": (1, 0), "t2": (1, 1),
        "n0": (0, 0), "n11": (1, 1), "n12": (1, 2), "n22": (2, 2),
    }
    p, q = shapes[kind]
    spec = ds.FunctionalSpec(a=a[:p], b=b[:q], z=z)
    if kind.startswith("t"):
        spec = ds.apply_truncation(spec, N)
        return Item(label=f"{kind}-N{N}-c{c}", spec=spec, exact=True)
    return Item(label=f"{kind}-z{z}-c{c}", spec=spec, exact=False)


def _recurrence_run(item: Item):
    table = ds.moments(item.spec, MOMENT_K)
    hankel = ds.recurrence_from_moments(table, RECURRENCE_K)
    cheb = ds.chebyshev_from_moments(table, RECURRENCE_K)
    gram = ds.orthogonality_check(item.spec, hankel, GRAM_K)
    return {"moments": table, "hankel": hankel, "chebyshev": cheb, "gram": gram}


def _recurrence_record(out) -> dict:
    return {
        "moments": out["moments"].values,
        "alpha": out["hankel"].alpha,
        "beta": out["hankel"].beta,
        "gram": out["gram"],
    }


def nu0_oracle(spec: ds.FunctionalSpec):
    """nu_0 of a mass-free infinite weight from ``mpmath.hyper``."""
    with mp.workdps(ORACLE_DPS):
        a = [_mpf(x) for x in spec.a]
        b = [_mpf(x) + 1 for x in spec.b]
        return _mpf(F(spec.scale)) * mp.hyper(a, b, _mpf(spec.z))


def _mpf(x):
    """mpf of a Fraction or mpf at the current precision."""
    return mp.mpf(x.numerator) / x.denominator if isinstance(x, F) else mp.mpf(x)


def _close(got, want, tol) -> bool:
    with mp.workdps(ORACLE_DPS):
        return abs(_mpf(got) - _mpf(want)) <= _mpf(tol) * (1 + abs(_mpf(want)))


def _recurrence_check(item: Item, out, reference: dict) -> Optional[str]:
    failures: list = []
    hankel, cheb = out["hankel"], out["chebyshev"]
    _require(out["gram"]["pass"] is True, "orthogonality_check failed", failures)
    pairs = list(zip(hankel.alpha + hankel.beta, cheb.alpha + cheb.beta))
    _require(len(pairs) == 2 * RECURRENCE_K, "short recurrence", failures)
    if item.exact:
        _require(
            all(isinstance(h, (int, F)) for h, _ in pairs),
            "recurrence left the exact path",
            failures,
        )
        _require(
            hankel.alpha == cheb.alpha and hankel.beta == cheb.beta,
            "Hankel and Chebyshev recurrences differ",
            failures,
        )
        want = reference.get(item.key)
        _require(want is not None, f"no recorded reference for {item.key}", failures)
        if want is not None:
            _require(
                digest(_recurrence_record(out)) == want,
                "exact outputs differ from the recorded reference",
                failures,
            )
    else:
        tol = DEFAULT_TOL
        _require(
            all(_close(h, c, tol) for h, c in pairs),
            "Hankel and Chebyshev recurrences disagree beyond tol",
            failures,
        )
        _require(
            _close(out["moments"][0], nu0_oracle(item.spec), tol),
            "nu_0 disagrees with mpmath.hyper beyond tol",
            failures,
        )
    return _joined(failures)


# ---------------------------------------------------------------------------

WORKLOADS = {
    "catalog_suite": Workload(
        name="catalog_suite",
        dps=60,
        strata=_catalog_strata,
        build=_catalog_build,
        run=_catalog_run,
        check=_catalog_check,
    ),
    "exact_finite": Workload(
        name="exact_finite",
        dps=50,
        strata=_exact_strata,
        build=_exact_build,
        run=_exact_run,
        check=_exact_check,
    ),
    "recurrence_deep": Workload(
        name="recurrence_deep",
        dps=60,
        strata=_recurrence_strata,
        build=_recurrence_build,
        run=_recurrence_run,
        check=_recurrence_check,
    ),
}

#: How each exact workload's outputs are reduced before hashing.
RECORDERS = {"exact_finite": _exact_record, "recurrence_deep": _recurrence_record}
