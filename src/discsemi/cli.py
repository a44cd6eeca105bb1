"""Command-line interface: JSON requests in, JSON (or aligned text) out.

Subcommands mirror the library surface: ``classify``, ``moments``,
``stieltjes-xi``, ``verify``, ``transform``, ``recurrence``, and
``catalog {list,show,suite}``.  Commands that consume a functional
specification read it as JSON from ``--input <file|->`` (``-`` meaning
standard input).  Exit codes: 0 for success or PASS, 1 when a well-formed
computation fails or a verification FAILs, 2 for invalid input or a
violated parameter constraint.  Errors are emitted as machine-readable
JSON bodies regardless of the output format.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

from mpmath import mp

from . import catalog as catalog_mod
from .errors import DiscsemiError, InputError
from .functional import FunctionalSpec, moments, pearson_pair
from .hyper import ConvergenceClass, HyperSeries, classify_convergence
from .orthopoly import chebyshev_from_moments, recurrence_from_moments
from .scalars import agree, parse_rational, scalar_to_json
from .stieltjeseq import StieltjesEquation, derive_equation, verify_equation
from .transforms import apply_transform


# ---------------------------------------------------------------------------
# config plumbing


def _parse_tolerance(text: str) -> Fraction:
    try:
        tol = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InputError(
            f"cannot parse tolerance {text!r}; give a rational such as "
            f"1/1000000 or a decimal such as 1e-30"
        ) from None
    if tol <= 0:
        raise InputError("tolerance must be positive")
    return tol


def _read_input(source: str) -> object:
    if source == "-":
        text = sys.stdin.read()
    else:
        try:
            text = Path(source).read_text()
        except OSError as exc:
            raise InputError(f"cannot read input file {source!r}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"input is not valid JSON: {exc}") from None


def _spec_from(data: object) -> FunctionalSpec:
    if not isinstance(data, dict):
        raise InputError("a functional specification must be a JSON object")
    return FunctionalSpec.from_json(data)


def _jsonify(obj: object) -> object:
    """Recursively convert report structures to JSON-friendly values."""
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    return scalar_to_json(obj)


def _is_plain(value: object) -> bool:
    return value is None or isinstance(value, (bool, int, float, str))


def _column_table(rows: list) -> list[str]:
    headers = list(rows[0])
    cells = [[("" if row.get(h) is None else str(row.get(h))) for h in headers]
             for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in cells))
        for i in range(len(headers))
    ]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    lines.append("  ".join("-" * w for w in widths))
    for r in cells:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(headers))))
    return lines


def _text_lines(value: object, indent: str = "") -> list[str]:
    if isinstance(value, dict):
        lines = []
        for key, item in value.items():
            if _is_plain(item):
                lines.append(f"{indent}{key}: {item}")
            elif isinstance(item, list) and item and all(map(_is_plain, item)):
                lines.append(f"{indent}{key}: " + ", ".join(map(str, item)))
            else:
                lines.append(f"{indent}{key}:")
                lines.extend(_text_lines(item, indent + "  "))
        return lines
    if isinstance(value, list):
        if value and all(
            isinstance(r, dict) and all(map(_is_plain, r.values())) for r in value
        ):
            return [indent + line for line in _column_table(value)]
        lines = []
        for item in value:
            if _is_plain(item):
                lines.append(f"{indent}- {item}")
            else:
                lines.append(f"{indent}-")
                lines.extend(_text_lines(item, indent + "  "))
        return lines
    return [f"{indent}{value}"]


def _emit(payload: object, mode: str) -> None:
    if mode == "json":
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(_text_lines(payload)))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_classify(args, tol) -> tuple:
    spec = _spec_from(_read_input(args.input))
    pair = pearson_pair(spec)
    upper = spec.weight_upper_bound()
    if upper is not None:
        convergence = ConvergenceClass("Terminating", degree=upper)
    else:
        convergence = classify_convergence(
            HyperSeries(spec.a, tuple(b + 1 for b in spec.b), spec.z)
        )
    payload = {
        "eta": [scalar_to_json(c) for c in pair.eta.coeffs],
        "sigma": [scalar_to_json(c) for c in pair.sigma.coeffs],
        "class": pair.class_s,
        "nu0_convergence": convergence.to_json(),
    }
    return payload, 0


def _cmd_moments(args, tol) -> tuple:
    spec = _spec_from(_read_input(args.input))
    table = moments(spec, args.count, tol)
    return table.to_json(), 0


def _cmd_stieltjes_xi(args, tol) -> tuple:
    spec = _spec_from(_read_input(args.input))
    eq = derive_equation(spec, tol)
    payload = {"class": pearson_pair(spec).class_s}
    payload.update(eq.to_json())
    return payload, 0


def _cmd_verify(args, tol) -> tuple:
    data = _read_input(args.input)
    if isinstance(data, dict) and "spec" in data:
        spec = _spec_from(data["spec"])
        if data.get("equation") is not None:
            eq = StieltjesEquation.from_json(data["equation"])
        else:
            eq = derive_equation(spec, tol)
    else:
        spec = _spec_from(data)
        eq = derive_equation(spec, tol)
    samples = None
    if args.samples:
        samples = [parse_rational(s) for s in args.samples.split(",")]
    verdict = verify_equation(spec, eq, sample_ts=samples, tol=tol)
    return _jsonify(verdict), 0 if verdict["pass"] else 1


def _cmd_transform(args, tol) -> tuple:
    data = _read_input(args.input)
    if not isinstance(data, dict) or "spec" not in data or "transform" not in data:
        raise InputError(
            "transform input must be an object with 'spec' and 'transform'"
        )
    spec = _spec_from(data["spec"])
    out_spec, table = apply_transform(spec, data["transform"], tol, args.count)
    if table is None:
        table = moments(out_spec, args.count, tol)
    eq = derive_equation(out_spec, tol)
    payload = {
        "spec": out_spec.to_json(),
        "class": pearson_pair(out_spec).class_s,
        "moments": table.to_json(),
        "equation": eq.to_json(),
    }
    return payload, 0


def _coeffs_agree(left, right, tol) -> bool:
    return len(left) == len(right) and all(
        agree(x, y, tol)[1] for x, y in zip(left, right)
    )


def _cmd_recurrence(args, tol) -> tuple:
    spec = _spec_from(_read_input(args.input))
    table = moments(spec, 2 * args.count, tol)
    if args.method == "hankel":
        return recurrence_from_moments(table, args.count).to_json(), 0
    if args.method == "chebyshev":
        return chebyshev_from_moments(table, args.count).to_json(), 0
    hankel = recurrence_from_moments(table, args.count)
    chebyshev = chebyshev_from_moments(table, args.count)
    agree = _coeffs_agree(hankel.alpha, chebyshev.alpha, tol) and _coeffs_agree(
        hankel.beta, chebyshev.beta, tol
    )
    payload = {
        "hankel": hankel.to_json(),
        "chebyshev": chebyshev.to_json(),
        "agree": agree,
    }
    return payload, 0 if agree else 1


def _cmd_catalog(args, tol) -> tuple:
    if args.subcommand == "list":
        rows = [
            {
                "id": entry.id,
                "name": entry.name,
                "section": entry.section,
                "role": entry.role,
                "class": entry.class_s,
                "parent": entry.parent,
            }
            for entry in catalog_mod.list_entries(
                role=args.role, parent=args.parent
            )
        ]
        return {"count": len(rows), "entries": rows}, 0
    if args.subcommand == "show":
        return catalog_mod.get_entry(args.id).to_json(), 0
    report = catalog_mod.regression_suite(
        tol=tol,
        ids=args.ids or None,
        max_moment=args.max_moment,
        dps=args.suite_dps,
    )
    return _jsonify(report), 0 if report["pass"] else 1


# ---------------------------------------------------------------------------
# parser


def _add_input(sub) -> None:
    sub.add_argument(
        "--input",
        default="-",
        metavar="FILE",
        help="JSON input file, or - for standard input (default)",
    )


def _common_options(defaults: bool) -> argparse.ArgumentParser:
    # The copy attached to each subparser uses SUPPRESS defaults so that a
    # flag given before the subcommand is not clobbered when the subparser
    # merges its own namespace back (flags work in either position).
    missing = argparse.SUPPRESS
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--dps", type=int, default=50 if defaults else missing,
        help="working decimal precision (>= 20, default 50)",
    )
    common.add_argument(
        "--tol", default="1e-30" if defaults else missing,
        help="comparison tolerance, rational or decimal (default 1e-30)",
    )
    common.add_argument(
        "--format", choices=("json", "table"),
        default="json" if defaults else missing,
        help="output rendering (default json)",
    )
    common.add_argument(
        "--catalog", metavar="PATH", default=None if defaults else missing,
        help="override the bundled family data file",
    )
    return common


def _build_parser() -> argparse.ArgumentParser:
    common = _common_options(defaults=False)

    parser = argparse.ArgumentParser(
        prog="discsemi",
        description=(
            "Discrete semiclassical functionals: classification, moments, "
            "Stieltjes difference equations, spectral transformations, "
            "recurrences, and the bundled family catalog."
        ),
        parents=[_common_options(defaults=True)],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[common],
                       help="Pearson pair, class, nu_0 convergence")
    _add_input(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("moments", parents=[common],
                       help="moment table nu_0..nu_K")
    _add_input(p)
    p.add_argument("-n", "--count", type=int, default=8, metavar="K")
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser(
        "stieltjes-xi", parents=[common],
        help="difference equation of the Stieltjes transform",
    )
    _add_input(p)
    p.set_defaults(func=_cmd_stieltjes_xi)

    p = sub.add_parser(
        "verify", parents=[common],
        help="check the difference equation at sample points (exit 1 on FAIL)",
    )
    _add_input(p)
    p.add_argument(
        "--samples", default=None,
        help="comma-separated rational sample points (default: generic points)",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "transform", parents=[common],
        help="apply a spectral transformation to a specification",
    )
    _add_input(p)
    p.add_argument("-n", "--count", type=int, default=8, metavar="K",
                   help="moments of the transformed functional to report")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("recurrence", parents=[common],
                       help="monic three-term recurrence")
    _add_input(p)
    p.add_argument("-n", "--count", type=int, default=6, metavar="K")
    p.add_argument(
        "--method", choices=("hankel", "chebyshev", "both"), default="chebyshev"
    )
    p.set_defaults(func=_cmd_recurrence)

    p = sub.add_parser("catalog", help="bundled family catalog")
    catsub = p.add_subparsers(dest="subcommand", required=True)
    q = catsub.add_parser("list", parents=[common], help="list entries")
    q.add_argument("--role", default=None,
                   choices=catalog_mod.ROLES, help="filter by role")
    q.add_argument("--parent", default=None, help="filter by parent id")
    q.set_defaults(func=_cmd_catalog)
    q = catsub.add_parser("show", parents=[common], help="show one entry")
    q.add_argument("id")
    q.set_defaults(func=_cmd_catalog)
    q = catsub.add_parser(
        "suite", parents=[common],
        help="re-derive every entry and compare with recorded forms",
    )
    q.add_argument("--ids", action="append", default=None, metavar="ID",
                   help="restrict to these entries (repeatable)")
    q.add_argument("--max-moment", type=int, default=8)
    q.add_argument("--suite-dps", type=int, default=60,
                   help="working precision for the suite (default 60)")
    q.set_defaults(func=_cmd_catalog)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.dps < 20:
            raise InputError("precision must be at least 20 digits")
        tol = _parse_tolerance(args.tol)
        mp.dps = args.dps
        if args.catalog:
            catalog_mod.set_data_path(args.catalog)
        payload, code = args.func(args, tol)
    except DiscsemiError as exc:
        body = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(body, indent=2))
        return exc.exit_code
    _emit(payload, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
