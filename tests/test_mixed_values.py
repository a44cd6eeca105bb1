"""Exact and mpf values meet only in ``scalars.dot`` and ``ratio_to_mpf``.

mpmath converts a foreign rational (a ``Fraction`` operand of an mpf
operator, or of ``mp.mpf``) with ``from_rational`` at the working precision
and its default rounding, toward zero, so ``mpf * Fraction`` rounds the
Fraction first and the product again.  The package rounds an exact value
once, to nearest, through its own binding of ``from_rational``.  The
``trap`` fixture replaces the names mpmath's contexts call, so any place
that hands mpmath a Fraction raises instead of rounding twice.
"""

import json
from fractions import Fraction

import mpmath.ctx_mp
import mpmath.ctx_mp_python
import pytest
from mpmath import mp

from discsemi.catalog import regression_suite
from discsemi.cli import main
from discsemi.functional import FunctionalSpec, moments
from discsemi.orthopoly import chebyshev_from_moments, orthogonality_check
from discsemi.scalars import agree, exact_value, to_mpf
from discsemi.stieltjeseq import derive_equation, transform_equation, verify_equation
from discsemi.transforms import compose_check

WEIGHT = {"a": ["1/3"], "b": ["2/5"], "z": "1/2"}  # an infinite weight


class ForeignRational(Exception):
    """mpmath was asked to convert a Fraction."""


@pytest.fixture
def trap(monkeypatch):
    def refuse(p, q, *args):
        raise ForeignRational(f"{p}/{q}")

    for module in (mpmath.ctx_mp_python, mpmath.ctx_mp):
        monkeypatch.setattr(module, "from_rational", refuse)


def test_the_trap_fires(trap):
    # a later mpmath that converts by another name would let every test
    # below pass without checking anything
    with pytest.raises(ForeignRational):
        mp.mpf(1) * Fraction(1, 3)
    with pytest.raises(ForeignRational):
        Fraction(1, 3) + mp.mpf(1)


def test_agree_on_mixed_pairs(trap):
    with mp.workdps(50):
        third = mp.mpf(1) / 3
        for got, want in ((Fraction(1, 3), third), (third, Fraction(1, 3))):
            error, ok = agree(got, want, Fraction(1, 10**40))
            assert ok and error == to_mpf(abs(exact_value(got) - exact_value(want)))
            assert error > 0


def test_infinite_weight_paths(trap):
    spec = FunctionalSpec.from_json(WEIGHT)
    with mp.workdps(50):
        eq = derive_equation(spec)
        assert verify_equation(spec, eq)["pass"]
        for kind, params in (
            ("uvarov", {"omega": Fraction(-3, 2), "M": Fraction(1, 3)}),
            ("christoffel", {"omega": Fraction(-5, 2), "nu0": moments(spec, 0)[0]}),
            ("geronimus", {"omega": Fraction(-5, 2), "nu0_g": Fraction(2, 7)}),
            ("symmetrize", {"m": 2}),
        ):
            transform_equation(eq, kind, params)
        assert compose_check(spec, Fraction(-3, 2), Fraction(1, 3), Fraction(1, 10**36))["pass"]
        rec = chebyshev_from_moments(moments(spec, 12), 6)
        assert orthogonality_check(spec, rec, 6)["pass"]


def test_exact_xi_against_numeric_stieltjes_values(trap):
    # the dyadic values of an mpf xi, as Fractions: the residual is mixed
    spec = FunctionalSpec.from_json(WEIGHT)
    with mp.workdps(50):
        eq = derive_equation(spec)
        exact = type(eq)(eq.sigma_shift, eq.eta, type(eq.xi)(map(exact_value, eq.xi.coeffs)))
        report = verify_equation(spec, exact)
    assert report["pass"] and all(not s["exact"] for s in report["samples"])


def test_regression_suite(trap):
    assert regression_suite()["pass"]


def test_cli_verify(trap, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(WEIGHT))
    assert main(["verify", "--input", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True
