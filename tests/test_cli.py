"""End-to-end tests for the command-line interface."""

import io
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp

from discsemi.catalog import instantiate
from discsemi.cli import main
from discsemi.functional import FunctionalSpec

CHARLIER = {"a": [], "b": [], "z": "1/2"}
KRAWTCHOUK = {"a": ["-4"], "b": [], "z": "1/2"}
GEN_MEIXNER = {"a": ["1/3"], "b": ["1/2"], "z": "1/2"}


@pytest.fixture(autouse=True)
def _restore_precision():
    saved = mp.dps
    yield
    mp.dps = saved


def run_cli(args, stdin_payload=None, monkeypatch=None, capsys=None):
    if stdin_payload is not None:
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(json.dumps(stdin_payload))
        )
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def run_json(args, stdin_payload, monkeypatch, capsys):
    code, out = run_cli(args, stdin_payload, monkeypatch, capsys)
    return code, json.loads(out)


# ------------------------------------------------------------------ classify


def test_classify_charlier_stdin(monkeypatch, capsys):
    code, payload = run_json(["classify", "--input", "-"],
                             CHARLIER, monkeypatch, capsys)
    assert code == 0
    assert payload["class"] == 0
    assert payload["eta"] == ["1/2"]
    assert payload["sigma"] == [0, 1]
    assert payload["nu0_convergence"] == {"tag": "Entire"}


def test_classify_from_file(tmp_path, monkeypatch, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(GEN_MEIXNER))
    code, payload = run_json(["classify", "--input", str(path)],
                             None, monkeypatch, capsys)
    assert code == 0 and payload["class"] == 1


def test_classify_divergent_family_still_classified(monkeypatch, capsys):
    spec = {"a": ["1/3", "2/5"], "b": [], "z": "1/2"}
    code, payload = run_json(["classify", "--input", "-"],
                             spec, monkeypatch, capsys)
    assert code == 0
    assert payload["class"] == 1
    assert payload["nu0_convergence"]["tag"] == "Divergent"


def test_classify_terminating_family(monkeypatch, capsys):
    code, payload = run_json(["classify", "--input", "-"],
                             KRAWTCHOUK, monkeypatch, capsys)
    assert code == 0
    assert payload["nu0_convergence"]["tag"] == "Terminating"


# ---------------------------------------------------------- moments/equation


def test_moments_exact_strings(monkeypatch, capsys):
    code, payload = run_json(["moments", "--input", "-", "-n", "3"],
                             KRAWTCHOUK, monkeypatch, capsys)
    assert code == 0
    assert payload["values"][0] == "1/16"
    assert payload["basis_shift"] == 0
    assert len(payload["values"]) == 4


def test_stieltjes_xi_exact(monkeypatch, capsys):
    code, payload = run_json(["stieltjes-xi", "--input", "-"],
                             KRAWTCHOUK, monkeypatch, capsys)
    assert code == 0
    # xi = (1 - z) nu_0 = (1/2)(1/16)
    assert payload["xi"] == ["1/32"]
    assert payload["class"] == 0


def test_verify_pass_and_corrupted_fail(monkeypatch, capsys):
    code, eq = run_json(["stieltjes-xi", "--input", "-"],
                        GEN_MEIXNER, monkeypatch, capsys)
    assert code == 0
    eq.pop("class")

    code, verdict = run_json(
        ["verify", "--input", "-"],
        {"spec": GEN_MEIXNER, "equation": eq}, monkeypatch, capsys)
    assert code == 0 and verdict["pass"] is True

    corrupted = dict(eq)
    corrupted["xi"] = list(eq["xi"])
    corrupted["xi"][0] = str(Fraction(eq["xi"][0]) + Fraction(1, 1000))
    code, verdict = run_json(
        ["verify", "--input", "-"],
        {"spec": GEN_MEIXNER, "equation": corrupted}, monkeypatch, capsys)
    assert code == 1 and verdict["pass"] is False


def test_verify_bare_spec_with_samples(monkeypatch, capsys):
    code, verdict = run_json(
        ["verify", "--input", "-", "--samples=-3/2,-5/2,-9/2"],
        KRAWTCHOUK, monkeypatch, capsys)
    assert code == 0 and verdict["pass"] is True
    assert [s["t"] for s in verdict["samples"]] == ["-3/2", "-5/2", "-9/2"]
    assert all(s["exact"] for s in verdict["samples"])


# ----------------------------------------------------------------- transform


def test_transform_uvarov_roundtrip(monkeypatch, capsys):
    request = {
        "spec": CHARLIER,
        "transform": {"kind": "uvarov", "omega": 0, "M": "1/2"},
    }
    code, payload = run_json(["transform", "--input", "-", "-n", "2"],
                             request, monkeypatch, capsys)
    assert code == 0
    assert payload["class"] == 1
    spec = FunctionalSpec.from_json(payload["spec"])
    assert spec.masses[0].omega == 0 and spec.masses[0].M == Fraction(1, 2)
    # serialized specs re-parse to the identical object
    assert FunctionalSpec.from_json(json.loads(
        json.dumps(payload["spec"]))) == spec


def test_transform_geronimus_on_support_is_input_error(monkeypatch, capsys):
    request = {
        "spec": CHARLIER,
        "transform": {"kind": "geronimus", "omega": 3, "M": 1},
    }
    code, payload = run_json(["transform", "--input", "-"],
                             request, monkeypatch, capsys)
    assert code == 2
    assert payload["error"]["type"] == "ConstraintViolated"
    assert "support lattice" in payload["error"]["message"]


def test_raw_window_not_ending_at_2m_is_rejected(monkeypatch, capsys):
    spec = dict(GEN_MEIXNER, support={"kind": "symmetrized_shift", "m": 3})
    code, payload = run_json(["verify", "--input", "-"],
                             spec, monkeypatch, capsys)
    assert code == 2
    assert payload["error"]["type"] == "ConstraintViolated"


@pytest.mark.parametrize(
    "kind, count",
    [(kind, 3) for kind in ("uvarov", "christoffel", "geronimus", "truncate",
                            "symmetrize")]
    + [("geronimus", 15)],  # past the 12 moments Geronimus gives by default
)
def test_transform_prints_count_plus_one_moments(kind, count, capsys):
    spec = Path(__file__).parent / "data" / "cli_golden" / f"transform-{kind}.json"
    code, payload = run_json(["transform", "-n", str(count), "--input", str(spec)],
                             None, None, capsys)
    assert code == 0
    assert len(payload["moments"]["values"]) == count + 1
    assert len(payload["moments"]["exact"]) == count + 1


def test_transform_requires_both_keys(monkeypatch, capsys):
    code, payload = run_json(["transform", "--input", "-"],
                             {"spec": CHARLIER}, monkeypatch, capsys)
    assert code == 2 and payload["error"]["type"] == "InputError"


# ---------------------------------------------------------------- recurrence


def test_recurrence_methods_agree(monkeypatch, capsys):
    code, payload = run_json(
        ["recurrence", "--input", "-", "-n", "4", "--method", "both"],
        KRAWTCHOUK, monkeypatch, capsys)
    assert code == 0
    assert payload["agree"] is True
    assert payload["hankel"] == payload["chebyshev"]
    assert len(payload["hankel"]["alpha"]) == 4


def test_recurrence_single_method(monkeypatch, capsys):
    code, payload = run_json(
        ["recurrence", "--input", "-", "-n", "3"],
        KRAWTCHOUK, monkeypatch, capsys)
    assert code == 0
    assert set(payload) == {"alpha", "beta"}
    assert payload["beta"][0] == "1/16"


# ------------------------------------------------------------------- catalog


def test_catalog_list_and_filters(monkeypatch, capsys):
    code, payload = run_json(["catalog", "list", "--role", "canonical"],
                             None, monkeypatch, capsys)
    assert code == 0 and payload["count"] == 15
    ids = {row["id"] for row in payload["entries"]}
    assert "4,3;N,1" in ids

    code, payload = run_json(["catalog", "list", "--parent", "2,2"],
                             None, monkeypatch, capsys)
    assert code == 0 and payload["count"] == 5


def test_catalog_show_and_unknown(monkeypatch, capsys):
    code, payload = run_json(["catalog", "show", "0,0"],
                             None, monkeypatch, capsys)
    assert code == 0
    assert payload["id"] == "0,0" and payload["xi"]["rows_self"] == [["1"]]

    code, payload = run_json(["catalog", "show", "9,9"],
                             None, monkeypatch, capsys)
    assert code == 2 and payload["error"]["type"] == "InputError"


def test_catalog_suite_subset(monkeypatch, capsys):
    code, payload = run_json(
        ["catalog", "suite", "--ids", "0,0", "--ids", "1,0;N",
         "--max-moment", "4"],
        None, monkeypatch, capsys)
    assert code == 0
    assert payload["pass"] is True
    assert [e["id"] for e in payload["entries"]] == ["0,0", "1,0;N"]


def test_catalog_verify_default_entry(monkeypatch, capsys):
    spec = instantiate("1,1")
    code, verdict = run_json(["verify", "--input", "-"],
                             spec.to_json(), monkeypatch, capsys)
    assert code == 0 and verdict["pass"] is True


# ------------------------------------------------------------- config/format


def test_table_format(monkeypatch, capsys):
    code, out = run_cli(["--format", "table", "classify", "--input", "-"],
                        CHARLIER, monkeypatch, capsys)
    assert code == 0
    assert "class: 0" in out
    assert "{" not in out


def test_global_flags_after_subcommand(monkeypatch, capsys):
    code, out = run_cli(["classify", "--input", "-", "--format", "table"],
                        CHARLIER, monkeypatch, capsys)
    assert code == 0 and "class: 0" in out


def test_dps_and_tol_validation(monkeypatch, capsys):
    code, payload = run_json(["--dps", "10", "catalog", "show", "0,0"],
                             None, monkeypatch, capsys)
    assert code == 2 and "at least 20" in payload["error"]["message"]

    code, payload = run_json(["--tol", "0", "catalog", "show", "0,0"],
                             None, monkeypatch, capsys)
    assert code == 2 and "positive" in payload["error"]["message"]

    code, payload = run_json(["--tol", "bogus", "catalog", "show", "0,0"],
                             None, monkeypatch, capsys)
    assert code == 2 and payload["error"]["type"] == "InputError"


def test_bad_json_input(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("{not json"))
    code = main(["classify", "--input", "-"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2 and payload["error"]["type"] == "InputError"


def test_catalog_path_override(tmp_path, monkeypatch, capsys):
    data = {
        "version": 1,
        "entries": [{
            "id": "0,0", "name": "Charlier", "section": "4.1",
            "role": "canonical", "class": 0, "parent": None,
            "params": {"z": "1/2"},
            "template": {"a": [], "b": [], "z": "z"},
            "xi": {"status": "printed", "rows_self": [["1"]]},
        }],
    }
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(data))
    try:
        code, payload = run_json(
            ["--catalog", str(path), "catalog", "list"],
            None, monkeypatch, capsys)
        assert code == 0 and payload["count"] == 1
    finally:
        from discsemi import catalog as catalog_mod
        from pathlib import Path
        catalog_mod.set_data_path(
            Path(catalog_mod.__file__).parent / "data" / "catalog.json")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "discsemi", "classify", "--input", "-"],
        input=json.dumps(CHARLIER), capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["class"] == 0


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "discsemi", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    for name in ("classify", "moments", "stieltjes-xi", "verify",
                 "transform", "recurrence", "catalog"):
        assert name in proc.stdout
