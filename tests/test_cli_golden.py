"""Byte-for-byte CLI output on exact specifications.

``tests/data/cli_golden/<spec>.json`` holds four exact specifications
(truncated, symmetric window, terminating with a point mass, truncated with
a scale and a point mass); ``<spec>.<command>.out`` is the standard output
of ``python -m discsemi <args> --input <spec>.json`` for the arguments in
``COMMANDS``.  Exact inputs must give exactly these bytes, so any change to
an exact kernel that alters a value, its type or its rendering shows here.
To re-record a file after an intended output change, run that command and
redirect its output into the file.

``transform-<kind>.json`` holds an exact specification and one
transformation of each kind (Christoffel and Geronimus act on truncated
specs, since both reject windows); ``transform-<kind>.out`` is the output of
``python -m discsemi transform -n 3 --input transform-<kind>.json``.

``catalog-exact.suite.out`` is the output of ``python -m discsemi catalog
suite --ids ...`` on the 33 catalog entries whose reports hold no floating
value (the truncated, window and finite-N families and their transforms);
the ids are read back from the file.  Entries with numeric moments are left
out because their last digits depend on the mpmath version.
"""

import json

from pathlib import Path

import pytest
from mpmath import mp

from discsemi.cli import main

DATA = Path(__file__).parent / "data" / "cli_golden"
SPECS = ("truncated", "window", "terminating-mass", "truncated-scale-mass")
COMMANDS = {
    "classify": ["classify"],
    "moments": ["moments"],
    "stieltjes-xi": ["stieltjes-xi"],
    "verify": ["verify"],
    "recurrence": ["recurrence", "--method", "both", "-n", "4"],
}
TRANSFORMS = ("uvarov", "christoffel", "geronimus", "truncate", "symmetrize")


@pytest.fixture(autouse=True)
def _restore_precision():
    saved = mp.dps
    yield
    mp.dps = saved


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("spec", SPECS)
def test_cli_output_matches_golden_file(spec, command, capsys):
    code = main(COMMANDS[command] + ["--input", str(DATA / f"{spec}.json")])
    assert code == 0
    want = (DATA / f"{spec}.{command}.out").read_text()
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("kind", TRANSFORMS)
def test_transform_output_matches_golden_file(kind, capsys):
    spec = DATA / f"transform-{kind}.json"
    assert main(["transform", "-n", "3", "--input", str(spec)]) == 0
    assert capsys.readouterr().out == spec.with_suffix(".out").read_text()


def test_catalog_suite_matches_golden_file(capsys):
    want = (DATA / "catalog-exact.suite.out").read_text()
    ids = [entry["id"] for entry in json.loads(want)["entries"]]
    assert len(ids) == 33
    code = main(["catalog", "suite"] + [arg for i in ids for arg in ("--ids", i)])
    assert code == 0
    assert capsys.readouterr().out == want
