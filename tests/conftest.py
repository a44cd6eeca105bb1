"""Hypothesis profiles shared by the test suite.

``HYPOTHESIS_PROFILE=ci`` selects the ``ci`` profile: examples are drawn
from a fixed seed (the same examples on every run, so a property failure in
CI reproduces locally under the same setting), there is no per-example
deadline, and a failure prints the blob that replays it.  The profile does
not shrink (and so does not explain) a failing example: a property that
fails on every example is reported at its first failure, in seconds, not
after minutes of shrinking expensive examples; the blob replays it, and a
run under the default profile shrinks it.  Without the variable, Hypothesis
keeps its default profile.

Every test must leave the process-wide state it can reach as it found it:
mpmath's working precision and the catalog's data file.  An autouse
fixture checks both after each test.
"""

import os

import mpmath as mp
import pytest
from hypothesis import Phase, settings

from discsemi import catalog

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    print_blob=True,
    phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target),
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(autouse=True)
def _no_leaked_global_state():
    before = mp.mp.prec, catalog._DATA_PATH
    yield
    assert (mp.mp.prec, catalog._DATA_PATH) == before, "the test leaked global state"
