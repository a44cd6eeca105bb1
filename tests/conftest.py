"""Hypothesis profiles shared by the test suite.

``HYPOTHESIS_PROFILE=ci`` selects the ``ci`` profile: examples are drawn
from a fixed seed (the same examples on every run, so a property failure in
CI reproduces locally under the same setting), there is no per-example
deadline, and a failure prints the blob that replays it.  Without the
variable, Hypothesis keeps its default profile.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
