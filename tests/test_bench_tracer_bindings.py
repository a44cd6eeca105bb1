"""The benchmark tracer's bindings still exist in the package.

``bench/tracer.py`` wraps the functions it names in ``LAYERS`` by module
attribute, and its probes read call arguments by name; a rename breaks
only a traced benchmark run.  This checks the names and the probed
parameters against the package.  The benchmark files are only read.
"""

import importlib
import inspect
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402

#: The call arguments each probe reads.
PROBED = {
    "hyper.eval_hyper_finite_sum": {"K"},
    "functional.moments": {"spec", "K", "tol"},
}


def test_every_traced_name_is_a_function_of_its_layer():
    for layer, names in tracer.LAYERS.items():
        module = importlib.import_module(f"discsemi.{layer}")
        for name in names:
            assert inspect.isfunction(getattr(module, name, None)), f"{layer}.{name}"


def test_probed_functions_take_the_arguments_their_probes_read():
    assert set(tracer.PROBES) == set(PROBED)
    for qualified, params in PROBED.items():
        layer, name = qualified.split(".")
        assert name in tracer.LAYERS[layer]
        fn = getattr(importlib.import_module(f"discsemi.{layer}"), name)
        assert params <= set(inspect.signature(fn).parameters), qualified
