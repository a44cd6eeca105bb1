"""In-memory span tracer for the benchmark's traced run.

The tracer wraps the public functions of each discsemi layer at every
module binding (modules import one another by name, e.g.
``from .functional import moments``, so patching only the defining module
would miss most calls).  Each wrapped call records one span -- name, start,
end, parent -- in memory; self time is a span's duration minus the time its
direct child spans cover.  Spans never leave the process until
:meth:`Tracer.write` is called at the end of the run.

A few calls also feed counters (terms summed, moments produced, output bit
length, distinct moment requests); see :data:`PROBES`.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from fractions import Fraction

#: Public functions traced per layer.  Helper modules (polys, combin,
#: scalars, params) are not traced: their time is self time of the layer
#: that calls them.  The cli layer is covered by the untraced ``setup_s``.
LAYERS = {
    "hyper": ("eval_hyper", "eval_hyper_finite_sum"),
    "functional": (
        "pearson_pair",
        "moments",
        "stieltjes_eval",
        "weight_at",
        "functional_of_poly",
    ),
    "stieltjeseq": ("derive_xi", "verify_equation"),
    "transforms": (
        "apply_uvarov",
        "apply_christoffel",
        "apply_geronimus",
        "apply_truncation",
        "apply_symmetrization",
        "apply_transform",
        "compose_check",
    ),
    "orthopoly": (
        "recurrence_from_moments",
        "chebyshev_from_moments",
        "orthogonality_check",
    ),
    "catalog": ("regression_suite", "instantiate", "moment_formula"),
}

#: Name of the benchmark's own root spans (one per pass, one per item).
PASS_SPAN = "bench.pass"
ITEM_SPAN = "bench.item"


def _exact_bits(value) -> int:
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        q = Fraction(value)
        return q.numerator.bit_length() + q.denominator.bit_length()
    return 0


def _probe_finite_sum(tracer, bound, result):
    tracer.counters["hyper.finite_terms"] += bound.arguments["K"]


def _probe_moments(tracer, bound, result):
    args = bound.arguments
    tracer.counters["functional.moments.values"] += args["K"] + 1
    # keyed by the enclosing root span, so repeats count once per pass
    root = tracer._stack[0] if tracer._stack else -1
    tracer.moment_keys.add((root, args["spec"], args["K"], args["tol"]))
    tracer.counters["functional.moments.out_bits"] += sum(
        _exact_bits(v) for v in result.values
    )


#: Counters fed from a call's bound arguments and its result.
PROBES = {
    "hyper.eval_hyper_finite_sum": _probe_finite_sum,
    "functional.moments": _probe_moments,
}


class Tracer:
    """Records spans and counters while installed; inert otherwise."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, start, end, parent index]
        self._stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.moment_keys: set = set()
        self._patched: list[tuple] = []  # (module, attribute, original)

    # -- spans -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def start(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([self._name_id(name), self.clock(), None, parent])
        self._stack.append(index)
        return index

    def finish(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError("span stack out of order")

    def wrap(self, fn, name: str):
        """A wrapper that records a span named ``name`` around ``fn``."""
        layer = name.split(".")[0]
        probe = PROBES.get(name)
        signature = inspect.signature(fn) if probe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.start(name)
            self.counters[name + ".calls"] += 1
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counters[layer + ".errors"] += 1
                raise
            finally:
                self.finish(index)
            if probe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                probe(self, bound, result)
            return result

        return traced

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every function in LAYERS at every binding in the package."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None
            and (name == "discsemi" or name.startswith("discsemi."))
        ]
        for layer, functions in LAYERS.items():
            home = sys.modules[f"discsemi.{layer}"]
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self.wrap(original, f"{layer}.{fn_name}")
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original binding back."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # -- results ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name over every recorded span."""
        child_time = [0.0] * len(self.spans)
        for name_id, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name_id, start, end, _parent), covered in zip(self.spans, child_time):
            totals[self.names[name_id]] += (end - start) - covered
        return dict(totals)

    def root_time(self) -> float:
        """Summed duration of the spans that have no parent."""
        return sum(end - start for _n, start, end, parent in self.spans if parent < 0)

    def write(self, path) -> None:
        """Write names, spans and counters as JSON."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "spans": self.spans,
                    "counters": dict(self.counters),
                },
                fh,
                separators=(",", ":"),
            )
