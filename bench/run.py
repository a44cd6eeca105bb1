"""The discsemi benchmark.

Run from the root of a checkout:

    python3 bench/run.py --workload catalog_suite --seed 1 --seconds 30 --trace 0

One process, one thread, closed loop: each item starts when the previous
one has finished.  ``--trace 0`` measures the end-to-end metrics with
tracing off; ``--trace 1`` is a separate run that also wraps each layer's
public functions and reports per-layer metrics (self time, calls, work
counts, errors) per pass.  Every output is checked; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it carries run information
(environment, pass count, tail percentile, sample count).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import mpmath
from mpmath import mp

import tracer as tracer_mod

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: What every CLI call pays before doing any work.
SETUP_CODE = "import discsemi; discsemi.catalog_entries()"
SETUP_RUNS = 9
#: Timed passes of an end-to-end run, at least.
MIN_PASSES = 3
#: Rounds of a traced run, each one untraced pass then one traced pass.
TRACE_MIN_ROUNDS = 2
#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10
MAX_REPORTED_FAILURES = 5

END_TO_END = (
    ("job_s", "s"),
    ("item_p50_ms", "ms"),
    ("item_tail_ms", "ms"),
    ("ok_frac", "fraction"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# (metric, unit); every name is read from the traced run, per pass.
PER_LAYER = (
    ("hyper.self_s", "s"),
    ("hyper.eval_hyper.calls", "count"),
    ("hyper.eval_hyper.self_s", "s"),
    ("hyper.eval_hyper_finite_sum.calls", "count"),
    ("hyper.eval_hyper_finite_sum.self_s", "s"),
    ("hyper.finite_terms", "count"),
    ("hyper.finite_us_per_term", "us"),
    ("hyper.errors", "count"),
    ("functional.self_s", "s"),
    ("functional.moments.calls", "count"),
    ("functional.moments.self_s", "s"),
    ("functional.moments.values", "count"),
    ("functional.moments.reuse_ratio", "ratio"),
    ("functional.moments.out_bits", "bit"),
    ("functional.stieltjes_eval.calls", "count"),
    ("functional.stieltjes_eval.self_s", "s"),
    ("functional.pearson_pair.self_s", "s"),
    ("functional.weight_at.self_s", "s"),
    ("functional.functional_of_poly.self_s", "s"),
    ("functional.errors", "count"),
    ("stieltjeseq.self_s", "s"),
    ("stieltjeseq.derive_xi.self_s", "s"),
    ("stieltjeseq.verify_equation.self_s", "s"),
    ("stieltjeseq.errors", "count"),
    ("transforms.self_s", "s"),
    ("transforms.apply_geronimus.calls", "count"),
    ("transforms.compose_check.self_s", "s"),
    ("transforms.errors", "count"),
    ("orthopoly.self_s", "s"),
    ("orthopoly.recurrence_from_moments.self_s", "s"),
    ("orthopoly.chebyshev_from_moments.self_s", "s"),
    ("orthopoly.orthogonality_check.self_s", "s"),
    ("orthopoly.errors", "count"),
    ("catalog.self_s", "s"),
    ("catalog.regression_suite.self_s", "s"),
    ("catalog.instantiate.self_s", "s"),
    ("catalog.moment_formula.self_s", "s"),
    ("catalog.errors", "count"),
    ("bench.self_s", "s"),
    ("trace.job_s", "s"),
    ("trace.overhead_frac", "fraction"),
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program():
    """Import discsemi from this checkout's sources, or explain why not."""
    if not (SRC / "discsemi" / "__init__.py").is_file():
        raise SystemExit(
            f"bench: {SRC / 'discsemi'} is missing; run from the root of a "
            f"full discsemi checkout"
        )
    sys.path.insert(0, str(SRC))
    import discsemi

    if Path(discsemi.__file__).resolve().parent != (SRC / "discsemi").resolve():
        raise SystemExit(f"bench: imported discsemi from {discsemi.__file__}")
    return discsemi


def measure_setup(runs: int = SETUP_RUNS) -> float:
    """Median wall time of a fresh interpreter importing the package and
    loading the catalog (after one unmeasured run that writes bytecode)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", SETUP_CODE]
    times = []
    for i in range(runs + 1):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True)
        if i:
            times.append(time.perf_counter() - start)
    return statistics.median(times)


def src_line_count() -> int:
    return sum(
        path.read_bytes().count(b"\n") for path in (SRC / "discsemi").glob("*.py")
    )


def tail_percentile(min_samples: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND of ``min_samples``
    beyond it; more samples only add to the count beyond."""
    return max(50, math.floor(100 * (1 - TAIL_BEYOND / min_samples)))


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


class Runner:
    """Runs passes over one workload's items and checks every output."""

    def __init__(self, workload, items, reference):
        self.workload = workload
        self.items = items
        self.reference = reference
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self, tracer=None):
        """One timed pass; returns (pass wall time, per-item times)."""
        run = self.workload.run
        outputs = []
        times = []
        pass_span = tracer.start(tracer_mod.PASS_SPAN) if tracer else None
        start = time.perf_counter()
        for item in self.items:
            mp.dps = self.workload.dps
            item_span = tracer.start(tracer_mod.ITEM_SPAN) if tracer else None
            t0 = time.perf_counter()
            try:
                out = run(item)
            except Exception as exc:  # counted as a failed item
                out = exc
            t1 = time.perf_counter()
            if tracer:
                tracer.finish(item_span)
            times.append(t1 - t0)
            outputs.append(out)
        wall = time.perf_counter() - start
        if tracer:
            tracer.finish(pass_span)
        mp.dps = self.workload.dps
        for item, out in zip(self.items, outputs):
            self.attempted += 1
            if isinstance(out, Exception):
                reason = f"raised {type(out).__name__}: {out}"
            else:
                reason = self.workload.check(item, out, self.reference)
            if reason is not None:
                self.failures.append(f"{item.label}: {reason}")
        del outputs
        gc.collect()
        return wall, times

    def traced_pass(self, tracer):
        """One pass with the tracer installed only for its duration."""
        tracer.install()
        try:
            return self.run_pass(tracer)
        finally:
            tracer.uninstall()


def repeat(step, seconds: float, min_rounds: int) -> list:
    """Results of ``step()`` called until ``seconds`` would be exceeded,
    judged by the median round so far (at least ``min_rounds`` calls)."""
    results, rounds = [], []
    start = time.perf_counter()
    while True:
        begin = time.perf_counter()
        results.append(step())
        rounds.append(time.perf_counter() - begin)
        elapsed = time.perf_counter() - start
        if len(results) >= min_rounds and elapsed + statistics.median(rounds) > seconds:
            return results


def layer_metrics(tracer, passes: int) -> dict:
    """Per-pass layer figures from every span and counter of the tracer."""
    self_s = tracer.self_times()
    counters = tracer.counters
    out: dict = {}
    for layer, functions in tracer_mod.LAYERS.items():
        names = [f"{layer}.{fn}" for fn in functions]
        out[f"{layer}.self_s"] = sum(self_s.get(n, 0.0) for n in names)
        out[f"{layer}.errors"] = counters.get(f"{layer}.errors", 0)
        for name in names:
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
            out[f"{name}.calls"] = counters.get(f"{name}.calls", 0)
    out["bench.self_s"] = self_s.get(tracer_mod.PASS_SPAN, 0.0) + self_s.get(
        tracer_mod.ITEM_SPAN, 0.0
    )
    for name in ("hyper.finite_terms", "functional.moments.values",
                 "functional.moments.out_bits"):
        out[name] = counters.get(name, 0)
    out = {k: v / passes for k, v in out.items()}
    terms = out["hyper.finite_terms"]
    out["hyper.finite_us_per_term"] = (
        out["hyper.eval_hyper_finite_sum.self_s"] * 1e6 / terms if terms else 0.0
    )
    calls = counters.get("functional.moments.calls", 0)
    out["functional.moments.reuse_ratio"] = (
        len(tracer.moment_keys) / calls if calls else 0.0
    )
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    discsemi = load_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(
            f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}"
        )
    workload = WORKLOADS[args.workload]
    reference = json.loads((BENCH / "reference.json").read_text()).get(
        workload.name, {}
    )
    info = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "cpu_count": os.cpu_count(),
        "dps": workload.dps,
        "src_lines": src_line_count(),
        "discsemi": discsemi.__version__,
    }
    metrics: dict = {}
    if not args.trace:
        metrics["setup_s"] = measure_setup()

    saved_dps = mp.dps
    try:
        mp.dps = workload.dps
        items = workload.items(args.seed)
        runner = Runner(workload, items, reference)
        runner.run_pass()  # warm-up: catalog load, mpmath and Stirling caches
        if not args.trace:
            passes = repeat(runner.run_pass, args.seconds, MIN_PASSES)
            walls = [wall for wall, _ in passes]
            times = [t for _, item_times in passes for t in item_times]
            pct = tail_percentile(MIN_PASSES * len(items))
            metrics["job_s"] = statistics.median(walls)
            metrics["item_p50_ms"] = statistics.median(times) * 1e3
            metrics["item_tail_ms"] = percentile(times, pct) * 1e3
            info.update(
                passes=len(walls),
                pass_s=[round(w, 4) for w in walls],
                item_samples=len(times),
                item_tail_pct=pct,
            )
        else:
            # Untraced and traced passes alternate, so that both see the
            # same machine speed; the host's speed drifts over seconds.
            tracer = tracer_mod.Tracer()
            rounds = repeat(
                lambda: (runner.run_pass()[0], runner.traced_pass(tracer)[0]),
                args.seconds,
                TRACE_MIN_ROUNDS,
            )
            metrics = layer_metrics(tracer, len(rounds))
            metrics["trace.job_s"] = tracer.root_time() / len(rounds)
            metrics["trace.overhead_frac"] = (
                statistics.median(traced / plain for plain, traced in rounds) - 1
            )
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / f"trace-{workload.name}-seed{args.seed}.json"
            tracer.write(spans_path)
            info.update(
                rounds=len(rounds),
                spans=len(tracer.spans),
                spans_file=str(spans_path.relative_to(ROOT)),
            )
    finally:
        mp.dps = saved_dps

    if not args.trace:
        attempted = runner.attempted
        metrics["ok_frac"] = (attempted - len(runner.failures)) / attempted
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        )
        wanted = END_TO_END
    else:
        wanted = PER_LAYER
    info["failures"] = runner.failures[:MAX_REPORTED_FAILURES]
    for failure in runner.failures[:MAX_REPORTED_FAILURES]:
        print(f"bench: FAILED {failure}", file=sys.stderr)
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in wanted
        },
    }
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
