"""Tests for the benchmark's seeded generators and its declared metrics."""

import json
from pathlib import Path

import pytest

import run
from workloads import RECORDERS, WORKLOADS, canonical

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_specs(name):
    workload = WORKLOADS[name]
    first = canonical([item.describe() for item in workload.items(7)])
    second = canonical([item.describe() for item in workload.items(7)])
    assert first == second
    other = canonical([item.describe() for item in workload.items(8)])
    assert other != first


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_seed_draws_one_item_per_stratum_and_balances_offsets(name):
    workload = WORKLOADS[name]
    strata = workload.strata()
    width = len(strata[0])
    assert all(len(stratum) == width for stratum in strata)
    for seed in range(5):
        picks = workload.recipes(seed)
        assert len(picks) == len(strata)
        offsets = sorted(
            stratum.index(pick)
            for stratum in strata
            for pick in picks
            if pick in stratum
        )
        assert offsets == sorted(i % width for i in range(len(strata)))


@pytest.mark.parametrize("name", sorted(RECORDERS))
def test_every_exact_item_has_a_recorded_reference(name):
    reference = json.loads((run.BENCH / "reference.json").read_text())[name]
    workload = WORKLOADS[name]
    keys = [
        item.key
        for stratum in workload.strata()
        for item in map(workload.build, stratum)
        if item.exact
    ]
    assert keys and len(set(keys)) == len(keys)
    assert set(keys) == set(reference)


def test_declared_metrics_match_the_benchmark_file():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(
        run.PER_LAYER
    )


@pytest.mark.parametrize("samples", [36, 59 * 3, 200])
def test_tail_percentile_leaves_ten_samples_beyond(samples):
    pct = run.tail_percentile(samples)
    values = list(range(samples))
    cut = run.percentile(values, pct)
    assert sum(v > cut for v in values) >= run.TAIL_BEYOND
    assert sum(v > run.percentile(values, pct + 1) for v in values) < run.TAIL_BEYOND
