"""Tests of the benchmark itself.

    python3 -m pytest perfbench

Each runs a workload for a few ops in-process, so together they take
about a minute.
"""

import json

import pytest

import run
from workloads import DEFAULT_SEED, WORKLOADS

SPEC = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())


def _units(entries) -> dict:
    return {m["name"]: m["unit"] for m in entries}


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_reports_every_metric(name, trace):
    context, result = run.run(name, DEFAULT_SEED, 1, trace, smoke=True)
    assert context["goldens_checked"]
    assert result["correct"], result
    assert result["failed"] == 0
    assert result["attempted"] == run.SMOKE_OPS * (2 if trace else 1)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == _units(SPEC["per_layer" if trace else "end_to_end"])


def test_benchmark_names_the_workloads_it_runs():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_a_corrupted_golden_fails_the_ops_that_use_it():
    goldens = run.load_goldens("stats-12q")
    goldens[0]["outputs"][0]["numbers"][1] += 1e-6
    _, result = run.run("stats-12q", DEFAULT_SEED, 1, False, smoke=True, goldens=goldens)
    assert result["metrics"]["ok_frac"]["value"] < 1
    assert result["failed"] >= 1
    assert not result["correct"]
