"""Smoke test of the benchmark: each workload runs one round with its checks on.

    python -m pytest -q bench/test_smoke.py
"""

import json
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def names_and_units(metrics):
    return {name: metric["unit"] for name, metric in metrics.items()}


def test_end_to_end_metrics_match_the_spec():
    phase = {"latencies": [0.001 * (1 + i) for i in range(100)], "busy": 5.05}
    metrics = run.end_to_end(phase, 0.5)
    assert names_and_units(metrics) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert metrics["op_p50_ms"]["value"] == pytest.approx(50.5)
    assert metrics["ops_per_s"]["value"] == pytest.approx(100 / 5.05)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_passes_its_checks_and_reports_every_layer(workload):
    result = run.measure(workload, 1, 0.0, True, min_ok=1, setup_rounds=1)
    assert result["correct"]
    assert result["attempted"] % WORKLOADS[workload].round_size == 0
    # the known fault: one box in every round of region_straight, nothing else
    expected_failed = result["attempted"] // 4 if workload == "region_straight" else 0
    assert result["failed"] == expected_failed
    assert names_and_units(result["metrics"]) == {m["name"]: m["unit"]
                                                  for m in SPEC["per_layer"]}


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
