"""The committed benchmark records (root-level ``BENCH_*.json``) parse and
name only the workloads and end-to-end metrics that BENCHMARK.json declares."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_names_only_declared_workloads_and_metrics(path):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in declared["workloads"]}
    metrics = {m["name"]: m for m in declared["end_to_end"]}
    record = json.loads(path.read_text())
    pairs = len(record["seeds"])
    assert pairs >= 10
    assert record["claim"]["workload"] in workloads
    assert record["claim"]["metric"] in metrics
    assert record["workloads"] and set(record["workloads"]) <= workloads
    for cells in record["workloads"].values():
        assert cells and set(cells) <= set(metrics)
        for name, cell in cells.items():
            assert cell["unit"] == metrics[name]["unit"]
            assert cell["better"] == metrics[name]["better"]
            assert cell["bound"] == metrics[name]["bound"]
            for side in ("parent", "change"):
                q = cell[side]
                assert q["q1"] <= q["median"] <= q["q3"]
            assert 0 <= cell["change_better_in"] + cell["ties"] <= pairs


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_a_claim_that_holds_has_a_better_change_median(path):
    record = json.loads(path.read_text())
    claim = record["claim"]
    if not claim["holds"]:
        pytest.skip("the claim does not hold")
    cell = record["workloads"][claim["workload"]][claim["metric"]]
    parent, change = cell["parent"]["median"], cell["change"]["median"]
    assert change < parent if cell["better"] == "lower" else change > parent
