"""The committed benchmark records (BENCH_*.json at the repo root) agree
with their own runs: each workload's summary statistics recompute from the
per-pair values, the pairs alternate which side ran first, and a claim
block repeats its workload's metric entry."""

from __future__ import annotations

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
SIDES = ("parent", "change")


def load(path: Path) -> dict:
    return json.loads(path.read_text())


def test_there_is_a_record() -> None:
    assert RECORDS


WORKLOADS = [(path, name) for path in RECORDS for name in load(path)["workloads"]]


@pytest.mark.parametrize(
    "path, name", WORKLOADS, ids=[f"{path.name}:{name}" for path, name in WORKLOADS]
)
def test_workload_summary_recomputes_from_its_runs(path, name) -> None:
    workload = load(path)["workloads"][name]
    runs = workload["runs"]
    assert workload["pairs"] == len(runs) == len(workload["seeds"])
    assert workload["seeds"] == [run["seed"] for run in runs]
    first = workload["first_in_pair"]
    assert first == [run["first"] for run in runs]
    assert set(first) <= set(SIDES)
    assert all(a != b for a, b in zip(first, first[1:]))  # alternates
    for key in ("attempted", "failed"):
        assert workload[f"ops_{key}"] == sum(run[side][key] for run in runs for side in SIDES)
    for metric, entry in workload["metrics"].items():
        for side in SIDES:
            values = [run[side][metric] for run in runs]
            q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
            expected = {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6)}
            assert entry[side] == expected, (metric, side)
        lower = sum(run["change"][metric] < run["parent"][metric] for run in runs)
        assert entry["change_lower_in_pairs"] == lower, metric
        ratio = entry["change"]["median"] / entry["parent"]["median"]
        assert entry["change_over_parent"] == round(ratio, 4), metric


@pytest.mark.parametrize("path", RECORDS, ids=[path.name for path in RECORDS])
def test_claim_repeats_its_metric_entry(path) -> None:
    record = load(path)
    claim = record.get("claim")
    if claim is None:
        return
    workload = record["workloads"][claim["workload"]]
    entry = workload["metrics"][claim["metric"]]
    parent = entry["parent"]
    assert claim["parent_median"] == parent["median"]
    assert claim["change_median"] == entry["change"]["median"]
    assert claim["parent_iqr"] == round(parent["q3"] - parent["q1"], 6)
    assert claim["change_wins"] == entry["change_lower_in_pairs"]
    assert claim["pairs"] == workload["pairs"]
