"""Tests of the benchmark itself (not part of the randlab suite).

    python3 -m pytest perfbench/tests

The traced-run tests start the real driver and take a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import refclock  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# exact per-layer metrics: counts, and ratios of counts
EXACT = ("prefixfree.out_per_in", "complexity.status_calls_per_query")


def driver(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload):
    first = workloads.make_inputs(workload, 7)
    assert workloads.make_inputs(workload, 7) == first
    assert workloads.make_inputs(workload, 8) != first
    assert workloads.make_inputs(workload, 7, child=1) != first


def test_spread_interleaves_groups_and_keeps_each_in_order():
    ops = [workloads.Op(g, f"{g}{k}", False, None, None) for g, n in (("a", 4), ("b", 2), ("c", 1))
           for k in range(n)]
    assert [op.label for op in workloads.spread(ops)] == ["a0", "b0", "a1", "c0", "a2", "b1", "a3"]


def _api():
    import randlab

    return child.make_api(randlab)


@pytest.mark.parametrize("workload, corrupt", [
    ("antichain-stream", lambda r: r | {"0" * 14}),
    ("antichain-stream", lambda r: frozenset(sorted(r)[1:])),
    ("ml-battery", lambda r: r + r),
])
def test_wrong_result_is_counted_as_failed(workload, corrupt):
    api = _api()
    ops = [op for op in workloads.build_ops(workload, workloads.make_inputs(workload, 1))
           if op.group in ("freeize", "cover")][:40]
    results = [op.run(api) for op in ops]
    digests = child.op_digests(ops, results)
    assert child.failures(workload, 1, 0, ops, results, digests, api) == []
    victim = next(i for i, r in enumerate(results) if r)
    results[victim] = corrupt(results[victim])
    bad = child.failures(workload, 1, 0, ops, results, digests, api)
    assert [i for i, _ in bad] == [victim]


def test_pinned_digest_mismatch_is_counted_as_failed():
    api = _api()
    ops = [op for op in workloads.build_ops("ml-battery", {"cover": []}) if op.group == "validate"]
    results = [op.run(api) for op in ops]
    digests = child.op_digests(ops, results)
    assert child.failures("ml-battery", 5, 3, ops, results, digests, api) == []
    digests[ops[0].label] = "0" * 16
    bad = child.failures("ml-battery", 5, 3, ops, results, digests, api)
    assert [i for i, _ in bad] == [0]


def _sampler(at, took):
    sampler = refclock.Sampler()
    sampler.at, sampler.took = list(at), list(took)
    return sampler


def test_speed_is_the_mean_speed_of_the_samples_around_an_interval():
    ref = refclock.REF_LOOP_S
    # the host runs at full speed for 1 s, then at half speed
    sampler = _sampler([i / 10 for i in range(20)], [ref] * 10 + [2 * ref] * 10)
    assert sampler.speed(0.3, 0.5) == 1.0
    assert sampler.speed(1.4, 1.6) == 0.5
    assert sampler.speed(0.0, 1.9) == 0.75
    # a 1 s interval at half speed takes 2 s: the same work as 1 s at full speed
    assert 2.0 * sampler.speed(1.0, 1.9) == 1.0


def test_speed_falls_back_to_the_nearest_samples():
    ref = refclock.REF_LOOP_S
    sampler = _sampler([0.0, 10.0, 11.0, 12.0], [ref, 2 * ref, 2 * ref, 2 * ref])
    assert sampler.speed(11.0, 11.0) == 0.5
    assert sampler.speed(99.0, 99.0) == 0.5
    with pytest.raises(RuntimeError):
        _sampler([], []).speed(0.0, 1.0)


def test_sampler_time_is_taken_out_of_op_latencies():
    ops = [workloads.Op("loop", "loop", False, 400, lambda R, n: [refclock.loop() for _ in range(n)])]
    sampler = refclock.Sampler()
    start = refclock.CLOCK()
    sampler.start()
    try:
        _, latencies, ref_latencies = child.run_ops(ops, None, sampler)
    finally:
        sampler.stop()
    wall = refclock.CLOCK() - start
    assert len(sampler.took) >= 3
    assert latencies[0] < wall - sampler.spent < latencies[0] + 0.01
    assert ref_latencies[0] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = driver("--workload", "antichain-stream", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_and_report_bytes_match_pins(workload):
    runs = []
    for _ in range(2):
        proc = driver("--workload", workload, "--seed", "0", "--seconds", "0", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        runs.append(result["metrics"])
    exact = [k for k, m in runs[0].items() if m["unit"] in ("count", "bytes") or k in EXACT]
    assert {k: runs[0][k] for k in exact} == {k: runs[1][k] for k in exact}
    pins = json.loads((BENCH / "pins.json").read_text())
    assert runs[0]["cli.report_bytes"]["value"] == pins["report_bytes"][workload]
