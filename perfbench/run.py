"""randlab benchmark driver: cold-universe runs of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout holding ``src/randlab``.  The driver starts
one fresh child process per run, one at a time (a closed loop with one
client), each in its own empty working directory and TMPDIR under
``.bench_runs/``, so every run pays the memo and witness-table build of a
cold universe and no on-disk state carries over.  It keeps starting runs
while the next one should end within S seconds, then prints a summary and, as its
last line, one JSON object with keys correct, attempted, failed, metrics.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: medians over
the runs of setup_s, run_s, cpu_s and peak_rss_mb, and op latency
percentiles over every op of every run.  Set-up is also measured in extra
set-up-only children, so its median rests on several samples.

Every time among them is given at a fixed reference speed of the host, not
as the wall clock read it: the host's speed swings by up to 2x within
tenths of a second, so each time is scaled by the speed a pure-Python
reference loop, timed during the same interval, showed (refclock.py says
how and why).  The
summary lines print the wall-clock figures beside them.

--trace 1 alternates untraced and traced runs on the seed's first input set
and reports the per-layer metrics, computed from the traced runs' spans;
the last trace is also written to .bench_runs/trace-WORKLOAD.json.  Span
times are wall-clock seconds with the reference loop's time taken out;
trace.overhead_frac compares traced and untraced run_s at reference speed.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import refclock  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 6  # set-up-only children per run, besides the timed ones
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s", "run_s": "s", "cpu_s": "s",
    "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MiB",
}


class ChildFailed(RuntimeError):
    pass


def spawn(root: Path, runs: Path, workload: str, seed: int, child: int, mode: str) -> dict:
    """Run one child to completion in a fresh cwd; return its record.

    The record's ``setup_s`` is at the reference speed, the mean of the
    reference loop timed here just before the spawn and in the child just
    after its set-up; ``wall_setup_s`` is as measured.
    """
    cwd = runs / f"{mode}-{child}-{time.monotonic_ns()}"
    (cwd / "tmp").mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(TMPDIR=str(cwd / "tmp"), PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-s", str(HERE / "child.py"), str(root), workload, str(seed), str(child), mode]
    try:
        loops = [refclock.time_loop() for _ in range(refclock.SETUP_LOOPS)]
        with open(cwd / "stderr.txt", "wb") as err:
            env["PERFBENCH_SPAWN"] = repr(time.monotonic())
            proc = subprocess.run(argv, cwd=cwd, env=env, stdout=err, stderr=err,
                                  timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise ChildFailed((cwd / "stderr.txt").read_text(errors="replace")[-4000:])
        record = json.loads((cwd / "result.json").read_text())
        record["wall_setup_s"] = record["setup_s"]
        record["setup_s"] *= refclock.mean_speed(loops + record["setup_loops"])
        return record
    finally:
        shutil.rmtree(cwd, ignore_errors=True)


def quantile(values, q: int) -> float:
    """The q-th percentile (1..99) of values, interpolated."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(timed: list[dict], setups: list[dict], prefix: str = "") -> dict:
    """The end-to-end metrics; prefix "wall_" gives them as measured."""
    latencies_ms = [x * 1e3 for rec in timed for x in rec[prefix + "latencies"]]
    values = {
        "setup_s": statistics.median(r[prefix + "setup_s"] for r in setups),
        "run_s": statistics.median(r[prefix + "run_s"] for r in timed),
        "cpu_s": statistics.median(r[prefix + "cpu_s"] for r in timed),
        "op_p50_ms": quantile(latencies_ms, 50),
        "op_p90_ms": quantile(latencies_ms, 90),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
    }
    samples = {
        "setup_s": len(setups), "run_s": len(timed), "cpu_s": len(timed),
        "op_p50_ms": len(latencies_ms), "op_p90_ms": len(latencies_ms),
        "peak_rss_mb": len(timed),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k], "n": samples[k]} for k, v in values.items()}


def _outermost(spans, prefix):
    """Spans named prefix* with no ancestor of the same layer."""
    out = []
    for span in spans:
        parent = span[3]
        while parent >= 0 and not spans[parent][0].startswith(prefix):
            parent = spans[parent][3]
        if span[0].startswith(prefix) and parent < 0:
            out.append(span)
    return out


def per_layer(trace: dict, report_bytes: int, overhead: float) -> dict:
    """The per-layer metrics of one traced run (see BENCHMARK.json)."""
    spans = trace["spans"]

    def dur(s):
        return s[2] - s[1]

    def named(*names):
        return [s for s in spans if s[0] in names]

    def first_rate(name):
        hits = named(name)
        return hits[0][5] / dur(hits[0]) if hits else 0.0

    complexity = _outermost(spans, "complexity.")
    omega_pairs = named("omega.omega_lower_bound", "omega.halted_below")
    freeize = named("prefixfree.prefix_freeize")
    strings_in = sum(s[6][0] or 0 for s in freeize)
    strings_out = sum(s[6][1] for s in freeize)
    mltest = _outermost(spans, "mltest.")
    cli = named("cli.main")
    in_cli = {i for i, s in enumerate(spans) if s[0] == "cli.main"}
    cli_children = sum(dur(s) for s in spans if s[3] in in_cli)
    cli_children += sum(t for i, t in trace["dovetail_by_span"] if i in in_cli)
    counts = trace["counts"]
    values = {
        "machine.status_calls": (trace["machine_calls"], "count"),
        "machine.table_programs_per_s.L12": (first_rate("complexity.plain_c"), "1/s"),
        "machine.table_programs_per_s.L13": (first_rate("complexity.prefix_k"), "1/s"),
        "machine.dovetail_s": (sum(t for _, t in trace["dovetail_by_span"]), "s"),
        "machine.dovetail_events": (counts.get("dovetail_events", 0), "count"),
        "complexity.calls": (len(complexity), "count"),
        "complexity.span_s": (sum(map(dur, complexity)), "s"),
        "complexity.status_calls_per_query": (
            sum(s[4] for s in complexity) / len(complexity) if complexity else 0.0, "ratio"),
        "omega.span_s": (sum(map(dur, _outermost(spans, "omega."))), "s"),
        "omega.pairs": (sum(s[6] for s in omega_pairs), "count"),
        "omega.pairs_per_s": (
            sum(s[6] for s in omega_pairs) / sum(map(dur, omega_pairs)) if omega_pairs else 0.0, "1/s"),
        "omega.psi_s": (sum(map(dur, named("omega.psi_reconstruct"))), "s"),
        "prefixfree.calls": (sum(1 for s in spans if s[0].startswith("prefixfree.")), "count"),
        "prefixfree.freeize_s": (sum(map(dur, freeize)), "s"),
        "prefixfree.cover_s": (sum(map(dur, named("prefixfree.cover_measure"))), "s"),
        "prefixfree.strings_in": (strings_in, "count"),
        "prefixfree.strings_out": (strings_out, "count"),
        "prefixfree.out_per_in": (strings_out / strings_in if strings_in else 0.0, "ratio"),
        "mltest.calls": (sum(1 for s in spans if s[0].startswith("mltest.")), "count"),
        "mltest.span_s": (sum(map(dur, mltest)), "s"),
        "bitstr.strings_enumerated": (counts.get("strings_enumerated", 0), "count"),
        "cli.span_s": (sum(map(dur, cli)), "s"),
        "cli.self_s": (sum(map(dur, cli)) - cli_children, "s"),
        "cli.report_bytes": (report_bytes, "bytes"),
        "trace.overhead_frac": (overhead, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def universe(root: Path, records: list[dict], seed: int, workload: str) -> dict:
    """Everything a result is relative to."""
    src = sorted((root / "src" / "randlab").glob("*.py"))
    src_digest = hashlib.sha256(b"".join(p.read_bytes() for p in src)).hexdigest()[:16]
    head = root / ".git" / "HEAD"
    commit = None
    if head.exists():
        ref = head.read_text().strip()
        ref_file = root / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_file.read_text().strip() if ref_file and ref_file.exists() else ref
    return {
        "workload": workload,
        "seed": seed,
        "registry_fingerprint": sorted({r["fingerprint"] for r in records}),
        "groups": workloads.GROUPS[workload],
        "commit": commit,
        "src_sha256_16": src_digest,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # exit through SystemExit on SIGTERM, so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "randlab" / "__init__.py").is_file():
        print(f"perfbench: no src/randlab under {root}; run from a randlab checkout",
              file=sys.stderr)
        return 2
    compileall.compile_dir(root / "src", quiet=1)
    runs = root / ".bench_runs" / f"{os.getpid()}"
    started = time.monotonic()
    timed, traced, setups = [], [], []
    try:
        for _ in range(SETUP_PROBES):
            setups.append(spawn(root, runs, args.workload, args.seed, 0, "setup"))
        # start another run only if it should end within the time allowed
        child, last = 0, 0.0
        while not timed or time.monotonic() - started + last <= args.seconds:
            begun = time.monotonic()
            if args.trace:
                timed.append(spawn(root, runs, args.workload, args.seed, 0, "timed"))
                traced.append(spawn(root, runs, args.workload, args.seed, 0, "traced"))
            else:
                timed.append(spawn(root, runs, args.workload, args.seed, child, "timed"))
                child += 1
            last = time.monotonic() - begun
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: child failed:\n{exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runs, ignore_errors=True)

    records = timed + traced
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    setups += timed
    metrics = end_to_end(timed, setups)
    wall = end_to_end(timed, setups, "wall_")
    print("# universe " + json.dumps(universe(root, records, args.seed, args.workload), sort_keys=True))
    print(f"# {args.workload} seed {args.seed}: {len(timed)} timed + {len(traced)} traced runs, "
          f"{attempted} ops attempted, {failed} failed")
    print(f"# {'metric':<12} {'at ref speed':>14} {'wall clock':>14}")
    for name, m in metrics.items():
        print(f"{name:<14} {m['value']:>14.6f} {wall[name]['value']:>14.6f} {m['unit']:<6} n={m['n']}")
    print("# run_s of each run at ref speed: " + " ".join(f"{r['run_s']:.3f}" for r in records))
    print("# run_s of each run, wall clock: " + " ".join(f"{r['wall_run_s']:.3f}" for r in records))
    print(f"# reference-loop samples: {sum(r['loop_samples'] for r in records)}")
    print(f"{'failed_frac':<14} {failed / attempted:>14.6f} ratio  ({failed}/{attempted})")
    for r in records:
        for reason in r["failures"]:
            print(f"# FAILED {reason}")
    if args.trace:
        overhead = (statistics.median(r["run_s"] for r in traced)
                    / statistics.median(r["run_s"] for r in timed) - 1)
        layer = per_layer(traced[-1]["trace"], traced[-1]["report_bytes"], overhead)
        for name in (k for k, m in layer.items() if m["unit"] in ("s", "1/s")):
            layer[name]["value"] = statistics.median(
                per_layer(r["trace"], r["report_bytes"], overhead)[name]["value"] for r in traced)
        for name, m in layer.items():
            print(f"{name:<36} {m['value']:>16.6f} {m['unit']}")
        out = root / ".bench_runs" / f"trace-{args.workload}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(traced[-1]["trace"]))
        metrics = layer
    else:
        metrics = {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
