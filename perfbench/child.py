"""One benchmark child: a cold randlab universe running one workload once.

Usage (started by run.py, one process per run, in a fresh empty cwd):

    python3 child.py ROOT WORKLOAD SEED CHILD MODE

MODE is ``setup`` (import and generate inputs, then stop), ``timed`` or
``traced``.  The parent passes its ``time.monotonic()`` at spawn in the
PERFBENCH_SPAWN environment variable; CLOCK_MONOTONIC is shared by every
process on Linux, so set-up time includes interpreter start.  Right after
set-up the child times the reference loop a few times, for the parent to
scale set-up time by.  Timed and traced ops run with the reference sampler
on (see refclock.py); each op's latency is recorded both as measured and at
the reference speed.  The record is written to ``result.json`` in the cwd.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import refclock
import workloads

PINS = Path(__file__).resolve().parent / "pins.json"
DEFAULT_SEED = 0  # seeded op outputs are pinned for this seed's first child


def import_randlab(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import randlab

    if Path(randlab.__file__).resolve().parent != src / "randlab":
        raise ImportError(f"randlab imported from {randlab.__file__}, not from {src}")
    return randlab


def make_api(randlab) -> SimpleNamespace:
    """Every public randlab name, plus ``run_cli`` (exit code, stdout text)."""
    from randlab import cli

    api = SimpleNamespace(**{name: getattr(randlab, name) for name in randlab.__all__})
    api.main = cli.main

    def run_cli(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = api.main(argv)
        return code, buf.getvalue()

    api.run_cli = run_cli
    return api


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    waited = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + waited.ru_utime + waited.ru_stime


def run_ops(ops, api, sampler):
    """Time each op; an op that raises gets its exception as its result.

    Returns the results, each op's latency without the sampler's time in
    it, and the same latencies at the reference speed.
    """
    results, spans = [], []
    clock, net = refclock.CLOCK, sampler.net_clock
    for op in ops:
        start, net_start = clock(), net()
        try:
            result = op.run(api)
        except Exception as exc:  # recorded and counted as a failed op
            result = exc
            traceback.print_exc()
        spans.append((start, clock(), net() - net_start))
        results.append(result)
    latencies = [lat for _, _, lat in spans]
    ref_latencies = [lat * sampler.speed(a, b) for a, b, lat in spans]
    return results, latencies, ref_latencies


def op_digests(ops, results) -> dict[str, str]:
    """Digests of every result whose exact value the library promises.

    prefix_freeize antichains depend on arrival order by design, so the
    antichain-stream outputs are checked against the leaf oracle only.
    """
    return {
        op.label: workloads.digest(res[1] if op.group == "cli" else res)
        for op, res in zip(ops, results)
        if op.group != "freeize" and not isinstance(res, Exception)
    }


def failures(workload, seed, child, ops, results, digests, api) -> list[tuple[int, str]]:
    bad = [(i, f"{op.label}: raised {res!r}") for i, (op, res) in enumerate(zip(ops, results))
           if isinstance(res, Exception)]
    if not bad:  # the checks read results across ops
        bad = workloads.check(ops, results, api)
    pins = json.loads(PINS.read_text())["digests"].get(workload, {}) if PINS.exists() else {}
    pinned_seed = seed == DEFAULT_SEED and child == 0
    for i, op in enumerate(ops):
        want = pins.get(op.label)
        if want is not None and (pinned_seed or not op.seeded) and digests.get(op.label) != want:
            bad.append((i, f"{op.label}: output differs from the pinned digest"))
    return bad


def main(argv: list[str]) -> int:
    root, workload, seed, child, mode = Path(argv[0]), argv[1], int(argv[2]), int(argv[3]), argv[4]
    spawned = float(os.environ["PERFBENCH_SPAWN"])
    randlab = import_randlab(root)
    api = make_api(randlab)
    ops = workloads.build_ops(workload, workloads.make_inputs(workload, seed, child))
    fingerprint = randlab.registry_fingerprint()
    record = {
        "setup_s": time.monotonic() - spawned,
        "workload": workload,
        "seed": seed,
        "child": child,
        "mode": mode,
        "fingerprint": fingerprint,
        "setup_loops": [refclock.time_loop() for _ in range(refclock.SETUP_LOOPS)],
    }
    if mode != "setup":
        sampler = refclock.Sampler()
        tracer = None
        if mode == "traced":
            from spans import Tracer

            tracer = Tracer(clock=sampler.net_clock)
            tracer.install(randlab, api)
        sampler.sample()
        cpu0 = cpu_seconds()
        sampler.start()
        try:
            results, latencies, ref_latencies = run_ops(ops, api, sampler)
        finally:
            sampler.stop()
        cpu_s = cpu_seconds() - cpu0 - sampler.cpu_spent
        sampler.sample()
        run_s, ref_run_s = sum(latencies), sum(ref_latencies)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            tracer.uninstall()
            record["trace"] = tracer.record()
        digests = op_digests(ops, results)
        bad = failures(workload, seed, child, ops, results, digests, api)
        if randlab.registry_fingerprint() != fingerprint:
            bad.append((-1, "registry fingerprint changed during the run"))
        failed = min(len(ops), len({i for i, _ in bad}))
        record.update(
            wall_run_s=run_s,
            wall_cpu_s=cpu_s,
            run_s=ref_run_s,
            cpu_s=cpu_s * ref_run_s / run_s,
            peak_rss_mb=peak_kib / 1024,
            wall_latencies=latencies,
            latencies=ref_latencies,
            loop_samples=len(sampler.took),
            attempted=len(ops),
            failed=failed,
            failures=[reason for _, reason in bad[:20]],
            report_bytes=sum(
                len(res[1].encode()) for op, res in zip(ops, results)
                if op.group == "cli" and not isinstance(res, Exception)
            ),
            digests=digests,
        )
    Path("result.json").write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
