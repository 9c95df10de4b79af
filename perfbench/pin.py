"""Write pins.json: the digests of every op output of the default seed's
first input set, and the bytes of the CLI reports, for every workload.

    python3 perfbench/pin.py

Run from a checkout root at a commit whose outputs are known good.  Later
runs count an op whose digest differs as failed; seeded ops are compared
only on the default seed's first input set.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

from run import spawn
from child import DEFAULT_SEED, PINS
from workloads import WORKLOADS


def main() -> int:
    root = Path.cwd()
    runs = root / ".bench_runs" / f"pin-{os.getpid()}"
    pins = {"digests": {}, "report_bytes": {}}
    try:
        for workload in WORKLOADS:
            record = spawn(root, runs, workload, DEFAULT_SEED, 0, "timed")
            pins["digests"][workload] = record["digests"]
            pins["report_bytes"][workload] = record["report_bytes"]
            print(f"{workload}: {len(record['digests'])} digests, "
                  f"{record['report_bytes']} report bytes, {record['failed']} failed")
    finally:
        shutil.rmtree(runs, ignore_errors=True)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
