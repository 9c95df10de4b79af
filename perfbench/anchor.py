"""Time the three layer figures ROADMAP quotes, each in a fresh process.

    python3 perfbench/anchor.py [REPEATS]

Run from a checkout root.  Prints one JSON object: for each figure the
median wall seconds of REPEATS cold processes (default 3), and every
sample.  The figures are the prefix witness table at len_limit 13
(``prefix_k`` of one string), the criterion-06 shape (``plain_c`` over every
string of length <= 6, then ``subadditivity_probe(4, len_limit=13)``), and
``omega_lower_bound(2**20)`` on a cold memo.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

FIGURES = {
    "l13_prefix_table_s": "R.prefix_k('', 13)",
    "criterion06_shape_s": "[R.plain_c(b) for b in R.all_strings(6)]; R.subadditivity_probe(4, len_limit=13)",
    "omega_2p20_cold_s": "R.omega_lower_bound(1 << 20)",
}

PROGRAM = """
import sys, time
sys.path.insert(0, 'src')
import randlab as R
start = time.perf_counter()
{stmt}
print(time.perf_counter() - start)
"""


def main() -> int:
    repeats = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    out = {}
    for name, stmt in FIGURES.items():
        samples = [
            float(subprocess.run([sys.executable, "-c", PROGRAM.format(stmt=stmt)], check=True,
                                 capture_output=True, text=True).stdout)
            for _ in range(repeats)
        ]
        out[name] = {"median": statistics.median(samples), "samples": samples}
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
