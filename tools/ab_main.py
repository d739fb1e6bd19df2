#!/usr/bin/env python3
"""Time ``relocsplit.cli.main`` from two source trees in alternating fresh processes.

Usage: python3 tools/ab_main.py SRC_A SRC_B PAIRS -- CLI_ARGS...

SRC_A and SRC_B each hold a ``relocsplit`` package (the ``src`` directory of a checkout).
Each of the PAIRS pairs (at least 2) runs one fresh Python process per tree, A first in even
pairs and B first in odd ones, so both sides see the same drift of the host's speed. A process imports
the package, then times one ``cli.main(CLI_ARGS)`` call with ``time.perf_counter``: imports are
left out, as they are from the benchmark's ``experiment_s``. Every process runs on one BLAS
thread (``OPENBLAS_NUM_THREADS=1``) and inherits the environment, ``RELOCSPLIT_SEED`` included.
The command's own output is discarded; a run whose exit status differs from the first run's
stops the comparison.

It prints each side's median and quartiles, in seconds, and the number of pairs B won:

    python3 tools/ab_main.py ../parent/src src 24 -- run perfbench/configs/dr-geo-d400.cfg
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys

CHILD = """
import contextlib, io, sys, time
from relocsplit import cli
with contextlib.redirect_stdout(io.StringIO()):
    start = time.perf_counter()
    status = cli.main(sys.argv[1:])
    elapsed = time.perf_counter() - start
print(status, repr(elapsed))
"""


def time_once(src: str, cli_args: list[str]) -> tuple[int, float]:
    """The exit status and seconds of one ``cli.main`` call in a fresh process using ``src``."""
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src), "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", CHILD, *cli_args], env=env,
                          capture_output=True, text=True, check=True)
    status, elapsed = done.stdout.split()
    return int(status), float(elapsed)


def summary(label: str, src: str, times: list[float]) -> str:
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return f"{label}  median {median:.5f}  quartiles {q1:.5f} {q3:.5f}  ({src})"


def main(argv: list[str]) -> int:
    # quartiles need two runs a side
    if "--" not in argv or argv.index("--") != 3 or not argv[2].isdigit() or int(argv[2]) < 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    sides, pairs, cli_args = {"A": argv[0], "B": argv[1]}, int(argv[2]), argv[4:]
    times = {"A": [], "B": []}
    statuses = set()
    for pair in range(pairs):
        for side in ("A", "B") if pair % 2 == 0 else ("B", "A"):
            status, elapsed = time_once(sides[side], cli_args)
            statuses.add(status)
            if len(statuses) > 1:
                print(f"exit status {status} from {sides[side]} differs from an earlier run's",
                      file=sys.stderr)
                return 1
            times[side].append(elapsed)
    won = sum(b < a for a, b in zip(times["A"], times["B"]))
    change = statistics.median(times["B"]) / statistics.median(times["A"]) - 1.0
    for side in ("A", "B"):
        print(summary(side, sides[side], times[side]))
    print(f"B faster in {won} of {pairs} pairs; median {change:+.1%}; exit status {statuses.pop()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
