#!/usr/bin/env python3
"""Print one line per benchmark config and seed: exit status, verdicts and digests.

Usage: python3 tools/verdicts.py SRC_DIR SEEDS [--set KEY=VALUE ...]

SRC_DIR holds the ``relocsplit`` package to run (the ``src`` directory of a checkout).
SEEDS is a comma-separated list of seeds and ranges, such as ``1-40`` or ``1,7,13-15``.
Each ``--set KEY=VALUE`` is passed to every config's run, as ``relocsplit run`` takes it, so
a variant such as ``--set schedule.kind=polynomial --set schedule.p=2`` is compared alike.

Each config under ``perfbench/configs`` runs in process through ``relocsplit run``, once per
seed given through ``RELOCSPLIT_SEED``, on one BLAS thread, with its trace and report written
to a temporary directory. A line reads

    CONFIG seed=S exit=E CHECK=PASS:LINE_DIGEST ... report=SHA256 trace=SHA256 rows=SHA256

where LINE_DIGEST is the first 12 hex digits of the sha256 of that check's report line, so a
moved number shows which check it belongs to, and ``rows`` is the sha256 of the trace without
its ``#`` fit line: a change that moves only the fit line's floors keeps ``rows`` and shows
that no iterate moved. Two checkouts are compared with ``diff``:

    python3 tools/verdicts.py ../parent/src 1-40 > parent.txt
    python3 tools/verdicts.py src 1-40 > change.txt
    diff parent.txt change.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from collections.abc import Sequence
from pathlib import Path

CONFIGS = Path(__file__).resolve().parent.parent / "perfbench" / "configs"


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def digest(path: str) -> str:
    """The sha256 of a file, or ``none`` when the run wrote no such file."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest() if os.path.exists(path) else "none"


def rows_digest(path: str) -> str:
    """The sha256 of a trace without its ``#`` lines, or ``none`` when the run wrote no trace."""
    if not os.path.exists(path):
        return "none"
    lines = Path(path).read_bytes().splitlines(keepends=True)
    return hashlib.sha256(b"".join(line for line in lines if not line.startswith(b"#"))).hexdigest()


def run_line(cli, config: Path, seed: int, workdir: str, sets: Sequence[str] = ()) -> str:
    """One config's line at one seed; ``sets`` holds ``KEY=VALUE`` overrides for the run."""
    trace = os.path.join(workdir, "trace.csv")
    report = os.path.join(workdir, "report.txt")
    for path in (trace, report):
        if os.path.exists(path):
            os.remove(path)
    os.environ[cli.SEED_ENV_VAR] = str(seed)
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(["run", str(config), "--set", f"output.trace_path={trace}",
                           "--set", f"output.report_path={report}",
                           *(arg for item in sets for arg in ("--set", item))])
    words = [config.stem, f"seed={seed}", f"exit={status}"]
    if os.path.exists(report):
        for line in Path(report).read_text(encoding="utf-8").splitlines():
            fields = dict(word.split("=", 1) for word in line.split())
            if "name" in fields:
                line_digest = hashlib.sha256(line.encode()).hexdigest()[:12]
                words.append(f"{fields['name']}={fields['status']}:{line_digest}")
    words += [f"report={digest(report)}", f"trace={digest(trace)}", f"rows={rows_digest(trace)}"]
    return " ".join(words)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", metavar="SRC_DIR")
    parser.add_argument("seeds", metavar="SEEDS", type=parse_seeds)
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE", dest="sets")
    args = parser.parse_args(argv)
    # one BLAS thread, set before numpy loads
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, os.path.abspath(args.src))
    from relocsplit import cli

    configs = sorted(CONFIGS.glob("*.cfg"))
    with tempfile.TemporaryDirectory() as workdir:
        for config in configs:
            for seed in args.seeds:
                print(run_line(cli, config, seed, workdir, args.sets), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
