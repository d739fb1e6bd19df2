"""The benchmark's workloads and the verdicts each must reproduce.

Pure Python: the orchestrator imports this without numpy. Each workload is a
list of ``relocsplit`` CLI invocations. ``BENCHMARK.json`` lists the two the
benchmark record times and says why each was chosen: between them they reach
every module, the box normal cone and the trace write and readback. With
four, each run would be too short for its median to repeat on a shared host.
``mt-n4-d10`` (per-call overhead) and ``dr-skew-poly-d100`` (the negative
control, whose ``rate_theorem`` must FAIL, and the stepsize-cache miss case)
run by name with ``run.py --workload``; the benchmark's tests check their
verdicts and counts. The fresh CLI processes and the traced in-process
experiments run the same argument lists, so one verdict parser serves both.

``counts_seed7`` maps a BLAS thread count to work counts at seed 7, which the
benchmark's own tests compare against. The counts depend on the thread count:
threaded BLAS sums in another order, which moves the fixed-point oracle's
stopping step by a few iterations on the d=100 workloads.
"""

from __future__ import annotations

import hashlib
import os
import re
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIG_DIR = os.path.join(HERE, "configs")

ALL_PASS_DR = {
    "error_bound": True,
    "one_step": True,
    "rate_theorem": True,
    "relocator_bijection": True,
    "fix_decomposition": True,
    "summability": True,
    "gamma_lipschitz": True,
    "consensus": True,
}
ALL_PASS_MT = {name: True for name in ALL_PASS_DR if name != "fix_decomposition"}


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``run`` writing trace and report, then the ``rate`` readback; else ``verify``
    writes_trace: bool
    expected_checks: dict[str, bool]
    expected_exit: int
    counts_seed7: dict[int, dict[str, int]]

    @property
    def config_path(self) -> str:
        return os.path.join(CONFIG_DIR, f"{self.name}.cfg")

    def commands(self, work_dir: str) -> list[list[str]]:
        """CLI argument lists making up one experiment."""
        if not self.writes_trace:
            return [["verify", self.config_path]]
        trace, report = output_paths(work_dir)
        return [
            [
                "run", self.config_path,
                "--set", f"output.trace_path={trace}",
                "--set", f"output.report_path={report}",
            ],
            ["rate", trace, "--column", "err_to_limit"],
        ]


def output_paths(work_dir: str) -> tuple[str, str]:
    return os.path.join(work_dir, "trace.csv"), os.path.join(work_dir, "report.txt")


def remove_outputs(work_dir: str) -> None:
    """Delete outputs of an earlier experiment, so none is mistaken for a new one."""
    for path in output_paths(work_dir):
        if os.path.exists(path):
            os.remove(path)


def digest(paths) -> str:
    """SHA-256 over the files' bytes, for byte-identity checks across runs."""
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def _counts(resolvents, factorizations, oracle_runs, lookups, box_resolvents=0):
    return {
        "operators.resolvent_calls": resolvents,
        "operators.box_resolvent_calls": box_resolvents,
        "operators.factorizations": factorizations,
        "diagnostics.oracle_calls": oracle_runs,
        "diagnostics.fixed_point_lookups": lookups,
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dr-geo-d400", True, ALL_PASS_DR, 0,
            {n: _counts(15877, 524, 87, 617) for n in (1, 2)},
        ),
        Workload(
            "mt-n4-d10", False, ALL_PASS_MT, 0,
            {n: _counts(93278, 1052, 87, 615) for n in (1, 2)},
        ),
        Workload(
            "dr-skew-poly-d100", False, dict(ALL_PASS_MT, rate_theorem=False), 1,
            {1: _counts(62678, 6657, 614, 615), 2: _counts(62670, 6657, 614, 615)},
        ),
        Workload(
            "mt-box-d100-n3", False, ALL_PASS_MT, 0,
            {1: _counts(52526, 526, 87, 615, 25034), 2: _counts(52530, 526, 87, 615, 25036)},
        ),
    )
}

_CHECK_LINE = re.compile(r"^name=(\S+) status=(PASS|FAIL)\b")
_OVERALL_LINE = re.compile(r"^overall=(PASS|FAIL) checks=(\d+) failed=(\d+)$")
_RATE_VERDICT = re.compile(r"\bverdict=(\S+)")


def parse_report(text: str) -> tuple[dict[str, bool], str | None]:
    """Per-check verdicts and the overall line of a printed report."""
    checks: dict[str, bool] = {}
    overall = None
    for line in text.splitlines():
        m = _CHECK_LINE.match(line)
        if m:
            checks[m.group(1)] = m.group(2) == "PASS"
        elif _OVERALL_LINE.match(line):
            overall = line
    return checks, overall


def mismatches(workload: Workload, statuses: list[int], outputs: list[str]) -> list[str]:
    """Ways in which one experiment's exit codes and printed verdicts differ
    from the workload's expectation; empty when it matches."""
    problems = []
    if statuses[0] != workload.expected_exit:
        problems.append(f"exit code {statuses[0]} != {workload.expected_exit}")
    checks, overall = parse_report(outputs[0])
    if checks != workload.expected_checks:
        problems.append(f"verdicts {checks} != {workload.expected_checks}")
    failed = sum(1 for ok in workload.expected_checks.values() if not ok)
    want_overall = (
        f"overall={'FAIL' if failed else 'PASS'} "
        f"checks={len(workload.expected_checks)} failed={failed}"
    )
    if overall != want_overall:
        problems.append(f"summary {overall!r} != {want_overall!r}")
    if workload.writes_trace:
        if statuses[1] != 0:
            problems.append(f"rate readback exit code {statuses[1]} != 0")
        m = _RATE_VERDICT.search(outputs[1])
        verdict = m.group(1) if m else None
        if verdict != "linear":
            problems.append(f"rate readback verdict {verdict!r} != 'linear'")
    return problems
