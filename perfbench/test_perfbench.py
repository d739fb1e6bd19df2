"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench -q

The count tests run every workload's traced worker at seed 7, with the
benchmark's one BLAS thread and with two (OpenBLAS's default on a 2-core
machine): the counts of its (at least two) traced experiments must repeat
exactly and equal the figures recorded in ``workloads.py``, the verdicts must
match, the layer self times must add up to the traced experiment time, and
repeated runs must write byte-identical outputs.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, mismatches  # noqa: E402

#: per-layer metrics that come from the set-up probes or the worker, not from spans
OUTSIDE_SPANS = {
    "cli.import_s", "cli.build_config_s", "problems.generate_s",
    "cli.trace_bytes", "trace.experiment_s", "trace.overhead_s",
}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_spec_names_match_the_code():
    spec = load_spec()
    timed = [w["name"] for w in spec["workloads"]]
    assert timed == [name for name in WORKLOADS if name in timed]
    assert set(WORKLOADS) - set(timed) == {"mt-n4-d10", "dr-skew-poly-d100"}
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert per_layer == set(layers.layer_metrics(Tracer())) | OUTSIDE_SPANS
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "experiment_s", "cli_wall_s", "peak_rss_mb"
    }


def test_self_times_subtract_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 6.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap("b.leaf", lambda: None)

    def root():
        leaf()
        leaf()

    tracer.wrap("a.root", root)()
    assert tracer.durations() == [10.0, 2.0, 2.0]
    assert tracer.self_times() == [6.0, 2.0, 2.0]
    assert tracer.by_name() == {"a.root": (1, 10.0, 6.0), "b.leaf": (2, 4.0, 4.0)}


def test_mismatches_flag_a_wrong_verdict():
    w = WORKLOADS["dr-skew-poly-d100"]
    lines = [f"name={c} status=PASS" for c in w.expected_checks]
    report = "\n".join(lines) + "\noverall=PASS checks=7 failed=0\n"
    found = mismatches(w, [0], [report])
    assert len(found) == 3  # exit code, rate_theorem verdict, summary line
    good = report.replace("name=rate_theorem status=PASS", "name=rate_theorem status=FAIL")
    good = good.replace("overall=PASS checks=7 failed=0", "overall=FAIL checks=7 failed=1")
    assert mismatches(w, [1], [good]) == []


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mt-n4-d10", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_cli_worker_times_main_between_two_calibrations(tmp_path):
    timing = str(tmp_path / "timing.json")
    argv = ["verify", WORKLOADS["mt-n4-d10"].config_path, "--set", "n_steps=20"]
    _, wall, _ = run.spawn(
        [sys.executable, run.WORKER, "cli", timing, "--", *argv],
        run.child_env(7), str(tmp_path / "cli.out"),
    )
    with open(timing, encoding="utf-8") as fh:
        record = json.load(fh)
    assert len(record["calibration_s"]) == 2
    assert record["main_s"] > 0 and min(record["calibration_s"]) > 0
    assert record["main_s"] + sum(record["calibration_s"]) < wall


@pytest.mark.parametrize("threads", [run.BLAS_THREADS, 2])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_counts_repeat_and_match_seed7(name, threads, tmp_path):
    work = str(tmp_path)
    result, _ = run.run_worker(
        ["traced", name, "--seconds", "0", "--work-dir", work], run.child_env(7, threads), work
    )
    traced = [r for r in result["reps"] if r["kind"] == "traced"]
    assert len(traced) >= 2
    assert result["counts_repeat"]
    assert [r["mismatches"] for r in result["reps"]] == [[]] * len(result["reps"])
    for key, want in WORKLOADS[name].counts_seed7[threads].items():
        assert result["layers"][key] == want, key
    for r in traced:
        self_total = sum(r["layers"][f"{m}.self_s"] for m in layers.MODULES)
        assert math.isclose(self_total, r["root_s"], rel_tol=1e-9)
    if WORKLOADS[name].writes_trace:
        assert len({r["digest"] for r in result["reps"]}) == 1
