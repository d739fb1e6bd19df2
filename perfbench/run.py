"""Benchmark of the ``relocsplit`` experiment CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # all four workloads, one table

Run from the root of a source checkout; the package is imported from ``src``
(nothing is installed). The problem seed reaches the program only through
the documented ``RELOCSPLIT_SEED`` override. Every child process runs BLAS
on one thread: the d=400 factorizations then never wait on, or compete with,
another core, and the program's floating-point results (and with them its
iteration counts) do not vary with the machine's core count.

``--trace 0`` measures the end-to-end metrics:

* ``setup_s``: median wall time of fresh processes that import
  ``relocsplit.cli``, build the config and construct the operator family;
* ``cli_wall_s``: median wall time of the workload's ``relocsplit``
  commands, each a fresh process (for ``dr-geo-d400``: ``run`` writing the
  trace and report, then the ``rate`` readback);
* ``experiment_s``: median time the same processes spend in
  ``relocsplit.cli.main`` after the imports (``run_experiment`` plus the
  readback), tracing off;
* ``peak_rss_mb``: median peak resident memory of those processes.

The three times are scaled to a reference host speed. Each CLI process
times a fixed calibration kernel (``worker.calibration_s``) just before and
just after ``main``, each set-up probe just after its set-up; the times are
multiplied by ``CALIBRATION_REFERENCE_S`` over the mean calibration time,
and the calibration itself is not counted. The machine's other tenants slow
every process on it by up to twofold, in spells of seconds to a minute;
scaling takes most of that out of the spread between runs (``CHANGES.md``
gives measurements). The unscaled samples are kept in the result file as
``raw_setup_s``, ``raw_experiment_s`` and ``raw_cli_wall_s``. The
``--trace 1`` times are not scaled.

Every experiment's exit codes and per-check PASS/FAIL verdicts are compared
with the workload's expectation (``workloads.py``); traces and reports written
in one benchmark run must be byte-identical. Mismatching experiments are
counted in ``failed``; ``failed / attempted`` is the mismatch share.

``--trace 1`` runs the experiment in one warm process, in pairs with and
without spans around each module's public entry points (``layers.py``), and
reports the per-layer metrics listed in ``BENCHMARK.json``: medians over the
traced repetitions, plus the tracing overhead as the median difference within
pairs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A JSON result file
with every sample and an environment record goes to
``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS, digest, mismatches, output_paths, remove_outputs  # noqa: E402,E501

WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
WORKER = os.path.join(HERE, "worker.py")
BLAS_THREADS = 1
#: timed set-up probes per run, after one untimed probe that warms file caches
SETUP_PROBES = 6
MIN_CLI_REPS = 3
CHILD_TIMEOUT_S = 150.0
#: seconds of ``worker.calibration_s`` on an uncontended core of the 2-vCPU
#: Xeon (KVM) machine the benchmark was written on; times are scaled to it
CALIBRATION_REFERENCE_S = 0.145


class BenchmarkError(Exception):
    """The benchmark itself could not run (missing sources, crashed child)."""


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def child_env(seed: int, blas_threads: int = BLAS_THREADS) -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["RELOCSPLIT_SEED"] = str(seed)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    return env


def spawn(argv: list[str], env: dict, out_path: str) -> tuple[int, float, float]:
    """Run ``argv`` to completion with stdout in ``out_path``.

    Returns (exit code, wall seconds, peak resident MiB of that process).
    """
    with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def run_worker(args: list[str], env: dict, work_dir: str) -> tuple[dict, float]:
    out = os.path.join(work_dir, "worker.out")
    code, wall, _ = spawn([sys.executable, WORKER, *args], env, out)
    if code != 0:
        raise BenchmarkError(f"worker {args} exited {code}: {read_text(out + '.err')[-2000:]}")
    return json.loads(read_text(out).splitlines()[-1]), wall


def setup_probes(workload, env: dict, work_dir: str) -> tuple[dict, list[tuple[dict, float]]]:
    """The environment record, then SETUP_PROBES timed probes as (stages, wall)."""
    first, _ = run_worker(["setup", workload.name, "--env"], env, work_dir)
    probes = [run_worker(["setup", workload.name], env, work_dir) for _ in range(SETUP_PROBES)]
    return first["env"], probes


def at_reference_speed(seconds: float, calibration: list[float]) -> float:
    """``seconds`` scaled to the reference host speed, from the times of the
    calibration kernel run around them (unscaled if there are none)."""
    if not calibration:
        return seconds
    return seconds * CALIBRATION_REFERENCE_S / statistics.mean(calibration)


def cli_reps(workload, env: dict, work_dir: str, seconds: float) -> list[dict]:
    """Run the workload's commands as fresh CLI processes for about ``seconds``."""
    reps = []
    started = time.perf_counter()
    timing = os.path.join(work_dir, "timing.json")
    while True:
        rep_started = time.perf_counter()
        remove_outputs(work_dir)
        statuses, texts, problems, rss = [], [], [], 0.0
        raw = {"wall_s": 0.0, "main_s": 0.0}
        scaled = {"wall_s": 0.0, "main_s": 0.0}
        for argv in workload.commands(work_dir):
            out = os.path.join(work_dir, "cli.out")
            if os.path.exists(timing):
                os.remove(timing)
            code, w, r = spawn([sys.executable, WORKER, "cli", timing, "--", *argv], env, out)
            statuses.append(code)
            texts.append(read_text(out))
            rss = max(rss, r)
            try:
                record = json.loads(read_text(timing))
            except OSError:
                record = {"main_s": w, "calibration_s": []}
                problems.append(f"{argv[0]} ended without finishing main() (exit {code})")
            calibration = record["calibration_s"]
            times = {"wall_s": w - sum(calibration), "main_s": record["main_s"]}
            for key, value in times.items():
                raw[key] += value
                scaled[key] += at_reference_speed(value, calibration)
        rep = {
            "kind": "cli",
            "wall_s": scaled["wall_s"],
            "experiment_s": scaled["main_s"],
            "raw_wall_s": raw["wall_s"],
            "raw_experiment_s": raw["main_s"],
            "peak_rss_mb": rss,
            "mismatches": problems + mismatches(workload, statuses, texts),
            "report": texts[0],
        }
        if workload.writes_trace:
            rep["digest"] = digest(output_paths(work_dir))
        reps.append(rep)
        now = time.perf_counter()
        elapsed, last = now - started, now - rep_started
        if elapsed + last > seconds and len(reps) >= MIN_CLI_REPS:
            return reps


def check_determinism(reps: list[dict]) -> None:
    """Every experiment that wrote outputs must match the first one byte for byte."""
    digests = [r["digest"] for r in reps if "digest" in r]
    for r in reps:
        if "digest" in r and r["digest"] != digests[0]:
            r["mismatches"].append("trace/report bytes differ from the first run")


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving it."""
    git = os.path.join(ROOT, ".git")
    try:
        head = read_text(os.path.join(git, "HEAD")).strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.isfile(ref_path):
            return read_text(ref_path).strip()
        for line in read_text(os.path.join(git, "packed-refs")).splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spread(values: list[float]) -> dict:
    values = sorted(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {
        "median": statistics.median(values),
        "q1": q[0],
        "q3": q[2],
        "max": values[-1],
        "n": len(values),
    }


def measure(workload, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = os.path.join(WORK_ROOT, f"run-{os.getpid()}-{workload.name}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    env = child_env(seed)
    try:
        environment, probes = setup_probes(workload, env, work_dir)
        if trace:
            traced, _ = run_worker(
                ["traced", workload.name, "--seconds", str(seconds), "--work-dir", work_dir],
                env, work_dir,
            )
            reps = traced["reps"]
        else:
            reps = cli_reps(workload, env, work_dir, seconds)
        check_determinism(reps)
        spans_csv = os.path.join(work_dir, "spans.csv")
        results_dir = os.path.join(WORK_ROOT, "results")
        os.makedirs(results_dir, exist_ok=True)
        if os.path.exists(spans_csv):
            shutil.move(spans_csv, os.path.join(results_dir, f"{workload.name}-spans.csv"))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    samples: dict[str, list[float]] = {}
    if trace:
        metrics = dict(traced["layers"])
        for name, key in (("cli.import_s", "import_s"), ("cli.build_config_s", "build_config_s"),
                          ("problems.generate_s", "generate_s")):
            metrics[name] = statistics.median(p[key] for p, _ in probes)
        wanted = spec["per_layer"]
    else:
        setup = [(wall - sum(p["calibration_s"]), p["calibration_s"]) for p, wall in probes]
        samples["setup_s"] = [at_reference_speed(wall, cal) for wall, cal in setup]
        samples["raw_setup_s"] = [wall for wall, _ in setup]
        samples["experiment_s"] = [r["experiment_s"] for r in reps]
        samples["cli_wall_s"] = [r["wall_s"] for r in reps]
        samples["peak_rss_mb"] = [r["peak_rss_mb"] for r in reps]
        samples["raw_experiment_s"] = [r["raw_experiment_s"] for r in reps]
        samples["raw_cli_wall_s"] = [r["raw_wall_s"] for r in reps]
        metrics = {name: statistics.median(vals) for name, vals in samples.items()}
        wanted = spec["end_to_end"]

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchmarkError(f"no measurement for {missing}")
    failed = [r for r in reps if r["mismatches"]]
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": dict(environment, git_commit=git_commit(), seed=seed),
        "expected": {"exit": workload.expected_exit, "checks": workload.expected_checks},
        "verdicts": reps[-1]["report"],
        "attempted": len(reps),
        "failed": len(failed),
        "mismatch_share": len(failed) / len(reps),
        "mismatches": [r["mismatches"] for r in failed],
        "counts_repeat": traced["counts_repeat"] if trace else None,
        "samples": {k: spread(v) | {"values": v} for k, v in samples.items()},
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }


def save(result: dict) -> str:
    results_dir = os.path.join(WORK_ROOT, "results")
    os.makedirs(results_dir, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = os.path.join(
        results_dir,
        f"BENCH_{result['workload']}_seed{result['seed']}_trace{result['trace']}_{stamp}.json",
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return path


def print_summary(result: dict) -> None:
    print(f"workload={result['workload']} seed={result['seed']} trace={result['trace']} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"mismatch_share={result['mismatch_share']:g}")
    for name, metric in result["metrics"].items():
        line = f"  {name} = {metric['value']:.6g} {metric['unit']}"
        s = result["samples"].get(name)
        if s:
            line += (f"  (median of n={s['n']}; q1={s['q1']:.4g} q3={s['q3']:.4g} "
                     f"max={s['max']:.4g})")
        print(line)
    if not result["trace"]:
        raw = ", ".join(f"{k} = {result['samples'][f'raw_{k}']['median']:.6g} s"
                        for k in ("setup_s", "experiment_s", "cli_wall_s"))
        print(f"  unscaled medians: {raw}")
    else:
        metrics = result["metrics"]
        covered = sum(m["value"] for name, m in metrics.items() if name.endswith(".self_s"))
        print(f"  self times sum to {covered:.6g} s of the traced experiment's "
              f"{metrics['trace.experiment_s']['value']:.6g} s (medians over repetitions)")
    for problem in result["mismatches"]:
        print(f"  MISMATCH {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark unwinds, so ``spawn`` kills the child it waits on
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "relocsplit", "cli.py")):
        print(f"error: no relocsplit sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            result = measure(WORKLOADS[name], args.seed, seconds, bool(args.trace), spec)
            result["result_file"] = save(result)
            print_summary(result)
            results.append(result)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = failed == 0 and all(r["counts_repeat"] is not False for r in results)
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
