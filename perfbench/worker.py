"""Child process of the benchmark.

    python3 perfbench/worker.py setup WORKLOAD [--env]
    python3 perfbench/worker.py cli TIMING_JSON -- CLI_ARGS...
    python3 perfbench/worker.py traced WORKLOAD --seconds S --work-dir DIR

``setup`` imports ``relocsplit.cli``, builds the config and the operator
family, and prints the time of each stage and of a host-speed calibration
run after them (and, with ``--env``, the environment record). ``cli`` is the
``relocsplit`` command itself (``relocsplit.cli.main``); it also writes to
TIMING_JSON the time spent in ``main`` and the times of a host-speed
calibration run just before and just after it. ``traced`` runs the
workload's CLI commands in this process, first once untimed with a short
``n_steps`` to warm it up, then in pairs with and without spans for about S
seconds, and prints one JSON object with per-repetition times, verdict
mismatches, output digests and per-layer metrics. The problem seed comes
from ``RELOCSPLIT_SEED`` in the environment, as for any ``relocsplit``
command.
"""

import json
import sys
import time

#: n_steps of the untimed warm-up experiment
WARMUP_STEPS = 40
#: factorizations in one host-speed calibration (about 0.15 s)
CALIBRATION_LUS = 400


def setup_probe(config_path: str) -> dict:
    t0 = time.perf_counter()
    import relocsplit.cli as cli

    t1 = time.perf_counter()
    config = cli.build_config(cli.parse_config_file(config_path))
    t2 = time.perf_counter()
    generate = cli.generate_problem
    spent = []

    def timed_generate(*args, **kwargs):
        g0 = time.perf_counter()
        try:
            return generate(*args, **kwargs)
        finally:
            spent.append(time.perf_counter() - g0)

    cli.generate_problem = timed_generate
    try:
        cli.build_family(config)
    finally:
        cli.generate_problem = generate
    return {
        "import_s": t1 - t0,
        "build_config_s": t2 - t1,
        "generate_s": spent[0],
        "calibration_s": [calibration_s()],
    }


def calibration_s() -> float:
    """Seconds for a fixed kernel that owes nothing to the program:
    ``CALIBRATION_LUS`` LU factorizations of one 200x200 matrix.

    The host lends its cores to other tenants, and for seconds to a minute at
    a time the same work runs up to twice as slowly. Timed just before and
    after a command, in the same process, this kernel measures how fast the
    host ran around it. Of the kernels compared on ``dr-geo-d400`` and
    ``mt-box-d100-n3`` (this one; a loop of 10x10 solves like the program's
    inner loop; both), it tracked the program's slowdowns best on each.
    """
    import numpy as np
    from scipy.linalg import lu_factor

    a = np.random.default_rng(0).standard_normal((200, 200)) + 200 * np.eye(200)
    lu_factor(a)
    t0 = time.perf_counter()
    for _ in range(CALIBRATION_LUS):
        lu_factor(a)
    return time.perf_counter() - t0


def cli_command(timing_path: str, argv: list[str]) -> int:
    import relocsplit.cli as cli

    before = calibration_s()
    t0 = time.perf_counter()
    status = cli.main(argv)
    main_s = time.perf_counter() - t0
    after = calibration_s()
    with open(timing_path, "w", encoding="utf-8") as fh:
        json.dump({"main_s": main_s, "calibration_s": [before, after]}, fh)
    return status


def environment() -> dict:
    import os
    import platform

    import numpy
    import scipy

    def blas(module):
        deps = getattr(module.__config__, "CONFIG", {}).get("Build Dependencies", {})
        info = deps.get("blas", {})
        return f"{info.get('name', '?')} {info.get('version', '?')}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "relocsplit_seed": os.environ.get("RELOCSPLIT_SEED"),
    }


def run_commands(commands: list[list[str]]) -> tuple[list[int], list[str]]:
    """Run CLI argument lists in this process; exit codes and printed output."""
    import contextlib
    import io

    import relocsplit.cli as cli

    statuses, texts = [], []
    for argv in commands:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            statuses.append(cli.main(argv))
        texts.append(buf.getvalue())
    return statuses, texts


def traced_run(tracer, commands: list[list[str]]) -> tuple[list[int], list[str]]:
    """``run_commands`` under the root span, with every layer wrapped in spans."""
    import layers

    tracer.reset()
    restore = layers.instrument(tracer)
    try:
        return tracer.wrap(layers.ROOT, run_commands)(commands)
    finally:
        restore()


def traced_loop(workload, seconds: float, work_dir: str) -> dict:
    import os
    import statistics

    import layers
    from tracing import Tracer
    from workloads import digest, mismatches, output_paths, remove_outputs

    commands = workload.commands(work_dir)
    outputs = output_paths(work_dir) if workload.writes_trace else ()
    tracer = Tracer()
    reps = []

    def rep(traced: bool) -> float:
        remove_outputs(work_dir)
        t0 = time.perf_counter()
        statuses, texts = traced_run(tracer, commands) if traced else run_commands(commands)
        wall = time.perf_counter() - t0
        record = {
            "kind": "traced" if traced else "untraced",
            "wall_s": wall,
            "mismatches": mismatches(workload, statuses, texts),
            "report": texts[0],
        }
        if outputs:
            record["digest"] = digest(outputs)
            record["trace_bytes"] = os.path.getsize(outputs[0])
        if traced:
            record["layers"] = layers.layer_metrics(tracer)
            record["root_s"] = tracer.durations()[tracer.names.index(layers.ROOT)]
            if not any(r["kind"] == "traced" for r in reps):
                tracer.write_csv(os.path.join(work_dir, "spans.csv"))
        reps.append(record)
        return wall

    # a short run loads every code path once; its verdicts are not checked
    run_commands(
        [argv if argv[0] == "rate" else [*argv, "--set", f"n_steps={WARMUP_STEPS}"]
         for argv in commands]
    )
    # traced and untraced repetitions in pairs, in alternating order, so each
    # overhead sample compares neighbours that ran at the same machine speed
    started = time.perf_counter()
    overheads = []
    while True:
        traced_first = len(overheads) % 2 == 0
        a = rep(traced=traced_first)
        b = rep(traced=not traced_first)
        overheads.append(a - b if traced_first else b - a)
        if time.perf_counter() - started + a + b > seconds and len(overheads) >= 2:
            break

    traced_reps = [r for r in reps if r["kind"] == "traced"]
    first = traced_reps[0]["layers"]
    counts = {k: v for k, v in first.items() if isinstance(v, int)}
    layer = {name: statistics.median(r["layers"][name] for r in traced_reps) for name in first}
    layer.update(counts)
    layer["cli.trace_bytes"] = traced_reps[0].get("trace_bytes", 0)
    layer["trace.experiment_s"] = statistics.median(r["wall_s"] for r in traced_reps)
    layer["trace.overhead_s"] = statistics.median(overheads)
    return {
        "reps": reps,
        "counts_repeat": all({k: r["layers"][k] for k in counts} == counts for r in traced_reps),
        "layers": layer,
    }


def main(argv: list[str]) -> int:
    if argv[:1] == ["cli"] and argv[2:3] == ["--"]:
        return cli_command(argv[1], argv[3:])

    import argparse

    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "traced"))
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--env", action="store_true")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--work-dir", default=".")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.mode == "setup":
        result = setup_probe(workload.config_path)
        if args.env:
            result["env"] = environment()
    else:
        result = traced_loop(workload, args.seconds, args.work_dir)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
