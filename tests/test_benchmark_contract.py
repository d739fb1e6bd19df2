"""The benchmark under ``perfbench/`` wraps the package's public entry points
by name; renaming or removing one of them breaks ``run.py --trace 1``."""

import os
import sys

import relocsplit.cli as cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")

SCALAR = {
    "algorithm": "scalar_counterexample",
    "schedule.kind": "geometric",
    "schedule.gamma_star": "1.0",
    "schedule.r": "0.5",
    "schedule.gamma_low": "0.5",
    "schedule.gamma_high": "2.0",
    "n_steps": "30",
}


def test_benchmark_spans_wrap_and_restore():
    sys.path.insert(0, PERFBENCH)
    try:
        import layers
        from tracing import Tracer
    finally:
        sys.path.remove(PERFBENCH)
    wrapped = ("relocated_iterate", "algorithm1_run", "algorithm2_run", "write_trace_csv")
    originals = {name: getattr(cli, name) for name in wrapped}
    tracer = Tracer()
    restore = layers.instrument(tracer)
    try:
        status, _ = cli.run_experiment(cli.build_config(SCALAR), write_trace=False)
    finally:
        restore()
    assert status == 0
    assert "family.relocated_iterate" in tracer.by_name()
    assert {name: getattr(cli, name) for name in wrapped} == originals
