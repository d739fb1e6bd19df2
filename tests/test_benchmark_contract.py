"""The benchmark under ``perfbench/`` wraps the package's public entry points
by name; renaming or removing one of them breaks ``run.py --trace 1``."""

import contextlib
import io
import os
import sys

import pytest

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


MT_BOX = {
    "algorithm": "mt",
    "problem.kind": "affine_plus_box",
    "problem.dim": "3",
    "problem.n_operators": "3",
    "problem.box_half_width": "0.5",
    "schedule.kind": "geometric",
    "schedule.gamma_star": "1.0",
    "schedule.r": "0.5",
    "schedule.gamma_low": "1.0",
    "schedule.gamma_high": "2.0",
    "n_steps": "30",
    "checks": "error_bound",
}


def _perfbench():
    sys.path.insert(0, PERFBENCH)
    try:
        import layers
        from tracing import Tracer
    finally:
        sys.path.remove(PERFBENCH)
    return layers, Tracer


def _workloads():
    sys.path.insert(0, PERFBENCH)
    try:
        import workloads
    finally:
        sys.path.remove(PERFBENCH)
    return workloads


def test_benchmark_spans_wrap_and_restore():
    layers, Tracer = _perfbench()
    wrapped = ("relocated_iterate", "algorithm1_run", "algorithm2_run", "write_trace_csv")
    originals = {name: getattr(cli, name) for name in wrapped}
    tracer = Tracer()
    restore = layers.instrument(tracer)
    try:
        status, _ = cli.run_experiment(cli.build_config(SCALAR))
    finally:
        restore()
    assert status == 0
    assert "family.relocated_iterate" in tracer.by_name()
    assert {name: getattr(cli, name) for name in wrapped} == originals


def test_certificate_and_error_bound_spans_fire_and_restore():
    # the spans the sampling checks' timings rest on: mt.certificate_s, diagnostics.error_bound_s
    import relocsplit.diagnostics as diagnostics
    import relocsplit.mt as mt

    layers, Tracer = _perfbench()
    originals = (mt.mt_contraction_certificate, diagnostics.verify_error_bound)
    tracer = Tracer()
    restore = layers.instrument(tracer)
    try:
        status, _ = cli.run_experiment(cli.build_config(MT_BOX))
    finally:
        restore()
    assert status == 0
    spans = tracer.by_name()
    assert "mt.certificate" in spans and "diagnostics.error_bound" in spans
    assert (mt.mt_contraction_certificate, diagnostics.verify_error_bound) == originals


#: the benchmark's workloads at a dimension small enough for the test suite
SMALL_DIM = 20


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize(
    "name", ["dr-geo-d400", "mt-box-d100-n3", "mt-n4-d10", "dr-skew-poly-d100"]
)
def test_benchmark_configs_keep_their_verdicts(name, seed, monkeypatch, tmp_path):
    # a verdict flip would otherwise show only when the benchmark runs
    workloads = _workloads()
    workload = workloads.WORKLOADS[name]
    monkeypatch.setenv(cli.SEED_ENV_VAR, str(seed))
    mapping = cli.parse_config_file(workload.config_path)
    dim = min(int(mapping["problem.dim"]), SMALL_DIM)
    trace = str(tmp_path / "trace.csv")
    # the trace path is set only for the workload that writes one, as in the benchmark
    overrides = {"problem.dim": str(dim)} | ({"output.trace_path": trace} if workload.writes_trace else {})
    config = cli.build_config(mapping, overrides)
    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        status, records = cli.run_experiment(config)
    assert status == workload.expected_exit
    assert {rec.name: rec.passed for rec in records} == workload.expected_checks
    statuses, outputs = [status], [report.getvalue()]
    if workload.writes_trace:
        # the readback the benchmark runs: err_to_limit must fit as R-linear
        readback = io.StringIO()
        with contextlib.redirect_stdout(readback):
            statuses.append(cli.main(["rate", trace, "--column", "err_to_limit"]))
        outputs.append(readback.getvalue())
        assert "verdict=linear" in outputs[1]
    assert workloads.mismatches(workload, statuses, outputs) == []


def test_err_to_limit_reads_back_linear_at_full_dimension(monkeypatch, tmp_path):
    # at d=400 the float iterates settle about 6e-14 from the exact fixed point, above the
    # fit floor: a limit taken from the exact point reads back as not R-linear here
    workload = _workloads().WORKLOADS["dr-geo-d400"]
    monkeypatch.setenv(cli.SEED_ENV_VAR, "7")
    trace = str(tmp_path / "trace.csv")
    config = cli.build_config(
        cli.parse_config_file(workload.config_path),
        {"output.trace_path": trace, "checks": "rate_theorem"},
    )
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status, _ = cli.run_experiment(config)
        assert cli.main(["rate", trace, "--column", "err_to_limit"]) == 0
    assert status == 0
    assert "verdict=linear" in out.getvalue()
