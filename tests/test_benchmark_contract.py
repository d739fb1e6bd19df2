"""The benchmark under ``perfbench/`` wraps the package's public entry points
by name; renaming or removing one of them breaks ``run.py --trace 1``."""

import contextlib
import io
import os
import sys

import pytest

import relocsplit.cli as cli
import relocsplit.diagnostics as diagnostics
import relocsplit.mt as mt

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
    # the family's one certificate case that holds is sampled, once
    assert spans["mt.certificate"][0] == 1 and "diagnostics.error_bound" in spans
    assert (mt.mt_contraction_certificate, diagnostics.verify_error_bound) == originals


def test_dr_contraction_beta_span_fires_once():
    # dr.contraction_beta_s times DR's closed-form factor, which only the regularity record
    # reads, once per family: a checks = all run, whose checks read the record, times it once
    layers, Tracer = _perfbench()
    tracer = Tracer()
    restore = layers.instrument(tracer)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            status, records = cli.run_experiment(cli.build_config({**DR_SMALL, "checks": "all"}))
    finally:
        restore()
    assert status == 0 and len(records) == 8
    assert tracer.by_name()["dr.contraction_beta"][0] == 1


DR_SMALL = {
    "algorithm": "dr",
    "problem.kind": "affine_strongly_monotone",
    "problem.dim": "5",
    "schedule.kind": "geometric",
    "schedule.gamma_star": "1.0",
    "schedule.r": "0.5",
    "schedule.gamma_low": "1.0",
    "schedule.gamma_high": "2.0",
    "n_steps": "200",
}


@pytest.mark.parametrize(
    "mapping, span",
    [(DR_SMALL, "dr.apply"), ({**MT_BOX, "n_steps": "200", "checks": ""}, "mt.apply")],
    ids=["dr", "mt"],
)
def test_driver_steps_are_counted_as_applies(mapping, span):
    # the driver evaluates T_gamma through the family's one apply, the method the benchmark
    # wraps, on every row but those past a float fixed point, which it copies: a row whose
    # input (gamma, x, no shadow) is the row before's, and that row's T x was its x bit for
    # bit. So the applies made within the driver number exactly its evaluated rows, and each
    # copied row is what a fresh apply gives
    layers, Tracer = _perfbench()
    tracer = Tracer()
    restore = layers.instrument(tracer)
    wrapped, runs = cli.relocated_iterate, []

    def recording(*args):
        runs.append((args[0], wrapped(*args)))
        return runs[-1][1]

    cli.relocated_iterate = recording
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            status, _ = cli.run_experiment(cli.build_config(mapping))
    finally:
        cli.relocated_iterate = wrapped
        restore()
    assert status == 0
    ((family, trace),) = runs
    (driver,) = [i for i, name in enumerate(tracer.names) if name == "family.relocated_iterate"]
    applies = sum(1 for name, parent in zip(tracer.names, tracer.parents)
                  if name == span and parent == driver)
    g, xs, ts = trace.gammas, trace.xs, trace.t_of_x
    # row m - 1 took no shadow when its stepsize is the one before it (row 0 takes none)
    copied = [m for m in range(1, len(trace))
              if g[m] == g[m - 1] and (m == 1 or g[m - 1] == g[m - 2])
              and xs[m - 1].tobytes() == ts[m - 1].tobytes()]
    assert len(trace) == int(mapping["n_steps"]) + 1 and copied
    assert applies == len(trace) - len(copied)
    for m in copied:
        assert family.apply(g[m], xs[m]).tobytes() == ts[m].tobytes()
        assert xs[m].tobytes() == xs[m - 1].tobytes()


#: the benchmark's workloads at a dimension small enough for the test suite
SMALL_DIM = 20


def _record_fits(monkeypatch) -> list:
    """rate_theorem's results, one per later run."""
    fits = []
    real = diagnostics.verify_rate_theorem

    def recording(*args, **kwargs):
        result = real(*args, **kwargs)
        fits.append(result)
        return result

    monkeypatch.setattr(diagnostics, "verify_rate_theorem", recording)
    return fits


def _read_back(trace: str, column: str, fit) -> str:
    """The verdict of the trace's readback of ``column``, which must print rate_theorem's fit."""
    readback = io.StringIO()
    with contextlib.redirect_stdout(readback):
        assert cli.main(["rate", trace, "--column", column]) == 0
    verdict = "linear" if fit.linear else "not-R-linear"
    fmt = cli.FLOAT_FMT
    assert readback.getvalue() == (
        f"column={column} verdict={verdict} C={fmt % fit.C} r={fmt % fit.r} "
        f"fit_quality={fmt % fit.fit_quality} burn_in={fit.burn_in} n_used={fit.n_used}\n"
    )
    return verdict


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
    # the benchmark writes a trace only for the workload that reads one back; here every
    # workload writes one, so that its readbacks are held to rate_theorem's fits
    trace = str(tmp_path / "trace.csv")
    config = cli.build_config(mapping, {"problem.dim": str(dim), "output.trace_path": trace})
    fits = _record_fits(monkeypatch)
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
    # the distances fit as R-linear on every workload, dr-skew-poly-d100 too: its
    # rate_theorem FAILs on the iterate fit of a schedule without a rate, and so does
    # its err_to_limit readback
    (result,) = fits
    assert _read_back(trace, "dist_to_fix", result.dist_rate) == "linear"
    expected = "linear" if workload.expected_checks["rate_theorem"] else "not-R-linear"
    assert _read_back(trace, "err_to_limit", result.iterate_rate) == expected


@pytest.mark.parametrize("name, dim", [("dr-geo-d400", None), ("dr-geo-d400", "600"),
                                       ("dr-skew-poly-d100", None), ("mt-box-d100-n3", None),
                                       ("mt-n4-d10", None)],
                         ids=["dr-geo-d400", "dr-geo-d600", "dr-skew-poly-d100", "mt-box-d100-n3",
                              "mt-n4-d10"])
def test_iterates_do_not_depend_on_the_checks(name, dim, monkeypatch, tmp_path):
    # the family alone decides whether T_gamma* is held as one map, so the check list cannot
    # switch a run between the map and the resolvent chain, whose iterates round differently;
    # the mt configs hold no map (a box tail, N = 4) and run the chain on every row
    workload = _workloads().WORKLOADS[name]
    monkeypatch.setenv(cli.SEED_ENV_VAR, "7")
    mapping = cli.parse_config_file(workload.config_path)
    rows = {}
    for checks in ("all", "rate_theorem", "summability", "error_bound"):
        trace = tmp_path / f"{checks}.csv"
        overrides = {"checks": checks, "output.trace_path": str(trace)}
        config = cli.build_config(mapping, {**overrides, **({"problem.dim": dim} if dim else {})})
        with contextlib.redirect_stdout(io.StringIO()):
            cli.run_experiment(config)
        header, _fit_line, *lines = trace.read_text(encoding="utf-8").splitlines()
        # every column but dist_to_fix, which a summability-only run leaves NaN
        assert header.split(",")[3] == "dist_to_fix"
        rows[checks] = [line.split(",", 4)[:3] + line.split(",", 4)[4:] for line in lines]
    assert all(columns == rows["all"] for columns in rows.values())


@pytest.mark.parametrize("name, held", [("dr-geo-d400", True), ("dr-skew-poly-d100", True),
                                        ("mt-n4-d10", False), ("mt-box-d100-n3", False)])
def test_each_run_asks_once_and_the_family_decides(name, held, monkeypatch):
    # the dr pairs are affine with N = 2; mt-n4-d10 has N = 4 and mt-box-d100-n3 a box tail
    answers = []
    real = mt.MTFamily.hold_affine_part

    def recording(family, gamma):
        answers.append(real(family, gamma))
        return answers[-1]

    monkeypatch.setattr(mt.MTFamily, "hold_affine_part", recording)
    monkeypatch.setenv(cli.SEED_ENV_VAR, "7")
    mapping = cli.parse_config_file(_workloads().WORKLOADS[name].config_path)
    for checks in ("all", "rate_theorem", "summability", "error_bound"):
        config = cli.build_config(mapping, {"checks": checks, "output.trace_path": ""})
        with contextlib.redirect_stdout(io.StringIO()):
            cli.run_experiment(config)
    assert answers == [held] * 4


@pytest.mark.parametrize(
    "name", ["dr-geo-d400", "mt-box-d100-n3", "mt-n4-d10", "dr-skew-poly-d100"]
)
def test_build_family_generates_once_through_the_swapped_name(name):
    # setup_s and problems.generate_s time generate_problem under the cli module's name, which
    # perfbench/worker.py's setup probe and layers.instrument swap: build_family must call it
    # through that name, once
    layers, Tracer = _perfbench()
    mapping = cli.parse_config_file(_workloads().WORKLOADS[name].config_path)
    config = cli.build_config(mapping, {"problem.dim": "5"})
    tracer = Tracer()
    restore = layers.instrument(tracer)
    try:
        cli.build_family(config)
    finally:
        restore()
    assert tracer.by_name()["problems.generate_problem"][0] == 1


def test_dist_to_fix_reads_back_as_rate_theorem_fits_it_at_full_dimension(monkeypatch, tmp_path):
    # the distances level off at the gap between the float and the exact fixed point, about
    # 6e-14 here; fitted with the 1e-14 rounding floor and a burn-in of 30 they read back as
    # not R-linear, with rate_theorem's floor and burn-in as linear
    workload = _workloads().WORKLOADS["dr-geo-d400"]
    monkeypatch.setenv(cli.SEED_ENV_VAR, "7")
    trace = str(tmp_path / "trace.csv")
    config = cli.build_config(
        cli.parse_config_file(workload.config_path),
        {"output.trace_path": trace, "checks": "rate_theorem"},
    )
    fits = _record_fits(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()):
        status, _ = cli.run_experiment(config)
    assert status == 0
    assert _read_back(trace, "dist_to_fix", fits[0].dist_rate) == "linear"
    values = cli.read_trace_csv(trace, "dist_to_fix")[0]
    assert not diagnostics.fit_linear_rate(values, diagnostics.default_burn_in(len(values))).linear


def test_err_to_limit_reads_back_as_rate_theorem_fits_it_on_the_negative_control(monkeypatch, tmp_path):
    # the polynomial schedule has no rate: rate_theorem FAILs its iterate fit, and the
    # readback, fitting with the burn-in of 5 the trace records, prints that same fit; with
    # the default burn-in of 30 it printed verdict=linear
    workload = _workloads().WORKLOADS["dr-skew-poly-d100"]
    monkeypatch.setenv(cli.SEED_ENV_VAR, "7")
    trace = str(tmp_path / "trace.csv")
    config = cli.build_config(
        cli.parse_config_file(workload.config_path),
        {"output.trace_path": trace, "checks": "rate_theorem"},
    )
    fits = _record_fits(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()):
        status, _ = cli.run_experiment(config)
    assert status == 1
    assert _read_back(trace, "err_to_limit", fits[0].iterate_rate) == "not-R-linear"


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


@pytest.mark.parametrize("seed", [7, 13])
def test_err_to_limit_fits_above_the_rounding_of_the_iterates(seed, monkeypatch, tmp_path):
    # at d=600 the resolvent chain's errors to its limit level off at 1.1-1.3e-14, just above
    # the fixed 1e-14 floor, and fitted down to it read R^2 0.34: rate_theorem fits them above
    # the rounding of the iterates, 16 eps (1 + max_n ||x_n||), and the trace records that
    # floor, so that the readback prints the same fit
    workload = _workloads().WORKLOADS["dr-geo-d400"]
    monkeypatch.setenv(cli.SEED_ENV_VAR, str(seed))
    trace = str(tmp_path / "trace.csv")
    config = cli.build_config(
        cli.parse_config_file(workload.config_path),
        {"problem.dim": "600", "output.trace_path": trace, "checks": "rate_theorem"},
    )
    fits = _record_fits(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()):
        status, _ = cli.run_experiment(config)
    assert status == 0
    assert _read_back(trace, "err_to_limit", fits[0].iterate_rate) == "linear"
