import re
from pathlib import Path

import numpy as np
import pytest

import relocsplit.cli as cli
import relocsplit.diagnostics as diagnostics
from relocsplit import (
    ScalarShiftFamily,
    StepsizeSchedule,
    generate_problem,
    relocated_iterate,
)
from relocsplit.errors import ConfigError
from relocsplit.family import FixedPointLine, block_sizes

DR_CONFIG = """
# strongly monotone pair, geometric stepsizes
algorithm = dr
problem.kind = affine_strongly_monotone
problem.dim = 10
problem.seed = 7
problem.mu_target = 0.5
problem.L_target = 2.0
schedule.kind = geometric
schedule.gamma_star = 1.0
schedule.C = 1.0
schedule.r = 0.5
schedule.gamma_low = 1.0
schedule.gamma_high = 2.0
n_steps = 300
checks = all
"""

MT_CONFIG = """
algorithm = mt
problem.kind = affine_strongly_monotone
problem.dim = 3
problem.n_operators = 3
problem.seed = 5
schedule.kind = geometric
schedule.gamma_star = 1.0
schedule.C = 1.0
schedule.r = 0.5
schedule.gamma_low = 0.5
schedule.gamma_high = 2.0
theta = 0.5
n_steps = 400
checks = all
"""

SCALAR_CONFIG = """
algorithm = scalar_counterexample
problem.beta = 0.5
schedule.kind = geometric
schedule.gamma_star = 1.0
schedule.C = 1.0
schedule.r = 0.5
schedule.gamma_low = 0.5
schedule.gamma_high = 2.0
n_steps = 2000
checks = rate_theorem
"""


def write_config(tmp_path, text, name="exp.cfg", extra=""):
    path = tmp_path / name
    path.write_text(text + extra)
    return str(path)


class TestGenerateProblem:
    def test_targeted_spectrum(self):
        ops = generate_problem("affine_strongly_monotone", 2, 1, 0.5, 2.0)
        eigs = np.linalg.eigvalsh(ops[0].M)
        assert eigs[0] == pytest.approx(0.5, abs=1e-12)
        assert eigs[-1] == pytest.approx(2.0, abs=1e-12)

    def test_equal_targets_force_identity(self):
        ops = generate_problem("affine_strongly_monotone", 4, 2, 1.0, 1.0)
        assert np.array_equal(ops[0].M, np.eye(4))

    def test_determinism(self):
        a = generate_problem("affine_strongly_monotone", 6, 9, 0.5, 2.0)
        b = generate_problem("affine_strongly_monotone", 6, 9, 0.5, 2.0)
        assert np.array_equal(a[0].M, b[0].M)
        assert np.array_equal(a[1].b, b[1].b)

    def test_skew_norm(self):
        ops = generate_problem("affine_skew_plus_strong", 4, 3, 0.5, 2.0)
        assert np.linalg.norm(ops[0].M + ops[0].M.T) <= 1e-12
        assert np.linalg.norm(ops[0].M, 2) == pytest.approx(2.0, rel=1e-12)
        assert ops[1].mu == pytest.approx(0.5, abs=1e-10)

    def test_box_tail(self):
        ops = generate_problem("affine_plus_box", 3, 3, 0.5, 2.0)
        from relocsplit import BoxNormalCone

        assert isinstance(ops[-1], BoxNormalCone)

    def test_custom_matrices(self, tmp_path):
        path = tmp_path / "mats.npz"
        np.savez(path, M1=np.eye(2), b1=np.array([1.0, 0.0]), M2=2 * np.eye(2))
        ops = generate_problem("custom_matrices", 2, 0, 0.5, 2.0, matrices_path=str(path))
        assert len(ops) == 2
        assert ops[1].mu == pytest.approx(2.0)

    def test_bad_kind(self):
        with pytest.raises(ConfigError):
            generate_problem("bogus", 2, 0, 0.5, 2.0)


class TestConfigParsing:
    def test_parse_and_build(self, tmp_path):
        path = write_config(tmp_path, DR_CONFIG)
        config = cli.build_config(cli.parse_config_file(path))
        assert config.algorithm == "dr"
        assert config.dim == 10
        assert config.schedule.kind == "geometric"
        assert len(config.checks) == 8

    def test_overrides(self, tmp_path):
        path = write_config(tmp_path, DR_CONFIG)
        config = cli.build_config(
            cli.parse_config_file(path), {"problem.dim": "4", "checks": "summability"}
        )
        assert config.dim == 4
        assert config.checks == ["summability"]

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, DR_CONFIG, extra="bogus.key = 1\n")
        with pytest.raises(ConfigError):
            cli.build_config(cli.parse_config_file(path))

    def test_inapplicable_check_rejected(self, tmp_path):
        path = write_config(tmp_path, SCALAR_CONFIG)
        with pytest.raises(ConfigError):
            cli.build_config(cli.parse_config_file(path), {"checks": "fix_decomposition"})

    def test_box_problem_restricted_to_summability(self, tmp_path):
        path = write_config(tmp_path, DR_CONFIG)
        # explicit oracle-based checks are rejected: no contraction certificate
        with pytest.raises(ConfigError):
            cli.build_config(
                cli.parse_config_file(path),
                {"problem.kind": "affine_plus_box", "checks": "rate_theorem"},
            )
        # "all" narrows to whatever applies
        config = cli.build_config(
            cli.parse_config_file(path), {"problem.kind": "affine_plus_box"}
        )
        assert config.checks == ["summability"]

    def test_env_seed_override(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, DR_CONFIG)
        monkeypatch.setenv(cli.SEED_ENV_VAR, "123")
        config = cli.build_config(cli.parse_config_file(path))
        assert config.seed == 123

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("algorithm dr\n")
        with pytest.raises(ConfigError):
            cli.parse_config_file(str(path))

    def test_repeated_key_rejected(self, tmp_path, capsys):
        # DR_CONFIG sets n_steps on its line 15; a second setting must not win silently
        path = write_config(tmp_path, DR_CONFIG, extra="n_steps = 50\n")
        with pytest.raises(ConfigError, match=re.escape(f"{path}:17: key 'n_steps' already set on line 15")):
            cli.parse_config_file(path)
        assert cli.main(["verify", path, "--set", "checks=summability"]) == 2
        assert "already set on line 15" in capsys.readouterr().err
        # --set still overrides a key the file sets once
        once = write_config(tmp_path, DR_CONFIG, name="once.cfg")
        assert cli.build_config(cli.parse_config_file(once), {"n_steps": "50"}).n_steps == 50

    def test_every_readme_key_is_accepted(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("### Config keys", 1)[1].split("\n\n", 2)[1]
        keys = {key for row in table.splitlines()[2:] for key in re.findall(r"`([^`]+)`", row.split("|")[1])}
        assert keys == set(cli._KNOWN_KEYS)
        values = {
            "problem.n_operators": "2", "problem.beta": "0.5", "problem.box_half_width": "1",
            "problem.matrices_path": str(tmp_path / "m.npz"), "schedule.p": "2", "theta": "0.5",
            "output.trace_path": str(tmp_path / "t.csv"), "output.report_path": str(tmp_path / "r.txt"),
        }
        mapping = cli.parse_config_file(write_config(tmp_path, DR_CONFIG)) | values
        assert mapping.keys() == keys
        # each key is accepted by the algorithms it applies to
        accepted = set()
        for algorithm in cli.ALGORITHMS:
            applicable = {key: value for key, value in mapping.items()
                          if algorithm in cli._KNOWN_KEYS[key][1]}
            assert cli.build_config(applicable | {"algorithm": algorithm}).n_steps == 300
            accepted |= applicable.keys()
        assert accepted == keys


    @pytest.mark.parametrize(
        "text, key, value",
        [(DR_CONFIG, "problem.n_operators", "5"), (DR_CONFIG, "theta", "7"),
         (MT_CONFIG, "problem.beta", "0.5"), (SCALAR_CONFIG, "problem.kind", "bogus"),
         (SCALAR_CONFIG, "problem.dim", "40"), (SCALAR_CONFIG, "theta", "0.5")],
        ids=["dr-n_operators", "dr-theta", "mt-beta", "scalar-kind", "scalar-dim", "scalar-theta"],
    )
    def test_inapplicable_key_rejected(self, tmp_path, capsys, text, key, value):
        # a key the algorithm never reads cannot take effect, so it exits 2 instead of passing
        algorithm = cli.parse_config_file(write_config(tmp_path, text))["algorithm"]
        message = f"keys ['{key}'] do not apply to algorithm={algorithm}"
        assert cli.main(["run", write_config(tmp_path, text), "--set", f"{key}={value}"]) == 2
        assert message in capsys.readouterr().err
        in_file = write_config(tmp_path, text, name="in_file.cfg", extra=f"{key} = {value}\n")
        assert cli.main(["verify", in_file]) == 2
        assert message in capsys.readouterr().err


class TestRunExperiment:
    def test_scalar_counterexample_rate(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            SCALAR_CONFIG,
            extra=f"output.trace_path = {tmp_path}/t.csv\noutput.report_path = {tmp_path}/r.txt\n",
        )
        status = cli.main(["run", path])
        assert status == 0
        report = (tmp_path / "r.txt").read_text()
        line = next(l for l in report.splitlines() if "rate_theorem" in l)
        fitted_r = float(dict(kv.split("=") for kv in line.split())["fitted_r"])
        assert 0.49 <= fitted_r <= 0.51

    def test_dr_all_checks_pass(self, tmp_path, capsys):
        path = write_config(
            tmp_path, DR_CONFIG, extra=f"output.trace_path = {tmp_path}/dr.csv\n"
        )
        status = cli.main(["run", path])
        assert status == 0
        out = capsys.readouterr().out
        assert out.count("status=PASS") == 8
        assert "overall=PASS checks=8 failed=0" in out

    def test_mt_all_checks_pass(self, tmp_path):
        path = write_config(tmp_path, MT_CONFIG, name="mt.cfg")
        assert cli.main(["run", path]) == 0

    @pytest.mark.parametrize("text", [DR_CONFIG, MT_CONFIG], ids=["dr", "mt"])
    def test_one_n_steps_run_serves_all_checks(self, tmp_path, monkeypatch, text):
        # the trace, its limit errors and rate_theorem share one n_steps run
        calls = []
        real = cli.relocated_iterate

        def counting(family, schedule, x0, n_steps):
            calls.append(n_steps)
            return real(family, schedule, x0, n_steps)

        limits = []
        real_limit = diagnostics.limit_errors

        def counting_limit(family, gamma, run):
            limits.append(len(run))
            return real_limit(family, gamma, run)

        monkeypatch.setattr(cli, "relocated_iterate", counting)
        monkeypatch.setattr(diagnostics, "relocated_iterate", counting)
        monkeypatch.setattr(diagnostics, "limit_errors", counting_limit)
        config = cli.build_config(cli.parse_config_file(write_config(tmp_path, text)))
        status, records = cli.run_experiment(config)
        assert status == 0 and "rate_theorem" in [rec.name for rec in records]
        assert calls == [config.n_steps]
        assert limits == [config.n_steps + 1]

    @pytest.mark.parametrize("text", [DR_CONFIG, MT_CONFIG], ids=["dr", "mt"])
    def test_rate_theorem_reads_the_one_copy_of_each_column(self, tmp_path, monkeypatch, text):
        # one run, one limit and one distance pass serve the trace and rate_theorem alike
        calls = dict.fromkeys(("relocated_iterate", "limit_errors", "compute_distances", "point"), 0)

        def counted(name, real):
            def counting(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return counting

        for owner, name in ((cli, "relocated_iterate"), (diagnostics, "relocated_iterate"),
                            (diagnostics, "limit_errors"), (diagnostics, "compute_distances")):
            monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
        monkeypatch.setattr(FixedPointLine, "point", counted("point", FixedPointLine.point))
        config = cli.build_config(
            cli.parse_config_file(write_config(tmp_path, text)), {"checks": "rate_theorem"}
        )
        status, records = cli.run_experiment(config)
        assert status == 0 and [rec.name for rec in records] == ["rate_theorem"]
        # rate_theorem serves no point of its own: the line is certified at the two interval
        # ends, then serves the rows' points a block at a time
        blocks = len(list(block_sizes(config.n_steps + 1, 3 * cli.build_family(config)[0].dim)))
        assert calls == {"relocated_iterate": 1, "limit_errors": 1, "compute_distances": 1,
                         "point": 2 + blocks}

    @pytest.mark.parametrize(
        "extra",
        [{"M3": 5 * np.eye(2)}, {"box_lower": -np.ones(2), "box_upper": np.ones(2)}],
        ids=["three_matrices", "two_matrices_and_box"],
    )
    def test_dr_rejects_other_than_two_operators(self, tmp_path, extra, capsys):
        path = tmp_path / "mats.npz"
        cfg = write_config(tmp_path, DR_CONFIG)
        argv = ["run", cfg, "--set", "problem.kind=custom_matrices",
                "--set", f"problem.matrices_path={path}", "--set", "checks=fix_decomposition"]
        np.savez(path, M1=2 * np.eye(2), M2=3 * np.eye(2), **extra)
        assert cli.main(argv) == 2
        assert "dr needs exactly 2 operators" in capsys.readouterr().err
        np.savez(path, M1=2 * np.eye(2), M2=3 * np.eye(2))
        assert cli.main(argv) == 0

    @pytest.mark.parametrize(
        "text, overrides, oracle_runs",
        [(DR_CONFIG, {}, 0), (MT_CONFIG, {}, 0),
         (MT_CONFIG, {"problem.kind": "affine_plus_box", "problem.box_half_width": "0.5"}, 1)],
        ids=["dr_affine", "mt_affine", "mt_box"],
    )
    def test_fixed_point_oracle_runs(self, tmp_path, monkeypatch, text, overrides, oracle_runs):
        # affine families solve for the zero; a box family runs one oracle for it
        calls = []
        real = diagnostics.fixed_point_oracle

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(diagnostics, "fixed_point_oracle", counting)
        config = cli.build_config(cli.parse_config_file(write_config(tmp_path, text)), overrides)
        status, _ = cli.run_experiment(config)
        assert status == 0
        assert len(calls) == oracle_runs

    @pytest.mark.parametrize("text", [DR_CONFIG, MT_CONFIG], ids=["dr", "mt"])
    def test_broken_relocator_fails_its_checks(self, tmp_path, monkeypatch, text):
        # served fixed points come from the operators, so a relocator whose
        # delta/gamma ratio is off by 1e-3 cannot agree with them
        checks = ["relocator_bijection", "gamma_lipschitz"]
        checks += ["fix_decomposition"] if text is DR_CONFIG else []
        config = cli.build_config(
            cli.parse_config_file(write_config(tmp_path, text)), {"checks": ",".join(checks)}
        )
        family_type = type(cli.build_family(config)[0])
        _, records = cli.run_experiment(config)
        assert all(rec.passed for rec in records)

        real = family_type.relocate_from

        def broken(self, delta, gamma, x):
            x = np.asarray(x, dtype=float)
            anchor = real(self, gamma, gamma, x)[1]  # J_{gamma A1} of the first block
            s = delta / gamma * (1.0 + 1e-3)
            return s * x + (1.0 - s) * np.tile(anchor, x.size // anchor.size)

        monkeypatch.setattr(family_type, "relocate", broken)
        status, records = cli.run_experiment(config)
        assert status == 1
        assert [rec.name for rec in records if not rec.passed] == checks

    def test_polynomial_negative_control(self, tmp_path):
        path = write_config(tmp_path, DR_CONFIG)
        status = cli.main(
            [
                "run",
                path,
                "--set", "schedule.kind=polynomial",
                "--set", "schedule.p=2.0",
                "--set", "checks=rate_theorem",
            ]
        )
        assert status == 1

    @pytest.mark.parametrize("override", ["schedule.C=inf", "schedule.C=nan", "schedule.p=nan"])
    def test_non_finite_schedule_parameter_is_a_config_error(self, tmp_path, override, capsys):
        # C=inf would clamp every stepsize to gamma_high: a constant schedule, every check PASS
        path = write_config(tmp_path, DR_CONFIG)
        p = [] if override.startswith("schedule.p=") else ["--set", "schedule.p=1"]
        status = cli.main(["verify", path, "--set", "schedule.kind=polynomial", *p, "--set", override])
        assert status == 2
        assert "schedule parameters must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, message",
        [("geometric", "geometric schedule needs r in (0, 1)"),
         ("polynomial", "polynomial schedule needs p > 0"),
         ("harmonic", "unknown schedule kind 'harmonic'")],
    )
    def test_schedule_rules_have_one_validator(self, tmp_path, kind, message, capsys):
        # a missing r or p and an unknown kind all reach StepsizeSchedule's own check
        path = write_config(tmp_path, DR_CONFIG.replace("schedule.r = 0.5\n", ""))
        assert cli.main(["verify", path, "--set", f"schedule.kind={kind}"]) == 2
        assert f"bad schedule: {message}" in capsys.readouterr().err

    def test_config_error_exit_code(self, tmp_path):
        path = write_config(tmp_path, DR_CONFIG, extra="junk = 1\n")
        assert cli.main(["run", path]) == 2

    def test_io_error_exit_code(self, tmp_path):
        assert cli.main(["run", str(tmp_path / "missing.cfg")]) == 3

    def test_malformed_set_flag(self, tmp_path):
        path = write_config(tmp_path, SCALAR_CONFIG)
        assert cli.main(["run", path, "--set", "oops"]) == 2

    def test_repeated_set_key_rejected(self, tmp_path, capsys):
        # a key given twice on the command line must not take its last value silently
        path = write_config(tmp_path, SCALAR_CONFIG, extra=f"output.trace_path = {tmp_path}/t.csv\n")
        assert cli.main(["run", path, "--set", "n_steps=10", "--set", "n_steps=40"]) == 2
        assert "--set:2: key 'n_steps' already set on line 1" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    def test_scalar_summability_still_passes_polynomial(self, tmp_path):
        # the relocator constants are identically 1, so summability holds
        # even for schedules without a rate
        path = write_config(tmp_path, SCALAR_CONFIG)
        status = cli.main(
            ["run", path, "--set", "schedule.kind=polynomial", "--set", "schedule.p=2.0",
             "--set", "checks=summability"]
        )
        assert status == 0

    def test_verify_writes_no_trace(self, tmp_path, capsys):
        # verify is run without a trace: same checks, same report bytes, no trace file
        outputs = {}
        for command in ("run", "verify"):
            trace, report = tmp_path / f"{command}.csv", tmp_path / f"{command}.txt"
            path = write_config(
                tmp_path, SCALAR_CONFIG, name=f"{command}.cfg",
                extra=f"output.trace_path = {trace}\noutput.report_path = {report}\n",
            )
            assert cli.main([command, path, "--set", "checks=all"]) == 0
            outputs[command] = (capsys.readouterr().out, report.read_bytes(), trace.exists())
        assert outputs["verify"][:2] == outputs["run"][:2]
        assert outputs["run"][2] and not outputs["verify"][2]

    def test_scalar_verify_all_checks_pass(self, tmp_path, capsys):
        # error_bound evaluates ScalarShiftFamily on blocks of (k, 1) points
        path = write_config(tmp_path, SCALAR_CONFIG)
        assert cli.main(["verify", path, "--set", "checks=all", "--set", "n_steps=200"]) == 0
        out = capsys.readouterr().out
        assert "name=error_bound status=PASS" in out and "failed=0" in out

    def test_jobs_flag(self, tmp_path):
        p1 = write_config(tmp_path, SCALAR_CONFIG, name="a.cfg")
        p2 = write_config(tmp_path, SCALAR_CONFIG, name="b.cfg")
        assert cli.main(["run", p1, p2, "--jobs", "2"]) == 0

    def test_jobs_start_no_more_workers_than_configs(self, tmp_path, monkeypatch):
        # a recording stand-in that maps serially: no real pool is started
        requested = []

        class SerialPool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", SerialPool)
        p1 = write_config(tmp_path, SCALAR_CONFIG, name="a.cfg")
        p2 = write_config(tmp_path, SCALAR_CONFIG, name="b.cfg")
        assert cli.main(["run", p1, p2, "--jobs", "64"]) == 0
        assert cli.main(["run", p1, p2, p1, "--jobs", "2"]) == 0
        assert requested == [2, 2]


class TestTraceCsv:
    def test_determinism_byte_identical(self, tmp_path):
        c1 = write_config(
            tmp_path, DR_CONFIG, name="one.cfg",
            extra=f"output.trace_path = {tmp_path}/t1.csv\n",
        )
        c2 = write_config(
            tmp_path, DR_CONFIG, name="two.cfg",
            extra=f"output.trace_path = {tmp_path}/t2.csv\n",
        )
        assert cli.main(["run", c1, "--set", "checks=summability"]) == 0
        assert cli.main(["run", c2, "--set", "checks=summability"]) == 0
        assert (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t2.csv").read_bytes()

    def test_round_trip_exact(self, tmp_path):
        path = write_config(
            tmp_path, DR_CONFIG,
            extra=f"output.trace_path = {tmp_path}/t.csv\n",
        )
        config = cli.build_config(
            cli.parse_config_file(path), {"checks": "", "n_steps": "50"}
        )
        family, _ = cli.build_family(config)
        x0 = cli._initial_point(config, family)
        trace = cli.relocated_iterate(family, config.schedule, x0, config.n_steps)
        diagnostics.limit_errors(family, config.schedule.gamma_star, trace)
        cli.write_trace_csv(config.trace_path, trace)
        col = lambda name: cli.read_trace_csv(config.trace_path, name)  # noqa: E731
        assert len(col("n")) == config.n_steps + 1
        assert np.array_equal(col("gamma"), trace.gammas)
        assert np.array_equal(col("residual"), trace.residuals)
        assert np.array_equal(col("err_to_limit"), trace.err_to_limit)
        for j in range(10):
            assert np.array_equal(col(f"x_{j}"), trace.xs[:, j])
            assert np.array_equal(col(f"z_{j}"), trace.blocks["z"][:, j])

    def test_golden_bytes(self, tmp_path):
        fam = ScalarShiftFamily(0.5, (0.5, 2.0))
        schedule = StepsizeSchedule.geometric(1.0, 1.0, 0.5, (0.5, 2.0))
        trace = relocated_iterate(fam, schedule, [1.0], 3)
        trace.err_to_limit = np.array([0.1, 1.0 / 3.0, 2.0 / 3.0, 1e-20])
        path = tmp_path / "t.csv"
        cli.write_trace_csv(str(path), trace)
        assert path.read_text() == (
            "n,gamma,residual,dist_to_fix,err_to_limit,x_0,t_0\n"
            "0,2,0.5,nan,0.10000000000000001,1,1.5\n"
            "1,1.5,0,nan,0.33333333333333331,1.5,1.5\n"
            "2,1.25,0,nan,0.66666666666666663,1.25,1.25\n"
            "3,1.125,0,nan,9.9999999999999995e-21,1.125,1.125\n"
        )

    def test_header_schema(self, tmp_path):
        path = write_config(
            tmp_path, DR_CONFIG,
            extra=f"output.trace_path = {tmp_path}/t.csv\n",
        )
        assert cli.main(["run", path, "--set", "checks=summability", "--set", "n_steps=20"]) == 0
        header = (tmp_path / "t.csv").read_text().splitlines()[0].split(",")
        assert header[:5] == ["n", "gamma", "residual", "dist_to_fix", "err_to_limit"]
        assert "x_0" in header and "z_0" in header and "y_0" in header and "w_0" in header


class TestRateCommand:
    def test_fit_from_trace(self, tmp_path, capsys):
        path = write_config(
            tmp_path, SCALAR_CONFIG,
            extra=f"output.trace_path = {tmp_path}/t.csv\n",
        )
        assert cli.main(["run", path]) == 0
        capsys.readouterr()
        assert cli.main(["rate", f"{tmp_path}/t.csv", "--column", "err_to_limit", "--burn-in", "5"]) == 0
        out = capsys.readouterr().out
        assert "verdict=linear" in out
        assert "r=0.49999" in out

    def test_missing_column(self, tmp_path):
        path = write_config(
            tmp_path, SCALAR_CONFIG,
            extra=f"output.trace_path = {tmp_path}/t.csv\n",
        )
        assert cli.main(["run", path]) == 0
        assert cli.main(["rate", f"{tmp_path}/t.csv", "--column", "nope"]) == 2

    def test_missing_file(self, tmp_path):
        assert cli.main(["rate", str(tmp_path / "none.csv")]) == 3

    def test_non_finite_column_is_named(self, tmp_path, capsys):
        # a column no requested check filled is written as NaN
        trace = tmp_path / "t.csv"
        path = write_config(tmp_path, DR_CONFIG, extra=f"output.trace_path = {trace}\n")
        assert cli.main(["run", path, "--set", "checks=summability", "--set", "n_steps=30"]) == 0
        capsys.readouterr()
        assert cli.main(["rate", str(trace), "--column", "dist_to_fix"]) == 2
        assert f"{trace}:2: column 'dist_to_fix' holds 'nan'" in capsys.readouterr().err

    def test_exact_convergence_reads_back_as_the_checks_fit_it(self, tmp_path, capsys):
        # a constant schedule converges exactly: err_to_limit is all zeros, and
        # rate_theorem and the readback both call that linear with C = 0
        trace = tmp_path / "t.csv"
        path = write_config(tmp_path, SCALAR_CONFIG, extra=f"output.trace_path = {trace}\n")
        assert cli.main(["run", path, "--set", "schedule.kind=constant", "--set", "n_steps=60"]) == 0
        assert "name=rate_theorem status=PASS" in capsys.readouterr().out
        assert not cli.read_trace_csv(str(trace), "err_to_limit").any()
        assert cli.main(["rate", str(trace), "--column", "err_to_limit"]) == 0
        assert "verdict=linear C=0 " in capsys.readouterr().out

    @pytest.mark.parametrize(
        "bad_row",
        ["1,0.5\n", "1,0.5,0.25,0.125\n", "1,0.5,x\n", "1,0.5,\n", "   \n"],
        ids=["short", "long", "non_numeric", "empty_field", "whitespace_row"],
    )
    def test_malformed_trace_is_a_config_error(self, tmp_path, bad_row, capsys):
        path = tmp_path / "t.csv"
        path.write_text("n,gamma,err\n0,1,0.5\n" + bad_row)
        with pytest.raises(ConfigError):
            cli.read_trace_csv(str(path), "err")
        assert cli.main(["rate", str(path), "--column", "err"]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra",
        ["\n", "\n\n", "# a comment, with commas\n"],
        ids=["trailing_blank_line", "two_blank_lines", "comment_line"],
    )
    def test_blank_and_comment_lines_are_skipped(self, tmp_path, extra):
        trace = tmp_path / "t.csv"
        path = write_config(tmp_path, SCALAR_CONFIG, extra=f"output.trace_path = {trace}\n")
        assert cli.main(["run", path]) == 0
        clean = cli.read_trace_csv(str(trace), "err_to_limit")
        with open(trace, "a", encoding="utf-8") as fh:
            fh.write(extra)
        np.testing.assert_array_equal(cli.read_trace_csv(str(trace), "err_to_limit"), clean)
        assert cli.main(["rate", str(trace), "--burn-in", "5"]) == 0
