import concurrent.futures
import re
from pathlib import Path

import numpy as np
import pytest

import relocsplit.cli as cli
import relocsplit.diagnostics as diagnostics
import relocsplit.dr as dr
import relocsplit.mt as mt
from relocsplit import (
    ScalarShiftFamily,
    StepsizeSchedule,
    generate_problem,
    relocated_iterate,
)
from relocsplit.errors import CertificationFailed, ConfigError, DivergenceDetected, NoConvergence
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

MT_BOX_D100 = (Path(__file__).resolve().parent.parent / "perfbench" / "configs"
               / "mt-box-d100-n3.cfg").read_text(encoding="utf-8")

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

    @pytest.mark.parametrize("case", ["lower_only", "upper_only", "not_numpy"])
    def test_malformed_custom_matrices_file(self, tmp_path, case, capsys):
        path = tmp_path / "mats.npz"
        pair = {"M1": 2 * np.eye(2), "M2": 3 * np.eye(2)}
        if case == "lower_only":
            np.savez(path, **pair, box_lower=-np.ones(2))
        elif case == "upper_only":
            np.savez(path, **pair, box_upper=np.ones(2))
        else:
            path.write_text("M1 = 2 I\n")
        with pytest.raises(ConfigError, match=re.escape(str(path))):
            generate_problem("custom_matrices", 2, 0, 0.5, 2.0, n_operators=3, matrices_path=str(path))
        cfg = write_config(tmp_path, MT_CONFIG)
        argv = ["verify", cfg, "--set", "problem.kind=custom_matrices",
                "--set", f"problem.matrices_path={path}", "--set", "checks=summability"]
        assert cli.main(argv) == 2
        assert "config error" in capsys.readouterr().err


class TestConfigParsing:
    def test_parse_and_build(self, tmp_path):
        path = write_config(tmp_path, DR_CONFIG)
        config = cli.build_config(cli.parse_config_file(path))
        assert config.algorithm == "dr"
        assert config.dim == 10
        assert config.schedule.kind == "geometric"
        # "all" is expanded by the run, from the family it builds
        assert config.checks is None
        _, records = cli.run_experiment(config)
        assert len(records) == 8

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
        # the built family decides, before the run, and the message says why
        path = write_config(tmp_path, SCALAR_CONFIG)
        config = cli.build_config(cli.parse_config_file(path), {"checks": "fix_decomposition"})
        with pytest.raises(ConfigError, match="^check 'fix_decomposition' is not applicable: "
                                              "needs a resolvent chain$"):
            cli.run_experiment(config)

    def test_box_problem_restricted_to_summability(self, tmp_path):
        path = write_config(tmp_path, DR_CONFIG)
        # explicit oracle-based checks are rejected: no contraction certificate
        config = cli.build_config(
            cli.parse_config_file(path),
            {"problem.kind": "affine_plus_box", "checks": "rate_theorem"},
        )
        with pytest.raises(ConfigError, match="^check 'rate_theorem' is not applicable: no contraction "
                                              "certificate without a single-valued Lipschitz A1 "
                                              "and a strongly monotone A2$"):
            cli.run_experiment(config)
        # "all" narrows to whatever applies
        config = cli.build_config(
            cli.parse_config_file(path), {"problem.kind": "affine_plus_box"}
        )
        _, records = cli.run_experiment(config)
        assert [rec.name for rec in records] == ["summability"]

    def test_env_seed_override(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, DR_CONFIG)
        monkeypatch.setenv(cli.SEED_ENV_VAR, "123")
        config = cli.build_config(cli.parse_config_file(path))
        assert config.seed == 123

    @pytest.mark.parametrize("env, overrides, source", [
        ("-1", {}, cli.SEED_ENV_VAR), (None, {"problem.seed": "-3"}, "problem.seed"),
    ], ids=["env", "set"])
    def test_negative_seed_rejected(self, tmp_path, monkeypatch, capsys, env, overrides, source):
        path = write_config(tmp_path, DR_CONFIG)
        if env is None:
            monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
        else:
            monkeypatch.setenv(cli.SEED_ENV_VAR, env)
        with pytest.raises(ConfigError, match=f"{source} must be >= 0"):
            cli.build_config(cli.parse_config_file(path), overrides)
        argv = ["verify", path, "--set", "checks=summability"]
        assert cli.main(argv + [arg for k, v in overrides.items() for arg in ("--set", f"{k}={v}")]) == 2
        assert "config error" in capsys.readouterr().err

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
         (MT_CONFIG, {"problem.kind": "affine_plus_box", "problem.box_half_width": "0.5"}, 1),
         (MT_BOX_D100, {"problem.seed": "7"}, 1)],
        ids=["dr_affine", "mt_affine", "mt_box", "mt_box_d100"],
    )
    def test_fixed_point_oracle_runs(self, tmp_path, monkeypatch, text, overrides, oracle_runs):
        # affine families solve for the zero; a box family's active-set solve is finished by
        # one warm-started oracle run, which starts on the fixed point and so makes at most
        # two applies (a cold start from 0 made 295 on mt-box-d100-n3 at seed 7)
        applies = []
        real = diagnostics.fixed_point_oracle

        def counting(family, *args, **kwargs):
            applies.append(0)
            real_apply = type(family).apply

            def apply(self, *apply_args, **apply_kwargs):
                applies[-1] += 1
                return real_apply(self, *apply_args, **apply_kwargs)

            with monkeypatch.context() as patch:
                patch.setattr(type(family), "apply", apply)
                return real(family, *args, **kwargs)

        monkeypatch.setattr(diagnostics, "fixed_point_oracle", counting)
        config = cli.build_config(cli.parse_config_file(write_config(tmp_path, text)), overrides)
        status, _ = cli.run_experiment(config)
        assert status == 0
        assert len(applies) == oracle_runs and all(count <= 2 for count in applies)

    @pytest.mark.parametrize(
        "text, kind, eigendecompositions",
        [(DR_CONFIG, "affine_strongly_monotone", 0), (MT_CONFIG, "affine_plus_box", 0),
         (DR_CONFIG, "custom_matrices", 2)],
        ids=["dr_generated", "mt_box_generated", "dr_custom_matrices"],
    )
    def test_build_family_eigendecomposes_only_loaded_matrices(
        self, tmp_path, monkeypatch, text, kind, eigendecompositions
    ):
        # a generated operator keeps the spectrum and basis it is built from; each
        # symmetric matrix read from a file is eigendecomposed once
        path = tmp_path / "mats.npz"
        G = np.random.default_rng(2).standard_normal((10, 10))
        np.savez(path, M1=G @ G.T + np.eye(10), M2=2 * np.eye(10))
        config = cli.build_config(
            cli.parse_config_file(write_config(tmp_path, text)),
            {"problem.kind": kind, "problem.matrices_path": str(path)},
        )
        calls = []
        real = np.linalg.eigh

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        cli.build_family(config)
        assert len(calls) == eigendecompositions

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

        def broken(self, delta, gamma, x):
            x = np.asarray(x, dtype=float)
            head = getattr(self, "a1", None) or self.operators[0]
            anchor = head.resolvent(gamma, x[..., : head.dim])  # J_{gamma A1} of the first block
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

    @pytest.mark.parametrize(
        "owner, name, error, overrides",
        [(cli, "relocated_iterate", DivergenceDetected("||x_3|| exceeded 1e+150"), []),
         (diagnostics, "fixed_point_oracle", NoConvergence("residual 1e-3 above 1e-13"),
          ["--set", "problem.kind=affine_plus_box"]),
         (mt, "mt_contraction_certificate", CertificationFailed("sampled ratio 1.2 above 1"), [])],
        ids=["divergence", "no_convergence", "certification_failed"],
    )
    def test_numerical_error_exit_code(self, tmp_path, monkeypatch, capsys, owner, name, error, overrides):
        # a run whose numbers no check can use exits 4, naming the error's type
        def failing(*args, **kwargs):
            raise error

        monkeypatch.setattr(owner, name, failing)
        path = write_config(tmp_path, MT_CONFIG)
        assert cli.main(["verify", path, *overrides]) == 4
        assert f"numerical error ({path}): {type(error).__name__}: {error}\n" == capsys.readouterr().err

    def test_malformed_set_flag(self, tmp_path):
        path = write_config(tmp_path, SCALAR_CONFIG)
        assert cli.main(["run", path, "--set", "oops"]) == 2

    def test_repeated_set_key_rejected(self, tmp_path, capsys):
        # a key given twice on the command line must not take its last value silently
        path = write_config(tmp_path, SCALAR_CONFIG, extra=f"output.trace_path = {tmp_path}/t.csv\n")
        assert cli.main(["run", path, "--set", "n_steps=10", "--set", "n_steps=40"]) == 2
        assert "--set:2: key 'n_steps' already set on line 1" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("command", ["verify", "run"])
    def test_no_checks_and_no_trace_rejected(self, tmp_path, capsys, command):
        # with no trace written, an empty check list would print a vacuous overall=PASS
        path = write_config(tmp_path, MT_CONFIG)
        assert cli.main([command, path, "--set", "checks="]) == 2
        captured = capsys.readouterr()
        assert "checks is empty" in captured.err and captured.out == ""

    def test_run_without_checks_writes_its_trace(self, tmp_path, capsys):
        path = write_config(tmp_path, MT_CONFIG)
        trace = tmp_path / "t.csv"
        assert cli.main(["run", path, "--set", "checks=", "--set", f"output.trace_path={trace}"]) == 0
        assert "overall=PASS checks=0 failed=0" in capsys.readouterr().out
        assert len(cli.read_trace_csv(str(trace), "n")) == 401

    def test_repeated_check_rejected(self, tmp_path, capsys):
        # a check named twice would run twice and count twice in the overall line
        path = write_config(tmp_path, MT_CONFIG)
        with pytest.raises(ConfigError, match="check 'summability' is named more than once"):
            cli.build_config(cli.parse_config_file(path), {"checks": "summability,summability"})
        assert cli.main(["verify", path, "--set", "checks=summability,one_step,summability"]) == 2
        assert "check 'summability' is named more than once in checks" in capsys.readouterr().err

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

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_jobs_below_one_rejected(self, tmp_path, jobs, capsys):
        path = write_config(tmp_path, SCALAR_CONFIG)
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", path, "--jobs", jobs])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

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

        # main imports concurrent.futures only for --jobs > 1, and reads the pool from it then
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        p1 = write_config(tmp_path, SCALAR_CONFIG, name="a.cfg")
        p2 = write_config(tmp_path, SCALAR_CONFIG, name="b.cfg")
        assert cli.main(["run", p1, p2, "--jobs", "64"]) == 0
        assert cli.main(["run", p1, p2, p1, "--jobs", "2"]) == 0
        assert requested == [2, 2]


def _psd(rng, dim, lam_min):
    Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    M = (Q * np.linspace(lam_min, 2.0, dim)) @ Q.T
    return 0.5 * (M + M.T)


def _custom_matrices(name, dim=6):
    """The seeded arrays of a custom_matrices file. Neither "dr_spd_box" (a symmetric positive
    definite matrix and a box) nor "mt_psd" (three matrices with spectrum [0, 2]) has a
    contraction certificate; "dr_nonsymmetric" is a certified pair of nonsymmetric matrices."""
    rng = np.random.default_rng(3)
    if name == "dr_spd_box":
        return {"M1": _psd(rng, dim, 0.5), "b1": rng.standard_normal(dim),
                "box_lower": -np.ones(dim), "box_upper": np.ones(dim)}
    if name == "mt_psd":
        return {key: value for i in (1, 2, 3)
                for key, value in ((f"M{i}", _psd(rng, dim, 0.0)), (f"b{i}", rng.standard_normal(dim)))}
    G = rng.standard_normal((dim, dim))
    return {"M1": np.eye(dim) + 0.5 * (G - G.T), "b1": rng.standard_normal(dim),
            "M2": 2.0 * np.eye(dim) + 0.1 * rng.standard_normal((dim, dim)), "b2": rng.standard_normal(dim)}


CUSTOM_FILES = ("dr_spd_box", "mt_psd", "dr_nonsymmetric")


def _config_path(tmp_path, source):
    """A config file: ``source`` is a config's text, or the name of one of CUSTOM_FILES, which
    DR_CONFIG or MT_CONFIG then reads as custom_matrices."""
    if source not in CUSTOM_FILES:
        return write_config(tmp_path, source)
    path = tmp_path / f"{source}.npz"
    np.savez(path, **_custom_matrices(source))
    text = MT_CONFIG if source.startswith("mt") else DR_CONFIG
    return write_config(tmp_path, text.replace("problem.kind = affine_strongly_monotone\n", ""),
                        name=f"{source}.cfg",
                        extra=f"problem.kind = custom_matrices\nproblem.matrices_path = {path}\n")


def _all_but(*names):
    return [c for c in cli.CHECK_NAMES if c not in names]


#: the checks "all" runs, in CHECK_NAMES order: (config source, overrides, checks)
ALL_CHECKS = {
    "dr-strongly_monotone": (DR_CONFIG, {}, _all_but()),
    "dr-skew": (DR_CONFIG, {"problem.kind": "affine_skew_plus_strong"}, _all_but("fix_decomposition")),
    "dr-box": (DR_CONFIG, {"problem.kind": "affine_plus_box"}, ["summability"]),
    "mt-strongly_monotone": (MT_CONFIG, {}, _all_but("fix_decomposition")),
    "mt-skew": (MT_CONFIG, {"problem.kind": "affine_skew_plus_strong"}, _all_but("fix_decomposition")),
    "mt-box": (MT_CONFIG, {"problem.kind": "affine_plus_box"}, _all_but("fix_decomposition")),
    "scalar": (SCALAR_CONFIG, {"n_steps": "200"}, _all_but("fix_decomposition", "consensus")),
    "dr-custom_nonsymmetric": ("dr_nonsymmetric", {}, _all_but()),
    "dr-custom_spd_box": ("dr_spd_box", {}, ["summability"]),
    "mt-custom_psd": ("mt_psd", {}, ["summability"]),
}


class TestApplicableChecks:
    @pytest.mark.parametrize("name", sorted(ALL_CHECKS))
    def test_all_runs_what_the_family_supports(self, tmp_path, capsys, name):
        source, overrides, expected = ALL_CHECKS[name]
        argv = ["verify", _config_path(tmp_path, source), "--set", "checks=all"]
        assert cli.main(argv + [arg for k, v in overrides.items() for arg in ("--set", f"{k}={v}")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines[:-1]] == [f"name={c}" for c in expected]
        assert lines[-1] == f"overall=PASS checks={len(expected)} failed=0"

    @pytest.mark.parametrize("source", ["dr_spd_box", "mt_psd"])
    @pytest.mark.parametrize("check", ["error_bound", "consensus"])
    def test_a_named_check_without_a_certificate_exits_before_the_run(
        self, tmp_path, capsys, source, check
    ):
        # consensus fits a linear rate, which nothing certifies here: the generated dr box, the
        # same family as dr_spd_box, has always rejected it
        trace = tmp_path / "t.csv"
        argv = ["run", _config_path(tmp_path, source), "--set", f"checks={check}",
                "--set", f"output.trace_path={trace}"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert f"check '{check}' is not applicable" in captured.err and captured.out == ""
        assert not trace.exists()

    @pytest.mark.parametrize(
        "source, overrides, check, reason",
        [("dr_spd_box", {}, "error_bound", "no contraction certificate without a single-valued "
          "Lipschitz A1 and a strongly monotone A2"),
         ("mt_psd", {}, "one_step", "no contraction certificate without Lipschitz single-valued "
          "heads and a strongly monotone tail, or strongly monotone Lipschitz heads"),
         (SCALAR_CONFIG, {}, "consensus", "needs a resolvent chain"),
         (MT_CONFIG, {}, "fix_decomposition", "needs the two-operator splitting"),
         (DR_CONFIG, {"problem.kind": "affine_skew_plus_strong"}, "fix_decomposition",
          "withheld on affine_skew_plus_strong, where the benchmark pins 7 checks")],
        ids=["dr-custom_spd_box", "mt-custom_psd", "scalar", "mt", "dr-skew"],
    )
    def test_message_states_the_reason(self, tmp_path, capsys, source, overrides, check, reason):
        # the missing hypothesis, the missing chain or splitting, or the benchmark pin; two
        # custom_matrices files can differ in what applies, so the config's kind cannot say
        path = _config_path(tmp_path, source)
        argv = ["verify", path, "--set", f"checks={check}"]
        assert cli.main(argv + [arg for k, v in overrides.items() for arg in ("--set", f"{k}={v}")]) == 2
        assert capsys.readouterr().err == f"config error ({path}): check '{check}' is not applicable: {reason}\n"

    def test_summability_alone_computes_no_contraction_factor(self, tmp_path, monkeypatch):
        # summability reads the relocator constants only; mt's sampled factor is computed on the
        # first read of the regularity record, by a check that uses it
        cases = []
        real = mt.mt_contraction_certificate

        def counting(family, which_case, *args, **kwargs):
            cases.append(which_case)
            return real(family, which_case, *args, **kwargs)

        monkeypatch.setattr(mt, "mt_contraction_certificate", counting)
        path = write_config(tmp_path, MT_BOX_D100)
        assert cli.main(["verify", path, "--set", "checks=summability"]) == 0
        assert cases == []
        assert cli.main(["verify", path, "--set", "checks=summability,error_bound,one_step"]) == 0
        assert cases == ["first_strong"]

    def test_readme_checks_table_names_every_check(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("### Checks", 1)[1].split("\n\n", 2)[1]
        names = [re.findall(r"`([^`]+)`", row.split("|")[1]) for row in table.splitlines()[2:]]
        assert names == [[name] for name in cli.CHECK_NAMES]


CONSENSUS_RUNS = {
    "dr": (DR_CONFIG, {}),
    "mt_box_n3": (MT_CONFIG, {"problem.kind": "affine_plus_box", "problem.box_half_width": "0.5"}),
    "mt_n4": (MT_CONFIG, {"problem.n_operators": "4"}),
}


class TestConsensus:
    @pytest.mark.parametrize("name", sorted(CONSENSUS_RUNS))
    def test_gaps_are_those_of_the_resolvent_values(self, tmp_path, name, mt_chain):
        # read from the residual vectors, the gaps are max_{i<j} ||z^i_n - z^j_n|| over the
        # resolvent values of row n, evaluated afresh; the residual carries the rounding of
        # x_n, about 1e-16 (1 + ||x_n||), which the relative 1e-12 cannot absorb near the floor
        text, overrides = CONSENSUS_RUNS[name]
        config = cli.build_config(cli.parse_config_file(write_config(tmp_path, text)), overrides)
        family, _ = cli.build_family(config)
        trace = cli.relocated_iterate(
            family, config.schedule, cli._initial_point(config, family), config.n_steps
        )
        if config.algorithm == "dr":
            seqs = dr.primal_dual_extract(family, trace)
            chains = np.stack([seqs.z_seq, seqs.y_seq], axis=1)
        else:
            chains = np.array([mt_chain(family, g, x) for g, x in zip(trace.gammas, trace.xs)])
        pairs = [(i, j) for i in range(chains.shape[1]) for j in range(i + 1, chains.shape[1])]
        expected = np.max(
            [np.linalg.norm(chains[:, i] - chains[:, j], axis=1) for i, j in pairs], axis=0
        )
        gaps = cli._consensus_gaps(family, trace)
        scale = 1.0 + np.linalg.norm(trace.xs, axis=1)
        assert np.all(np.abs(gaps - expected) <= 1e-12 * expected + 1e-15 * scale)

    @pytest.mark.parametrize("name", sorted(CONSENSUS_RUNS))
    def test_fit_leaves_out_rounding_noise(self, tmp_path, monkeypatch, name):
        # a gap carries rounding of about eps (1 + ||x_n||): noise of that size on the gaps
        # below the run's floor must not move the fitted envelope constant
        text, overrides = CONSENSUS_RUNS[name]
        config = cli.build_config(cli.parse_config_file(write_config(tmp_path, text)), overrides)
        family, _ = cli.build_family(config)
        trace = cli.relocated_iterate(
            family, config.schedule, cli._initial_point(config, family), config.n_steps
        )
        gaps = cli._consensus_gaps(family, trace)
        eps = np.finfo(float).eps
        scale = 1.0 + np.linalg.norm(trace.xs, axis=1)
        below = gaps < diagnostics.ROUNDING_FLOOR_EPS * eps * scale.max()
        assert below.any()
        clean = cli._check_consensus(config, family, trace)
        monkeypatch.setattr(cli, "_consensus_gaps", lambda *args: gaps + below * eps * scale)
        noisy = cli._check_consensus(config, family, trace)
        assert abs(noisy.fitted_C - clean.fitted_C) <= 1e-6 * clean.fitted_C


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
        cli.write_trace_csv(config.trace_path, trace, family)
        col = lambda name: cli.read_trace_csv(config.trace_path, name)  # noqa: E731
        assert len(col("n")) == config.n_steps + 1
        assert np.array_equal(col("gamma"), trace.gammas)
        assert np.array_equal(col("residual"), trace.residuals)
        assert np.array_equal(col("err_to_limit"), trace.err_to_limit)
        for j in range(10):
            assert np.array_equal(col(f"x_{j}"), trace.xs[:, j])

    @pytest.mark.parametrize("text", [DR_CONFIG, MT_CONFIG], ids=["dr", "mt"])
    def test_dropped_blocks_are_recomputed_from_the_file(self, tmp_path, text):
        # the file keeps x_n and gamma_n, and T_{gamma_n} at x_n gives back w_n = t_of_x[n]
        path = write_config(tmp_path, text, extra=f"output.trace_path = {tmp_path}/t.csv\n")
        config = cli.build_config(cli.parse_config_file(path), {"checks": "", "n_steps": "60"})
        family, _ = cli.build_family(config)
        trace = cli.relocated_iterate(family, config.schedule, cli._initial_point(config, family), 60)
        diagnostics.limit_errors(family, config.schedule.gamma_star, trace)
        cli.write_trace_csv(config.trace_path, trace, family)
        gammas = cli.read_trace_csv(config.trace_path, "gamma")
        xs = np.column_stack([cli.read_trace_csv(config.trace_path, f"x_{j}") for j in range(family.dim)])
        w = np.array([family.apply(gamma, x) for gamma, x in zip(gammas, xs)])
        scale = np.linalg.norm(trace.t_of_x, axis=1)
        assert np.all(np.linalg.norm(w - trace.t_of_x, axis=1) <= 1e-12 * scale)

    def test_golden_bytes(self, tmp_path):
        fam = ScalarShiftFamily(0.5, (0.5, 2.0))
        schedule = StepsizeSchedule.geometric(1.0, 1.0, 0.5, (0.5, 2.0))
        trace = relocated_iterate(fam, schedule, [1.0], 3)
        trace.err_to_limit = np.array([0.1, 1.0 / 3.0, 2.0 / 3.0, 1e-20])
        path = tmp_path / "t.csv"
        cli.write_trace_csv(str(path), trace, fam)
        # err_to_limit's floor: 16 eps (1 + max_n ||x_n||), max_n ||x_n|| = 1.5
        assert path.read_text() == (
            "n,gamma,residual,dist_to_fix,err_to_limit,x_0\n"
            "# err_to_limit floor=8.8817841970012523e-15 burn_in=5\n"
            "0,2,0.5,nan,0.10000000000000001,1\n"
            "1,1.5,0,nan,0.33333333333333331,1.5\n"
            "2,1.25,0,nan,0.66666666666666663,1.25\n"
            "3,1.125,0,nan,9.9999999999999995e-21,1.125\n"
        )
        limit_floor = diagnostics.rounding_floor(trace.xs)
        assert cli.read_fit_line(str(path), "err_to_limit") == (limit_floor, 5)
        # with distances, the line after the header carries rate_theorem's floors and burn-in
        diagnostics.compute_distances(fam, trace)
        cli.write_trace_csv(str(path), trace, fam)
        lines = path.read_text().splitlines()
        floor = diagnostics.distance_floor(fam)
        assert lines[1] == (f"# dist_to_fix floor={cli.FLOAT_FMT % floor} burn_in=5 "
                            f"err_to_limit_floor={cli.FLOAT_FMT % limit_floor}") and len(lines) == 6
        assert cli.read_fit_line(str(path), "dist_to_fix") == (floor, 5)
        assert cli.read_fit_line(str(path), "err_to_limit") == (limit_floor, 5)

    def test_header_schema(self, tmp_path):
        path = write_config(
            tmp_path, DR_CONFIG,
            extra=f"output.trace_path = {tmp_path}/t.csv\n",
        )
        assert cli.main(["run", path, "--set", "checks=summability", "--set", "n_steps=20"]) == 0
        header = (tmp_path / "t.csv").read_text().splitlines()[0].split(",")
        # one schema for every algorithm: the blocks z, y, w (t on scalar runs) are not written
        assert header == ["n", "gamma", "residual", "dist_to_fix", "err_to_limit",
                          *(f"x_{j}" for j in range(10))]
        assert not any(name.startswith(("z_", "y_", "w_", "t_")) for name in header)


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
        assert f"{trace}:3: column 'dist_to_fix' holds 'nan'" in capsys.readouterr().err

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

    @pytest.mark.parametrize("checks", ["rate_theorem", "summability"])
    def test_err_to_limit_reads_back_with_the_recorded_burn_in(self, tmp_path, checks, capsys):
        # rate_theorem fits err_to_limit with a burn-in of 5, recorded in the fit line whether
        # or not the trace carries dist_to_fix; --burn-in overrides it, and a trace without
        # the line falls back to the default of 10% of the rows
        trace = tmp_path / "t.csv"
        path = write_config(tmp_path, DR_CONFIG, extra=f"output.trace_path = {trace}\n")
        assert cli.main(["run", path, "--set", f"checks={checks}"]) == 0
        values = cli.read_trace_csv(str(trace), "err_to_limit")
        # rate_theorem's floor for the column, from the iterates the trace holds
        xs = np.column_stack([cli.read_trace_csv(str(trace), f"x_{j}") for j in range(10)])
        expected = diagnostics.fit_linear_rate(
            values, cli.RATE_THEOREM_BURN_IN, diagnostics.rounding_floor(xs)
        )
        capsys.readouterr()
        assert cli.main(["rate", str(trace)]) == 0
        out = capsys.readouterr().out
        assert f" r={cli.FLOAT_FMT % expected.r} " in out and " burn_in=5 " in out
        assert cli.main(["rate", str(trace), "--burn-in", "7"]) == 0
        assert " burn_in=7 " in capsys.readouterr().out
        lines = trace.read_text().splitlines(keepends=True)
        trace.write_text("".join([lines[0], *lines[2:]]))
        assert cli.main(["rate", str(trace)]) == 0
        assert f" burn_in={diagnostics.default_burn_in(len(values))} " in capsys.readouterr().out
        trace.write_text("".join([lines[0], "# err_to_limit burn_in=x\n", *lines[2:]]))
        assert cli.main(["rate", str(trace)]) == 2
        assert f"{trace}:2: bad fit line" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fit_line",
        ["# dist_to_fix floor=x burn_in=5", "# dist_to_fix floor=nan burn_in=5",
         "# dist_to_fix floor=0 burn_in=5", "# dist_to_fix burn_in=5", "# dist_to_fix floor"],
        ids=["non_numeric", "nan", "zero", "missing_floor", "no_value"],
    )
    def test_dist_fit_line_is_checked(self, tmp_path, fit_line, capsys):
        trace = tmp_path / "t.csv"
        path = write_config(tmp_path, DR_CONFIG, extra=f"output.trace_path = {trace}\n")
        assert cli.main(["run", path, "--set", "checks=rate_theorem"]) == 0
        assert cli.main(["rate", str(trace), "--column", "dist_to_fix", "--burn-in", "7"]) == 0
        assert "burn_in=7 " in capsys.readouterr().out  # --burn-in overrides the line's
        lines = trace.read_text().splitlines(keepends=True)
        trace.write_text("".join([lines[0], fit_line + "\n", *lines[2:]]))
        assert cli.main(["rate", str(trace), "--column", "dist_to_fix"]) == 2
        assert f"config error ({trace}): {trace}:2: " in capsys.readouterr().err

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
