"""``tools/verdicts.py``: the one line per config and seed by which two checkouts' exit
statuses, verdicts and outputs are compared."""

import hashlib
import importlib.util
import re
import sys
from pathlib import Path

import pytest

import relocsplit.cli as cli

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("verdicts", ROOT / "tools" / "verdicts.py")
verdicts = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(verdicts)

# the benchmark's workloads, with each config's expected exit status and verdicts at seed 7
sys.path.insert(0, str(ROOT / "perfbench"))
try:
    import workloads
finally:
    sys.path.remove(str(ROOT / "perfbench"))


def test_parse_seeds_reads_lists_and_ranges():
    assert verdicts.parse_seeds("1-3,7,9-9") == [1, 2, 3, 7, 9]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_run_line_reports_exit_verdicts_and_digests(name, tmp_path, monkeypatch):
    # run_line sets the seed variable itself; setting it here first restores it afterwards
    monkeypatch.setenv(cli.SEED_ENV_VAR, "7")
    workload = workloads.WORKLOADS[name]
    config = Path(workload.config_path)
    line = verdicts.run_line(cli, config, 7, str(tmp_path))
    match = re.fullmatch(
        rf"{name} seed=7 exit={workload.expected_exit}"
        r"((?: [a-z_]+=(?:PASS|FAIL):[0-9a-f]{12})+) report=[0-9a-f]{64} trace=([0-9a-f]{64})"
        r" rows=([0-9a-f]{64})", line
    )
    assert match, line
    # the trace keeps its fit line, the rows digest drops it
    assert match[3] == verdicts.rows_digest(str(tmp_path / "trace.csv")) != match[2]
    checks = re.findall(r"([a-z_]+)=(PASS|FAIL):", match[1])
    assert {check: status == "PASS" for check, status in checks} == workload.expected_checks, line
    # a config's line repeats byte for byte within a version: identical runs, identical outputs
    assert verdicts.run_line(cli, config, 7, str(tmp_path)) == line


def test_rows_digest_skips_the_fit_line_only(tmp_path):
    trace = tmp_path / "trace.csv"
    assert verdicts.rows_digest(str(trace)) == "none"
    header, row = "n,gamma,x_0\n", "0,1,0.5\n"
    trace.write_text(header + "# dist_to_fix floor=1e-15 burn_in=5\n" + row)
    rows = verdicts.rows_digest(str(trace))
    assert rows == hashlib.sha256((header + row).encode()).hexdigest()
    # a moved floor changes the trace digest and keeps the rows digest
    before = verdicts.digest(str(trace))
    trace.write_text(header + "# dist_to_fix floor=2e-15 burn_in=5\n" + row)
    assert verdicts.digest(str(trace)) != before and verdicts.rows_digest(str(trace)) == rows
    # a moved iterate changes both
    trace.write_text(header + "# dist_to_fix floor=2e-15 burn_in=5\n" + "0,1,0.25\n")
    assert verdicts.rows_digest(str(trace)) != rows


def test_sets_reach_every_config_and_seed(monkeypatch):
    # main passes each --set to every run; os.environ and sys.path are restored afterwards
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    calls = []
    monkeypatch.setattr(verdicts, "run_line",
                        lambda cli, config, seed, workdir, sets: calls.append((config.stem, seed, sets)) or "")
    sets = ["schedule.kind=polynomial", "schedule.p=2"]
    assert verdicts.main([str(ROOT / "src"), "3,7", "--set", sets[0], "--set", sets[1]]) == 0
    stems = sorted(path.stem for path in verdicts.CONFIGS.glob("*.cfg"))
    assert calls == [(stem, seed, sets) for stem in stems for seed in (3, 7)]


def test_run_line_applies_the_sets(tmp_path, monkeypatch):
    # a polynomial variant of an mt config: a new trace, and the proven bound PASSes summability
    monkeypatch.setenv(cli.SEED_ENV_VAR, "7")
    config = verdicts.CONFIGS / "mt-n4-d10.cfg"
    plain = verdicts.run_line(cli, config, 7, str(tmp_path), ["checks=summability"])
    line = verdicts.run_line(cli, config, 7, str(tmp_path),
                             ["checks=summability", "schedule.kind=polynomial", "schedule.p=2"])
    assert re.fullmatch(r"mt-n4-d10 seed=7 exit=0 summability=PASS:[0-9a-f]{12} .*", line), line
    assert line.split(" trace=")[1] != plain.split(" trace=")[1]


def test_verdicts_only_keeps_exit_and_verdicts(tmp_path, monkeypatch, capsys):
    line = ("mt-n4-d10 seed=7 exit=1 error_bound=PASS:0123456789ab summability=FAIL:ba9876543210"
            f" report={'a' * 64} trace={'b' * 64} rows={'c' * 64}")
    assert verdicts.verdicts_only(line) == "mt-n4-d10 seed=7 exit=1 error_bound=PASS summability=FAIL"
    # main prints the short form for every config and seed
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(verdicts, "run_line", lambda cli, config, seed, workdir, sets: line)
    assert verdicts.main([str(ROOT / "src"), "7", "--verdicts-only"]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed == [verdicts.verdicts_only(line)] * len(list(verdicts.CONFIGS.glob("*.cfg")))
