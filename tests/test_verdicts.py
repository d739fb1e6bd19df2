"""``tools/verdicts.py``: the one line per config and seed by which two checkouts' exit
statuses, verdicts and outputs are compared."""

import importlib.util
import re
from pathlib import Path

import relocsplit.cli as cli

_SPEC = importlib.util.spec_from_file_location(
    "verdicts", Path(__file__).resolve().parent.parent / "tools" / "verdicts.py"
)
verdicts = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(verdicts)


def test_parse_seeds_reads_lists_and_ranges():
    assert verdicts.parse_seeds("1-3,7,9-9") == [1, 2, 3, 7, 9]


def test_run_line_reports_exit_verdicts_and_digests(tmp_path, monkeypatch):
    # run_line sets the seed variable itself; setting it here first restores it afterwards
    monkeypatch.setenv(cli.SEED_ENV_VAR, "7")
    config = verdicts.CONFIGS / "mt-n4-d10.cfg"
    line = verdicts.run_line(cli, config, 7, str(tmp_path))
    checks = r"( [a-z_]+=PASS:[0-9a-f]{12}){7}"
    assert re.fullmatch(
        rf"mt-n4-d10 seed=7 exit=0{checks} report=[0-9a-f]{{64}} trace=[0-9a-f]{{64}}", line
    ), line
    assert verdicts.run_line(cli, config, 7, str(tmp_path)) == line
