"""``tools/ab_main.py``: fresh-process timing of ``cli.main`` from two source trees."""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("ab_main", ROOT / "tools" / "ab_main.py")
ab_main = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_main)

SRC = str(ROOT / "src")


@pytest.mark.parametrize("argv", [
    [], [SRC, SRC, "2"], [SRC, SRC, "1", "--", "verify", "x.cfg"], [SRC, SRC, "two", "--", "verify"],
    [SRC, "--", SRC, "2", "verify"],
], ids=["empty", "no_separator", "one_pair", "not_a_count", "separator_misplaced"])
def test_bad_usage_exits_2(argv, capsys):
    assert ab_main.main(argv) == 2
    assert "Usage" in capsys.readouterr().err


def test_two_pairs_time_both_sides(tmp_path, capsys):
    config = tmp_path / "scalar.cfg"
    config.write_text("algorithm = scalar_counterexample\nschedule.kind = constant\n"
                      "schedule.gamma_star = 1.0\nn_steps = 20\nchecks = summability\n")
    assert ab_main.main([SRC, SRC, "2", "--", "verify", str(config)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[:2]] == ["A", "B"]
    assert re.fullmatch(r"B faster in [0-2] of 2 pairs; median [+-]\d+\.\d%; exit status 0", lines[2])


def test_a_changed_exit_status_stops_the_comparison(monkeypatch, capsys):
    statuses = iter([0, 1])
    monkeypatch.setattr(ab_main, "time_once", lambda src, cli_args: (next(statuses), 0.1))
    assert ab_main.main(["a", "b", "3", "--", "verify", "x.cfg"]) == 1
    assert "exit status 1 from b differs" in capsys.readouterr().err


def test_sides_alternate_and_keep_their_own_runs(monkeypatch, capsys):
    # one tree on both sides: calls run A, B, then B, A, and each side keeps its own times
    elapsed = iter([1.0, 2.0, 3.0, 5.0])
    monkeypatch.setattr(ab_main, "time_once", lambda src, cli_args: (0, next(elapsed)))
    assert ab_main.main(["src", "src", "2", "--", "verify", "x.cfg"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("A  median 3.00000  quartiles 2.00000 4.00000")
    assert lines[1].startswith("B  median 2.50000  quartiles 2.25000 2.75000")
    assert lines[2] == "B faster in 1 of 2 pairs; median -16.7%; exit status 0"
