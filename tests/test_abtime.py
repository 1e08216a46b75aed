"""`tools/abtime.py` times two probeplan trees in one process: two copies of
one tree agree, a copy with an edited cost constant is reported, and bad
options or a missing tree exit 2 before any run."""

import importlib.util
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("abtime", ROOT / "tools" / "abtime.py")
abtime = sys.modules["abtime"] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(abtime)

ARGS = ["--shape", "crossing_hedge", "--runs", "3", "--t-max", "0.2"]


@pytest.fixture
def trees(tmp_path):
    for name in ("a", "b"):
        shutil.copytree(ROOT / "src" / "probeplan", tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path / "a", tmp_path / "b"


def test_copies_of_one_tree_agree(trees, capsys):
    assert abtime.main([str(trees[0]), str(trees[1]), *ARGS]) == 0
    out = capsys.readouterr().out
    assert "DIFFERS" not in out
    # One line per planner of the shape and a total.
    assert [line.split()[0] for line in out.splitlines()[2:]] == ["conservative", "passive", "all"]


def test_edited_cost_constant_differs(trees, capsys):
    risk = trees[1] / "risk.py"
    text = risk.read_text()
    assert "\nW_PROX = 10.0\n" in text
    risk.write_text(text.replace("\nW_PROX = 10.0\n", "\nW_PROX = 30.0\n"))
    assert abtime.main([str(trees[0]), str(trees[1]), *ARGS]) == 1
    assert "DIFFERS: intersection/" in capsys.readouterr().out


@pytest.mark.parametrize("bad", [["--t-max", "-1"], ["--t-max", "0"], ["--t-max", "nan"],
                                 ["--t-max", "inf"], ["--seed", "-5"], ["--runs", "0"]])
def test_bad_arguments_exit_2_before_loading_a_tree(bad, tmp_path, capsys):
    # The trees do not exist: a check that ran after loading would name them instead.
    missing = str(tmp_path / "missing")
    with pytest.raises(SystemExit) as exit_info:
        abtime.main([missing, missing, *bad])
    assert exit_info.value.code == 2
    assert bad[0] in capsys.readouterr().err


def test_missing_tree_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        abtime.main([str(tmp_path / "missing"), str(tmp_path / "missing")])
    assert exit_info.value.code == 2
    assert "no probeplan package at" in capsys.readouterr().err
