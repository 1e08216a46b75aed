"""`tools/abtime.py` times two probeplan trees in one process: two copies of
one tree agree, a copy with an edited cost constant or a moved trace
diagnostic is reported, every ``plan_step`` call is timed once, each tree's
time is taken over its own steps, a traced shape builds its trace rows
inside the timed region, and bad options or a missing tree exit 2 before
any run."""

import dataclasses
import importlib
import importlib.util
import shutil
import sys
import time
from pathlib import Path
from types import SimpleNamespace

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
    header, *rows = out.splitlines()[1:]
    assert [line.split()[0] for line in rows] == ["conservative", "passive", "all"]
    assert header.split()[-12:] == "A p50 ms A p95 ms B p50 ms B p95 ms".split()
    for line in rows:
        p50_a, p95_a, p50_b, p95_b = map(float, line.split()[-4:])
        assert 0.0 < p50_a <= p95_a and 0.0 < p50_b <= p95_b


@pytest.mark.parametrize("planner", ["passive", "conservative"])
def test_clock_times_each_plan_step_once(trees, planner):
    # The passive planner inherits plan_step: it is still timed once per call.
    scenario = abtime.load_tree(str(trees[0]), "_abtime_clock")
    tree = (scenario, abtime.clock_plan_steps(scenario))
    job = ("intersection", planner, 0, 1)
    _, steps, seconds, _, _, trace = abtime.run_one(
        tree, job, abtime.SHAPES["crossing_hedge"], 101, 0.3)
    assert steps == len(seconds) == 3 == len(trace) - 1
    assert all(s > 0.0 for s in seconds)


def test_each_tree_timed_over_its_own_steps(trees, capsys, monkeypatch):
    # Tree B's runs take twice the steps in 1.5 times the wall time: it is
    # faster per step. Dividing its wall time by tree A's steps read 1.5.
    def fake_run(tree, job, shape, seed, t_max):
        steps, wall = (10, 1.0) if tree[0].__name__.startswith("_abtime_a.") else (20, 1.5)
        return wall, steps, [wall / steps] * steps, ("row",), b"controls", ["trace"]

    monkeypatch.setattr(abtime, "run_one", fake_run)
    assert abtime.main([str(trees[0]), str(trees[1]), *ARGS]) == 0
    header, *rows = capsys.readouterr().out.splitlines()[1:]
    assert header.split()[1:5] == ["A", "steps", "B", "steps"]
    for line in rows:
        runs = 2 if line.startswith("passive") else 1 if line.startswith("conservative") else 3
        steps_a, steps_b, ms_a, ms_b, ratio, faster, pair = line.split()[1:8]
        assert (int(steps_a), int(steps_b)) == (10 * runs, 20 * runs)
        assert (float(ms_a), float(ms_b), float(ratio)) == (100.0, 75.0, 0.75)
        assert faster == f"{runs}/{runs}" and float(pair) == 0.75


def test_edited_cost_constant_differs(trees, capsys):
    risk = trees[1] / "risk.py"
    text = risk.read_text()
    assert "\nW_PROX = 10.0\n" in text
    risk.write_text(text.replace("\nW_PROX = 10.0\n", "\nW_PROX = 30.0\n"))
    assert abtime.main([str(trees[0]), str(trees[1]), *ARGS]) == 1
    assert "DIFFERS: intersection/" in capsys.readouterr().out


def test_moved_trace_diagnostic_differs(trees, capsys):
    # Every mode's trace column reads mode 0's reference CVaR: the results
    # and controls agree, the trace rows do not.
    planner = trees[1] / "planner.py"
    text = planner.read_text()
    assert "cvar_pre=partial(self.cvar_pre, m)" in text
    planner.write_text(text.replace("cvar_pre=partial(self.cvar_pre, m)",
                                    "cvar_pre=partial(self.cvar_pre, 0)"))
    assert abtime.main([str(trees[0]), str(trees[1]), *ARGS]) == 1
    lines = [line for line in capsys.readouterr().out.splitlines() if "DIFFERS" in line]
    assert lines and all(line.endswith(": trace rows differ") for line in lines)


@pytest.mark.parametrize("traced", [False, True])
def test_traced_shape_builds_trace_rows_in_the_timed_region(trees, traced, monkeypatch):
    scenario = abtime.load_tree(str(trees[0]), "_abtime_traced")
    cli = importlib.import_module("_abtime_traced.cli")
    real_trace, events = cli.trace_rows, []

    def ticking():
        events.append("clock")
        return time.perf_counter()

    def traced_rows(log):
        events.append("trace")
        return real_trace(log)

    monkeypatch.setattr(cli, "trace_rows", traced_rows)
    monkeypatch.setattr(abtime, "time", SimpleNamespace(perf_counter=ticking))
    shape = dataclasses.replace(abtime.SHAPES["crossing_hedge"], traced=traced)
    abtime.run_one((scenario, []), ("intersection", "passive", 0, 1), shape, 101, 0.2)
    assert events == (["clock", "trace", "clock"] if traced else ["clock", "clock", "trace"])
    assert abtime.SHAPES["batch_mixed"].traced and not abtime.SHAPES["crossing_hedge"].traced


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
