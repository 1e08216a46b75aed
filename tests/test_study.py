"""`tools/study.py` runs each arm through `run_experiment` and reads its
statistics back from the arm's CSV files. Its per-run values must equal
direct `run()` calls on the `RunConfig`s the arms stand for, built the way
the script built them when it ran its own batches."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from probeplan.planner import PlannerConfig
from probeplan.scenario import RunConfig, run

STUDY = Path(__file__).resolve().parents[1] / "tools" / "study.py"
N = 2
PC_KW = {"rollout_count": 20, "solver_iters": 1, "solver_inits": 2, "probe_grid_size": 3}
OVERRIDES = [f"planner.{k}={v}" for k, v in PC_KW.items()] + ["experiment.workers=1"]


def load_study():
    spec = importlib.util.spec_from_file_location("study", STUDY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_probing_study_matches_direct_runs(tmp_path):
    step = 20
    _, pairs = load_study().probing_study(n=N, step=step, overrides=OVERRIDES, out=tmp_path)
    expected = {}
    for lam in (0.5, 0.0):
        pc = PlannerConfig(entropy_weight=lam, **PC_KW)
        cfg = RunConfig(scenario="lane_merge", master_seed=1, planner="ours", planner_cfg=pc,
                        pinned_intent=3, t_max=(step + 1) * pc.dt + 1e-9)
        logs = [run(cfg, run_index=i)[1] for i in range(N)]
        expected[lam] = [log.records[min(step, len(log.records) - 1)].entropy for log in logs]
    assert pairs == list(zip(expected[0.5], expected[0.0]))
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "probe_lane_merge_pinned3_lambda0.0", "probe_lane_merge_pinned3_lambda0.5"]


RESULTS_HEADER = "run_index,scenario,planner,gt_intent,success,termination,completion_time,min_gap"


def write_results(path, rows):
    """A results.csv of ``rows`` (run, scenario, planner, success, time, gap),
    each with intent 1 and the termination its success implies, or of
    rows that give both after the planner (the header's order)."""
    def full(r):
        if len(r) == 6:
            r = (*r[:3], 1, r[3], "success" if r[3] == 1 else "timeout", *r[4:])
        return ",".join(map(str, r))
    path.write_text("\n".join([RESULTS_HEADER] + [full(r) for r in rows]) + "\n")
    return path


def test_paired_differences_of_two_results_files(tmp_path):
    study = load_study()
    # Runs 0-3 in both files (run 4 only in b, and other combinations around
    # them); both completed runs 0 and 3.
    a = write_results(tmp_path / "a.csv", [
        (0, "lane_merge", "ours", 1, 5.0, 2.0), (1, "lane_merge", "ours", 1, 6.0, 3.0),
        (2, "lane_merge", "ours", 0, "nan", 4.0), (3, "lane_merge", "ours", 1, 7.0, 5.0),
        (0, "intersection", "ours", 0, "nan", 9.0),
    ])
    b = write_results(tmp_path / "b.csv", [
        (0, "lane_merge", "ours", 1, 4.0, 1.0), (1, "lane_merge", "ours", 0, "nan", 1.0),
        (2, "lane_merge", "ours", 1, 8.0, 1.0), (3, "lane_merge", "ours", 1, 6.0, 1.0),
        (4, "lane_merge", "ours", 1, 6.0, 1.0), (0, "lane_merge", "passive", 0, "nan", 0.0),
    ])
    runs_a, runs_b = (study.read_runs(p, "lane_merge", "ours") for p in (a, b))
    assert sorted(runs_a) == [0, 1, 2, 3] and sorted(runs_b) == [0, 1, 2, 3, 4]
    diffs = study.paired_differences(runs_a, runs_b)
    # Completion time over runs 0 and 3 only: +1 s each, so every resample.
    assert diffs["completion_time"] == (1.0, 1.0, 1.0, 2)
    mean, low, high, n = diffs["success"]
    assert (mean, n) == (0.0, 4) and -1.0 <= low < 0.0 < high <= 1.0
    mean, low, high, n = diffs["min_gap"]
    assert (mean, n) == (2.5, 4) and 1.0 <= low < 2.5 < high <= 4.0
    # Resamples are drawn from a fixed seed.
    assert study.paired_differences(runs_a, runs_b) == diffs
    assert study.bootstrap_ci([])[3] == 0


def test_slice_is_the_default_batch_runs_0_to_99(tmp_path, monkeypatch):
    study = load_study()
    calls = []

    def record(config, overrides, out):
        calls.append((config, overrides, out))
        out.mkdir(parents=True)
        for name in ("results.csv", "summary.csv"):
            (out / name).write_text(RESULTS_HEADER + "\n")

    monkeypatch.setattr(study, "run_experiment", record)
    assert study.slice_study(out=tmp_path) == tmp_path / "slice" / "results.csv"
    assert calls == [(study.DEFAULT, ["experiment.master_seed=20240801", "experiment.runs=100",
                                      "experiment.trace_seeds=[]"], tmp_path / "slice")]


@pytest.mark.parametrize("argv", [["bogus"], ["compare"], ["compare", "a.csv"],
                                  ["compare", "a.csv", "b.csv", "c.csv"], ["probe", "x"],
                                  ["probe", "1", "2"], ["slice", "a", "b"]])
def test_bad_arguments_print_the_usage_and_return_2(argv, capsys):
    assert load_study().main(argv) == 2
    out = capsys.readouterr()
    assert not out.out and "python tools/study.py compare PARENT_RESULTS.csv" in out.err


def test_script_exits_2_on_an_unknown_study():
    done = subprocess.run([sys.executable, str(STUDY), "bogus"], capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (2, "") and done.stderr.startswith("usage:")


def test_compare_runs_on_two_paths(tmp_path, capsys):
    rows = [(0, scenario, planner, 1, 5.0, 2.0) for scenario in ("lane_merge", "intersection")
            for planner in ("ours", "passive", "conservative")]
    a, b = write_results(tmp_path / "a.csv", rows), write_results(tmp_path / "b.csv", rows)
    assert load_study().main(["compare", str(a), str(b)]) == 0
    assert capsys.readouterr().out.count("change - parent") == 6


def test_compare_prints_each_trees_terminations(tmp_path, capsys):
    # Per tree and combination: every reason's count, and the runs that did
    # not succeed by reason and ground-truth intent, named as the built-in
    # target sets name them.
    parent = [(0, "lane_merge", "ours", 1, 1, "success", 5.0, 2.0),
              (1, "lane_merge", "ours", 1, 0, "timeout", "nan", 3.0),
              (2, "lane_merge", "ours", 3, 0, "violation", "nan", 0.0),
              (3, "lane_merge", "ours", 1, 0, "timeout", "nan", 3.0),
              (4, "lane_merge", "ours", 2, 1, "success", 6.0, 2.0)]
    change = [(0, "lane_merge", "ours", 1, 1, "success", 5.0, 2.0),
              (1, "lane_merge", "ours", 1, 1, "success", 6.0, 3.0),
              (2, "lane_merge", "ours", 3, 0, "error", "nan", 4.0),
              (3, "lane_merge", "ours", 1, 0, "timeout", "nan", 3.0),
              (4, "lane_merge", "ours", 2, 1, "success", 6.0, 2.0)]
    study = load_study()
    a, b = write_results(tmp_path / "a.csv", parent), write_results(tmp_path / "b.csv", change)
    runs = study.read_runs(a, "lane_merge", "ours")
    assert study.terminations(runs) == (
        {"success": 2, "timeout": 2, "violation": 1, "error": 0},
        {("timeout", 1): [1, 3], ("violation", 3): [2]})
    assert study.main(["compare", str(a), str(b)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[2] == ("   parent ends: success 2, timeout 2, violation 1, error 0; not succeeded: "
                      "timeout aggressive x2 (runs 1 3); violation cooperative x1 (runs 2)")
    assert out[3] == ("   change ends: success 3, timeout 1, violation 0, error 1; not succeeded: "
                      "error cooperative x1 (runs 2); timeout aggressive x1 (runs 3)")
    # A combination with no runs counts none.
    assert "   parent ends: success 0, timeout 0, violation 0, error 0" in out
