"""`tools/study.py` runs each arm through `run_experiment` and reads its
statistics back from the arm's CSV files. Its per-run values must equal
direct `run()` calls on the `RunConfig`s the arms stand for, built the way
the script built them when it ran its own batches."""

import importlib.util
from pathlib import Path

from numpy.testing import assert_equal

from probeplan.metrics import aggregate
from probeplan.planner import PlannerConfig
from probeplan.scenario import DEFAULT_REF_SPEED, RunConfig, run

STUDY = Path(__file__).resolve().parents[1] / "tools" / "study.py"
N = 2
PC_KW = {"rollout_count": 20, "obs_samples": 4, "solver_iters": 1, "solver_inits": 2,
         "probe_grid_size": 3}
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


def test_ordering_study_matches_direct_runs(tmp_path):
    _, combos = load_study().ordering_study(n=N, overrides=OVERRIDES, out=tmp_path)
    assert len(combos) == 4
    for (scenario, planner), (success, t_mean, gap, counts) in combos.items():
        pc = PlannerConfig(ref_speed=DEFAULT_REF_SPEED[scenario], **PC_KW)
        cfg = RunConfig(scenario=scenario, master_seed=2, planner=planner, planner_cfg=pc,
                        comparison_mode=True)
        agg = aggregate([run(cfg, run_index=i)[0] for i in range(N)])
        assert_equal((success, t_mean, gap),
                     (agg.success_rate, agg.stats["completion_time"][0], agg.stats["min_gap"][0]))
        assert list(counts.items()) == list(agg.termination_counts.items())
        assert (tmp_path / f"order_{scenario}_{planner}" / "manifest.json").is_file()
