"""Tests of the benchmark's own arithmetic: span self time, the percentile
and tail-sample rule, result-row canonical form, and the metric lists.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import sys
import time
import types
from pathlib import Path

import pytest

import run
from spans import PLAN_STEP, WRAPS, WRITE, Recorder, covered, patched, self_times
from stats import count_beyond, min_samples_for, percentile, tail_ok
from workloads import Pass, canonical_row, row_problems

ROOT = Path(__file__).resolve().parent.parent


# -- self time ---------------------------------------------------------------


def test_covered_merges_adjacent_and_overlapping_intervals():
    assert covered(0, 10, [(0, 5), (5, 10)]) == 10
    assert covered(0, 10, [(2, 6), (4, 8)]) == 6
    assert covered(0, 10, [(6, 8), (1, 3)]) == 4
    assert covered(0, 10, []) == 0


def test_covered_clips_to_parent_interval():
    assert covered(2, 8, [(0, 4), (6, 12)]) == 4
    assert covered(2, 8, [(9, 12)]) == 0


def test_self_time_nested_spans_subtract_direct_children_only():
    # root [0, 100] > a [10, 60] > b [20, 40]; root > c [70, 80]
    parents = [-1, 0, 1, 0]
    starts = [0, 10, 20, 70]
    ends = [100, 60, 40, 80]
    assert self_times(parents, starts, ends) == [100 - 50 - 10, 50 - 20, 20, 10]


def test_self_time_adjacent_children_cover_parent_exactly():
    parents = [-1, 0, 0]
    assert self_times(parents, [0, 0, 30], [60, 30, 60]) == [0, 30, 30]


def test_recorder_nests_spans_and_reports_self_time():
    rec = Recorder()

    def leaf():
        return 1

    wrapped_leaf = rec.wrap("leaf", leaf)

    def outer():
        return wrapped_leaf() + wrapped_leaf()

    assert rec.wrap("outer", outer)() == 2
    assert rec.totals()["leaf"][0] == 2
    assert list(rec.parent) == [-1, 0, 0]
    own = rec.self_totals()
    outer_ns = rec.durations("outer")[0]
    assert own["outer"] == outer_ns - sum(rec.durations("leaf"))
    assert own["outer"] >= 0


def test_recorder_closes_span_when_wrapped_call_raises():
    rec = Recorder()

    def boom():
        raise ValueError

    with pytest.raises(ValueError):
        rec.wrap("boom", boom)()
    assert rec.t1[0] >= rec.t0[0] > 0
    assert rec._stack == []


def test_missing_wrapped_name_is_reported_absent(monkeypatch):
    rec = Recorder()
    fake = types.ModuleType("fake_layer")
    fake.present = lambda: 1
    monkeypatch.setitem(sys.modules, "fake_layer", fake)
    monkeypatch.setattr("spans.WRAPS", (("fake_layer", "present", "fake.present"),
                                        ("fake_layer", "gone", "fake.gone"),
                                        ("fake_layer_removed", "f", "fake.removed")))
    monkeypatch.setattr("spans._planner_classes", lambda: [])
    with rec.installed():
        assert fake.present() == 1
    assert fake.present() == 1 and "present" in fake.__dict__
    assert rec.absent == ["fake_layer.gone", "fake_layer_removed.f",
                          "probeplan.scenario.PLANNERS[*].plan_step"]
    assert "fake.present" in rec.installed_names
    assert "fake.gone" not in rec.installed_names


def test_patched_restores_own_and_inherited_attributes():
    class Base:
        def f(self):
            return "base"

    class Child(Base):
        pass

    with patched([(Child, "f", lambda self: "patched"), (Base, "g", 1)]):
        assert Child().f() == "patched"
    assert Child().f() == "base"
    assert "f" not in Child.__dict__ and not hasattr(Base, "g")


# -- percentiles and the tail-sample rule -------------------------------------


def test_percentile_interpolates_linearly():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == pytest.approx(50.5)
    assert percentile(samples, 95) == pytest.approx(95.05)
    assert percentile([3.0], 95) == 3.0
    assert percentile([4, 1, 3, 2], 0) == 1 and percentile([4, 1, 3, 2], 100) == 4


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_tail_rule_needs_ten_samples_beyond_the_percentile():
    assert min_samples_for(95) == 200
    assert min_samples_for(50) == 20
    samples = [float(i) for i in range(200)]
    assert count_beyond(samples, percentile(samples, 95)) == 10
    assert tail_ok(samples, 95)
    assert not tail_ok(samples[:180], 95)
    # Ties at the top leave nothing strictly beyond the percentile.
    assert not tail_ok([1.0] * 190 + [2.0] * 20, 95)
    assert not tail_ok([], 95)


# -- result rows ---------------------------------------------------------------


def _row(**changes):
    values = {
        "run_index": 0, "scenario": "lane_merge", "planner": "ours", "gt_intent": 2,
        "success": True, "termination": "success", "completion_time": 5.1,
        "min_gap": 3.25, "mean_velocity": 8.0, "mean_abs_long_jerk": 0.5,
        "mean_abs_ang_jerk": 0.01, "steps": 51, "final_entropy": 0.2,
        "infeasible_steps": 0, "degenerate_steps": 0,
    }
    values.update(changes)
    return values


def test_canonical_row_equal_from_values_and_from_csv_text():
    direct = canonical_row(_row(completion_time=0.1 + 0.2))
    from_csv = canonical_row({k: (str(int(v)) if isinstance(v, bool) else str(v))
                              for k, v in _row(completion_time=repr(0.1 + 0.2)).items()})
    assert direct == from_csv


def test_row_invariants():
    assert row_problems(canonical_row(_row())) == []
    nan = math.nan
    assert row_problems(canonical_row(_row(success=False, termination="timeout",
                                           completion_time=nan))) == []
    assert row_problems(canonical_row(_row(min_gap=-0.1)))
    assert row_problems(canonical_row(_row(mean_velocity=math.inf)))
    assert row_problems(canonical_row(_row(completion_time=nan)))


# -- metric lists ----------------------------------------------------------------


def test_benchmark_json_lists_the_metrics_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_reported_metrics_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rec = Recorder()
    for span in {name for _, _, name in WRAPS} | {PLAN_STEP, WRITE}:
        rec.installed_names.add(span)
        rec.wrap(span, lambda: None)()
    p = Pass(rows=[canonical_row(_row())], run_walls=[2.0], attempted=1)
    layers = run.layer_metrics(rec, p, samples_per_cost_call=3000, overhead_s=0.1)
    assert {name: m[1] for name, m in layers.items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]}
    speed = types.SimpleNamespace(factor=2.0, samples=[0.0124] * 4)
    e2e = run.end_to_end(p, [0.01 * i for i in range(1, 201)], [0.5, 0.4, 0.6], 40.0,
                         speed, speed)
    assert {m["name"]: e2e[m["name"]][1] for m in spec["end_to_end"]} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e["step_ms_p95"][3] == 10
    # At reference speed: a machine twice as slow doubles throughput and
    # halves times relative to the wall-clock readings.
    assert e2e["steps_per_s"][0] == pytest.approx(2 * e2e["steps_per_s.wall"][0])
    assert e2e["step_ms_p50"][0] == pytest.approx(e2e["step_ms_p50.wall"][0] / 2)
    assert e2e["setup_s"][0] == pytest.approx(0.25)


def test_absent_span_leaves_its_metrics_out():
    rec = Recorder()
    rec.installed_names.add(PLAN_STEP)
    p = Pass(rows=[canonical_row(_row())], run_walls=[1.0], attempted=1)
    layers = run.layer_metrics(rec, p, samples_per_cost_call=1, overhead_s=0.0)
    assert "planner.solver_evals_per_step" in layers
    assert "belief.update.probe.calls_per_step" not in layers


def test_in_process_jobs_number_runs_per_planner_and_cycle_intents():
    from workloads import WORKLOADS

    jobs = [WORKLOADS["crossing_hedge"].job(k) for k in range(6)]
    assert jobs == [("passive", 0, 1), ("passive", 1, 2), ("conservative", 0, 1),
                    ("passive", 2, 3), ("passive", 3, 1), ("conservative", 1, 2)]
    assert [WORKLOADS["merge_probe"].job(k)[1:] for k in range(4)] == [
        (0, 1), (1, 2), (2, 3), (3, 1)]


def test_pass_runs_until_time_first_pass_and_min_steps_or_exact_jobs():
    from workloads import MIN_STEPS, _more

    long_ago = time.perf_counter() - 100.0
    assert _more(0, 10**6, long_ago, 1.0, None, 3)  # first pass not done
    assert _more(3, MIN_STEPS - 1, long_ago, 1.0, None, 3)  # too few steps for a p95
    assert not _more(3, MIN_STEPS, long_ago, 1.0, None, 3)
    assert _more(3, MIN_STEPS, time.perf_counter(), 60.0, None, 3)  # time left
    assert _more(4, 0, long_ago, 1.0, 5, 3) and not _more(5, 0, long_ago, 1.0, 5, 3)


def test_git_commit_from_head_loose_ref_packed_ref_or_none(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.git_commit() is None
    git = tmp_path / ".git"
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    (git / "packed-refs").write_text("# pack-refs with: peeled\nabc123 refs/heads/main\n")
    assert run.git_commit() == "abc123"
    (git / "refs" / "heads" / "main").write_text("def456\n")
    assert run.git_commit() == "def456"
    (git / "HEAD").write_text("0123abcd\n")
    assert run.git_commit() == "0123abcd"
