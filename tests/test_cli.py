"""End-to-end CLI tests on miniature batches: output structure, byte-level
determinism across invocations and worker counts, and trace invariants."""

import json
import math

import numpy as np
import pytest

from probeplan import cli, config
from probeplan.baselines import PassivePlanner
from probeplan.belief import entropy, uniform_belief
from probeplan.cli import main, run_experiment, trace_rows
from probeplan.errors import ConfigError
from probeplan.planner import PlannerConfig
from probeplan.scenario import RunConfig, default_targets, run

TINY = """
experiment:
  runs: 3
  master_seed: 11
  scenario: lane_merge
  planner: [ours, passive]
  comparison_mode: true
  workers: 1

planner:
  rollout_count: 30
  solver_iters: 2
  probe_grid_size: 5

scenario:
  t_max: 2.0
"""


TARGETS = """
intents:
  - name: aggressive
    modes:
      - observation: {mean: [9.5], cov: [[1.0]]}
        steering: {mean: [8.0, -14.0], cov: [[2.25, 0.0], [0.0, 16.0]]}
  - name: cooperative
    modes:
      - observation: {mean: [5.0], cov: [[1.44]]}
        steering: {mean: [10.0, 12.0], cov: [[2.25, 0.0], [0.0, 16.0]]}
"""


def write_cfg(tmp_path, text=TINY, name="exp.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestRunExperiment:
    def test_outputs_and_row_count(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        assert run_experiment(cfg, out_dir=out) == 0
        lines = (out / "results.csv").read_text().splitlines()
        assert len(lines) == 1 + 3 * 2  # header + runs x combos
        assert lines[0].startswith("run_index,scenario,planner")
        assert (out / "summary.csv").exists()
        assert (out / "summary.txt").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["results_rows"] == 6
        assert manifest["master_seed"] == 11
        assert len(manifest["config_hash"]) == 64

    def test_byte_identical_across_invocations_and_workers(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out1, out2, out3 = (tmp_path / d for d in ("a", "b", "c"))
        run_experiment(cfg, out_dir=out1)
        run_experiment(cfg, out_dir=out2)
        run_experiment(cfg, ["experiment.workers=2"], out_dir=out3)
        ref = (out1 / "results.csv").read_bytes()
        assert (out2 / "results.csv").read_bytes() == ref
        assert (out3 / "results.csv").read_bytes() == ref
        assert (out2 / "summary.csv").read_bytes() == (out1 / "summary.csv").read_bytes()

    def test_pool_never_larger_than_the_batch(self, tmp_path, monkeypatch):
        # A stand-in Pool records its size and maps in process: no process
        # starts. One job runs in process; six jobs get at most six workers.
        sizes = []

        class RecordingPool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                return [fn(job) for job in jobs]

        monkeypatch.setattr(cli, "Pool", RecordingPool)
        cfg = write_cfg(tmp_path)
        one = ["experiment.runs=1", "experiment.planner=ours", "scenario.t_max=0.5"]
        run_experiment(cfg, one, out_dir=tmp_path / "a")
        run_experiment(cfg, one + ["experiment.workers=2"], out_dir=tmp_path / "b")
        assert sizes == []
        run_experiment(cfg, ["experiment.workers=8", "scenario.t_max=0.5"], out_dir=tmp_path / "c")
        run_experiment(cfg, ["experiment.workers=2", "scenario.t_max=0.5"], out_dir=tmp_path / "d")
        assert sizes == [6, 2]
        for a, b in (("a", "b"), ("c", "d")):
            assert ((tmp_path / a / "results.csv").read_bytes()
                    == (tmp_path / b / "results.csv").read_bytes())

    def test_mode_target_file_read_once_per_combination(self, tmp_path, monkeypatch):
        tpath = write_cfg(tmp_path, TARGETS, name="targets.yaml")
        cfg = write_cfg(tmp_path)
        overrides = [f"scenario.mode_targets_file={tpath}", "experiment.planner=ours",
                     "scenario.t_max=0.5"]
        reads = []
        load = config.load_mode_targets

        def counted(path):
            reads.append(path)
            return load(path)

        monkeypatch.setattr(config, "load_mode_targets", counted)
        run_experiment(cfg, overrides, out_dir=tmp_path / "a")
        # The validation builds the batch's one combination once; the batch
        # built it a second time, and before that every one of the 3 runs
        # read the file again.
        assert len(reads) == 1
        run_experiment(cfg, overrides + ["experiment.workers=2"], out_dir=tmp_path / "b")
        ref = (tmp_path / "a" / "results.csv").read_bytes()
        assert len(ref.splitlines()) == 1 + 3
        assert (tmp_path / "b" / "results.csv").read_bytes() == ref

    def test_numerical_error_in_one_run_leaves_the_batch(self, tmp_path, monkeypatch):
        """A ``LinAlgError`` from one run's ``plan_step`` ends that run with
        termination ``error``; the other runs of the pool finish as usual."""
        real_run = cli.run

        def one_broken_run(run_cfg, run_index=0):
            if (run_cfg.planner, run_index) != ("passive", 1):
                return real_run(run_cfg, run_index=run_index)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(PassivePlanner, "plan_step", singular)
                return real_run(run_cfg, run_index=run_index)

        def singular(self, state, b):
            raise np.linalg.LinAlgError("Singular matrix")

        cfg = write_cfg(tmp_path)
        run_experiment(cfg, out_dir=tmp_path / "ok")
        # Workers are forked, so they see the patched module.
        monkeypatch.setattr(cli, "run", one_broken_run)
        assert run_experiment(cfg, ["experiment.workers=2"], out_dir=tmp_path / "broken") == 0
        header, *rows = (tmp_path / "broken" / "results.csv").read_text().splitlines()
        want = (tmp_path / "ok" / "results.csv").read_text().splitlines()[1:]
        term = header.split(",").index("termination")
        assert len(rows) == len(want) == 6
        for row, ok in zip(rows, want):
            cells = row.split(",")
            if cells[1:3] == ["lane_merge", "passive"] and cells[0] == "1":
                assert cells[term] == "error" and ok.split(",")[term] != "error"
            else:
                assert row == ok

    def test_trace_files_for_flagged_seeds(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "traced"
        run_experiment(cfg, ["experiment.trace_seeds=[1]"], out_dir=out)
        trace = out / "trace_lane_merge_ours_run00001.csv"
        assert trace.exists()
        header, *rows = trace.read_text().splitlines()
        cols = header.split(",")
        assert cols[:2] == ["step", "t"]
        pi_idx = [i for i, c in enumerate(cols) if c.startswith("pi_")]
        h_idx = cols.index("entropy")
        h_max = entropy(uniform_belief(default_targets("lane_merge")))
        for row in rows:
            cells = row.split(",")
            pi_sum = sum(float(cells[i]) for i in pi_idx)
            assert pi_sum == pytest.approx(1.0, abs=1e-9)
            assert -1e-12 <= float(cells[h_idx]) <= h_max + 1e-9

    def test_missing_field_exit_code(self, tmp_path):
        bad = write_cfg(tmp_path, "experiment:\n  runs: 2\n", name="bad.yaml")
        code = main(["run", str(bad), "--out", str(tmp_path / "x")])
        assert code == 2

    def test_cli_flags_override(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "flags"
        code = main([
            "run", str(cfg), "--runs", "1", "--planner", "ours",
            "--workers", "1", "--out", str(out),
        ])
        assert code == 0
        lines = (out / "results.csv").read_text().splitlines()
        assert len(lines) == 2  # header + 1 run x 1 combo

    def test_exponent_overrides_accepted(self, tmp_path):
        # Both overrides were read as strings and the run exited 2.
        out = tmp_path / "exp"
        code = main([
            "run", str(write_cfg(tmp_path)), "--runs", "1", "--planner", "passive",
            "--set", "planner.mode_activation_eps=1e-5", "--set", "planner.risk_cap=1e3",
            "--out", str(out),
        ])
        assert code == 0
        assert len((out / "results.csv").read_text().splitlines()) == 2

    def test_config_error_names_field(self, tmp_path, capsys):
        bad = write_cfg(tmp_path, "experiment:\n  runs: 2\n  master_seed: 1\n  planner: ours\n", name="b2.yaml")
        code = main(["run", str(bad), "--out", str(tmp_path / "y")])
        captured = capsys.readouterr()
        assert code == 2
        assert "experiment.scenario" in captured.err


class TestTrace:
    def test_row_count_matches_steps(self):
        pc = PlannerConfig(rollout_count=20, solver_iters=2, probe_grid_size=5)
        cfg = RunConfig(scenario="intersection", master_seed=2, planner="ours",
                        planner_cfg=pc, comparison_mode=True)
        _, log = run(cfg, run_index=0)
        rows = trace_rows(log)
        assert len(rows) == len(log.records) + 1  # header

    def test_cvar_columns_per_mode(self, tmp_path):
        pc = PlannerConfig(rollout_count=20, solver_iters=2, probe_grid_size=5)
        cfg = RunConfig(scenario="lane_merge", master_seed=4, planner="ours",
                        planner_cfg=pc, comparison_mode=True)
        _, log = run(cfg, run_index=0)
        header = trace_rows(log)[0].split(",")
        cvar_cols = [c for c in header if c.startswith("cvar_")]
        assert len(cvar_cols) == len(log.targets.targets)
