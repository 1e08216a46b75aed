"""Config loading, override, and hashing tests."""

import re

import numpy as np
import pytest

from probeplan.config import (
    apply_override,
    build_planner_config,
    build_run_config,
    config_hash,
    load_config,
    load_mode_targets,
    planner_list,
    scenario_list,
)
from probeplan.errors import ConfigError

MINIMAL = """
experiment:
  runs: 4
  master_seed: 3
  scenario: lane_merge
  planner: ours
"""


def write(tmp_path, text, name="cfg.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestLoad:
    def test_minimal_config(self, tmp_path):
        cfg = load_config(write(tmp_path, MINIMAL))
        assert cfg["experiment"]["runs"] == 4
        assert scenario_list(cfg) == ["lane_merge"]
        assert planner_list(cfg) == ["ours"]
        assert cfg["experiment"]["comparison_mode"] is True

    def test_missing_required_field_named(self, tmp_path):
        p = write(tmp_path, "experiment:\n  runs: 3\n  master_seed: 1\n  scenario: lane_merge\n")
        with pytest.raises(ConfigError, match="experiment.planner"):
            load_config(p)

    def test_unknown_field_named(self, tmp_path):
        p = write(tmp_path, MINIMAL + "planner:\n  entropy_wait: 0.5\n")
        with pytest.raises(ConfigError, match="entropy_wait"):
            load_config(p)

    def test_unknown_section(self, tmp_path):
        p = write(tmp_path, MINIMAL + "plannner:\n  dt: 0.1\n")
        with pytest.raises(ConfigError, match="plannner"):
            load_config(p)

    def test_bad_scenario_name(self, tmp_path):
        p = write(tmp_path, MINIMAL.replace("lane_merge", "roundabout"))
        with pytest.raises(ConfigError, match="roundabout"):
            load_config(p)

    @pytest.mark.parametrize(
        "override, named",
        [
            # Surfaced as InvalidInputError from inside the run.
            ("human.observation_noise_std=-1", "human.observation_noise_std"),
            ("human.risk_threshold=-5", "human.risk_threshold"),
            # Gave zero-step runs, or a TypeError.
            ("scenario.t_max=-1", "scenario.t_max"),
            ("scenario.t_max=abc", "scenario.t_max"),
            # ValueError from int().
            ("experiment.workers=two", "experiment.workers"),
            ("experiment.trace_seeds=[x]", "experiment.trace_seeds"),
            # Accepted as true.
            ("experiment.comparison_mode=maybe", "experiment.comparison_mode"),
            # ValueError from the seed sequence.
            ("experiment.master_seed=-1", "experiment.master_seed"),
            # TypeError mid-run, now caught when the planner section loads.
            ("planner.horizon_steps=2.5", "horizon_steps"),
            ("planner.probe_grid_size=2.5", "probe_grid_size"),
            # A switch that no longer exists.
            ("planner.literal_probe_sign=true", "planner.literal_probe_sign"),
            # Bare TypeError or ValueError from the planner section.
            ("planner.features=5", "planner.features"),
            ("planner.accel_bounds=[1]", "accel_bounds"),
            ("planner.yaw_rate_bounds=0.6", "planner.yaw_rate_bounds"),
            # Bare TypeError from the name lists.
            ("experiment.scenario=5", "experiment.scenario"),
            ("experiment.planner=5", "experiment.planner"),
            ("experiment.planner=[]", "experiment.planner"),
            # Accepted silently, or raised from inside a run.
            ("planner.risk_cap=.nan", "risk_cap"),
            ("planner.penalty_weight=-1", "penalty_weight"),
            ("planner.solver_step=0", "solver_step"),
            ("planner.dt=.inf", "dt"),
            ("planner.accel_noise_var=-1", "accel_noise_var"),
            ("planner.response_gain=0", "response_gain"),
            # Bare TypeError from the targets file path.
            ("scenario.mode_targets_file=5", "scenario.mode_targets_file"),
            ("scenario.mode_targets_file=[a.yaml]", "scenario.mode_targets_file"),
            # InvalidInputError from the first belief update of every run.
            ("planner.features=[velocity, gap]", "planner.features"),
            # Caught only when each worker built its run config.
            ("human.pinned_intent=4", "human.pinned_intent"),
            ("human.pinned_intent=1.5", "human.pinned_intent"),
            ("human.pinned_intent=true", "human.pinned_intent"),
        ],
    )
    def test_bad_value_rejected_naming_field(self, tmp_path, override, named):
        with pytest.raises(ConfigError, match=re.escape(named)):
            load_config(write(tmp_path, MINIMAL), [override])

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.yaml")

    @pytest.mark.parametrize("kind", ["directory", "not_utf8"])
    def test_unreadable_file_named(self, tmp_path, kind):
        # A directory raised a bare IsADirectoryError.
        path = unreadable(tmp_path, kind)
        with pytest.raises(ConfigError, match=f"cannot read config file {re.escape(str(path))}"):
            load_config(path)


class TestOverrides:
    def test_dotted_override(self, tmp_path):
        cfg = load_config(write(tmp_path, MINIMAL), ["planner.entropy_weight=0.25"])
        assert cfg["planner"]["entropy_weight"] == 0.25

    def test_override_validation(self, tmp_path):
        with pytest.raises(ConfigError, match="nosuch"):
            load_config(write(tmp_path, MINIMAL), ["planner.nosuch=1"])
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, MINIMAL), ["planner.entropy_weight"])

    def test_build_planner_config_scenario_default_ref_speed(self, tmp_path):
        cfg = load_config(write(tmp_path, MINIMAL))
        pc_merge = build_planner_config(cfg, "lane_merge")
        pc_cross = build_planner_config(cfg, "intersection")
        assert pc_merge.ref_speed == 9.5
        assert pc_cross.ref_speed == 5.5

    def test_invalid_planner_value_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="invalid planner config"):
            cfg = load_config(write(tmp_path, MINIMAL), ["planner.cvar_level=1.5"])
            build_planner_config(cfg, "lane_merge")


class TestHash:
    def test_semantic_change_changes_hash(self, tmp_path):
        base = load_config(write(tmp_path, MINIMAL))
        changed = load_config(write(tmp_path, MINIMAL, "b.yaml"), ["planner.discount=0.9"])
        assert config_hash(base) != config_hash(changed)

    def test_nonsemantic_fields_ignored(self, tmp_path):
        base = load_config(write(tmp_path, MINIMAL))
        moved = load_config(
            write(tmp_path, MINIMAL, "c.yaml"),
            ["experiment.out_dir=/tmp/elsewhere", "experiment.workers=8",
             "experiment.trace_seeds=[1,2]"],
        )
        assert config_hash(base) == config_hash(moved)


TARGETS = """
intents:
  - name: aggressive
    modes:
      - label: holds speed
        observation: {mean: [9.5], cov: [[1.0]]}
        steering: {mean: [8.0, -14.0], cov: [[2.25, 0.0], [0.0, 16.0]]}
  - name: cooperative
    modes:
      - label: yields
        observation: {mean: [5.0], cov: [[1.44]]}
        steering: {mean: [10.0, 12.0], cov: [[2.25, 0.0], [0.0, 16.0]]}
      - label: brakes hard
        observation: {mean: [2.5], cov: [[2.25]]}
"""


def unreadable(tmp_path, kind):
    """A path whose text cannot be read: a directory, or bytes that are
    not UTF-8."""
    path = tmp_path / f"{kind}.yaml"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"experiment:\n  runs: \xff\xfe\n")
    return path


class TestModeTargets:
    def test_round_trip(self, tmp_path):
        ts = load_mode_targets(write(tmp_path, TARGETS, "targets.yaml"))
        assert ts.num_intents == 2
        assert ts.modes_per_intent == (1, 2)
        assert ts.intent_names == ("aggressive", "cooperative")
        # Target order: (1, 1), (2, 1), (2, 2).
        assert ts.targets[0].steer is not None
        assert ts.targets[2].steer is None
        assert np.array_equal(ts.targets[1].target.mean, [5.0])

    @pytest.mark.parametrize(
        "body, named",
        [
            # Bare TypeError or AttributeError from load_config.
            ("intents: 5", "intents list"),
            ("intents: [5]", "intents list"),
            ("intents:\n  - name: a\n    modes: 5", "intent 'a' must have a non-empty modes"),
            ("intents:\n  - name: a\n    modes: [5]", "intent 'a' must have a non-empty modes"),
        ],
    )
    def test_malformed_file_rejected_naming_part(self, tmp_path, body, named):
        tpath = write(tmp_path, body, "bad.yaml")
        with pytest.raises(ConfigError, match=re.escape(named)):
            load_config(write(tmp_path, MINIMAL), [f"scenario.mode_targets_file={tpath}"])

    def test_pinned_intent_checked_against_file_targets(self, tmp_path):
        # The file has two intents, the default lane-merge set three.
        tpath = write(tmp_path, TARGETS, "targets.yaml")
        override = f"scenario.mode_targets_file={tpath}"
        load_config(write(tmp_path, MINIMAL), [override, "human.pinned_intent=2"])
        with pytest.raises(ConfigError, match="human.pinned_intent"):
            load_config(write(tmp_path, MINIMAL), [override, "human.pinned_intent=3"])

    @pytest.mark.parametrize("kind", ["directory", "not_utf8"])
    def test_unreadable_file_named(self, tmp_path, kind):
        # A directory raised a bare IsADirectoryError, also from load_config.
        path = unreadable(tmp_path, kind)
        named = f"cannot read mode target file {re.escape(str(path))}"
        with pytest.raises(ConfigError, match=named):
            load_mode_targets(path)
        with pytest.raises(ConfigError, match=named):
            load_config(write(tmp_path, MINIMAL), [f"scenario.mode_targets_file={path}"])

    @pytest.mark.parametrize(
        "steering, named",
        [
            # PSD but singular: load_config accepted it, and the first
            # solve raised a bare LinAlgError that ended the whole batch.
            ("{mean: [8.0, -14.0], cov: [[2.25, 0], [0, 0]]}", "positive definite"),
            ("{mean: [8.0], cov: [[2.25]]}", "2-dimensional"),
        ],
    )
    def test_unusable_steering_rejected_naming_mode(self, tmp_path, steering, named):
        body = TARGETS.replace(
            "steering: {mean: [10.0, 12.0], cov: [[2.25, 0.0], [0.0, 16.0]]}",
            f"steering: {steering}",
        )
        tpath = write(tmp_path, body, "bad.yaml")
        pattern = f"cooperative/mode 1 steering.*{named}"
        with pytest.raises(ConfigError, match=pattern):
            load_mode_targets(tpath)
        with pytest.raises(ConfigError, match=pattern):
            load_config(write(tmp_path, MINIMAL), [f"scenario.mode_targets_file={tpath}"])

    def test_missing_observation_rejected(self, tmp_path):
        bad = "intents:\n  - name: a\n    modes:\n      - label: x\n"
        with pytest.raises(ConfigError, match="observation"):
            load_mode_targets(write(tmp_path, bad, "bad.yaml"))

    def test_used_by_run_config(self, tmp_path):
        tpath = write(tmp_path, TARGETS, "targets.yaml")
        cfg = load_config(
            write(tmp_path, MINIMAL),
            [f"scenario.mode_targets_file={tpath}"],
        )
        rc = build_run_config(cfg, "lane_merge", "ours")
        assert rc.targets is not None
        assert rc.targets.num_intents == 2

    def test_two_features_load_with_two_dimensional_targets(self, tmp_path):
        tpath = write(tmp_path, TARGETS_2D, "targets2d.yaml")
        cfg = load_config(
            write(tmp_path, MINIMAL),
            [f"scenario.mode_targets_file={tpath}", "planner.features=[velocity, gap]"],
        )
        rc = build_run_config(cfg, "lane_merge", "ours")
        assert rc.targets.obs_dim == 2
        assert rc.planner_cfg.features == ("velocity", "gap")


TARGETS_2D = """
intents:
  - name: aggressive
    modes:
      - observation: {mean: [9.5, 20.0], cov: [[1.0, 0.0], [0.0, 9.0]]}
  - name: cooperative
    modes:
      - observation: {mean: [5.0, 30.0], cov: [[1.44, 0.0], [0.0, 9.0]]}
"""
