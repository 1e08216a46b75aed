"""Config loading, override, and hashing tests."""

import copy
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from probeplan.config import (
    DEFAULTS,
    RUN_FIELDS,
    _load_yaml,
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
from probeplan.scenario import RunConfig

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
            ("planner.horizon_steps=2.5", "planner.horizon_steps"),
            ("planner.probe_grid_size=2.5", "planner.probe_grid_size"),
            # An empty last segment: a wasted probe, or a NaN warm start.
            ("planner.solver_segments=7", "planner.solver_segments"),
            ("planner.horizon_steps=2", "planner.solver_segments"),
            # Switches that no longer exist; the observation is the speed.
            ("planner.literal_probe_sign=true", "planner.literal_probe_sign"),
            ("planner.features=[velocity]", "unknown field planner.features"),
            # Bare TypeError or ValueError from the planner section.
            ("planner.accel_bounds=[1]", "planner.accel_bounds"),
            ("planner.yaw_rate_bounds=0.6", "planner.yaw_rate_bounds"),
            # Bare TypeError from the name lists.
            ("experiment.scenario=5", "experiment.scenario"),
            ("experiment.planner=5", "experiment.planner"),
            ("experiment.planner=[]", "experiment.planner"),
            # Named by RunConfig, not a KeyError from the ref_speed default.
            ("experiment.scenario=roundabout", "experiment.scenario"),
            ("experiment.planner=[[ours]]", "experiment.planner"),
            # Bare yaml.parser.ParserError from the override.
            ("planner.dt=[", "planner.dt"),
            # Ran every run twice and merged both copies into one summary row.
            ("experiment.scenario=[lane_merge, lane_merge]", "experiment.scenario"),
            ("experiment.planner=[ours, passive, ours]", "experiment.planner"),
            # Accepted silently, or raised from inside a run.
            ("planner.risk_cap=.nan", "planner.risk_cap"),
            ("planner.penalty_weight=-1", "planner.penalty_weight"),
            ("planner.solver_step=0", "planner.solver_step"),
            ("planner.dt=.inf", "planner.dt"),
            ("planner.accel_noise_var=-1", "planner.accel_noise_var"),
            ("planner.response_gain=0", "planner.response_gain"),
            # Bare TypeError from the targets file path.
            ("scenario.mode_targets_file=5", "scenario.mode_targets_file"),
            ("scenario.mode_targets_file=[a.yaml]", "scenario.mode_targets_file"),
            # Caught only when each worker built its run config.
            ("human.pinned_intent=4", "human.pinned_intent"),
            ("human.pinned_intent=1.5", "human.pinned_intent"),
            ("human.pinned_intent=true", "human.pinned_intent"),
        ],
    )
    def test_bad_value_rejected_naming_field(self, tmp_path, override, named):
        with pytest.raises(ConfigError, match=re.escape(named)):
            load_config(write(tmp_path, MINIMAL), [override])

    @pytest.mark.parametrize(
        "override, message",
        [
            # Each raised "invalid solver budget" or "obs_samples >= 1 and
            # probe_grid_size >= 2 required", naming no field.
            ("planner.solver_inits=1", "solver_inits must be >= 2, got 1"),
            ("planner.solver_iters=-1", "solver_iters must be >= 0, got -1"),
            ("planner.solver_segments=0", "solver_segments must be >= 1, got 0"),
            ("planner.obs_samples=0", "obs_samples must be >= 1, got 0"),
            ("planner.probe_grid_size=1", "probe_grid_size must be >= 2, got 1"),
        ],
    )
    def test_budget_below_least_rejected_naming_field(self, tmp_path, override, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
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

    @pytest.mark.parametrize("text, value", [
        ("1e-5", 1e-5), ("1e3", 1e3), ("-2.5E+2", -250.0), ("+.5e1", 5.0),
        ("1_000e-3", 1.0), ("1.e3", 1e3), ("1.0e-5", 1e-5), ("2.5", 2.5),
    ])
    def test_exponent_forms_read_as_floats(self, text, value):
        # PyYAML's YAML 1.1 rules read 1e-5 and 1e3 as strings, so
        # --set planner.mode_activation_eps=1e-5 was rejected with
        # "must be positive and finite, got '1e-5'".
        cfg = copy.deepcopy(DEFAULTS)
        apply_override(cfg, f"planner.discount={text}")
        assert type(cfg["planner"]["discount"]) is float
        assert cfg["planner"]["discount"] == value

    @pytest.mark.parametrize("text", ["e5", "1e", "1e-5x", "1e5.0", "0x1e", "10", ".inf", "1:30"])
    def test_other_scalars_read_as_before(self, text):
        assert _load_yaml(text) == yaml.safe_load(text)

    def test_exponent_values_reach_the_run_config(self, tmp_path):
        path = write(tmp_path, MINIMAL + "planner:\n  risk_cap: 1e3\n")
        cfg = load_config(path, ["planner.mode_activation_eps=1e-5"])
        planner_cfg = build_run_config(cfg, "lane_merge", "ours").planner_cfg
        assert (planner_cfg.mode_activation_eps, planner_cfg.risk_cap) == (1e-5, 1000.0)

    @pytest.mark.parametrize("name", ["default.yaml", "smoke.yaml"])
    def test_shipped_configs_read_as_before(self, name):
        # Their hashes, and so every recorded result, stay as they were.
        text = (Path(__file__).parents[1] / "configs" / name).read_text()
        assert _load_yaml(text) == yaml.safe_load(text)

    def test_build_planner_config_scenario_default_ref_speed(self, tmp_path):
        cfg = load_config(write(tmp_path, MINIMAL))
        pc_merge = build_planner_config(cfg, "lane_merge")
        pc_cross = build_planner_config(cfg, "intersection")
        assert pc_merge.ref_speed == 9.5
        assert pc_cross.ref_speed == 5.5

    def test_invalid_planner_value_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match=re.escape("invalid planner.cvar_level: cvar_level")):
            cfg = load_config(write(tmp_path, MINIMAL), ["planner.cvar_level=1.5"])
            build_planner_config(cfg, "lane_merge")


class TestHash:
    def test_semantic_change_changes_hash(self, tmp_path):
        base = load_config(write(tmp_path, MINIMAL))
        changed = load_config(write(tmp_path, MINIMAL, "b.yaml"), ["planner.discount=0.9"])
        assert config_hash(base) != config_hash(changed)

    def test_mode_target_file_contents_change_hash(self, tmp_path):
        # Both files have one path, so the hash saw no difference.
        tpath = write(tmp_path, TARGETS, "targets.yaml")
        overrides = [f"scenario.mode_targets_file={tpath}", "experiment.planner=conservative"]
        before = config_hash(load_config(write(tmp_path, MINIMAL), overrides))
        write(tmp_path, TARGETS.replace("mean: [5.0]", "mean: [5.5]"), "targets.yaml")
        assert config_hash(load_config(write(tmp_path, MINIMAL), overrides)) != before

    def test_nonsemantic_fields_ignored(self, tmp_path):
        base = load_config(write(tmp_path, MINIMAL))
        moved = load_config(
            write(tmp_path, MINIMAL, "c.yaml"),
            ["experiment.out_dir=/tmp/elsewhere", "experiment.workers=8",
             "experiment.trace_seeds=[1,2]"],
        )
        assert config_hash(base) == config_hash(moved)


ONE_MODE = "intents:\n  - name: a\n    modes:\n      - observation: {obs}\n        steering: {steer}\n"
OBS = "{mean: [9.5], cov: [[1.0]]}"
STEER = "{mean: [8.0, -14.0], cov: [[2.25, 0], [0, 16.0]]}"

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
            # Loaded; every ours and conservative run then marked each step's
            # evidence degenerate, read the mode's cvar_pre as NaN and timed out.
            (ONE_MODE.format(obs="{mean: [.nan], cov: [[1.0]]}", steer=STEER),
             "a/mode 1 observation"),
            (ONE_MODE.format(obs="{mean: [9.5], cov: [[.nan]]}", steer=STEER),
             "a/mode 1 observation"),
            (ONE_MODE.format(obs=OBS, steer="{mean: [8.0, .inf], cov: [[2.25, 0], [0, 16.0]]}"),
             "a/mode 1 steering"),
        ],
    )
    def test_malformed_file_rejected_naming_part(self, tmp_path, body, named):
        tpath = write(tmp_path, body, "bad.yaml")
        with pytest.raises(ConfigError, match=re.escape(named)):
            load_config(write(tmp_path, MINIMAL), [f"scenario.mode_targets_file={tpath}"])

    def test_pinned_intent_checked_against_file_targets(self, tmp_path):
        # The file has two intents, the default lane-merge set three.
        tpath = write(tmp_path, TARGETS, "targets.yaml")
        overrides = [f"scenario.mode_targets_file={tpath}", "experiment.planner=conservative"]
        load_config(write(tmp_path, MINIMAL), [*overrides, "human.pinned_intent=2"])
        with pytest.raises(ConfigError, match="human.pinned_intent"):
            load_config(write(tmp_path, MINIMAL), [*overrides, "human.pinned_intent=3"])

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
            [f"scenario.mode_targets_file={tpath}", "experiment.planner=conservative"],
        )
        rc = build_run_config(cfg, "lane_merge", "conservative")
        assert rc.targets is not None
        assert rc.targets.num_intents == 2

    @pytest.mark.parametrize("planners", ["ours", "passive", "[conservative, passive]"])
    def test_steering_required_by_steering_planners(self, tmp_path, planners):
        # Accepted before, and every ours or passive run then ended in error
        # at the first solve of the steering-less mode.
        tpath = write(tmp_path, TARGETS, "targets.yaml")
        override = f"scenario.mode_targets_file={tpath}"
        with pytest.raises(ConfigError, match=re.escape("cooperative/mode 2 steering")):
            load_config(write(tmp_path, MINIMAL), [override, f"experiment.planner={planners}"])
        load_config(write(tmp_path, MINIMAL), [override, "experiment.planner=conservative"])

    def test_two_dimensional_observation_rejected_naming_mode(self, tmp_path):
        # The observation is the human's speed; a (speed, gap) band has no
        # observation to score.
        tpath = write(tmp_path, TARGETS_2D, "targets2d.yaml")
        pattern = "aggressive/mode 1 observation must be 1-dimensional"
        with pytest.raises(ConfigError, match=pattern):
            load_mode_targets(tpath)
        with pytest.raises(ConfigError, match=pattern):
            load_config(write(tmp_path, MINIMAL), [f"scenario.mode_targets_file={tpath}"])


class TestBuildRunConfig:
    def test_every_config_filled_field_has_a_dotted_name(self):
        # The planner section and an initial state reach RunConfig by
        # other paths; every other field is read through RUN_FIELDS.
        filled = {f.name for f in dataclasses.fields(RunConfig)} - {"planner_cfg", "initial_state"}
        assert set(RUN_FIELDS) == filled


TARGETS_2D = """
intents:
  - name: aggressive
    modes:
      - observation: {mean: [9.5, 20.0], cov: [[1.0, 0.0], [0.0, 9.0]]}
        steering: {mean: [8.0, -14.0], cov: [[2.25, 0.0], [0.0, 16.0]]}
  - name: cooperative
    modes:
      - observation: {mean: [5.0, 30.0], cov: [[1.44, 0.0], [0.0, 9.0]]}
        steering: {mean: [10.0, 12.0], cov: [[2.25, 0.0], [0.0, 16.0]]}
"""
