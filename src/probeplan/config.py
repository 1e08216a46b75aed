"""Experiment configuration: YAML loading, dotted-path overrides, config
hashing, and the mode-target file schema.

One structured file drives a whole batch; CLI flags override individual
fields so 500-run sweeps stay reproducible and diffable. The config hash
covers exactly the fields that influence results (output location, worker
count and trace selection are excluded).
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import math
from pathlib import Path
from typing import Any

import numpy as np
import yaml

from .belief import ModeTarget, ModeTargetSet
from .errors import ConfigError, InvalidInputError
from .gaussmath import Gaussian
from .planner import PlannerConfig
from .scenario import (
    DEFAULT_REF_SPEED,
    PLANNERS,
    RunConfig,
    check_pinned_intent,
    default_targets,
)
from .world import INTERSECTION, LANE_MERGE

VALID_SCENARIOS = (LANE_MERGE, INTERSECTION)

REQUIRED_FIELDS = (
    "experiment.runs",
    "experiment.master_seed",
    "experiment.scenario",
    "experiment.planner",
)

DEFAULTS: dict[str, dict[str, Any]] = {
    "experiment": {
        "runs": None,
        "master_seed": None,
        "scenario": None,          # one name or a list
        "planner": None,           # one name or a list
        "comparison_mode": True,
        "out_dir": None,           # None: --out flag or PROBEPLAN_OUT or ./results
        "workers": 1,
        "trace_seeds": [],
    },
    # None keeps the PlannerConfig default.
    "planner": {f.name: None for f in dataclasses.fields(PlannerConfig)},
    "human": {
        "observation_noise_std": 0.3,
        "pinned_intent": None,
        "risk_threshold": None,
    },
    "scenario": {
        "t_max": None,
        "mode_targets_file": None,
    },
}

# Fields with no effect on simulated results, excluded from the hash.
_NON_SEMANTIC = {("experiment", "out_dir"), ("experiment", "workers"),
                 ("experiment", "trace_seeds")}


def _merge_section(section: str, given: dict, out: dict) -> None:
    known = DEFAULTS[section]
    for key, value in given.items():
        if key not in known:
            raise ConfigError(f"unknown field {section}.{key}")
        out[section][key] = value


def _read_yaml(path: Path, what: str):
    """The parsed YAML document in the UTF-8 file ``path``; a file that
    cannot be read (missing, a directory, unreadable, not UTF-8) or parsed
    raises a ConfigError naming it."""
    try:
        return yaml.safe_load(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"{what} not found: {path}") from None
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read {what} {path}: {e}") from None
    except yaml.YAMLError as e:
        raise ConfigError(f"{what} parse error in {path}: {e}") from None


def load_config(path: str | Path, overrides: list[str] | None = None) -> dict:
    """Load and validate an experiment config; returns the resolved dict."""
    path = Path(path)
    raw = _read_yaml(path, "config file")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping of sections")
    cfg = copy.deepcopy(DEFAULTS)
    for section, body in raw.items():
        if section not in DEFAULTS:
            raise ConfigError(f"unknown section {section}")
        if body is None:
            continue
        if not isinstance(body, dict):
            raise ConfigError(f"section {section} must be a mapping")
        _merge_section(section, body, cfg)
    for item in overrides or []:
        apply_override(cfg, item)
    validate_config(cfg)
    return cfg


def apply_override(cfg: dict, item: str) -> None:
    """Apply one dotted-path override such as planner.entropy_weight=0.25."""
    if "=" not in item:
        raise ConfigError(f"override {item!r} must look like section.field=value")
    dotted, _, raw_value = item.partition("=")
    parts = dotted.strip().split(".")
    if len(parts) != 2:
        raise ConfigError(f"override path {dotted!r} must be section.field")
    section, field = parts
    if section not in DEFAULTS or field not in DEFAULTS[section]:
        raise ConfigError(f"unknown field {section}.{field}")
    cfg[section][field] = yaml.safe_load(raw_value)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _is_mapping_list(value) -> bool:
    return isinstance(value, list) and bool(value) and all(isinstance(v, dict) for v in value)


def validate_config(cfg: dict) -> None:
    for dotted in REQUIRED_FIELDS:
        section, field = dotted.split(".")
        if cfg[section][field] is None:
            raise ConfigError(f"missing required field {dotted}")
    exp = cfg["experiment"]
    if not _is_int(exp["runs"]) or exp["runs"] < 1:
        raise ConfigError("experiment.runs must be a positive integer")
    if not _is_int(exp["master_seed"]) or exp["master_seed"] < 0:
        raise ConfigError("experiment.master_seed must be a nonnegative integer")
    for name in scenario_list(cfg):
        if name not in VALID_SCENARIOS:
            raise ConfigError(
                f"experiment.scenario {name!r} not one of {VALID_SCENARIOS}"
            )
    for name in planner_list(cfg):
        if name not in PLANNERS:
            raise ConfigError(
                f"experiment.planner {name!r} not one of {tuple(PLANNERS)}"
            )
    for field, names in (("scenario", scenario_list(cfg)), ("planner", planner_list(cfg))):
        if len(set(names)) < len(names):
            raise ConfigError(f"experiment.{field} names one entry twice: {names!r}")
    if not isinstance(exp["comparison_mode"], bool):
        raise ConfigError("experiment.comparison_mode must be true or false")
    if not _is_int(exp["workers"]) or exp["workers"] < 1:
        raise ConfigError("experiment.workers must be a positive integer")
    seeds = exp["trace_seeds"]
    if not isinstance(seeds, list) or not all(_is_int(s) and s >= 0 for s in seeds):
        raise ConfigError("experiment.trace_seeds must be a list of run indices")
    noise = cfg["human"]["observation_noise_std"]
    if not _is_number(noise) or noise < 0.0:
        raise ConfigError(
            f"human.observation_noise_std must be a nonnegative number, got {noise!r}"
        )
    threshold = cfg["human"]["risk_threshold"]
    if threshold is not None and (not _is_number(threshold) or threshold <= 0.0):
        raise ConfigError(
            f"human.risk_threshold must be a positive number, got {threshold!r}"
        )
    t_max = cfg["scenario"]["t_max"]
    if t_max is not None and (not _is_number(t_max) or t_max <= 0.0):
        raise ConfigError(f"scenario.t_max must be a positive number, got {t_max!r}")
    tfile = cfg["scenario"]["mode_targets_file"]
    if tfile is not None and not isinstance(tfile, str):
        raise ConfigError(f"scenario.mode_targets_file must be a path, got {tfile!r}")
    file_targets = load_mode_targets(tfile) if tfile else None
    # The active and passive planners steer toward a mode's steering target,
    # and either may solve any mode; only the conservative one needs none.
    if file_targets is not None and {"ours", "passive"} & set(planner_list(cfg)):
        for t in file_targets.targets:
            if t.steer is None:
                name = file_targets.intent_names[t.intent_id - 1]
                raise ConfigError(
                    f"{name}/mode {t.mode_id} steering is required by the ours and "
                    f"passive planners"
                )
    for name in scenario_list(cfg):
        features = build_planner_config(cfg, name).features
        targets = file_targets if file_targets is not None else default_targets(name)
        if len(features) != targets.obs_dim:
            raise ConfigError(
                f"planner.features has {len(features)} entries, but the {name} mode "
                f"targets observe {targets.obs_dim} dimension(s)"
            )
        try:
            check_pinned_intent(cfg["human"]["pinned_intent"], targets)
        except InvalidInputError as e:
            raise ConfigError(f"invalid human.pinned_intent: {e}") from None


def _as_list(cfg: dict, field: str) -> list[str]:
    value = cfg["experiment"][field]
    if isinstance(value, str):
        return [value]
    if isinstance(value, list) and value:
        return value
    raise ConfigError(
        f"experiment.{field} must be a name or a non-empty list of names, got {value!r}"
    )


def scenario_list(cfg: dict) -> list[str]:
    return _as_list(cfg, "scenario")


def planner_list(cfg: dict) -> list[str]:
    return _as_list(cfg, "planner")


def build_planner_config(cfg: dict, scenario: str) -> PlannerConfig:
    """PlannerConfig from the planner section; unset fields keep their
    defaults, except ref_speed which defaults per scenario."""
    kwargs = {}
    for key, value in cfg["planner"].items():
        if value is None:
            continue
        if key in ("features", "accel_bounds", "yaw_rate_bounds"):
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"planner.{key} must be a list, got {value!r}")
            value = tuple(value)
        kwargs[key] = value
    kwargs.setdefault("ref_speed", DEFAULT_REF_SPEED[scenario])
    try:
        return PlannerConfig(**kwargs)
    except InvalidInputError as e:
        raise ConfigError(f"invalid planner config: {e}") from None


def build_run_config(cfg: dict, scenario: str, planner: str) -> RunConfig:
    """RunConfig for one scenario x planner of a config ``load_config``
    has validated."""
    tfile = cfg["scenario"]["mode_targets_file"]
    return RunConfig(
        scenario=scenario,
        master_seed=cfg["experiment"]["master_seed"],
        planner=planner,
        planner_cfg=build_planner_config(cfg, scenario),
        t_max=cfg["scenario"]["t_max"],
        comparison_mode=cfg["experiment"]["comparison_mode"],
        pinned_intent=cfg["human"]["pinned_intent"],
        observation_noise_std=cfg["human"]["observation_noise_std"],
        risk_threshold=cfg["human"]["risk_threshold"],
        targets=load_mode_targets(tfile) if tfile else None,
    )


def config_hash(cfg: dict) -> str:
    """SHA-256 over the semantically meaningful resolved fields."""
    reduced = {
        section: {
            key: value
            for key, value in body.items()
            if (section, key) not in _NON_SEMANTIC
        }
        for section, body in cfg.items()
    }
    canon = json.dumps(reduced, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Mode-target files


def load_mode_targets(path: str | Path) -> ModeTargetSet:
    """Read a mode-target file. Intents are numbered from 1 in file order
    and their modes from 1; ``observation`` is required, ``name``, ``label``
    and ``steering`` are optional:

    intents:
      - name: aggressive
        modes:
          - label: holds speed
            observation: {mean: [9.5], cov: [[1.0]]}
            steering: {mean: [8.0, -14.0], cov: [[2.25, 0], [0, 16.0]]}
    """
    path = Path(path)
    raw = _read_yaml(path, "mode target file")
    intents = raw.get("intents") if isinstance(raw, dict) else None
    if not _is_mapping_list(intents):
        raise ConfigError(
            f"mode target file {path} must contain a non-empty intents list of "
            f"mappings, got {intents!r}"
        )
    targets = []
    names = []
    for i, intent in enumerate(intents, start=1):
        names.append(str(intent.get("name", f"intent_{i}")))
        modes = intent.get("modes")
        if not _is_mapping_list(modes):
            raise ConfigError(
                f"intent {names[-1]!r} must have a non-empty modes list of mappings, "
                f"got {modes!r}"
            )
        for k, mode in enumerate(modes, start=1):
            if "observation" not in mode:
                raise ConfigError(
                    f"mode {k} of intent {names[-1]!r} lacks an observation target"
                )
            obs = _gaussian_from(mode["observation"], f"{names[-1]}/mode {k} observation")
            steer = None
            if mode.get("steering") is not None:
                where = f"{names[-1]}/mode {k} steering"
                steer = _gaussian_from(mode["steering"], where)
                # The solver factors every steering covariance as it stands.
                if steer.mean.shape != (2,):
                    raise ConfigError(f"{where} must be 2-dimensional (speed, lead)")
                try:
                    np.linalg.cholesky(steer.cov)
                except np.linalg.LinAlgError:
                    raise ConfigError(
                        f"{where} covariance must be positive definite, got {steer.cov.tolist()}"
                    ) from None
            targets.append(
                ModeTarget(
                    intent_id=i, mode_id=k, target=obs,
                    label=str(mode.get("label", "")), steer=steer,
                )
            )
    try:
        return ModeTargetSet(targets, intent_names=names)
    except InvalidInputError as e:
        raise ConfigError(f"invalid mode target set: {e}") from None


def _gaussian_from(body: dict, where: str) -> Gaussian:
    try:
        return Gaussian(np.array(body["mean"], dtype=float),
                        np.array(body["cov"], dtype=float))
    except (KeyError, TypeError, ValueError, InvalidInputError) as e:
        raise ConfigError(f"bad Gaussian for {where}: {e}") from None
