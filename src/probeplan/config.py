"""Experiment configuration: YAML loading, dotted-path overrides, config
hashing, and the mode-target file schema.

One structured file drives a whole batch; CLI flags override individual
fields so 500-run sweeps stay reproducible and diffable. The config hash
covers exactly the fields that influence results (output location, worker
count and trace selection are excluded), and the bytes of the mode-target
file when one is set.

``validate_config`` checks only what needs the whole config. Every run
input is checked once, by ``RunConfig`` or ``PlannerConfig``, when
``build_run_config`` builds each combination's config; it names the config
field of a value either rejects. ``validate_config`` returns the configs it
built, so a batch builds each combination's config once.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import re
from pathlib import Path
from typing import Any

import numpy as np
import yaml

from .belief import ModeTarget, ModeTargetSet
from .errors import ConfigError, InvalidInputError
from .gaussmath import Gaussian
from .planner import PlannerConfig
from .scenario import DEFAULT_REF_SPEED, RunConfig

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

# The config field behind each RunConfig input, keyed by the name that
# begins RunConfig's errors about it.
RUN_FIELDS = {
    "scenario": "experiment.scenario",
    "master_seed": "experiment.master_seed",
    "planner": "experiment.planner",
    "t_max": "scenario.t_max",
    "comparison_mode": "experiment.comparison_mode",
    "pinned_intent": "human.pinned_intent",
    "observation_noise_std": "human.observation_noise_std",
    "risk_threshold": "human.risk_threshold",
    "targets": "scenario.mode_targets_file",
}


class _Loader(yaml.SafeLoader):
    """PyYAML's safe loader, reading exponent forms without a dot or
    without an exponent sign (``1e-5``, ``1e3``, ``2.5E4``) as floats, as
    YAML 1.2 does; the YAML 1.1 rules PyYAML follows read them as strings."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."),
)


def _load_yaml(text: str):
    return yaml.load(text, Loader=_Loader)


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
        return _load_yaml(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"{what} not found: {path}") from None
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read {what} {path}: {e}") from None
    except yaml.YAMLError as e:
        raise ConfigError(f"{what} parse error in {path}: {e}") from None


def load_config(path: str | Path, overrides: list[str] | None = None) -> dict:
    """Load and validate an experiment config; returns the resolved dict."""
    cfg = read_config(path, overrides)
    validate_config(cfg)
    return cfg


def read_config(path: str | Path, overrides: list[str] | None = None) -> dict:
    """The config file at ``path`` over the defaults, with the overrides
    applied; not yet validated."""
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
    try:
        cfg[section][field] = _load_yaml(raw_value)
    except yaml.YAMLError as e:
        raise ConfigError(f"override {section}.{field} value does not parse: {e}") from None


def _value(cfg: dict, dotted: str):
    section, field = dotted.split(".")
    return cfg[section][field]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_mapping_list(value) -> bool:
    return isinstance(value, list) and bool(value) and all(isinstance(v, dict) for v in value)


def validate_config(cfg: dict) -> dict[tuple[str, str], RunConfig]:
    """Check what needs the whole config; RunConfig checks the rest.
    Returns the RunConfig of each (scenario, planner) combination, in
    scenario-major order."""
    for dotted in REQUIRED_FIELDS:
        if _value(cfg, dotted) is None:
            raise ConfigError(f"missing required field {dotted}")
    exp = cfg["experiment"]
    if not _is_int(exp["runs"]) or exp["runs"] < 1:
        raise ConfigError("experiment.runs must be a positive integer")
    if not _is_int(exp["workers"]) or exp["workers"] < 1:
        raise ConfigError("experiment.workers must be a positive integer")
    seeds = exp["trace_seeds"]
    if not isinstance(seeds, list) or not all(_is_int(s) and s >= 0 for s in seeds):
        raise ConfigError("experiment.trace_seeds must be a list of run indices")
    for field, names in (("scenario", scenario_list(cfg)), ("planner", planner_list(cfg))):
        if len(set(names)) < len(names):
            raise ConfigError(f"experiment.{field} names one entry twice: {names!r}")
    tfile = cfg["scenario"]["mode_targets_file"]
    if tfile is not None and not isinstance(tfile, str):
        raise ConfigError(f"scenario.mode_targets_file must be a path, got {tfile!r}")
    return {
        (scenario, planner): build_run_config(cfg, scenario, planner)
        for scenario in scenario_list(cfg)
        for planner in planner_list(cfg)
    }


def _as_list(cfg: dict, field: str) -> list[str]:
    value = cfg["experiment"][field]
    if isinstance(value, str):
        return [value]
    if isinstance(value, list) and value and all(isinstance(v, str) for v in value):
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
        if key in ("accel_bounds", "yaw_rate_bounds"):
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"planner.{key} must be a list, got {value!r}")
            value = tuple(value)
        kwargs[key] = value
    # RunConfig names an unknown scenario.
    kwargs.setdefault("ref_speed", DEFAULT_REF_SPEED.get(scenario, PlannerConfig.ref_speed))
    try:
        return PlannerConfig(**kwargs)
    except InvalidInputError as e:
        # Each error begins with the field it rejects, as "name must ..." or
        # "name=value ...".
        raise ConfigError(f"invalid planner.{str(e).split()[0].split('=')[0]}: {e}") from None


def build_run_config(cfg: dict, scenario: str, planner: str) -> RunConfig:
    """RunConfig for one scenario x planner of ``cfg``; a value RunConfig
    rejects raises a ConfigError naming its config field."""
    kwargs = {name: _value(cfg, dotted) for name, dotted in RUN_FIELDS.items()}
    tfile = kwargs["targets"]
    kwargs.update(scenario=scenario, planner=planner,
                  targets=load_mode_targets(tfile) if tfile else None)
    try:
        return RunConfig(planner_cfg=build_planner_config(cfg, scenario), **kwargs)
    except InvalidInputError as e:
        raise ConfigError(f"invalid {RUN_FIELDS[str(e).split()[0]]}: {e}") from None


def config_hash(cfg: dict) -> str:
    """SHA-256 over the semantically meaningful resolved fields, and over
    the mode-target file's bytes when one is set."""
    reduced = {
        section: {
            key: value
            for key, value in body.items()
            if (section, key) not in _NON_SEMANTIC
        }
        for section, body in cfg.items()
    }
    tfile = cfg["scenario"]["mode_targets_file"]
    if tfile:
        reduced["mode_targets_sha256"] = hashlib.sha256(Path(tfile).read_bytes()).hexdigest()
    canon = json.dumps(reduced, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Mode-target files


def load_mode_targets(path: str | Path) -> ModeTargetSet:
    """Read a mode-target file. Intents are numbered from 1 in file order
    and their modes from 1; ``observation`` (a 1-D band over the human's
    speed) is required, ``name``, ``label`` and ``steering`` are optional:

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
            where = f"{names[-1]}/mode {k} observation"
            obs = _gaussian_from(mode["observation"], where)
            if obs.mean.shape != (1,):
                raise ConfigError(f"{where} must be 1-dimensional (speed)")
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
