"""Scenario construction and the closed interaction loop.

Each run executes at 10 Hz: observe, update the belief, plan, apply the
first control, step both vehicles, then check for collision or completion.
Runs are fully determined by (config, master seed, run index).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .baselines import ConservativePlanner, PassivePlanner
from .belief import (
    HierarchicalBelief,
    ModeTarget,
    ModeTargetSet,
    entropy,  # noqa: F401 -- the benchmark wraps probeplan.scenario.entropy by name
    relax_mode_weights,
    uniform_belief,
    update,
)
from .dynamics import VehicleState, step_vehicle
from .errors import DegenerateEvidenceError, InvalidInputError
from .gaussmath import Gaussian
from .human import YIELD_FLOORS, HumanParams, human_response, observe
from .metrics import ERROR, SUCCESS, TIMEOUT, VIOLATION, RunResult, jerk_stats
from .planner import (
    ActivePlanner,
    PlanDiagnostics,
    PlannerConfig,
    _is_integer,
    _is_real,
    _ReadOnce,
)
from .seeding import (
    STREAM_INIT,
    STREAM_INTENT,
    STREAM_OBS,
    STREAM_PLAN,
    derive_key,
    rng_from_keys,
)
from .world import (
    COLLISION_DISTANCE,
    INTERSECTION,
    LANE_MERGE,
    ScenarioGeometry,
    ScenarioState,
    center_distance,
    ego_progress,
    geometry_for,
)

PLANNERS = {
    "ours": ActivePlanner,
    "passive": PassivePlanner,
    "conservative": ConservativePlanner,
}

DEFAULT_T_MAX = {LANE_MERGE: 4.0, INTERSECTION: 6.0}
COMPARISON_T_MAX = 12.0
DEFAULT_REF_SPEED = {LANE_MERGE: 9.5, INTERSECTION: 5.5}
# Mode-weight diffusion applied after every belief update (see
# relax_mode_weights).
MODE_FORGETTING = 0.02

INTENT_NAMES = ("aggressive", "neutral", "cooperative")


def _mode(intent: int, mode: int, label: str, obs_mean: float, obs_var: float,
          steer_speed: float, steer_lead: float,
          steer_var: tuple[float, float]) -> ModeTarget:
    return ModeTarget(
        intent_id=intent,
        mode_id=mode,
        label=label,
        target=Gaussian(np.array([obs_mean]), np.array([[obs_var]])),
        steer=Gaussian(
            np.array([steer_speed, steer_lead]),
            np.diag(steer_var).astype(float),
        ),
    )


def lane_merge_targets() -> ModeTargetSet:
    """Hand-authored expert-prior modes for the merge (human nominal ~10 m/s).

    Each intent shares an identically shaped unprovoked-cruise mode, so
    passive observation of nominal driving stays ambiguous; only provoked
    responses land in the intent-specific speed bands.
    """
    # Band layout. Every intent carries the same wide cruise band, so
    # unprovoked driving moves no intent mass at any nominal speed and the
    # belief sits near maximum entropy until someone provokes a response.
    # The neutral and cooperative reaction bands overlap through the
    # deceleration transit (mass splits instead of committing early) and
    # separate at the committed floors, so entropy descends monotonically
    # as a yield unfolds. Aggressive reaction bands sit above any realized
    # speed: aggression shows as a refusal to yield, not as a signature.
    sv = (2.25, 144.0)  # steering variances: speed, lead
    targets = [
        _mode(1, 1, "cruises, refusing to yield", 10.0, 4.0, 8.5, -12.0, sv),
        _mode(1, 2, "sprints to close the gap", 15.0, 1.0, 8.0, -14.0, sv),
        _mode(1, 3, "forces the merge at speed", 17.0, 1.0, 8.0, -16.0, sv),
        _mode(2, 1, "cruises unprovoked", 10.0, 4.0, 9.5, 8.0, sv),
        _mode(2, 2, "committed moderate yield", 6.5, 2.25, 9.5, 10.0, sv),
        _mode(2, 3, "rolls nearly to a stop", 1.0, 0.64, 9.5, 8.0, sv),
        _mode(3, 1, "cruises unprovoked", 10.0, 4.0, 10.0, 10.0, sv),
        _mode(3, 2, "gradual deceleration", 4.5, 2.25, 10.0, 12.0, sv),
        _mode(3, 3, "sudden braking", 0.5, 0.49, 10.0, 14.0, sv),
    ]
    return ModeTargetSet(targets, intent_names=INTENT_NAMES)


def intersection_targets() -> ModeTargetSet:
    """Expert-prior modes for the unsignaled intersection (nominal ~6.5 m/s)."""
    sv = (1.44, 100.0)
    targets = [
        _mode(1, 1, "cruises, refusing to yield", 6.5, 2.25, 3.5, -10.0, sv),
        _mode(1, 2, "sprints through the gap", 10.5, 0.64, 3.5, -12.0, sv),
        _mode(1, 3, "charges the crossing", 12.0, 0.64, 3.0, -14.0, sv),
        _mode(2, 1, "cruises unprovoked", 6.5, 2.25, 5.5, 7.0, sv),
        _mode(2, 2, "committed moderate yield", 4.3, 1.21, 5.5, 9.0, sv),
        _mode(2, 3, "rolls to a stop", 0.9, 0.49, 5.5, 8.0, sv),
        _mode(3, 1, "cruises unprovoked", 6.5, 2.25, 6.0, 9.0, sv),
        _mode(3, 2, "gradual yield", 2.2, 0.81, 6.0, 12.0, sv),
        _mode(3, 3, "firm stop", 0.2, 0.16, 6.0, 14.0, sv),
    ]
    return ModeTargetSet(targets, intent_names=INTENT_NAMES)


@functools.lru_cache(maxsize=None)
def default_targets(kind: str) -> ModeTargetSet:
    """The scenario's default mode targets, built once per process: the set
    is immutable, so every config and run of the scenario shares it."""
    if kind == LANE_MERGE:
        return lane_merge_targets()
    if kind == INTERSECTION:
        return intersection_targets()
    raise InvalidInputError(f"unknown scenario kind {kind!r}")


# ---------------------------------------------------------------------------
# Randomized initial conditions


def init_lane_merge(rng: np.random.Generator) -> ScenarioState:
    """Ego on the on-ramp 30-50 m before the merge point at 7-10 m/s; the
    human on the main lane 25-55 m before it at 8-12 m/s. Rejection
    sampling keeps the initial center distance at or above 5 m."""
    geometry = geometry_for(LANE_MERGE)
    while True:
        ego = VehicleState(
            x=-float(rng.uniform(30.0, 50.0)), y=geometry.ramp_y,
            v=float(rng.uniform(7.0, 10.0)), theta=0.0,
        )
        human = VehicleState(
            x=-float(rng.uniform(25.0, 55.0)), y=geometry.target_lane_y,
            v=float(rng.uniform(8.0, 12.0)), theta=0.0,
        )
        if center_distance(ego, human) >= 5.0:
            return ScenarioState(ego=ego, human=human, geometry=geometry)


def init_intersection(rng: np.random.Generator) -> ScenarioState:
    """Orthogonal approach: ego along +x at 4-6 m/s, crossing agent along -y
    at 5-8 m/s, each 15-30 m from the conflict zone center."""
    geometry = geometry_for(INTERSECTION)
    while True:
        ego = VehicleState(
            x=-float(rng.uniform(15.0, 30.0)), y=0.0,
            v=float(rng.uniform(4.0, 6.0)), theta=0.0,
        )
        human = VehicleState(
            x=0.0, y=float(rng.uniform(15.0, 30.0)),
            v=float(rng.uniform(5.0, 8.0)), theta=-0.5 * math.pi,
        )
        if center_distance(ego, human) >= 5.0:
            return ScenarioState(ego=ego, human=human, geometry=geometry)


def init_scenario(kind: str, rng: np.random.Generator) -> ScenarioState:
    if kind == LANE_MERGE:
        return init_lane_merge(rng)
    if kind == INTERSECTION:
        return init_intersection(rng)
    raise InvalidInputError(f"unknown scenario kind {kind!r}")


# ---------------------------------------------------------------------------
# Termination predicates


def safety_violation(s: ScenarioState) -> bool:
    """Disc footprints overlap: center distance strictly below 2 m."""
    return center_distance(s.ego, s.human) < COLLISION_DISTANCE


def success_check(s: ScenarioState) -> bool:
    """Maneuver completion.

    Lane merge: past the merge point, within 0.5 m of the target lane
    center, and at least 2 m of longitudinal gap to the human.
    Intersection: the ego's rear edge has cleared the far side of the
    conflict zone.
    """
    g = s.geometry
    if g.kind == LANE_MERGE:
        return (
            ego_progress(g, s.ego) > 0.0
            and abs(s.ego.y - g.target_lane_y) <= 0.5
            and abs(s.ego.x - s.human.x) >= 2.0
        )
    return s.ego.x - 1.0 >= g.zone_half_width


# ---------------------------------------------------------------------------
# Run configuration and loop


@dataclass(frozen=True)
class RunConfig:
    scenario: str
    master_seed: int
    planner: str = "ours"
    planner_cfg: PlannerConfig = dc_field(default_factory=PlannerConfig)
    t_max: float | None = None
    comparison_mode: bool = False
    pinned_intent: int | None = None
    observation_noise_std: float = 0.3
    risk_threshold: float | None = None
    targets: ModeTargetSet | None = None
    initial_state: ScenarioState | None = None

    def __post_init__(self) -> None:
        """Check every input a run needs, and resolve ``targets`` (see
        ``resolved_targets``). Each error begins with the name of the input
        it rejects."""
        if self.scenario not in DEFAULT_T_MAX:
            raise InvalidInputError(
                f"scenario must be one of {tuple(DEFAULT_T_MAX)}, got {self.scenario!r}"
            )
        check_index("master_seed", self.master_seed)
        if self.planner not in PLANNERS:
            raise InvalidInputError(
                f"planner must be one of {tuple(PLANNERS)}, got {self.planner!r}"
            )
        if not isinstance(self.comparison_mode, bool):
            raise InvalidInputError(f"comparison_mode must be a bool, got {self.comparison_mode!r}")
        noise = self.observation_noise_std
        if not (_is_real(noise) and 0.0 <= noise < math.inf):
            raise InvalidInputError(
                f"observation_noise_std must be nonnegative and finite, got {noise!r}"
            )
        for name in ("t_max", "risk_threshold"):
            value = getattr(self, name)
            if value is not None and not (_is_real(value) and 0.0 < value < math.inf):
                raise InvalidInputError(f"{name} must be positive and finite, got {value!r}")
        targets = self.targets or default_targets(self.scenario)
        object.__setattr__(self, "_targets", targets)
        # The intent's name sets the simulated human's yield floor.
        if unknown := [name for name in targets.intent_names if name not in YIELD_FLOORS]:
            raise InvalidInputError(f"targets name intents {unknown}; each intent must be named "
                                    f"one of {tuple(YIELD_FLOORS)}")
        intent, n = self.pinned_intent, targets.num_intents
        if intent is not None and not (_is_integer(intent) and 1 <= intent <= n):
            raise InvalidInputError(f"pinned_intent must be an intent index in 1..{n}, "
                                    f"got {intent!r}")
        # The active and passive planners steer toward a mode's steering
        # target, and either may solve any mode; only the conservative one
        # needs none.
        for t in targets.targets if self.planner in ("ours", "passive") else ():
            if t.steer is None:
                name = f"{targets.intent_names[t.intent_id - 1]}/mode {t.mode_id}"
                raise InvalidInputError(f"targets lack {name} steering, which the ours and "
                                        "passive planners require")

    def resolved_targets(self) -> ModeTargetSet:
        """``targets``, or the scenario's default targets when none are
        given; ``dataclasses.replace`` resolves them again."""
        return self._targets

    def resolved_t_max(self) -> float:
        if self.t_max is not None:
            return self.t_max
        if self.comparison_mode:
            return COMPARISON_T_MAX
        return DEFAULT_T_MAX[self.scenario]


@dataclass(frozen=True)
class StepRecord(_ReadOnce):
    """One step of a run. ``cvar_pre``, the reference plan's CVaR per mode,
    is scored on its first read (``planner._ReadOnce``)."""

    step: int
    t: float
    z: float
    pi: np.ndarray
    w_rows: tuple[np.ndarray, ...]
    entropy: float
    cvar_pre: tuple[float, ...]
    u: np.ndarray
    ego: VehicleState
    human: VehicleState
    degenerate_evidence: bool
    infeasible: bool
    blend_fallback: bool


@dataclass
class RunLog:
    scenario: str
    planner: str
    run_index: int
    master_seed: int
    gt_intent: int
    targets: ModeTargetSet
    records: list[StepRecord] = dc_field(default_factory=list)

    @property
    def controls(self) -> np.ndarray:
        return np.array([r.u for r in self.records])


def make_planner(name: str, cfg: PlannerConfig, key: int, targets: ModeTargetSet):
    """The planner ``name`` names, for the run whose key is ``key`` over
    ``targets``; RunConfig has checked it is in PLANNERS."""
    return PLANNERS[name](cfg, key, targets)


def _human_params(cfg: RunConfig, targets: ModeTargetSet, gt_intent: int,
                  nominal_speed: float, geometry: ScenarioGeometry) -> HumanParams:
    return HumanParams(
        ground_truth_intent=gt_intent,
        nominal_speed=nominal_speed,
        yield_floor=YIELD_FLOORS[targets.intent_names[gt_intent - 1]],
        responsiveness=cfg.planner_cfg.response_gain,
        risk_threshold=(
            cfg.risk_threshold if cfg.risk_threshold is not None
            else geometry.risk_threshold
        ),
        observation_noise_std=cfg.observation_noise_std,
    )


def check_index(name: str, value) -> None:
    """Reject a seed key (master seed or run index) that is not a
    nonnegative integer."""
    if not (_is_integer(value) and value >= 0):
        raise InvalidInputError(f"{name} must be a nonnegative integer, got {value!r}")


def _read_each(values: list) -> tuple[float, ...]:
    """``values`` as a tuple, each deferred one (a callable) replaced by its value."""
    return tuple(v() if callable(v) else v for v in values)


def run(cfg: RunConfig, run_index: int = 0) -> tuple[RunResult, RunLog]:
    """Execute one seeded run; bit-identical results for identical inputs."""
    check_index("run_index", run_index)
    pc = cfg.planner_cfg
    dt = pc.dt
    t_max = cfg.resolved_t_max()
    # The ceiling of the quotient's nearest small rational, as
    # risk.tail_sample_count takes it: 1.12 / 0.02 = 56.00000000000001 is 56 steps.
    max_steps = math.ceil(Fraction(t_max / dt).limit_denominator(10**6))

    rng_init = rng_from_keys(cfg.master_seed, run_index, STREAM_INIT)
    rng_obs = rng_from_keys(cfg.master_seed, run_index, STREAM_OBS)
    rng_intent = rng_from_keys(cfg.master_seed, run_index, STREAM_INTENT)

    state = cfg.initial_state or init_scenario(cfg.scenario, rng_init)
    targets = cfg.resolved_targets()
    gt_intent = cfg.pinned_intent or int(rng_intent.integers(1, targets.num_intents + 1))
    params = _human_params(cfg, targets, gt_intent, state.human.v, state.geometry)
    belief = uniform_belief(targets)
    key = derive_key(rng_from_keys(cfg.master_seed, run_index, STREAM_PLAN))
    planner = make_planner(cfg.planner, pc, key, targets)

    log = RunLog(
        scenario=cfg.scenario, planner=cfg.planner, run_index=run_index,
        master_seed=cfg.master_seed, gt_intent=gt_intent, targets=targets,
    )
    min_gap = center_distance(state.ego, state.human)
    speeds = [state.ego.v]
    termination = TIMEOUT

    for step in range(max_steps):
        z = observe(state.human, params, rng_obs)
        degenerate = False
        try:
            belief = relax_mode_weights(update(belief, z), MODE_FORGETTING)
        except DegenerateEvidenceError:
            degenerate = True

        try:
            u_first, diag = planner.plan_step(state, belief)
            ego_next = step_vehicle(state.ego, (float(u_first[0]), float(u_first[1])), dt)
            human_next = human_response(state.human, state.ego, params, dt, state.geometry)
        except (InvalidInputError, np.linalg.LinAlgError, FloatingPointError):
            # A step that cannot be planned ends this run, not the batch.
            termination = ERROR
            break
        state = state.advanced(ego_next, human_next, dt)

        min_gap = min(min_gap, center_distance(state.ego, state.human))
        speeds.append(state.ego.v)
        # The modes' reference CVaRs as the step left them: a planner defers
        # them, so the record reads them only when its own field is read.
        pre = [vars(m)["cvar_pre"] for m in diag.modes]
        log.records.append(
            StepRecord(
                step=step,
                t=state.elapsed,
                z=z,
                pi=belief.intent_probs.copy(),
                w_rows=belief.rows(),
                entropy=diag.entropy_before,
                cvar_pre=functools.partial(_read_each, pre),
                u=u_first.copy(),
                ego=state.ego,
                human=state.human,
                degenerate_evidence=degenerate,
                infeasible=diag.infeasible_any,
                blend_fallback=diag.blend_fallback,
            )
        )
        # Violation is checked before success so a run can never report both.
        if safety_violation(state):
            termination = VIOLATION
            break
        if success_check(state):
            termination = SUCCESS
            break

    controls = log.controls
    if controls.shape[0] >= 3:
        long_jerk, ang_jerk = jerk_stats(controls, dt)
    else:
        # Too short for finite differences; report zero variation.
        long_jerk, ang_jerk = 0.0, 0.0
    result = RunResult(
        success=termination == SUCCESS,
        completion_time=state.elapsed if termination == SUCCESS else math.nan,
        min_gap=min_gap,
        mean_velocity=float(np.mean(speeds)),
        mean_abs_long_jerk=long_jerk,
        mean_abs_ang_jerk=ang_jerk,
        termination_reason=termination,
    )
    return result, log
