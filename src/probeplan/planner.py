"""Ego controller: entropy-driven probing, KL influence toward per-mode
interaction targets, CVaR-capped per-mode solves, and the convex mix of
the solved modes' plans by joint weight, applied in a receding-horizon
loop (only the first control of each step's mix is executed).

Solver notes. Every planner runs the same step: ``ActivePlanner._begin_step``
builds the shared setup (lane guidance with the ego headings of its roll,
probe grid, joint weights, the modes to solve, every mode's human paths as
x and y planes and their boxes, placed at the human's state from the run's
arcs by one ``risk.place_human_paths`` call, the reference plan's deferred
CVaR per mode), all on one mode axis ``m`` in target order. The probe grid
is one batched ``belief.posterior_entropies`` pass over every grid point's
observations: one ``predicted_observation_mean`` call for every projected
grid point, at each mode's Gauss-Hermite nodes.
``_descend`` is the one solver loop. It runs one descent chain per solve
(multi-start from one start set for every chain of every planner: the
coasting, constant and burst starts of ``_shared_starts`` within
``accel_bounds``, and the executed plan's segment-window means, the only
state a step leaves to the next; then projected gradient descent on a
piecewise-constant acceleration parameterization of ``solver_segments``
windows of ``segment_steps`` steps): one per mode for
the active and passive planners, one for the conservative planner's
omega-weighted CVaR sum. The chains run in phase-aligned rounds: one start
round, then per iteration one line-search round that holds all three
trials ``solver_step * 0.5^k`` (k = 0, 1, 2) along the scaled gradient of
every chain still live, so a descent makes at most ``1 + solver_iters``
rounds. A chain takes its first winning trial; the trials after it are
scored and dropped, so each chain's history, pick and ``ModeDiag.evals``
are those of a search that tries one step after another. A round scores
its (segment vector, chain) pairs in one batch, and ``evaluate`` takes the
segment vectors theta (K, P) themselves. Every term of a pair but its cost
blocks is affine in theta, so it is composed from bases built once per
step (or run): the ego path from the step's coasting path and one path
from rest per segment (``_compose_ego_paths``), the KL residual
y = L^-1 delta from its value at the coasting terminal state and the
chain's G = -L^-1 J (J the run's (2, P) terminal-state Jacobian), and the
probe term as ``np.interp`` at theta_0 with its slope from a per-step
table of the grid's pieces. Each composition adds one product per segment
in segment order, so a row equals its own evaluation at any batch size.
Then per pair a cost bound, one ``path_costs`` block
per mode over the pairs left open and one ``cvar`` (the conservative
planner: a cost floor per pair but its start round's first, then one
block over its solved modes and one ``cvar`` per vector it scores). Each
pair's gradient comes with its objective, exact almost everywhere: the
probe term's slope, the KL term's y^T G, and the cap penalty's ``2 *
penalty_weight * (CVaR - cap)`` times the mean cost gradient over the
pair's tail samples (Hong & Liu 2009), taken from the cost block the pair
paid for, through its ego path and reflected walk (``risk``). A
line-search trial gets the tail part only below its bar, as no other
trial becomes its chain's state. Only the picks are expanded to
acceleration sequences (T,).
A fixed lane-guidance law, shared by every planner, steers the lateral
channel, so planner comparisons isolate the longitudinal machinery. The
human rollouts are a fixed scenario set per run (common random numbers,
as in multi-stage MPC): the planner draws every mode's arcs from the run's
key with one ``risk.draw_human_paths`` call when it is built, and a step
only places them, so no step opens a random stream, and a step is
bit-reproducible from the run's key and the executed plan.

In a mode solve the CVaR enters only through the cap penalty
``max(0, CVaR - risk_cap)^2``, so an objective is at least its bound
``j_probe + j_infl``. A pair gets no cost block when its
``risk.path_cost_bounds`` against the mode's ``risk.sample_boxes`` is at
most ``risk_cap * (1 - CERTIFY_MARGIN)``: CVaR is at most the largest sample
cost (Rockafellar & Uryasev 2000), so it holds ``-inf``, whose penalty is
0.0, as the exact value's, and stays feasible, so its gradient has no tail
part. Nor when no decision reads its CVaR, as its bound is above its
chain's best certified start in the start round, or above the win
threshold in a line search: it holds ``_UNSCORED`` and its bound as
objective, and needs no tail gradient, since it never becomes a chain's
state. A chain whose pick breaks the cap scores its unscored history
in one batch before its fallback reads it. No decision reads a pick's
``-inf`` either, nor ``cvar_pre``: the first read of a certified pick's
``cvar_solution`` or ``margin`` scores every certified pick of the step
in one block, that of a mode's ``cvar_pre`` the reference plan against
every mode, placing the arcs again so no record holds the planes (``_Batch``).

The conservative planner minimizes the omega-weighted CVaR sum, which is
at least the same sum of per-mode floors less ``CERTIFY_MARGIN``:
``risk.path_cost_means`` over the last scored vector's tail samples (CVaR
is at least the mean cost of as many samples), close to the CVaR of a
vector near that one. Its start round scores the warm start first (the
clipped coasting start before the planner has a plan), floors the others
on its tail samples and scores them in ascending floor, leaving unscored
each one whose floor is above the best objective so far; a line search
scores its trials in order, skips one whose floor is at or above its bar
and stops at the first win. An unscored vector holds ``_UNSCORED`` and its
floor as objective, so the start pick and every win test are the
exhaustive search's, and only the pair that becomes the chain's state gets
its tail gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache, partial, reduce
from typing import Callable, Sequence

import numpy as np

from .belief import (
    HierarchicalBelief,
    ModeTarget,
    ModeTargetSet,
    entropy,
    joint_weights,
    posterior_entropies,
    update,  # noqa: F401 -- the benchmark wraps probeplan.planner.update by name
)
from .dynamics import VehicleState, _wrap_angle
from .errors import InvalidInputError
from .gaussmath import Gaussian, kl_divergence
from .human import conflict_level
from .risk import (
    CERTIFY_MARGIN,
    cvar,
    cvar_tail,
    draw_human_paths,
    ego_path_gradient,
    path_cost_bounds,
    path_cost_gradient,
    path_costs,
    place_human_paths,
    simulate_ego_path,
)
from .seeding import STREAM_MODE_ROLLOUT, rng_from_keys
from .world import LANE_MERGE, ScenarioGeometry, ScenarioState, ego_progress, human_progress

# Initial ego state uncertainty (position, velocity) for the predicted
# interaction distribution; grows over the horizon per the process noise.
INIT_POS_STD = 0.3
INIT_VEL_STD = 0.2

# The probe projection holds the first control this many steps (see
# probe_projection). The probing estimators weigh each belief row's entropy
# by its intent mass: probing should chase intent information, not the
# mode-weight noise of intents the belief already rules out.
PROBE_LOOKAHEAD_STEPS = 20
PROBE_PI_WEIGHTED = True

_POSITIVE = ("positive and finite", lambda v: 0.0 < v < math.inf)
_NONNEGATIVE = ("nonnegative and finite", lambda v: 0.0 <= v < math.inf)
_UNIT = ("in (0, 1]", lambda v: 0.0 < v <= 1.0)

# Allowed values of every float field of PlannerConfig. A NaN fails every
# rule. An infinite risk cap means no cap.
_FLOAT_RULES = {
    "dt": _POSITIVE,
    "entropy_weight": _NONNEGATIVE,
    "cvar_level": _UNIT,
    "risk_cap": ("nonnegative (.inf in YAML for no cap)", lambda v: v >= 0.0),
    "mode_activation_eps": _POSITIVE,
    "discount": _UNIT,
    "response_gain": _POSITIVE,
    "accel_noise_var": _NONNEGATIVE,
    "ref_speed": _POSITIVE,
    "obs_noise_std": _NONNEGATIVE,
    "solver_step": _POSITIVE,
    "penalty_weight": _NONNEGATIVE,
}

# Least allowed value of every integer field of PlannerConfig.
_INT_LEAST = {
    "horizon_steps": 1,
    "rollout_count": 1,
    "obs_samples": 1,
    "solver_iters": 0,
    "solver_segments": 1,
    "solver_inits": 2,
    "probe_grid_size": 2,
}

# Most nodes per mode of the probe grid; ``hermgauss``'s weights turn NaN from 371.
MAX_OBS_NODES = 100


def _is_real(value) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class PlannerConfig:
    """All planner tunables. Defaults follow the best-performing parameter
    set of the evaluation study (S=100, alpha=0.05, beta=5, lambda=0.5,
    gamma=0.95, eps=1e-5, 30 steps at 0.1 s)."""

    horizon_steps: int = 30
    dt: float = 0.1
    entropy_weight: float = 0.5
    cvar_level: float = 0.05
    rollout_count: int = 100
    risk_cap: float = 60.0
    mode_activation_eps: float = 1e-5
    accel_bounds: tuple[float, float] = (-3.0, 3.0)
    yaw_rate_bounds: tuple[float, float] = (-0.6, 0.6)
    discount: float = 0.95
    response_gain: float = 5.0
    accel_noise_var: float = 0.05
    obs_samples: int = 3  # Gauss-Hermite nodes per mode of the probe grid
    ref_speed: float = 9.5
    obs_noise_std: float = 0.3
    solver_iters: int = 6
    solver_step: float = 0.6
    solver_segments: int = 3
    solver_inits: int = 5
    penalty_weight: float = 100.0
    probe_grid_size: int = 7

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            # Annotations are strings under ``from __future__ import annotations``.
            if f.type == "int" and not _is_integer(value):
                raise InvalidInputError(f"{f.name} must be an integer, got {value!r}")
            if f.type == "int" and value < _INT_LEAST[f.name]:
                raise InvalidInputError(
                    f"{f.name} must be >= {_INT_LEAST[f.name]}, got {value!r}"
                )
            if f.type == "float":
                want, ok = _FLOAT_RULES[f.name]
                if not (_is_real(value) and ok(value)):
                    raise InvalidInputError(f"{f.name} must be {want}, got {value!r}")
        if self.obs_samples > MAX_OBS_NODES:
            raise InvalidInputError(f"obs_samples must be <= {MAX_OBS_NODES}, got {self.obs_samples}")
        for name in ("accel_bounds", "yaw_rate_bounds"):
            bounds = getattr(self, name)
            if not (
                isinstance(bounds, (tuple, list))
                and len(bounds) == 2
                and all(_is_real(v) and math.isfinite(v) for v in bounds)
                and bounds[0] < bounds[1]
            ):
                raise InvalidInputError(
                    f"{name} must be a finite (min, max) pair with min < max, got {bounds!r}"
                )
        if self.segment_steps * (self.solver_segments - 1) >= self.horizon_steps:
            raise InvalidInputError(
                f"solver_segments={self.solver_segments} leaves a segment empty: segments of "
                f"{self.segment_steps} steps fill horizon_steps={self.horizon_steps} in "
                f"{-(-self.horizon_steps // self.segment_steps)}"
            )

    @property
    def segment_steps(self) -> int:
        """Steps per solver segment, ceil(T / P); only the last may be shorter."""
        return -(-self.horizon_steps // self.solver_segments)

    @property
    def u_min(self) -> np.ndarray:
        return np.array([self.accel_bounds[0], self.yaw_rate_bounds[0]])

    @property
    def u_max(self) -> np.ndarray:
        return np.array([self.accel_bounds[1], self.yaw_rate_bounds[1]])


class _ReadOnce:
    """A record whose ``cvar_pre``, ``cvar_solution`` or ``margin`` may hold a
    callable until its first read stores what it returns (solver notes); a
    pickle or deep copy holds the values."""

    def __getattribute__(self, name: str):
        value = object.__getattribute__(self, name)
        if name in ("cvar_pre", "cvar_solution", "margin") and callable(value):
            value = self.__dict__[name] = value()
        return value

    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class ModeDiag(_ReadOnce):
    """Per-mode planning record (one entry per mode target, active or not);
    ``cvar_pre``, and a certified pick's CVaR, are scored on first read."""

    intent_id: int
    mode_id: int
    omega: float
    active: bool
    cvar_pre: float
    cvar_solution: float = math.nan
    margin: float = math.nan
    infeasible: bool = False
    objective: float = math.nan
    j_probe: float = math.nan
    j_influence: float = math.nan
    # Starts and line-search trials a one-at-a-time search scores, repeats
    # too; not the trials scored after a chain's first win and dropped.
    evals: int = 0
    nu: np.ndarray | None = None


@dataclass(frozen=True)
class PlanDiagnostics:
    """Everything one receding-horizon step decided and why; each mode's
    ``cvar_pre`` is scored on its first read. The entropies differ in form:
    ``entropy_before`` is ``entropy(b)``, the two-term form traces report;
    ``expected_entropy_after`` reads the probe grid, whose rows weigh each
    intent's mode entropy by its mass (``PROBE_PI_WEIGHTED``)."""

    entropy_before: float
    expected_entropy_after: float
    modes: tuple[ModeDiag, ...]
    u_total: np.ndarray
    u_first: np.ndarray
    j_probe: float
    j_influence: float
    solver_evals: int
    blend_fallback: bool
    infeasible_any: bool


# ---------------------------------------------------------------------------
# Lane guidance (lateral channel)


def lane_guidance(state: ScenarioState, cfg: PlannerConfig) -> tuple[np.ndarray, np.ndarray]:
    """Yaw-rate sequence (T,) steering the ego onto its target lane, and the
    ego headings (2, T) it implies: column t holds the cosine and sine of
    the heading during step t, before that step's yaw. The headings ignore
    acceleration, so one step's candidate plans all share them.

    Rolled out against a constant-velocity human, with the coasting ego
    stepped as ``dynamics.step_vehicle`` steps it; the merge onto the main
    lane is only commanded once past the merge point (x > 0) with an
    adequate longitudinal gap (or once the lane change is committed).
    """
    geometry, dt = state.geometry, cfg.dt
    lo, hi = cfg.yaw_rate_bounds
    rows = []
    # Coasting holds the speed; step_vehicle's clamp only maps -0.0 to 0.0.
    x, y, v, theta = state.ego.x, state.ego.y, state.ego.v, state.ego.theta
    human_x = state.human.x
    human_vx = state.human.v * math.cos(state.human.theta)
    committed = abs(y - geometry.ramp_y) > 1.0
    for _ in range(cfg.horizon_steps):
        if geometry.kind != LANE_MERGE:
            y_des = geometry.target_lane_y
        elif x > 0.0 and (abs(x - human_x) >= geometry.merge_gap_min or committed):
            y_des = geometry.target_lane_y
            committed = committed or abs(y - geometry.ramp_y) > 1.0
        else:
            y_des = geometry.ramp_y
        heading_des = math.atan2(1.2 * (y_des - y), max(v, 2.0))
        heading_des = min(0.35, max(-0.35, heading_des))
        rate = min(hi, max(lo, 4.0 * (heading_des - theta)))
        cos_t, sin_t = math.cos(theta), math.sin(theta)
        rows.append((rate, cos_t, sin_t))
        x += v * cos_t * dt
        y += v * sin_t * dt
        theta = _wrap_angle(theta + rate * dt)
        human_x += human_vx * dt
    yaw, cos_h, sin_h = zip(*rows)
    return np.array(yaw), np.array((cos_h, sin_h))


# ---------------------------------------------------------------------------
# Predicted interaction distribution and influence objective


def _linear_terminal_state(
    s0: float, v0: float, accel: np.ndarray, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Terminal (progress, speed) of the double-integrator planning model
    under an acceleration sequence (T,), or per row of sequences (K, T)."""
    v_path = v0 + dt * accel.cumsum(axis=-1)
    v_prev = np.empty_like(v_path)
    v_prev[..., 0] = v0
    v_prev[..., 1:] = v_path[..., :-1]
    s_t = s0 + dt * v_prev.sum(axis=-1) + 0.5 * dt * dt * accel.sum(axis=-1)
    return s_t, v_path[..., -1]


def _mode_human_advance(
    human: VehicleState,
    mode: ModeTarget,
    conflict: float,
    cfg: PlannerConfig,
) -> float:
    """Predicted human progress gain over the horizon if it follows the
    mode: speed relaxes toward the mode's velocity mean at a rate scaled
    by the current conflict level."""
    horizon = cfg.horizon_steps * cfg.dt
    mu = max(0.0, float(mode.target.mean[0]))
    rate = cfg.response_gain * conflict
    if rate < 1e-9:
        return human.v * horizon
    return mu * horizon + (human.v - mu) * (1.0 - math.exp(-rate * horizon)) / rate


def ego_horizon_covariance(cfg: PlannerConfig) -> np.ndarray:
    """Ego (position, velocity) covariance at the horizon end under the
    planning model, a double integrator (exact zero-order hold) driven by
    acceleration noise of variance ``accel_noise_var``; independent of the
    control sequence."""
    dt = cfg.dt
    a = np.array([[1.0, dt], [0.0, 1.0]])
    b = np.array([[0.5 * dt * dt], [dt]])
    bwb = b @ np.array([[cfg.accel_noise_var]]) @ b.T
    sigma = np.diag([INIT_POS_STD**2, INIT_VEL_STD**2])
    for _ in range(cfg.horizon_steps):
        out = a @ sigma @ a.T + bwb
        sigma = 0.5 * (out + out.T)
    return sigma


# ---------------------------------------------------------------------------
# Observation prediction and expected posterior entropy


def probe_projection(
    state: ScenarioState, first_accels: Sequence[float], cfg: PlannerConfig
) -> tuple[list[VehicleState], VehicleState, float]:
    """Project the encounter forward with each first acceleration held fixed.

    A single 0.1 s step barely moves the conflict geometry, which would
    leave the probing objective with a vanishing gradient; holding the
    first planned control for ``PROBE_LOOKAHEAD_STEPS`` exposes the
    response the control actually elicits. The human cruises during the
    projection (its reaction enters through the response-time relaxation),
    so one projected human serves every acceleration. Returns the projected
    ego per acceleration, the projected human and the projection time.

    No vehicle yaws, so each heading holds: one ``risk.simulate_ego_path``
    call rolls every ego along its constant heading, and one the human.
    """
    accel = np.array([float(a) for a in first_accels])
    if not np.isfinite(accel).all():
        raise InvalidInputError("non-finite control input")
    steps = PROBE_LOOKAHEAD_STEPS
    # Adding 0.0 maps a -0.0 heading to the 0.0 that step_vehicle holds from
    # its second step on; after two or more steps the bits agree either way.
    theta = [state.ego.theta + 0.0, state.human.theta + 0.0]
    ego_h, human_h = (np.repeat([[math.cos(t)], [math.sin(t)]], steps, axis=1) for t in theta)
    ends = [p[..., -1].tolist() for p in simulate_ego_path(
        state.ego, accel[:, None].repeat(steps, axis=1), ego_h, cfg.dt)]
    egos = [VehicleState(x, y, v, theta[0]) for x, y, v in zip(*ends)]
    x, y, v = (p[-1].item() for p in simulate_ego_path(state.human, np.zeros(steps), human_h, cfg.dt))
    return egos, VehicleState(x, y, v, theta[1]), steps * cfg.dt


def predicted_observation_mean(
    egos: Sequence[VehicleState],
    human_ref: VehicleState,
    geometry: ScenarioGeometry,
    modes: Sequence[ModeTarget],
    cfg: PlannerConfig,
    response_time: float,
) -> np.ndarray:
    """Expected observed speed (len(egos), len(modes)) if the human follows
    each of ``modes``, against each (possibly projected) reference ego of
    ``egos``: its speed relaxes toward the mode's velocity mean at a rate
    set by the conflict level of that ego and ``human_ref``, integrated over
    ``response_time`` seconds. The rate is the same for every mode."""
    levels = [conflict_level(ego, human_ref, geometry, cfg.response_gain,
                             geometry.risk_threshold, geometry.nominal_human_speed) for ego in egos]
    relax = np.array([1.0 - math.exp(-cfg.response_gain * c * response_time) for c in levels])
    mu = np.array([mode.target.mean[0] for mode in modes], dtype=float)
    return human_ref.v + relax[:, None] * (mu - human_ref.v)


@lru_cache(maxsize=None)
def observation_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Hermite rule for a standard normal, exact up to degree
    2n - 1: nodes sqrt(2) x_i and probabilities w_i / sqrt(pi) of ``hermgauss``
    (Golub & Welsch 1969). Cached: ``hermgauss`` solves an n x n eigenproblem."""
    x, w = np.polynomial.hermite.hermgauss(n)
    nodes, probs = math.sqrt(2.0) * x, w / math.sqrt(math.pi)
    nodes.flags.writeable = probs.flags.writeable = False
    return nodes, probs


# ---------------------------------------------------------------------------
# Per-mode constrained solve

_UNSCORED = -1.0  # an unscored row's CVaR (solver notes): costs, so CVaRs, are >= 0


@dataclass
class _StepContext:
    """Per-step setup shared by every planner and every mode solve.

    Every per-mode value lies on one mode axis ``m``, the mode's position
    in ``belief.targets.targets``: ``omega`` and ``active`` (M,),
    ``human_paths`` (M, 2, S, T) with each mode's x and y planes,
    ``human_boxes`` (M, 4, T) with their ``risk.sample_boxes``, and
    ``cvar_pre``, whose first call scores every mode's reference CVaR (M,).
    ``solve`` lists the modes a planner solves: the active ones, or the
    argmax-omega mode when none is active."""

    cfg: PlannerConfig
    state: ScenarioState
    belief: HierarchicalBelief
    guidance_yaw: np.ndarray
    headings: np.ndarray
    discount_weights: np.ndarray
    probe_grid: np.ndarray | None
    probe_entropy: np.ndarray | None
    entropy_weight: float
    omega: np.ndarray
    active: np.ndarray
    solve: list[int]
    human_paths: np.ndarray
    human_boxes: np.ndarray
    cvar_pre: _Batch
    path_bases: tuple[np.ndarray, np.ndarray]

    @cached_property
    def blend_weights(self) -> np.ndarray:
        """The executed mix's convex weights: the solved modes' joint weights
        over their exact sum, so a lone solved mode weighs exactly 1.0."""
        return self.omega[self.solve] / math.fsum(self.omega[self.solve])

    @cached_property
    def _probe_slopes(self) -> np.ndarray:
        """The probing term's slope on each piece of the grid (G - 1,)."""
        grid, h = self.probe_grid, self.probe_entropy
        return self.entropy_weight * ((h[1:] - h[:-1]) / (grid[1:] - grid[:-1]))

    def probe_terms(self, first_accels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The probing term of each first acceleration (K), the entropy
        weight times the expected posterior entropy, and its slope.
        Minimizing it drives the expected posterior uncertainty down."""
        if self.probe_grid is None:
            return np.zeros(len(first_accels)), np.zeros(len(first_accels))
        grid = self.probe_grid
        # np.interp's piece: the one right of an inner node, the last at the top.
        slopes = self._probe_slopes.take(np.searchsorted(grid[1:-1], first_accels, side="right"))
        return self.entropy_weight * np.interp(first_accels, grid, self.probe_entropy), slopes

    def ego_paths(self, thetas: np.ndarray) -> np.ndarray:
        """x, y and speeds (3, K, T) of the ego under segment vectors (K, P),
        composed from the step's ``path_bases`` (``_compose_ego_paths``)."""
        return _compose_ego_paths(self.state.ego, thetas, self.path_bases, self.headings, self.cfg)

    def mode_diag(self, m: int, cvar_solution: float | Callable = math.nan, **solved) -> ModeDiag:
        """Mode ``m``'s record; ``solved`` carries the fields its solve set. A
        callable ``cvar_solution`` defers it and the margin to their first read."""
        t, cap = self.belief.targets.targets[m], self.cfg.risk_cap
        margin = (lambda: cap - cvar_solution()) if callable(cvar_solution) else cap - cvar_solution
        return ModeDiag(
            intent_id=t.intent_id, mode_id=t.mode_id, omega=float(self.omega[m]),
            active=bool(self.active[m]), cvar_pre=partial(self.cvar_pre, m),
            cvar_solution=cvar_solution, margin=margin, **solved,
        )


class _Batch:
    """The CVaRs at level ``alpha`` of the rows of ``costs()``, scored on the
    first call (solver notes), which drops ``costs`` and the inputs it holds."""

    def __init__(self, costs: Callable[[], np.ndarray], alpha: float):
        self._costs, self._alpha = costs, alpha

    def __call__(self, i: int) -> float:
        if self._costs:
            self._values, self._costs = cvar(self._costs(), self._alpha).tolist(), None
        return self._values[i]


def _accels(thetas: np.ndarray, cfg: PlannerConfig) -> np.ndarray:
    """Acceleration sequences (..., T) of segment vectors (..., P): each
    segment's value over its steps."""
    return thetas.take(np.arange(cfg.horizon_steps) // cfg.segment_steps, axis=-1)


_AT_REST = VehicleState(0.0, 0.0, 0.0)


def _ego_path_bases(
    ego: VehicleState, headings: np.ndarray, cfg: PlannerConfig
) -> tuple[np.ndarray, np.ndarray]:
    """``simulate_ego_path``'s x, y and speeds along ``headings`` of the
    ego coasting (3, 1, T), and from rest at the origin under each
    segment's indicator (P, 3, 1, T): the bases ``_compose_ego_paths``
    composes a step's ego paths from."""
    coast = simulate_ego_path(ego, np.zeros(cfg.horizon_steps), headings, cfg.dt)
    unit = simulate_ego_path(_AT_REST, _accels(np.eye(cfg.solver_segments), cfg), headings, cfg.dt)
    return np.array(coast)[:, None], np.ascontiguousarray(np.array(unit).swapaxes(0, 1))[:, :, None]


def _compose_ego_paths(
    ego: VehicleState, thetas: np.ndarray, bases: tuple[np.ndarray, np.ndarray],
    headings: np.ndarray, cfg: PlannerConfig,
) -> np.ndarray:
    """x, y and speeds (3, K, T) of ``ego`` under segment vectors (K, P).
    While no speed reaches zero the path is affine in the accelerations:
    the coasting path plus each segment's path from rest (``bases``) times
    the segment's acceleration, one multiply-add per segment in segment
    order, so each row equals its own call at any K (a BLAS product's
    rounding depends on the row count). A row whose composed speeds reach
    zero or hold a NaN is ``simulate_ego_path``'s reflected walk instead,
    the branch that kernel takes."""
    (coast, unit), coef = bases, thetas.T[:, :, None]
    paths = np.multiply(coef[0], unit[0])
    paths += coast
    product = np.empty_like(paths)
    for c, u in zip(coef[1:], unit[1:]):
        paths += np.multiply(c, u, out=product)
    if not paths[2].min() > 0.0:
        walk = np.flatnonzero(~(np.minimum.reduce(paths[2], axis=1) > 0.0))
        paths[:, walk] = simulate_ego_path(ego, _accels(thetas[walk], cfg), headings, cfg.dt)
    return paths


def _shared_starts(cfg: PlannerConfig) -> tuple[np.ndarray, np.ndarray]:
    """The starts every chain of every planner shares, (N, P) and (B, P):
    coasting and evenly spaced constant accelerations, and the bursts, each
    within the bounds (coasting is clipped to them when they exclude zero)."""
    (a_lo, a_hi), segments = cfg.accel_bounds, cfg.solver_segments
    consts = np.linspace(a_lo, a_hi, cfg.solver_inits)
    head = np.repeat(np.append(np.clip(0.0, a_lo, a_hi), consts)[:, None], segments, axis=1)
    tail = np.empty((0, segments))
    if segments > 1:
        # Bursts: an extreme first segment with a steady tail. The constant
        # starts' terminal (speed, progress) lie on one line; a burst leaves
        # it, e.g. braking first trades progress for terminal speed.
        tail = np.repeat(np.repeat(consts, 2)[:, None], segments, axis=1)
        tail[:, 0] = np.tile([a_lo, a_hi], len(consts))
    return head, tail


def _start_candidates(
    cfg: PlannerConfig, shared: tuple[np.ndarray, np.ndarray], warm: np.ndarray | None,
    chains: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Multi-start segment vectors of every chain: the ``shared`` head, the
    warm start's segment-window means (no row without a warm start) and the
    shared bursts, one set tiled once per chain. Returns the vectors (K, P),
    chain after chain, and the chain of each (K,)."""
    head, tail = shared
    if warm is not None:
        # Each window's mean as np.mean takes it: its sum over its length.
        windows = [warm[i:i + cfg.segment_steps] for i in range(0, len(warm), cfg.segment_steps)]
        means = np.clip([w.sum() / len(w) for w in windows], *cfg.accel_bounds)
        head = np.vstack((head, means))
    starts = np.concatenate((head, tail))
    return np.tile(starts, (chains, 1)), np.arange(chains).repeat(len(starts))


def _descend(
    evaluate: Callable[..., tuple[np.ndarray, np.ndarray]],
    starts: tuple[np.ndarray, np.ndarray],
    cfg: PlannerConfig,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The solver loop every planner shares: one descent chain per start
    set of ``starts`` (see ``_start_candidates``), in phase-aligned rounds
    (see the solver notes). A chain stops when its gradient vanishes or is
    not finite, or when its three line-search trials fail. A round is one
    ``evaluate(thetas, chains, bar)`` call: pair i is segment vector
    ``thetas[i]`` (P,) of chain ``chains[i]``. It gives one row (K, F) per
    pair, objective first, and the objective's gradient (K, P) in the
    pair's segment vector, which is read only where the pair becomes its
    chain's state: it need be exact only at a chain's start pick and at its
    first winning trial in a round. No decision reads a row
    whose objective is above its ``bar``: the win threshold (K,) in a line
    search, ``None`` (only ``evaluate`` knows it) in the start round. Pairs
    come in ascending chain order, a line search's k-major (trial k = 0, 1,
    2). Returns, per chain, its final segment vector (P,) and row (F,), and
    every vector (H, P) and row (H, F) it was scored on, in order, but the
    trials after its first win in a round: the history of a one-at-a-time
    search.
    """
    (a_lo, a_hi), (thetas, chains) = cfg.accel_bounds, starts
    o = 1 + cfg.solver_segments  # a pair's row: chain, theta, evaluate's row

    rows, grads = evaluate(thetas, chains, None)
    log = [np.concatenate((chains[:, None], thetas, rows), 1)]
    # argmin keeps the first start among equal objectives.
    sizes = np.bincount(chains).tolist()
    picks = [i + int(rows[i:i + n, 0].argmin()) for i, n in zip(np.cumsum([0] + sizes), sizes)]
    state, slope = log[0].take(picks, axis=0), grads.take(picks, axis=0)

    # Halving is exact, so each trial equals the one-at-a-time search's.
    trial_steps = np.array([cfg.solver_step, cfg.solver_step * 0.5, cfg.solver_step * 0.5 * 0.5])
    trial_steps, trial_ids = trial_steps[:, None, None], np.arange(3)[:, None]
    live = np.arange(len(sizes))
    for _ in range(cfg.solver_iters):
        grad = slope.take(live, axis=0)
        scale = np.maximum.reduce(np.abs(grad), axis=1)
        # A NaN or infinite gradient (an infinite objective) gives no direction.
        go = (scale >= 1e-12) & (scale < np.inf)
        live, grad, scale = live.compress(go), grad.compress(go, axis=0), scale.compress(go)
        if not live.size:
            break
        cur = state.take(live, axis=0)
        # Every trial k of every live chain in one round, k-major. Every start
        # lies within the bounds, and so does every trial: the clip is
        # np.minimum(np.maximum(...)), np.clip without its wrappers, whose
        # values agree but for a -0.0 theta at a +0.0 bound, which no step makes.
        trials = np.minimum(
            np.maximum(cur[:, 1:o] - trial_steps * (grad / scale[:, None]), a_lo), a_hi
        ).reshape(-1, o - 1)
        bar = cur[:, o] - 1e-12
        chains, bars = np.concatenate((live, live, live)), np.concatenate((bar, bar, bar))
        rows, grads = evaluate(trials, chains, bars)
        pairs = np.concatenate((chains[:, None], trials, rows), axis=1)
        won = pairs[:, o].reshape(3, -1) < bar
        hit = np.logical_or.reduce(won, axis=0)
        # A chain keeps its trials up to its first win. The later ones are
        # dropped unlogged: the one-at-a-time search never scores them.
        first = np.where(hit, won.argmax(axis=0), 2)
        log.append(pairs.compress((trial_ids <= first).ravel(), axis=0))
        live = live.compress(hit)
        taken = (first * hit.size + np.arange(hit.size)).compress(hit)
        state[live], slope[live] = pairs.take(taken, axis=0), grads.take(taken, axis=0)

    # One stable sort splits the log by chain, each chain's rows in order.
    log = np.concatenate(log)
    log = log.take(np.argsort(log[:, 0], kind="stable"), axis=0)
    ends = np.searchsorted(log[:, 0], np.arange(len(sizes)), side="right").tolist()
    return [(s[1:o], s[o:], log[a:b, 1:o], log[a:b, o:])
            for s, a, b in zip(state, [0] + ends, ends)]


def _segment_sums(per_step: np.ndarray, cfg: PlannerConfig) -> np.ndarray:
    """Rows (R, T) summed over each solver segment's steps: (R, P), the
    gradient in the segment vector from the gradient in the accelerations."""
    padded = np.zeros((len(per_step), cfg.solver_segments, cfg.segment_steps))
    padded.reshape(len(per_step), -1)[:, :cfg.horizon_steps] = per_step
    return padded.sum(axis=-1)


def _mode_costs(
    ctx: _StepContext, ego_paths: Sequence[np.ndarray], modes: np.ndarray
) -> np.ndarray:
    """Cost block (R, S) of each ego path ``r`` (``ego_paths`` holds x, y
    and speeds, each (R, T)) against the human paths of mode ``modes[r]``:
    one ``path_costs`` block per mode."""
    x, y, speeds = ego_paths
    out = np.empty((len(modes), ctx.cfg.rollout_count))
    for m in dict.fromkeys(modes.tolist()):
        g = np.flatnonzero(modes == m)
        out[g] = path_costs(x[g], y[g], speeds[g], ctx.human_paths[m], ctx.discount_weights,
                            ctx.cfg.ref_speed)
    return out


def _tail_gradients(
    ctx: _StepContext, ego_paths: Sequence[np.ndarray], modes: np.ndarray, costs: np.ndarray
) -> np.ndarray:
    """Gradient (R, P) of each ego path's CVaR against mode ``modes[r]``,
    whose cost block is ``costs`` (R, S): the mean cost gradient over the
    path's tail samples, through the path's own reflected walk."""
    cfg = ctx.cfg
    x, y, speeds = ego_paths
    tail = cvar_tail(costs, cfg.cvar_level)
    samples = ctx.human_paths[modes[:, None, None], np.arange(2)[:, None], tail[:, None]]
    sens = path_cost_gradient(x, y, speeds, samples, ctx.discount_weights, cfg.ref_speed)
    return _segment_sums(ego_path_gradient(sens, speeds, ctx.headings, cfg.dt), cfg)


def _controls(ctx: _StepContext, accel: np.ndarray) -> np.ndarray:
    """Control sequence (T, 2): ``accel`` with the step's lane guidance,
    both already clipped to the control bounds (by the descent and the law)."""
    return np.column_stack((accel, ctx.guidance_yaw))


# ---------------------------------------------------------------------------
# Receding-horizon planners


class ActivePlanner:
    """Full planner: probing + influence + per-mode CVaR-capped solves."""

    name = "ours"

    def __init__(self, cfg: PlannerConfig, key: int, targets: ModeTargetSet):
        """The planner of one run: ``key`` is the run's key, and ``targets``
        the target set of every belief the run plans on."""
        self.cfg = cfg
        self.targets = targets
        # The executed plan shifted by one step: the next step's reference plan
        # and every chain's warm start, all a step leaves to the next.
        self._ref_accel: np.ndarray | None = None
        self._ego_sigma = ego_horizon_covariance(cfg)
        self._discount_weights = cfg.discount ** np.arange(cfg.horizon_steps)
        self._shared_starts = _shared_starts(cfg)
        # d(terminal speed, terminal progress)/d segment vector (2, P): the
        # terminal state is linear in the sequence, so the state from rest at
        # 0 under each segment's indicator.
        indicators = _accels(np.eye(cfg.solver_segments), cfg)
        s_t, v_t = _linear_terminal_state(0.0, 0.0, indicators, cfg.dt)
        self._terminal_jacobian = np.array((v_t, s_t))
        # The steering setup per (solved, steering) mode, built on first use.
        self._steering: dict[tuple[int, int], tuple[np.ndarray, float, np.ndarray]] = {}
        # The run's rollout arcs. Each mode's stream is keyed by the run and
        # the mode, so the draw order does not matter.
        self._rollouts = draw_human_paths(
            targets.targets, cfg.rollout_count, cfg.horizon_steps, cfg.dt,
            [rng_from_keys(key, STREAM_MODE_ROLLOUT, t.intent_id, t.mode_id)
             for t in targets.targets],
        )

    # Subclasses override these two hooks.
    def _entropy_weight(self) -> float:
        return self.cfg.entropy_weight

    def _steer_mode(self, ctx: _StepContext, m: int) -> int:
        """The mode whose steering target mode ``m``'s solve tracks."""
        return m

    def _build_probe_grid(
        self, state: ScenarioState, b: HierarchicalBelief
    ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Expected posterior entropy on a grid of first accelerations, or
        (None, None) when probing is off or the belief is already certain.
        Given mode k, the speed seen after holding a is N(mu_k(a), obs_noise_std^2),
        so point a's value is sum_k omega_k sum_i p_i H(b | mu_k(a) + obs_noise_std
        t_i) at the nodes (t, p) of ``observation_nodes`` (Huber et al., MFI 2008)."""
        cfg = self.cfg
        if self._entropy_weight() <= 0.0:
            return None, None
        h_now = entropy(b, PROBE_PI_WEIGHTED)
        if h_now <= 1e-12:
            return None, None
        nodes, probs = observation_nodes(cfg.obs_samples)
        omega = joint_weights(b)
        weights = ((omega / omega.sum())[:, None] * probs).ravel()
        grid = np.linspace(*cfg.accel_bounds, cfg.probe_grid_size)
        egos, human_ref, response_time = probe_projection(state, grid, cfg)
        mu = predicted_observation_mean(egos, human_ref, state.geometry, b.targets.targets, cfg,
                                        response_time)
        zs = (mu[:, :, None] + cfg.obs_noise_std * nodes).ravel()
        h = posterior_entropies(b, zs, h_now, PROBE_PI_WEIGHTED)
        # np.cumsum adds each point's rows mode-major, as a running sum does.
        return grid, np.cumsum(h.reshape(len(grid), -1) * weights, axis=1)[:, -1]

    def _solve_modes(self, ctx: _StepContext, steer_modes: list[int]) -> list[ModeDiag]:
        """Solve the modes of ``ctx.solve`` in lockstep, one descent chain
        each: chain c toward mode ``steer_modes[c]``'s steering target, every
        chain warm-started from the executed plan. Objective: probe +
        influence KL + cap penalty."""
        cfg, state, geometry = self.cfg, ctx.state, ctx.state.geometry
        modes = ctx.belief.targets.targets
        solve = np.array(ctx.solve)
        # KL(pred || target) decomposes into a control-independent constant
        # plus a quadratic in the predicted mean. The constant depends only
        # on target k and the predicted (speed, lead) covariance, which
        # holds the ego covariance and mode m's velocity variance.
        horizon = cfg.horizon_steps * cfg.dt
        pairs = list(zip(ctx.solve, steer_modes))
        for m, k in pairs:
            if (m, k) in self._steering:
                continue
            steer = modes[k].steer
            if steer is None:
                raise InvalidInputError(
                    f"mode ({modes[k].intent_id},{modes[k].mode_id}) has no steering target"
                )
            var_h_pos = float(modes[m].target.cov[0, 0]) * horizon * horizon
            cov_pred = self._ego_sigma[::-1, ::-1] + np.diag([0.0, var_h_pos])
            chol = np.linalg.cholesky(steer.cov)
            y0 = np.linalg.solve(chol, steer.mean)
            kl = kl_divergence(Gaussian(np.zeros(2), cov_pred), steer) - 0.5 * float(y0 @ y0)
            self._steering[m, k] = chol, kl, steer.mean
        chol_q, kl_const, steer_means = map(np.array, zip(*map(self._steering.get, pairs)))
        # The ego's start progress and the conflict level are the same for
        # every mode; s_h is each mode's predicted human progress.
        s0 = ego_progress(geometry, state.ego)
        c0 = conflict_level(state.ego, state.human, geometry, cfg.response_gain,
                            geometry.risk_threshold, geometry.nominal_human_speed)
        h0 = human_progress(geometry, state.human)
        s_h = np.array([h0 + _mode_human_advance(state.human, modes[m], c0, cfg) for m in solve])

        # j_infl = kl_const + |y|^2 / 2 with y = L^-1 delta, and delta is
        # affine in the segment vector: the terminal (speed, progress) is the
        # coasting one plus J theta (J the run's terminal Jacobian). So y is
        # its coasting value (C, 2) plus theta along G = -L^-1 J (C, 2, P),
        # per chain, and d j_infl / d theta = y^T G.
        s_c, v_c = _linear_terminal_state(s0, state.ego.v, np.zeros(cfg.horizon_steps), cfg.dt)
        linv, jac = np.linalg.inv(chol_q), self._terminal_jacobian
        delta = (steer_means[:, 0] - v_c)[:, None], (steer_means[:, 1] - (s_c - s_h))[:, None]
        y_coast = linv[:, :, 0] * delta[0] + linv[:, :, 1] * delta[1]
        g = -(linv[:, :, :1] * jac[0] + linv[:, :, 1:] * jac[1])

        def evaluate(thetas: np.ndarray, chains: np.ndarray, bar):
            pair_modes, g_c = solve[chains], g[chains]
            paths = ctx.ego_paths(thetas)
            certified = path_cost_bounds(
                *paths, ctx.human_boxes[pair_modes], ctx.discount_weights, cfg.ref_speed
            ) <= cfg.risk_cap * (1.0 - CERTIFY_MARGIN)
            j_probe, probe_slopes = ctx.probe_terms(thetas[:, 0])
            # y, one multiply-add per segment in segment order, as the paths.
            y = y_coast[chains]
            for p in range(cfg.solver_segments):
                y += thetas[:, p:p + 1] * g_c[:, :, p]
            y_sq = y * y
            j_infl = kl_const[chains] + 0.5 * (y_sq[:, 0] + y_sq[:, 1])
            lower = j_probe + j_infl  # the objective, but for the cap penalty
            line_search = bar is not None
            if not line_search:  # the start round: no pick lies above a certified start
                best = np.full(len(solve), np.inf)
                np.minimum.at(best, chains[certified], lower[certified])
                bar = best[chains]
            # Certified or unscored (solver notes): violation 0.0, objective the bound.
            cvars = np.where(certified, -np.inf, _UNSCORED)
            scored = np.flatnonzero(~(certified | (lower > bar)))
            if scored.size:
                costs = _mode_costs(ctx, paths[:, scored], pair_modes[scored])
                cvars[scored] = cvar(costs, cfg.cvar_level)
            violation = np.where(cvars > cfg.risk_cap, cvars - cfg.risk_cap, 0.0)
            obj = lower + cfg.penalty_weight * violation * violation
            # The gradient: the KL term's, the probe slope, and the cap
            # penalty's through the tail samples, which a line search's trial
            # needs only below its bar.
            grads = y[:, :1] * g_c[:, 0] + y[:, 1:] * g_c[:, 1]
            grads[:, 0] += probe_slopes
            hot = violation[scored] > 0.0
            if line_search:
                hot &= (obj < bar)[scored]
            if (hot := np.flatnonzero(hot)).size:
                pen = scored[hot]
                grads[pen] += 2.0 * cfg.penalty_weight * violation[pen, None] * _tail_gradients(
                    ctx, paths[:, pen], pair_modes[pen], costs[hot])
            return np.array((obj, cvars, j_probe, j_infl)).T, grads

        starts = _start_candidates(cfg, self._shared_starts, self._ref_accel, len(solve))
        picks = []
        for c, (theta, row, history, rows) in enumerate(_descend(evaluate, starts, cfg)):
            infeasible = False
            if row[1] > cfg.risk_cap:
                # Fall back to the first best feasible candidate, or when each breaks
                # the cap to the least risky, flagged: score the unscored ones first.
                if (lazy := np.flatnonzero(rows[:, 1] == _UNSCORED)).size:
                    rows[lazy] = evaluate(history[lazy], np.full(lazy.size, c), np.inf)[0]
                feasible = np.flatnonzero(rows[:, 1] <= cfg.risk_cap)
                infeasible = not feasible.size
                h = np.argmin(rows[:, 1]) if infeasible else feasible[np.argmin(rows[feasible, 0])]
                theta, row = history[h], rows[h]
            picks.append((theta, row.tolist(), infeasible, len(rows)))
        # A pick holding -inf defers its exact CVaR to the first read (solver notes).
        certified = [c for c, (_, row, _, _) in enumerate(picks) if row[1] == -math.inf]
        thetas, pick_modes = np.array([picks[c][0] for c in certified]), solve[certified]
        exact = _Batch(lambda: _mode_costs(ctx, ctx.ego_paths(thetas), pick_modes), cfg.cvar_level)
        for i, c in enumerate(certified):
            picks[c][1][1] = partial(exact, i)
        accels = _accels(np.array([theta for theta, _, _, _ in picks]), cfg)
        return [
            ctx.mode_diag(
                m, nu=_controls(ctx, accel), objective=obj, cvar_solution=cvar_val,
                j_probe=j_probe, j_influence=j_infl, infeasible=infeasible, evals=evals,
            )
            for m, accel, (_, (obj, cvar_val, j_probe, j_infl), infeasible, evals)
            in zip(solve, accels, picks)
        ]

    def _begin_step(self, state: ScenarioState, b: HierarchicalBelief) -> _StepContext:
        """Setup every planner's step shares: lane guidance with the ego
        headings it implies, probe grid, joint weights, the modes to solve,
        every mode's human rollouts (the run's arcs placed at the human's
        state), and the reference plan's deferred CVaR per mode."""
        cfg = self.cfg
        if b.targets is not self.targets:
            raise InvalidInputError("the belief's target set is not the planner's")
        guidance, headings = lane_guidance(state, cfg)
        probe_grid, probe_entropy = self._build_probe_grid(state, b)
        omega = joint_weights(b)
        active = omega > cfg.mode_activation_eps
        ref_accel = self._ref_accel if self._ref_accel is not None else np.zeros(cfg.horizon_steps)
        rollouts, weights = self._rollouts, self._discount_weights
        human_paths, human_boxes = place_human_paths(state.human, *rollouts)
        cvar_pre = _Batch(lambda: path_costs(
            *simulate_ego_path(state.ego, ref_accel, headings, cfg.dt),
            place_human_paths(state.human, *rollouts)[0], weights, cfg.ref_speed), cfg.cvar_level)
        return _StepContext(
            cfg=cfg, state=state, belief=b, guidance_yaw=guidance, headings=headings,
            discount_weights=weights, probe_grid=probe_grid, probe_entropy=probe_entropy,
            entropy_weight=self._entropy_weight(), omega=omega, active=active,
            # np.argmax keeps the first mode among equal maxima.
            solve=np.flatnonzero(active).tolist() or [int(np.argmax(omega))],
            human_paths=human_paths, human_boxes=human_boxes, cvar_pre=cvar_pre,
            path_bases=_ego_path_bases(state.ego, headings, cfg),
        )

    def _finish_step(
        self,
        ctx: _StepContext,
        solved: dict[int, ModeDiag],
        u_total: np.ndarray,
        solver_evals: int,
    ) -> tuple[np.ndarray, PlanDiagnostics]:
        """Record the executed plan for the next step's reference and warm
        start, and assemble the step's diagnostics from the solved modes'
        records, a bare record for every other mode, and the solved modes'
        probe and influence terms in the convex mix of ``ctx.blend_weights``."""
        mode_diags = tuple(solved.get(m) or ctx.mode_diag(m) for m in range(len(ctx.omega)))
        w_probe = w_infl = 0.0
        for w, d in zip(ctx.blend_weights.tolist(), solved.values()):  # in target order
            w_probe += w * d.j_probe
            w_infl += w * d.j_influence

        self._ref_accel = np.append(u_total[1:, 0], u_total[-1, 0])
        u_first = u_total[0].copy()
        h_after = math.nan if ctx.probe_grid is None else float(
            np.interp(u_first[0], ctx.probe_grid, ctx.probe_entropy))
        return u_first, PlanDiagnostics(
            entropy_before=entropy(ctx.belief), expected_entropy_after=h_after, modes=mode_diags,
            u_total=u_total, u_first=u_first, j_probe=w_probe, j_influence=w_infl,
            solver_evals=solver_evals, blend_fallback=not ctx.active.any(),
            infeasible_any=any(m.infeasible for m in mode_diags),
        )

    def plan_step(
        self, state: ScenarioState, b: HierarchicalBelief
    ) -> tuple[np.ndarray, PlanDiagnostics]:
        ctx = self._begin_step(state, b)
        solved = dict(zip(ctx.solve, self._solve_modes(
            ctx, [self._steer_mode(ctx, m) for m in ctx.solve])))

        # Execute the plans' convex mix: accelerations folded in target order, the shared yaw.
        accel = reduce(np.add, [w * d.nu[:, 0] for w, d in zip(ctx.blend_weights, solved.values())])
        u_total = np.clip(_controls(ctx, accel), self.cfg.u_min, self.cfg.u_max)
        return self._finish_step(ctx, solved, u_total, sum(d.evals for d in solved.values()))

