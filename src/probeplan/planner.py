"""Ego controller: entropy-driven probing, KL influence toward per-mode
interaction targets, CVaR-capped per-mode solves, and joint-weight
blending, applied in a receding-horizon loop (only the first control of
each solve is executed).

Solver notes. Every planner runs the same step: ``ActivePlanner._begin_step``
builds the shared setup (rng key, lane guidance with the ego headings it
implies, probe grid, joint weights, the modes to solve, every mode's human
paths as x and y planes, reference-plan CVaR per mode), all on one mode
axis ``m`` in target order. The probe grid is one batched
``belief.posterior_entropies`` pass over the distinct predicted
observation sets. ``_descend`` is the one solver loop. It runs one descent
chain per solve (``_chain``: multi-start over constant-acceleration
candidates, then projected finite-difference descent on a
piecewise-constant acceleration parameterization) and all chains of a step
in lockstep rounds: one per mode for the active and passive planners, one
for the conservative planner's omega-weighted CVaR sum. A round scores
every live chain's unseen sequences in one batched evaluation: one ego
path, terminal state and probe term per distinct sequence, one
``path_costs`` block over the modes that asked for it, one ``cvar`` and one
stacked triangular solve for the KL influence term over the round. A
chain scores each distinct sequence once; a repeat reuses the result but
still counts in ``ModeDiag.evals``. The lateral channel follows a fixed
lane-guidance law shared by every planner so cross-planner comparisons
isolate the longitudinal interaction machinery. The CVaR cap enters as a
quadratic penalty, and all Monte-Carlo quantities inside one solve reuse
fixed random streams (common random numbers), so the whole step is
bit-reproducible from its rng key.

In a mode solve the CVaR enters only through the cap penalty
``max(0, CVaR - risk_cap)^2``, so a pair whose ``risk.path_cost_bounds``
against the mode's ``risk.sample_boxes`` is at most
``risk_cap * (1 - CERTIFY_MARGIN)`` gets no cost block: it holds a CVaR of
``-inf``, which leaves its penalty 0.0, as the exact value would, and keeps
it feasible. The round's one ego path serves the bounds and the exact
blocks. After the descent, the picks that hold the sentinel are scored
exactly in one batch, so ``ModeDiag.cvar_solution`` and ``margin`` are
always exact. The conservative planner minimizes the omega-weighted sum of
the CVaRs themselves, so it scores every candidate exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from .belief import (
    HierarchicalBelief,
    ModeTarget,
    entropy,
    joint_weights,
    max_entropy,
    posterior_entropies,
    update,  # noqa: F401 -- the benchmark wraps probeplan.planner.update by name
)
from .dynamics import VehicleState, step_vehicle
from .errors import InvalidInputError
from .gaussmath import Gaussian, kl_divergence
from .human import GAP, VELOCITY, conflict_level
from .risk import (
    CERTIFY_MARGIN,
    cvar,
    draw_human_paths,
    ego_headings,
    path_cost_bounds,
    path_costs,
    sample_boxes,
    simulate_ego_path,
)
from .seeding import (
    STREAM_MODE_ROLLOUT,
    STREAM_PROBE,
    derive_key,
    rng_from_keys,
)
from .world import (
    LANE_MERGE,
    ScenarioGeometry,
    ScenarioState,
    ego_progress,
    human_progress,
)

# Initial ego state uncertainty (position, velocity) for the predicted
# interaction distribution; grows over the horizon per the process noise.
INIT_POS_STD = 0.3
INIT_VEL_STD = 0.2

_FD_STEP = 0.05  # finite-difference probe, m/s^2 in segment space

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
    "risk_cap": ("nonnegative (inf for no cap)", lambda v: v >= 0.0),
    "mode_activation_eps": _POSITIVE,
    "discount": _UNIT,
    "response_gain": _POSITIVE,
    "accel_noise_var": _NONNEGATIVE,
    "ref_speed": _POSITIVE,
    "obs_noise_std": _NONNEGATIVE,
    "solver_step": _POSITIVE,
    "penalty_weight": _NONNEGATIVE,
}


def _is_real(value) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


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
    obs_samples: int = 20
    ref_speed: float = 9.5
    obs_noise_std: float = 0.3
    features: tuple[str, ...] = (VELOCITY,)
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
            if f.type == "int" and (
                isinstance(value, bool) or not isinstance(value, (int, np.integer))
            ):
                raise InvalidInputError(f"{f.name} must be an integer, got {value!r}")
            if f.type == "float":
                want, ok = _FLOAT_RULES[f.name]
                if not (_is_real(value) and ok(value)):
                    raise InvalidInputError(f"{f.name} must be {want}, got {value!r}")
        if self.horizon_steps < 1:
            raise InvalidInputError("horizon_steps must be >= 1")
        if self.rollout_count < 1:
            raise InvalidInputError("rollout_count must be >= 1")
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
        if self.obs_samples < 1 or self.probe_grid_size < 2:
            raise InvalidInputError("obs_samples >= 1 and probe_grid_size >= 2 required")
        if self.solver_segments < 1 or self.solver_iters < 0 or self.solver_inits < 2:
            raise InvalidInputError("invalid solver budget")
        features = self.features
        if not (
            isinstance(features, (tuple, list))
            and features
            and all(isinstance(f, str) and f in (VELOCITY, GAP) for f in features)
        ):
            raise InvalidInputError(
                f"features must be a non-empty subset of {(VELOCITY, GAP)}, got {features!r}"
            )

    @property
    def u_min(self) -> np.ndarray:
        return np.array([self.accel_bounds[0], self.yaw_rate_bounds[0]])

    @property
    def u_max(self) -> np.ndarray:
        return np.array([self.accel_bounds[1], self.yaw_rate_bounds[1]])


@dataclass(frozen=True)
class ModeDiag:
    """Per-mode planning record (one entry per mode target, active or not)."""

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
    evals: int = 0  # candidates scored, repeats included
    nu: np.ndarray | None = None


@dataclass(frozen=True)
class PlanDiagnostics:
    """Everything one receding-horizon step decided and why."""

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


def _guidance_yaw_rate(
    ego: VehicleState,
    human_x: float,
    geometry: ScenarioGeometry,
    cfg: PlannerConfig,
    committed: bool,
) -> tuple[float, bool]:
    if geometry.kind == LANE_MERGE:
        past_merge = ego_progress(geometry, ego) > 0.0
        gap_ok = abs(ego.x - human_x) >= geometry.merge_gap_min
        if past_merge and (gap_ok or committed):
            y_des = geometry.target_lane_y
            committed = committed or abs(ego.y - geometry.ramp_y) > 1.0
        else:
            y_des = geometry.ramp_y
    else:
        y_des = geometry.target_lane_y
    heading_des = math.atan2(1.2 * (y_des - ego.y), max(ego.v, 2.0))
    heading_des = min(0.35, max(-0.35, heading_des))
    yaw = 4.0 * (heading_des - ego.theta)
    lo, hi = cfg.yaw_rate_bounds
    return min(hi, max(lo, yaw)), committed


def lane_guidance(state: ScenarioState, cfg: PlannerConfig) -> np.ndarray:
    """Yaw-rate sequence (T,) steering the ego onto its target lane.

    Rolled out against a constant-velocity human; the merge onto the main
    lane is only commanded once past the merge point with an adequate
    longitudinal gap (or once the lane change is already committed).
    """
    yaw = np.empty(cfg.horizon_steps)
    ego = state.ego
    human_x = state.human.x
    human_vx = state.human.v * math.cos(state.human.theta)
    committed = abs(ego.y - state.geometry.ramp_y) > 1.0
    for t in range(cfg.horizon_steps):
        yaw[t], committed = _guidance_yaw_rate(ego, human_x, state.geometry, cfg, committed)
        ego = step_vehicle(ego, (0.0, yaw[t]), cfg.dt)
        human_x += human_vx * cfg.dt
    return yaw


# ---------------------------------------------------------------------------
# Predicted interaction distribution and influence objective


def _linear_terminal_state(
    s0: float, v0: float, accel: np.ndarray, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Terminal (progress, speed) of the double-integrator planning model
    under an acceleration sequence (T,), or per row of sequences (K, T)."""
    v_path = v0 + dt * np.cumsum(accel, axis=-1)
    v_prev = np.empty_like(v_path)
    v_prev[..., 0] = v0
    v_prev[..., 1:] = v_path[..., :-1]
    s_t = s0 + dt * np.sum(v_prev, axis=-1) + 0.5 * dt * dt * np.sum(accel, axis=-1)
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


def _interaction_frame(
    state: ScenarioState, mode: ModeTarget, cfg: PlannerConfig, ego_sigma: np.ndarray
) -> tuple[float, float, np.ndarray]:
    """Control-independent parts of the predicted interaction distribution:
    ego start progress, predicted human progress at the horizon end if it
    follows ``mode``, and the (speed, lead) covariance."""
    geometry = state.geometry
    c0 = conflict_level(
        state.ego, state.human, geometry, cfg.response_gain,
        geometry.risk_threshold, geometry.nominal_human_speed,
    )
    s_h = human_progress(geometry, state.human) + _mode_human_advance(
        state.human, mode, c0, cfg
    )
    horizon = cfg.horizon_steps * cfg.dt
    var_h_pos = float(mode.target.cov[0, 0]) * horizon * horizon
    cov = np.array(
        [
            [ego_sigma[1, 1], ego_sigma[0, 1]],
            [ego_sigma[0, 1], ego_sigma[0, 0] + var_h_pos],
        ]
    )
    return ego_progress(geometry, state.ego), s_h, cov


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
    """
    egos = []
    for accel in first_accels:
        ego = state.ego
        for _ in range(PROBE_LOOKAHEAD_STEPS):
            ego = step_vehicle(ego, (float(accel), 0.0), cfg.dt)
        egos.append(ego)
    human = state.human
    for _ in range(PROBE_LOOKAHEAD_STEPS):
        human = step_vehicle(human, (0.0, 0.0), cfg.dt)
    return egos, human, PROBE_LOOKAHEAD_STEPS * cfg.dt


def predicted_observation_mean(
    ego_ref: VehicleState,
    human_ref: VehicleState,
    geometry: ScenarioGeometry,
    modes: Sequence[ModeTarget],
    cfg: PlannerConfig,
    response_time: float,
) -> np.ndarray:
    """Expected observation (len(modes), d) if the human follows each of
    ``modes``: its speed relaxes toward the mode's velocity mean at a rate
    set by the conflict level of the (possibly projected) reference
    configuration, integrated over ``response_time`` seconds. The conflict
    level, and so the rate, is the same for every mode."""
    c = conflict_level(
        ego_ref, human_ref, geometry, cfg.response_gain,
        geometry.risk_threshold, geometry.nominal_human_speed,
    )
    relax = 1.0 - math.exp(-cfg.response_gain * c * response_time)
    rows = []
    for mode in modes:
        v_pred = human_ref.v + relax * (float(mode.target.mean[0]) - human_ref.v)
        values = []
        for name in cfg.features:
            if name == VELOCITY:
                values.append(v_pred)
            elif name == GAP:
                step = v_pred * cfg.dt
                hx = human_ref.x + step * geometry.human_dir[0]
                hy = human_ref.y + step * geometry.human_dir[1]
                values.append(math.hypot(ego_ref.x - hx, ego_ref.y - hy))
            else:
                raise InvalidInputError(f"unknown observation feature {name!r}")
        rows.append(values)
    return np.array(rows)


def _observation_draws(
    b: HierarchicalBelief, n_obs: int, rng: np.random.Generator, cfg: PlannerConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Indices of ``n_obs`` modes drawn by joint weight, in target order,
    and observation noise (n_obs, d) for each."""
    omega = joint_weights(b)
    idxs = rng.choice(len(omega), size=n_obs, p=omega / omega.sum())
    noise = rng.normal(0.0, cfg.obs_noise_std, size=(n_obs, len(cfg.features)))
    return idxs, noise


# ---------------------------------------------------------------------------
# Per-mode constrained solve


@dataclass
class _StepContext:
    """Per-step setup shared by every planner and every mode solve.

    Every per-mode value lies on one mode axis ``m``, the mode's position
    in ``belief.targets.targets``: ``omega`` and ``active`` (M,),
    ``human_paths`` (M, 2, S, T) with each mode's x and y planes,
    ``human_boxes`` (M, 4, T) with their ``risk.sample_boxes``, and
    ``cvar_pre`` (M,). ``solve`` lists the modes a planner solves: the
    active ones, or the argmax-omega mode when none is active."""

    cfg: PlannerConfig
    state: ScenarioState
    belief: HierarchicalBelief
    guidance_yaw: np.ndarray
    headings: np.ndarray
    discount_weights: np.ndarray
    ego_sigma: np.ndarray
    probe_grid: np.ndarray | None
    probe_entropy: np.ndarray | None
    entropy_weight: float
    omega: np.ndarray
    active: np.ndarray
    solve: list[int]
    human_paths: np.ndarray
    human_boxes: np.ndarray
    cvar_pre: np.ndarray

    def probe_terms(self, first_accels: np.ndarray) -> np.ndarray:
        """The probing term of each first acceleration (K): the entropy
        weight times the expected posterior entropy. Minimizing it drives
        the expected posterior uncertainty down."""
        if self.probe_grid is None:
            return np.zeros(len(first_accels))
        return self.entropy_weight * np.interp(first_accels, self.probe_grid, self.probe_entropy)

    def mode_diag(self, m: int, cvar_solution: float = math.nan, **solved) -> ModeDiag:
        """Mode ``m``'s record; ``solved`` carries the fields its solve set."""
        t = self.belief.targets.targets[m]
        return ModeDiag(
            intent_id=t.intent_id, mode_id=t.mode_id, omega=float(self.omega[m]),
            active=bool(self.active[m]), cvar_pre=float(self.cvar_pre[m]),
            cvar_solution=cvar_solution, margin=self.cfg.risk_cap - cvar_solution,
            **solved,
        )


def _start_candidates(
    cfg: PlannerConfig, warm_accels: Sequence[np.ndarray | None], bursts: bool
) -> list[list[np.ndarray]]:
    """Multi-start segment vectors, one list per warm start: coasting,
    evenly spaced constant accelerations, the warm start's segment means,
    and optionally probe bursts. Every list shares the arrays of the
    candidates that do not depend on the warm start; chains only read
    them."""
    a_lo, a_hi = cfg.accel_bounds
    segments = cfg.solver_segments
    consts = np.linspace(a_lo, a_hi, cfg.solver_inits)
    head = [np.zeros(segments)] + [np.full(segments, c) for c in consts]
    tail = []
    if bursts and segments > 1:
        # Probe bursts: an extreme first segment with a steady tail. The
        # influence term cares mostly about the terminal state, so these
        # candidates let the probing term claim the first control cheaply.
        for c in consts:
            for burst in (a_lo, a_hi):
                theta = np.full(segments, c)
                theta[0] = burst
                tail.append(theta)
    out = []
    for warm_accel in warm_accels:
        warm = []
        if warm_accel is not None:
            means = [float(np.mean(c)) for c in np.array_split(warm_accel, segments)]
            warm.append(np.clip(np.array(means), a_lo, a_hi))
        out.append(head + warm + tail)
    return out


def _chain(candidates: list[np.ndarray], cfg: PlannerConfig):
    """One descent chain: the best of ``candidates``, then projected
    finite-difference descent on the segment accelerations.

    Each ``yield`` hands out the distinct acceleration sequences (T,) of one
    round (the start set, one probe per segment, or one line-search trial)
    that the chain has not scored, and receives their evaluations keyed by
    the sequence bytes. Returns the final sequence, its evaluation and the
    chain's (sequence, evaluation) history, repeats included.
    """
    a_lo, a_hi = cfg.accel_bounds
    horizon = cfg.horizon_steps
    seg_len = -(-horizon // cfg.solver_segments)  # ceil division
    # Coasting equals the constant-zero start, each burst at a bound its
    # constant start, and a clipped line-search trial may repeat a point.
    seen: dict[bytes, tuple] = {}
    history: list[tuple[np.ndarray, tuple]] = []

    def score(thetas):
        clipped = np.clip(np.array(thetas), a_lo, a_hi)
        accels = list(np.repeat(clipped, seg_len, axis=1)[:, :horizon])
        unseen = {a.tobytes(): a for a in accels if a.tobytes() not in seen}
        if unseen:
            seen.update((yield list(unseen.values())))
        history.extend((a, seen[a.tobytes()]) for a in accels)
        return history[-len(accels):]

    theta = accel = current = None
    for cand, (cand_accel, res) in zip(candidates, (yield from score(candidates))):
        if current is None or res[0] < current[0]:
            theta, accel, current = cand.copy(), cand_accel, res

    for _ in range(cfg.solver_iters):
        steps = [_FD_STEP if t + _FD_STEP <= a_hi else -_FD_STEP for t in theta]
        probes = []
        for m, h in enumerate(steps):
            probe = theta.copy()
            probe[m] += h
            probes.append(probe)
        scored = yield from score(probes)
        grad = np.array([(res[0] - current[0]) / h for (_, res), h in zip(scored, steps)])
        scale = float(np.max(np.abs(grad)))
        if scale < 1e-12:
            break
        direction = grad / scale
        step = cfg.solver_step
        for _ in range(3):
            trial = np.clip(theta - step * direction, a_lo, a_hi)
            ((trial_accel, res),) = yield from score([trial])
            if res[0] < current[0] - 1e-12:
                theta, accel, current = trial, trial_accel, res
                break
            step *= 0.5
        else:
            break
    return accel, current, history


def _descend(
    evaluate: Callable[[list[np.ndarray], list[list[int]]], list[tuple]],
    starts: list[list[np.ndarray]],
    cfg: PlannerConfig,
) -> list[tuple[np.ndarray, tuple, list[tuple[np.ndarray, tuple]]]]:
    """The solver loop every planner shares: one ``_chain`` per start list,
    run in lockstep rounds until every chain has stopped.

    Each round makes one ``evaluate(accels, chains)`` call for the distinct
    sequences the live chains ask for, ``chains[i]`` listing in ascending
    order the chains that asked for ``accels[i]``. It returns one tuple per
    (sequence, chain) pair, in that order, whose first item is the
    objective; a chain asks for each sequence once, so ``evaluate`` must be
    a pure function of the pair. Returns each chain's final sequence,
    evaluation and history.
    """
    chains = [_chain(cands, cfg) for cands in starts]
    asked = {c: chain.send(None) for c, chain in enumerate(chains)}
    final: list[tuple] = [()] * len(chains)
    while asked:
        unseen: dict[bytes, tuple[np.ndarray, list[int]]] = {}
        for c, accels in asked.items():
            for accel in accels:
                unseen.setdefault(accel.tobytes(), (accel, []))[1].append(c)
        results = iter(evaluate([a for a, _ in unseen.values()], [c for _, c in unseen.values()]))
        replies: dict[int, dict[bytes, tuple]] = {c: {} for c in asked}
        for key, (_, cs) in unseen.items():
            for c in cs:
                replies[c][key] = next(results)
        asked = {}
        for c, reply in replies.items():
            try:
                asked[c] = chains[c].send(reply)
            except StopIteration as stop:
                final[c] = stop.value
    return final


def _take(a: np.ndarray, idx: Sequence[int]) -> np.ndarray:
    """``a[idx]`` for ascending indices, as a view when they are one run."""
    if idx[-1] - idx[0] == len(idx) - 1:
        return a[idx[0]:idx[-1] + 1]
    return a[idx]


def _sequence_cvars(
    ctx: _StepContext,
    paths: np.ndarray,
    ego_paths: tuple[np.ndarray, np.ndarray, np.ndarray],
    rows: list[Sequence[int]],
) -> np.ndarray:
    """CVaR of each ego path ``i`` (``ego_paths`` holds x, y and speeds,
    each (K, T)) against each human path block ``paths[rows[i]]`` (of
    (N, 2, S, T)), in (sequence, row) order: one cost block per sequence
    with rows, one tail sort."""
    cfg = ctx.cfg
    x, y, speeds = ego_paths
    costs = [
        path_costs(x[i], y[i], speeds[i], _take(paths, r), ctx.discount_weights, cfg.ref_speed)
        for i, r in enumerate(rows) if len(r)
    ]
    return cvar(np.concatenate(costs), cfg.cvar_level)


def _solve_modes(
    ctx: _StepContext,
    steer_targets: list[Gaussian],
    warm_accels: list[np.ndarray | None],
) -> list[ModeDiag]:
    """Solve every mode of ``ctx.solve`` in lockstep, one descent chain per
    mode, each with its own steering target and warm start. A mode's
    objective is probe term + influence KL + quadratic CVaR-cap penalty."""
    cfg = ctx.cfg
    state = ctx.state
    paths = _take(ctx.human_paths, ctx.solve)
    boxes = _take(ctx.human_boxes, ctx.solve)
    # KL(pred || target) decomposes into a control-independent constant
    # plus a quadratic in the predicted mean; precompute the fixed parts.
    # The ego's start progress s0 is the same for every mode.
    n = len(ctx.solve)
    s_h = np.empty(n)
    kl_const = np.empty(n)
    chol_q = np.empty((n, 2, 2))
    for c, (m, steer) in enumerate(zip(ctx.solve, steer_targets)):
        s0, s_h[c], cov_pred = _interaction_frame(
            state, ctx.belief.targets.targets[m], cfg, ctx.ego_sigma
        )
        chol_q[c] = np.linalg.cholesky(steer.cov)
        y0 = np.linalg.solve(chol_q[c], steer.mean)
        kl_const[c] = kl_divergence(Gaussian(np.zeros(2), cov_pred), steer) - 0.5 * float(y0 @ y0)
    steer_means = np.array([steer.mean for steer in steer_targets])

    def evaluate(accels: list[np.ndarray], rows: list[list[int]]) -> list[tuple]:
        accels = np.array(accels)
        # One (sequence, chain) pair per row, sequences in order.
        seq = np.repeat(np.arange(len(rows)), [len(r) for r in rows])
        chain = np.concatenate(rows)
        x, y, speeds = ego_paths = simulate_ego_path(state.ego, accels, ctx.headings, cfg.dt)
        # A pair whose cost bound certifies it below the cap gets no cost
        # block: it holds -inf, so its violation is 0.0 and it stays feasible.
        bounds = path_cost_bounds(
            x[seq], y[seq], speeds[seq], boxes[chain], ctx.discount_weights, cfg.ref_speed
        )
        open_ = ~(bounds <= cfg.risk_cap * (1.0 - CERTIFY_MARGIN))
        cvars = np.full(len(chain), -np.inf)
        if open_.any():
            open_rows = [[] for _ in rows]
            for i, c in zip(seq[open_].tolist(), chain[open_].tolist()):
                open_rows[i].append(c)
            cvars[open_] = _sequence_cvars(ctx, paths, ego_paths, open_rows)
        s_t, v_t = _linear_terminal_state(s0, state.ego.v, accels, cfg.dt)
        probe = ctx.probe_terms(accels[:, 0])
        delta = steer_means[chain] - np.column_stack((v_t[seq], s_t[seq] - s_h[chain]))
        y = np.linalg.solve(chol_q[chain], delta[..., None])
        # Stacked (1, 2) @ (2, 1) products take the same dot as y @ y.
        j_infl = kl_const[chain] + 0.5 * (y.transpose(0, 2, 1) @ y)[:, 0, 0]
        j_probe = probe[seq]
        violation = np.where(cvars > cfg.risk_cap, cvars - cfg.risk_cap, 0.0)
        obj = j_probe + j_infl + cfg.penalty_weight * violation * violation
        return list(zip(obj.tolist(), cvars.tolist(), j_probe.tolist(), j_infl.tolist()))

    starts = _start_candidates(cfg, warm_accels, bursts=ctx.probe_grid is not None)
    picks = []
    for accel, res, history in _descend(evaluate, starts, cfg):
        infeasible = False
        if res[1] > cfg.risk_cap:
            # Fall back to the best feasible candidate; when every candidate
            # violates the cap, to the least risky one, and flag the solve.
            feasible = [h for h in history if h[1][1] <= cfg.risk_cap]
            infeasible = not feasible
            accel, res = min(feasible or history, key=lambda h: h[1][1 if infeasible else 0])
        picks.append((accel, list(res), infeasible, len(history)))
    # A pick that holds the certified sentinel gets its exact CVaR, in one
    # batch over the chains.
    certified = [c for c, (_, res, _, _) in enumerate(picks) if res[1] == -math.inf]
    if certified:
        accels = np.array([picks[c][0] for c in certified])
        ego_paths = simulate_ego_path(state.ego, accels, ctx.headings, cfg.dt)
        exact = _sequence_cvars(ctx, paths, ego_paths, [[c] for c in certified])
        for c, value in zip(certified, exact.tolist()):
            picks[c][1][1] = value
    return [
        ctx.mode_diag(
            m, nu=_controls(ctx, accel), objective=obj, cvar_solution=cvar_val,
            j_probe=j_probe, j_influence=j_infl, infeasible=infeasible, evals=evals,
        )
        for m, (accel, (obj, cvar_val, j_probe, j_infl), infeasible, evals) in zip(ctx.solve, picks)
    ]


def _controls(ctx: _StepContext, accel: np.ndarray) -> np.ndarray:
    """Control sequence (T, 2): ``accel`` with the step's lane guidance,
    clamped to the control bounds."""
    return np.clip(np.column_stack((accel, ctx.guidance_yaw)), ctx.cfg.u_min, ctx.cfg.u_max)


# ---------------------------------------------------------------------------
# Receding-horizon planners


class ActivePlanner:
    """Full planner: probing + influence + per-mode CVaR-capped solves."""

    name = "ours"

    def __init__(self, cfg: PlannerConfig):
        self.cfg = cfg
        # The last plan shifted by one step: the next step's reference plan,
        # and per mode index m the warm start of that mode's next solve (a
        # planner serves one target set).
        self._ref_accel: np.ndarray | None = None
        self._warm: dict[int, np.ndarray] = {}
        self._ego_sigma = ego_horizon_covariance(cfg)

    # Subclasses override these two hooks.
    def _entropy_weight(self) -> float:
        return self.cfg.entropy_weight

    def _influence_target(self, ctx: _StepContext, m: int) -> Gaussian:
        mode = ctx.belief.targets.targets[m]
        if mode.steer is None:
            raise InvalidInputError(
                f"mode ({mode.intent_id},{mode.mode_id}) has no steering target"
            )
        return mode.steer

    def _build_probe_grid(
        self, state: ScenarioState, b: HierarchicalBelief, key: int
    ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Expected posterior entropy on a grid of first accelerations, or
        (None, None) when probing is off or the belief is already certain."""
        cfg = self.cfg
        if self._entropy_weight() <= 0.0:
            return None, None
        h_now = entropy(b, PROBE_PI_WEIGHTED)
        if h_now <= 1e-12:
            return None, None
        n_obs = cfg.obs_samples
        if h_now > 0.75 * max_entropy(b.targets, PROBE_PI_WEIGHTED):
            n_obs *= 2
        # Common random numbers: one draw set shared by every grid point.
        idxs, noise = _observation_draws(b, n_obs, rng_from_keys(key, STREAM_PROBE), cfg)
        grid = np.linspace(*cfg.accel_bounds, cfg.probe_grid_size)
        egos, human_ref, response_time = probe_projection(state, grid, cfg)
        # Each point's observations (n_obs, d); points with byte-equal
        # observations (often all of them, once the held control saturates
        # the conflict level) share one row block of the batched pass.
        blocks: dict[bytes, int] = {}
        distinct = []
        point_block = []
        for ego_ref in egos:
            means = predicted_observation_mean(
                ego_ref, human_ref, state.geometry, b.targets.targets, cfg, response_time
            )
            zs = means[idxs] + noise
            if zs.tobytes() not in blocks:
                blocks[zs.tobytes()] = len(distinct)
                distinct.append(zs)
            point_block.append(blocks[zs.tobytes()])
        h = posterior_entropies(
            b, np.concatenate(distinct), h_now, PROBE_PI_WEIGHTED
        ).reshape(len(distinct), n_obs)
        values = []
        for k in point_block:
            total = 0.0
            for v in h[k].tolist():  # in draw order, as a running sum
                total += v
            values.append(total / n_obs)
        return grid, np.array(values)

    def _begin_step(
        self,
        state: ScenarioState,
        b: HierarchicalBelief,
        rng: np.random.Generator | int,
    ) -> _StepContext:
        """Setup every planner's step shares: rng key, lane guidance with
        the ego headings it implies, probe grid, joint weights, the modes
        to solve, every mode's human rollouts, the discount weights, and
        the CVaR of the reference plan (shifted previous solution, or
        coasting) per mode."""
        cfg = self.cfg
        base_key = rng if isinstance(rng, int) else derive_key(rng)
        guidance = lane_guidance(state, cfg)
        probe_grid, probe_entropy = self._build_probe_grid(state, b, base_key)
        omega = joint_weights(b)
        active = omega > cfg.mode_activation_eps
        ref_accel = self._ref_accel if self._ref_accel is not None else np.zeros(cfg.horizon_steps)
        # Each mode's rollouts come from a stream keyed by the mode, so the
        # draw order does not matter.
        human_paths = np.stack([
            draw_human_paths(
                state.human, t, cfg.rollout_count, cfg.horizon_steps, cfg.dt,
                rng_from_keys(base_key, STREAM_MODE_ROLLOUT, t.intent_id, t.mode_id),
            )
            for t in b.targets.targets
        ])
        headings = ego_headings(state.ego, guidance, cfg.dt)
        weights = cfg.discount ** np.arange(cfg.horizon_steps)
        ego_x, ego_y, ego_speeds = simulate_ego_path(state.ego, ref_accel, headings, cfg.dt)
        cvar_pre = cvar(
            path_costs(ego_x, ego_y, ego_speeds, human_paths, weights, cfg.ref_speed),
            cfg.cvar_level,
        )
        return _StepContext(
            cfg=cfg,
            state=state,
            belief=b,
            guidance_yaw=guidance,
            headings=headings,
            discount_weights=weights,
            ego_sigma=self._ego_sigma,
            probe_grid=probe_grid,
            probe_entropy=probe_entropy,
            entropy_weight=self._entropy_weight(),
            omega=omega,
            active=active,
            # np.argmax keeps the first mode among equal maxima.
            solve=np.flatnonzero(active).tolist() or [int(np.argmax(omega))],
            human_paths=human_paths,
            human_boxes=sample_boxes(human_paths),
            cvar_pre=cvar_pre,
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
        records and a bare record for every other mode. The blend falls
        back to the argmax-omega mode exactly when no mode is active."""
        mode_diags = tuple(solved.get(m) or ctx.mode_diag(m) for m in range(len(ctx.omega)))
        w_probe = w_infl = 0.0
        for d in solved.values():  # in target order, as ctx.solve is
            w_probe += d.omega * d.j_probe
            w_infl += d.omega * d.j_influence

        self._ref_accel = np.append(u_total[1:, 0], u_total[-1, 0])
        u_first = u_total[0].copy()
        if ctx.probe_grid is not None:
            h_after = float(np.interp(u_first[0], ctx.probe_grid, ctx.probe_entropy))
        else:
            h_after = math.nan
        diag = PlanDiagnostics(
            entropy_before=entropy(ctx.belief),
            expected_entropy_after=h_after,
            modes=mode_diags,
            u_total=u_total,
            u_first=u_first,
            j_probe=w_probe,
            j_influence=w_infl,
            solver_evals=solver_evals,
            blend_fallback=not ctx.active.any(),
            infeasible_any=any(m.infeasible for m in mode_diags),
        )
        return u_first, diag

    def plan_step(
        self,
        state: ScenarioState,
        b: HierarchicalBelief,
        rng: np.random.Generator | int,
    ) -> tuple[np.ndarray, PlanDiagnostics]:
        cfg = self.cfg
        ctx = self._begin_step(state, b, rng)
        solved = dict(zip(ctx.solve, _solve_modes(
            ctx,
            [self._influence_target(ctx, m) for m in ctx.solve],
            [self._warm.get(m) for m in ctx.solve],
        )))
        for m, d in solved.items():
            self._warm[m] = np.append(d.nu[1:, 0], d.nu[-1, 0])  # receding-horizon shift

        # Joint-weight blend over the active modes; with none active, the
        # argmax-omega mode's plan unscaled.
        if ctx.active.any():
            u_total = np.zeros((cfg.horizon_steps, 2))
            for d in solved.values():  # in target order, as ctx.solve is
                u_total += d.omega * d.nu
        else:
            u_total = solved[ctx.solve[0]].nu
        u_total = np.clip(u_total, cfg.u_min, cfg.u_max)
        return self._finish_step(ctx, solved, u_total, sum(d.evals for d in solved.values()))

