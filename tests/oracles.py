"""Reference implementations the tests pin the planner's kernels against.

No run calls these. They are the readable forms of what the planner
computes in a faster way:

* ``mean_posterior_entropy`` and ``expected_posterior_entropy``: the probe
  estimate as one projection per grid point and one predicted observation
  (``predicted_observation_one``), ``update`` and ``entropy`` per
  observation draw; ``probe_grid`` runs it once per grid point, as
  ``_build_probe_grid`` did before it was batched.
* ``ego_headings`` and ``lane_guidance_loop``: the lane guidance as the
  guidance law per ``VehicleState``, one ``step_vehicle`` call per step
  and the headings integrated again from the yaw rates, where
  ``lane_guidance`` rolls plain floats and writes each step's heading as it
  goes.
* ``probe_projection_loop``: the probe projection as one ``step_vehicle``
  call per vehicle and step, where ``probe_projection`` rolls the egos and
  the human with one ``simulate_ego_path`` call each.
* ``_interaction_frame``, ``predicted_interaction_gaussian`` and
  ``influence_objective``: the influence term from a full Gaussian and
  ``kl_divergence`` per mode and step, where ``ActivePlanner._solve_modes``
  uses constants it builds once per run and a conflict level it computes
  once per step.
* ``solve_mode_control``: one mode's solve on its own.
* ``start_candidates_one``: one chain's multi-start list built on its own,
  where ``_start_candidates`` builds the shared candidates once per step.
* ``descend_one``: one descent chain on its own, with a scalar
  ``evaluate`` per segment vector that gives its objective and gradient,
  where ``_descend`` keeps every chain's state in arrays and evaluates one
  phase of all chains per call, an iteration's three line-search trials
  together.
* ``path_bases_one`` and ``ego_path_one``: one candidate's ego path
  composed from the coasting path and one path from rest per segment, each
  its own ``simulate_ego_path`` call, with the segment's acceleration
  added one segment after another, where the planners compose every
  candidate of a round at once from bases built once per step.
* ``eager_descend``: ``_descend`` with every round's bar at ``inf``, so
  ``ActivePlanner._solve_modes`` gives every pair its certificate does not
  clear a cost block, where the planner leaves the pairs no decision reads
  unscored.
* ``solve_mode_scalar``, ``conservative_step_scalar`` and
  ``plan_step_per_mode``: each planner's step with one scalar objective
  closure per mode (or per conservative step) and one descent per chain,
  run one after the other; ``blend_controls`` is its joint-weight blend
  with an explicit activation threshold and fallback flag. Each candidate
  takes its path from ``ego_path_one``, its terminal state and KL residual
  one segment and one component at a time, and its probe slope from the
  grid piece it lies on; their gradients take the terminal state's
  Jacobian one segment at a time (``segment_jacobian``) and one tail
  gradient per mode and candidate (``tail_gradient_one``), where the
  planners batch them.
* ``terminal_jacobian``: that Jacobian summed one step at a time, the
  planning model's own formula, where the planners evaluate the linear
  terminal-state map at every segment's indicator at once.
* ``log_density`` and ``density``: one Gaussian's density at one point,
  where ``belief`` evaluates every mode's likelihood in one einsum pass.
* ``draw_human_paths_one``: one mode's sampled human planes on their own,
  where ``risk.draw_human_paths`` clamps, integrates and projects every
  mode's draws as one block.
"""

from __future__ import annotations

import bisect
import math
from typing import Callable, Sequence

import numpy as np

from probeplan.baselines import ConservativePlanner
from probeplan.belief import (
    HierarchicalBelief,
    ModeTarget,
    ModeTargetSet,
    entropy,
    max_entropy,
    update,
)
from probeplan.dynamics import VehicleState, step_vehicle
from probeplan.errors import DegenerateEvidenceError, InvalidInputError
from probeplan.gaussmath import Gaussian, kl_divergence
from probeplan.human import conflict_level
from probeplan.planner import (
    PROBE_LOOKAHEAD_STEPS,
    PROBE_PI_WEIGHTED,
    ActivePlanner,
    ModeDiag,
    PlanDiagnostics,
    PlannerConfig,
    _controls,
    _linear_terminal_state,
    _mode_human_advance,
    _observation_draws,
    _StepContext,
    _descend,
    _segment_sums,
    ego_horizon_covariance,
)
from probeplan.risk import (
    cvar,
    cvar_tail,
    ego_path_gradient,
    path_cost_gradient,
    path_costs,
    simulate_ego_path,
)
from probeplan.seeding import STREAM_PROBE, rng_from_keys
from probeplan.world import LANE_MERGE, ScenarioState, ego_progress, human_progress


_LOG_2PI = math.log(2.0 * math.pi)


def log_density(g: Gaussian, x: np.ndarray) -> float:
    """Log of the Gaussian pdf of ``g`` at ``x``."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != g.mean.shape:
        raise InvalidInputError(
            f"dimension mismatch: x has dim {x.shape[0]}, Gaussian has dim {g.dim}"
        )
    # Forward-substitute against the lower factor; quadratic form is |y|^2.
    y = np.linalg.solve(g._chol, x - g.mean)
    return -0.5 * (g.dim * _LOG_2PI + g._log_det + float(y @ y))


def density(g: Gaussian, x: np.ndarray) -> float:
    """Gaussian pdf of ``g`` at ``x`` (linear scale, strictly positive)."""
    return math.exp(log_density(g, x))


def einsum_log_likelihoods(targets: ModeTargetSet, zs: np.ndarray) -> np.ndarray:
    """``ModeTargetSet.log_likelihoods`` for observation rows ``zs`` (N, d)
    of any dimension, as (N, M): each target's inverse Cholesky factor and
    log normalizer, contracted by an ``einsum`` pair. The kernel's scalar
    form equals it bit for bit on 1-D targets."""
    ts = targets.targets
    means = np.stack([t.target.mean for t in ts])
    chol_inv = np.stack([np.linalg.inv(t.target._chol) for t in ts])
    log_norm = np.array([-0.5 * (t.target.dim * _LOG_2PI + t.target._log_det) for t in ts])
    y = np.einsum("mij,nmj->nmi", chol_inv, zs[:, None, :] - means)
    return log_norm - 0.5 * np.einsum("nmi,nmi->nm", y, y)


def draw_human_paths_one(
    human, mode: ModeTarget, n_samples: int, t_steps: int, dt: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sampled human positions as x and y planes (2, n_samples, t_steps)
    under one mode: speeds drawn i.i.d. from the mode target's velocity
    marginal, clamped at zero and integrated along the human's heading."""
    mu = float(mode.target.mean[0])
    std = math.sqrt(float(mode.target.cov[0, 0]))
    speeds = np.maximum(0.0, rng.normal(mu, std, size=(n_samples, t_steps)))
    arc = np.cumsum(speeds * dt, axis=1)
    planes = np.empty((2, n_samples, t_steps))
    np.multiply(arc, math.cos(human.theta), out=planes[0])
    np.multiply(arc, math.sin(human.theta), out=planes[1])
    planes[0] += human.x
    planes[1] += human.y
    return planes


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


def predicted_interaction_gaussian(
    state: ScenarioState,
    accel_seq: np.ndarray,
    mode: ModeTarget,
    cfg: PlannerConfig,
    ego_sigma: np.ndarray | None = None,
) -> Gaussian:
    """Ego interaction-feature distribution (speed, lead) at the horizon
    end, given a longitudinal acceleration sequence and a mode hypothesis
    for the human."""
    accel_seq = np.asarray(accel_seq, dtype=float)
    if accel_seq.shape != (cfg.horizon_steps,):
        raise InvalidInputError("accel_seq length must equal the horizon")
    if ego_sigma is None:
        ego_sigma = ego_horizon_covariance(cfg)
    s0, s_h, cov = _interaction_frame(state, mode, cfg, ego_sigma)
    s_t, v_t = _linear_terminal_state(s0, state.ego.v, accel_seq, cfg.dt)
    return Gaussian(np.array([v_t, s_t - s_h]), cov)


def influence_objective(predicted: Gaussian, target: Gaussian) -> float:
    """Alignment of the predicted interaction distribution with a mode
    target: KL(predicted || target), evaluated at the horizon end."""
    return kl_divergence(predicted, target)


def predicted_observation_one(ego_ref, human_ref, geometry, mode, cfg, response_time):
    """``predicted_observation_mean`` for one mode: the predicted speed."""
    c = conflict_level(
        ego_ref, human_ref, geometry, cfg.response_gain,
        geometry.risk_threshold, geometry.nominal_human_speed,
    )
    relax = 1.0 - math.exp(-cfg.response_gain * c * response_time)
    return human_ref.v + relax * (float(mode.target.mean[0]) - human_ref.v)


def ego_headings(ego, yaw: np.ndarray, dt: float) -> np.ndarray:
    """Ego heading cosines and sines (2, T) under a yaw-rate sequence (T,):
    column t holds the heading the ego moves along during step t, before
    that step's yaw is applied. The heading is integrated without wrapping,
    so it equals ``step_vehicle``'s while it stays in (-pi, pi]."""
    t_steps = len(yaw)
    out = np.empty((2, t_steps))
    theta = ego.theta
    for t in range(t_steps):
        out[0, t] = math.cos(theta)
        out[1, t] = math.sin(theta)
        theta += yaw[t] * dt
    return out


def lane_guidance_loop(
    state: ScenarioState, cfg: PlannerConfig
) -> tuple[np.ndarray, np.ndarray]:
    """``lane_guidance`` as the guidance law per ``VehicleState`` and one
    ``step_vehicle`` call per step, with the headings from ``ego_headings``."""
    geometry = state.geometry
    yaw = np.empty(cfg.horizon_steps)
    ego = state.ego
    human_x = state.human.x
    human_vx = state.human.v * math.cos(state.human.theta)
    committed = abs(ego.y - geometry.ramp_y) > 1.0
    lo, hi = cfg.yaw_rate_bounds
    for t in range(cfg.horizon_steps):
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
        yaw[t] = min(hi, max(lo, 4.0 * (heading_des - ego.theta)))
        ego = step_vehicle(ego, (0.0, yaw[t]), cfg.dt)
        human_x += human_vx * cfg.dt
    return yaw, ego_headings(state.ego, yaw, cfg.dt)


def probe_projection_loop(
    state: ScenarioState, first_accels: Sequence[float], cfg: PlannerConfig
) -> tuple[list[VehicleState], VehicleState, float]:
    """``probe_projection`` one vehicle and one step at a time: each
    first acceleration held, and the human cruising, for
    ``PROBE_LOOKAHEAD_STEPS`` calls of ``step_vehicle``."""
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


def mean_posterior_entropy(
    b: HierarchicalBelief,
    state: ScenarioState,
    first_accel: float,
    draws: tuple[np.ndarray, np.ndarray],
    h_prior: float,
    cfg: PlannerConfig,
) -> float:
    """Average posterior entropy over fixed observation draws (mode indices
    and noise), conditioned on holding ``first_accel``; degenerate-evidence
    draws count as ``h_prior``."""
    # The projection of ``probe_projection``, one grid point at a time.
    (ego_ref,), human_ref, response_time = probe_projection_loop(state, [first_accel], cfg)
    idxs, noise = draws
    total = 0.0
    for m, eps in zip(idxs, noise):
        mode = b.targets.targets[int(m)]
        z = predicted_observation_one(
            ego_ref, human_ref, state.geometry, mode, cfg, response_time
        ) + eps
        try:
            total += entropy(update(b, z), PROBE_PI_WEIGHTED)
        except DegenerateEvidenceError:
            total += h_prior
    return total / len(idxs)


def expected_posterior_entropy(
    b: HierarchicalBelief,
    u_seq: np.ndarray,
    state: ScenarioState,
    n_obs: int,
    rng: np.random.Generator,
    cfg: PlannerConfig,
) -> float:
    """Monte-Carlo estimate of the posterior belief entropy after one more
    observation, conditioned on applying the first planned control.

    Each draw samples a mode by joint weight, predicts the human response
    it implies, perturbs it with observation noise, runs the Bayesian
    update, and evaluates the entropy; degenerate-evidence draws fall back
    to the prior entropy.
    """
    if n_obs < 1:
        raise InvalidInputError("n_obs must be >= 1")
    u_first = np.asarray(u_seq, dtype=float).reshape(-1, 2)[0]
    draws = _observation_draws(b, n_obs, rng, cfg)
    return mean_posterior_entropy(
        b, state, u_first[0], draws, entropy(b, PROBE_PI_WEIGHTED), cfg
    )


def probe_grid(
    planner: ActivePlanner, state: ScenarioState, b: HierarchicalBelief, key: int
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """``planner._build_probe_grid`` as one ``mean_posterior_entropy`` per
    grid point."""
    cfg = planner.cfg
    if planner._entropy_weight() <= 0.0:
        return None, None
    h_now = entropy(b, PROBE_PI_WEIGHTED)
    if h_now <= 1e-12:
        return None, None
    n_obs = cfg.obs_samples
    if h_now > 0.75 * max_entropy(b.targets, PROBE_PI_WEIGHTED):
        n_obs *= 2
    draws = _observation_draws(b, n_obs, rng_from_keys(key, STREAM_PROBE), cfg)
    grid = np.linspace(*cfg.accel_bounds, cfg.probe_grid_size)
    return grid, np.array(
        [mean_posterior_entropy(b, state, a0, draws, h_now, cfg) for a0 in grid]
    )


def descend_one(
    evaluate: Callable[[np.ndarray], tuple[tuple, np.ndarray]],
    candidates: Sequence[np.ndarray],
    cfg: PlannerConfig,
    phases: list[tuple] | None = None,
) -> tuple[np.ndarray, tuple, list[tuple[np.ndarray, tuple]]]:
    """One chain of ``_descend`` on its own: ``evaluate`` maps one segment
    vector (P,) to a tuple whose first item is the objective, and the
    objective's gradient (P,); it runs once per candidate the chain scores.
    Returns the final vector, its tuple and every (vector, tuple) scored.
    ``phases``, when given, receives each candidate's round: ``(-1,)`` for
    the starts and ``(i, k)`` for line-search trial ``k`` of iteration
    ``i``."""
    a_lo, a_hi = cfg.accel_bounds
    history: list[tuple[np.ndarray, tuple]] = []

    def score(theta: np.ndarray, phase: tuple) -> tuple[tuple, np.ndarray]:
        res, grad = evaluate(theta)
        history.append((theta, res))
        if phases is not None:
            phases.append(phase)
        return res, grad

    theta = current = grad = None
    for cand in candidates:
        res, cand_grad = score(cand, (-1,))
        if current is None or res[0] < current[0]:
            theta, current, grad = cand.copy(), res, cand_grad

    for i in range(cfg.solver_iters):
        scale = float(np.max(np.abs(grad)))
        if not 1e-12 <= scale < math.inf:
            break
        direction = grad / scale
        step = cfg.solver_step
        for k in range(3):
            trial = np.clip(theta - step * direction, a_lo, a_hi)
            res, trial_grad = score(trial, (i, k))
            if res[0] < current[0] - 1e-12:
                theta, current, grad = trial, res, trial_grad
                break
            step *= 0.5
        else:
            break
    return theta, current, history


def segment_accels(theta: np.ndarray, cfg: PlannerConfig) -> np.ndarray:
    """The acceleration sequence (T,) of a segment vector (P,): each value
    repeated over its segment's steps, the last segment cut at the horizon."""
    return np.repeat(theta, cfg.segment_steps)[:cfg.horizon_steps]


def eager_descend(evaluate: Callable, starts, cfg: PlannerConfig):
    """``_descend`` with no bar on any round: every open pair is scored."""
    return _descend(lambda thetas, chains, bar: evaluate(thetas, chains, math.inf), starts, cfg)


def solve_mode_control(
    state: ScenarioState,
    b: HierarchicalBelief,
    mode: ModeTarget,
    cfg: PlannerConfig,
    rng: np.random.Generator | int,
) -> tuple[np.ndarray, ModeDiag]:
    """Standalone per-mode solve (the unit the planner runs per active mode)."""
    keys = [(t.intent_id, t.mode_id) for t in b.targets.targets]
    if (mode.intent_id, mode.mode_id) not in keys:
        raise InvalidInputError("mode is not part of the belief's target set")
    if mode.steer is None:
        raise InvalidInputError("mode has no steering target")
    planner = ActivePlanner(cfg)
    ctx = planner._begin_step(state, b, rng)
    ctx.solve = [keys.index((mode.intent_id, mode.mode_id))]
    (diag,) = planner._solve_modes(ctx, ctx.solve, [None])
    return diag.nu, diag


def start_candidates_one(
    cfg: PlannerConfig, warm_accel: np.ndarray | None, bursts: bool
) -> list[np.ndarray]:
    """Multi-start segment vectors of one chain: coasting, evenly spaced
    constant accelerations, the warm start's segment means, and optionally
    probe bursts, each clipped to the acceleration bounds."""
    a_lo, a_hi = cfg.accel_bounds
    segments = cfg.solver_segments
    candidates = [np.clip(np.zeros(segments), a_lo, a_hi)]
    consts = np.linspace(a_lo, a_hi, cfg.solver_inits)
    for c in consts:
        candidates.append(np.full(segments, c))
    if warm_accel is not None:
        seg_len = -(-cfg.horizon_steps // segments)
        means = [float(np.mean(warm_accel[k * seg_len:(k + 1) * seg_len]))
                 for k in range(segments)]
        candidates.append(np.clip(np.array(means), a_lo, a_hi))
    if bursts and segments > 1:
        for c in consts:
            for burst in (a_lo, a_hi):
                theta = np.full(segments, c)
                theta[0] = burst
                candidates.append(theta)
    return candidates


def terminal_jacobian(cfg: PlannerConfig) -> np.ndarray:
    """d(terminal speed, terminal progress)/d segment vector (2, P) of the
    planning model, one step at a time: acceleration k adds dt to the
    terminal speed and dt^2 (T - k - 1/2) to the terminal progress."""
    horizon, seg_len = cfg.horizon_steps, cfg.segment_steps
    jac = np.zeros((2, cfg.solver_segments))
    for k in range(horizon):
        jac[0, k // seg_len] += 1
        jac[1, k // seg_len] += cfg.dt * cfg.dt * (horizon - k - 0.5)
    jac[0] *= cfg.dt
    return jac


def segment_jacobian(cfg: PlannerConfig) -> np.ndarray:
    """The same Jacobian (2, P), one segment at a time: the terminal
    (speed, progress) from rest at 0 under the segment's indicator."""
    segment = np.arange(cfg.horizon_steps) // cfg.segment_steps
    columns = [_linear_terminal_state(0.0, 0.0, (segment == p).astype(float), cfg.dt)[::-1]
               for p in range(cfg.solver_segments)]
    return np.array(columns).T


def path_bases_one(ego, headings: np.ndarray, cfg: PlannerConfig) -> list[list[np.ndarray]]:
    """The coasting path of ``ego`` and, per segment, the path from rest at
    the origin under the segment's indicator: x, y and speeds (T,) each,
    one ``simulate_ego_path`` call per path."""
    segment = np.arange(cfg.horizon_steps) // cfg.segment_steps
    rest = VehicleState(0.0, 0.0, 0.0)
    return [list(simulate_ego_path(ego, np.zeros(cfg.horizon_steps), headings, cfg.dt))] + [
        list(simulate_ego_path(rest, (segment == p).astype(float), headings, cfg.dt))
        for p in range(cfg.solver_segments)
    ]


def ego_path_one(
    ego, theta: np.ndarray, bases: list[list[np.ndarray]], headings: np.ndarray,
    cfg: PlannerConfig, walk_stops: bool = True,
) -> list[np.ndarray]:
    """x, y and speeds (T,) of ``ego`` under segment vector ``theta``: the
    coasting path of ``bases`` plus each segment's path from rest times its
    acceleration, one segment after another. When a composed speed is not
    positive (or is NaN), and ``walk_stops``, the reflected walk of
    ``simulate_ego_path`` instead."""
    coast, *unit = bases
    out = [c.copy() for c in coast]
    for a, plane in zip(theta, unit):
        for o, u in zip(out, plane):
            o += a * u
    if walk_stops and not np.min(out[2]) > 0.0:
        return list(simulate_ego_path(ego, segment_accels(theta, cfg), headings, cfg.dt))
    return out


def tail_gradient_one(
    ctx: _StepContext, ego_path: Sequence[np.ndarray], human: np.ndarray, costs: np.ndarray
) -> np.ndarray:
    """The CVaR gradient (P,) of one ego path (x, y and speeds, each (T,))
    against one mode's paths ``human`` (2, S, T) with costs (S,): the mean
    cost gradient over the tail samples, through the ego path."""
    cfg = ctx.cfg
    x, y, speeds = (p[None] for p in ego_path)
    tail = cvar_tail(costs, cfg.cvar_level)
    sens = path_cost_gradient(x, y, speeds, human[:, tail][None], ctx.discount_weights,
                              cfg.ref_speed)
    return _segment_sums(ego_path_gradient(sens, speeds, ctx.headings, cfg.dt), cfg)[0]


def solve_mode_scalar(
    ctx: _StepContext,
    m: int,
    steer_target: Gaussian,
    warm_accel: np.ndarray | None,
) -> ModeDiag:
    """Mode ``m``'s solve with its own scalar objective closure and its own
    descent: one ``path_costs`` and one ``cvar`` per candidate, and the
    objective's gradient from its three terms."""
    cfg = ctx.cfg
    state = ctx.state
    mode = ctx.belief.targets.targets[m]
    paths = ctx.human_paths[m]

    s0, s_h, cov_pred = _interaction_frame(state, mode, cfg, ego_horizon_covariance(cfg))
    kl_at_zero = kl_divergence(Gaussian(np.zeros(2), cov_pred), steer_target)
    chol_q = np.linalg.cholesky(steer_target.cov)
    y0 = np.linalg.solve(chol_q, steer_target.mean)
    kl_const = kl_at_zero - 0.5 * float(y0 @ y0)
    jac = segment_jacobian(cfg)
    linv = np.linalg.inv(chol_q)
    rows = [linv[i, 0] * jac[0] + linv[i, 1] * jac[1] for i in range(2)]
    s_coast, v_coast = _linear_terminal_state(s0, state.ego.v, np.zeros(cfg.horizon_steps), cfg.dt)
    delta_coast = steer_target.mean - np.array([v_coast, s_coast - s_h])
    bases = path_bases_one(state.ego, ctx.headings, cfg)

    def evaluate(theta: np.ndarray) -> tuple[tuple[float, float, float, float], np.ndarray]:
        ego_path = ego_path_one(state.ego, theta, bases, ctx.headings, cfg)
        costs = path_costs(*ego_path, paths, ctx.discount_weights, cfg.ref_speed)
        cvar_val = cvar(costs, cfg.cvar_level)
        # y = L^-1 delta at the coasting terminal state, then one segment
        # after another along -(L^-1 J), as the terminal state moves along J.
        y = [linv[i, 0] * delta_coast[0] + linv[i, 1] * delta_coast[1] for i in range(2)]
        for p, a in enumerate(theta.tolist()):
            for i in range(2):
                y[i] += a * -rows[i][p]
        j_infl = kl_const + 0.5 * (y[0] * y[0] + y[1] * y[1])
        j_probe = slope = 0.0
        if ctx.probe_grid is not None:
            grid, h = ctx.probe_grid, ctx.probe_entropy
            expected = float(np.interp(float(theta[0]), grid, h))
            j_probe = ctx.entropy_weight * expected
            # The piece right of a node, the last one at the top end.
            i = min(max(bisect.bisect_right(grid.tolist(), float(theta[0])), 1), len(grid) - 1) - 1
            slope = ctx.entropy_weight * ((h[i + 1] - h[i]) / (grid[i + 1] - grid[i]))
        violation = max(0.0, cvar_val - cfg.risk_cap)
        obj = j_probe + j_infl + cfg.penalty_weight * violation * violation
        # d j_infl / d theta = -y^T L^-1 J, one row of L^-1 J at a time.
        grad = -(y[0] * rows[0] + y[1] * rows[1])
        grad[0] += slope
        if violation > 0.0:
            grad += 2.0 * cfg.penalty_weight * violation * tail_gradient_one(
                ctx, ego_path, paths, costs)
        return (obj, cvar_val, j_probe, j_infl), grad

    candidates = start_candidates_one(cfg, warm_accel, bursts=ctx.probe_grid is not None)
    theta, (obj, cvar_val, j_probe, j_infl), history = descend_one(evaluate, candidates, cfg)
    infeasible = False
    if cvar_val > cfg.risk_cap:
        feasible = [h for h in history if h[1][1] <= cfg.risk_cap]
        if feasible:
            theta, (obj, cvar_val, j_probe, j_infl) = min(feasible, key=lambda h: h[1][0])
        else:
            theta, (obj, cvar_val, j_probe, j_infl) = min(history, key=lambda h: h[1][1])
            infeasible = True

    return ctx.mode_diag(
        m, nu=_controls(ctx, segment_accels(theta, cfg)), objective=obj, cvar_solution=cvar_val,
        j_probe=j_probe, j_influence=j_infl, infeasible=infeasible, evals=len(history),
    )


def conservative_step_scalar(
    planner: ConservativePlanner, ctx: _StepContext
) -> tuple[np.ndarray, PlanDiagnostics]:
    """The conservative step with a scalar objective closure: one
    ``path_costs`` and one ``cvar`` per solved mode and candidate, and the
    omega-weighted sum of the modes' tail gradients."""
    cfg = planner.cfg
    state = ctx.state
    weights = ctx.omega[ctx.solve].tolist()
    paths = [ctx.human_paths[m] for m in ctx.solve]

    bases = path_bases_one(state.ego, ctx.headings, cfg)

    def evaluate(theta: np.ndarray) -> tuple[tuple[float, list[float]], np.ndarray]:
        ego_path = ego_path_one(state.ego, theta, bases, ctx.headings, cfg)
        cvars, grads = [], []
        for p in paths:
            costs = path_costs(*ego_path, p, ctx.discount_weights, cfg.ref_speed)
            cvars.append(cvar(costs, cfg.cvar_level))
            grads.append(tail_gradient_one(ctx, ego_path, p, costs))
        objective = sum(w * v for w, v in zip(weights, cvars))
        return (objective, cvars), sum(w * g for w, g in zip(weights, grads))

    candidates = start_candidates_one(cfg, planner._ref_accel, bursts=False)
    theta, (objective, cvars), history = descend_one(evaluate, candidates, cfg)
    u_total = _controls(ctx, segment_accels(theta, cfg))
    solved = {
        m: ctx.mode_diag(
            m, nu=u_total, objective=objective, cvar_solution=value,
            j_probe=0.0, j_influence=0.0, evals=len(history),
        )
        for m, value in zip(ctx.solve, cvars)
    }
    return planner._finish_step(ctx, solved, u_total, len(history))


def blend_controls(
    per_mode: Sequence[tuple[float, np.ndarray]],
    eps: float,
    u_min: np.ndarray | None = None,
    u_max: np.ndarray | None = None,
) -> tuple[np.ndarray, bool]:
    """Joint-weight blend of per-mode control sequences.

    Sums omega * nu over modes with omega > eps. When no mode clears the
    threshold the argmax-omega mode's sequence is returned unscaled
    (fallback flag set). The result is clamped to bounds when given.
    """
    if not per_mode:
        raise InvalidInputError("per_mode must be non-empty")
    active = [(w, nu) for w, nu in per_mode if w > eps]
    fallback = not active
    if fallback:
        w_best, u_total = max(per_mode, key=lambda p: p[0])
        u_total = np.array(u_total, dtype=float)
    else:
        u_total = np.zeros_like(np.asarray(active[0][1], dtype=float))
        for w, nu in active:
            u_total = u_total + w * np.asarray(nu, dtype=float)
    if u_min is not None and u_max is not None:
        u_total = np.clip(u_total, u_min, u_max)
    return u_total, fallback


def plan_step_per_mode(
    planner: ActivePlanner,
    state: ScenarioState,
    b: HierarchicalBelief,
    rng: np.random.Generator | int,
) -> tuple[np.ndarray, PlanDiagnostics]:
    """``planner.plan_step`` with one scalar solve after another: the step
    as it ran before the chains ran in lockstep. Updates the planner's
    reference plan and warm starts as ``plan_step`` does."""
    ctx = planner._begin_step(state, b, rng)
    if isinstance(planner, ConservativePlanner):
        return conservative_step_scalar(planner, ctx)
    cfg = planner.cfg
    solved: dict[int, ModeDiag] = {}
    for m in ctx.solve:
        steer = ctx.belief.targets.targets[planner._steer_mode(ctx, m)].steer
        solved[m] = solve_mode_scalar(ctx, m, steer, planner._warm.get(m))
        nu = solved[m].nu
        planner._warm[m] = np.append(nu[1:, 0], nu[-1, 0])
    u_total, _ = blend_controls(
        [(d.omega, d.nu) for d in solved.values()],
        cfg.mode_activation_eps, cfg.u_min, cfg.u_max,
    )
    return planner._finish_step(ctx, solved, u_total, sum(d.evals for d in solved.values()))
