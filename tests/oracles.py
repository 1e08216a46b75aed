"""Reference implementations the tests pin the planner's kernels against.

No run calls these. They are the readable forms of what the planner
computes in a faster way:

* ``mean_posterior_entropy`` and ``expected_posterior_entropy``: the probe
  estimate as one projection per grid point and one predicted observation
  (``predicted_observation_one``), ``update`` and ``entropy`` per
  observation draw; ``probe_grid`` runs it once per grid point, as
  ``_build_probe_grid`` did before it was batched.
* ``predicted_interaction_gaussian`` and ``influence_objective``: the
  influence term from a full Gaussian and ``kl_divergence``, where
  ``_solve_mode`` uses precomputed constants.
* ``solve_mode_control``: one mode's solve on its own.
* ``descend_without_memo``: the shared solver loop evaluating every
  candidate it scores, repeats included.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from probeplan.belief import HierarchicalBelief, ModeTarget, entropy, max_entropy, update
from probeplan.dynamics import step_vehicle
from probeplan.errors import DegenerateEvidenceError, InvalidInputError
from probeplan.gaussmath import Gaussian, kl_divergence
from probeplan.human import VELOCITY, conflict_level
from probeplan.planner import (
    _FD_STEP,
    PROBE_LOOKAHEAD_STEPS,
    PROBE_PI_WEIGHTED,
    ActivePlanner,
    ModeDiag,
    PlannerConfig,
    _interaction_frame,
    _linear_terminal_state,
    _observation_draws,
    _solve_mode,
    ego_horizon_covariance,
)
from probeplan.seeding import STREAM_PROBE, rng_from_keys
from probeplan.world import ScenarioState


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
    """``predicted_observation_mean`` for one mode, as a (d,) vector."""
    c = conflict_level(
        ego_ref, human_ref, geometry, cfg.response_gain,
        geometry.risk_threshold, geometry.nominal_human_speed,
    )
    relax = 1.0 - math.exp(-cfg.response_gain * c * response_time)
    v_pred = human_ref.v + relax * (float(mode.target.mean[0]) - human_ref.v)
    values = []
    for name in cfg.features:
        if name == VELOCITY:
            values.append(v_pred)
        else:
            step = v_pred * cfg.dt
            hx = human_ref.x + step * geometry.human_dir[0]
            hy = human_ref.y + step * geometry.human_dir[1]
            values.append(math.hypot(ego_ref.x - hx, ego_ref.y - hy))
    return np.array(values)


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
    ego_ref, human_ref = state.ego, state.human
    for _ in range(PROBE_LOOKAHEAD_STEPS):
        ego_ref = step_vehicle(ego_ref, (float(first_accel), 0.0), cfg.dt)
        human_ref = step_vehicle(human_ref, (0.0, 0.0), cfg.dt)
    response_time = PROBE_LOOKAHEAD_STEPS * cfg.dt
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


def descend_without_memo(
    evaluate: Callable[[np.ndarray], tuple],
    candidates: list[np.ndarray],
    cfg: PlannerConfig,
) -> tuple[np.ndarray, tuple, list[tuple[np.ndarray, tuple]]]:
    """``_descend`` calling ``evaluate`` for every candidate it scores."""
    a_lo, a_hi = cfg.accel_bounds
    horizon = cfg.horizon_steps
    seg_len = -(-horizon // cfg.solver_segments)
    history: list[tuple[np.ndarray, tuple]] = []

    def score(theta: np.ndarray) -> tuple[np.ndarray, tuple]:
        accel = np.repeat(np.clip(theta, a_lo, a_hi), seg_len)[:horizon]
        history.append((accel, evaluate(accel)))
        return history[-1]

    theta = accel = current = None
    for cand in candidates:
        cand_accel, res = score(cand)
        if current is None or res[0] < current[0]:
            theta, accel, current = cand.copy(), cand_accel, res

    for _ in range(cfg.solver_iters):
        grad = np.zeros(theta.shape[0])
        for m in range(theta.shape[0]):
            h = _FD_STEP if theta[m] + _FD_STEP <= a_hi else -_FD_STEP
            probe = theta.copy()
            probe[m] += h
            grad[m] = (score(probe)[1][0] - current[0]) / h
        scale = float(np.max(np.abs(grad)))
        if scale < 1e-12:
            break
        direction = grad / scale
        step = cfg.solver_step
        for _ in range(3):
            trial = np.clip(theta - step * direction, a_lo, a_hi)
            trial_accel, res = score(trial)
            if res[0] < current[0] - 1e-12:
                theta, accel, current = trial, trial_accel, res
                break
            step *= 0.5
        else:
            break
    return accel, current, history


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
    ctx = ActivePlanner(cfg)._begin_step(state, b, rng)
    diag = _solve_mode(ctx, keys.index((mode.intent_id, mode.mode_id)), mode.steer, None)
    return diag.nu, diag
