"""Tail-risk estimation for candidate ego plans: Monte-Carlo rollout cost
sampling per behavior mode and CVaR (average of the worst alpha-fraction
of sampled costs).

The per-sample cost is a discounted sum over the horizon of a proximity
term (exponential in the inter-vehicle center distance) and a progress
deficit term (shortfall of ego speed below a reference), so both collision
pressure and dawdling register in the tail statistics.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .errors import InvalidInputError

if TYPE_CHECKING:  # import only for annotations
    from .belief import ModeTarget

# Cost functional constants: safety distance, proximity length scale, and
# the two term weights. Proximity dominates so tail risk is collision-led.
D_SAFE = 3.0
PROX_SCALE = 2.0
W_PROX = 10.0
W_PROGRESS = 1.0


def tail_sample_count(alpha: float, n: int) -> int:
    """m = max(1, ceil(alpha * n)) with an exact rational ceiling.

    Uses the nearest small rational to alpha so float artifacts such as
    0.2 * 10 = 2.0000000000000004 cannot flip the boundary.
    """
    if not 0.0 < alpha <= 1.0:
        raise InvalidInputError(f"alpha must lie in (0, 1], got {alpha}")
    frac = Fraction(alpha).limit_denominator(10**6)
    return max(1, math.ceil(frac * n))


def cvar(costs: np.ndarray, alpha: float) -> float:
    """Average of the worst ceil(alpha * S) costs (descending-sort tail)."""
    costs = np.asarray(costs, dtype=float)
    if costs.ndim != 1 or costs.size == 0:
        raise InvalidInputError("costs must be a non-empty vector")
    m = tail_sample_count(alpha, costs.size)
    # Stable sort keeps diagnostics reproducible; ties cannot change the mean.
    ordered = np.sort(costs, kind="stable")[::-1]
    return float(np.mean(ordered[:m]))


def simulate_ego_path(
    ego, plan: np.ndarray, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Roll the ego forward through a (T, 2) [accel, yaw rate] plan.

    Returns post-step positions (T, 2) and speeds (T,). Matches
    dynamics.step_vehicle (speed clamped at zero) without per-step object
    construction; used inside solver-hot loops.
    """
    plan = np.asarray(plan, dtype=float)
    t_steps = plan.shape[0]
    xy = np.empty((t_steps, 2))
    speeds = np.empty(t_steps)
    x, y, v, theta = ego.x, ego.y, ego.v, ego.theta
    for t in range(t_steps):
        x += v * math.cos(theta) * dt
        y += v * math.sin(theta) * dt
        v = max(0.0, v + plan[t, 0] * dt)
        theta += plan[t, 1] * dt
        xy[t, 0] = x
        xy[t, 1] = y
        speeds[t] = v
    return xy, speeds


def draw_human_paths(
    human, mode: "ModeTarget", n_samples: int, t_steps: int, dt: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sampled human positions (n_samples, t_steps, 2) under one mode.

    Per-step longitudinal speeds are drawn i.i.d. from the mode target's
    velocity marginal (clamped at zero; the human does not reverse) and
    integrated along the human's current heading.
    """
    mu = float(mode.target.mean[0])
    std = math.sqrt(float(mode.target.cov[0, 0]))
    speeds = np.maximum(0.0, rng.normal(mu, std, size=(n_samples, t_steps)))
    arc = np.cumsum(speeds * dt, axis=1)
    direction = np.array([math.cos(human.theta), math.sin(human.theta)])
    return human.position + arc[:, :, None] * direction


def path_costs(
    ego_xy: np.ndarray,
    ego_speeds: np.ndarray,
    human_xy: np.ndarray,
    discount: float,
    ref_speed: float,
) -> np.ndarray:
    """Discounted per-sample costs (S,) for an ego path (T, 2) with speeds
    (T,) against sampled human paths (S, T, 2)."""
    if human_xy.shape[1:] != ego_xy.shape:
        raise InvalidInputError(
            f"ego path {ego_xy.shape} does not match human paths {human_xy.shape}"
        )
    delta = ego_xy[None, :, :] - human_xy
    dist = np.hypot(delta[:, :, 0], delta[:, :, 1])
    prox = W_PROX * np.exp(-(dist - D_SAFE) / PROX_SCALE)
    shortfall = W_PROGRESS * np.maximum(0.0, ref_speed - ego_speeds) / ref_speed
    weights = discount ** np.arange(ego_xy.shape[0])
    return (prox + shortfall[None, :]) @ weights

