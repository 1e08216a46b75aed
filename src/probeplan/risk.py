"""Tail-risk estimation for candidate ego plans: Monte-Carlo rollout cost
sampling per behavior mode and CVaR (average of the worst alpha-fraction
of sampled costs, Rockafellar & Uryasev 2000).

The per-sample cost is a discounted sum over the horizon of a proximity
term (exponential in the inter-vehicle center distance) and a progress
deficit term (shortfall of ego speed below a reference), so both collision
pressure and dawdling register in the tail statistics.

This module is the one per-step rollout/CVaR kernel every planner runs.
What does not depend on the candidate acceleration is built once per
step: the ego headings (``ego_headings``, from the lane-guidance yaw
alone), each mode's sampled human paths as contiguous x and y planes
(``draw_human_paths``) and the discount weights. Each solver evaluation
then costs one ``simulate_ego_path``, one ``path_costs`` per mode and one
``cvar`` per mode. Every kernel reproduces the plain sequential loop it
replaces bit for bit: cumulative sums run in order, and the element
operations are the same ones in the same order.
"""

from __future__ import annotations

import functools
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


@functools.lru_cache(maxsize=256)
def tail_sample_count(alpha: float, n: int) -> int:
    """m = max(1, ceil(alpha * n)) with an exact rational ceiling.

    Uses the nearest small rational to alpha so float artifacts such as
    0.2 * 10 = 2.0000000000000004 cannot flip the boundary. Cached: a run
    asks for the same (alpha, n) at every evaluation.
    """
    if not 0.0 < alpha <= 1.0:
        raise InvalidInputError(f"alpha must lie in (0, 1], got {alpha}")
    frac = Fraction(alpha).limit_denominator(10**6)
    return max(1, math.ceil(frac * n))


def cvar(costs: np.ndarray, alpha: float) -> float:
    """Average of the worst ceil(alpha * S) costs.

    Only the tail is sorted: ``np.partition`` moves the m largest costs to
    the end, and their mean is taken in descending order, the order a full
    descending sort sums them in. NaN costs count as the largest.
    """
    costs = np.asarray(costs, dtype=float)
    if costs.ndim != 1 or costs.size == 0:
        raise InvalidInputError("costs must be a non-empty vector")
    n = costs.size
    m = tail_sample_count(alpha, n)
    tail = np.sort(np.partition(costs, n - m)[n - m:])
    return float(np.mean(tail[::-1]))


def ego_headings(ego, yaw: np.ndarray, dt: float) -> np.ndarray:
    """Ego heading cosines and sines (2, T) under a yaw-rate sequence (T,).

    Row t holds the heading the ego moves along during step t, before that
    step's yaw is applied. The heading ignores acceleration, so one step's
    candidate plans all share it.
    """
    t_steps = len(yaw)
    out = np.empty((2, t_steps))
    theta = ego.theta
    for t in range(t_steps):
        out[0, t] = math.cos(theta)
        out[1, t] = math.sin(theta)
        theta += yaw[t] * dt
    return out


def simulate_ego_path(
    ego, accel: np.ndarray, headings: np.ndarray, dt: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Roll the ego forward under an acceleration sequence (T,) along
    precomputed ``headings`` (2, T).

    Returns post-step x (T,), y (T,) and speeds (T,). Matches
    dynamics.step_vehicle (speed clamped at zero); used inside solver-hot
    loops.
    """
    accel = np.asarray(accel, dtype=float)
    if accel.shape != headings.shape[1:]:
        raise InvalidInputError(
            f"acceleration {accel.shape} does not match headings {headings.shape}"
        )
    t_steps = accel.shape[0]
    v = np.empty(t_steps + 1)
    v[0] = ego.v
    np.multiply(accel, dt, out=v[1:])
    np.cumsum(v, out=v)
    if not (v[1:] > 0.0).all():
        # Some speed reaches zero: integrate with the clamp, step by step.
        speed = ego.v
        for t in range(t_steps):
            speed = max(0.0, speed + accel[t] * dt)
            v[t + 1] = speed
    pos = np.empty((2, t_steps + 1))
    pos[0, 0] = ego.x
    pos[1, 0] = ego.y
    np.multiply(v[:-1], headings, out=pos[:, 1:])
    pos[:, 1:] *= dt
    np.cumsum(pos, axis=1, out=pos)
    return pos[0, 1:], pos[1, 1:], v[1:]


def draw_human_paths(
    human, mode: "ModeTarget", n_samples: int, t_steps: int, dt: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sampled human positions as x and y planes (2, n_samples, t_steps)
    under one mode.

    Per-step longitudinal speeds are drawn i.i.d. from the mode target's
    velocity marginal (clamped at zero; the human does not reverse) and
    integrated along the human's current heading.
    """
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


def path_costs(
    ego_x: np.ndarray,
    ego_y: np.ndarray,
    ego_speeds: np.ndarray,
    human: np.ndarray,
    weights: np.ndarray,
    ref_speed: float,
) -> np.ndarray:
    """Discounted per-sample costs (S,) for an ego path (x, y and speeds,
    each (T,)) against sampled human paths (2, S, T), with per-step
    discount ``weights`` (T,)."""
    if human.ndim != 3 or human.shape[0] != 2 or human.shape[2:] != ego_x.shape:
        raise InvalidInputError(
            f"ego path {ego_x.shape} does not match human paths {human.shape}"
        )
    cost = np.hypot(ego_x - human[0], ego_y - human[1])
    # W_PROX * exp(-(dist - D_SAFE) / PROX_SCALE), in place.
    cost -= D_SAFE
    np.negative(cost, out=cost)
    cost /= PROX_SCALE
    np.exp(cost, out=cost)
    cost *= W_PROX
    cost += W_PROGRESS * np.maximum(0.0, ref_speed - ego_speeds) / ref_speed
    return cost @ weights
