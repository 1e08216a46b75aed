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
(``draw_human_paths``) and the discount weights. ``path_costs`` and
``cvar`` take a leading mode axis, so the solver's lockstep rounds score
each distinct acceleration sequence with one ``simulate_ego_path``, one
``path_costs`` over a (modes, S, T) block of every mode that asked for it,
and one ``cvar`` over the resulting (modes, S) costs. Every kernel
reproduces a plain per-mode sequential loop bit for bit: cumulative sums
run in order, the element operations are the same ones in the same order,
and each mode's discounted sum is its own matrix-vector product.

Certificate below the cap. CVaR at any level is at most the largest sample
cost (Rockafellar & Uryasev 2000), and a sample's cost at step t only grows
as the human comes closer to the ego. The point of the samples' bounding
box (``sample_boxes``, per mode and step) nearest to the ego is at least as
close as any sample, so ``path_cost_bounds``, the same per-element cost
taken at that point, bounds every sample's ``path_costs`` from above: the
subtractions, squares, square root and the affine map before ``exp`` are
monotone in floating point, so only ``exp`` and the discounted dot can
round the other way, by a few ulp. A planner that needs a CVaR only to see
whether it exceeds the cap may skip the exact value where the bound is
below the cap by a relative margin far wider than that rounding
(``CERTIFY_MARGIN``).
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

# Relative margin below the cap a cost bound must keep to certify a CVaR:
# it covers the ulp-level rounding in ``exp`` and the discounted dot, which
# is about 1e-14 relative at any horizon the planner runs.
CERTIFY_MARGIN = 1e-9


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


def cvar(costs: np.ndarray, alpha: float) -> float | np.ndarray:
    """Average of the worst ceil(alpha * S) costs along the last (sample)
    axis: a float for costs (S,), one value per row for costs (K, S).

    Only the tail is sorted: ``np.partition`` moves the m largest costs to
    the end, and their mean is taken in descending order, the order a full
    descending sort sums them in. NaN costs count as the largest.
    """
    costs = np.asarray(costs, dtype=float)
    if costs.ndim not in (1, 2) or costs.size == 0:
        raise InvalidInputError("costs must be a non-empty vector or stack of vectors")
    n = costs.shape[-1]
    m = tail_sample_count(alpha, n)
    tail = np.sort(np.partition(costs, n - m, axis=-1)[..., n - m:], axis=-1)
    out = np.mean(tail[..., ::-1], axis=-1)
    return float(out) if costs.ndim == 1 else out


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

    Returns post-step x (T,), y (T,) and speeds (T,). Sequences (K, T) give
    (K, T) each, row k equal to sequence k's own call. Matches
    dynamics.step_vehicle (speed clamped at zero); used inside solver-hot
    loops.
    """
    accel = np.asarray(accel, dtype=float)
    if accel.ndim not in (1, 2) or accel.shape[-1:] != headings.shape[1:]:
        raise InvalidInputError(
            f"acceleration {accel.shape} does not match headings {headings.shape}"
        )
    lead = accel.shape[:-1]
    t_steps = accel.shape[-1]
    v = np.empty(lead + (t_steps + 1,))
    v[..., 0] = ego.v
    np.multiply(accel, dt, out=v[..., 1:])
    np.cumsum(v, axis=-1, out=v)
    clamped = ~(v[..., 1:] > 0.0).all(axis=-1)
    if clamped.any():
        # Some speed reaches zero: integrate with the clamp, step by step.
        for row in np.flatnonzero(clamped.reshape(-1)):
            a_row = accel.reshape(-1, t_steps)[row]
            v_row = v.reshape(-1, t_steps + 1)[row]
            speed = ego.v
            for t in range(t_steps):
                speed = max(0.0, speed + a_row[t] * dt)
                v_row[t + 1] = speed
    pos = np.empty(lead + (2, t_steps + 1))
    pos[..., 0, 0] = ego.x
    pos[..., 1, 0] = ego.y
    np.multiply(v[..., None, :-1], headings, out=pos[..., 1:])
    pos[..., 1:] *= dt
    np.cumsum(pos, axis=-1, out=pos)
    return pos[..., 0, 1:], pos[..., 1, 1:], v[..., 1:]


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
    discount ``weights`` (T,). Human paths (K, 2, S, T) of K modes give
    costs (K, S), each row equal to its mode's own call."""
    if human.ndim not in (3, 4) or human.shape[-3] != 2 or human.shape[-1:] != ego_x.shape:
        raise InvalidInputError(
            f"ego path {ego_x.shape} does not match human paths {human.shape}"
        )
    return _step_costs(
        ego_x - human[..., 0, :, :], ego_y - human[..., 1, :, :], ego_speeds, ref_speed
    ) @ weights


def _step_costs(
    dx: np.ndarray, dy: np.ndarray, ego_speeds: np.ndarray, ref_speed: float
) -> np.ndarray:
    """Per-step costs from ego-minus-human offsets ``dx`` and ``dy``, both
    overwritten: the proximity term plus the progress deficit of
    ``ego_speeds`` (broadcast over the last axis)."""
    # Distance as sqrt(dx*dx + dy*dy), within 1 ulp of np.hypot and about
    # 3x faster; the squares cannot overflow at road scales.
    dx *= dx
    dy *= dy
    dy += dx
    np.sqrt(dy, out=dy)
    # W_PROX * exp((D_SAFE - dist) / PROX_SCALE), in place.
    np.subtract(D_SAFE, dy, out=dy)
    dy /= PROX_SCALE
    np.exp(dy, out=dy)
    dy *= W_PROX
    dy += W_PROGRESS * np.maximum(0.0, ref_speed - ego_speeds) / ref_speed
    return dy


def sample_boxes(human: np.ndarray) -> np.ndarray:
    """Bounding boxes of sampled human paths (..., 2, S, T) per step, as
    (..., 4, T) with rows x min, x max, y min and y max over the samples."""
    boxes = np.empty(human.shape[:-3] + (4, human.shape[-1]))
    boxes[..., 0::2, :] = human.min(axis=-2)
    boxes[..., 1::2, :] = human.max(axis=-2)
    return boxes


def path_cost_bounds(
    ego_x: np.ndarray,
    ego_y: np.ndarray,
    ego_speeds: np.ndarray,
    boxes: np.ndarray,
    weights: np.ndarray,
    ref_speed: float,
) -> np.ndarray:
    """Upper bounds (P,) on ``path_costs`` of P ego paths (x, y and speeds,
    each (P, T)) against the samples whose ``sample_boxes`` are ``boxes``
    (P, 4, T): the cost of the point of each step's box nearest the ego,
    in the element operations ``path_costs`` runs per sample."""
    return _step_costs(
        ego_x - np.clip(ego_x, boxes[:, 0], boxes[:, 1]),
        ego_y - np.clip(ego_y, boxes[:, 2], boxes[:, 3]),
        ego_speeds, ref_speed,
    ) @ weights
