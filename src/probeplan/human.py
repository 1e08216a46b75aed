"""Deterministic reactive human-driver model and its noisy observation
channel.

The human tracks a desired speed that interpolates between nominal
cruising and an intent-dependent yielding floor. The interpolation is a
logistic in the projected gap at the conflict point, widened when the ego
closes fast, so assertive ego motion is read as commitment and elicits an
earlier, intent-revealing response. The same kernel (``conflict_level``)
is reused by the planner's observation predictions, keeping the authored
mode targets and the simulated behavior mutually consistent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import VehicleState, step_vehicle
from .errors import InvalidInputError
from .world import (
    ScenarioGeometry,
    closing_rate,
    ego_progress,
    human_progress,
    projected_conflict_gap,
)

# Fraction of nominal speed the human settles to under full conflict.
YIELD_FLOORS = {"aggressive": 0.95, "neutral": 0.7, "cooperative": 0.4}

# Hard physical limits of the model.
MAX_ACCEL = 4.0
SPEED_CAP_FACTOR = 1.5

# Drivers only react to conflicts within this many seconds of the ego's
# arrival; more distant encounters leave behavior uninformative.
REACTION_HORIZON = 4.0


@dataclass(frozen=True)
class HumanParams:
    """Per-run parameters of the simulated human driver."""

    ground_truth_intent: int
    nominal_speed: float
    yield_floor: float
    responsiveness: float = 5.0
    risk_threshold: float = 12.0
    observation_noise_std: float = 0.3

    def __post_init__(self) -> None:
        if self.responsiveness <= 0.0:
            raise InvalidInputError("responsiveness must be positive")
        if self.nominal_speed <= 0.0:
            raise InvalidInputError("nominal_speed must be positive")
        if self.observation_noise_std < 0.0:
            raise InvalidInputError("observation noise std must be nonnegative")
        if not 0.0 < self.yield_floor <= 1.0:
            raise InvalidInputError("yield_floor must lie in (0, 1]")


def _logistic(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-min(max(x, -50.0), 50.0)))


def conflict_level(
    ego: VehicleState,
    human: VehicleState,
    geometry: ScenarioGeometry,
    sharpness: float,
    risk_threshold: float,
    nominal_speed: float,
) -> float:
    """Logistic conflict intensity in (0, 1).

    The gap term is near 1 when the projected gap at the conflict point is
    far inside the reaction range (a fast-closing ego stretches that range,
    the implicit-communication channel); the urgency term gates it so only
    encounters within the reaction horizon elicit a response.
    """
    gap = projected_conflict_gap(geometry, ego, human)
    closing = max(0.0, closing_rate(ego, human))
    effective_range = risk_threshold * (1.0 + closing / max(nominal_speed, 1e-6))
    gap_term = _logistic(sharpness * (1.0 - gap / effective_range))
    dist_ego = max(0.0, -ego_progress(geometry, ego))
    t_ego = dist_ego / max(ego.v, 0.1)
    urgency = _logistic(sharpness * (1.0 - t_ego / REACTION_HORIZON))
    return gap_term * urgency


# Once a driver has slowed past this fraction of the way to its yield
# floor under live conflict, it commits to the full yield instead of
# hovering mid-response (threshold-triggered best response). A committed
# driver stays committed until it has physically cleared the conflict
# point; it does not bounce back the moment the pressure eases.
COMMIT_FRACTION = 0.3
CLEAR_MARGIN = 5.0


def desired_speed(
    human: VehicleState,
    ego: VehicleState,
    p: HumanParams,
    geometry: ScenarioGeometry,
) -> float:
    c = conflict_level(
        ego, human, geometry, p.responsiveness, p.risk_threshold, p.nominal_speed
    )
    commit_line = p.nominal_speed * (1.0 - COMMIT_FRACTION * (1.0 - p.yield_floor))
    in_conflict_zone = human_progress(geometry, human) < CLEAR_MARGIN
    if human.v < commit_line and (c > 0.05 or in_conflict_zone):
        return p.nominal_speed * p.yield_floor
    g = 1.0 - (1.0 - p.yield_floor) * c
    return p.nominal_speed * g


def human_response(
    h: VehicleState,
    ego: VehicleState,
    p: HumanParams,
    dt: float,
    geometry: ScenarioGeometry,
) -> VehicleState:
    """One deterministic step of the reactive human.

    Speed relaxes toward the desired speed with first-order gain
    ``responsiveness`` per second; acceleration is clamped to +-4 m/s^2 and
    speed stays within [0, 1.5 * nominal]. The human holds its lane.
    """
    if dt == 0.0:
        return h
    v_des = desired_speed(h, ego, p, geometry)
    accel = min(MAX_ACCEL, max(-MAX_ACCEL, p.responsiveness * (v_des - h.v)))
    out = step_vehicle(h, (accel, 0.0), dt)
    cap = SPEED_CAP_FACTOR * p.nominal_speed
    if out.v > cap:
        out = VehicleState(out.x, out.y, cap, out.theta)
    return out


def observe(h: VehicleState, p: HumanParams, rng: np.random.Generator) -> float:
    """Noisy observation: the human's speed plus Gaussian noise."""
    if p.observation_noise_std > 0.0:
        return h.v + rng.normal(0.0, p.observation_noise_std)
    return h.v
