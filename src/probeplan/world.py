"""Scenario geometry and joint world state.

Both evaluation scenarios share one frame: the ego travels along +x toward
a conflict point at the origin. In the lane merge the human shares the
main lane (y = 0) while the ego approaches on a parallel ramp; in the
unsignaled intersection the human approaches the origin from +y heading
down. Progress coordinates measure signed arc length past the conflict
point along each agent's own lane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .dynamics import VehicleState
from .errors import InvalidInputError

LANE_MERGE = "lane_merge"
INTERSECTION = "intersection"

# Disc footprint radius per vehicle; centers closer than 2 * radius collide.
FOOTPRINT_RADIUS = 1.0
COLLISION_DISTANCE = 2.0 * FOOTPRINT_RADIUS


@dataclass(frozen=True)
class ScenarioGeometry:
    """Fixed per-scenario constants."""

    kind: str
    human_dir: tuple[float, float]
    ramp_y: float
    target_lane_y: float
    zone_half_width: float
    nominal_human_speed: float
    risk_threshold: float
    merge_gap_min: float = 4.0


def lane_merge_geometry() -> ScenarioGeometry:
    return ScenarioGeometry(
        kind=LANE_MERGE,
        human_dir=(1.0, 0.0),
        ramp_y=3.5,
        target_lane_y=0.0,
        zone_half_width=2.5,
        nominal_human_speed=10.0,
        risk_threshold=12.0,
    )


def intersection_geometry() -> ScenarioGeometry:
    return ScenarioGeometry(
        kind=INTERSECTION,
        human_dir=(0.0, -1.0),
        ramp_y=0.0,
        target_lane_y=0.0,
        zone_half_width=2.5,
        nominal_human_speed=6.5,
        risk_threshold=10.0,
    )


def geometry_for(kind: str) -> ScenarioGeometry:
    if kind == LANE_MERGE:
        return lane_merge_geometry()
    if kind == INTERSECTION:
        return intersection_geometry()
    raise InvalidInputError(f"unknown scenario kind {kind!r}")


@dataclass(frozen=True)
class ScenarioState:
    """Ego and human kinematic states plus the scenario they live in."""

    ego: VehicleState
    human: VehicleState
    geometry: ScenarioGeometry
    elapsed: float = 0.0

    def advanced(self, ego: VehicleState, human: VehicleState, dt: float) -> "ScenarioState":
        return replace(self, ego=ego, human=human, elapsed=self.elapsed + dt)


def ego_progress(geometry: ScenarioGeometry, ego: VehicleState) -> float:
    """Signed arc length of the ego past the conflict point (negative before)."""
    return ego.x


def human_progress(geometry: ScenarioGeometry, human: VehicleState) -> float:
    return human.x * geometry.human_dir[0] + human.y * geometry.human_dir[1]


def center_distance(ego: VehicleState, human: VehicleState) -> float:
    return math.hypot(ego.x - human.x, ego.y - human.y)


def closing_rate(ego: VehicleState, human: VehicleState) -> float:
    """Rate at which the center distance shrinks (positive when approaching)."""
    dp = ego.position - human.position
    dist = math.hypot(dp[0], dp[1])
    if dist < 1e-9:
        return 0.0
    dv = ego.velocity - human.velocity
    return -float(dp @ dv) / dist


def projected_conflict_gap(
    geometry: ScenarioGeometry, ego: VehicleState, human: VehicleState
) -> float:
    """Separation of the human from the conflict point at the ego's
    projected arrival time, holding both current speeds."""
    dist_ego = max(0.0, -ego_progress(geometry, ego))
    dist_human = max(0.0, -human_progress(geometry, human))
    t_ego = dist_ego / max(ego.v, 0.1)
    return abs(dist_human - human.v * t_ego)
