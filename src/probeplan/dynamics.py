"""Vehicle dynamics: the planar vehicle state and a kinematic unicycle step
for simulation.

The planner predicts with a per-axis double integrator (position, velocity;
acceleration input) of its own; this simulation model is deliberately
richer so the linearization gap is real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError


def _wrap_angle(theta: float) -> float:
    """Wrap to the principal branch (-pi, pi]; the tie at -pi maps to +pi."""
    wrapped = math.remainder(theta, 2.0 * math.pi)
    if wrapped == -math.pi:
        wrapped = math.pi
    return wrapped


@dataclass(frozen=True)
class VehicleState:
    """Planar kinematic state: position (m), speed (m/s), heading (rad)."""

    x: float
    y: float
    v: float
    theta: float = 0.0

    def __post_init__(self) -> None:
        for name in ("x", "y", "v", "theta"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidInputError(f"non-finite vehicle state field {name}")
        if self.v < 0.0:
            raise InvalidInputError("speed must be nonnegative")
        object.__setattr__(self, "theta", _wrap_angle(self.theta))

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y])

    @property
    def velocity(self) -> np.ndarray:
        return np.array([self.v * math.cos(self.theta), self.v * math.sin(self.theta)])


def step_vehicle(s: VehicleState, u: tuple[float, float], dt: float) -> VehicleState:
    """Kinematic unicycle step with control (acceleration, yaw rate).

    The speed clamps at zero (no reversing) and the heading stays on the
    principal branch.
    """
    accel, yaw_rate = float(u[0]), float(u[1])
    if dt <= 0.0:
        raise InvalidInputError("dt must be positive")
    if not (math.isfinite(accel) and math.isfinite(yaw_rate)):
        raise InvalidInputError("non-finite control input")
    cos_t = math.cos(s.theta)
    sin_t = math.sin(s.theta)
    return VehicleState(
        x=s.x + s.v * cos_t * dt,
        y=s.y + s.v * sin_t * dt,
        v=max(0.0, s.v + accel * dt),
        theta=_wrap_angle(s.theta + yaw_rate * dt),
    )
