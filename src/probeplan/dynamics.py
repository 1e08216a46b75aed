"""Vehicle dynamics: linear-Gaussian covariance propagation for planning
and a kinematic unicycle step for simulation.

The planning model is a per-axis double integrator (position, velocity;
acceleration input). The simulation model is deliberately richer so the
linearization gap is real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError


@dataclass(frozen=True)
class LinearModel:
    """Discrete-time linear dynamics x+ = A x + B u with input noise cov W."""

    a: np.ndarray
    b: np.ndarray
    w: np.ndarray

    def __post_init__(self) -> None:
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        b = np.atleast_2d(np.asarray(self.b, dtype=float))
        w = np.atleast_2d(np.asarray(self.w, dtype=float))
        if a.shape[0] != a.shape[1]:
            raise InvalidInputError("A must be square")
        if b.shape[0] != a.shape[0]:
            raise InvalidInputError("B row count must match A")
        if w.shape != (b.shape[1], b.shape[1]):
            raise InvalidInputError("W must be square with the control dimension")
        if np.max(np.abs(w - w.T)) > 1e-9 or np.min(np.linalg.eigvalsh(0.5 * (w + w.T))) < -1e-9:
            raise InvalidInputError("W must be symmetric PSD")
        for name, m in (("a", a), ("b", b), ("w", w)):
            m = np.ascontiguousarray(m)
            m.flags.writeable = False
            object.__setattr__(self, name, m)

    @property
    def state_dim(self) -> int:
        return self.a.shape[0]


def double_integrator(dt: float, accel_noise_var: float = 0.05) -> LinearModel:
    """1-axis (position, velocity) model with acceleration input, exact ZOH."""
    a = np.array([[1.0, dt], [0.0, 1.0]])
    b = np.array([[0.5 * dt * dt], [dt]])
    w = np.array([[accel_noise_var]])
    return LinearModel(a, b, w)


def propagate_cov(sigma: np.ndarray, m: LinearModel) -> np.ndarray:
    """Covariance update A Sigma A^T + B W B^T, re-symmetrized."""
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    if sigma.shape != (m.state_dim, m.state_dim):
        raise InvalidInputError("covariance shape must match the state dimension")
    if np.max(np.abs(sigma - sigma.T)) > 1e-9:
        raise InvalidInputError("covariance must be symmetric")
    out = m.a @ sigma @ m.a.T + m.b @ m.w @ m.b.T
    return 0.5 * (out + out.T)


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
