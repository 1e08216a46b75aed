"""Dynamics tests: a Monte-Carlo oracle for the planner's horizon
covariance under the double-integrator model, and unicycle stepping
contracts."""

import math

import numpy as np
import pytest

from probeplan.dynamics import VehicleState, step_vehicle
from probeplan.errors import InvalidInputError
from probeplan.planner import INIT_POS_STD, INIT_VEL_STD, PlannerConfig, ego_horizon_covariance

CONFIGS = [
    PlannerConfig(),
    PlannerConfig(horizon_steps=12, dt=0.2, accel_noise_var=0.5),
    PlannerConfig(horizon_steps=5, accel_noise_var=0.0),
]


def mc_horizon_covariance(cfg, n_rollouts, rng):
    """Sample-covariance oracle: double-integrator rollouts (position,
    velocity) from the initial spread, with fresh acceleration noise held
    over each step."""
    pos = rng.normal(0.0, INIT_POS_STD, n_rollouts)
    vel = rng.normal(0.0, INIT_VEL_STD, n_rollouts)
    for _ in range(cfg.horizon_steps):
        accel = rng.normal(0.0, math.sqrt(cfg.accel_noise_var), n_rollouts)
        pos = pos + cfg.dt * vel + 0.5 * cfg.dt * cfg.dt * accel
        vel = vel + cfg.dt * accel
    return np.cov(np.stack([pos, vel]), ddof=0)


class TestHorizonCovariance:
    @pytest.mark.parametrize("cfg", CONFIGS)
    def test_monte_carlo_oracle(self, cfg):
        sigma = ego_horizon_covariance(cfg)
        emp = mc_horizon_covariance(cfg, 50_000, np.random.default_rng(7))
        assert np.linalg.norm(sigma - emp) / np.linalg.norm(sigma) < 0.05

    @pytest.mark.parametrize("cfg", CONFIGS)
    def test_symmetric_psd(self, cfg):
        sigma = ego_horizon_covariance(cfg)
        assert np.array_equal(sigma, sigma.T)
        assert np.min(np.linalg.eigvalsh(sigma)) >= -1e-9


class TestStepVehicle:
    def test_continuity_at_tiny_dt(self):
        s = VehicleState(1.0, 2.0, 5.0, 0.3)
        out = step_vehicle(s, (2.0, 0.5), 1e-9)
        for name in ("x", "y", "v", "theta"):
            assert abs(getattr(out, name) - getattr(s, name)) < 1e-6

    def test_straight_line(self):
        out = step_vehicle(VehicleState(0, 0, 10, 0), (0.0, 0.0), 0.1)
        assert (out.x, out.y, out.v, out.theta) == (1.0, 0.0, 10.0, 0.0)

    def test_no_reversing(self):
        out = step_vehicle(VehicleState(0, 0, 0.0, 0), (-5.0, 0.0), 0.1)
        assert out.v == 0.0

    def test_heading_wraps_to_principal_branch(self):
        out = step_vehicle(VehicleState(0, 0, 1, 3.1), (0.0, 1.0), 0.1)
        assert -math.pi < out.theta <= math.pi
        # The tie at -pi lands on +pi.
        tie = step_vehicle(VehicleState(0, 0, 1, -math.pi + 0.05), (0.0, -0.5), 0.1)
        assert tie.theta == pytest.approx(math.pi)

    def test_rejects_nonfinite(self):
        s = VehicleState(0, 0, 1, 0)
        with pytest.raises(InvalidInputError):
            step_vehicle(s, (math.nan, 0.0), 0.1)
        with pytest.raises(InvalidInputError):
            step_vehicle(s, (0.0, 0.0), 0.0)
        with pytest.raises(InvalidInputError):
            VehicleState(math.inf, 0, 1, 0)

    def test_speed_stays_nonnegative_under_fuzz(self):
        rng = np.random.default_rng(3)
        s = VehicleState(0, 0, 2.0, 0.0)
        for _ in range(200):
            u = (float(rng.uniform(-8, 8)), float(rng.uniform(-2, 2)))
            s = step_vehicle(s, u, 0.1)
            assert s.v >= 0.0
            assert -math.pi < s.theta <= math.pi
