"""Dynamics tests: hand arithmetic for the linear model, a Monte-Carlo
oracle for covariance propagation, and unicycle stepping contracts."""

import math

import numpy as np
import pytest

from probeplan.dynamics import (
    LinearModel,
    VehicleState,
    propagate_cov,
    step_vehicle,
)
from probeplan.errors import InvalidInputError


def random_stable_model(rng, n=3, m=2):
    a = rng.normal(0, 1, (n, n))
    a *= 0.9 / max(abs(np.linalg.eigvals(a)))
    b = rng.normal(0, 1, (n, m))
    w_root = rng.normal(0, 0.4, (m, m))
    return LinearModel(a, b, w_root @ w_root.T)


def mc_covariance(model, sigma0, steps, n_rollouts, rng):
    """Sample-covariance oracle: propagate rollouts with fresh input noise."""
    n = model.state_dim
    chol0 = np.linalg.cholesky(sigma0 + 1e-12 * np.eye(n))
    x = rng.standard_normal((n_rollouts, n)) @ chol0.T
    m = model.b.shape[1]
    chol_w = np.linalg.cholesky(model.w + 1e-12 * np.eye(m))
    for _ in range(steps):
        noise = rng.standard_normal((n_rollouts, m)) @ chol_w.T
        x = x @ model.a.T + noise @ model.b.T
    return np.cov(x.T, ddof=0)


class TestPropagateCov:
    def test_identity_noiseless(self):
        m = LinearModel(np.eye(2), np.zeros((2, 1)), np.array([[0.0]]))
        sigma = np.array([[2.0, 0.3], [0.3, 1.0]])
        assert np.allclose(propagate_cov(sigma, m), sigma, atol=1e-15)

    def test_scalar_doubling(self):
        m = LinearModel(np.array([[2.0]]), np.array([[1.0]]), np.array([[0.0]]))
        assert propagate_cov(np.array([[1.0]]), m)[0, 0] == pytest.approx(4.0)

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(2):
            model = random_stable_model(rng)
            sigma = np.eye(3) * 0.5
            prop = sigma
            for _ in range(10):
                prop = propagate_cov(prop, model)
            emp = mc_covariance(model, sigma, 10, 50_000, rng)
            rel = np.linalg.norm(prop - emp) / np.linalg.norm(prop)
            assert rel < 0.05

    def test_output_psd(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            model = random_stable_model(rng)
            s_root = rng.normal(0, 1, (3, 3))
            out = propagate_cov(s_root @ s_root.T, model)
            assert np.min(np.linalg.eigvalsh(out)) >= -1e-9
            assert np.array_equal(out, out.T)


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
