"""CVaR and rollout cost tests, checked against a sort-by-hand oracle and
statistical comparisons."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probeplan.belief import ModeTarget
from probeplan.dynamics import VehicleState
from probeplan.errors import InvalidInputError
from probeplan.gaussmath import Gaussian
from probeplan.planner import PlannerConfig
from probeplan.risk import (
    cvar,
    draw_human_paths,
    path_costs,
    simulate_ego_path,
    tail_sample_count,
)
from probeplan.dynamics import step_vehicle
from probeplan.world import ScenarioState, lane_merge_geometry


def oracle_cvar(costs, alpha):
    ordered = sorted(costs, reverse=True)
    m = max(1, math.ceil(round(alpha * len(costs), 9)))
    return sum(ordered[:m]) / m


def mode_1d(mean, var):
    return ModeTarget(1, 1, Gaussian(np.array([mean]), np.array([[var]])))


def rollout_costs(state, plan, mode, cfg, seed):
    """Sampled rollout costs of an ego plan under one mode, composed from
    the functions the planners call."""
    ego_xy, ego_speeds = simulate_ego_path(state.ego, plan, cfg.dt)
    human_xy = draw_human_paths(
        state.human, mode, cfg.rollout_count, cfg.horizon_steps, cfg.dt,
        np.random.default_rng(seed),
    )
    return path_costs(ego_xy, ego_speeds, human_xy, cfg.discount, cfg.ref_speed)


def merge_state(ego_x=-40.0, ego_v=9.0, human_x=-35.0, human_v=10.0, human_y=0.0):
    return ScenarioState(
        ego=VehicleState(ego_x, 3.5, ego_v, 0.0),
        human=VehicleState(human_x, human_y, human_v, 0.0),
        geometry=lane_merge_geometry(),
    )


class TestCvar:
    def test_top_two_of_ten(self):
        costs = np.arange(1.0, 11.0)
        assert cvar(costs, 0.2) == pytest.approx(9.5)
        assert cvar(costs, 0.2) == pytest.approx(oracle_cvar(costs, 0.2))

    def test_worst_single(self):
        costs = np.arange(1.0, 11.0)
        assert cvar(costs, 0.05) == 10.0

    def test_alpha_one_is_mean(self):
        costs = np.arange(1.0, 11.0)
        assert cvar(costs, 1.0) == pytest.approx(5.5)

    def test_exact_boundary_m(self):
        # Float artifacts like 0.2 * 10 = 2.0000000000000004 must not flip m.
        assert tail_sample_count(0.2, 10) == 2
        assert tail_sample_count(0.05, 100) == 5
        assert tail_sample_count(0.25, 8) == 2
        assert tail_sample_count(0.1, 30) == 3
        assert tail_sample_count(1.0, 7) == 7
        assert tail_sample_count(1e-9, 100) == 1
        assert tail_sample_count(1 / 3, 9) == 3

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidInputError):
            cvar(np.array([]), 0.5)
        with pytest.raises(InvalidInputError):
            cvar(np.ones(3), 0.0)
        with pytest.raises(InvalidInputError):
            cvar(np.ones(3), 1.5)

    def test_matches_oracle_on_random_inputs(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(1, 60))
            costs = rng.exponential(3.0, n)
            alpha = float(rng.choice([0.05, 0.1, 0.2, 0.25, 0.5, 1.0, rng.uniform(0.01, 1.0)]))
            assert cvar(costs, alpha) == pytest.approx(oracle_cvar(costs, alpha), rel=1e-12)

    @given(
        costs=st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=1, max_size=40),
        alpha=st.floats(0.01, 1.0),
        shift=st.floats(0.0, 100.0),
        scale=st.floats(0.01, 50.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_algebraic_properties(self, costs, alpha, shift, scale):
        c = np.array(costs)
        v = cvar(c, alpha)
        assert v >= float(c.mean()) - 1e-9
        assert cvar(c + shift, alpha) == pytest.approx(v + shift, rel=1e-9, abs=1e-9)
        assert cvar(c * scale, alpha) == pytest.approx(v * scale, rel=1e-9, abs=1e-9)

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(4)
        costs = rng.exponential(2.0, 37)
        values = [cvar(costs, a) for a in np.linspace(0.01, 1.0, 25)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


class TestRolloutCosts:
    def setup_method(self):
        self.cfg = PlannerConfig()
        self.plan = np.zeros((self.cfg.horizon_steps, 2))

    def test_count_and_positivity(self):
        costs = rollout_costs(merge_state(), self.plan, mode_1d(10.0, 1.0), self.cfg, 123)
        assert costs.shape == (100,)
        assert np.all(np.isfinite(costs))
        assert np.all(costs >= 0.0)

    def test_vanishes_when_safe_and_fast(self):
        # Human a megameter away, ego already at the reference speed.
        state = ScenarioState(
            ego=VehicleState(0.0, 3.5, self.cfg.ref_speed, 0.0),
            human=VehicleState(0.0, 1e6, 10.0, 0.0),
            geometry=lane_merge_geometry(),
        )
        costs = rollout_costs(state, self.plan, mode_1d(10.0, 1.0), self.cfg, 5)
        assert np.all(costs < 1e-6)

    def test_tighter_mode_reduces_cost_spread(self):
        wide = mode_1d(10.0, 4.0)
        tight = mode_1d(10.0, 0.04)
        wins = 0
        for seed in range(20):
            s_wide = float(rollout_costs(merge_state(), self.plan, wide, self.cfg, seed).std())
            s_tight = float(rollout_costs(merge_state(), self.plan, tight, self.cfg, seed).std())
            wins += s_tight < s_wide
        assert wins >= 16  # one-sided sign test, p < 0.01

    def test_bit_reproducible(self):
        a = rollout_costs(merge_state(), self.plan, mode_1d(9.0, 1.0), self.cfg, 77)
        b = rollout_costs(merge_state(), self.plan, mode_1d(9.0, 1.0), self.cfg, 77)
        assert np.array_equal(a, b)

    def test_plan_shape_checked(self):
        with pytest.raises(InvalidInputError):
            rollout_costs(merge_state(), np.zeros((5, 2)), mode_1d(9.0, 1.0), self.cfg, 1)


class TestEgoPathHelper:
    def test_matches_step_vehicle(self):
        ego = VehicleState(1.0, -2.0, 6.0, 0.2)
        rng = np.random.default_rng(5)
        plan = np.column_stack((rng.uniform(-3, 3, 12), rng.uniform(-0.5, 0.5, 12)))
        xy, speeds = simulate_ego_path(ego, plan, 0.1)
        s = ego
        for t in range(12):
            s = step_vehicle(s, (plan[t, 0], plan[t, 1]), 0.1)
            assert xy[t, 0] == pytest.approx(s.x, abs=1e-12)
            assert xy[t, 1] == pytest.approx(s.y, abs=1e-12)
            assert speeds[t] == pytest.approx(s.v, abs=1e-12)
