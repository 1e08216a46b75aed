"""CVaR and rollout cost tests, checked against a sort-by-hand oracle,
statistical comparisons, and plain loop/full-sort oracles that the
per-step kernels must reproduce bit for bit."""

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
    D_SAFE,
    PROX_SCALE,
    W_PROGRESS,
    W_PROX,
    cvar,
    draw_human_paths,
    ego_headings,
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


def loop_ego_path(ego, plan, dt):
    """Oracle: the ego rolled forward one step at a time through a (T, 2)
    [accel, yaw rate] plan; post-step positions (T, 2) and speeds (T,)."""
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


def stacked_human_paths(human, mode, n_samples, t_steps, dt, rng):
    """Oracle: sampled human positions stacked as (S, T, 2)."""
    mu = float(mode.target.mean[0])
    std = math.sqrt(float(mode.target.cov[0, 0]))
    speeds = np.maximum(0.0, rng.normal(mu, std, size=(n_samples, t_steps)))
    arc = np.cumsum(speeds * dt, axis=1)
    direction = np.array([math.cos(human.theta), math.sin(human.theta)])
    return human.position + arc[:, :, None] * direction


def stacked_path_costs(ego_xy, ego_speeds, human_xy, discount, ref_speed):
    """Oracle: per-sample costs of an ego path (T, 2) against stacked human
    paths (S, T, 2), computed out of place."""
    delta = ego_xy[None, :, :] - human_xy
    dist = np.hypot(delta[:, :, 0], delta[:, :, 1])
    prox = W_PROX * np.exp(-(dist - D_SAFE) / PROX_SCALE)
    shortfall = W_PROGRESS * np.maximum(0.0, ref_speed - ego_speeds) / ref_speed
    weights = discount ** np.arange(ego_xy.shape[0])
    return (prox + shortfall[None, :]) @ weights


def full_sort_cvar(costs, alpha):
    """Oracle: mean of the first m costs of a full descending stable sort."""
    costs = np.asarray(costs, dtype=float)
    m = tail_sample_count(alpha, costs.size)
    ordered = np.sort(costs, kind="stable")[::-1]
    return float(np.mean(ordered[:m]))


def mode_1d(mean, var):
    return ModeTarget(1, 1, Gaussian(np.array([mean]), np.array([[var]])))


def rollout_costs(state, plan, mode, cfg, seed):
    """Sampled rollout costs of an ego plan (T, 2) under one mode, composed
    from the functions the planners call."""
    headings = ego_headings(state.ego, plan[:, 1], cfg.dt)
    ego_x, ego_y, ego_speeds = simulate_ego_path(state.ego, plan[:, 0], headings, cfg.dt)
    human = draw_human_paths(
        state.human, mode, cfg.rollout_count, cfg.horizon_steps, cfg.dt,
        np.random.default_rng(seed),
    )
    weights = cfg.discount ** np.arange(cfg.horizon_steps)
    return path_costs(ego_x, ego_y, ego_speeds, human, weights, cfg.ref_speed)


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
        headings = ego_headings(ego, plan[:, 1], 0.1)
        x, y, speeds = simulate_ego_path(ego, plan[:, 0], headings, 0.1)
        s = ego
        for t in range(12):
            s = step_vehicle(s, (plan[t, 0], plan[t, 1]), 0.1)
            assert x[t] == pytest.approx(s.x, abs=1e-12)
            assert y[t] == pytest.approx(s.y, abs=1e-12)
            assert speeds[t] == pytest.approx(s.v, abs=1e-12)

    def test_rejects_mismatched_headings(self):
        ego = VehicleState(0.0, 0.0, 5.0, 0.0)
        headings = ego_headings(ego, np.zeros(12), 0.1)
        with pytest.raises(InvalidInputError):
            simulate_ego_path(ego, np.zeros(11), headings, 0.1)


def random_vehicle(rng, v_max=12.0):
    return VehicleState(
        rng.uniform(-50.0, 50.0), rng.uniform(-5.0, 5.0), rng.uniform(0.0, v_max),
        rng.uniform(-math.pi, math.pi),
    )


def random_mode(rng):
    return mode_1d(rng.uniform(-2.0, 12.0), rng.uniform(0.01, 4.0))


class TestKernelsMatchLoopOracles:
    """The per-step kernels reproduce the plain loop, stacked-array and
    full-sort versions bit for bit, so no planner output moves."""

    T = 30
    DT = 0.1

    def test_ego_path_random_plans(self):
        rng = np.random.default_rng(11)
        clamped = 0
        for i in range(400):
            if i % 4 == 0:
                # Full braking from low speed: the clamp at zero engages.
                ego = random_vehicle(rng, v_max=2.0)
                accel = np.full(self.T, -3.0)
                accel[rng.integers(self.T):] = rng.uniform(-3.0, 3.0)
            else:
                ego = random_vehicle(rng)
                accel = rng.uniform(-3.0, 3.0, self.T)
            plan = np.column_stack((accel, rng.uniform(-0.6, 0.6, self.T)))
            xy, speeds = loop_ego_path(ego, plan, self.DT)
            headings = ego_headings(ego, plan[:, 1], self.DT)
            x, y, v = simulate_ego_path(ego, accel, headings, self.DT)
            assert np.array_equal(x, xy[:, 0])
            assert np.array_equal(y, xy[:, 1])
            assert np.array_equal(v, speeds)
            clamped += bool(np.any(speeds == 0.0))
        assert clamped >= 100

    def test_human_planes_random_headings_and_modes(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            human = random_vehicle(rng)
            mode = random_mode(rng)
            seed = int(rng.integers(2**32))
            stacked = stacked_human_paths(
                human, mode, 50, self.T, self.DT, np.random.default_rng(seed)
            )
            planes = draw_human_paths(
                human, mode, 50, self.T, self.DT, np.random.default_rng(seed)
            )
            assert planes.shape == (2, 50, self.T)
            assert np.array_equal(planes[0], stacked[:, :, 0])
            assert np.array_equal(planes[1], stacked[:, :, 1])

    def test_path_costs_and_cvar_random_inputs(self):
        rng = np.random.default_rng(13)
        weights = 0.95 ** np.arange(self.T)
        for i in range(200):
            ego = random_vehicle(rng, v_max=2.0 if i % 4 == 0 else 12.0)
            human = random_vehicle(rng)
            # Bring the human near the ego so the proximity term matters.
            human = VehicleState(
                ego.x + rng.uniform(-10, 10), ego.y + rng.uniform(-10, 10),
                human.v, human.theta,
            )
            plan = np.column_stack(
                (rng.uniform(-3.0, 3.0, self.T), rng.uniform(-0.6, 0.6, self.T))
            )
            mode = random_mode(rng)
            seed = int(rng.integers(2**32))
            ref_speed = float(rng.uniform(3.0, 12.0))
            xy, speeds = loop_ego_path(ego, plan, self.DT)
            expected = stacked_path_costs(
                xy, speeds,
                stacked_human_paths(human, mode, 100, self.T, self.DT,
                                    np.random.default_rng(seed)),
                0.95, ref_speed,
            )
            x, y, v = simulate_ego_path(
                ego, plan[:, 0], ego_headings(ego, plan[:, 1], self.DT), self.DT
            )
            costs = path_costs(
                x, y, v,
                draw_human_paths(human, mode, 100, self.T, self.DT,
                                 np.random.default_rng(seed)),
                weights, ref_speed,
            )
            assert np.array_equal(costs, expected)
            for alpha in (0.05, 0.2, 1.0):
                assert cvar(costs, alpha) == full_sort_cvar(expected, alpha)

    def test_cvar_random_ties_and_nan(self):
        rng = np.random.default_rng(14)
        for _ in range(3000):
            n = int(rng.integers(1, 120))
            costs = rng.integers(0, 6, n).astype(float) * rng.choice([1.0, 0.1, 7.3])
            if rng.random() < 0.5:
                costs += rng.exponential(1.0, n) * (rng.random(n) < 0.5)
            if rng.random() < 0.2:
                costs[rng.integers(n)] = math.nan
            alpha = float(rng.choice([0.05, 0.1, 0.2, 0.25, 0.5, 1.0, rng.uniform(0.01, 1.0)]))
            assert np.array_equal(
                [cvar(costs, alpha)], [full_sort_cvar(costs, alpha)], equal_nan=True
            )

    @given(
        costs=st.lists(
            st.one_of(
                st.sampled_from([0.0, 1.0, 2.5, 1e6, math.nan]),
                st.floats(),
            ),
            min_size=1, max_size=60,
        ),
        alpha=st.floats(0.01, 1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_cvar_matches_full_sort(self, costs, alpha):
        # Signed zeros tie in both orders and compare equal.
        c = np.array(costs)
        assert np.array_equal([cvar(c, alpha)], [full_sort_cvar(c, alpha)], equal_nan=True)
