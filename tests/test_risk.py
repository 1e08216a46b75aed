"""CVaR and rollout cost tests, checked against a sort-by-hand oracle,
statistical comparisons, and plain loop/full-sort oracles that the
per-step kernels must reproduce bit for bit. The rollout costs are also
held within a derived bound of the ``np.hypot`` distance they used
before, and bounded above by the cost of the samples' bounding box that
certifies a CVaR below the cap."""

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
    CERTIFY_MARGIN,
    D_SAFE,
    PROX_SCALE,
    W_PROGRESS,
    W_PROX,
    _step_costs,
    cvar,
    draw_human_paths,
    path_cost_bounds,
    path_costs,
    sample_boxes,
    simulate_ego_path,
    tail_sample_count,
)
from probeplan.dynamics import step_vehicle
from probeplan.world import ScenarioState, lane_merge_geometry

from oracles import draw_human_paths_one, ego_headings


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


def sqrt_distance(dx, dy):
    return np.sqrt(dx * dx + dy * dy)


def stacked_distances(ego_xy, human_xy, distance=sqrt_distance):
    """Oracle: ego-human distances (S, T) of an ego path (T, 2) against
    stacked human paths (S, T, 2)."""
    delta = ego_xy[None, :, :] - human_xy
    return distance(delta[:, :, 0], delta[:, :, 1])


def stacked_path_costs(ego_xy, ego_speeds, human_xy, discount, ref_speed, distance=sqrt_distance):
    """Oracle: per-sample costs of an ego path (T, 2) against stacked human
    paths (S, T, 2), computed out of place. ``distance`` is
    ``sqrt(dx*dx + dy*dy)``, as ``path_costs`` computes it, or ``np.hypot``,
    which it computed before."""
    dist = stacked_distances(ego_xy, human_xy, distance)
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
    (human,), _ = draw_human_paths(
        state.human, [mode], cfg.rollout_count, cfg.horizon_steps, cfg.dt,
        [np.random.default_rng(seed)],
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
        # Ego rows meet one mode's paths, not a stack of modes.
        rows = np.zeros((4, self.cfg.horizon_steps))
        with pytest.raises(InvalidInputError):
            path_costs(rows, rows, rows, np.zeros((4, 2, 10, self.cfg.horizon_steps)),
                       np.ones(self.cfg.horizon_steps), 1.0)


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
                human, [mode], 50, self.T, self.DT, [np.random.default_rng(seed)]
            )[0][0]
            assert planes.shape == (2, 50, self.T)
            assert np.array_equal(planes[0], stacked[:, :, 0])
            assert np.array_equal(planes[1], stacked[:, :, 1])

    def test_human_path_block_matches_one_mode_at_a_time(self):
        # The block equals the modes' planes drawn one mode at a time from
        # the same streams, bit for bit: headings at +-pi and -0.0, a
        # zero-variance mode, a mode with negative mean (clamped speeds),
        # one sample and one step.
        rng = np.random.default_rng(15)
        headings = [math.pi, -math.pi, -0.0, 0.0, math.pi / 2]
        for i in range(60):
            theta = headings[i] if i < len(headings) else rng.uniform(-math.pi, math.pi)
            human = VehicleState(rng.uniform(-50.0, 50.0), -0.0 if i % 2 else 2.0, 5.0, theta)
            modes = [random_mode(rng) for _ in range(int(rng.integers(1, 5)))]
            modes += [mode_1d(6.0, 0.0), mode_1d(-50.0, 1.0)]
            n_samples, t_steps = [(1, self.T), (50, 1), (1, 1), (20, self.T)][i % 4]
            seeds = rng.integers(2**32, size=len(modes))
            block, _ = draw_human_paths(human, modes, n_samples, t_steps, self.DT,
                                     [np.random.default_rng(s) for s in seeds])
            want = np.stack([
                draw_human_paths_one(human, mode, n_samples, t_steps, self.DT,
                                     np.random.default_rng(s))
                for mode, s in zip(modes, seeds)
            ])
            assert block.shape == (len(modes), 2, n_samples, t_steps)
            assert block.tobytes() == want.tobytes()
            # The negative mean clamps every speed at zero: that mode stands.
            assert np.all(block[-1, 0] == human.x) and np.all(block[-1, 1] == human.y)

    def test_boxes_match_plane_wise_extremes(self):
        # The boxes, mapped from the arcs' extremes, equal the min and max of
        # the planes over the samples bit for bit, signed zeros included:
        # headings 0, -pi/2, pi and random ones, offsets +-0.0, standing modes.
        rng = np.random.default_rng(17)
        headings = [0.0, -math.pi / 2, math.pi, -0.0]
        zeros = 0
        for i in range(300):
            theta = headings[i % 5] if i % 5 < 4 else rng.uniform(-math.pi, math.pi)
            x, y = [rng.choice([0.0, -0.0, rng.uniform(-30.0, 30.0)]) for _ in range(2)]
            human = VehicleState(x, y, 5.0, theta)
            modes = [random_mode(rng) for _ in range(int(rng.integers(1, 4)))]
            modes += [mode_1d(-50.0, 1.0), mode_1d(6.0, 0.0)]
            n_samples, t_steps = [(1, self.T), (50, 1), (20, self.T)][i % 3]
            planes, boxes = draw_human_paths(
                human, modes, n_samples, t_steps, self.DT,
                [np.random.default_rng(s) for s in rng.integers(2**32, size=len(modes))],
            )
            want = np.stack([planes[:, 0].min(axis=1), planes[:, 0].max(axis=1),
                             planes[:, 1].min(axis=1), planes[:, 1].max(axis=1)], axis=1)
            assert boxes.tobytes() == want.tobytes()
            zeros += int(np.sum((want == 0.0) & np.signbit(want)))
        assert zeros > 0  # some box edge is -0.0

    def test_boxes_of_hand_made_arcs(self):
        # Repeated and zero arcs (the clamp makes no -0.0 one) through both
        # signs of each factor, -0.0 among them, and a -0.0 offset.
        rng = np.random.default_rng(18)
        for theta in (0.0, -0.0, 0.3, 2.0, -2.5, math.pi, -math.pi / 2):
            human = VehicleState(-0.0, 0.0, 5.0, theta)
            arcs = rng.choice([0.0, 1.5, 1.5000000000000002, 40.0], size=(3, 8, 5))
            planes = np.stack([arcs * math.cos(theta) + human.x, arcs * math.sin(theta) + human.y],
                              axis=1)
            want = np.stack([planes[:, 0].min(axis=1), planes[:, 0].max(axis=1),
                             planes[:, 1].min(axis=1), planes[:, 1].max(axis=1)], axis=1)
            assert sample_boxes(human, arcs).tobytes() == want.tobytes()

    def test_path_costs_and_cvar_random_inputs(self):
        rng = np.random.default_rng(13)
        weights = 0.95 ** np.arange(self.T)
        moved = 0
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
            stacked = stacked_human_paths(human, mode, 100, self.T, self.DT,
                                          np.random.default_rng(seed))
            expected = stacked_path_costs(xy, speeds, stacked, 0.95, ref_speed)
            headings = ego_headings(ego, plan[:, 1], self.DT)
            x, y, v = simulate_ego_path(ego, plan[:, 0], headings, self.DT)
            planes = draw_human_paths(human, [mode], 100, self.T, self.DT,
                                      [np.random.default_rng(seed)])[0][0]
            costs = path_costs(x, y, v, planes, weights, ref_speed)
            assert np.array_equal(costs, expected)

            # Ego rows (R, T) on the same headings against the same paths.
            accels = np.vstack((plan[:, 0], rng.uniform(-3.0, 3.0, (2, self.T))))
            rows = path_costs(*simulate_ego_path(ego, accels, headings, self.DT),
                              planes, weights, ref_speed)
            assert rows.shape == (3, 100) and np.array_equal(rows[0], costs)
            for accel, row in zip(accels[1:], rows[1:]):
                row_xy, row_speeds = loop_ego_path(ego, np.column_stack((accel, plan[:, 1])),
                                                   self.DT)
                assert np.array_equal(
                    row, stacked_path_costs(row_xy, row_speeds, stacked, 0.95, ref_speed))
            for alpha in (0.05, 0.2, 1.0):
                assert cvar(costs, alpha) == full_sort_cvar(expected, alpha)

            # The np.hypot distances of the kernel before: within 1 ulp of
            # the sqrt ones. exp scales a distance's relative error by
            # dist / PROX_SCALE, so a cost may move by up to dist / 2 ulp
            # on top of its own rounding.
            dist = stacked_distances(xy, stacked)
            hypot_dist = stacked_distances(xy, stacked, np.hypot)
            assert np.all(np.abs(dist - hypot_dist) <= 2 * np.spacing(hypot_dist))
            hypot_costs = stacked_path_costs(xy, speeds, stacked, 0.95, ref_speed, np.hypot)
            bound = np.spacing(hypot_costs) * (2.0 + dist.max(axis=1))
            assert np.all(np.abs(costs - hypot_costs) <= bound)
            moved += int(np.count_nonzero(costs != hypot_costs))
        assert moved > 0

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


class TestCostBound:
    """``path_cost_bounds`` against ``sample_boxes`` is at least every
    sample's ``path_costs``, so at least the CVaR at any level: up to the
    relative ``CERTIFY_MARGIN`` the certificate keeps for the rounding of
    ``exp`` and of the discounted dot."""

    T = 30
    DT = 0.1
    SLACK = 1.0 - CERTIFY_MARGIN

    def check(self, ego, accel, yaw, human, mode, n_samples, alpha, seed, ref_speed=9.5):
        weights = 0.95 ** np.arange(self.T)
        x, y, v = simulate_ego_path(ego, accel, ego_headings(ego, yaw, self.DT), self.DT)
        (paths,), (boxes,) = draw_human_paths(human, [mode], n_samples, self.T, self.DT,
                                              [np.random.default_rng(seed)])
        costs = path_costs(x, y, v, paths, weights, ref_speed)
        assert boxes.shape == (4, self.T)
        (bound,) = path_cost_bounds(x[None], y[None], v[None], boxes[None], weights, ref_speed)
        assert bound >= self.SLACK * costs.max()
        assert costs.max() >= self.SLACK * cvar(costs, alpha)
        return x, y, v, boxes, bound

    @given(
        ego=st.tuples(
            st.floats(-50.0, 50.0), st.floats(-5.0, 5.0), st.floats(0.0, 14.0),
            st.floats(-math.pi, math.pi),
        ),
        brake=st.booleans(),
        yaw_scale=st.floats(0.0, 0.6),
        offset=st.tuples(st.floats(-25.0, 25.0), st.floats(-25.0, 25.0)),
        human_theta=st.one_of(
            st.sampled_from([0.0, math.pi / 2, -math.pi, 0.3]), st.floats(-math.pi, math.pi)
        ),
        mean=st.floats(-2.0, 14.0),
        var=st.sampled_from([0.0, 0.04, 1.0, 4.0, 16.0]),
        n_samples=st.sampled_from([1, 2, 7, 100]),
        inside=st.booleans(),
        alpha=st.floats(0.01, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_bound_dominates_every_sample_and_the_cvar(
        self, ego, brake, yaw_scale, offset, human_theta, mean, var, n_samples, inside,
        alpha, seed,
    ):
        rng = np.random.default_rng(seed)
        ego = VehicleState(*ego)
        # Braking at up to 6 m/s^2 stops the ego within the horizon from any
        # speed below 18 m/s: the speed clamps at zero.
        accel = np.full(self.T, -6.0) if brake else rng.uniform(-3.0, 3.0, self.T)
        yaw = rng.uniform(-yaw_scale, yaw_scale, self.T)
        if inside:
            # The human starts at the ego, along its heading, at about its
            # speed: the ego runs inside the samples' spread.
            human = VehicleState(ego.x, ego.y, ego.v, ego.theta)
            mean, yaw = ego.v, np.zeros(self.T)
        else:
            human = VehicleState(ego.x + offset[0], ego.y + offset[1], 5.0, human_theta)
        self.check(ego, accel, yaw, human, mode_1d(mean, var), n_samples, alpha, seed)

    def test_ego_inside_every_box(self):
        """Where the ego lies inside a step's box the bound takes the
        proximity term at distance zero; a zero-variance mode's box is its
        one path."""
        ego = VehicleState(0.0, 0.0, 5.0, 0.4)
        human = VehicleState(0.0, 0.0, 5.0, 0.4)
        accel, yaw = np.zeros(self.T), np.zeros(self.T)
        for var, n_samples in ((4.0, 100), (0.0, 1), (0.0, 20)):
            x, y, v, boxes, bound = self.check(
                ego, accel, yaw, human, mode_1d(5.0, var), n_samples, 0.05, 3
            )
            if var == 0.0:
                assert np.array_equal(boxes[0], boxes[1]) and np.array_equal(boxes[2], boxes[3])
            else:
                inside = (boxes[0] <= x) & (x <= boxes[1]) & (boxes[2] <= y) & (y <= boxes[3])
                assert inside.sum() >= self.T // 2
        weights = 0.95 ** np.arange(self.T)
        # Every step inside: each term is the proximity peak.
        boxes = np.tile([[-1.0], [1.0], [-1.0], [1.0]], self.T)
        (peak,) = path_cost_bounds(
            np.zeros((1, self.T)), np.zeros((1, self.T)), np.full((1, self.T), 9.5),
            boxes[None], weights, 9.5,
        )
        assert peak == pytest.approx(W_PROX * math.exp(D_SAFE / PROX_SCALE) * weights.sum())

    def test_bounds_match_np_clip_with_nan_and_signed_zeros(self):
        # path_cost_bounds clips with np.minimum(np.maximum(...)); against
        # np.clip it agrees bit for bit, NaN ego rows and -0.0 included.
        rng = np.random.default_rng(16)
        weights = 0.95 ** np.arange(self.T)
        x, y = rng.uniform(-5.0, 5.0, (2, 6, self.T))
        x[0, 3], y[1, :] = math.nan, math.nan
        x[2], y[2] = -0.0, 0.0
        x[3], y[3] = 0.0, -0.0
        speeds = rng.uniform(0.0, 12.0, (6, self.T))
        boxes = np.sort(rng.uniform(-3.0, 3.0, (6, 4, self.T)), axis=1)[:, [0, 2, 1, 3]]
        boxes[4] = -0.0
        boxes[5, :2], boxes[5, 2:] = [[-0.0], [0.0]], 0.0
        x[4, ::3], x[5, ::2], y[5, 1::2] = 0.0, -0.0, -0.0
        got = path_cost_bounds(x, y, speeds, boxes, weights, 9.5)
        want = _step_costs(
            x - np.clip(x, boxes[:, 0], boxes[:, 1]), y - np.clip(y, boxes[:, 2], boxes[:, 3]),
            speeds, 9.5,
        ) @ weights
        assert np.isnan(got[:2]).all()
        assert got.tobytes() == want.tobytes()

    def test_far_boxes_certify_and_near_ones_do_not(self):
        """The bound is tight enough to certify a far human below the
        default cap of 60 and never certifies the ego inside the spread."""
        cfg = PlannerConfig()
        far = rollout_bound(merge_state(human_y=-40.0), cfg)
        near = rollout_bound(merge_state(human_x=-40.0, human_y=3.5), cfg)
        assert far < cfg.risk_cap < near


def rollout_bound(state, cfg):
    plan = np.zeros((cfg.horizon_steps, 2))
    headings = ego_headings(state.ego, plan[:, 1], cfg.dt)
    x, y, v = simulate_ego_path(state.ego, plan[:, 0], headings, cfg.dt)
    (paths,), (boxes,) = draw_human_paths(state.human, [mode_1d(10.0, 1.0)], cfg.rollout_count,
                                          cfg.horizon_steps, cfg.dt, [np.random.default_rng(1)])
    weights = cfg.discount ** np.arange(cfg.horizon_steps)
    return path_cost_bounds(x[None], y[None], v[None], boxes[None],
                            weights, cfg.ref_speed)[0]
