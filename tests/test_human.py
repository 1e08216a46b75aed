"""Reactive human model tests: determinism, yield ordering across intents,
safety clamps, and observation noise statistics."""

import math

import numpy as np
import pytest

from probeplan.dynamics import VehicleState
from probeplan.errors import InvalidInputError
from probeplan.human import (
    HumanParams,
    YIELD_FLOORS,
    conflict_level,
    desired_speed,
    human_response,
    observe,
)
from probeplan.world import lane_merge_geometry


GEOM = lane_merge_geometry()


def params(intent="neutral", **kw):
    defaults = dict(
        ground_truth_intent=1,
        nominal_speed=10.0,
        yield_floor=YIELD_FLOORS[intent],
        responsiveness=5.0,
        risk_threshold=12.0,
        observation_noise_std=0.3,
    )
    defaults.update(kw)
    return HumanParams(**defaults)


class TestResponse:
    def test_far_ego_means_nominal_cruising(self):
        # Gap ten times the reaction range: desired speed is nominal.
        human = VehicleState(-200.0, 0.0, 10.0, 0.0)
        ego = VehicleState(-320.0, 3.5, 9.0, 0.0)
        p = params("cooperative")
        assert desired_speed(human, ego, p, GEOM) == pytest.approx(10.0, abs=1e-6)
        out = human_response(human, ego, p, 0.1, GEOM)
        assert out.v == pytest.approx(10.0, abs=1e-6)
        assert out.x == pytest.approx(human.x + 1.0, abs=1e-9)

    def test_zero_dt_is_identity(self):
        human = VehicleState(-20.0, 0.0, 10.0, 0.0)
        ego = VehicleState(-25.0, 3.5, 9.0, 0.0)
        assert human_response(human, ego, params(), 0.0, GEOM) is human

    def test_cooperative_yields_more_than_aggressive(self):
        # Same geometry, two seconds of reaction: the cooperative human
        # ends strictly slower. Oracle is the model definition stepped.
        for floor_a, floor_b in [("cooperative", "aggressive"), ("cooperative", "neutral")]:
            h_a = VehicleState(-18.0, 0.0, 10.0, 0.0)
            h_b = VehicleState(-18.0, 0.0, 10.0, 0.0)
            ego = VehicleState(-20.0, 3.5, 9.5, 0.0)
            for _ in range(20):
                h_a = human_response(h_a, ego, params(floor_a), 0.1, GEOM)
                h_b = human_response(h_b, ego, params(floor_b), 0.1, GEOM)
            assert h_a.v < h_b.v

    def test_deterministic_bitwise(self):
        h = VehicleState(-15.0, 0.0, 9.0, 0.0)
        ego = VehicleState(-18.0, 3.5, 8.0, 0.0)
        a = human_response(h, ego, params(), 0.1, GEOM)
        b = human_response(h, ego, params(), 0.1, GEOM)
        assert (a.x, a.y, a.v, a.theta) == (b.x, b.y, b.v, b.theta)

    def test_speed_safety_clamp_under_arbitrary_ego(self):
        rng = np.random.default_rng(8)
        p = params("aggressive", nominal_speed=8.0)
        h = VehicleState(-30.0, 0.0, 8.0, 0.0)
        for _ in range(300):
            ego = VehicleState(
                float(rng.uniform(-60, 20)), float(rng.uniform(0, 4)),
                float(rng.uniform(0, 15)), float(rng.uniform(-0.5, 0.5)),
            )
            h = human_response(h, ego, p, 0.1, GEOM)
            assert 0.0 <= h.v <= 1.5 * p.nominal_speed + 1e-12

    def test_monotone_yielding_in_projected_gap(self):
        # Closing the projected gap never raises the desired speed.
        p = params("cooperative")
        ego_v, human_v = 9.0, 10.0
        last = math.inf
        for ego_x in np.linspace(-90.0, -10.0, 40):
            # Place the human so both arrive nearer in time as ego_x rises.
            human = VehicleState(ego_x * human_v / ego_v, 0.0, human_v, 0.0)
            ego = VehicleState(ego_x, 3.5, ego_v, 0.0)
            v_des = desired_speed(human, ego, p, GEOM)
            assert v_des <= last + 1e-12
            last = v_des

    def test_conflict_level_range(self):
        ego = VehicleState(-10.0, 3.5, 9.0, 0.0)
        human = VehicleState(-11.0, 0.0, 10.0, 0.0)
        c = conflict_level(ego, human, GEOM, 5.0, 12.0, 10.0)
        assert 0.0 < c < 1.0

    def test_param_validation(self):
        with pytest.raises(InvalidInputError):
            params(responsiveness=0.0)
        with pytest.raises(InvalidInputError):
            params(nominal_speed=-1.0)
        with pytest.raises(InvalidInputError):
            params(observation_noise_std=-0.1)


class TestObserve:
    def test_zero_noise_is_exact(self):
        h = VehicleState(-20.0, 0.0, 9.3, 0.0)
        p = params(observation_noise_std=0.0)
        assert observe(h, p, np.random.default_rng(0)) == 9.3

    def test_seeded_reproducible(self):
        h = VehicleState(-20.0, 0.0, 9.3, 0.0)
        a = observe(h, params(), np.random.default_rng(5))
        b = observe(h, params(), np.random.default_rng(5))
        assert a == b

    def test_one_normal_draw_per_observation(self):
        # The speed plus exactly one draw of the run's observation stream,
        # which every later observation of a seeded run depends on.
        h = VehicleState(-20.0, 0.0, 9.3, 0.0)
        rng, ref = np.random.default_rng(6), np.random.default_rng(6)
        for _ in range(50):
            assert observe(h, params(), rng) == 9.3 + ref.normal(0.0, 0.3, size=(1,))[0]

    def test_empirical_noise_std(self):
        h = VehicleState(-20.0, 0.0, 9.0, 0.0)
        p = params(observation_noise_std=0.3)
        rng = np.random.default_rng(11)
        zs = np.array([observe(h, p, rng) for _ in range(10_000)])
        assert abs(zs.std() - 0.3) / 0.3 < 0.05
        assert zs.mean() == pytest.approx(9.0, abs=0.02)
