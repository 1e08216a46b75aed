"""Geometry helper tests for both scenario frames."""

import math

import numpy as np
import pytest

from probeplan.dynamics import VehicleState
from probeplan.errors import InvalidInputError
from probeplan.world import (
    center_distance,
    closing_rate,
    ego_progress,
    geometry_for,
    human_progress,
    intersection_geometry,
    lane_merge_geometry,
    projected_conflict_gap,
)


class TestProgress:
    def test_merge_progress_is_x(self):
        g = lane_merge_geometry()
        assert ego_progress(g, VehicleState(-12.0, 3.5, 5.0, 0.0)) == -12.0
        assert human_progress(g, VehicleState(4.0, 0.0, 5.0, 0.0)) == 4.0

    def test_intersection_human_progress_along_minus_y(self):
        g = intersection_geometry()
        before = VehicleState(0.0, 18.0, 5.0, -0.5 * math.pi)
        after = VehicleState(0.0, -3.0, 5.0, -0.5 * math.pi)
        assert human_progress(g, before) == -18.0
        assert human_progress(g, after) == 3.0

    def test_unknown_kind(self):
        # The error the scenario builders raise for an unknown kind.
        with pytest.raises(InvalidInputError, match="unknown scenario kind 'roundabout'"):
            geometry_for("roundabout")


class TestKinematicHelpers:
    def test_center_distance(self):
        a = VehicleState(0.0, 0.0, 1.0, 0.0)
        b = VehicleState(3.0, 4.0, 1.0, 0.0)
        assert center_distance(a, b) == 5.0

    def test_closing_rate_sign(self):
        chaser = VehicleState(0.0, 0.0, 10.0, 0.0)
        target = VehicleState(20.0, 0.0, 6.0, 0.0)
        assert closing_rate(chaser, target) == pytest.approx(4.0)
        # Separating pair closes negatively.
        assert closing_rate(target, chaser) == pytest.approx(4.0)
        runner = VehicleState(20.0, 0.0, 14.0, 0.0)
        assert closing_rate(chaser, runner) == pytest.approx(-4.0)

    def test_projected_gap_simultaneous_arrival(self):
        g = lane_merge_geometry()
        # Both reach the conflict point at t = 4 s: projected gap 0.
        ego = VehicleState(-36.0, 3.5, 9.0, 0.0)
        human = VehicleState(-40.0, 0.0, 10.0, 0.0)
        assert projected_conflict_gap(g, ego, human) == pytest.approx(0.0, abs=1e-12)

    def test_projected_gap_grows_when_human_passed(self):
        g = lane_merge_geometry()
        ego = VehicleState(-36.0, 3.5, 9.0, 0.0)
        human = VehicleState(5.0, 0.0, 10.0, 0.0)  # already through
        assert projected_conflict_gap(g, ego, human) == pytest.approx(40.0)
