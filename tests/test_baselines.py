"""Baseline planner tests: drop-in substitutability, definitional
equivalence with the full planner in degenerate cases, and directional
timidity of the hedging planner."""

import dataclasses
import re

import numpy as np
import pytest

from probeplan.baselines import ConservativePlanner, PassivePlanner
from probeplan.belief import (
    HierarchicalBelief,
    ModeTarget,
    ModeTargetSet,
    joint_weights,
    uniform_belief,
)
from probeplan.dynamics import VehicleState
from probeplan.errors import InvalidInputError
from probeplan.gaussmath import Gaussian
from probeplan.planner import ActivePlanner, PlannerConfig
from probeplan.scenario import default_targets
from probeplan.world import LANE_MERGE
from probeplan.world import ScenarioState, lane_merge_geometry

from oracles import coasting_cvar_pre


def mk_mode(intent, mode, obs_mean, obs_var, steer_mean, steer_var=(2.0, 16.0)):
    return ModeTarget(
        intent, mode,
        Gaussian(np.array([obs_mean]), np.array([[obs_var]])),
        steer=Gaussian(np.array(steer_mean, dtype=float), np.diag(steer_var)),
    )


def merge_state(ego=(-40.0, 3.5, 9.0), human=(-35.0, 0.0, 10.0)):
    return ScenarioState(
        ego=VehicleState(*ego, 0.0),
        human=VehicleState(*human, 0.0),
        geometry=lane_merge_geometry(),
    )


FAST = dict(rollout_count=30, solver_iters=2)


def single_mode_belief():
    targets = ModeTargetSet([mk_mode(1, 1, 10.0, 1.0, (9.5, 10.0))])
    return uniform_belief(targets)


def conflict_belief():
    """Two modes pulling opposite ways: one rewards acceleration (go ahead),
    one rewards braking (fall behind)."""
    targets = ModeTargetSet(
        [
            mk_mode(1, 1, 10.0, 1.0, (10.0, 15.0)),
            mk_mode(2, 1, 10.0, 1.0, (6.0, -15.0)),
        ]
    )
    return uniform_belief(targets)


def timid_conflict():
    """Conflict with a flat risk landscape: one mode rewards closing up,
    the other holding back, and neither choice is risk-pressured, so
    hedging across both shows up as near-zero control."""
    targets = ModeTargetSet(
        [
            mk_mode(1, 1, 9.5, 1.0, (11.0, -10.0)),
            mk_mode(2, 1, 9.5, 1.0, (9.0, -25.0)),
        ]
    )
    return uniform_belief(targets)


class TestPassive:
    def test_degenerate_belief_matches_active_lambda_zero_bitwise(self):
        cfg = PlannerConfig(entropy_weight=0.0)
        b = single_mode_belief()
        state = merge_state()
        u_active, d_active = ActivePlanner(cfg, 555, b.targets).plan_step(state, b)
        u_passive, d_passive = PassivePlanner(cfg, 555, b.targets).plan_step(state, b)
        assert np.array_equal(u_active, u_passive)
        assert np.array_equal(d_active.u_total, d_passive.u_total)
        assert d_active.j_influence == d_passive.j_influence

    def test_controls_within_bounds(self):
        cfg = PlannerConfig()
        b = conflict_belief()
        u, diag = PassivePlanner(cfg, 8, b.targets).plan_step(merge_state(), b)
        assert np.all(u >= cfg.u_min - 1e-12) and np.all(u <= cfg.u_max + 1e-12)
        assert np.all(diag.u_total >= cfg.u_min - 1e-12)
        assert np.all(diag.u_total <= cfg.u_max + 1e-12)

    def test_tracks_argmax_mode_only(self):
        # Belief leaning to mode (2,1): passive must steer every solve
        # toward that mode's target, so both active solves agree.
        cfg = PlannerConfig()
        targets = conflict_belief().targets
        b = HierarchicalBelief(np.array([0.2, 0.8]), np.array([1.0, 1.0]), targets)
        planner = PassivePlanner(cfg, 0, targets)
        ctx = planner._begin_step(merge_state(), b)
        assert planner._steer_mode(ctx, 0) == 1  # mode (1, 1) tracks mode (2, 1)

    @pytest.mark.parametrize("planner_cls, missing, raises", [
        (ActivePlanner, 0, True),  # a solved mode tracks its own target
        (PassivePlanner, 1, True),  # the argmax mode's, though mode 0 has one
        (PassivePlanner, 0, False),  # and no other mode's
    ])
    def test_missing_steering_target_names_the_mode(self, planner_cls, missing, raises):
        # Belief leaning to mode (2, 1), with both modes active.
        modes = list(conflict_belief().targets.targets)
        modes[missing] = dataclasses.replace(modes[missing], steer=None)
        b = HierarchicalBelief(np.array([0.2, 0.8]), np.array([1.0, 1.0]), ModeTargetSet(modes))
        planner = planner_cls(PlannerConfig(**FAST), 0, b.targets)
        if not raises:
            planner.plan_step(merge_state(), b)
            return
        name = f"mode ({modes[missing].intent_id},{modes[missing].mode_id})"
        with pytest.raises(InvalidInputError, match=re.escape(f"{name} has no steering target")):
            planner.plan_step(merge_state(), b)


class TestConservative:
    def test_single_active_mode_minimizes_its_cvar(self):
        cfg = PlannerConfig(solver_iters=4)
        b = single_mode_belief()
        state = merge_state()
        u, diag = ConservativePlanner(cfg, 99, b.targets).plan_step(state, b)
        solved = [m for m in diag.modes if m.active]
        assert len(solved) == 1
        assert solved[0].objective == pytest.approx(solved[0].cvar_solution, rel=1e-9)

    def test_hedging_is_more_timid(self):
        cfg = PlannerConfig(entropy_weight=0.0, risk_cap=200.0, ref_speed=9.5)
        b = timid_conflict()
        state = merge_state(ego=(-40.0, 3.5, 9.5), human=(-15.0, 0.0, 9.5))
        wins = 0
        n = 40
        for seed in range(n):
            u_ours, _ = ActivePlanner(cfg, seed, b.targets).plan_step(state, b)
            u_cons, _ = ConservativePlanner(cfg, seed, b.targets).plan_step(state, b)
            wins += abs(u_cons[0]) <= abs(u_ours[0]) + 1e-12
        assert wins >= int(0.7 * n)

    def test_diag_schema_matches_active(self):
        cfg = PlannerConfig()
        b = conflict_belief()
        _, d_active = ActivePlanner(cfg, 5, b.targets).plan_step(merge_state(), b)
        _, d_cons = ConservativePlanner(cfg, 5, b.targets).plan_step(merge_state(), b)
        active_fields = {f.name for f in dataclasses.fields(d_active)}
        cons_fields = {f.name for f in dataclasses.fields(d_cons)}
        assert active_fields == cons_fields
        assert len(d_active.modes) == len(d_cons.modes)
        for m1, m2 in zip(d_active.modes, d_cons.modes):
            assert (m1.intent_id, m1.mode_id) == (m2.intent_id, m2.mode_id)

    def test_no_active_mode_solves_first_argmax_mode(self):
        cfg = PlannerConfig(mode_activation_eps=0.5, **FAST)
        b = uniform_belief(default_targets(LANE_MERGE))
        _, diag = ConservativePlanner(cfg, 11, b.targets).plan_step(merge_state(), b)
        assert [m.nu is not None for m in diag.modes] == [True] + [False] * 8
        assert not any(m.active for m in diag.modes)
        assert diag.blend_fallback
        assert diag.modes[0].evals == diag.solver_evals

    def test_noncontiguous_active_modes_align_with_targets(self):
        cfg = PlannerConfig(**FAST)
        targets = default_targets(LANE_MERGE)
        w = uniform_belief(targets).mode_weights
        b = HierarchicalBelief(np.array([0.5, 0.0, 0.5]), w, targets)
        state = merge_state()
        _, diag = ConservativePlanner(cfg, 23, b.targets).plan_step(state, b)
        solved = [m.nu is not None for m in diag.modes]
        assert solved == list(joint_weights(b) > cfg.mode_activation_eps)
        assert solved == [True] * 3 + [False] * 3 + [True] * 3
        assert [m.active for m in diag.modes] == solved
        assert not diag.blend_fallback
        assert [m.cvar_pre for m in diag.modes] == coasting_cvar_pre(state, targets, cfg, 23)
