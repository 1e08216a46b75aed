"""Scenario tests: randomized initialization ranges, termination geometry,
the loop ordering contract, and run determinism."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probeplan.belief import (
    ModeTargetSet,
    joint_weights,
    relax_mode_weights,
    uniform_belief,
    update,
)
from probeplan.dynamics import VehicleState
from probeplan.errors import InvalidInputError
from probeplan.metrics import ERROR, SUCCESS, TIMEOUT, VIOLATION
from probeplan.planner import ModeDiag, PlanDiagnostics, PlannerConfig
from probeplan.scenario import (
    DEFAULT_REF_SPEED,
    MODE_FORGETTING,
    PLANNERS,
    RunConfig,
    default_targets,
    init_intersection,
    init_lane_merge,
    run,
    safety_violation,
    success_check,
)
from probeplan.world import (
    INTERSECTION,
    LANE_MERGE,
    ScenarioState,
    center_distance,
    geometry_for,
)

FAST = PlannerConfig(rollout_count=30, solver_iters=3, probe_grid_size=5)


class ZeroPlanner:
    """Stub emitting zero controls with a schema-compatible diagnostic."""

    def __init__(self, cfg, key, targets):
        self.cfg = cfg

    def plan_step(self, state, b):
        u_total = np.zeros((self.cfg.horizon_steps, 2))
        modes = tuple(
            ModeDiag(intent_id=t.intent_id, mode_id=t.mode_id, omega=float(w),
                     active=False, cvar_pre=math.nan)
            for t, w in zip(b.targets.targets, joint_weights(b))
        )
        diag = PlanDiagnostics(
            entropy_before=math.nan, expected_entropy_after=math.nan, modes=modes,
            u_total=u_total, u_first=u_total[0].copy(), j_probe=0.0,
            j_influence=0.0, solver_evals=0, blend_fallback=False,
            infeasible_any=False,
        )
        return u_total[0].copy(), diag


@pytest.fixture
def zero_planner(monkeypatch):
    monkeypatch.setitem(PLANNERS, "zero", ZeroPlanner)


class TestClosedLoopProperties:
    """Whole runs, at small budgets, keep the invariants every run must."""

    @given(
        kind=st.sampled_from([LANE_MERGE, INTERSECTION]),
        planner=st.sampled_from(["ours", "passive", "conservative"]),
        master_seed=st.integers(0, 2**32 - 1),
        run_index=st.integers(0, 10_000),
        pinned=st.sampled_from([None, 1, 2, 3]),
        t_max=st.sampled_from([0.3, 0.6, 1.0]),
    )
    @settings(max_examples=25, deadline=None)
    def test_run_invariants(self, kind, planner, master_seed, run_index, pinned, t_max):
        pc = PlannerConfig(rollout_count=20, solver_iters=1, probe_grid_size=3, obs_samples=2,
                           ref_speed=DEFAULT_REF_SPEED[kind])
        cfg = RunConfig(scenario=kind, master_seed=master_seed, planner=planner, planner_cfg=pc,
                        t_max=t_max, pinned_intent=pinned)
        result, log = run(cfg, run_index)
        assert log.records
        for r in log.records:
            assert abs(math.fsum(r.pi) - 1.0) <= 1e-9
            assert all(abs(math.fsum(w) - 1.0) <= 1e-9 for w in r.w_rows)
            assert np.all(r.u >= pc.u_min) and np.all(r.u <= pc.u_max)
        assert result.min_gap >= 0.0
        assert result.termination_reason in (SUCCESS, VIOLATION, TIMEOUT, ERROR)
        again, log_again = run(cfg, run_index)
        assert repr(again) == repr(result)
        assert log_again.controls.tobytes() == log.controls.tobytes()


class TestInit:
    def test_lane_merge_ranges(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            s = init_lane_merge(rng)
            assert 7.0 <= s.ego.v <= 10.0
            assert 8.0 <= s.human.v <= 12.0
            assert -50.0 <= s.ego.x <= -30.0
            assert -55.0 <= s.human.x <= -25.0
            assert s.ego.y == 3.5 and s.human.y == 0.0
            assert center_distance(s.ego, s.human) >= 5.0

    def test_intersection_ranges(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            s = init_intersection(rng)
            assert 4.0 <= s.ego.v <= 6.0
            assert 5.0 <= s.human.v <= 8.0
            assert -30.0 <= s.ego.x <= -15.0
            assert 15.0 <= s.human.y <= 30.0
            assert s.human.theta == pytest.approx(-0.5 * math.pi)
            assert center_distance(s.ego, s.human) >= 5.0

    def test_seeded_determinism(self):
        a = init_lane_merge(np.random.default_rng(33))
        b = init_lane_merge(np.random.default_rng(33))
        assert (a.ego, a.human) == (b.ego, b.human)


class TestTermination:
    def geom_state(self, kind, ego, human):
        return ScenarioState(
            ego=VehicleState(*ego), human=VehicleState(*human),
            geometry=geometry_for(kind),
        )

    def test_violation_thresholds(self):
        near = self.geom_state(LANE_MERGE, (0.0, 0.0, 5.0, 0.0), (1.9, 0.0, 5.0, 0.0))
        assert safety_violation(near)
        exact = self.geom_state(LANE_MERGE, (0.0, 0.0, 5.0, 0.0), (2.0, 0.0, 5.0, 0.0))
        assert not safety_violation(exact)
        lanes = self.geom_state(LANE_MERGE, (0.0, 3.5, 5.0, 0.0), (0.0, 0.0, 5.0, 0.0))
        assert not safety_violation(lanes)

    def test_merge_success_geometry(self):
        ok = self.geom_state(LANE_MERGE, (5.0, 0.0, 9.0, 0.0), (-5.0, 0.0, 9.0, 0.0))
        assert success_check(ok)
        off_lane = self.geom_state(LANE_MERGE, (5.0, 1.2, 9.0, 0.0), (-5.0, 0.0, 9.0, 0.0))
        assert not success_check(off_lane)
        too_close = self.geom_state(LANE_MERGE, (5.0, 0.0, 9.0, 0.0), (4.0, 0.0, 9.0, 0.0))
        assert not success_check(too_close)
        before_merge = self.geom_state(LANE_MERGE, (-1.0, 0.0, 9.0, 0.0), (-15.0, 0.0, 9.0, 0.0))
        assert not success_check(before_merge)

    def test_intersection_success_geometry(self):
        # One meter past the far edge of the conflict zone counts.
        past = self.geom_state(INTERSECTION, (3.5, 0.0, 5.0, 0.0), (0.0, 20.0, 5.0, -1.57))
        assert success_check(past)
        inside = self.geom_state(INTERSECTION, (2.0, 0.0, 5.0, 0.0), (0.0, 20.0, 5.0, -1.57))
        assert not success_check(inside)


class TestRun:
    @pytest.mark.usefixtures("zero_planner")
    def test_immediate_success(self):
        state = ScenarioState(
            ego=VehicleState(6.0, 0.0, 9.0, 0.0),
            human=VehicleState(-14.0, 0.0, 10.0, 0.0),
            geometry=geometry_for(LANE_MERGE),
        )
        cfg = RunConfig(
            scenario=LANE_MERGE, master_seed=1, planner="zero",
            planner_cfg=FAST, pinned_intent=3, initial_state=state,
        )
        result, log = run(cfg)
        assert result.success
        assert result.termination_reason == SUCCESS
        assert result.completion_time == pytest.approx(0.1)
        assert len(log.records) == 1

    @pytest.mark.usefixtures("zero_planner")
    def test_forced_collision_with_zero_planner(self):
        state = ScenarioState(
            ego=VehicleState(-10.0, 0.0, 10.0, 0.0),
            human=VehicleState(-2.0, 0.0, 2.0, 0.0),   # slow human directly ahead
            geometry=geometry_for(LANE_MERGE),
        )
        cfg = RunConfig(
            scenario=LANE_MERGE, master_seed=1, planner="zero",
            planner_cfg=FAST, pinned_intent=1, initial_state=state,
            observation_noise_std=0.0, t_max=12.0,
        )
        result, _ = run(cfg)
        assert result.termination_reason == VIOLATION
        assert not result.success

    def test_bit_identical_repetition(self):
        cfg = RunConfig(
            scenario=INTERSECTION, master_seed=5, planner="ours",
            planner_cfg=FAST, comparison_mode=True,
        )
        r1, log1 = run(cfg, run_index=2)
        r2, log2 = run(cfg, run_index=2)
        assert r1 == r2
        assert len(log1.records) == len(log2.records)
        for a, b in zip(log1.records, log2.records):
            assert np.array_equal(a.u, b.u)
            assert np.array_equal(a.pi, b.pi)
            assert a.ego == b.ego and a.human == b.human
            assert np.array_equal(a.z, b.z)

    def test_loop_order_observe_then_infer_then_act(self):
        # Replaying the logged observations through the filter must land on
        # the logged beliefs: the belief used at step t includes z(t).
        cfg = RunConfig(
            scenario=LANE_MERGE, master_seed=9, planner="passive",
            planner_cfg=FAST, comparison_mode=True,
        )
        _, log = run(cfg, run_index=0)
        belief = uniform_belief(default_targets(LANE_MERGE))
        for rec in log.records:
            belief = relax_mode_weights(update(belief, rec.z), MODE_FORGETTING)
            assert np.allclose(belief.intent_probs, rec.pi, atol=1e-12)
            for row, logged in zip(belief.rows(), rec.w_rows):
                assert np.allclose(row, logged, atol=1e-12)

    @pytest.mark.usefixtures("zero_planner")
    def test_step_budget(self):
        cfg = RunConfig(
            scenario=LANE_MERGE, master_seed=3, planner="zero", planner_cfg=FAST
        )
        result, log = run(cfg, run_index=1)
        assert len(log.records) <= math.ceil(4.0 / FAST.dt) + 1
        assert result.termination_reason in (SUCCESS, VIOLATION, TIMEOUT)

    @pytest.mark.usefixtures("zero_planner")
    @pytest.mark.parametrize("t_max, steps", [(1.12, 56), (0.14, 7), (1.1, 55), (0.8, 40)])
    def test_run_ends_at_a_whole_number_of_steps(self, t_max, steps):
        # 1.12 / 0.02 and 0.14 / 0.02 round up past 56 and 7: the run still
        # stops after that many 0.02 s steps, at t_max, not one step later.
        state = ScenarioState(
            ego=VehicleState(-40.0, 3.5, 9.0, 0.0),
            human=VehicleState(-80.0, 0.0, 10.0, 0.0),
            geometry=geometry_for(LANE_MERGE),
        )
        cfg = RunConfig(
            scenario=LANE_MERGE, master_seed=1, planner="zero",
            planner_cfg=PlannerConfig(dt=0.02), pinned_intent=1, initial_state=state,
            t_max=t_max,
        )
        result, log = run(cfg)
        assert result.termination_reason == TIMEOUT
        assert len(log.records) == steps
        assert log.records[-1].t == pytest.approx(t_max)

    @pytest.mark.usefixtures("zero_planner")
    def test_never_success_and_violation(self):
        for idx in range(6):
            cfg = RunConfig(
                scenario=LANE_MERGE, master_seed=17, planner="zero", planner_cfg=FAST
            )
            result, _ = run(cfg, run_index=idx)
            assert not (result.success and result.termination_reason == VIOLATION)

    def test_min_gap_nonnegative_and_time_bounded(self):
        cfg = RunConfig(
            scenario=INTERSECTION, master_seed=21, planner="conservative",
            planner_cfg=FAST, comparison_mode=True,
        )
        result, _ = run(cfg, run_index=0)
        assert result.min_gap >= 0.0
        if result.success:
            assert result.completion_time <= 12.0 + 1e-9

    @pytest.mark.usefixtures("zero_planner")
    def test_out_of_range_pinned_intent_rejected(self):
        # Three intents: index 4 used to raise IndexError deep inside the run.
        with pytest.raises(InvalidInputError, match="pinned_intent"):
            RunConfig(
                scenario=LANE_MERGE, master_seed=1, planner="zero", planner_cfg=FAST,
                pinned_intent=4,
            )

    @pytest.mark.parametrize("field, value", [
        ("scenario", "bogus"),
        ("t_max", math.nan),
        ("t_max", math.inf),
        ("t_max", -1.0),
        ("t_max", 0.0),
        ("t_max", "4"),
        ("master_seed", -1),
        ("master_seed", 1.5),
        ("master_seed", True),
        ("planner", "bogus"),
        ("comparison_mode", "no"),
        ("observation_noise_std", math.nan),
        ("observation_noise_std", math.inf),
        ("observation_noise_std", -0.1),
        ("risk_threshold", -5.0),
        ("risk_threshold", 0.0),
        ("risk_threshold", math.nan),
    ])
    def test_bad_run_config_rejected(self, field, value):
        # Each used to raise KeyError, ValueError, OverflowError or TypeError
        # deep in the run, to end it after zero steps, or to run with the
        # value ignored (noise NaN, comparison_mode "no") or nonsensical.
        # Each is now rejected when the config is built, before any run.
        with pytest.raises(InvalidInputError, match=field):
            RunConfig(**{"scenario": LANE_MERGE, "master_seed": 0, field: value})

    @pytest.mark.parametrize("run_index", [-1, 1.5, True])
    def test_bad_run_index_rejected(self, run_index):
        with pytest.raises(InvalidInputError, match="run_index"):
            run(RunConfig(scenario=LANE_MERGE, master_seed=0), run_index=run_index)

    @pytest.mark.usefixtures("zero_planner")
    def test_numpy_integer_seed_keys_accepted(self):
        def one(seed, idx):
            cfg = RunConfig(scenario=LANE_MERGE, master_seed=seed, planner="zero",
                            planner_cfg=FAST, t_max=0.5)
            return run(cfg, run_index=idx)[0]

        assert one(np.int64(7), np.uint32(2)) == one(7, 2)

    @pytest.mark.parametrize("planner", ["ours", "passive"])
    def test_steering_required_by_steering_planners(self, planner):
        # Accepted before, and the run ended in error at the first solve of
        # the steering-less mode.
        defaults = default_targets(LANE_MERGE)
        modes = [t if (t.intent_id, t.mode_id) != (3, 2) else dataclasses.replace(t, steer=None)
                 for t in defaults.targets]
        targets = ModeTargetSet(modes, intent_names=defaults.intent_names)
        with pytest.raises(InvalidInputError, match="cooperative/mode 2 steering"):
            RunConfig(scenario=LANE_MERGE, master_seed=0, planner=planner, targets=targets)
        assert RunConfig(scenario=LANE_MERGE, master_seed=0, planner="conservative",
                         targets=targets).targets is targets

    def test_every_intent_needs_a_yield_floor(self):
        # An intent's name sets the simulated human's yield floor; a name
        # without one ran the neutral human's.
        defaults = default_targets(LANE_MERGE)
        for names in (None, ("aggressive", "Neutral", "cooperative")):
            targets = ModeTargetSet(defaults.targets, intent_names=names)
            with pytest.raises(InvalidInputError, match=r"^targets name intents .*'aggressive', "
                                                        r"'neutral', 'cooperative'"):
                RunConfig(scenario=LANE_MERGE, master_seed=0, targets=targets)

    def test_default_targets_resolved_at_construction(self):
        cfg = RunConfig(scenario=INTERSECTION, master_seed=0)
        labels = [t.label for t in default_targets(INTERSECTION).targets]
        assert [t.label for t in cfg.resolved_targets().targets] == labels
        assert cfg.targets is None

    def test_default_targets_built_once_and_read_only(self):
        # Each RunConfig built its own set, and dataclasses.replace built
        # another.
        a = RunConfig(scenario=LANE_MERGE, master_seed=0)
        b = dataclasses.replace(RunConfig(scenario=LANE_MERGE, master_seed=1), t_max=0.3)
        shared = a.resolved_targets()
        assert b.resolved_targets() is shared is default_targets(LANE_MERGE)
        assert default_targets(INTERSECTION) is not shared
        for arr in (shared._means, shared._inv_std, shared._log_norm, shared._rows,
                    shared._starts, shared._row_len):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0
        target = shared.targets[0].target
        with pytest.raises(ValueError, match="read-only"):
            target.mean[0] = 0.0

    def test_replaced_scenario_gets_its_own_default_targets(self):
        # The resolved targets used to be stored in ``targets``, so a
        # replaced scenario kept the old scenario's modes.
        merge = RunConfig(scenario=LANE_MERGE, master_seed=1, t_max=0.3)
        crossing = dataclasses.replace(merge, scenario=INTERSECTION)
        labels = [t.label for t in default_targets(INTERSECTION).targets]
        assert [t.label for t in crossing.resolved_targets().targets] == labels
        _, log = run(crossing)
        assert [t.label for t in log.targets.targets] == labels
        _, direct = run(RunConfig(scenario=INTERSECTION, master_seed=1, t_max=0.3))
        assert np.array_equal(log.controls, direct.controls)
