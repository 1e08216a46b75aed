"""Planner tests: probing estimates, influence objective, the per-mode
constrained solve (with an exhaustive constant-acceleration grid as the
independent oracle), blending, and receding-horizon step contracts."""

import math
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probeplan.baselines import ConservativePlanner, PassivePlanner
from probeplan.belief import (
    HierarchicalBelief,
    ModeTarget,
    ModeTargetSet,
    entropy,
    joint_weights,
    posterior_entropies,
    relax_mode_weights,
    uniform_belief,
    update,
)
from probeplan.dynamics import VehicleState, step_vehicle
from probeplan.errors import InvalidInputError
from probeplan.gaussmath import Gaussian, kl_divergence
from probeplan import baselines as baselines_mod
from probeplan import planner as planner_mod
from probeplan.planner import (
    ActivePlanner,
    PlannerConfig,
    _UNSCORED,
    _compose_ego_paths,
    _descend,
    _ego_path_bases,
    _shared_starts,
    _start_candidates,
    lane_guidance,
)
from probeplan.risk import cvar, cvar_tail, draw_human_paths, path_costs, simulate_ego_path
from probeplan.scenario import DEFAULT_REF_SPEED, RunConfig, default_targets, init_scenario, run
from probeplan.seeding import STREAM_MODE_ROLLOUT, rng_from_keys
from probeplan.world import (
    INTERSECTION,
    LANE_MERGE,
    ScenarioState,
    intersection_geometry,
    lane_merge_geometry,
)

from oracles import (
    blend_controls,
    descend_one,
    eager_descend,
    ego_path_one,
    ego_headings,
    expected_posterior_entropy,
    influence_objective,
    lane_guidance_loop,
    path_bases_one,
    plan_step_per_mode,
    predicted_interaction_gaussian,
    predicted_observation_one,
    probe_grid,
    probe_projection_loop,
    segment_accels,
    solve_mode_control,
    start_candidates_one,
    terminal_jacobian,
)


def mk_mode(intent, mode, obs_mean, obs_var, steer=None):
    return ModeTarget(
        intent, mode,
        Gaussian(np.array([obs_mean]), np.array([[obs_var]])),
        steer=steer,
    )


def single_mode_belief(obs_mean=10.0, obs_var=1.0, steer=None):
    targets = ModeTargetSet([mk_mode(1, 1, obs_mean, obs_var, steer)])
    return uniform_belief(targets)


def merge_state(ego=(-40.0, 3.5, 9.0), human=(-35.0, 0.0, 10.0)):
    return ScenarioState(
        ego=VehicleState(ego[0], ego[1], ego[2], 0.0),
        human=VehicleState(human[0], human[1], human[2], 0.0),
        geometry=lane_merge_geometry(),
    )


class TestPlannerConfigValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            # ref_speed=0 made every cost NaN, so the CVaR cap never bound.
            ("ref_speed", 0.0),
            ("discount", 1.5),
            # A negative noise scale surfaced as numpy's "scale < 0".
            ("obs_noise_std", -1.0),
            # Fractional budgets raised TypeError mid-run.
            ("horizon_steps", 2.5),
            ("rollout_count", 2.5),
            ("obs_samples", 2.5),
            ("solver_iters", 2.5),
            ("solver_segments", 2.5),
            ("solver_inits", 2.5),
            ("probe_grid_size", 2.5),
            # Budgets below their least value.
            ("horizon_steps", 0),
            ("rollout_count", 0),
            # Accepted silently; each run ended as a normal timeout.
            ("risk_cap", math.nan),
            ("risk_cap", -1.0),
            ("penalty_weight", -1.0),
            ("solver_step", 0.0),
            ("solver_step", -0.5),
            ("dt", math.inf),
            ("entropy_weight", math.nan),
            ("entropy_weight", -0.1),
            ("mode_activation_eps", math.nan),
            # Raised out of ActivePlanner.__init__ or HumanParams, outside
            # the run's error mapping.
            ("accel_noise_var", -0.1),
            ("response_gain", 0.0),
            ("response_gain", -1.0),
            # Non-numbers and malformed bounds.
            ("cvar_level", "0.05"),
            ("dt", True),
            ("accel_bounds", (1.0,)),
            ("accel_bounds", (-3.0, math.inf)),
            ("yaw_rate_bounds", (0.6, -0.6)),
            ("yaw_rate_bounds", 5),
            # Segments of ceil(T / P) steps that leave the last one empty:
            # its probe was wasted every iteration (30 steps in 6 segments
            # of 5), or its warm-start mean was NaN.
            ("solver_segments", 7),
            ("solver_segments", 31),
        ],
    )
    def test_bad_value_rejected_naming_field(self, field, value):
        with pytest.raises(InvalidInputError, match=field):
            PlannerConfig(**{field: value})

    def test_short_horizon_rejects_default_segments(self):
        # 2 steps in 3 segments of 1 step: the third is empty.
        with pytest.raises(InvalidInputError, match="solver_segments"):
            PlannerConfig(horizon_steps=2)
        assert PlannerConfig(horizon_steps=3).segment_steps == 1
        assert PlannerConfig(solver_segments=4).segment_steps == 8

    def test_infinite_risk_cap_means_no_cap(self):
        assert PlannerConfig(risk_cap=math.inf).risk_cap == math.inf

    def test_observation_features_are_not_an_option(self):
        # The observation is the human's speed.
        with pytest.raises(TypeError, match="features"):
            PlannerConfig(features=("velocity",))


class TestExpectedPosteriorEntropy:
    def test_degenerate_belief_gives_zero(self):
        cfg = PlannerConfig()
        b = single_mode_belief()
        u = np.zeros((cfg.horizon_steps, 2))
        rng = np.random.default_rng(0)
        assert expected_posterior_entropy(b, u, merge_state(), 50, rng, cfg) == 0.0

    def test_identical_targets_keep_prior_entropy(self):
        cfg = PlannerConfig()
        targets = ModeTargetSet([mk_mode(1, 1, 8.0, 1.0), mk_mode(2, 1, 8.0, 1.0)])
        b = uniform_belief(targets)
        prior = entropy(b)
        rng = np.random.default_rng(1)
        est = expected_posterior_entropy(
            b, np.zeros((cfg.horizon_steps, 2)), merge_state(), 2000, rng, cfg
        )
        # Equal likelihoods leave the posterior equal to the prior, so the
        # estimate matches exactly, far inside three standard errors.
        assert est == pytest.approx(prior, abs=1e-9)

    def test_separated_targets_resolve(self):
        cfg = PlannerConfig()
        targets = ModeTargetSet([mk_mode(1, 1, 0.0, 0.25), mk_mode(2, 1, 10.0, 0.25)])
        b = uniform_belief(targets)
        # Deep conflict: both arrive at the merge point nearly together.
        state = merge_state(ego=(-15.0, 3.5, 9.0), human=(-13.0, 0.0, 5.0))
        rng = np.random.default_rng(2)
        est = expected_posterior_entropy(
            b, np.zeros((cfg.horizon_steps, 2)), state, 2000, rng, cfg
        )
        assert est < 0.1 * entropy(b)

    def test_requires_samples(self):
        cfg = PlannerConfig()
        with pytest.raises(InvalidInputError):
            expected_posterior_entropy(
                single_mode_belief(), np.zeros((cfg.horizon_steps, 2)),
                merge_state(), 0, np.random.default_rng(0), cfg,
            )


def banded_targets(targets, scale=1.0, offset=0.0):
    """``targets`` with every observation band's variance times ``scale``
    and its mean shifted by ``offset``."""
    return ModeTargetSet(
        [
            ModeTarget(
                t.intent_id, t.mode_id,
                Gaussian(t.target.mean + offset, t.target.cov * scale),
                t.label, t.steer,
            )
            for t in targets.targets
        ],
        targets.intent_names,
    )


def advanced_state(kind, rng):
    """A random initial state with both vehicles coasted 0-4 s ahead, so
    the conflict level ranges from none to saturated."""
    state = init_scenario(kind, rng)
    ego, human = state.ego, state.human
    for _ in range(int(rng.integers(0, 41))):
        ego = step_vehicle(ego, (0.0, 0.0), 0.1)
        human = step_vehicle(human, (0.0, 0.0), 0.1)
    return ScenarioState(ego=ego, human=human, geometry=state.geometry)


def filtered_belief(targets, rng):
    """Uniform belief after 0-4 filter steps on observations near random
    targets, with one intent ruled out at random."""
    b = uniform_belief(targets)
    if rng.random() < 0.25:
        pi = np.full(targets.num_intents, 0.5)
        pi[rng.integers(targets.num_intents)] = 0.0
        b = HierarchicalBelief(pi, b.mode_weights, targets)
    for _ in range(int(rng.integers(0, 5))):
        t = targets.targets[int(rng.integers(len(targets)))]
        z = t.target.mean[0] + rng.normal(0.0, 0.5)
        b = relax_mode_weights(update(b, z), 0.02)
    return b


class TestProbeGrid:
    """The batched probe grid equals one ``update`` and one ``entropy`` per
    draw and grid point, bit for bit."""

    @pytest.mark.parametrize("kind", [LANE_MERGE, INTERSECTION])
    # Sharp bands drive the scalar likelihood into its tails and the
    # evidence of far draws to zero; wide ones flatten it.
    @pytest.mark.parametrize("band", [1.0, 1e-2, 1e2])
    def test_matches_loop_oracle(self, kind, band, monkeypatch):
        rows = []

        def recording(b, zs, h_prior, pi_weighted_modes=False):
            rows.append(len(zs))
            return posterior_entropies(b, zs, h_prior, pi_weighted_modes)

        monkeypatch.setattr("probeplan.planner.posterior_entropies", recording)
        targets = banded_targets(default_targets(kind), scale=band)
        cfg = PlannerConfig(obs_samples=8, ref_speed=DEFAULT_REF_SPEED[kind])
        planner = ActivePlanner(cfg)
        rng = np.random.default_rng(17)
        flat = 0
        for trial in range(16):
            state = advanced_state(kind, rng)
            if trial == 0:  # the human a kilometre off: no conflict at any point
                human = VehicleState(state.human.x - 1000.0, state.human.y,
                                     state.human.v, state.human.theta)
                state = ScenarioState(ego=state.ego, human=human, geometry=state.geometry)
            b = filtered_belief(targets, rng)
            key = int(rng.integers(2**31))
            grid, values = planner._build_probe_grid(state, b, key)
            want_grid, want = probe_grid(planner, state, b, key)
            assert np.array_equal(grid, want_grid)
            assert np.array_equal(values, want)
            n_obs = rows[-1] if len(set(want)) == 1 else None
            flat += n_obs in (cfg.obs_samples, 2 * cfg.obs_samples)
        # Fully flat grids occur, and score one block of draws.
        assert flat > 0

    @pytest.mark.parametrize("kind", [LANE_MERGE, INTERSECTION])
    # Targets below and above every mode's default speed: the human relaxes
    # down or up towards them.
    @pytest.mark.parametrize("offset", [0.0, -6.0, 6.0])
    def test_observation_means_of_every_ego_in_one_call(self, kind, offset):
        # Row e of the (E, M) block is ego e's observed speed per mode, bit
        # for bit the one-mode oracle.
        targets = banded_targets(default_targets(kind), offset=offset)
        cfg = PlannerConfig(ref_speed=DEFAULT_REF_SPEED[kind])
        rng = np.random.default_rng(18)
        for _ in range(8):
            state = advanced_state(kind, rng)
            egos, human, response_time = planner_mod.probe_projection(
                state, np.linspace(*cfg.accel_bounds, cfg.probe_grid_size), cfg)
            got = planner_mod.predicted_observation_mean(
                egos, human, state.geometry, targets.targets, cfg, response_time)
            assert got.shape == (len(egos), len(targets))
            for ego, rows in zip(egos, got):
                want = np.array([predicted_observation_one(
                    ego, human, state.geometry, mode, cfg, response_time)
                    for mode in targets.targets])
                assert rows.tobytes() == want.tobytes()

    def test_off_or_certain_builds_nothing(self, monkeypatch):
        monkeypatch.setattr("probeplan.planner.posterior_entropies", None)
        b = uniform_belief(default_targets(LANE_MERGE))
        assert PassivePlanner(PlannerConfig())._build_probe_grid(merge_state(), b, 1) == (
            None, None)
        certain = single_mode_belief()
        assert ActivePlanner(PlannerConfig())._build_probe_grid(merge_state(), certain, 1) == (
            None, None)


def merge_ramp_heading():
    """The ego's heading five lane-guidance steps into its merge off the ramp."""
    state = merge_state(ego=(1.0, 3.5, 9.0), human=(-30.0, 0.0, 10.0))
    ego = state.ego
    for yaw in lane_guidance(state, PlannerConfig())[0][:5]:
        ego = step_vehicle(ego, (0.0, yaw), 0.1)
    return ego.theta


class TestProbeProjection:
    """``probe_projection`` rolls the egos and the human with one
    ``simulate_ego_path`` call each, and equals one ``step_vehicle`` call
    per vehicle and step bit for bit."""

    HEADINGS = [
        0.0, -0.0, 1e-300, -1e-300,
        math.pi, -math.pi, math.nextafter(math.pi, 0.0), math.nextafter(-math.pi, 0.0),
        -0.5 * math.pi, merge_ramp_heading(),
    ]

    @staticmethod
    def bits(s):
        """Each field's bits, so that -0.0 and 0.0 differ."""
        return [float(getattr(s, f)).hex() for f in ("x", "y", "v", "theta")]

    @pytest.mark.parametrize("heading", HEADINGS)
    def test_matches_step_vehicle_loop(self, heading):
        assert -0.35 < merge_ramp_heading() < -0.05
        cfg = PlannerConfig()
        grid = np.append(np.linspace(*cfg.accel_bounds, cfg.probe_grid_size), -0.0)
        stopped = 0
        for speed in (-0.0, 0.0, 0.3, 1.0, 4.5, 9.0):
            for pos in ((-40.0, 3.5), (-0.0, -0.0), (12.5, 1e-3)):
                state = ScenarioState(
                    ego=VehicleState(*pos, speed, heading),
                    human=VehicleState(pos[1], pos[0], 9.0 - speed, -heading),
                    geometry=lane_merge_geometry(),
                )
                egos, human, response_time = planner_mod.probe_projection(state, grid, cfg)
                want_egos, want_human, want_time = probe_projection_loop(state, grid, cfg)
                assert [self.bits(e) for e in egos] == [self.bits(e) for e in want_egos]
                assert self.bits(human) == self.bits(want_human)
                assert response_time == want_time
                # Braking at -3 m/s^2 stops an ego under 6 m/s inside the projection.
                stopped += speed > 0.0 and egos[0].v == 0.0
        assert stopped == 3 * 3

    @pytest.mark.parametrize("kind", [LANE_MERGE, INTERSECTION])
    def test_matches_loop_on_scenario_states(self, kind):
        cfg = PlannerConfig(probe_grid_size=9)
        grid = np.linspace(*cfg.accel_bounds, cfg.probe_grid_size)
        rng = np.random.default_rng(23)
        for _ in range(20):
            state = advanced_state(kind, rng)
            egos, human, _ = planner_mod.probe_projection(state, grid, cfg)
            want_egos, want_human, _ = probe_projection_loop(state, grid, cfg)
            assert [self.bits(e) for e in egos] == [self.bits(e) for e in want_egos]
            assert self.bits(human) == self.bits(want_human)

    def test_non_finite_acceleration_rejected(self):
        with pytest.raises(InvalidInputError, match="non-finite control"):
            planner_mod.probe_projection(merge_state(), [0.0, math.nan], PlannerConfig())


class TestLaneGuidance:
    """``lane_guidance`` rolls plain floats, and equals the guidance law per
    ``VehicleState`` with one ``step_vehicle`` call per step bit for bit."""

    @staticmethod
    def assert_matches_loop(state, cfg):
        yaw, headings = lane_guidance(state, cfg)
        want_yaw, want_headings = lane_guidance_loop(state, cfg)
        assert yaw.tobytes() == want_yaw.tobytes()
        assert headings.tobytes() == want_headings.tobytes()

    @pytest.mark.parametrize("kind", [LANE_MERGE, INTERSECTION])
    def test_matches_loop_on_scenario_states(self, kind):
        rng = np.random.default_rng(29)
        for _ in range(20):
            self.assert_matches_loop(advanced_state(kind, rng), PlannerConfig())

    @pytest.mark.parametrize("heading", TestProbeProjection.HEADINGS)
    def test_matches_loop_on_headings_and_speeds(self, heading):
        cfg = PlannerConfig()
        for geometry in (lane_merge_geometry(), intersection_geometry()):
            for speed in (-0.0, 0.0, 0.3, 1.0, 4.5, 9.0):
                for pos in ((-40.0, 3.5), (-0.0, -0.0), (12.5, 1e-3), (5.0, 3.5)):
                    self.assert_matches_loop(ScenarioState(
                        ego=VehicleState(*pos, speed, heading),
                        human=VehicleState(pos[1], pos[0], 9.0 - speed, -heading),
                        geometry=geometry,
                    ), cfg)

    def test_wrapped_heading_is_step_vehicles(self):
        # From theta 3.0, half-second steps under wide yaw bounds swing the
        # heading across pi at every step. The headings are those of the
        # rolled ego, on the principal branch; integrating the yaw rates
        # without wrapping leaves it after the first step.
        cfg = PlannerConfig(dt=0.5, yaw_rate_bounds=(-20.0, 20.0))
        state = ScenarioState(ego=VehicleState(5.0, 3.5, 9.0, 3.0),
                              human=VehicleState(-35.0, 0.0, 10.0), geometry=lane_merge_geometry())
        yaw, headings = lane_guidance(state, cfg)
        want_yaw, unwrapped = lane_guidance_loop(state, cfg)
        assert yaw.tobytes() == want_yaw.tobytes()
        ego, theta = state.ego, []
        for rate in yaw:
            theta.append(ego.theta)
            ego = step_vehicle(ego, (0.0, rate), cfg.dt)
        assert min(theta) > 2.5  # each step wraps across pi
        want = np.array([[math.cos(t) for t in theta], [math.sin(t) for t in theta]])
        assert headings.tobytes() == want.tobytes()
        assert (unwrapped != headings).any(axis=0).sum() == cfg.horizon_steps - 1


def same_diag(d1, d2) -> bool:
    """Two diagnostics records hold equal values, NaN equal to NaN."""
    for f in fields(d1):
        a, b = getattr(d1, f.name), getattr(d2, f.name)
        if f.name == "modes":
            if not all(same_diag(m1, m2) for m1, m2 in zip(a, b)):
                return False
        elif a is None or b is None:
            if a is not b:
                return False
        elif not np.array_equal(a, b, equal_nan=True):
            return False
    return True


class TestDescendMemo:
    """``plan_step`` scores exactly as the per-mode loop that evaluates every
    candidate it scores, at small budgets."""

    @pytest.mark.parametrize("planner_cls", [ActivePlanner, PassivePlanner, ConservativePlanner])
    @pytest.mark.parametrize("kind", [LANE_MERGE, INTERSECTION])
    def test_plan_step_matches_memo_free_loop(self, planner_cls, kind):
        cfg = PlannerConfig(**FAST, ref_speed=DEFAULT_REF_SPEED[kind])
        rng = np.random.default_rng(5)
        cases = [(advanced_state(kind, rng), filtered_belief(default_targets(kind), rng))
                 for _ in range(3)]
        planner, reference = planner_cls(cfg), planner_cls(cfg)
        for i, (state, b) in enumerate(cases):
            u, diag = planner.plan_step(state, b, 7 + i)
            want_u, want_diag = plan_step_per_mode(reference, state, b, 7 + i)
            assert np.array_equal(u, want_u)
            assert same_diag(diag, want_diag)


def zero_mass_intent(targets):
    """Uniform belief with no mass on the second intent, so the solved
    modes are not one contiguous run of the mode axis."""
    b = uniform_belief(targets)
    pi = np.full(targets.num_intents, 1.0 / (targets.num_intents - 1))
    pi[1] = 0.0
    return HierarchicalBelief(pi, b.mode_weights, targets)


class TestLockstepDescent:
    """``plan_step``, with every chain run in lockstep rounds, equals the
    step that solves one mode after another with scalar objectives."""

    BUDGETS = {
        "default": {},
        # Chains stop in different rounds.
        "iters8": dict(solver_iters=8),
        # Infeasible solves fall back to their least risky candidate.
        "cap5": dict(risk_cap=5.0),
        # No mode clears the threshold: the blend falls back to the
        # argmax-omega mode's plan.
        "no_active": dict(mode_activation_eps=0.5),
        "one_segment": dict(solver_segments=1),
        # Segments of 8, 8, 8 and 6 steps: the horizon is no multiple of P.
        "segments4": dict(solver_segments=4),
        # Every finite pair is certified below the cap.
        "nocap": dict(risk_cap=math.inf),
        # No pair is certified: every pair is scored exactly.
        "cap0": dict(risk_cap=0.0),
        # Bounds that exclude zero: the coasting start is clipped to them.
        "accel_up": dict(accel_bounds=(0.5, 3.0)),
        "accel_down": dict(accel_bounds=(-3.0, -0.5)),
    }

    @staticmethod
    def cases(kind, n):
        rng = np.random.default_rng(31)
        targets = default_targets(kind)
        out = [(advanced_state(kind, rng), zero_mass_intent(targets))]
        out += [(advanced_state(kind, rng), filtered_belief(targets, rng)) for _ in range(n - 1)]
        return out

    @pytest.mark.parametrize("budget", sorted(BUDGETS))
    @pytest.mark.parametrize("planner_cls", [ActivePlanner, PassivePlanner, ConservativePlanner])
    @pytest.mark.parametrize("kind", [LANE_MERGE, INTERSECTION])
    def test_plan_step_matches_per_mode_oracle(self, kind, planner_cls, budget):
        extra = self.BUDGETS[budget]
        base = {} if budget == "default" else dict(rollout_count=40, obs_samples=6)
        cfg = PlannerConfig(**base, **extra, ref_speed=DEFAULT_REF_SPEED[kind])
        planner, reference = planner_cls(cfg), planner_cls(cfg)
        cases = self.cases(kind, 3)
        if budget == "no_active":
            # omega = 1/9 on every mode.
            cases.append((cases[0][0], uniform_belief(default_targets(kind))))
        infeasible = fallback = 0
        for i, (state, b) in enumerate(cases):
            u, diag = planner.plan_step(state, b, 40 + i)
            want_u, want_diag = plan_step_per_mode(reference, state, b, 40 + i)
            assert np.array_equal(u, want_u)
            assert same_diag(diag, want_diag)
            infeasible += diag.infeasible_any
            fallback += diag.blend_fallback
        if budget == "cap5" and planner_cls is not ConservativePlanner:
            assert infeasible > 0  # the conservative planner has no cap
        assert (fallback > 0) == (budget == "no_active")


class TestDescend:
    """``_descend`` runs its chains in phase-aligned rounds, and each chain
    scores exactly as ``descend_one`` does on its own."""

    @staticmethod
    def objective(cfg, c):
        """Chain ``c``'s scalar objective of a segment vector: a row
        (objective, first accel) and its gradient."""
        horizon = cfg.horizon_steps
        goal = [
            # An optimum beyond the upper bound: clipped trials repeat points.
            np.linspace(2.0, 5.0, horizon),
            # A flat objective: the chain stops before its first line search.
            None,
            np.full(horizon, -0.7),
            np.linspace(-2.5, 1.0, horizon),
        ][c]
        segment = np.arange(horizon) // cfg.segment_steps

        def f(theta):
            accel = segment_accels(theta, cfg)
            if goal is None:
                return (1.0, float(accel[0])), np.zeros(cfg.solver_segments)
            d = accel - goal
            grad = np.bincount(segment, 1.5 * np.sqrt(np.abs(d)) * np.sign(d))
            return (float(np.sum(np.abs(d) ** 1.5)), float(accel[0])), grad
        return f

    def run(self, cfg):
        """``_descend`` over the four chains of ``objective``; returns the
        start sets, its result and every ``evaluate`` call it made."""
        calls = []

        def evaluate(thetas, chains, bar):
            outs = [self.objective(cfg, c)(t) for t, c in zip(thetas, chains.tolist())]
            rows = np.array([row for row, _ in outs])
            calls.append((thetas.copy(), chains.copy(), rows, bar))
            return rows, np.array([grad for _, grad in outs])

        rng = np.random.default_rng(3)
        horizon = cfg.horizon_steps
        warms = [None, np.full(horizon, 1.0), None, rng.uniform(-3.0, 3.0, horizon)]
        starts = _start_candidates(cfg, _shared_starts(cfg), warms, bursts=True)
        return starts, _descend(evaluate, starts, cfg), calls

    def test_chains_match_one_chain_loop(self):
        cfg = PlannerConfig(solver_iters=8)
        starts, got, calls = self.run(cfg)
        cands, owner = starts
        index = [np.flatnonzero(owner == c) for c in range(owner.max() + 1)]
        assert len(got) == len(index)
        phases = []
        for c, (mine, (theta, row, history, rows)) in enumerate(zip(index, got)):
            phases.append([])
            objective = self.objective(cfg, c)
            want_theta, want_row, want_history = descend_one(objective, cands[mine], cfg, phases[c])
            assert np.array_equal(theta, want_theta) and row.tolist() == list(want_row)
            assert np.array_equal(history, [t for t, _ in want_history])
            assert rows.tolist() == [list(r) for _, r in want_history]
        # The chains stop in different rounds.
        assert len({p[-1] for p in phases}) >= 3

        def phase_of(p):
            # The starts (-1,) or iteration i's line search (i,).
            return p[:1]

        # Each call holds one phase, and the phases follow each other in
        # the order of the loop. A chain's pairs in a call are its next
        # history entries, then, in a line-search call, the trials after
        # its first win, which are dropped.
        taken = [0] * len(index)
        best = [math.inf] * len(index)  # each chain's current objective
        called = []
        dropped = 0
        for thetas, cs, rs, bar in calls:
            held = {phase_of(phases[c][taken[c]]) for c in set(cs.tolist())}
            assert len(held) == 1
            (phase,) = held
            called.append(phase)
            # One segment vector per pair: the start round passes every
            # chain's start set, the shared starts once per chain.
            assert len(thetas) == len(cs)
            search = phase[0] >= 0
            if not search:
                assert np.array_equal(thetas, cands) and np.array_equal(cs, owner)
            # The bar: none in the start round, and each pair's win
            # threshold in a line-search round.
            if not search:
                assert bar is None
            else:
                assert np.array_equal(bar, [best[c] - 1e-12 for c in cs.tolist()])
            if search:
                # Trial k of every chain, k-major, chains ascending.
                ks = [int(np.sum(cs[:j] == c)) for j, c in enumerate(cs.tolist())]
                assert list(zip(ks, cs.tolist())) == sorted(zip(ks, cs.tolist()))
                assert max(ks) == 2 and np.all(np.bincount(cs) % 3 == 0)
            else:
                assert np.all(np.diff(cs) >= 0)
            for c in sorted(set(cs.tolist())):
                mine = np.flatnonzero(cs == c)
                n_kept = 0
                while (taken[c] + n_kept < len(phases[c])
                       and phase_of(phases[c][taken[c] + n_kept]) == phase):
                    n_kept += 1
                kept, extra = mine[:n_kept], mine[n_kept:]
                span = slice(taken[c], taken[c] + n_kept)
                assert np.array_equal(thetas[kept], got[c][2][span])
                assert np.array_equal(rs[kept], got[c][3][span])
                taken[c] += n_kept
                if not search:
                    best[c] = float(np.min(rs[kept, 0]))
                    assert not extra.size
                else:
                    wins = rs[kept, 0] < best[c] - 1e-12
                    # Only the last kept trial may win, and a dropped trial
                    # follows a win.
                    assert not wins[:-1].any()
                    assert wins[-1] or not extra.size
                    if wins[-1]:
                        best[c] = float(rs[kept[-1], 0])
                    dropped += extra.size
        assert called == sorted(set(called))
        assert taken == [len(p) for p in phases]
        assert dropped > 0

    @pytest.mark.parametrize("iters, want", [(0, 1), (1, 2), (4, 5), (20, 18)])
    def test_at_most_one_round_per_iteration(self, iters, want):
        _, _, calls = self.run(PlannerConfig(solver_iters=iters))
        # Some chain is live in each of the first 17 iterations, and none
        # after them.
        assert len(calls) == want <= 1 + iters

    @pytest.mark.parametrize("planner_cls", [ActivePlanner, PassivePlanner, ConservativePlanner])
    @pytest.mark.parametrize("kind", [LANE_MERGE, INTERSECTION])
    def test_plan_step_makes_at_most_one_round_per_iteration(
        self, kind, planner_cls, monkeypatch
    ):
        rounds = []

        def counted(evaluate, starts, cfg):
            def counting(thetas, chains, bar):
                rounds[-1] += 1
                return evaluate(thetas, chains, bar)
            rounds.append(0)
            return _descend(counting, starts, cfg)

        monkeypatch.setattr(planner_mod, "_descend", counted)
        monkeypatch.setattr(baselines_mod, "_descend", counted)
        cfg = PlannerConfig(rollout_count=30, obs_samples=6, ref_speed=DEFAULT_REF_SPEED[kind])
        rng = np.random.default_rng(9)
        planner = planner_cls(cfg)
        for i in range(3):
            state = advanced_state(kind, rng)
            planner.plan_step(state, filtered_belief(default_targets(kind), rng), 70 + i)
        assert len(rounds) == 3
        assert all(2 <= n <= 1 + cfg.solver_iters for n in rounds)


class TestExactGradient:
    """Each planner's ``evaluate`` gives its objective's gradient in the
    segment vector. Central differences agree with it to 1e-6 relative at
    random points away from every kink (a probe grid node, a zero speed,
    the progress deficit's corner at the reference speed, a change of tail
    samples): a penalized tail, a certified pair, ego rows that stop, the
    probe slope between grid nodes, and the conservative planner's
    omega-weighted sum."""

    H = 1e-6

    @staticmethod
    def capture(planner, state, b, monkeypatch):
        """Plan one step; return the first descent's ``evaluate`` and the
        step's context."""
        got = {}
        real_begin = planner._begin_step

        def begin(*args):
            got["ctx"] = real_begin(*args)
            return got["ctx"]

        def descend(evaluate, starts, cfg):
            got.setdefault("evaluate", evaluate)
            return _descend(evaluate, starts, cfg)

        monkeypatch.setattr(planner, "_begin_step", begin)
        monkeypatch.setattr(planner_mod, "_descend", descend)
        monkeypatch.setattr(baselines_mod, "_descend", descend)
        planner.plan_step(state, b, 11)
        return got["evaluate"], got["ctx"]

    @staticmethod
    def signature(ctx, accel, modes):
        """Which side of every kink ``accel`` lies on."""
        cfg = ctx.cfg
        x, y, v = simulate_ego_path(ctx.state.ego, accel, ctx.headings, cfg.dt)
        tails = [sorted(cvar_tail(path_costs(x, y, v, ctx.human_paths[m], ctx.discount_weights,
                                             cfg.ref_speed), cfg.cvar_level).tolist())
                 for m in modes]
        piece = (None if ctx.probe_grid is None
                 else int(np.searchsorted(ctx.probe_grid[1:-1], accel[0], side="right")))
        return (v == 0.0).tolist(), (v < cfg.ref_speed).tolist(), tails, piece

    def check(self, evaluate, ctx, chain, modes, thetas):
        """Pin (objective, gradient) at each non-kink theta; returns the
        rows and gradients there."""
        cfg = ctx.cfg
        segment = np.arange(cfg.horizon_steps) // cfg.segment_steps

        def at(theta):
            rows, grads = evaluate(theta[None], np.array([chain]), math.inf)
            return rows[0], grads[0]

        steps = self.H * np.eye(cfg.solver_segments)
        out = []
        for theta in thetas:
            sig = self.signature(ctx, theta[segment], modes)
            if any(self.signature(ctx, (theta + s * e)[segment], modes) != sig
                   for e in steps for s in (1.0, -1.0)):
                continue
            row, grad = at(theta)
            fd = np.array([(at(theta + e)[0][0] - at(theta - e)[0][0]) / (2 * self.H)
                           for e in steps])
            assert np.max(np.abs(grad - fd)) <= 1e-6 * np.max(np.abs(fd))
            out.append((row, grad))
        assert len(out) >= len(thetas) // 2
        return out

    @staticmethod
    def thetas(rng, n, segments, first=(-2.95, 2.95)):
        out = rng.uniform(-2.95, 2.95, (n, segments))
        out[:, 0] = rng.uniform(*first, n)
        return out

    @pytest.mark.parametrize("planner_cls", [ActivePlanner, PassivePlanner])
    @pytest.mark.parametrize("kind", [LANE_MERGE, INTERSECTION])
    def test_penalized_tails(self, kind, planner_cls, monkeypatch):
        # A cap of 5 leaves most pairs above it: the penalty's tail gradient.
        cfg = PlannerConfig(risk_cap=5.0, ref_speed=DEFAULT_REF_SPEED[kind])
        rng = np.random.default_rng(3)
        state = advanced_state(kind, rng)
        evaluate, ctx = self.capture(planner_cls(cfg), state, uniform_belief(default_targets(kind)),
                                     monkeypatch)
        assert (ctx.probe_grid is not None) == (planner_cls is ActivePlanner)
        if ctx.probe_grid is not None:
            # Between grid nodes, where the probe term has a slope.
            assert np.ptp(ctx.probe_entropy) > 0.0
        for c, m in enumerate(ctx.solve[:3]):
            got = self.check(evaluate, ctx, c, [m], self.thetas(rng, 6, cfg.solver_segments))
            assert any(row[1] > cfg.risk_cap for row, _ in got)

    @pytest.mark.parametrize("kind", [LANE_MERGE, INTERSECTION])
    def test_certified_pairs(self, kind, monkeypatch):
        # No cost reaches a cap of 1e6: every pair is certified, and its
        # gradient is the probe slope and the KL term's.
        cfg = PlannerConfig(risk_cap=1e6, ref_speed=DEFAULT_REF_SPEED[kind])
        rng = np.random.default_rng(4)
        evaluate, ctx = self.capture(ActivePlanner(cfg), advanced_state(kind, rng),
                                     uniform_belief(default_targets(kind)), monkeypatch)
        assert ctx.probe_grid is not None and np.ptp(ctx.probe_entropy) > 0.0
        got = self.check(evaluate, ctx, 0, [ctx.solve[0]], self.thetas(rng, 8, cfg.solver_segments))
        assert all(row[1] == -math.inf for row, _ in got)

    @pytest.mark.parametrize("planner_cls", [ActivePlanner, ConservativePlanner])
    def test_ego_rows_that_stop(self, planner_cls, monkeypatch):
        # From 1.5 m/s, braking in the first segment stops the ego; the later
        # segments may move it again. A zero cap penalizes every pair.
        cfg = PlannerConfig(risk_cap=0.0, ref_speed=DEFAULT_REF_SPEED[INTERSECTION])
        rng = np.random.default_rng(5)
        state = advanced_state(INTERSECTION, rng)
        state = ScenarioState(ego=VehicleState(state.ego.x, state.ego.y, 1.5, state.ego.theta),
                              human=state.human, geometry=state.geometry)
        evaluate, ctx = self.capture(planner_cls(cfg), state,
                                     uniform_belief(default_targets(INTERSECTION)), monkeypatch)
        modes = ctx.solve if planner_cls is ConservativePlanner else [ctx.solve[0]]
        thetas = self.thetas(rng, 10, cfg.solver_segments, first=(-2.95, -1.0))
        self.check(evaluate, ctx, 0, modes, thetas)
        stops = [simulate_ego_path(state.ego, t[np.arange(30) // cfg.segment_steps],
                                   ctx.headings, cfg.dt)[2] for t in thetas]
        assert sum(np.any(v == 0.0) and v[-1] > 0.0 for v in stops) >= 3

    @pytest.mark.parametrize("kind", [LANE_MERGE, INTERSECTION])
    def test_conservative_weighted_sum(self, kind, monkeypatch):
        cfg = PlannerConfig(ref_speed=DEFAULT_REF_SPEED[kind])
        rng = np.random.default_rng(6)
        b = filtered_belief(default_targets(kind), rng)
        evaluate, ctx = self.capture(ConservativePlanner(cfg), advanced_state(kind, rng), b,
                                     monkeypatch)
        assert len(ctx.solve) > 1 and np.ptp(ctx.omega[ctx.solve]) > 0.0
        self.check(evaluate, ctx, 0, ctx.solve, self.thetas(rng, 8, cfg.solver_segments))

    @pytest.mark.parametrize("horizon, segments", [(30, 3), (30, 4), (20, 1), (13, 5), (7, 2)])
    def test_terminal_jacobian_sums_each_step(self, horizon, segments):
        # The planner evaluates the linear terminal-state map at each
        # segment's indicator. Its sums and the step-by-step ones each add at
        # most T terms of one sign, a few roundings apiece, so each entry is
        # within (T + 4) eps / 2 of the exact value relative to its row's
        # largest, and the two within twice that.
        cfg = PlannerConfig(horizon_steps=horizon, solver_segments=segments)
        ref = terminal_jacobian(cfg)
        bound = (horizon + 4) * np.finfo(float).eps * np.abs(ref).max(axis=1, keepdims=True)
        assert np.all(np.abs(ActivePlanner(cfg)._terminal_jacobian - ref) <= bound)


def composition_bound(ego, accel, dt, segments):
    """Per-step bounds (T,) on the distance between ``_compose_ego_paths``'
    speeds, and its x and y, and the walk's, for a row that never stops.
    With u = eps / 2, L_t = |v0| + sum_{k<=t} |a_k dt| and A_t = |x0| + t dt
    L_t: the walk's speed t lies within (t + 1) u L_t of the exact one (t
    rounded sums and the products a_k dt). Each unit speed of segment p is
    a sum of n_p <= t copies of dt, within t u n_p dt, so the composed speed
    v0 + sum_p theta_p b_p lies within (t + 1 + P) u L_t: the bases' error
    times |theta_p|, P products and P sums. Together (2t + 2 + P) u L_t,
    below (t + P + 2) eps L_t. A position is a running sum of dt heading_j
    v_{j-1}: the walk's within (3t + 3) u A_t / 2 (its speeds' error summed
    over t steps, two products and one sum per step); each path from rest
    within (2t + 2) u t dt n_p dt, so the composed one within (3t + 3 + P)
    u A_t. Together below (3t + P + 3) eps A_t."""
    eps = np.finfo(float).eps
    steps = np.arange(1, len(accel) + 1)
    lt = abs(ego.v) + np.cumsum(np.abs(accel * dt))
    speed = (steps + segments + 2) * eps * lt
    at = [(abs(c) + steps * dt * lt) * (3 * steps + segments + 3) * eps for c in (ego.x, ego.y)]
    return np.array([*at, speed])


class TestComposedPaths:
    """``_compose_ego_paths``: each candidate's ego path is the coasting path
    plus its segments' paths from rest, within ``composition_bound`` of
    ``simulate_ego_path`` while no speed stops, and the walk itself, bit for
    bit, on a row whose composed speed reaches zero or is NaN. Each row
    equals its own call."""

    @staticmethod
    def check(ego, thetas, headings, cfg):
        """Compare every row; returns how many took the walk."""
        bases = _ego_path_bases(ego, headings, cfg)
        got = _compose_ego_paths(ego, thetas, bases, headings, cfg)
        one_bases = path_bases_one(ego, headings, cfg)
        walked = 0
        for k, theta in enumerate(thetas):
            own = _compose_ego_paths(ego, theta[None], bases, headings, cfg)[:, 0]
            assert np.array_equal(got[:, k], own, equal_nan=True)
            assert np.array_equal(own, ego_path_one(ego, theta, one_bases, headings, cfg),
                                  equal_nan=True)
            accel = segment_accels(theta, cfg)
            walk = np.array(simulate_ego_path(ego, accel, headings, cfg.dt))
            composed = ego_path_one(ego, theta, one_bases, headings, cfg, walk_stops=False)
            if np.min(composed[2]) > 0.0:
                assert np.all(np.abs(own - walk) <= composition_bound(
                    ego, accel, cfg.dt, cfg.solver_segments))
            else:
                assert np.array_equal(own, walk, equal_nan=True)
                walked += 1
        return walked

    @given(
        horizon=st.integers(1, 40),
        segments=st.integers(1, 5),
        dt=st.sampled_from([0.05, 0.1, 0.25]),
        ego=st.tuples(st.floats(-300.0, 300.0), st.floats(-300.0, 300.0), st.floats(0.0, 20.0)),
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 6),
        nan=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_composed_paths_match_the_walk(self, horizon, segments, dt, ego, seed, rows, nan):
        try:
            cfg = PlannerConfig(horizon_steps=horizon, solver_segments=segments, dt=dt)
        except InvalidInputError:
            return  # a segment would be empty
        rng = np.random.default_rng(seed)
        angles = rng.uniform(-math.pi, math.pi) + np.cumsum(rng.uniform(-0.06, 0.06, horizon))
        headings = np.array([np.cos(angles), np.sin(angles)])
        thetas = rng.uniform(*cfg.accel_bounds, (rows, segments))
        if nan:
            thetas[rng.integers(rows), rng.integers(segments)] = math.nan
        self.check(VehicleState(*ego, float(angles[0])), thetas, headings, cfg)

    def test_rows_that_stop_take_the_walk(self):
        # From 2 m/s, braking stops the ego within a segment; a NaN row and
        # moving rows share the batch, each with its own path.
        cfg = PlannerConfig()
        ego = VehicleState(-20.0, 3.5, 2.0, 0.1)
        headings = ego_headings(ego, np.full(cfg.horizon_steps, 0.05), cfg.dt)
        thetas = np.array([[1.0, 0.5, -0.2], [-3.0, 0.0, 3.0], [2.0, math.nan, 0.0],
                           [-1.5, -1.0, 3.0], [3.0, 3.0, -3.0], [-0.5, 2.0, 1.0]])
        assert self.check(ego, thetas, headings, cfg) == 3


class TestSegmentEvaluate:
    """A round's ``evaluate`` takes segment vectors, and each row (and
    gradient) equals the same pair evaluated alone: its path, terminal
    state, KL residual and probe term are its own. The conservative
    planner scores only the rows a decision reads: each scored row equals
    its pair alone, the pair that becomes the chain's state has its
    gradient alone, and every other row holds ``_UNSCORED`` with a floor
    at most its exact objective that provably loses."""

    @pytest.mark.parametrize("planner_cls", [ActivePlanner, PassivePlanner, ConservativePlanner])
    @pytest.mark.parametrize("kind", [LANE_MERGE, INTERSECTION])
    def test_each_row_equals_its_pair_alone(self, kind, planner_cls, monkeypatch):
        cfg = PlannerConfig(risk_cap=20.0, ref_speed=DEFAULT_REF_SPEED[kind])
        rng = np.random.default_rng(12)
        state = advanced_state(kind, rng)
        b = filtered_belief(default_targets(kind), rng)
        evaluate, ctx = TestExactGradient.capture(planner_cls(cfg), state, b, monkeypatch)
        n_chains = 1 if planner_cls is ConservativePlanner else len(ctx.solve)
        thetas = rng.uniform(-3.0, 3.0, (30, cfg.solver_segments))
        thetas[:5, 0] = -3.0  # hard braking: rows that may stop
        chains = np.sort(rng.integers(0, n_chains, len(thetas)))
        if planner_cls is ConservativePlanner:
            self.check_conservative(evaluate, thetas, chains, rng)
            return
        full, _ = evaluate(thetas, chains, np.full(len(thetas), np.inf))
        # Bars above and below each row's objective: some trials win.
        bars = full[:, 0] * rng.choice([0.5, 2.0], len(thetas))
        for bar in [np.full(len(thetas), np.inf), bars]:
            rows, grads = evaluate(thetas, chains, bar)
            for k in range(len(thetas)):
                row, grad = evaluate(thetas[k:k + 1], chains[k:k + 1], bar[k:k + 1])
                assert np.array_equal(rows[k], row[0], equal_nan=True)
                assert np.array_equal(grads[k], grad[0], equal_nan=True)
        assert np.any(rows[:, 1] > cfg.risk_cap) and np.any(rows[:, 0] < bars)

    @staticmethod
    def check_conservative(evaluate, thetas, chains, rng):
        # Alone, a vector is its start round's pick: scored, with its gradient.
        alone = [evaluate(theta[None], chains[:1], None) for theta in thetas]
        exact = np.array([row[0] for row, _ in alone])
        exact_grads = np.array([grad[0] for _, grad in alone])
        assert not np.any(exact[:, 1:] == _UNSCORED)
        # Bars that every trial loses, then bars where some win, the first
        # after trials whose floor already loses.
        lose = exact[:, 0] * 0.999
        wins = exact[:, 0] * rng.choice([0.1, 2.0], len(thetas), p=[0.8, 0.2])
        wins[:4] = exact[:4, 0] * 0.1
        skipped = []
        for bar in [None, np.full(len(thetas), np.inf), lose, wins]:
            rows, grads = evaluate(thetas, chains, bar)
            scored = np.flatnonzero(rows[:, 1] != _UNSCORED)
            unscored = np.flatnonzero(rows[:, 1] == _UNSCORED)
            assert np.array_equal(rows[scored], exact[scored])
            assert np.all(rows[unscored, 1:] == _UNSCORED)
            assert np.all(rows[unscored, 0] <= exact[unscored, 0])
            if bar is None:
                state = int(np.argmin(rows[:, 0]))
                assert state == int(np.argmin(exact[:, 0]))
                assert np.all(rows[unscored, 0] > rows[state, 0])
            else:
                won = np.flatnonzero(rows[:, 0] < bar)
                state = won[0] if won.size else None
                # Before the first win every trial loses, scored or by its
                # floor; after it, no trial is read.
                first = len(thetas) if state is None else state
                before, lost = unscored[unscored < first], scored[scored < first]
                assert np.all(rows[before, 0] >= bar[before])
                assert np.all(exact[lost, 0] >= bar[lost])
                skipped.append(before.size)
            if bar is None or state is not None:
                assert scored.size < len(thetas)
            reads = np.zeros(len(thetas), dtype=bool)
            if state is not None:
                reads[state] = True
                assert state in scored and np.array_equal(grads[state], exact_grads[state])
            assert np.all(grads[~reads] == 0.0)
        # The winning bars skip some trial by its floor.
        assert skipped[-1] > 0


class TestConservativePruning:
    """The conservative planner scores its starts best first by floor and
    stops once a floor lies above the best objective scored: on a fixed
    intersection step the start round makes fewer ``path_costs`` calls
    than it has starts, and every start it leaves unscored has a floor
    above the pick's objective."""

    def test_start_round_scores_fewer_vectors_than_starts(self, monkeypatch):
        calls, rounds = [], []
        real_costs = baselines_mod.path_costs

        def counted_costs(*args):
            calls.append(args)
            return real_costs(*args)

        def recorded_descend(evaluate, starts, cfg):
            def recorded(thetas, chains, bar):
                before = len(calls)
                rows, grads = evaluate(thetas, chains, bar)
                rounds.append((rows.copy(), len(calls) - before))
                return rows, grads
            return _descend(recorded, starts, cfg)

        monkeypatch.setattr(baselines_mod, "path_costs", counted_costs)
        monkeypatch.setattr(baselines_mod, "_descend", recorded_descend)
        cfg = PlannerConfig(ref_speed=DEFAULT_REF_SPEED[INTERSECTION])
        rng = np.random.default_rng(0)
        state = advanced_state(INTERSECTION, rng)
        b = filtered_belief(default_targets(INTERSECTION), rng)
        _, diag = ConservativePlanner(cfg).plan_step(state, b, 70)
        (rows, n_calls), *searches = rounds
        unscored = rows[:, 1] == _UNSCORED
        pick = int(np.argmin(rows[:, 0]))
        assert n_calls == np.sum(~unscored) < len(rows)
        assert not unscored[pick] and np.all(rows[unscored, 0] > rows[pick, 0])
        # One cost block per scored vector in every round, and the whole step
        # scores fewer vectors than its descent logged.
        assert all(n == np.sum(r[:, 1] != _UNSCORED) for r, n in searches)
        assert len(calls) < diag.solver_evals


class TestCertifiedBelowCap:
    """Pairs whose cost bound certifies them below the cap skip the exact
    cost block, and every reported CVaR is still exact."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_most_pairs_skip_the_cost_block(self, seed, monkeypatch):
        rows = Counter()
        real_costs, real_bounds = planner_mod.path_costs, planner_mod.path_cost_bounds

        def counted_costs(x, y, speeds, human, *args):
            rows["costs"] += len(human) if human.ndim == 4 else len(np.atleast_2d(x))
            return real_costs(x, y, speeds, human, *args)

        def counted_bounds(x, *args):
            rows["bounds"] += len(x)
            return real_bounds(x, *args)

        monkeypatch.setattr(planner_mod, "path_costs", counted_costs)
        monkeypatch.setattr(planner_mod, "path_cost_bounds", counted_bounds)
        cfg = PlannerConfig(ref_speed=DEFAULT_REF_SPEED[LANE_MERGE])
        state = init_scenario(LANE_MERGE, np.random.default_rng(seed))
        b = uniform_belief(default_targets(LANE_MERGE))
        _, diag = ActivePlanner(cfg).plan_step(state, b, 60 + seed)
        # cvar_pre, the pairs left open and the certified picks.
        assert 0 < rows["costs"] < rows["bounds"] / 2

        ctx = ActivePlanner(cfg)._begin_step(state, b, 60 + seed)
        solved = [d for d in diag.modes if d.active]
        assert len(solved) == len(ctx.solve) == 9
        bases = path_bases_one(state.ego, ctx.headings, cfg)
        for m, d in zip(ctx.solve, solved):
            # The path the planner scores: composed from its segment vector.
            theta = d.nu[::cfg.segment_steps, 0]
            x, y, speeds = ego_path_one(state.ego, theta, bases, ctx.headings, cfg)
            exact = cvar(real_costs(x, y, speeds, ctx.human_paths[m], ctx.discount_weights,
                                    cfg.ref_speed), cfg.cvar_level)
            assert math.isfinite(d.cvar_solution) and d.cvar_solution == exact
            assert d.margin == cfg.risk_cap - exact


class LazyRounds:
    """Wraps ``planner._descend``: records every round of every descent and
    checks that each row a decision reads is scored. The start round's pick
    is each chain's least objective, and a chain with no certified start
    leaves no start unscored. A line-search trial below its win threshold,
    and each chain's final row, are scored. ``pending`` lists, per descent,
    the chains whose final row breaks the cap with unscored rows in their
    history."""

    def __init__(self):
        self.rounds, self.pending = [], []

    def __call__(self, evaluate, starts, cfg):
        rounds = []

        def recorded(thetas, chains, bar):
            rows, grads = evaluate(thetas, chains, bar)
            rounds.append((chains.copy(), rows.copy(), bar))
            return rows, grads

        out = _descend(recorded, starts, cfg)
        for i, (chains, rows, bar) in enumerate(rounds):
            unscored = rows[:, 1] == _UNSCORED
            if i == 0:
                assert bar is None
                for c in set(chains.tolist()):
                    mine = np.flatnonzero(chains == c)
                    assert not unscored[mine[np.argmin(rows[mine, 0])]]
                    if not np.any(rows[mine, 1] == -math.inf):
                        assert not unscored[mine].any()
            else:
                assert not (unscored & (rows[:, 0] < bar)).any()
        assert all(row[1] != _UNSCORED for _, row, _, _ in out)
        self.pending.append([(c, rows) for c, (_, row, _, rows) in enumerate(out)
                             if row[1] > cfg.risk_cap and np.any(rows[:, 1] == _UNSCORED)])
        self.rounds.append(rounds)
        return out

    def unscored(self):
        return sum(int(np.sum(rows[:, 1] == _UNSCORED))
                   for rounds in self.rounds for _, rows, _ in rounds)


def lazy_and_eager(make_planner, cases, monkeypatch, prepare=lambda planner, b: None):
    """Plan each (state, belief, key) with the lazy rule and with every
    pair scored (``eager_descend``), one planner each; check that both give
    the same steps. Returns the lazy rounds, the rows each way sent to
    ``path_costs`` and the lazy steps."""
    checker, cost_rows, steps = LazyRounds(), Counter(), {}
    real_costs = planner_mod.path_costs
    for way, descend in (("lazy", checker), ("eager", eager_descend)):
        def counted_costs(x, y, speeds, human, *args, way=way):
            cost_rows[way] += len(human) if human.ndim == 4 else len(np.atleast_2d(x))
            return real_costs(x, y, speeds, human, *args)

        monkeypatch.setattr(planner_mod, "path_costs", counted_costs)
        monkeypatch.setattr(planner_mod, "_descend", descend)
        planner, steps[way] = make_planner(), []
        for state, b, key in cases:
            prepare(planner, b)
            steps[way].append(planner.plan_step(state, b, key))
    for (u, diag), (want_u, want_diag) in zip(steps["lazy"], steps["eager"]):
        assert np.array_equal(u, want_u)
        assert same_diag(diag, want_diag)
    return checker, cost_rows, steps["lazy"]


class TestLazyScoring:
    """A pair no decision reads gets no cost block, and every step equals
    the one that scores every open pair."""

    def test_fewer_rows_reach_path_costs(self, monkeypatch):
        # Fixed lane_merge ``ours`` steps with the default budgets, planner
        # state carried from step to step.
        cfg = PlannerConfig(ref_speed=DEFAULT_REF_SPEED[LANE_MERGE])
        rng = np.random.default_rng(21)
        targets = default_targets(LANE_MERGE)
        cases = [(advanced_state(LANE_MERGE, rng), filtered_belief(targets, rng), 80 + i)
                 for i in range(4)]
        checker, cost_rows, _ = lazy_and_eager(lambda: ActivePlanner(cfg), cases, monkeypatch)
        assert checker.unscored() > 0
        assert 0 < cost_rows["lazy"] < cost_rows["eager"]

    @pytest.mark.parametrize("kind, cap, seed", [(LANE_MERGE, 20.0, 0), (INTERSECTION, 10.0, 0)])
    def test_fallback_scores_the_unscored_history(self, kind, cap, seed, monkeypatch):
        # A chain's final row breaks the cap while its history holds
        # unscored rows: they are scored in one batch before the fallback
        # reads them, and the fallback is the scalar oracle's.
        cfg = PlannerConfig(risk_cap=cap, ref_speed=DEFAULT_REF_SPEED[kind])
        state = advanced_state(kind, np.random.default_rng(seed))
        b = uniform_belief(default_targets(kind))
        checker, _, ((u, diag),) = lazy_and_eager(
            lambda: ActivePlanner(cfg), [(state, b, 50 + seed)], monkeypatch
        )
        (pending,) = checker.pending
        assert pending
        for _, rows in pending:
            # The history the fallback read, scored in place.
            assert not np.any(rows[:, 1] == _UNSCORED)
        want_u, want_diag = plan_step_per_mode(ActivePlanner(cfg), state, b, 50 + seed)
        assert np.array_equal(u, want_u) and same_diag(diag, want_diag)

    @pytest.mark.parametrize("kind, cap, seed", [
        (LANE_MERGE, 60.0, 5), (INTERSECTION, 10.0, 2), (INTERSECTION, 0.0, 2),
    ])
    def test_chain_with_no_certified_start(self, kind, cap, seed, monkeypatch):
        # A chain with no certified start defers nothing in the start round
        # (LazyRounds checks it) while other chains defer; a zero cap
        # certifies no pair at all.
        cfg = PlannerConfig(risk_cap=cap, ref_speed=DEFAULT_REF_SPEED[kind])
        rng = np.random.default_rng(seed)
        state = advanced_state(kind, rng)
        b = filtered_belief(default_targets(kind), rng)
        checker, _, _ = lazy_and_eager(lambda: ActivePlanner(cfg), [(state, b, 90)], monkeypatch)
        ((chains, rows, _), *_) = checker.rounds[0]
        mine = [rows[chains == c, 1] for c in sorted(set(chains.tolist()))]
        uncertified = [not np.any(r == -math.inf) for r in mine]
        deferring = [np.any(r == _UNSCORED) for r in mine]
        assert any(uncertified)
        assert any(deferring) == (cap > 0.0) and not any(map(all, zip(uncertified, deferring)))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("kind, seed, scale", [
        (LANE_MERGE, 8, 1e-153),  # start rounds defer pairs of infinite bound
        (INTERSECTION, 6, 2e-154),  # line searches do
    ])
    def test_infinite_influence(self, kind, seed, scale, monkeypatch):
        # A steering factor so small that the influence term of the pairs
        # far from the target overflows to inf: their bound is inf.
        cfg = PlannerConfig(risk_cap=10.0, ref_speed=DEFAULT_REF_SPEED[kind])
        state = advanced_state(kind, np.random.default_rng(seed))
        b = uniform_belief(default_targets(kind))

        def tiny_steering(planner, b):
            planner._targets = b.targets
            planner._steering[0, 0] = (np.eye(2) * scale, 0.0, b.targets.targets[0].steer.mean)

        checker, _, _ = lazy_and_eager(
            lambda: ActivePlanner(cfg), [(state, b, 9)], monkeypatch, tiny_steering
        )
        rows = np.concatenate([r for _, r, _ in checker.rounds[0]])
        assert np.any((rows[:, 3] == math.inf) & (rows[:, 1] == _UNSCORED))
        assert np.any(np.isfinite(rows[:, 3]))

    def test_nan_cvar_from_nan_costs(self, monkeypatch):
        # A NaN sample makes every scored CVaR of its mode NaN (cvar counts
        # NaN as the largest cost); the boxes stay finite.
        real_draw = planner_mod.draw_human_paths

        def one_nan_sample(*args):
            planes, boxes = real_draw(*args)
            planes[2, :, 0, 5:] = math.nan
            return planes, boxes

        monkeypatch.setattr(planner_mod, "draw_human_paths", one_nan_sample)
        cfg = PlannerConfig(risk_cap=10.0, ref_speed=DEFAULT_REF_SPEED[INTERSECTION])
        rng = np.random.default_rng(2)
        cases = [(advanced_state(INTERSECTION, rng),
                  filtered_belief(default_targets(INTERSECTION), rng), 30 + i) for i in range(2)]
        checker, _, _ = lazy_and_eager(lambda: ActivePlanner(cfg), cases, monkeypatch)
        rows = np.concatenate([r for rounds in checker.rounds for _, r, _ in rounds])
        assert np.isnan(rows[:, 1]).any() and checker.unscored() > 0

    def test_start_ties_are_scored(self, monkeypatch):
        # A steering factor so large that every influence term is the
        # constant 1.0: with no probe term, every pair's bound ties with
        # every certified start, and a tie is scored.
        def flat_steering(planner, b):
            planner._targets = b.targets
            for m in range(len(b.targets)):
                for k in range(len(b.targets)):
                    planner._steering[m, k] = (np.eye(2) * 1e200, 1.0, np.zeros(2))

        cfg = PlannerConfig(risk_cap=10.0, ref_speed=DEFAULT_REF_SPEED[INTERSECTION])
        rng = np.random.default_rng(4)
        cases = [(advanced_state(INTERSECTION, rng),
                  filtered_belief(default_targets(INTERSECTION), rng), 60 + i) for i in range(3)]
        checker, _, _ = lazy_and_eager(
            lambda: PassivePlanner(cfg), cases, monkeypatch, flat_steering
        )
        for rounds in checker.rounds:
            _, rows, _ = rounds[0]
            assert np.all(rows[:, 0] >= 1.0) and np.all(rows[:, 3] == 1.0)
        # Some start was scored exactly at the tie: open, and within the cap.
        assert any(np.any((r[0][1][:, 1] >= 0.0) & (r[0][1][:, 0] == 1.0)) for r in checker.rounds)


class TestStartCandidates:
    @pytest.mark.parametrize("bursts", [False, True])
    @pytest.mark.parametrize("segments", [1, 3, 4])
    def test_matches_one_list_per_chain(self, bursts, segments):
        # The last two bounds exclude coasting: it is clipped to them.
        for bounds in [(-3.0, 3.0), (0.5, 3.0), (-3.0, -0.5)]:
            cfg = PlannerConfig(solver_segments=segments, accel_bounds=bounds)
            rng = np.random.default_rng(4)
            warms = [None, rng.uniform(-4.0, 4.0, cfg.horizon_steps), None,
                     rng.uniform(-1.0, 1.0, cfg.horizon_steps)]
            cands, owner = _start_candidates(cfg, _shared_starts(cfg), warms, bursts)
            assert np.all((cands >= bounds[0]) & (cands <= bounds[1]))
            # One start set per warm start, set after set.
            assert np.array_equal(owner, np.sort(owner)) and owner.max() + 1 == len(warms)
            for c, warm in enumerate(warms):
                want = start_candidates_one(cfg, warm, bursts)
                mine = cands[owner == c]
                assert len(mine) == len(want)
                assert all(a.tobytes() == w.tobytes() for a, w in zip(mine, want))

    def test_window_means_match_np_mean_on_random_horizons(self):
        # Each window's mean is its sum over its length, bit for bit the
        # np.mean of the one-list oracle, also when the last window is short.
        rng = np.random.default_rng(9)
        short = 0
        for _ in range(300):
            horizon = int(rng.integers(1, 61))
            segments = int(rng.integers(1, min(horizon, 8) + 1))
            try:
                cfg = PlannerConfig(horizon_steps=horizon, solver_segments=segments,
                                    accel_bounds=(-1e4, 1e4))
            except InvalidInputError:
                continue  # a segment would be empty
            short += horizon % cfg.segment_steps != 0
            warms = [rng.normal(0.0, 2.0, horizon) * rng.choice([1e-3, 1.0, 1e3])
                     for _ in range(int(rng.integers(1, 4)))]
            cands, owner = _start_candidates(cfg, _shared_starts(cfg), warms, bursts=True)
            for c, warm in enumerate(warms):
                want = start_candidates_one(cfg, warm, True)
                assert all(a.tobytes() == w.tobytes() for a, w in zip(cands[owner == c], want))
        assert short >= 50

    def test_warm_start_means_follow_the_segments(self):
        # 30 steps in segments of 8, 8, 8 and 6 steps. A warm plan constant
        # on each segment gives back its segment values.
        cfg = PlannerConfig(solver_segments=4)
        values = np.array([1.0, -1.0, 2.0, 0.5])
        warm = np.repeat(values, 8)[:30]
        cands, _ = _start_candidates(cfg, _shared_starts(cfg), [warm], bursts=False)
        assert np.array_equal(cands[-1], values)


class TestRunConstants:
    """What a run does not change is built once: a round's ego paths come
    from the step's bases, and the steering setup once per (solved mode,
    steering mode) of a target set."""

    @pytest.mark.parametrize("planner_cls", [ActivePlanner, ConservativePlanner])
    @pytest.mark.parametrize("speed", [12.0, 1.5])
    def test_round_walks_only_rows_that_stop(self, planner_cls, speed, monkeypatch):
        # A round composes its ego paths from the step's bases. It calls
        # simulate_ego_path only when some row's composed speeds reach zero
        # or hold a NaN, once, on just those rows. From 1.5 m/s the braking
        # starts stop the ego; from 12 m/s, 3 s at -3 m/s^2 do not.
        cfg = PlannerConfig(ref_speed=DEFAULT_REF_SPEED[INTERSECTION])
        state = advanced_state(INTERSECTION, np.random.default_rng(5))
        state = ScenarioState(ego=VehicleState(state.ego.x, state.ego.y, speed, state.ego.theta),
                              human=state.human, geometry=state.geometry)
        planner = planner_cls(cfg)
        walked, rounds, got = [], [], {}
        real_simulate, real_descend = planner_mod.simulate_ego_path, planner_mod._descend
        real_begin = planner._begin_step

        def begin(*args):
            got["ctx"] = real_begin(*args)
            return got["ctx"]

        def counted_simulate(ego, accel, *args):
            walked.append(np.atleast_2d(accel).copy())
            return real_simulate(ego, accel, *args)

        def counted_descend(evaluate, starts, cfg):
            def counting(thetas, chains, bar):
                before = len(walked)
                out = evaluate(thetas, chains, bar)
                rounds.append((thetas.copy(), walked[before:]))
                return out
            return real_descend(counting, starts, cfg)

        monkeypatch.setattr(planner, "_begin_step", begin)
        monkeypatch.setattr(planner_mod, "simulate_ego_path", counted_simulate)
        monkeypatch.setattr(planner_mod, "_descend", counted_descend)
        monkeypatch.setattr(baselines_mod, "_descend", counted_descend)
        planner.plan_step(state, uniform_belief(default_targets(INTERSECTION)), 6)
        ctx = got["ctx"]
        bases = path_bases_one(state.ego, ctx.headings, cfg)
        stopping = 0
        for thetas, calls in rounds:
            stops = [t for t in thetas if not np.min(ego_path_one(
                state.ego, t, bases, ctx.headings, cfg, walk_stops=False)[2]) > 0.0]
            if stops:
                (call,) = calls
                assert np.array_equal(call, [segment_accels(t, cfg) for t in stops])
            else:
                assert calls == []
            stopping += bool(stops)
        assert len(rounds) >= 2
        assert (stopping > 0) == (speed < 9.0)

    @pytest.mark.parametrize("planner_name", ["ours", "passive"])
    def test_kl_divergence_once_per_mode_pair_over_a_run(self, planner_name, monkeypatch):
        calls, pairs = [], set()
        real_kl, real_solve = planner_mod.kl_divergence, ActivePlanner._solve_modes

        def counted_kl(p, q):
            calls.append(q)
            return real_kl(p, q)

        def recorded_solve(self, ctx, steer_modes, warm_accels):
            pairs.update(zip(ctx.solve, steer_modes))
            return real_solve(self, ctx, steer_modes, warm_accels)

        monkeypatch.setattr(planner_mod, "kl_divergence", counted_kl)
        monkeypatch.setattr(ActivePlanner, "_solve_modes", recorded_solve)
        cfg = RunConfig(scenario=LANE_MERGE, master_seed=3, planner=planner_name, t_max=1.0,
                        planner_cfg=PlannerConfig(ref_speed=DEFAULT_REF_SPEED[LANE_MERGE]))
        _, log = run(cfg)
        assert len(log.records) == 10
        assert len(calls) == len(pairs) >= 9

    @pytest.mark.parametrize("planner_name, streams", [
        ("ours", 100), ("passive", 90), ("conservative", 90),
    ])
    def test_rollouts_drawn_as_one_block_per_step(self, planner_name, streams, monkeypatch):
        # One draw_human_paths call per step covers every mode, each from its
        # own keyed stream: the planner opens as many streams (per step, one
        # per mode and the ours planner's probe stream) as it did when it
        # drew one mode per call.
        draws, keys = [], []
        real_draw, real_rng = planner_mod.draw_human_paths, planner_mod.rng_from_keys

        def counted_draw(human, modes, *args):
            draws.append(len(modes))
            return real_draw(human, modes, *args)

        def counted_rng(*k):
            keys.append(k)
            return real_rng(*k)

        monkeypatch.setattr(planner_mod, "draw_human_paths", counted_draw)
        monkeypatch.setattr(planner_mod, "rng_from_keys", counted_rng)
        _, log = run(RunConfig(scenario=LANE_MERGE, master_seed=4, planner=planner_name,
                               t_max=1.0))
        targets = default_targets(LANE_MERGE).targets
        assert len(log.records) == 10 and draws == [len(targets)] * 10
        assert len(keys) == streams
        rollout = [k[2:] for k in keys if k[1] == STREAM_MODE_ROLLOUT]
        assert rollout == [(t.intent_id, t.mode_id) for t in targets] * 10

    def test_new_target_set_gets_its_own_steering(self):
        cfg = PlannerConfig(**FAST)
        rng = np.random.default_rng(8)
        merge = filtered_belief(default_targets(LANE_MERGE), rng)
        crossing_state = advanced_state(INTERSECTION, rng)
        crossing = filtered_belief(default_targets(INTERSECTION), rng)
        planner, fresh = ActivePlanner(cfg), ActivePlanner(cfg)
        planner.plan_step(advanced_state(LANE_MERGE, rng), merge, 12)
        fresh._warm = {m: w.copy() for m, w in planner._warm.items()}
        fresh._ref_accel = planner._ref_accel.copy()
        u, diag = planner.plan_step(crossing_state, crossing, 13)
        want_u, want_diag = fresh.plan_step(crossing_state, crossing, 13)
        assert np.array_equal(u, want_u)
        assert same_diag(diag, want_diag)


class TestProbeObjective:
    """``_StepContext.probe_terms``: entropy weight times the expected
    posterior entropy interpolated on the probe grid, and its slope."""

    @staticmethod
    def context(entropy, weight, grid=(-3.0, 3.0)):
        ctx = ActivePlanner(PlannerConfig(**FAST))._begin_step(
            merge_state(), uniform_belief(default_targets(LANE_MERGE)), 3
        )
        ctx.probe_grid = np.array(grid)
        ctx.probe_entropy = np.broadcast_to(np.asarray(entropy, dtype=float), len(grid)).copy()
        ctx.entropy_weight = weight
        return ctx

    def test_zero_entropy(self):
        terms, slopes = self.context(0.0, 0.7).probe_terms(np.array([-1.0, 2.0]))
        assert np.array_equal(terms, [0, 0]) and np.array_equal(slopes, [0, 0])

    def test_disabled(self):
        terms, slopes = self.context(4 * math.log(3), 0.0).probe_terms(np.zeros(2))
        assert np.array_equal(terms, [0, 0]) and np.array_equal(slopes, [0, 0])

    def test_scaling(self):
        terms, slopes = self.context(4 * math.log(3), 0.5).probe_terms(np.array([0.5]))
        assert terms[0] == pytest.approx(2 * math.log(3), abs=1e-12)
        assert slopes[0] == 0.0

    def test_slope_of_each_piece(self):
        # Pieces of slope 1, -2 and 0.5 on nodes -3, -1, 0 and 3. A node takes
        # the piece to its right, the top node the last piece.
        ctx = self.context([0.0, 2.0, 0.0, 1.5], 0.5, grid=(-3.0, -1.0, 0.0, 3.0))
        first = np.array([-3.0, -2.0, -1.0, -0.5, 0.0, 2.9, 3.0])
        terms, slopes = ctx.probe_terms(first)
        assert np.array_equal(terms, 0.5 * np.interp(first, ctx.probe_grid, ctx.probe_entropy))
        assert np.array_equal(slopes, 0.5 * np.array([1.0, 1.0, -2.0, -2.0, 0.5, 0.5, 0.5]))


class TestInfluenceObjective:
    def test_identical_zero(self):
        g = Gaussian(np.array([9.0, 4.0]), np.diag([2.0, 9.0]))
        assert influence_objective(g, g) == 0.0

    def test_unit_1d(self):
        p = Gaussian(np.array([0.0]), np.array([[1.0]]))
        q = Gaussian(np.array([1.0]), np.array([[1.0]]))
        assert influence_objective(p, q) == pytest.approx(0.5, abs=1e-12)

    def test_widening_increases_divergence(self):
        target = Gaussian(np.array([0.0]), np.array([[1.0]]))
        last = -1.0
        for var in (1.0, 2.0, 3.0, 4.0):
            val = influence_objective(
                Gaussian(np.array([0.0]), np.array([[var]])), target
            )
            assert val > last
            last = val


class TestPredictedInteraction:
    def test_mean_matches_linear_model_iteration(self):
        cfg = PlannerConfig(horizon_steps=12)
        state = merge_state()
        rng = np.random.default_rng(3)
        accel = rng.uniform(-2, 2, cfg.horizon_steps)
        mode = mk_mode(1, 1, 10.0, 1.0)
        g = predicted_interaction_gaussian(state, accel, mode, cfg)
        # Oracle: iterate the double-integrator planning model.
        a_mat = np.array([[1.0, cfg.dt], [0.0, 1.0]])
        b_mat = np.array([0.5 * cfg.dt * cfg.dt, cfg.dt])
        mu = np.array([state.ego.x, state.ego.v])  # progress equals x here
        for a in accel:
            mu = a_mat @ mu + b_mat * a
        assert g.mean[0] == pytest.approx(mu[1], abs=1e-9)
        # Lead combines ego progress with the mode-conditioned human advance;
        # ego progress enters linearly, so check the control-dependent part.
        g0 = predicted_interaction_gaussian(
            state, np.zeros(cfg.horizon_steps), mode, cfg
        )
        mu0 = np.array([state.ego.x, state.ego.v])
        for _ in range(cfg.horizon_steps):
            mu0 = a_mat @ mu0
        assert g.mean[1] - g0.mean[1] == pytest.approx(mu[0] - mu0[0], abs=1e-9)


class TestSolveModeControl:
    def test_stationary_at_zero_when_already_on_target(self):
        cfg = PlannerConfig(entropy_weight=0.9, ref_speed=9.0)
        # Human a megameter away: no risk pressure, no conflict.
        state = ScenarioState(
            ego=VehicleState(0.0, 0.0, 9.0, 0.0),
            human=VehicleState(0.0, 1e6, 10.0, 0.0),
            geometry=lane_merge_geometry(),
        )
        mode_plain = mk_mode(1, 1, 10.0, 1.0)
        steer = predicted_interaction_gaussian(
            state, np.zeros(cfg.horizon_steps), mode_plain, cfg
        )
        b = single_mode_belief(10.0, 1.0, steer=steer)
        mode = b.targets.targets[0]
        nu, res = solve_mode_control(state, b, mode, cfg, 99)
        assert np.all(np.abs(nu[:, 0]) <= 1e-3)
        assert res.objective <= 1e-6
        assert not res.infeasible

    def test_speed_deficit_drives_positive_accel(self):
        cfg = PlannerConfig(entropy_weight=0.0, risk_cap=1e9, ref_speed=7.0)
        state = ScenarioState(
            ego=VehicleState(0.0, 0.0, 7.0, 0.0),
            human=VehicleState(0.0, 1e6, 10.0, 0.0),
            geometry=lane_merge_geometry(),
        )
        mode_plain = mk_mode(1, 1, 10.0, 1.0)
        base = predicted_interaction_gaussian(
            state, np.zeros(cfg.horizon_steps), mode_plain, cfg
        )
        # Target: same lead, 2.5 m/s faster at the horizon end.
        steer = Gaussian(base.mean + np.array([2.5, 0.0]), base.cov)
        b = single_mode_belief(10.0, 1.0, steer=steer)
        nu, res = solve_mode_control(state, b, b.targets.targets[0], cfg, 7)
        assert nu[0, 0] > 0.0
        # Independent oracle: exhaustive grid over 41 constant accelerations
        # of the influence term (probing off, risk cap inert) confirms the
        # optimum's sign.
        grid = np.linspace(*cfg.accel_bounds, 41)
        values = [
            influence_objective(
                predicted_interaction_gaussian(
                    state, np.full(cfg.horizon_steps, a), mode_plain, cfg
                ),
                steer,
            )
            for a in grid
        ]
        assert grid[int(np.argmin(values))] > 0.0

    def test_controls_always_within_bounds(self):
        cfg = PlannerConfig()
        state = merge_state()
        steer = Gaussian(np.array([12.0, 30.0]), np.diag([1.0, 4.0]))
        b = single_mode_belief(10.0, 1.0, steer=steer)
        for seed in range(5):
            nu, _ = solve_mode_control(state, b, b.targets.targets[0], cfg, seed)
            assert np.all(nu[:, 0] >= cfg.accel_bounds[0] - 1e-12)
            assert np.all(nu[:, 0] <= cfg.accel_bounds[1] + 1e-12)
            assert np.all(nu[:, 1] >= cfg.yaw_rate_bounds[0] - 1e-12)
            assert np.all(nu[:, 1] <= cfg.yaw_rate_bounds[1] + 1e-12)

    def test_descent_never_worse_than_best_start(self):
        state = merge_state(ego=(-30.0, 0.0, 9.0), human=(-22.0, 0.0, 4.0))
        steer = Gaussian(np.array([9.5, 20.0]), np.diag([1.0, 9.0]))
        b = single_mode_belief(4.0, 0.25, steer=steer)
        mode = b.targets.targets[0]
        base = dict(entropy_weight=0.0, ref_speed=9.5)
        _, res_init = solve_mode_control(
            state, b, mode, PlannerConfig(solver_iters=0, **base), 31
        )
        _, res_full = solve_mode_control(
            state, b, mode, PlannerConfig(solver_iters=8, **base), 31
        )
        assert res_full.objective <= res_init.objective + 1e-12

    def test_risk_cap_reduces_cvar(self):
        # Ego directly behind a slow human; the unconstrained optimum
        # accelerates into proximity. A finite cap must cut the tail risk.
        state = merge_state(ego=(-30.0, 0.0, 9.0), human=(-22.0, 0.0, 4.0))
        steer = Gaussian(np.array([9.5, 20.0]), np.diag([1.0, 9.0]))
        b = single_mode_belief(4.0, 0.25, steer=steer)
        mode = b.targets.targets[0]
        unconstrained_cfg = PlannerConfig(entropy_weight=0.0, risk_cap=1e12, ref_speed=9.5)
        capped_cfg = PlannerConfig(entropy_weight=0.0, risk_cap=30.0, ref_speed=9.5)
        _, res_un = solve_mode_control(state, b, mode, unconstrained_cfg, 13)
        _, res_cap = solve_mode_control(state, b, mode, capped_cfg, 13)
        assert res_un.cvar_solution > 30.0
        assert res_cap.cvar_solution < res_un.cvar_solution

    @pytest.mark.parametrize("kind", [LANE_MERGE, INTERSECTION])
    @pytest.mark.parametrize("risk_cap", [60.0, 5.0])
    def test_inline_kl_matches_reference(self, kind, risk_cap):
        # _solve_modes evaluates the influence KL from precomputed constants;
        # it must equal the reference functions at the returned plan.
        cfg = PlannerConfig(
            rollout_count=20, obs_samples=4, solver_iters=2, probe_grid_size=3,
            risk_cap=risk_cap, ref_speed=DEFAULT_REF_SPEED[kind],
        )
        b = uniform_belief(default_targets(kind))
        for seed in range(2):
            state = init_scenario(kind, np.random.default_rng(seed))
            for mode in b.targets.targets[seed::2]:
                nu, res = solve_mode_control(state, b, mode, cfg, seed)
                ref = influence_objective(
                    predicted_interaction_gaussian(state, nu[:, 0], mode, cfg), mode.steer
                )
                assert res.j_influence == pytest.approx(ref, rel=1e-9, abs=1e-9)

    def test_mode_must_belong_to_belief(self):
        cfg = PlannerConfig()
        b = single_mode_belief(10.0, 1.0, steer=Gaussian(np.zeros(2), np.eye(2)))
        foreign = mk_mode(2, 1, 5.0, 1.0)
        with pytest.raises(InvalidInputError):
            solve_mode_control(merge_state(), b, foreign, cfg, 0)


class TestBlendControls:
    def test_single_full_weight(self):
        nu = np.array([[1.0, 0.2], [0.5, 0.0]])
        out, fallback = blend_controls([(1.0, nu)], 1e-5)
        assert np.array_equal(out, nu)
        assert not fallback

    def test_even_mix_cancels(self):
        a = np.full((4, 2), 1.0)
        b = np.full((4, 2), -1.0)
        out, _ = blend_controls([(0.5, a), (0.5, b)], 1e-5)
        assert np.allclose(out, 0.0, atol=1e-15)

    def test_fallback_to_argmax(self):
        a = np.full((3, 2), 2.0)
        b = np.full((3, 2), -1.0)
        out, fallback = blend_controls([(1e-6, a), (9e-7, b)], 1e-5)
        assert fallback
        assert np.array_equal(out, a)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            blend_controls([], 1e-5)

    def test_linear_in_controls(self):
        rng = np.random.default_rng(0)
        nus = [rng.normal(0, 1, (5, 2)) for _ in range(3)]
        w = [0.5, 0.3, 0.2]
        out, _ = blend_controls(list(zip(w, nus)), 1e-5)
        manual = sum(wi * nu for wi, nu in zip(w, nus))
        assert np.allclose(out, manual, atol=1e-12)

    def test_clamps_to_bounds(self):
        nu = np.full((3, 2), 10.0)
        out, _ = blend_controls(
            [(1.0, nu)], 1e-5, np.array([-3.0, -0.6]), np.array([3.0, 0.6])
        )
        assert np.all(out <= [3.0, 0.6])


def coasting_cvar_pre(state, targets, cfg, key):
    """Each mode's reference CVaR of the coasting plan, from the mode's own
    rollout stream under the step's rng key."""
    horizon = cfg.horizon_steps
    headings = ego_headings(state.ego, lane_guidance(state, cfg)[0], cfg.dt)
    x, y, speeds = simulate_ego_path(state.ego, np.zeros(horizon), headings, cfg.dt)
    weights = cfg.discount ** np.arange(horizon)
    out = []
    for t in targets.targets:
        rng = rng_from_keys(key, STREAM_MODE_ROLLOUT, t.intent_id, t.mode_id)
        (paths,), _ = draw_human_paths(state.human, [t], cfg.rollout_count, horizon, cfg.dt,
                                       [rng])
        out.append(cvar(path_costs(x, y, speeds, paths, weights, cfg.ref_speed), cfg.cvar_level))
    return out


def middle_intent_ruled_out():
    """Lane-merge belief with pi = 0 on the middle intent: modes 0-2 and
    6-8 active."""
    targets = default_targets(LANE_MERGE)
    w = uniform_belief(targets).mode_weights
    return HierarchicalBelief(np.array([0.5, 0.0, 0.5]), w, targets)


FAST = dict(rollout_count=30, obs_samples=6, solver_iters=2)


class TestPlanStep:
    def make_belief(self):
        targets = ModeTargetSet(
            [
                mk_mode(1, 1, 10.0, 2.0, Gaussian(np.array([8.5, -12.0]), np.diag([2.0, 16.0]))),
                mk_mode(1, 2, 9.5, 1.0, Gaussian(np.array([8.0, -14.0]), np.diag([2.0, 16.0]))),
                mk_mode(2, 1, 5.0, 1.0, Gaussian(np.array([10.0, 12.0]), np.diag([2.0, 16.0]))),
            ]
        )
        return uniform_belief(targets)

    def test_control_within_bounds_and_omega_matches(self):
        cfg = PlannerConfig()
        planner = ActivePlanner(cfg)
        b = self.make_belief()
        u, diag = planner.plan_step(merge_state(), b, 42)
        assert np.all(u >= cfg.u_min - 1e-12) and np.all(u <= cfg.u_max + 1e-12)
        assert np.all(diag.u_total >= cfg.u_min - 1e-12)
        assert np.all(diag.u_total <= cfg.u_max + 1e-12)
        omega = joint_weights(b)
        for m, t, w in zip(diag.modes, b.targets.targets, omega):
            assert (m.intent_id, m.mode_id) == (t.intent_id, t.mode_id)
            assert m.omega == float(w)
        active_mass = sum(m.omega for m in diag.modes if m.active)
        assert active_mass <= 1.0 + 1e-9

    @pytest.mark.parametrize("bounds", [(0.5, 3.0), (-3.0, -0.5)])
    @pytest.mark.parametrize("planner_cls", [ActivePlanner, PassivePlanner, ConservativePlanner])
    def test_controls_within_bounds_that_exclude_zero(self, planner_cls, bounds):
        # Coasting lies outside these bounds: every solved plan and the
        # executed control still keep to them. Unclipped, the coasting start
        # becomes some of these steps' pick, the conservative planner's too.
        cfg = PlannerConfig(**FAST, accel_bounds=bounds)
        planner = planner_cls(cfg)
        lo, hi = cfg.u_min, cfg.u_max
        states = [merge_state(), merge_state(ego=(-30.0, 3.5, 2.0), human=(-30.0, 0.0, 8.0)),
                  merge_state(ego=(-20.0, 3.5, 12.0))]
        for i, state in enumerate(states):
            u, diag = planner.plan_step(state, self.make_belief(), 60 + i)
            plans = [m.nu for m in diag.modes if m.nu is not None]
            assert plans
            for nu in [*plans, diag.u_total, u[None]]:
                assert np.all((nu >= lo) & (nu <= hi))

    def test_bit_identical_given_key(self):
        cfg = PlannerConfig()
        b = self.make_belief()
        u1, d1 = ActivePlanner(cfg).plan_step(merge_state(), b, 2024)
        u2, d2 = ActivePlanner(cfg).plan_step(merge_state(), b, 2024)
        assert np.array_equal(u1, u2)
        assert np.array_equal(d1.u_total, d2.u_total)
        assert d1.entropy_before == d2.entropy_before
        assert d1.expected_entropy_after == d2.expected_entropy_after
        for m1, m2 in zip(d1.modes, d2.modes):
            assert m1.cvar_pre == m2.cvar_pre
            assert m1.cvar_solution == m2.cvar_solution or (
                math.isnan(m1.cvar_solution) and math.isnan(m2.cvar_solution)
            )

    def test_guidance_steers_toward_ramp_then_lane(self):
        cfg = PlannerConfig()
        # On the ramp before the merge point: no lateral command.
        state = merge_state(ego=(-40.0, 3.5, 9.0), human=(-60.0, 0.0, 10.0))
        yaw, _ = lane_guidance(state, cfg)
        assert abs(yaw[0]) < 1e-9
        # Past the merge point with a clear gap: steer down toward the lane.
        state2 = merge_state(ego=(5.0, 3.5, 9.0), human=(-60.0, 0.0, 10.0))
        yaw2, _ = lane_guidance(state2, cfg)
        assert yaw2[0] < 0.0

    @pytest.mark.parametrize("planner_cls", [ActivePlanner, PassivePlanner])
    def test_no_active_mode_solves_first_argmax_mode(self, planner_cls):
        # Every omega of the uniform 9-mode belief is 1/9, below eps: the
        # step solves only the first of the tied argmax modes and executes
        # its plan unscaled.
        cfg = PlannerConfig(mode_activation_eps=0.5, **FAST)
        b = uniform_belief(default_targets(LANE_MERGE))
        _, diag = planner_cls(cfg).plan_step(merge_state(), b, 11)
        assert [m.nu is not None for m in diag.modes] == [True] + [False] * 8
        assert not any(m.active for m in diag.modes)
        assert diag.blend_fallback
        assert np.array_equal(diag.u_total, diag.modes[0].nu)

    @pytest.mark.parametrize("planner_cls", [ActivePlanner, PassivePlanner])
    def test_noncontiguous_active_modes_align_with_targets(self, planner_cls):
        cfg = PlannerConfig(**FAST)
        b = middle_intent_ruled_out()
        state = merge_state()
        _, diag = planner_cls(cfg).plan_step(state, b, 23)
        solved = [m.nu is not None for m in diag.modes]
        assert solved == list(joint_weights(b) > cfg.mode_activation_eps)
        assert solved == [True] * 3 + [False] * 3 + [True] * 3
        assert [m.active for m in diag.modes] == solved
        assert not diag.blend_fallback
        assert [m.cvar_pre for m in diag.modes] == coasting_cvar_pre(state, b.targets, cfg, 23)
