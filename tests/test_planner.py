"""Planner tests: probing estimates, influence objective, the per-mode
constrained solve (with an exhaustive constant-acceleration grid as the
independent oracle), blending, and receding-horizon step contracts."""

import math
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

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
from probeplan.human import GAP, VELOCITY
from probeplan import baselines as baselines_mod
from probeplan import planner as planner_mod
from probeplan.planner import (
    ActivePlanner,
    PlannerConfig,
    _UNSCORED,
    _descend,
    _shared_starts,
    _start_candidates,
    lane_guidance,
)
from probeplan.risk import cvar, draw_human_paths, path_costs, simulate_ego_path
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
    ego_headings,
    expected_posterior_entropy,
    influence_objective,
    lane_guidance_loop,
    plan_step_per_mode,
    predicted_interaction_gaussian,
    predicted_observation_one,
    probe_grid,
    probe_projection_loop,
    solve_mode_control,
    start_candidates_one,
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
            # A feature typo surfaced only at the first observation.
            ("features", ("velocty",)),
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
            ("features", 5),
            ("features", ("velocity", ["gap"])),
            ("features", ()),
            # Scored one observation twice against a two-feature model.
            ("features", ("velocity", "velocity")),
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


def with_gap_targets(targets, features):
    """``targets`` with a second, gap dimension on every observation
    target, its dimensions in the order of ``features``."""
    order = [(VELOCITY, GAP).index(name) for name in features]
    return ModeTargetSet(
        [
            ModeTarget(
                t.intent_id, t.mode_id,
                Gaussian(np.array([t.target.mean[0], 6.0 + 4.0 * t.mode_id])[order],
                         np.array([[t.target.cov[0, 0], 0.5], [0.5, 9.0]])[np.ix_(order, order)]),
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
        z = t.target.mean + rng.normal(0.0, 0.5, targets.obs_dim)
        b = relax_mode_weights(update(b, z), 0.02)
    return b


class TestProbeGrid:
    """The batched probe grid equals one ``update`` and one ``entropy`` per
    draw and grid point, bit for bit."""

    @pytest.mark.parametrize("kind", [LANE_MERGE, INTERSECTION])
    @pytest.mark.parametrize("features", [(VELOCITY,), (VELOCITY, GAP), (GAP, VELOCITY)])
    def test_matches_loop_oracle(self, kind, features, monkeypatch):
        rows = []

        def recording(b, zs, h_prior, pi_weighted_modes=False):
            rows.append(len(zs))
            return posterior_entropies(b, zs, h_prior, pi_weighted_modes)

        monkeypatch.setattr("probeplan.planner.posterior_entropies", recording)
        targets = default_targets(kind)
        if len(features) == 2:
            targets = with_gap_targets(targets, features)
        cfg = PlannerConfig(obs_samples=8, features=features, ref_speed=DEFAULT_REF_SPEED[kind])
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
        if features == (VELOCITY,):
            # Fully flat grids occur, and score one block of draws.
            assert flat > 0

    @pytest.mark.parametrize("kind", [LANE_MERGE, INTERSECTION])
    @pytest.mark.parametrize("features", [(VELOCITY,), (VELOCITY, GAP), (GAP, VELOCITY)])
    def test_observation_means_of_every_ego_in_one_call(self, kind, features):
        # Row e of the (E, M, d) block is ego e's observation per mode, bit
        # for bit the one-mode oracle.
        targets = default_targets(kind)
        if len(features) == 2:
            targets = with_gap_targets(targets, features)
        cfg = PlannerConfig(features=features, ref_speed=DEFAULT_REF_SPEED[kind])
        rng = np.random.default_rng(18)
        for _ in range(8):
            state = advanced_state(kind, rng)
            egos, human, response_time = planner_mod.probe_projection(
                state, np.linspace(*cfg.accel_bounds, cfg.probe_grid_size), cfg)
            got = planner_mod.predicted_observation_mean(
                egos, human, state.geometry, targets.targets, cfg, response_time)
            assert got.shape == (len(egos), len(targets), len(features))
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
        """Chain ``c``'s scalar objective: a row (objective, first accel)."""
        horizon = cfg.horizon_steps
        goal = [
            # An optimum beyond the upper bound: clipped trials repeat points.
            np.linspace(2.0, 5.0, horizon),
            # A flat objective: the chain stops at its first probe round.
            None,
            np.full(horizon, -0.7),
            np.linspace(-2.5, 1.0, horizon),
        ][c]

        def f(accel):
            if goal is None:
                return 1.0, float(accel[0])
            return float(np.sum(np.abs(accel - goal) ** 1.5)), float(accel[0])
        return f

    def run(self, cfg):
        """``_descend`` over the four chains of ``objective``; returns the
        start sets, its result and every ``evaluate`` call it made."""
        calls = []

        def evaluate(accels, chains, seqs, bar):
            pairs = accels[seqs]
            rows = np.array([self.objective(cfg, c)(a) for a, c in zip(pairs, chains.tolist())])
            calls.append((pairs, chains.copy(), rows, accels.copy(), seqs.copy(), bar))
            return rows

        rng = np.random.default_rng(3)
        horizon = cfg.horizon_steps
        warms = [None, np.full(horizon, 1.0), None, rng.uniform(-3.0, 3.0, horizon)]
        starts = _start_candidates(cfg, _shared_starts(cfg), warms, bursts=True)
        return starts, _descend(evaluate, starts, cfg), calls

    def test_chains_match_one_chain_loop(self):
        cfg = PlannerConfig(solver_iters=8)
        starts, got, calls = self.run(cfg)
        cands, index = starts
        assert len(got) == len(index)
        phases = []
        for c, (mine, (accel, row, history, rows)) in enumerate(zip(index, got)):
            phases.append([])
            objective = self.objective(cfg, c)
            want_accel, want_row, want_history = descend_one(objective, cands[mine], cfg, phases[c])
            assert np.array_equal(accel, want_accel) and row.tolist() == list(want_row)
            assert np.array_equal(history, [a for a, _ in want_history])
            assert rows.tolist() == [list(r) for _, r in want_history]
        # The chains stop in different rounds.
        assert len({p[-1] for p in phases}) >= 3

        def phase_of(p):
            # The starts (-1, 0), iteration i's probes (i, 0) or its line
            # search (i, 1).
            return (-1, 0) if p == (-1,) else (p[0], min(p[1], 1))

        # Each call holds one phase, and the phases follow each other in
        # the order of the loop. A chain's pairs in a call are its next
        # history entries, then, in a line-search call, the trials after
        # its first win, which are dropped.
        taken = [0] * len(index)
        best = [math.inf] * len(index)  # each chain's current objective
        called = []
        dropped = 0
        for accels, cs, rs, seq_rows, seqs, bar in calls:
            held = {phase_of(phases[c][taken[c]]) for c in set(cs.tolist())}
            assert len(held) == 1
            (phase,) = held
            called.append(phase)
            # Every passed sequence serves some pair. The start round passes
            # each shared start once and one warm row per warm chain; the
            # other rounds pass one sequence per pair, in pair order.
            assert sorted(set(seqs.tolist())) == list(range(len(seq_rows)))
            if phase == (-1, 0):
                head, tail = _shared_starts(cfg)
                assert len(seq_rows) == len(head) + len(tail) + 2 < len(cs)
            else:
                assert np.array_equal(seqs, np.arange(len(cs)))
            search = phase[1] == 1 and phase[0] >= 0
            # The bar: none in the start round, none below inf in a probe
            # round, and each pair's win threshold in a line-search round.
            if phase == (-1, 0):
                assert bar is None
            elif search:
                assert np.array_equal(bar, [best[c] - 1e-12 for c in cs.tolist()])
            else:
                assert np.all(np.asarray(bar) == math.inf)
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
                assert np.array_equal(accels[kept], got[c][2][span])
                assert np.array_equal(rs[kept], got[c][3][span])
                taken[c] += n_kept
                if phase == (-1, 0):
                    best[c] = float(np.min(rs[kept, 0]))
                elif search:
                    wins = rs[kept, 0] < best[c] - 1e-12
                    # Only the last kept trial may win, and a dropped trial
                    # follows a win.
                    assert not wins[:-1].any()
                    assert wins[-1] or not extra.size
                    if wins[-1]:
                        best[c] = float(rs[kept[-1], 0])
                    dropped += extra.size
                else:
                    assert not extra.size
        assert called == sorted(set(called))
        assert taken == [len(p) for p in phases]
        assert dropped > 0

    @pytest.mark.parametrize("iters, want", [(0, 1), (1, 3), (4, 9), (8, 11)])
    def test_at_most_two_rounds_per_iteration(self, iters, want):
        _, _, calls = self.run(PlannerConfig(solver_iters=iters))
        # Some chain is live in each of the first five iterations, and
        # none after them.
        assert len(calls) == want <= 1 + 2 * iters

    @pytest.mark.parametrize("planner_cls", [ActivePlanner, PassivePlanner, ConservativePlanner])
    @pytest.mark.parametrize("kind", [LANE_MERGE, INTERSECTION])
    def test_plan_step_makes_at_most_two_rounds_per_iteration(
        self, kind, planner_cls, monkeypatch
    ):
        rounds = []

        def counted(evaluate, starts, cfg):
            def counting(accels, chains, seqs, bar):
                rounds[-1] += 1
                return evaluate(accels, chains, seqs, bar)
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
        assert all(3 <= n <= 1 + 2 * cfg.solver_iters for n in rounds)


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
        for m, d in zip(ctx.solve, solved):
            x, y, speeds = simulate_ego_path(state.ego, d.nu[:, 0], ctx.headings, cfg.dt)
            exact = cvar(real_costs(x, y, speeds, ctx.human_paths[m], ctx.discount_weights,
                                    cfg.ref_speed), cfg.cvar_level)
            assert math.isfinite(d.cvar_solution) and d.cvar_solution == exact
            assert d.margin == cfg.risk_cap - exact


class LazyRounds:
    """Wraps ``planner._descend``: records every round of every descent and
    checks that each row a decision reads is scored. The start round's pick
    is each chain's least objective, and a chain with no certified start
    leaves no start unscored. A probe round leaves no row unscored. A
    line-search trial below its win threshold, and each chain's final row,
    are scored. ``pending`` lists, per descent, the chains whose final row
    breaks the cap with unscored rows in their history."""

    def __init__(self):
        self.rounds, self.pending = [], []

    def __call__(self, evaluate, starts, cfg):
        rounds = []

        def recorded(accels, chains, seqs, bar):
            rows = evaluate(accels, chains, seqs, bar)
            rounds.append((chains.copy(), rows.copy(), bar))
            return rows

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
            elif np.all(np.asarray(bar) == math.inf):
                assert not unscored.any()
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

    @pytest.mark.parametrize("kind, cap, seed", [(LANE_MERGE, 30.0, 3), (INTERSECTION, 10.0, 0)])
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
        (INTERSECTION, 6, 1e-154),  # line searches do
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
        cfg = PlannerConfig(solver_segments=segments)
        rng = np.random.default_rng(4)
        warms = [None, rng.uniform(-4.0, 4.0, cfg.horizon_steps), None,
                 rng.uniform(-1.0, 1.0, cfg.horizon_steps)]
        cands, index = _start_candidates(cfg, _shared_starts(cfg), warms, bursts)
        assert len(index) == len(warms)
        for mine, warm in zip(index, warms):
            want = start_candidates_one(cfg, warm, bursts)
            assert len(mine) == len(want)
            assert all(a.tobytes() == w.tobytes() for a, w in zip(cands[mine], want))
        # Each shared start once, and one row per warm start.
        n_warm = sum(w is not None for w in warms)
        assert len(cands) == len(want) - (warms[-1] is not None) + n_warm

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
            cands, index = _start_candidates(cfg, _shared_starts(cfg), warms, bursts=True)
            for mine, warm in zip(index, warms):
                want = start_candidates_one(cfg, warm, True)
                assert all(a.tobytes() == w.tobytes() for a, w in zip(cands[mine], want))
        assert short >= 50

    def test_warm_start_means_follow_the_segments(self):
        # 30 steps in segments of 8, 8, 8 and 6 steps. A warm plan constant
        # on each segment gives back its segment values.
        cfg = PlannerConfig(solver_segments=4)
        values = np.array([1.0, -1.0, 2.0, 0.5])
        warm = np.repeat(values, 8)[:30]
        cands, (mine,) = _start_candidates(cfg, _shared_starts(cfg), [warm], bursts=False)
        assert np.array_equal(cands[mine][-1], values)


class TestRunConstants:
    """What a run does not change is built once: the shared starts are
    simulated once per start round, and the steering setup once per
    (solved mode, steering mode) of a target set."""

    def test_start_round_simulates_each_start_once(self, monkeypatch):
        cfg = PlannerConfig(ref_speed=DEFAULT_REF_SPEED[LANE_MERGE])
        state = init_scenario(LANE_MERGE, np.random.default_rng(2))
        b = uniform_belief(default_targets(LANE_MERGE))
        planner = ActivePlanner(cfg)
        planner.plan_step(state, b, 5)  # every mode solved: each gets a warm start
        simulated, rounds = [], []
        real_simulate, real_descend = planner_mod.simulate_ego_path, planner_mod._descend

        def counted_simulate(ego, accel, *args):
            simulated.append(len(np.atleast_2d(accel)))
            return real_simulate(ego, accel, *args)

        def counted_descend(evaluate, starts, cfg):
            def counting(accels, chains, seqs, bar):
                before = len(simulated)
                rows = evaluate(accels, chains, seqs, bar)
                rounds.append((simulated[before:], len(chains)))
                return rows
            return real_descend(counting, starts, cfg)

        monkeypatch.setattr(planner_mod, "simulate_ego_path", counted_simulate)
        monkeypatch.setattr(planner_mod, "_descend", counted_descend)
        _, diag = planner.plan_step(state, b, 6)
        head, tail = _shared_starts(cfg)
        n_solved = sum(m.nu is not None for m in diag.modes)
        # Nine warm chains, and the probe grid ran, so the bursts join.
        assert n_solved == 9 and not math.isnan(diag.expected_entropy_after)
        (start_rows,), pairs = rounds[0]
        assert pairs == n_solved * (len(head) + 1 + len(tail))
        assert start_rows <= len(head) + len(tail) + n_solved
        # The later rounds simulate one sequence per pair.
        assert all(rows == [n] for rows, n in rounds[1:])

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
    posterior entropy interpolated on the probe grid."""

    @staticmethod
    def context(entropy, weight):
        ctx = ActivePlanner(PlannerConfig(**FAST))._begin_step(
            merge_state(), uniform_belief(default_targets(LANE_MERGE)), 3
        )
        ctx.probe_grid = np.array([-3.0, 3.0])
        ctx.probe_entropy = np.array([entropy, entropy])
        ctx.entropy_weight = weight
        return ctx

    def test_zero_entropy(self):
        assert np.array_equal(self.context(0.0, 0.7).probe_terms(np.array([-1.0, 2.0])), [0, 0])

    def test_disabled(self):
        assert np.array_equal(self.context(4 * math.log(3), 0.0).probe_terms(np.zeros(2)), [0, 0])

    def test_scaling(self):
        got = self.context(4 * math.log(3), 0.5).probe_terms(np.array([0.5]))
        assert got[0] == pytest.approx(2 * math.log(3), abs=1e-12)


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
