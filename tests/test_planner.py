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
from probeplan import planner as planner_mod
from probeplan.planner import (
    ActivePlanner,
    PlannerConfig,
    _descend,
    _start_candidates,
    lane_guidance,
)
from probeplan.risk import cvar, draw_human_paths, ego_headings, path_costs, simulate_ego_path
from probeplan.scenario import DEFAULT_REF_SPEED, default_targets, init_scenario
from probeplan.seeding import STREAM_MODE_ROLLOUT, rng_from_keys
from probeplan.world import INTERSECTION, LANE_MERGE, ScenarioState, lane_merge_geometry

from oracles import (
    blend_controls,
    descend_without_memo,
    expected_posterior_entropy,
    influence_objective,
    plan_step_per_mode,
    predicted_interaction_gaussian,
    probe_grid,
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
        ],
    )
    def test_bad_value_rejected_naming_field(self, field, value):
        with pytest.raises(InvalidInputError, match=field):
            PlannerConfig(**{field: value})

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


def with_gap_targets(targets):
    """``targets`` with a second, gap dimension on every observation target."""
    return ModeTargetSet(
        [
            ModeTarget(
                t.intent_id, t.mode_id,
                Gaussian(np.array([t.target.mean[0], 6.0 + 4.0 * t.mode_id]),
                         np.array([[t.target.cov[0, 0], 0.5], [0.5, 9.0]])),
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
    @pytest.mark.parametrize("features", [(VELOCITY,), (VELOCITY, GAP)])
    def test_matches_loop_oracle(self, kind, features, monkeypatch):
        rows = []

        def recording(b, zs, h_prior, pi_weighted_modes=False):
            rows.append(len(zs))
            return posterior_entropies(b, zs, h_prior, pi_weighted_modes)

        monkeypatch.setattr("probeplan.planner.posterior_entropies", recording)
        targets = default_targets(kind)
        if len(features) == 2:
            targets = with_gap_targets(targets)
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

    def test_off_or_certain_builds_nothing(self, monkeypatch):
        monkeypatch.setattr("probeplan.planner.posterior_entropies", None)
        b = uniform_belief(default_targets(LANE_MERGE))
        assert PassivePlanner(PlannerConfig())._build_probe_grid(merge_state(), b, 1) == (
            None, None)
        certain = single_mode_belief()
        assert ActivePlanner(PlannerConfig())._build_probe_grid(merge_state(), certain, 1) == (
            None, None)


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


def batched(objective, calls=None):
    """A lockstep ``evaluate`` scoring each (sequence, chain) pair with
    ``objective(accel)``; ``calls`` counts the pairs it scores."""

    def evaluate(accels, chains):
        out = []
        for accel, cs in zip(accels, chains):
            for c in cs:
                if calls is not None:
                    calls[c, accel.tobytes()] += 1
                out.append(objective(accel))
        return out

    return evaluate


class TestDescendMemo:
    """The solver loop evaluates each distinct sequence once per chain and
    otherwise scores exactly as the loop that evaluates every candidate."""

    def test_one_evaluation_per_distinct_sequence(self):
        cfg = PlannerConfig(solver_iters=8)
        calls = Counter()
        # An optimum beyond the upper bound: clipped trials repeat points.
        goal = np.linspace(2.0, 5.0, cfg.horizon_steps)

        def objective(accel):
            return float(np.sum((accel - goal) ** 2)), float(accel[0])

        starts = _start_candidates(cfg, [None, np.full(cfg.horizon_steps, 1.0)], bursts=True)
        chains = _descend(batched(objective, calls), starts, cfg)
        assert set(calls.values()) == {1}
        for c, (candidates, (accel, best, history)) in enumerate(zip(starts, chains)):
            want_accel, want_best, want_history = descend_without_memo(
                objective, candidates, cfg)
            distinct = {a.tobytes() for a, _ in history}
            assert {key for chain, key in calls if chain == c} == distinct
            assert len(distinct) < len(history)
            assert np.array_equal(accel, want_accel) and best == want_best
            assert len(history) == len(want_history)
            for (a, r), (want_a, want_r) in zip(history, want_history):
                assert np.array_equal(a, want_a) and r == want_r

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
            want_u, want_diag = plan_step_per_mode(
                reference, state, b, 7 + i, descend=descend_without_memo)
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

    @pytest.mark.parametrize("planner_cls", [ActivePlanner, PassivePlanner, ConservativePlanner])
    def test_one_evaluate_call_per_round(self, planner_cls, monkeypatch):
        """Each round, every live chain asks once for the sequences it has
        not scored, and one ``evaluate`` call scores exactly those (chain,
        sequence) pairs. No pair is scored twice, and every distinct
        sequence of a chain's history is scored."""
        events = []
        real_chain, real_descend = planner_mod._chain, planner_mod._descend

        def logged_chain(candidates, cfg):
            c = logged_chain.count
            logged_chain.count += 1
            gen = real_chain(candidates, cfg)
            reply = None
            while True:
                try:
                    accels = gen.send(reply)
                except StopIteration as stop:
                    return stop.value
                events.append(("ask", [(c, a.tobytes()) for a in accels]))
                reply = yield accels

        def logged_descend(evaluate, starts, cfg):
            def counted(accels, chains):
                events.append(("call", [(c, a.tobytes()) for a, cs in zip(accels, chains)
                                        for c in cs]))
                return evaluate(accels, chains)

            logged_chain.count = 0
            events.clear()
            out = real_descend(counted, starts, cfg)
            steps.append((list(events), out))
            return out

        steps = []
        monkeypatch.setattr(planner_mod, "_chain", logged_chain)
        monkeypatch.setattr(planner_mod, "_descend", logged_descend)
        monkeypatch.setattr("probeplan.baselines._descend", logged_descend)
        planner = planner_cls(PlannerConfig(**{**FAST, "solver_iters": 8}))
        for i, (state, b) in enumerate(self.cases(LANE_MERGE, 3)):
            planner.plan_step(state, b, 50 + i)
        assert len(steps) == 3
        for log, chains in steps:
            scored, asked, askers, calls = [], [], [], 0
            for kind, pairs in log:
                if kind == "ask":
                    askers.append(pairs[0][0])
                    asked += pairs
                    continue
                # Live chains ask in ascending order, each once per round.
                assert askers == sorted(set(askers))
                assert pairs and len(pairs) == len(set(pairs)) and set(pairs) == set(asked)
                scored += pairs
                asked, askers = [], []
                calls += 1
            assert not asked and calls > 1
            assert len(scored) == len(set(scored))
            assert set(scored) == {(c, a.tobytes()) for c, (_, _, history) in enumerate(chains)
                                   for a, _ in history}


class TestCertifiedBelowCap:
    """Pairs whose cost bound certifies them below the cap skip the exact
    cost block, and every reported CVaR is still exact."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_most_pairs_skip_the_cost_block(self, seed, monkeypatch):
        rows = Counter()
        real_costs, real_bounds = planner_mod.path_costs, planner_mod.path_cost_bounds

        def counted_costs(x, y, speeds, human, *args):
            rows["costs"] += len(human) if human.ndim == 4 else 1
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


class TestStartCandidates:
    @pytest.mark.parametrize("bursts", [False, True])
    @pytest.mark.parametrize("segments", [1, 3])
    def test_matches_one_list_per_chain(self, bursts, segments):
        cfg = PlannerConfig(solver_segments=segments)
        rng = np.random.default_rng(4)
        warms = [None, rng.uniform(-4.0, 4.0, cfg.horizon_steps), None,
                 rng.uniform(-1.0, 1.0, cfg.horizon_steps)]
        got = _start_candidates(cfg, warms, bursts)
        assert len(got) == len(warms)
        for cands, warm in zip(got, warms):
            want = start_candidates_one(cfg, warm, bursts)
            assert len(cands) == len(want)
            assert all(a.tobytes() == w.tobytes() for a, w in zip(cands, want))


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
    headings = ego_headings(state.ego, lane_guidance(state, cfg), cfg.dt)
    x, y, speeds = simulate_ego_path(state.ego, np.zeros(horizon), headings, cfg.dt)
    weights = cfg.discount ** np.arange(horizon)
    out = []
    for t in targets.targets:
        rng = rng_from_keys(key, STREAM_MODE_ROLLOUT, t.intent_id, t.mode_id)
        paths = draw_human_paths(state.human, t, cfg.rollout_count, horizon, cfg.dt, rng)
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
        yaw = lane_guidance(state, cfg)
        assert abs(yaw[0]) < 1e-9
        # Past the merge point with a clear gap: steer down toward the lane.
        state2 = merge_state(ego=(5.0, 3.5, 9.0), human=(-60.0, 0.0, 10.0))
        yaw2 = lane_guidance(state2, cfg)
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
