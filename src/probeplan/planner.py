"""Ego controller: entropy-driven probing, KL influence toward per-mode
interaction targets, CVaR-capped per-mode solves, and joint-weight
blending, applied in a receding-horizon loop (only the first control of
each solve is executed).

Solver notes. Every planner runs the same step: ``ActivePlanner._begin_step``
builds the shared setup (rng key, lane guidance with the ego headings of
its roll, probe grid, joint weights, the modes to solve, every mode's human
paths as x and y planes and their boxes from one ``risk.draw_human_paths``
call, reference-plan CVaR per mode), all on one mode axis ``m`` in target
order. The probe grid is one batched ``belief.posterior_entropies`` pass
over the distinct predicted observation sets, which one
``predicted_observation_mean`` call gives for every projected grid point.
``_descend`` is the one solver loop. It runs one descent chain per solve
(multi-start over constant-acceleration candidates, then projected
finite-difference descent on a piecewise-constant acceleration
parameterization of ``solver_segments`` windows of ``segment_steps``
steps): one per mode for the active and passive planners, one for the
conservative planner's omega-weighted CVaR sum. The chains run in
phase-aligned rounds: one start round, then per iteration one probe round
over the live chains and one line-search round that holds all three trials
``solver_step * 0.5^k`` (k = 0, 1, 2) of every chain still live. A chain
takes its first winning trial; the trials after it are scored and dropped,
so each chain's history, pick and ``ModeDiag.evals`` are those of a search
that tries one step after another. A round scores its (sequence, chain)
pairs in one batch: one ego path, terminal state and probe term per
distinct sequence (the start round holds each shared start once), then per
pair a cost bound, one ``path_costs`` block per mode over the pairs left
open (the conservative planner: one per sequence over its solved modes),
one ``cvar`` and one stacked triangular solve for the KL influence term.
A fixed lane-guidance law, shared by every planner, steers the lateral
channel, so planner comparisons isolate the longitudinal machinery. Every
Monte-Carlo quantity of a solve reuses fixed random streams (common random
numbers), so a step is bit-reproducible from its key.

In a mode solve the CVaR enters only through the cap penalty
``max(0, CVaR - risk_cap)^2``, so an objective is at least its bound
``j_probe + j_infl``. A pair gets no cost block when its
``risk.path_cost_bounds`` against the mode's ``risk.sample_boxes`` is at
most ``risk_cap * (1 - CERTIFY_MARGIN)``: CVaR is at most the largest sample
cost (Rockafellar & Uryasev 2000), so it holds ``-inf``, whose penalty is
0.0, as the exact value's, and stays feasible. Nor when no decision reads
its CVaR, as its bound is above its chain's best certified start in the
start round, or above the win threshold in a line search (a probe round's
every objective enters the gradient): it holds ``_UNSCORED`` and its bound
as objective. A chain whose pick breaks the cap scores its unscored history
in one batch before its fallback reads it, and the picks holding ``-inf``
are scored in one batch, so ``ModeDiag.cvar_solution`` and ``margin`` are
exact. The conservative planner minimizes the omega-weighted CVaR sum, so
it scores every candidate exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from .belief import (
    HierarchicalBelief,
    ModeTarget,
    ModeTargetSet,
    entropy,
    joint_weights,
    max_entropy,
    posterior_entropies,
    update,  # noqa: F401 -- the benchmark wraps probeplan.planner.update by name
)
from .dynamics import VehicleState, _wrap_angle
from .errors import InvalidInputError
from .gaussmath import Gaussian, kl_divergence
from .human import GAP, VELOCITY, conflict_level
from .risk import (
    CERTIFY_MARGIN,
    cvar,
    draw_human_paths,
    path_cost_bounds,
    path_costs,
    simulate_ego_path,
)
from .seeding import (
    STREAM_MODE_ROLLOUT,
    STREAM_PROBE,
    derive_key,
    rng_from_keys,
)
from .world import (
    LANE_MERGE,
    ScenarioGeometry,
    ScenarioState,
    ego_progress,
    human_progress,
)

# Initial ego state uncertainty (position, velocity) for the predicted
# interaction distribution; grows over the horizon per the process noise.
INIT_POS_STD = 0.3
INIT_VEL_STD = 0.2

_FD_STEP = 0.05  # finite-difference probe, m/s^2 in segment space

# The probe projection holds the first control this many steps (see
# probe_projection). The probing estimators weigh each belief row's entropy
# by its intent mass: probing should chase intent information, not the
# mode-weight noise of intents the belief already rules out.
PROBE_LOOKAHEAD_STEPS = 20
PROBE_PI_WEIGHTED = True

_POSITIVE = ("positive and finite", lambda v: 0.0 < v < math.inf)
_NONNEGATIVE = ("nonnegative and finite", lambda v: 0.0 <= v < math.inf)
_UNIT = ("in (0, 1]", lambda v: 0.0 < v <= 1.0)

# Allowed values of every float field of PlannerConfig. A NaN fails every
# rule. An infinite risk cap means no cap.
_FLOAT_RULES = {
    "dt": _POSITIVE,
    "entropy_weight": _NONNEGATIVE,
    "cvar_level": _UNIT,
    "risk_cap": ("nonnegative (inf for no cap)", lambda v: v >= 0.0),
    "mode_activation_eps": _POSITIVE,
    "discount": _UNIT,
    "response_gain": _POSITIVE,
    "accel_noise_var": _NONNEGATIVE,
    "ref_speed": _POSITIVE,
    "obs_noise_std": _NONNEGATIVE,
    "solver_step": _POSITIVE,
    "penalty_weight": _NONNEGATIVE,
}

# Least allowed value of every integer field of PlannerConfig.
_INT_LEAST = {
    "horizon_steps": 1,
    "rollout_count": 1,
    "obs_samples": 1,
    "solver_iters": 0,
    "solver_segments": 1,
    "solver_inits": 2,
    "probe_grid_size": 2,
}


def _is_real(value) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class PlannerConfig:
    """All planner tunables. Defaults follow the best-performing parameter
    set of the evaluation study (S=100, alpha=0.05, beta=5, lambda=0.5,
    gamma=0.95, eps=1e-5, 30 steps at 0.1 s)."""

    horizon_steps: int = 30
    dt: float = 0.1
    entropy_weight: float = 0.5
    cvar_level: float = 0.05
    rollout_count: int = 100
    risk_cap: float = 60.0
    mode_activation_eps: float = 1e-5
    accel_bounds: tuple[float, float] = (-3.0, 3.0)
    yaw_rate_bounds: tuple[float, float] = (-0.6, 0.6)
    discount: float = 0.95
    response_gain: float = 5.0
    accel_noise_var: float = 0.05
    obs_samples: int = 20
    ref_speed: float = 9.5
    obs_noise_std: float = 0.3
    features: tuple[str, ...] = (VELOCITY,)
    solver_iters: int = 6
    solver_step: float = 0.6
    solver_segments: int = 3
    solver_inits: int = 5
    penalty_weight: float = 100.0
    probe_grid_size: int = 7

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            # Annotations are strings under ``from __future__ import annotations``.
            if f.type == "int" and not _is_integer(value):
                raise InvalidInputError(f"{f.name} must be an integer, got {value!r}")
            if f.type == "int" and value < _INT_LEAST[f.name]:
                raise InvalidInputError(
                    f"{f.name} must be >= {_INT_LEAST[f.name]}, got {value!r}"
                )
            if f.type == "float":
                want, ok = _FLOAT_RULES[f.name]
                if not (_is_real(value) and ok(value)):
                    raise InvalidInputError(f"{f.name} must be {want}, got {value!r}")
        for name in ("accel_bounds", "yaw_rate_bounds"):
            bounds = getattr(self, name)
            if not (
                isinstance(bounds, (tuple, list))
                and len(bounds) == 2
                and all(_is_real(v) and math.isfinite(v) for v in bounds)
                and bounds[0] < bounds[1]
            ):
                raise InvalidInputError(
                    f"{name} must be a finite (min, max) pair with min < max, got {bounds!r}"
                )
        if self.segment_steps * (self.solver_segments - 1) >= self.horizon_steps:
            raise InvalidInputError(
                f"solver_segments={self.solver_segments} leaves a segment empty: segments of "
                f"{self.segment_steps} steps fill horizon_steps={self.horizon_steps} in "
                f"{-(-self.horizon_steps // self.segment_steps)}"
            )
        features = self.features
        if not (
            isinstance(features, (tuple, list))
            and all(isinstance(f, str) and f in (VELOCITY, GAP) for f in features)
            and 0 < len(set(features)) == len(features)
        ):
            raise InvalidInputError(
                f"features must be a non-empty subset of {(VELOCITY, GAP)}, got {features!r}"
            )

    @property
    def segment_steps(self) -> int:
        """Steps per solver segment, ceil(T / P); only the last may be shorter."""
        return -(-self.horizon_steps // self.solver_segments)

    @property
    def u_min(self) -> np.ndarray:
        return np.array([self.accel_bounds[0], self.yaw_rate_bounds[0]])

    @property
    def u_max(self) -> np.ndarray:
        return np.array([self.accel_bounds[1], self.yaw_rate_bounds[1]])


@dataclass(frozen=True)
class ModeDiag:
    """Per-mode planning record (one entry per mode target, active or not)."""

    intent_id: int
    mode_id: int
    omega: float
    active: bool
    cvar_pre: float
    cvar_solution: float = math.nan
    margin: float = math.nan
    infeasible: bool = False
    objective: float = math.nan
    j_probe: float = math.nan
    j_influence: float = math.nan
    # Candidates a one-at-a-time search scores, repeats too; not the
    # line-search trials scored after a chain's first win and dropped.
    evals: int = 0
    nu: np.ndarray | None = None


@dataclass(frozen=True)
class PlanDiagnostics:
    """Everything one receding-horizon step decided and why."""

    entropy_before: float
    expected_entropy_after: float
    modes: tuple[ModeDiag, ...]
    u_total: np.ndarray
    u_first: np.ndarray
    j_probe: float
    j_influence: float
    solver_evals: int
    blend_fallback: bool
    infeasible_any: bool


# ---------------------------------------------------------------------------
# Lane guidance (lateral channel)


def lane_guidance(state: ScenarioState, cfg: PlannerConfig) -> tuple[np.ndarray, np.ndarray]:
    """Yaw-rate sequence (T,) steering the ego onto its target lane, and the
    ego headings (2, T) it implies: column t holds the cosine and sine of
    the heading during step t, before that step's yaw. The headings ignore
    acceleration, so one step's candidate plans all share them.

    Rolled out against a constant-velocity human, with the coasting ego
    stepped as ``dynamics.step_vehicle`` steps it; the merge onto the main
    lane is only commanded once past the merge point (x > 0) with an
    adequate longitudinal gap (or once the lane change is committed).
    """
    geometry, dt = state.geometry, cfg.dt
    lo, hi = cfg.yaw_rate_bounds
    rows = []
    # Coasting holds the speed; step_vehicle's clamp only maps -0.0 to 0.0.
    x, y, v, theta = state.ego.x, state.ego.y, state.ego.v, state.ego.theta
    human_x = state.human.x
    human_vx = state.human.v * math.cos(state.human.theta)
    committed = abs(y - geometry.ramp_y) > 1.0
    for _ in range(cfg.horizon_steps):
        if geometry.kind != LANE_MERGE:
            y_des = geometry.target_lane_y
        elif x > 0.0 and (abs(x - human_x) >= geometry.merge_gap_min or committed):
            y_des = geometry.target_lane_y
            committed = committed or abs(y - geometry.ramp_y) > 1.0
        else:
            y_des = geometry.ramp_y
        heading_des = math.atan2(1.2 * (y_des - y), max(v, 2.0))
        heading_des = min(0.35, max(-0.35, heading_des))
        rate = min(hi, max(lo, 4.0 * (heading_des - theta)))
        cos_t, sin_t = math.cos(theta), math.sin(theta)
        rows.append((rate, cos_t, sin_t))
        x += v * cos_t * dt
        y += v * sin_t * dt
        theta = _wrap_angle(theta + rate * dt)
        human_x += human_vx * dt
    yaw, cos_h, sin_h = zip(*rows)
    return np.array(yaw), np.array((cos_h, sin_h))


# ---------------------------------------------------------------------------
# Predicted interaction distribution and influence objective


def _linear_terminal_state(
    s0: float, v0: float, accel: np.ndarray, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Terminal (progress, speed) of the double-integrator planning model
    under an acceleration sequence (T,), or per row of sequences (K, T)."""
    v_path = v0 + dt * accel.cumsum(axis=-1)
    v_prev = np.empty_like(v_path)
    v_prev[..., 0] = v0
    v_prev[..., 1:] = v_path[..., :-1]
    s_t = s0 + dt * v_prev.sum(axis=-1) + 0.5 * dt * dt * accel.sum(axis=-1)
    return s_t, v_path[..., -1]


def _mode_human_advance(
    human: VehicleState,
    mode: ModeTarget,
    conflict: float,
    cfg: PlannerConfig,
) -> float:
    """Predicted human progress gain over the horizon if it follows the
    mode: speed relaxes toward the mode's velocity mean at a rate scaled
    by the current conflict level."""
    horizon = cfg.horizon_steps * cfg.dt
    mu = max(0.0, float(mode.target.mean[0]))
    rate = cfg.response_gain * conflict
    if rate < 1e-9:
        return human.v * horizon
    return mu * horizon + (human.v - mu) * (1.0 - math.exp(-rate * horizon)) / rate


def ego_horizon_covariance(cfg: PlannerConfig) -> np.ndarray:
    """Ego (position, velocity) covariance at the horizon end under the
    planning model, a double integrator (exact zero-order hold) driven by
    acceleration noise of variance ``accel_noise_var``; independent of the
    control sequence."""
    dt = cfg.dt
    a = np.array([[1.0, dt], [0.0, 1.0]])
    b = np.array([[0.5 * dt * dt], [dt]])
    bwb = b @ np.array([[cfg.accel_noise_var]]) @ b.T
    sigma = np.diag([INIT_POS_STD**2, INIT_VEL_STD**2])
    for _ in range(cfg.horizon_steps):
        out = a @ sigma @ a.T + bwb
        sigma = 0.5 * (out + out.T)
    return sigma


# ---------------------------------------------------------------------------
# Observation prediction and expected posterior entropy


def probe_projection(
    state: ScenarioState, first_accels: Sequence[float], cfg: PlannerConfig
) -> tuple[list[VehicleState], VehicleState, float]:
    """Project the encounter forward with each first acceleration held fixed.

    A single 0.1 s step barely moves the conflict geometry, which would
    leave the probing objective with a vanishing gradient; holding the
    first planned control for ``PROBE_LOOKAHEAD_STEPS`` exposes the
    response the control actually elicits. The human cruises during the
    projection (its reaction enters through the response-time relaxation),
    so one projected human serves every acceleration. Returns the projected
    ego per acceleration, the projected human and the projection time.

    No vehicle yaws, so each heading holds: one ``risk.simulate_ego_path``
    call rolls every ego along its constant heading, and one the human.
    """
    accel = np.array([float(a) for a in first_accels])
    if not np.isfinite(accel).all():
        raise InvalidInputError("non-finite control input")
    steps = PROBE_LOOKAHEAD_STEPS
    # Adding 0.0 maps a -0.0 heading to the 0.0 that step_vehicle holds from
    # its second step on; after two or more steps the bits agree either way.
    theta = [state.ego.theta + 0.0, state.human.theta + 0.0]
    ego_h, human_h = (np.repeat([[math.cos(t)], [math.sin(t)]], steps, axis=1) for t in theta)
    ends = [p[..., -1].tolist() for p in simulate_ego_path(
        state.ego, accel[:, None].repeat(steps, axis=1), ego_h, cfg.dt)]
    egos = [VehicleState(x, y, v, theta[0]) for x, y, v in zip(*ends)]
    x, y, v = (p[-1].item() for p in simulate_ego_path(state.human, np.zeros(steps), human_h, cfg.dt))
    return egos, VehicleState(x, y, v, theta[1]), steps * cfg.dt


def predicted_observation_mean(
    egos: Sequence[VehicleState],
    human_ref: VehicleState,
    geometry: ScenarioGeometry,
    modes: Sequence[ModeTarget],
    cfg: PlannerConfig,
    response_time: float,
) -> np.ndarray:
    """Expected observation (len(egos), len(modes), d) if the human follows
    each of ``modes``, against each (possibly projected) reference ego of
    ``egos``: its speed relaxes toward the mode's velocity mean at a rate
    set by the conflict level of that ego and ``human_ref``, integrated over
    ``response_time`` seconds. The rate is the same for every mode."""
    levels = [conflict_level(ego, human_ref, geometry, cfg.response_gain,
                             geometry.risk_threshold, geometry.nominal_human_speed) for ego in egos]
    relax = np.array([1.0 - math.exp(-cfg.response_gain * c * response_time) for c in levels])
    mu = np.array([mode.target.mean[0] for mode in modes], dtype=float)
    v_pred = human_ref.v + relax[:, None] * (mu - human_ref.v)
    columns = {VELOCITY: v_pred}
    if GAP in cfg.features:
        step = v_pred * cfg.dt
        dx = np.array([[e.x] for e in egos]) - (human_ref.x + step * geometry.human_dir[0])
        dy = np.array([[e.y] for e in egos]) - (human_ref.y + step * geometry.human_dir[1])
        # math.hypot, not np.hypot: the two differ in the last bit.
        gaps = map(math.hypot, dx.ravel().tolist(), dy.ravel().tolist())
        columns[GAP] = np.fromiter(gaps, float, dx.size).reshape(dx.shape)
    return np.stack([columns[name] for name in cfg.features], axis=-1)


def _observation_draws(
    b: HierarchicalBelief, n_obs: int, rng: np.random.Generator, cfg: PlannerConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Indices of ``n_obs`` modes drawn by joint weight, in target order,
    and observation noise (n_obs, d) for each."""
    omega = joint_weights(b)
    idxs = rng.choice(len(omega), size=n_obs, p=omega / omega.sum())
    noise = rng.normal(0.0, cfg.obs_noise_std, size=(n_obs, len(cfg.features)))
    return idxs, noise


# ---------------------------------------------------------------------------
# Per-mode constrained solve

_UNSCORED = -1.0  # an unscored row's CVaR (solver notes): costs, so CVaRs, are >= 0


@dataclass
class _StepContext:
    """Per-step setup shared by every planner and every mode solve.

    Every per-mode value lies on one mode axis ``m``, the mode's position
    in ``belief.targets.targets``: ``omega`` and ``active`` (M,),
    ``human_paths`` (M, 2, S, T) with each mode's x and y planes,
    ``human_boxes`` (M, 4, T) with their ``risk.sample_boxes``, and
    ``cvar_pre`` (M,). ``solve`` lists the modes a planner solves: the
    active ones, or the argmax-omega mode when none is active."""

    cfg: PlannerConfig
    state: ScenarioState
    belief: HierarchicalBelief
    guidance_yaw: np.ndarray
    headings: np.ndarray
    discount_weights: np.ndarray
    probe_grid: np.ndarray | None
    probe_entropy: np.ndarray | None
    entropy_weight: float
    omega: np.ndarray
    active: np.ndarray
    solve: list[int]
    human_paths: np.ndarray
    human_boxes: np.ndarray
    cvar_pre: np.ndarray

    def probe_terms(self, first_accels: np.ndarray) -> np.ndarray:
        """The probing term of each first acceleration (K): the entropy
        weight times the expected posterior entropy. Minimizing it drives
        the expected posterior uncertainty down."""
        if self.probe_grid is None:
            return np.zeros(len(first_accels))
        return self.entropy_weight * np.interp(first_accels, self.probe_grid, self.probe_entropy)

    def mode_diag(self, m: int, cvar_solution: float = math.nan, **solved) -> ModeDiag:
        """Mode ``m``'s record; ``solved`` carries the fields its solve set."""
        t = self.belief.targets.targets[m]
        return ModeDiag(
            intent_id=t.intent_id, mode_id=t.mode_id, omega=float(self.omega[m]),
            active=bool(self.active[m]), cvar_pre=float(self.cvar_pre[m]),
            cvar_solution=cvar_solution, margin=self.cfg.risk_cap - cvar_solution,
            **solved,
        )


def _shared_starts(cfg: PlannerConfig) -> tuple[np.ndarray, np.ndarray]:
    """The starts every chain shares, (N, P) and (B, P): coasting and evenly
    spaced constant accelerations, and the probe bursts."""
    (a_lo, a_hi), segments = cfg.accel_bounds, cfg.solver_segments
    consts = np.linspace(a_lo, a_hi, cfg.solver_inits)
    head = np.repeat(np.append(0.0, consts)[:, None], segments, axis=1)
    tail = np.empty((0, segments))
    if segments > 1:
        # Probe bursts: an extreme first segment with a steady tail. The
        # influence term cares mostly about the terminal state, so these
        # candidates let the probing term claim the first control cheaply.
        tail = np.repeat(np.repeat(consts, 2)[:, None], segments, axis=1)
        tail[:, 0] = np.tile([a_lo, a_hi], len(consts))
    return head, tail


def _start_candidates(
    cfg: PlannerConfig, shared: tuple[np.ndarray, np.ndarray],
    warm_accels: Sequence[np.ndarray | None], bursts: bool,
) -> tuple[np.ndarray, list[list[int]]]:
    """Multi-start segment vectors, one set per warm start: the ``shared``
    head, the warm start's segment-window means and optionally the shared
    bursts. Returns the distinct vectors (U, P) and the rows of each set."""
    seg_len, horizon = cfg.segment_steps, cfg.horizon_steps
    head, tail = shared[0], shared[1] if bursts else shared[1][:0]
    # Each window's mean as np.mean takes it: its sum over its length.
    warm = np.array([w for w in warm_accels if w is not None]).reshape(-1, horizon)
    windows = [warm[:, i:i + seg_len] for i in range(0, horizon, seg_len)]
    means = np.column_stack([w.sum(axis=1) / w.shape[1] for w in windows])
    cands = np.vstack((head, np.clip(means, *cfg.accel_bounds), tail))
    own = iter(range(len(head), len(cands) - len(tail)))
    return cands, [[*range(len(head)), *([next(own)] if w is not None else []),
                    *range(len(cands) - len(tail), len(cands))] for w in warm_accels]


def _descend(
    evaluate: Callable[..., np.ndarray],
    starts: tuple[np.ndarray, list[list[int]]],
    cfg: PlannerConfig,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The solver loop every planner shares: one descent chain per start
    set of ``starts`` (see ``_start_candidates``), in phase-aligned rounds
    (see the solver notes). A chain stops when its gradient vanishes or its
    three line-search trials fail. A round is one ``evaluate(accels, chains,
    seqs, bar)`` call: pair i is sequence ``accels[seqs[i]]`` (T,) of chain
    ``chains[i]``, one row (K, F) back per pair, objective first. The start
    round passes each distinct start once, the later rounds ``arange(K)``.
    No decision reads a row whose objective is above its ``bar``: the win
    threshold (K,) in a line search, ``inf`` in a probe round, ``None`` (only
    ``evaluate`` knows it) in the start round. Pairs come in ascending chain
    order, a line search's k-major (trial k = 0, 1, 2). Returns, per chain,
    its final sequence (T,) and row (F,), and every sequence (H, T) and row
    (H, F) it was scored on, in order, but the trials after its first win in
    a round: the history of a one-at-a-time search.
    """
    (a_lo, a_hi), (cands, index) = cfg.accel_bounds, starts
    n_seg, segment_of_step = cfg.solver_segments, np.arange(cfg.horizon_steps) // cfg.segment_steps
    o = 1 + n_seg + cfg.horizon_steps  # a pair's row: chain, theta, sequence, evaluate's row

    # Clips are np.minimum(np.maximum(...)), np.clip without its wrappers: the
    # values agree but for a -0.0 theta at a +0.0 bound, which no start or step
    # makes. ``take`` keeps rows contiguous: sums along one add in repeat's order.
    def score(thetas: np.ndarray, chains: np.ndarray, bar: np.ndarray | float) -> np.ndarray:
        accels = thetas.take(segment_of_step, axis=1)
        rows = evaluate(accels, chains, np.arange(len(chains)), bar)
        return np.concatenate((chains[:, None], thetas, accels, rows), axis=1)

    sizes = [len(i) for i in index]
    seqs, chains = np.concatenate(index), np.repeat(np.arange(len(index)), sizes)
    accels = np.minimum(np.maximum(cands, a_lo), a_hi).take(segment_of_step, axis=1)
    rows = evaluate(accels, chains, seqs, None)
    log = [np.concatenate((chains[:, None], cands.take(seqs, 0), accels.take(seqs, 0), rows), 1)]
    # argmin keeps the first start among equal objectives.
    state = log[0].take([i + int(rows[i:i + n, 0].argmin())
                         for i, n in zip(np.cumsum([0] + sizes), sizes)], axis=0)

    # Halving is exact, so each trial equals the one-at-a-time search's.
    trial_steps = np.array([cfg.solver_step, cfg.solver_step * 0.5, cfg.solver_step * 0.5 * 0.5])
    trial_steps, trial_ids = trial_steps[:, None, None], np.arange(3)[:, None]
    live = np.arange(len(index))
    for _ in range(cfg.solver_iters):
        if not live.size:
            break
        cur = state.take(live, axis=0)
        theta = cur[:, 1:1 + n_seg]
        steps = np.where(theta + _FD_STEP <= a_hi, _FD_STEP, -_FD_STEP)
        probes = theta.repeat(n_seg, axis=0)
        probes.reshape(live.size, -1)[:, ::n_seg + 1] += steps
        log.append(score(np.minimum(np.maximum(probes, a_lo), a_hi), live.repeat(n_seg), np.inf))
        grad = (log[-1][:, o].reshape(steps.shape) - cur[:, o:o + 1]) / steps
        scale = np.maximum.reduce(np.abs(grad), axis=1)
        # A NaN scale is not below the threshold: that chain goes on.
        stop = scale < 1e-12
        if np.logical_or.reduce(stop):
            live, cur, theta, grad, scale = (a[~stop] for a in (live, cur, theta, grad, scale))
            if not live.size:
                break
        # Every trial k of every live chain in one round, k-major.
        trials = np.minimum(
            np.maximum(theta - trial_steps * (grad / scale[:, None]), a_lo), a_hi
        ).reshape(-1, n_seg)
        bar = cur[:, o] - 1e-12
        pairs = score(trials, np.concatenate((live, live, live)), np.concatenate((bar, bar, bar)))
        won = pairs[:, o].reshape(3, -1) < bar
        hit = np.logical_or.reduce(won, axis=0)
        # A chain keeps its trials up to its first win. The later ones are
        # dropped unlogged: the one-at-a-time search never scores them.
        first = np.where(hit, won.argmax(axis=0), 2)
        log.append(pairs.compress((trial_ids <= first).ravel(), axis=0))
        live = live.compress(hit)
        state[live] = pairs.take((first * hit.size + np.arange(hit.size)).compress(hit), axis=0)

    # One stable sort splits the log by chain, each chain's rows in order.
    log = np.concatenate(log)
    log = log.take(np.argsort(log[:, 0], kind="stable"), axis=0)
    ends = np.searchsorted(log[:, 0], np.arange(len(index)), side="right").tolist()
    return [(s[1 + n_seg:o], s[o:], log[a:b, 1 + n_seg:o], log[a:b, o:])
            for s, a, b in zip(state, [0] + ends, ends)]


def _mode_cvars(
    ctx: _StepContext, ego_paths: Sequence[np.ndarray], modes: np.ndarray
) -> np.ndarray:
    """CVaR of each ego path ``r`` (``ego_paths`` holds x, y and speeds,
    each (R, T)) against the human paths of mode ``modes[r]``: one cost
    block per mode, one tail sort."""
    cfg = ctx.cfg
    x, y, speeds = ego_paths
    groups = {m: np.flatnonzero(modes == m) for m in dict.fromkeys(modes.tolist())}
    costs = [
        path_costs(x[g], y[g], speeds[g], ctx.human_paths[m], ctx.discount_weights, cfg.ref_speed)
        for m, g in groups.items()
    ]
    out = np.empty(len(modes))
    out[np.concatenate(list(groups.values()))] = cvar(np.concatenate(costs), cfg.cvar_level)
    return out


def _controls(ctx: _StepContext, accel: np.ndarray) -> np.ndarray:
    """Control sequence (T, 2): ``accel`` with the step's lane guidance,
    both already clipped to the control bounds (by the descent and the law)."""
    return np.column_stack((accel, ctx.guidance_yaw))


# ---------------------------------------------------------------------------
# Receding-horizon planners


class ActivePlanner:
    """Full planner: probing + influence + per-mode CVaR-capped solves."""

    name = "ours"

    def __init__(self, cfg: PlannerConfig):
        self.cfg = cfg
        # The last plan shifted by one step: the next step's reference plan,
        # and per mode index m the warm start of that mode's next solve (a
        # planner serves one target set).
        self._ref_accel: np.ndarray | None = None
        self._warm: dict[int, np.ndarray] = {}
        self._ego_sigma = ego_horizon_covariance(cfg)
        self._shared_starts = _shared_starts(cfg)
        # The steering setup per (solved, steering) mode of ``_targets``.
        self._targets: ModeTargetSet | None = None
        self._steering: dict[tuple[int, int], tuple[np.ndarray, float, np.ndarray]] = {}

    # Subclasses override these two hooks.
    def _entropy_weight(self) -> float:
        return self.cfg.entropy_weight

    def _steer_mode(self, ctx: _StepContext, m: int) -> int:
        """The mode whose steering target mode ``m``'s solve tracks."""
        return m

    def _build_probe_grid(
        self, state: ScenarioState, b: HierarchicalBelief, key: int
    ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Expected posterior entropy on a grid of first accelerations, or
        (None, None) when probing is off or the belief is already certain."""
        cfg = self.cfg
        if self._entropy_weight() <= 0.0:
            return None, None
        h_now = entropy(b, PROBE_PI_WEIGHTED)
        if h_now <= 1e-12:
            return None, None
        n_obs = cfg.obs_samples
        if h_now > 0.75 * max_entropy(b.targets, PROBE_PI_WEIGHTED):
            n_obs *= 2
        # Common random numbers: one draw set shared by every grid point.
        idxs, noise = _observation_draws(b, n_obs, rng_from_keys(key, STREAM_PROBE), cfg)
        grid = np.linspace(*cfg.accel_bounds, cfg.probe_grid_size)
        egos, human_ref, response_time = probe_projection(state, grid, cfg)
        # Each point's observations (n_obs, d); points with byte-equal
        # observations (often all of them, once the held control saturates
        # the conflict level) share one row block of the batched pass.
        zs = predicted_observation_mean(
            egos, human_ref, state.geometry, b.targets.targets, cfg, response_time
        )[:, idxs] + noise
        keys = [z.tobytes() for z in zs]
        blocks = dict(zip(keys, zs))  # in first-seen order
        h = posterior_entropies(b, np.concatenate(list(blocks.values())), h_now, PROBE_PI_WEIGHTED)
        # np.cumsum adds in draw order, as a running sum does.
        means = np.cumsum(h.reshape(len(blocks), n_obs), axis=1)[:, -1] / n_obs
        block_of = dict(zip(blocks, range(len(blocks))))
        return grid, means[[block_of[k] for k in keys]]

    def _solve_modes(
        self, ctx: _StepContext, steer_modes: list[int], warm_accels: list[np.ndarray | None]
    ) -> list[ModeDiag]:
        """Solve the modes of ``ctx.solve`` in lockstep, one descent chain
        each: chain c toward mode ``steer_modes[c]``'s steering target, from
        ``warm_accels[c]``. Objective: probe + influence KL + cap penalty."""
        cfg, state, geometry = self.cfg, ctx.state, ctx.state.geometry
        targets = ctx.belief.targets
        if targets is not self._targets:
            self._targets, self._steering = targets, {}
        modes = targets.targets
        solve = np.array(ctx.solve)
        # KL(pred || target) decomposes into a control-independent constant
        # plus a quadratic in the predicted mean. The constant depends only
        # on target k and the predicted (speed, lead) covariance, which
        # holds the ego covariance and mode m's velocity variance.
        horizon = cfg.horizon_steps * cfg.dt
        pairs = list(zip(ctx.solve, steer_modes))
        for m, k in pairs:
            if (m, k) in self._steering:
                continue
            steer = modes[k].steer
            if steer is None:
                raise InvalidInputError(
                    f"mode ({modes[k].intent_id},{modes[k].mode_id}) has no steering target"
                )
            var_h_pos = float(modes[m].target.cov[0, 0]) * horizon * horizon
            cov_pred = self._ego_sigma[::-1, ::-1] + np.diag([0.0, var_h_pos])
            chol = np.linalg.cholesky(steer.cov)
            y0 = np.linalg.solve(chol, steer.mean)
            kl = kl_divergence(Gaussian(np.zeros(2), cov_pred), steer) - 0.5 * float(y0 @ y0)
            self._steering[m, k] = chol, kl, steer.mean
        chol_q, kl_const, steer_means = map(np.array, zip(*map(self._steering.get, pairs)))
        steer_v, steer_s = steer_means.T
        # The ego's start progress and the conflict level are the same for
        # every mode; s_h is each mode's predicted human progress.
        s0 = ego_progress(geometry, state.ego)
        c0 = conflict_level(state.ego, state.human, geometry, cfg.response_gain,
                            geometry.risk_threshold, geometry.nominal_human_speed)
        h0 = human_progress(geometry, state.human)
        s_h = np.array([h0 + _mode_human_advance(state.human, modes[m], c0, cfg) for m in solve])

        def evaluate(accels: np.ndarray, chains: np.ndarray, seqs: np.ndarray, bar) -> np.ndarray:
            pair_modes = solve[chains]
            paths = simulate_ego_path(state.ego, accels, ctx.headings, cfg.dt)
            x, y, speeds = ego_paths = [p[seqs] for p in paths]
            certified = path_cost_bounds(
                x, y, speeds, ctx.human_boxes[pair_modes], ctx.discount_weights, cfg.ref_speed
            ) <= cfg.risk_cap * (1.0 - CERTIFY_MARGIN)
            s_t, v_t = _linear_terminal_state(s0, state.ego.v, accels, cfg.dt)
            j_probe = ctx.probe_terms(accels[:, 0])[seqs]
            delta = (steer_v[chains] - v_t[seqs], steer_s[chains] - (s_t[seqs] - s_h[chains]))
            y = np.linalg.solve(chol_q[chains], np.array(delta).T[..., None])
            # Stacked (1, 2) @ (2, 1) products take the same dot as y @ y.
            j_infl = kl_const[chains] + 0.5 * (y.transpose(0, 2, 1) @ y)[:, 0, 0]
            lower = j_probe + j_infl  # the objective, but for the cap penalty
            if bar is None:  # the start round: no pick lies above a certified start
                best = np.full(len(solve), np.inf)
                np.minimum.at(best, chains[certified], lower[certified])
                bar = best[chains]
            # Certified or unscored (solver notes): violation 0.0, objective the bound.
            cvars = np.where(certified, -np.inf, _UNSCORED)
            scored = np.flatnonzero(~(certified | (lower > bar)))
            if scored.size:
                cvars[scored] = _mode_cvars(ctx, [p[scored] for p in ego_paths], pair_modes[scored])
            violation = np.where(cvars > cfg.risk_cap, cvars - cfg.risk_cap, 0.0)
            obj = lower + cfg.penalty_weight * violation * violation
            return np.array((obj, cvars, j_probe, j_infl)).T

        bursts = ctx.probe_grid is not None
        starts = _start_candidates(cfg, self._shared_starts, warm_accels, bursts)
        picks = []
        for c, (accel, row, history, rows) in enumerate(_descend(evaluate, starts, cfg)):
            infeasible = False
            if row[1] > cfg.risk_cap:
                # Fall back to the first best feasible candidate, or when each breaks
                # the cap to the least risky, flagged: score the unscored ones first.
                if (lazy := np.flatnonzero(rows[:, 1] == _UNSCORED)).size:
                    rows[lazy] = evaluate(history, np.full(lazy.size, c), lazy, np.inf)
                feasible = np.flatnonzero(rows[:, 1] <= cfg.risk_cap)
                infeasible = not feasible.size
                h = np.argmin(rows[:, 1]) if infeasible else feasible[np.argmin(rows[feasible, 0])]
                accel, row = history[h], rows[h]
            picks.append((accel, row.tolist(), infeasible, len(rows)))
        # Each pick that holds -inf gets its exact CVaR, in one batch.
        certified = [c for c, (_, row, _, _) in enumerate(picks) if row[1] == -math.inf]
        if certified:
            accels = np.array([picks[c][0] for c in certified])
            ego_paths = simulate_ego_path(state.ego, accels, ctx.headings, cfg.dt)
            for c, value in zip(certified, _mode_cvars(ctx, ego_paths, solve[certified]).tolist()):
                picks[c][1][1] = value
        return [
            ctx.mode_diag(
                m, nu=_controls(ctx, accel), objective=obj, cvar_solution=cvar_val,
                j_probe=j_probe, j_influence=j_infl, infeasible=infeasible, evals=evals,
            )
            for m, (accel, (obj, cvar_val, j_probe, j_infl), infeasible, evals) in zip(solve, picks)
        ]

    def _begin_step(
        self,
        state: ScenarioState,
        b: HierarchicalBelief,
        rng: np.random.Generator | int,
    ) -> _StepContext:
        """Setup every planner's step shares: rng key, lane guidance with
        the ego headings it implies, probe grid, joint weights, the modes
        to solve, every mode's human rollouts, the discount weights, and
        the CVaR of the reference plan (shifted previous solution, or
        coasting) per mode."""
        cfg = self.cfg
        base_key = rng if isinstance(rng, int) else derive_key(rng)
        guidance, headings = lane_guidance(state, cfg)
        probe_grid, probe_entropy = self._build_probe_grid(state, b, base_key)
        omega = joint_weights(b)
        active = omega > cfg.mode_activation_eps
        ref_accel = self._ref_accel if self._ref_accel is not None else np.zeros(cfg.horizon_steps)
        # Each mode's rollouts come from a stream keyed by the mode, so the
        # draw order does not matter.
        modes = b.targets.targets
        human_paths, human_boxes = draw_human_paths(
            state.human, modes, cfg.rollout_count, cfg.horizon_steps, cfg.dt,
            [rng_from_keys(base_key, STREAM_MODE_ROLLOUT, t.intent_id, t.mode_id) for t in modes],
        )
        weights = cfg.discount ** np.arange(cfg.horizon_steps)
        ego_x, ego_y, ego_speeds = simulate_ego_path(state.ego, ref_accel, headings, cfg.dt)
        cvar_pre = cvar(
            path_costs(ego_x, ego_y, ego_speeds, human_paths, weights, cfg.ref_speed),
            cfg.cvar_level,
        )
        return _StepContext(
            cfg=cfg,
            state=state,
            belief=b,
            guidance_yaw=guidance,
            headings=headings,
            discount_weights=weights,
            probe_grid=probe_grid,
            probe_entropy=probe_entropy,
            entropy_weight=self._entropy_weight(),
            omega=omega,
            active=active,
            # np.argmax keeps the first mode among equal maxima.
            solve=np.flatnonzero(active).tolist() or [int(np.argmax(omega))],
            human_paths=human_paths,
            human_boxes=human_boxes,
            cvar_pre=cvar_pre,
        )

    def _finish_step(
        self,
        ctx: _StepContext,
        solved: dict[int, ModeDiag],
        u_total: np.ndarray,
        solver_evals: int,
    ) -> tuple[np.ndarray, PlanDiagnostics]:
        """Record the executed plan for the next step's reference and warm
        start, and assemble the step's diagnostics from the solved modes'
        records and a bare record for every other mode. The blend falls
        back to the argmax-omega mode exactly when no mode is active."""
        mode_diags = tuple(solved.get(m) or ctx.mode_diag(m) for m in range(len(ctx.omega)))
        w_probe = w_infl = 0.0
        for d in solved.values():  # in target order, as ctx.solve is
            w_probe += d.omega * d.j_probe
            w_infl += d.omega * d.j_influence

        self._ref_accel = np.append(u_total[1:, 0], u_total[-1, 0])
        u_first = u_total[0].copy()
        if ctx.probe_grid is not None:
            h_after = float(np.interp(u_first[0], ctx.probe_grid, ctx.probe_entropy))
        else:
            h_after = math.nan
        diag = PlanDiagnostics(
            entropy_before=entropy(ctx.belief),
            expected_entropy_after=h_after,
            modes=mode_diags,
            u_total=u_total,
            u_first=u_first,
            j_probe=w_probe,
            j_influence=w_infl,
            solver_evals=solver_evals,
            blend_fallback=not ctx.active.any(),
            infeasible_any=any(m.infeasible for m in mode_diags),
        )
        return u_first, diag

    def plan_step(
        self,
        state: ScenarioState,
        b: HierarchicalBelief,
        rng: np.random.Generator | int,
    ) -> tuple[np.ndarray, PlanDiagnostics]:
        cfg = self.cfg
        ctx = self._begin_step(state, b, rng)
        solved = dict(zip(ctx.solve, self._solve_modes(
            ctx, [self._steer_mode(ctx, m) for m in ctx.solve],
            [self._warm.get(m) for m in ctx.solve],
        )))
        for m, d in solved.items():
            self._warm[m] = np.append(d.nu[1:, 0], d.nu[-1, 0])  # receding-horizon shift

        # Joint-weight blend over the active modes; with none active, the
        # argmax-omega mode's plan unscaled.
        if ctx.active.any():
            u_total = np.zeros((cfg.horizon_steps, 2))
            for d in solved.values():  # in target order, as ctx.solve is
                u_total += d.omega * d.nu
        else:
            u_total = solved[ctx.solve[0]].nu
        u_total = np.clip(u_total, cfg.u_min, cfg.u_max)
        return self._finish_step(ctx, solved, u_total, sum(d.evals for d in solved.values()))

