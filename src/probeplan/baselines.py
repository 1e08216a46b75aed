"""Simplified stand-in planners for directional comparisons.

Both subclass the full planner and reuse its step setup (guidance law,
joint weights, reference-plan CVaR, all on the step's mode axis), its
solver loop with its one start set, warm-started from the executed plan,
and its diagnostics. The passive planner only overrides two hooks; the
conservative planner supplies only its objective over the solved modes
to the shared descent, and records each of them with the step's
``mode_diag``. The planners differ only in their objective and steering:
measured differences are the probing + influence + per-mode risk-cap
machinery.
"""

from __future__ import annotations

import numpy as np

from .belief import HierarchicalBelief
from .planner import (
    _UNSCORED,
    ActivePlanner,
    PlanDiagnostics,
    _StepContext,
    _accels,
    _controls,
    _descend,
    _start_candidates,
    _tail_gradients,
)
from .risk import (
    CERTIFY_MARGIN,
    cvar,
    cvar_tail,
    path_cost_means,
    path_costs,
    simulate_ego_path,  # noqa: F401 -- the benchmark wraps probeplan.baselines.simulate_ego_path
)
from .world import ScenarioState


class PassivePlanner(ActivePlanner):
    """Probing disabled; every mode solve tracks the most likely mode's
    interaction target. The reactive strategy: plan against the current
    belief without trying to change it."""

    name = "passive"

    def _entropy_weight(self) -> float:
        return 0.0

    def _steer_mode(self, ctx: _StepContext, m: int) -> int:
        # np.argmax keeps the first mode among equal maxima.
        return int(np.argmax(ctx.omega))


class ConservativePlanner(ActivePlanner):
    """Hedging stand-in: one control sequence minimizing the joint-weighted
    sum of per-mode CVaR values across all active modes. No probing, no
    influence shaping."""

    name = "conservative"

    def _entropy_weight(self) -> float:
        return 0.0

    def plan_step(
        self, state: ScenarioState, b: HierarchicalBelief
    ) -> tuple[np.ndarray, PlanDiagnostics]:
        cfg = self.cfg
        ctx = self._begin_step(state, b)
        weights, solve = ctx.omega[ctx.solve], np.array(ctx.solve)
        paths = ctx.human_paths[solve]
        # The start round scores the warm start first, the row after the
        # shared head, or the clipped coasting start before any plan.
        first = len(self._shared_starts[0]) if self._ref_accel is not None else 0
        last = {}  # the step's last scored cost block

        def floor_sums(ego_paths: np.ndarray) -> np.ndarray:
            # Each vector's omega-weighted sum of its floors: the mean cost of
            # the last scored vector's tail samples.
            tails = cvar_tail(last["costs"], cfg.cvar_level)[:, None]
            samples = paths[np.arange(len(solve))[:, None, None], np.arange(2)[:, None], tails]
            floors = path_cost_means(*ego_paths, samples, ctx.discount_weights, cfg.ref_speed)
            floors *= 1.0 - CERTIFY_MARGIN
            return sum(w * v for w, v in zip(weights, floors.T))

        def evaluate(thetas: np.ndarray, chains: np.ndarray, bar):
            # One chain: a vector's objective is the omega-weighted sum, in mode
            # order, of its CVaRs against the solved modes, one cost block per
            # vector. A vector no decision reads holds _UNSCORED and the same
            # sum of its floors as objective (solver notes).
            ego_paths, n, k = ctx.ego_paths(thetas), len(solve), len(thetas)
            rows = np.full((k, 1 + n), _UNSCORED)
            blocks = {}

            def score(i: int) -> float:
                blocks[i] = last["costs"] = path_costs(
                    *ego_paths[:, i], paths, ctx.discount_weights, cfg.ref_speed)
                rows[i, 1:] = cvar(blocks[i], cfg.cvar_level)
                rows[i, 0] = sum(w * v for w, v in zip(weights, rows[i, 1:]))
                return rows[i, 0]

            state = None
            if bar is None:
                # The first start's tail samples floor the others, scored in
                # ascending floor; a floor above the best objective so far
                # loses to it. np.minimum keeps a NaN objective, which argmin
                # picks, and a NaN best prunes nothing.
                best, rest = score(first), np.delete(np.arange(k), first)
                rows[rest, 0] = floor_sums(ego_paths[:, rest])
                for i in rest[np.argsort(rows[rest, 0], kind="stable")].tolist():
                    if not rows[i, 0] > best:
                        best = np.minimum(best, score(i))
                state = int(rows[:, 0].argmin())
            else:
                # A trial whose floor is at or above its bar loses; the first
                # win ends the search, as no later trial is read.
                rows[:, 0] = floor_sums(ego_paths)
                for i, trial_bar in enumerate(np.broadcast_to(bar, k).tolist()):
                    if not rows[i, 0] >= trial_bar and score(i) < trial_bar:
                        state = i
                        break
            # Only the pair that becomes the chain's state needs its gradient:
            # the omega-weighted sum of the modes' tail gradients.
            grads = np.zeros((k, cfg.solver_segments))
            if state is not None:
                per_mode = _tail_gradients(ctx, ego_paths[:, [state]].repeat(n, axis=1), solve,
                                           blocks[state])
                grads[state] = sum(w * g for w, g in zip(weights, per_mode))
            return rows, grads

        starts = _start_candidates(cfg, self._shared_starts, self._ref_accel, 1)
        ((theta, row, _, rows),) = _descend(evaluate, starts, cfg)
        objective, *cvars = row.tolist()
        u_total = _controls(ctx, _accels(theta, cfg))
        solved = {
            m: ctx.mode_diag(
                m, nu=u_total, objective=objective, cvar_solution=value,
                j_probe=0.0, j_influence=0.0, evals=len(rows),
            )
            for m, value in zip(ctx.solve, cvars)
        }
        return self._finish_step(ctx, solved, u_total, len(rows))
