"""Simplified stand-in planners for directional comparisons.

Both subclass the full planner and reuse its step setup (guidance law,
joint weights, reference-plan CVaR, all on the step's mode axis), its
solver loop and its diagnostics, so measured differences isolate the
probing + influence + per-mode risk-cap machinery, not implementation
quality. The passive planner only overrides two hooks; the conservative
planner supplies only its objective over the solved modes to the shared
descent, and records each of them with the step's ``mode_diag``.
"""

from __future__ import annotations

import numpy as np

from .belief import HierarchicalBelief
from .planner import (
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
    cvar,
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
        self,
        state: ScenarioState,
        b: HierarchicalBelief,
        rng: np.random.Generator | int,
    ) -> tuple[np.ndarray, PlanDiagnostics]:
        cfg = self.cfg
        ctx = self._begin_step(state, b, rng)
        weights = ctx.omega[ctx.solve]
        paths = ctx.human_paths[ctx.solve]

        def evaluate(thetas: np.ndarray, chains: np.ndarray, bar):
            # One chain: each vector's CVaR against every solved mode, one cost
            # block per vector, and their omega-weighted sum in mode order; its
            # gradient is the omega-weighted sum of the modes' tail gradients.
            ego_paths = ctx.ego_paths(thetas)
            costs = np.concatenate([
                path_costs(*ego, paths, ctx.discount_weights, cfg.ref_speed)
                for ego in zip(*ego_paths)
            ])
            cvars = cvar(costs, cfg.cvar_level).reshape(len(thetas), -1)
            rows = np.column_stack((sum(w * v for w, v in zip(weights, cvars.T)), cvars))
            # A line search's trial needs its gradient only below its bar.
            grads = np.zeros((len(thetas), cfg.solver_segments))
            read = np.arange(len(thetas)) if bar is None else np.flatnonzero(rows[:, 0] < bar)
            if read.size:
                n = len(weights)
                tails = _tail_gradients(
                    ctx, ego_paths[:, read].repeat(n, axis=1), np.tile(ctx.solve, read.size),
                    costs.reshape(len(thetas), n, -1)[read].reshape(read.size * n, -1))
                tails = tails.reshape(read.size, n, -1).swapaxes(0, 1)
                grads[read] = sum(w * g for w, g in zip(weights, tails))
            return rows, grads

        starts = _start_candidates(cfg, self._shared_starts, [self._ref_accel], bursts=False)
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
