"""Simplified stand-in planners for directional comparisons.

Both subclass the full planner and reuse its step setup (guidance law,
joint weights, reference-plan CVaR), its solver loop and its diagnostics,
so measured differences isolate the probing + influence + per-mode
risk-cap machinery, not implementation quality. The passive planner only
overrides two hooks; the conservative planner supplies only its objective
to the shared descent.
"""

from __future__ import annotations

import numpy as np

from .belief import HierarchicalBelief, ModeTarget, joint_weights
from .errors import InvalidInputError
from .gaussmath import Gaussian
from .planner import (
    ActivePlanner,
    ModeSolveResult,
    PlanDiagnostics,
    _controls,
    _descend,
    _start_candidates,
)
from .risk import cvar, path_costs, simulate_ego_path
from .world import ScenarioState


class PassivePlanner(ActivePlanner):
    """Probing disabled; every mode solve tracks the most likely mode's
    interaction target. The reactive strategy: plan against the current
    belief without trying to change it."""

    name = "passive"

    def _entropy_weight(self) -> float:
        return 0.0

    def _influence_target(self, mode: ModeTarget, b: HierarchicalBelief) -> Gaussian:
        # np.argmax keeps the first mode among equal maxima.
        target = b.targets.targets[int(np.argmax(joint_weights(b)))]
        if target.steer is None:
            raise InvalidInputError("argmax mode has no steering target")
        return target.steer


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
        hedge = [(ctx.omegas[k], ctx.human_paths[k]) for k in ctx.solve_keys]

        def evaluate(accel: np.ndarray) -> tuple[float, list[float]]:
            x, y, speeds = simulate_ego_path(state.ego, accel, ctx.headings, cfg.dt)
            cvars = [
                cvar(
                    path_costs(x, y, speeds, paths, ctx.discount_weights, cfg.ref_speed),
                    cfg.cvar_level,
                )
                for _, paths in hedge
            ]
            return sum(w * v for (w, _), v in zip(hedge, cvars)), cvars

        warm = ctx.ref_accel if self._prev_accel is not None else None
        candidates = _start_candidates(cfg, warm, bursts=False)
        accel, (objective, cvars), history = _descend(evaluate, candidates, cfg)
        u_total = _controls(ctx, accel)
        results = {
            key: ModeSolveResult(
                nu=u_total, objective=objective, cvar_value=value, j_probe=0.0,
                j_influence=0.0, infeasible=False, evals=len(history),
            )
            for key, value in zip(ctx.solve_keys, cvars)
        }
        return self._finish_step(
            ctx, results, u_total, not ctx.active_keys, len(history)
        )

