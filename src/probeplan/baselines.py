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
from .errors import InvalidInputError
from .gaussmath import Gaussian
from .planner import (
    ActivePlanner,
    PlanDiagnostics,
    _StepContext,
    _controls,
    _descend,
    _sequence_cvars,
    _start_candidates,
    _take,
)
# The conservative planner scores through the planner's shared kernel; the
# benchmark still wraps cvar and path_costs here by module.
from .risk import cvar, path_costs, simulate_ego_path  # noqa: F401
from .world import ScenarioState


class PassivePlanner(ActivePlanner):
    """Probing disabled; every mode solve tracks the most likely mode's
    interaction target. The reactive strategy: plan against the current
    belief without trying to change it."""

    name = "passive"

    def _entropy_weight(self) -> float:
        return 0.0

    def _influence_target(self, ctx: _StepContext, m: int) -> Gaussian:
        # np.argmax keeps the first mode among equal maxima.
        target = ctx.belief.targets.targets[int(np.argmax(ctx.omega))]
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
        weights = ctx.omega[ctx.solve].tolist()
        paths = _take(ctx.human_paths, ctx.solve)

        def evaluate(accels: list[np.ndarray], rows: list[list[int]]) -> list[tuple]:
            # One chain: every sequence is scored against every solved mode.
            n = len(weights)
            ego_paths = simulate_ego_path(ctx.state.ego, np.array(accels), ctx.headings, cfg.dt)
            cvars = _sequence_cvars(ctx, paths, ego_paths, [range(n)] * len(accels))
            return [(sum(w * v for w, v in zip(weights, seq)), seq)
                    for seq in cvars.reshape(-1, n).tolist()]

        starts = _start_candidates(cfg, [self._ref_accel], bursts=False)
        ((accel, (objective, cvars), history),) = _descend(evaluate, starts, cfg)
        u_total = _controls(ctx, accel)
        solved = {
            m: ctx.mode_diag(
                m, nu=u_total, objective=objective, cvar_solution=value,
                j_probe=0.0, j_influence=0.0, evals=len(history),
            )
            for m, value in zip(ctx.solve, cvars)
        }
        return self._finish_step(ctx, solved, u_total, len(history))
