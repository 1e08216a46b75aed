"""Simplified stand-in planners for directional comparisons.

Both subclass the full planner and reuse its step setup (guidance law,
joint weights, reference-plan CVaR), its solver loop and its diagnostics,
so measured differences isolate the probing + influence + per-mode
risk-cap machinery, not implementation quality. The passive planner only
overrides two hooks; the conservative planner supplies only its objective
to the shared descent.
"""

from __future__ import annotations

import math

import numpy as np

from .belief import HierarchicalBelief, ModeTarget, entropy, joint_weights
from .errors import InvalidInputError
from .gaussmath import Gaussian
from .planner import (
    ActivePlanner,
    ModeDiag,
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
        rows = joint_weights(b)
        best = None
        for t in b.targets.targets:
            w = float(rows[t.intent_id - 1][t.mode_id - 1])
            if best is None or w > best[0]:
                best = (w, t)
        target = best[1]
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
        hedge = [(ctx.omegas[k], ctx.paths_for(b.targets.get(*k))) for k in ctx.solve_keys]

        def evaluate(accel: np.ndarray) -> tuple[float, list[float]]:
            plan = np.column_stack((accel, ctx.guidance_yaw))
            xy, speeds = simulate_ego_path(state.ego, plan, cfg.dt)
            cvars = [
                cvar(path_costs(xy, speeds, paths, cfg.discount, cfg.ref_speed), cfg.cvar_level)
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


class ZeroPlanner:
    """Test stub emitting zero controls with a schema-compatible diagnostic."""

    name = "zero"

    def __init__(self, cfg):
        self.cfg = cfg

    def plan_step(self, state, b, rng):
        cfg = self.cfg
        u_total = np.zeros((cfg.horizon_steps, 2))
        omega_rows = joint_weights(b)
        mode_diags = tuple(
            ModeDiag(
                intent_id=t.intent_id, mode_id=t.mode_id,
                omega=float(omega_rows[t.intent_id - 1][t.mode_id - 1]),
                active=False, cvar_pre=math.nan,
            )
            for t in b.targets.targets
        )
        diag = PlanDiagnostics(
            entropy_before=entropy(b, cfg.pi_weighted_entropy),
            expected_entropy_after=math.nan,
            modes=mode_diags,
            u_total=u_total,
            u_first=u_total[0].copy(),
            j_probe=0.0, j_influence=0.0, solver_evals=0,
            blend_fallback=False, infeasible_any=False,
        )
        return u_total[0].copy(), diag
