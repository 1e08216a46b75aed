"""Golden-output test: a tiny fixed batch must reproduce committed digests.

The determinism tests in test_cli.py compare the code with itself, so they
cannot catch a refactor that changes behaviour. This test pins the bytes of
``results.csv`` and of every trace file to SHA-256 digests recorded from a
known-good tree. A second test pins every field of the planner's per-step
diagnostics, most of which the traces do not carry. A change that alters
numerics on purpose regenerates the digests (run these tests with ``-vv``
and copy them from the assertion diff) and justifies the change in
CHANGES.md.

Digests were recorded with Python 3.11.7 and numpy 2.4.6. Another numpy
release may change random streams or the last bits of reductions.
"""

import dataclasses
import hashlib

import numpy as np

from probeplan import scenario
from probeplan.cli import run_experiment
from probeplan.planner import PlannerConfig
from probeplan.scenario import DEFAULT_REF_SPEED, PLANNERS, RunConfig, make_planner
from probeplan.world import INTERSECTION, LANE_MERGE

GOLDEN_CFG = """
experiment:
  runs: 1
  master_seed: 5
  scenario: [lane_merge, intersection]
  planner: [ours, passive, conservative]
  comparison_mode: true
  workers: 1
  trace_seeds: [0]

planner:
  rollout_count: 30
  obs_samples: 6
  solver_iters: 2

scenario:
  t_max: 2.0
"""

GOLDEN = {
    "results.csv": "c28c730e1f33347f9fede5874482cabde5c0a1af2824b89f2244a6866d3a51f2",
    "trace_intersection_conservative_run00000.csv": "6405192608f0887f09bfd44d283e379c01179ccec84c6ced4a7a6f72aa9c8ab2",
    "trace_intersection_ours_run00000.csv": "fa2664b03a494c7ac455fa2b84c00caf864c5b37dc1a5b8071f8be023d7800d5",
    "trace_intersection_passive_run00000.csv": "6c7877eca35e91951cf0631721403a220a30118f5b914f9d59c46f62fed64d36",
    "trace_lane_merge_conservative_run00000.csv": "9b9e632bc9eedc4ea8c163f9991e0f28f5983251b44f2fd5e2e3a06ae573e721",
    "trace_lane_merge_ours_run00000.csv": "672cc6c5c2cfc17e67e5d2adc17890a41d52cacb2e9a81004a6d2fb5c16fb62e",
    "trace_lane_merge_passive_run00000.csv": "79bbe46174297c6fc6bb180bee8c378c2ecfd1b358da27d68a04e3ea7e89ef78",
}


def _digests(out):
    files = ["results.csv"] + sorted(p.name for p in out.glob("trace_*.csv"))
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in files}


def test_golden_batch_digests(tmp_path):
    cfg = tmp_path / "golden.yaml"
    cfg.write_text(GOLDEN_CFG)
    out = tmp_path / "out"
    assert run_experiment(cfg, out_dir=out) == 0
    assert _digests(out) == GOLDEN


# Every PlanDiagnostics field, and every ModeDiag field of every mode, of
# every step of 18 short runs: both scenarios x three planners x three
# configs (golden budgets, a binding risk cap, and an activation threshold
# that no mode clears on a near-uniform belief, so the blend falls back).
DIAG_CONFIGS = ({}, {"risk_cap": 5.0}, {"mode_activation_eps": 0.5})
DIAG_GOLDEN = "30e8d09bf98bd3688fa76cdeeff445590075c5afbf7934367446f3b9c5d4cd88"


def _feed(h, value):
    """Hash one diagnostics value: dataclasses field by field, floats by
    repr, arrays by their bytes, None as a marker."""
    if value is None:
        h.update(b"<None>")
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            h.update(f.name.encode())
            _feed(h, getattr(value, f.name))
    elif isinstance(value, tuple):
        for item in value:
            _feed(h, item)
    elif isinstance(value, np.ndarray):
        h.update(f"{value.dtype}{value.shape}".encode())
        h.update(value.tobytes())
    elif isinstance(value, (bool, np.bool_)):
        h.update(repr(bool(value)).encode())
    elif isinstance(value, (int, np.integer)):
        h.update(repr(int(value)).encode())
    else:
        h.update(repr(float(value)).encode())


def test_plan_diagnostics_digest(monkeypatch):
    diags = []

    def recording_planner(name, cfg):
        planner = make_planner(name, cfg)
        plan_step = planner.plan_step

        def recorded(*args):
            u, diag = plan_step(*args)
            diags.append(diag)
            return u, diag

        planner.plan_step = recorded
        return planner

    monkeypatch.setattr(scenario, "make_planner", recording_planner)
    for kind in (LANE_MERGE, INTERSECTION):
        for planner in PLANNERS:
            for extra in DIAG_CONFIGS:
                pc = PlannerConfig(
                    rollout_count=30, obs_samples=6, solver_iters=2,
                    ref_speed=DEFAULT_REF_SPEED[kind], **extra,
                )
                scenario.run(RunConfig(
                    scenario=kind, master_seed=5, planner=planner, planner_cfg=pc,
                    t_max=0.8, comparison_mode=True, pinned_intent=2,
                ))
    h = hashlib.sha256()
    for diag in diags:
        _feed(h, diag)
    assert len(diags) == 144
    assert sum(d.blend_fallback for d in diags) == 42
    assert sum(d.infeasible_any for d in diags) == 16
    assert sum(m.infeasible for d in diags for m in d.modes) == 64
    assert h.hexdigest() == DIAG_GOLDEN
