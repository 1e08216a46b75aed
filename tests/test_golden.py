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
    "results.csv": "ecc370cf3144ee35d8bf6ab430fdbc8e761f0ccbf10197607f15d8dfcbe77239",
    "trace_intersection_conservative_run00000.csv": "37dd2b265bd3ecc644c78d401f8e38472beeb4f3d232a5a13c735788843386f9",
    "trace_intersection_ours_run00000.csv": "0529646eb821e7456fec7565c6482d80e32845580a3c358a9685c1c3b4b39985",
    "trace_intersection_passive_run00000.csv": "bc855ac4832a451ba704bd37517fcaee396d1bfb42f26f7c1f2445b2221463d6",
    "trace_lane_merge_conservative_run00000.csv": "cd4c503cb392c536258a5d211d7fc9326cfb64607b3ee44d9b1bbb367a28d78a",
    "trace_lane_merge_ours_run00000.csv": "d737ee675b44ae80f7617b426c3cf933930309573c9aa5b2155a257acc488617",
    "trace_lane_merge_passive_run00000.csv": "b994b2359f44a39c28eb2089919e3c42b0d153ace7d895730dcb0c9587ee0862",
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
DIAG_GOLDEN = "1a87e6e6ce8de9cdb5990fb5a42101a85c51567a5e1019b7ea392cabfb1f89c9"


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
