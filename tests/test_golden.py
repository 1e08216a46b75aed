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
  solver_iters: 2

scenario:
  t_max: 2.0
"""

GOLDEN = {
    "results.csv": "2f82c7ae7d0a82ee9ff5cc8ecf1bed8537b437f3c34e086b27204a6814df7e26",
    "trace_intersection_conservative_run00000.csv": "e18444674e3cdf4a1e1b6d8f620c3f47335bbc4cf61748a4fc85a6324f75b4a2",
    "trace_intersection_ours_run00000.csv": "6de9f626ae357a8293ce3b62250707c1cd59bbae91fa0edb3ffff1fc0ea15e8e",
    "trace_intersection_passive_run00000.csv": "b580113b1eef9cce82d9227e9ff0b36aa2c69df98c610eb73d715a63e09fdf0c",
    "trace_lane_merge_conservative_run00000.csv": "00e0eec486208931cef125f99d83f1af76be20ff2d658474b44998ff71dbef02",
    "trace_lane_merge_ours_run00000.csv": "20e23971c81111267491d291a5c2255beec50cf46b774d2bf0b18cfc89e64d40",
    "trace_lane_merge_passive_run00000.csv": "77078a66c94fe72558e3f9c054b190b933b7907b8f09c013d2fec45caadf75f8",
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
# every step of 24 short runs: both scenarios x three planners x four
# configs (golden budgets, a binding risk cap, an activation threshold that
# no mode clears on a near-uniform belief, so the blend falls back, and one
# that some modes clear and others do not, so the blend mixes only some).
# One digest per planner, so a change shows which planners it moves.
DIAG_CONFIGS = (
    {}, {"risk_cap": 5.0}, {"mode_activation_eps": 0.5}, {"mode_activation_eps": 0.05},
)
DIAG_GOLDEN = {
    "ours": "3e92b913bd6ca4e9224c55942c60ad3b6027ce5dcea1c8234a90079b51903751",
    "passive": "3aff612cbdf5e5c4ea6b365f7485194b0e5a8f0d557b6c25b90c42e9acb76dc7",
    "conservative": "ee2fc069c81fc099548c515a6fe2df75853236c7dddf8ba91c790ab4a282a4f3",
}


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

    def recording_planner(name, cfg, key, targets):
        planner = make_planner(name, cfg, key, targets)
        plan_step = planner.plan_step

        def recorded(*args):
            u, diag = plan_step(*args)
            diags.append((name, diag))
            return u, diag

        planner.plan_step = recorded
        return planner

    monkeypatch.setattr(scenario, "make_planner", recording_planner)
    for kind in (LANE_MERGE, INTERSECTION):
        for planner in PLANNERS:
            for extra in DIAG_CONFIGS:
                pc = PlannerConfig(
                    rollout_count=30, solver_iters=2,
                    ref_speed=DEFAULT_REF_SPEED[kind], **extra,
                )
                scenario.run(RunConfig(
                    scenario=kind, master_seed=5, planner=planner, planner_cfg=pc,
                    t_max=0.8, comparison_mode=True, pinned_intent=2,
                ))
    digests = {name: hashlib.sha256() for name in PLANNERS}
    for name, diag in diags:
        _feed(digests[name], diag)
    diags = [diag for _, diag in diags]
    assert len(diags) == 192
    assert sum(d.blend_fallback for d in diags) == 42
    assert sum(0 < sum(m.active for m in d.modes) < len(d.modes) for d in diags) == 54
    assert sum(d.infeasible_any for d in diags) == 16
    assert sum(m.infeasible for d in diags for m in d.modes) == 64
    assert {name: h.hexdigest() for name, h in digests.items()} == DIAG_GOLDEN
