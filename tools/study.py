"""Tuning studies for the closed-loop acceptance criteria (developer tooling,
not shipped): python tools/study.py [probe|order|both] [n]

Each study is a list of arms. An arm is an override list over
``configs/default.yaml``: the study's seed and run count, no traces, the
caller's overrides, then the arm's own fields. Each arm runs through
``probeplan.cli.run_experiment`` into ``<out>/<arm>/`` (``out`` defaults to
``results/study``); its statistics are read back from the ``results.csv``
and ``summary.csv`` there, next to its ``summary.txt`` and ``manifest.json``.
"""

import csv
import math
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from probeplan.cli import run_experiment
from probeplan.config import load_config

DEFAULT = ROOT / "configs" / "default.yaml"
OUT = Path("results") / "study"


def run_arm(out, arm, n, seed, overrides, fields):
    """Run one arm into out/arm; return its results.csv and summary.csv rows."""
    base = [f"experiment.master_seed={seed}", f"experiment.runs={n}", "experiment.trace_seeds=[]"]
    run_experiment(DEFAULT, base + list(overrides) + fields, Path(out) / arm)
    return [list(csv.DictReader((Path(out) / arm / name).read_text().splitlines()))
            for name in ("results.csv", "summary.csv")]


def probing_study(n=40, seed=1, scenario="lane_merge", pinned=3, step=20, overrides=(), out=OUT):
    """Criterion 7 shape: entropy at step `step`, lambda 0.5 vs 0. Each arm stops
    after that step, so its final entropy is the one at `step` (or earlier)."""
    t_max = (step + 0.5) * load_config(DEFAULT, list(overrides))["planner"]["dt"]
    h = {}
    for lam in (0.5, 0.0):
        fields = [f"experiment.scenario={scenario}", "experiment.planner=ours",
                  f"human.pinned_intent={pinned}", f"planner.entropy_weight={lam}",
                  f"scenario.t_max={t_max!r}"]
        arm = f"probe_{scenario}_pinned{pinned}_lambda{lam}"
        results, _ = run_arm(out, arm, n, seed, overrides, fields)
        h[lam] = [float(r["final_entropy"]) for r in results]
    pairs = list(zip(h[0.5], h[0.0]))
    wins = sum(e1 <= e0 for e1, e0 in pairs)
    ties = sum(abs(e1 - e0) < 1e-12 for e1, e0 in pairs)
    frac = wins / len(pairs)
    print(f"probing {scenario} pinned={pinned}: wins {wins}/{len(pairs)} ({frac:.0%}), ties {ties}")
    print(f"  mean H(0.5)={np.mean([p[0] for p in pairs]):.3f}  mean H(0)={np.mean([p[1] for p in pairs]):.3f}")
    return frac, pairs


def ordering_study(n=40, seed=2, scenarios=("lane_merge", "intersection"), overrides=(), out=OUT):
    """Criterion 8 shape: ours vs passive, comparison mode. Returns the
    per-scenario (dsuccess, time cut) and the per-combo (success %, mean
    completion time, mean gap, termination counts)."""
    summary, combos = {}, {}
    for scenario in scenarios:
        for planner in ("ours", "passive"):
            t0 = time.time()
            fields = [f"experiment.scenario={scenario}", f"experiment.planner={planner}"]
            results, (agg,) = run_arm(out, f"order_{scenario}_{planner}", n, seed, overrides, fields)
            dt = time.time() - t0
            stats = [float(agg[k]) for k in ("success_rate", "completion_time_mean", "min_gap_mean")]
            counts = dict(Counter(r["termination"] for r in results))
            combos[scenario, planner] = (*stats, counts)
            print(f"{scenario:13s} {planner:8s}: success {stats[0]:5.1f}%  "
                  f"time {stats[1]:5.2f}s  gap {stats[2]:5.2f}  ({dt:.0f}s wall, {counts})")
        ours, passive = combos[scenario, "ours"], combos[scenario, "passive"]
        dsucc = ours[0] - passive[0]
        rel = (passive[1] - ours[1]) / passive[1] if passive[1] == passive[1] else math.nan
        print(f"  -> dsuccess {dsucc:+.1f}pp (need >=+5), time cut {rel:+.1%} (need >=10%)")
        summary[scenario] = (dsucc, rel)
    return summary, combos


if __name__ == "__main__":
    mode = sys.argv[1] if len(sys.argv) > 1 else "both"
    n = int(sys.argv[2]) if len(sys.argv) > 2 else 40
    if mode in ("probe", "both"):
        probing_study(n=n)
    if mode in ("order", "both"):
        ordering_study(n=n)
