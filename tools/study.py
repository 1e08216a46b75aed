"""Tuning studies for the closed-loop acceptance criteria (not shipped as
part of the package; developer tooling)."""

import math
import sys
import time
from multiprocessing import Pool
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from probeplan.metrics import aggregate
from probeplan.planner import PlannerConfig
from probeplan.scenario import DEFAULT_REF_SPEED, RunConfig, run


def _one(args):
    cfg, idx = args
    result, log = run(cfg, run_index=idx)
    entropies = [r.entropy for r in log.records]
    return result, entropies, log.gt_intent


def batch(cfg, n, workers=2):
    jobs = [(cfg, i) for i in range(n)]
    if workers > 1:
        with Pool(workers) as pool:
            return pool.map(_one, jobs, chunksize=2)
    return [_one(j) for j in jobs]


def probing_study(n=40, seed=1, scenario="lane_merge", pinned=3, step=20, **pc_kw):
    """Criterion 7 shape: entropy at step `step`, lambda 0.5 vs 0."""
    out = {}
    for lam in (0.5, 0.0):
        pc = PlannerConfig(entropy_weight=lam, **pc_kw)
        cfg = RunConfig(scenario=scenario, master_seed=seed, planner="ours",
                        planner_cfg=pc, pinned_intent=pinned,
                        t_max=(step + 1) * pc.dt + 1e-9)
        out[lam] = batch(cfg, n)
    wins = ties = 0
    pairs = []
    for (r1, h1, _), (r0, h0, _) in zip(out[0.5], out[0.0]):
        e1 = h1[step] if len(h1) > step else h1[-1]
        e0 = h0[step] if len(h0) > step else h0[-1]
        pairs.append((e1, e0))
        wins += e1 <= e0
        ties += abs(e1 - e0) < 1e-12
    frac = wins / len(pairs)
    print(f"probing {scenario} pinned={pinned}: wins {wins}/{len(pairs)} ({frac:.0%}), ties {ties}")
    print(f"  mean H(0.5)={np.mean([p[0] for p in pairs]):.3f}  mean H(0)={np.mean([p[1] for p in pairs]):.3f}")
    return frac, pairs


def ordering_study(n=40, seed=2, scenarios=("lane_merge", "intersection"), **pc_kw):
    """Criterion 8 shape: ours vs passive, comparison mode."""
    summary = {}
    for scenario in scenarios:
        row = {}
        for planner in ("ours", "passive"):
            pc = PlannerConfig(**pc_kw) if pc_kw else PlannerConfig(
                ref_speed=DEFAULT_REF_SPEED[scenario])
            cfg = RunConfig(scenario=scenario, master_seed=seed, planner=planner,
                            planner_cfg=pc, comparison_mode=True)
            t0 = time.time()
            results = [r for r, _, _ in batch(cfg, n)]
            agg = aggregate(results)
            dt = time.time() - t0
            row[planner] = agg
            t_mean = agg.stats["completion_time"][0]
            print(f"{scenario:13s} {planner:8s}: success {agg.success_rate:5.1f}%  "
                  f"time {t_mean:5.2f}s  gap {agg.stats['min_gap'][0]:5.2f}  "
                  f"({dt:.0f}s wall, {agg.termination_counts})")
        dsucc = row["ours"].success_rate - row["passive"].success_rate
        t_ours = row["ours"].stats["completion_time"][0]
        t_pass = row["passive"].stats["completion_time"][0]
        rel = (t_pass - t_ours) / t_pass if t_pass == t_pass else math.nan
        print(f"  -> dsuccess {dsucc:+.1f}pp (need >=+5), time cut {rel:+.1%} (need >=10%)")
        summary[scenario] = (dsucc, rel)
    return summary


if __name__ == "__main__":
    mode = sys.argv[1] if len(sys.argv) > 1 else "both"
    n = int(sys.argv[2]) if len(sys.argv) > 2 else 40
    if mode in ("probe", "both"):
        for pinned in (3,):
            probing_study(n=n, pinned=pinned)
    if mode in ("order", "both"):
        ordering_study(n=n)
