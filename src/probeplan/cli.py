"""Batch experiment runner.

Executes seeded run batches across planner x scenario combinations, writes
a per-run results CSV, aggregate summaries, optional per-run trace files,
and a manifest tying outputs to the config hash. Every output byte is
determined by (config, master seed), independent of worker count: workers
only parallelize runs whose streams are keyed by run index, and rows are
written in run-index order.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from multiprocessing import Pool
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    build_run_config,
    config_hash,
    load_config,
    planner_list,
    scenario_list,
)
from .errors import ConfigError
from .metrics import aggregate
from .scenario import RunLog, run

RESULTS_HEADER = (
    "run_index,scenario,planner,gt_intent,success,termination,completion_time,"
    "min_gap,mean_velocity,mean_abs_long_jerk,mean_abs_ang_jerk,steps,"
    "final_entropy,infeasible_steps,degenerate_steps"
)

SUMMARY_HEADER = (
    "scenario,planner,runs,success_rate,completion_time_mean,completion_time_std,"
    "min_gap_mean,min_gap_std,mean_velocity_mean,mean_velocity_std,"
    "long_jerk_mean,long_jerk_std,ang_jerk_mean,ang_jerk_std"
)


def _fmt(x: float) -> str:
    """Shortest round-trip decimal form; deterministic for equal doubles."""
    return repr(float(x))


def _result_row(idx: int, scenario: str, planner: str, result, log: RunLog) -> str:
    final_entropy = log.records[-1].entropy if log.records else math.nan
    infeasible = sum(1 for r in log.records if r.infeasible)
    degenerate = sum(1 for r in log.records if r.degenerate_evidence)
    return ",".join(
        [
            str(idx), scenario, planner, str(log.gt_intent),
            str(int(result.success)), result.termination_reason,
            _fmt(result.completion_time), _fmt(result.min_gap),
            _fmt(result.mean_velocity), _fmt(result.mean_abs_long_jerk),
            _fmt(result.mean_abs_ang_jerk), str(len(log.records)),
            _fmt(final_entropy), str(infeasible), str(degenerate),
        ]
    )


def trace_rows(log: RunLog) -> list[str]:
    """Plot-ready per-step series mirroring the interaction panels:
    belief, entropy, per-mode risk, control effort, and both states."""
    targets = log.targets
    mode_cols = [f"cvar_{t.intent_id}_{t.mode_id}" for t in targets.targets]
    header = (
        ["step", "t"]
        + [f"pi_{i + 1}" for i in range(targets.num_intents)]
        + [f"wmax_{i + 1}" for i in range(targets.num_intents)]
        + ["entropy"]
        + mode_cols
        + ["u_accel", "u_yaw_rate", "u_norm",
           "ego_x", "ego_y", "ego_v", "ego_theta",
           "human_x", "human_y", "human_v", "human_theta",
           "degenerate_evidence", "infeasible", "blend_fallback"]
    )
    rows = [",".join(header)]
    for r in log.records:
        cells = [str(r.step), _fmt(r.t)]
        cells += [_fmt(p) for p in r.pi]
        cells += [_fmt(float(np.max(w))) for w in r.w_rows]
        cells.append(_fmt(r.entropy))
        cells += [_fmt(c) for c in r.cvar_pre]
        cells += [_fmt(r.u[0]), _fmt(r.u[1]), _fmt(float(np.hypot(r.u[0], r.u[1])))]
        cells += [_fmt(r.ego.x), _fmt(r.ego.y), _fmt(r.ego.v), _fmt(r.ego.theta)]
        cells += [_fmt(r.human.x), _fmt(r.human.y), _fmt(r.human.v), _fmt(r.human.theta)]
        cells += [str(int(r.degenerate_evidence)), str(int(r.infeasible)),
                  str(int(r.blend_fallback))]
        rows.append(",".join(cells))
    return rows


def _worker(job) -> tuple:
    run_cfg, idx, want_trace = job
    scenario, planner = run_cfg.scenario, run_cfg.planner
    result, log = run(run_cfg, run_index=idx)
    row = _result_row(idx, scenario, planner, result, log)
    trace = trace_rows(log) if want_trace else None
    return idx, scenario, planner, result, row, trace


def run_experiment(
    config_path: str | Path,
    overrides: list[str] | None = None,
    out_dir: str | Path | None = None,
) -> int:
    """Execute the batch an experiment config describes. Returns 0 on
    success; raises ConfigError for malformed configs and OSError for
    unwritable outputs (the CLI maps both to nonzero exits)."""
    cfg = load_config(config_path, overrides)
    exp = cfg["experiment"]
    out = Path(
        out_dir
        or exp["out_dir"]
        or os.environ.get("PROBEPLAN_OUT", "results")
    )
    out.mkdir(parents=True, exist_ok=True)

    runs = exp["runs"]
    trace_set = set(exp["trace_seeds"])
    combos = [(s, p) for s in scenario_list(cfg) for p in planner_list(cfg)]
    # One RunConfig per combination, shared by its runs: building one reads
    # the mode-target file when the config names one.
    jobs = [
        (run_cfg, idx, idx in trace_set)
        for run_cfg in (build_run_config(cfg, s, p) for s, p in combos)
        for idx in range(runs)
    ]

    workers = exp["workers"]
    if workers > 1:
        with Pool(processes=workers) as pool:
            # One job per task: run costs differ about tenfold, so fixed
            # chunks leave one worker with most of the batch.
            outputs = pool.map(_worker, jobs, chunksize=1)
    else:
        outputs = [_worker(j) for j in jobs]
    # Deterministic output order regardless of scheduling.
    outputs.sort(key=lambda o: (combos.index((o[1], o[2])), o[0]))

    lines = [RESULTS_HEADER]
    by_combo: dict[tuple[str, str], list] = {c: [] for c in combos}
    for idx, scenario, planner, result, row, trace in outputs:
        lines.append(row)
        by_combo[(scenario, planner)].append(result)
        if trace is not None:
            trace_path = out / f"trace_{scenario}_{planner}_run{idx:05d}.csv"
            trace_path.write_text("\n".join(trace) + "\n")

    results_path = out / "results.csv"
    results_path.write_text("\n".join(lines) + "\n")

    summary_lines = [SUMMARY_HEADER]
    pretty = [
        "Aggregate summary (mean +/- population std; completion time over "
        "successful runs only; gap is the per-run minimum center distance)",
        "",
    ]
    for (scenario, planner), results in by_combo.items():
        agg = aggregate(results)
        t_mean, t_std = agg.stats["completion_time"]
        g_mean, g_std = agg.stats["min_gap"]
        v_mean, v_std = agg.stats["mean_velocity"]
        lj_mean, lj_std = agg.stats["mean_abs_long_jerk"]
        aj_mean, aj_std = agg.stats["mean_abs_ang_jerk"]
        summary_lines.append(
            ",".join(
                [scenario, planner, str(agg.n_runs), _fmt(agg.success_rate)]
                + [_fmt(v) for v in (t_mean, t_std, g_mean, g_std, v_mean,
                                     v_std, lj_mean, lj_std, aj_mean, aj_std)]
            )
        )
        pretty.append(f"{scenario} / {planner}  (n={agg.n_runs})")
        pretty.append(f"  success rate      : {agg.success_rate:.1f}%")
        pretty.append(f"  completion time   : {t_mean:.2f} +/- {t_std:.2f} s")
        pretty.append(f"  min gap           : {g_mean:.2f} +/- {g_std:.2f} m")
        pretty.append(f"  velocity          : {v_mean:.2f} +/- {v_std:.2f} m/s")
        pretty.append(f"  long jerk         : {lj_mean:.3f} +/- {lj_std:.3f} m/s^3")
        pretty.append(f"  angular jerk      : {aj_mean:.4f} +/- {aj_std:.4f} rad/s^3")
        pretty.append("")
    (out / "summary.csv").write_text("\n".join(summary_lines) + "\n")
    (out / "summary.txt").write_text("\n".join(pretty) + "\n")

    manifest = {
        "version": __version__,
        "config_hash": config_hash(cfg),
        "master_seed": exp["master_seed"],
        "runs_per_combo": runs,
        "combos": [list(c) for c in combos],
        "results_rows": len(lines) - 1,
        "files": {
            "results": "results.csv",
            "summary_csv": "summary.csv",
            "summary_txt": "summary.txt",
        },
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="probeplan",
        description="Seeded batch experiments for the interaction planner.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute the batch a config describes")
    runp.add_argument("config", help="experiment config file (YAML)")
    runp.add_argument("--scenario", help="override experiment.scenario")
    runp.add_argument("--planner", help="override experiment.planner")
    runp.add_argument("--runs", type=int, help="override experiment.runs")
    runp.add_argument("--seed", type=int, help="override experiment.master_seed")
    runp.add_argument("--workers", type=int, help="override experiment.workers")
    runp.add_argument("--out", help="output directory (default: PROBEPLAN_OUT or ./results)")
    runp.add_argument("--trace-seeds", help="comma-separated run indices to trace")
    runp.add_argument(
        "--set", action="append", default=[], metavar="SECTION.FIELD=VALUE",
        help="dotted-path override, repeatable",
    )
    args = parser.parse_args(argv)

    overrides = list(args.set)
    if args.scenario:
        overrides.append(f"experiment.scenario={args.scenario}")
    if args.planner:
        overrides.append(f"experiment.planner={args.planner}")
    if args.runs is not None:
        overrides.append(f"experiment.runs={args.runs}")
    if args.seed is not None:
        overrides.append(f"experiment.master_seed={args.seed}")
    if args.workers is not None:
        overrides.append(f"experiment.workers={args.workers}")
    if args.trace_seeds:
        overrides.append(f"experiment.trace_seeds=[{args.trace_seeds}]")

    try:
        return run_experiment(args.config, overrides, args.out)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
