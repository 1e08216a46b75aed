"""Interleaved A/B timing of two probeplan source trees in one process.

Usage: python tools/abtime.py TREE_A TREE_B [--shape NAME] [--runs N]
       [--seed N] [--t-max S]

Each TREE is a ``probeplan`` package directory (``src/probeplan``) or a
checkout holding one. Both are loaded under their own package names (the
package imports itself only relatively), and the runs of one workload shape
alternate between them run by run, the first tree switching each run, so
both see the same phases of the machine. Every run goes through the tree's
own ``scenario.run``; the planners and scenarios cycle run by run and the
ground-truth intent run index by run index, as in the benchmark's in-process
workloads.

Prints per tree and per planner the control steps and the wall time per
step, each tree over its own steps: two trees whose outputs differ take
different numbers of steps. Then for how many run pairs tree B took less
time per step, the median pair's ratio of time per step, and per tree
and planner the p50 and p95 of the ``plan_step`` latency, one
``perf_counter`` pair around each call as the benchmark's ``StepClock``
takes it. Each run's trace rows (the tree's ``cli.trace_rows``) are built
after its timed region, or inside it for a shape that traces every run,
as the benchmark's batch does. Exits 1 if any pair's result row, executed
controls or trace rows differ, 0 otherwise, and 2 on a bad option or a
missing tree.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import importlib.util
import math
import statistics
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

INTENTS = (1, 2, 3)


@dataclass(frozen=True)
class Shape:
    scenarios: tuple[str, ...]
    planners: tuple[str, ...]  # a planner listed twice runs twice per cycle
    t_max: float
    comparison_mode: bool = True
    budgets: tuple[tuple[str, int], ...] = ()
    traced: bool = False  # each run's trace rows are built inside its timed region


SHAPES = {
    "merge_probe": Shape(("lane_merge",), ("ours",), 1.0),
    "crossing_hedge": Shape(("intersection",), ("passive", "passive", "conservative"), 2.0),
    # The batch's reduced budgets, run in process one scenario x planner at a time.
    "batch_mixed": Shape(("lane_merge", "intersection"), ("ours", "passive", "conservative"), 2.0,
                         comparison_mode=False,
                         budgets=(("rollout_count", 50), ("obs_samples", 10), ("solver_iters", 4)),
                         traced=True),
}


def load_tree(path: str, name: str):
    """Import the package at ``path`` as ``name``; returns its ``scenario``
    module."""
    root = Path(path)
    if (root / "src" / "probeplan" / "__init__.py").is_file():
        root = root / "src" / "probeplan"
    for loaded in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[loaded]
    if not (root / "__init__.py").is_file():
        # Exit 2, a usage error: exit 1 means the trees' results differ.
        print(f"no probeplan package at {path}", file=sys.stderr)
        raise SystemExit(2)
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)])
    sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules[name])
    return importlib.import_module(f"{name}.scenario")


def clock_plan_steps(scenario) -> list[float]:
    """Wrap the ``plan_step`` of every planner class in ``scenario``'s tree,
    as the class resolves it now (its own or inherited), so that each call
    appends its seconds to the returned list."""
    samples = []

    def wrap(plan_step):
        @functools.wraps(plan_step)
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            out = plan_step(*args, **kwargs)
            samples.append(time.perf_counter() - t0)
            return out

        return timed

    # Every original is read before any is replaced, so nothing is wrapped twice.
    for cls, timed in [(cls, wrap(cls.plan_step)) for cls in set(scenario.PLANNERS.values())]:
        cls.plan_step = timed
    return samples


def jobs(shape: Shape, n: int) -> list[tuple[str, str, int, int]]:
    """The first ``n`` jobs (scenario, planner, run index, intent); each
    scenario x planner numbers its own runs."""
    combos = [(s, p) for s in shape.scenarios for p in shape.planners]
    out = []
    for k in range(n):
        scenario, planner = combos[k % len(combos)]
        run_index = sum(1 for j in out if j[:2] == (scenario, planner))
        out.append((scenario, planner, run_index, INTENTS[run_index % len(INTENTS)]))
    return out


def run_one(tree, job, shape: Shape, seed: int, t_max: float):
    """One run through a tree's ``scenario`` module and its ``plan_step``
    clock: wall seconds, steps, the run's ``plan_step`` seconds, its result
    row, its executed controls as bytes and its trace rows."""
    (scenario, clock), (kind, planner, run_index, intent) = tree, job
    trace_rows = importlib.import_module(f"{scenario.__package__}.cli").trace_rows
    planner_cfg = scenario.PlannerConfig(
        ref_speed=scenario.DEFAULT_REF_SPEED[kind], **dict(shape.budgets))
    cfg = scenario.RunConfig(
        scenario=kind, master_seed=seed, planner=planner, planner_cfg=planner_cfg,
        t_max=t_max, comparison_mode=shape.comparison_mode, pinned_intent=intent)
    clock.clear()
    t0 = time.perf_counter()
    result, log = scenario.run(cfg, run_index)
    trace = trace_rows(log) if shape.traced else None
    wall = time.perf_counter() - t0
    if trace is None:  # built outside the timed region
        trace = trace_rows(log)
    row = tuple(repr(getattr(result, f.name)) for f in fields(result))
    return wall, len(log.records), clock[:], row, log.controls.tobytes(), trace


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree_a")
    parser.add_argument("tree_b")
    parser.add_argument("--shape", choices=sorted(SHAPES), default="crossing_hedge")
    parser.add_argument("--runs", type=int, default=30, help="runs per tree")
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--t-max", type=float, default=None,
                        help="seconds per run (default: the shape's)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be at least 0")
    if args.t_max is not None and not 0.0 < args.t_max < math.inf:
        parser.error("--t-max must be positive and finite")
    shape = SHAPES[args.shape]
    t_max = shape.t_max if args.t_max is None else args.t_max
    trees = [load_tree(args.tree_a, "_abtime_a"), load_tree(args.tree_b, "_abtime_b")]
    trees = [(scenario, clock_plan_steps(scenario)) for scenario in trees]

    timed = []  # (planner, wall A, wall B, steps A, steps B, plan_step seconds A, B) per job
    differ = []
    for k, job in enumerate(jobs(shape, args.runs)):
        order = (0, 1) if k % 2 == 0 else (1, 0)
        out = [None, None]
        for i in order:
            out[i] = run_one(trees[i], job, shape, args.seed, t_max)
        (wall_a, steps_a, lat_a, *got_a), (wall_b, steps_b, lat_b, *got_b) = out
        for what, a, b in zip(("result rows", "controls", "trace rows"), got_a, got_b):
            if a != b:
                differ.append(f"{job[0]}/{job[1]} run {job[2]}: {what} differ")
                break
        timed.append((job[1], wall_a, wall_b, steps_a, steps_b, lat_a, lat_b))

    print(f"shape {args.shape}: {args.runs} runs per tree, seed {args.seed}, t_max {t_max}")
    print(f"{'planner':<14}{'A steps':>8}{'B steps':>8}{'A ms/step':>11}{'B ms/step':>11}"
          f"{'B/A':>8}{'B faster':>10}{'median pair B/A':>17}"
          + "".join(f"{f'{tree} {q} ms':>11}" for tree in "AB" for q in ("p50", "p95")))
    for planner in [*sorted({t[0] for t in timed}), "all"]:
        _, a, b, n_a, n_b, lat_a, lat_b = zip(*[t for t in timed if planner in (t[0], "all")])
        ms_a, ms_b = 1e3 * sum(a) / max(sum(n_a), 1), 1e3 * sum(b) / max(sum(n_b), 1)
        # Each run's seconds per step; a run that failed before its first
        # step counts as one step.
        per_a = [w / max(n, 1) for w, n in zip(a, n_a)]
        per_b = [w / max(n, 1) for w, n in zip(b, n_b)]
        faster = sum(y < x for x, y in zip(per_a, per_b))
        pair = statistics.median(y / x for x, y in zip(per_a, per_b))
        # numpy's linear percentile, as the benchmark's step_ms_p50 and p95;
        # NaN when every run failed before its first step returned.
        tails = [1e3 * np.percentile(x, (50, 95)) if (x := np.concatenate(lat)).size
                 else (math.nan, math.nan) for lat in (lat_a, lat_b)]
        print(f"{planner:<14}{sum(n_a):>8}{sum(n_b):>8}{ms_a:>11.3f}{ms_b:>11.3f}"
              f"{ms_b / ms_a:>8.3f}{f'{faster}/{len(a)}':>10}{pair:>17.3f}"
              + "".join(f"{v:>11.3f}" for tail in tails for v in tail))
    for line in differ:
        print(f"DIFFERS: {line}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
