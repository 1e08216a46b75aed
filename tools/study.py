"""Tuning studies for the closed-loop acceptance criteria (developer tooling,
not shipped):

    python tools/study.py probe [n]
    python tools/study.py slice [out]  # into <out>/slice
    python tools/study.py compare PARENT_RESULTS.csv CHANGE_RESULTS.csv

An unknown study, or a wrong count of arguments, prints this usage and
exits 2.

Each study is a list of arms. An arm is an override list over
``configs/default.yaml``: the study's seed and run count, no traces, the
caller's overrides, then the arm's own fields. Each arm runs through
``probeplan.cli.run_experiment`` into ``<out>/<arm>/`` (``out`` defaults to
``results/study``); its statistics are read back from the ``results.csv``
and ``summary.csv`` there, next to its ``summary.txt`` and ``manifest.json``.

The slice is the yardstick of a behaviour change: ``configs/default.yaml``
(both scenarios, all three planners), runs 0-99 of master seed 20240801.
Initial states and intents are keyed by master seed and run index, so two
trees' slices, and two planners in one slice, pair run by run. ``compare``
prints, per scenario and planner, each tree's success with its 95 %
interval, the paired differences change - parent, and each tree's count of
every termination reason with the runs that did not succeed by reason and
ground-truth intent (named as the built-in target sets name them); then the
paired differences ``ours`` - ``conservative`` and ``ours`` - ``passive`` in
each tree. Intervals are 95 % percentile bootstraps over 10 000 resamples
of runs; paired completion times are over the runs both sides completed.
"""

import csv
import math
import sys
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from probeplan.cli import run_experiment
from probeplan.config import load_config
from probeplan.metrics import ERROR, SUCCESS, TIMEOUT, VIOLATION
from probeplan.scenario import INTENT_NAMES

DEFAULT = ROOT / "configs" / "default.yaml"
OUT = Path("results") / "study"
SLICE_SEED, SLICE_RUNS = 20240801, 100
RESAMPLES, BOOTSTRAP_SEED = 10_000, 0


def run_arm(out, arm, n, seed, overrides, fields):
    """Run one arm into out/arm; return its results.csv and summary.csv rows."""
    base = [f"experiment.master_seed={seed}", f"experiment.runs={n}", "experiment.trace_seeds=[]"]
    run_experiment(DEFAULT, base + list(overrides) + fields, Path(out) / arm)
    return [list(csv.DictReader((Path(out) / arm / name).read_text().splitlines()))
            for name in ("results.csv", "summary.csv")]


def probing_study(n=40, seed=1, scenario="lane_merge", pinned=3, step=20, overrides=(), out=OUT):
    """Criterion 7 shape: entropy at step `step`, lambda 0.5 vs 0. Each arm stops
    after that step, so its final entropy is the one at `step` (or earlier).
    lambda 0 drops only the probe term: both arms search from the same start
    set, bursts included."""
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


def slice_study(out=OUT):
    """Run the slice as the arm ``<out>/slice``; return the path of its
    results.csv."""
    run_arm(out, "slice", SLICE_RUNS, SLICE_SEED, (), [])
    return Path(out) / "slice" / "results.csv"


def read_runs(path, scenario, planner):
    """One combination's rows of a results.csv, by run index."""
    with open(path) as f:
        return {int(r["run_index"]): r for r in csv.DictReader(f)
                if r["scenario"] == scenario and r["planner"] == planner}


def bootstrap_ci(values):
    """(mean, low, high, n): the mean of ``values`` and its 95 % percentile
    interval over ``RESAMPLES`` resamples."""
    values = np.asarray(values, dtype=float)
    if not values.size:
        return math.nan, math.nan, math.nan, 0
    picks = np.random.default_rng(BOOTSTRAP_SEED).integers(0, len(values), (RESAMPLES, len(values)))
    low, high = np.percentile(values[picks].mean(axis=1), [2.5, 97.5])
    return float(values.mean()), float(low), float(high), len(values)


def paired_differences(a, b):
    """Paired differences a - b of two ``read_runs`` maps over the runs both
    hold: success (0/1) and ``min_gap`` over all of them, completion time
    over those both completed. Each is a ``bootstrap_ci`` tuple."""
    runs = sorted(a.keys() & b.keys())
    done = [i for i in runs if a[i]["success"] == b[i]["success"] == "1"]

    def diff(key, over):
        return bootstrap_ci([float(a[i][key]) - float(b[i][key]) for i in over])

    return {"success": diff("success", runs), "completion_time": diff("completion_time", done),
            "min_gap": diff("min_gap", runs)}


def terminations(runs):
    """Each termination reason's run count over a ``read_runs`` map, and the
    runs that did not succeed by (reason, ground-truth intent), in order."""
    counts = Counter(r["termination"] for r in runs.values())
    lost = defaultdict(list)
    for i, r in sorted(runs.items()):
        if r["termination"] != SUCCESS:
            lost[r["termination"], int(r["gt_intent"])].append(i)
    return {t: counts[t] for t in (SUCCESS, TIMEOUT, VIOLATION, ERROR)}, dict(lost)


def _show_ends(counts, lost):
    def name(k):
        return INTENT_NAMES[k - 1] if 1 <= k <= len(INTENT_NAMES) else f"intent {k}"

    ends = ", ".join(f"{t} {n}" for t, n in counts.items())
    runs = "; ".join(f"{t} {name(k)} x{len(i)} (runs {' '.join(map(str, i))})"
                     for (t, k), i in sorted(lost.items()))
    return ends + (f"; not succeeded: {runs}" if runs else "")


def _show(name, stats):
    mean, low, high, n = stats
    scale = 100.0 if name == "success" else 1.0  # success in percentage points
    return f"{name} {mean * scale:+.2f} [{low * scale:+.2f}, {high * scale:+.2f}] (n={n})"


def compare(parent_csv, change_csv):
    """Print the slice's comparison of two trees (see the module notes)."""
    for scenario in ("lane_merge", "intersection"):
        for planner in ("ours", "passive", "conservative"):
            parent, change = (read_runs(p, scenario, planner) for p in (parent_csv, change_csv))
            ci = [bootstrap_ci([float(r["success"]) for r in t.values()]) for t in (parent, change)]
            inside = ci[0][1] <= ci[1][0] <= ci[0][2]
            print(f"{scenario:13s} {planner:12s} success {ci[0][0]:.0%} [{ci[0][1]:.0%}, "
                  f"{ci[0][2]:.0%}] -> {ci[1][0]:.0%} ({'within' if inside else 'OUTSIDE'} "
                  f"the parent's interval)")
            diffs = paired_differences(change, parent)
            print("   change - parent: " + "; ".join(_show(k, v) for k, v in diffs.items()))
            for tree, runs in (("parent", parent), ("change", change)):
                print(f"   {tree} ends: {_show_ends(*terminations(runs))}")
        for tree, path in (("parent", parent_csv), ("change", change_csv)):
            ours = read_runs(path, scenario, "ours")
            for other in ("conservative", "passive"):
                diffs = paired_differences(ours, read_runs(path, scenario, other))
                shown = "; ".join(_show(k, v) for k, v in diffs.items())
                print(f"   {tree} ours - {other}: {shown}")


def main(argv):
    """Run the study ``argv`` names (``probe`` when it names none); print the
    usage and return 2 on an unknown study or a wrong argument count."""
    mode, args = (argv[0], argv[1:]) if argv else ("probe", [])
    if mode == "probe" and len(args) <= 1 and all(a.isdigit() for a in args):
        probing_study(n=int(args[0]) if args else 40)
    elif mode == "slice" and len(args) <= 1:
        print(slice_study(out=Path(args[0]) if args else OUT))
    elif mode == "compare" and len(args) == 2:
        compare(*args)
    else:
        print("usage:\n" + __doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
