#!/usr/bin/env python3
"""Benchmark of the probeplan package.

    python3 perfbench/run.py --workload merge_probe --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory. ``--trace 0`` measures the end-to-end metrics with one
``perf_counter`` pair around each ``plan_step`` as the only probe, then
starts fresh processes to time set-up. ``--trace 1`` repeats that untraced
pass, replays the same jobs with spans around every layer, checks that both
passes give identical result rows, and reports the per-layer metrics.
``--workload all`` runs every workload in its own process.

Every metric is printed with its unit and sample count; the last line of
standard output is one JSON object with the contract's metrics (see
``BENCHMARK.json``). Full results, and the spans of a traced run, are written
under ``.perfbench_out/``. The exit code is 0 only when the outputs passed
the correctness gate.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from hashlib import sha256
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# BLAS and OpenMP pools pinned to one thread in this process and every
# process it starts, so two workers never oversubscribe two cores.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 60
SPEED_BLOCKS = 5  # speed-kernel blocks before a pass and around set-up runs

# The metrics of the final JSON line, in the order BENCHMARK.json lists them.
END_TO_END = ("setup_s", "steps_per_s", "runs_per_s", "step_ms_p50", "step_ms_p95",
              "peak_rss_mb")
RISK_FNS = ("path_costs", "simulate_ego_path", "cvar")
SITES = ("planner", "baselines")
PER_LAYER = (
    "belief.update.probe.calls_per_step", "belief.update.probe.ms_per_step",
    "belief.entropy.probe.calls_per_step", "belief.entropy.probe.ms_per_step",
    "planner.predicted_observation_mean.ms_per_step", "planner.probe_projection.ms_per_step",
    "belief.update.filter.us_per_call", "belief.relax_mode_weights.us_per_call",
    "planner.solver_evals_per_step", "planner.modes_solved_per_step",
    "planner.solve_us_per_eval",
    *(f"risk.{fn}.{stat}.{site}" for fn in RISK_FNS for site in SITES
      for stat in ("calls_per_step", "us_per_call")),
    "risk.path_costs.samples_per_step", "risk.draw_human_paths.ms_per_step",
    "planner.lane_guidance.ms_per_step", "human.ms_per_step",
    "planner.plan_step.self_ms_per_step", "scenario.loop.self_ms_per_step",
    "scenario.run.s_p50", "scenario.run.s_max",
    "cli.trace_rows.ms_per_run", "cli.bytes_written", "cli.write_ms",
    "config.build_run_config.us_per_call",
    "belief.degenerate_frac", "planner.infeasible_step_frac",
    "trace.overhead_s",
)
# plan_step time outside the per-mode solves: lane guidance and the probe grid.
NOT_SOLVE = ("planner.lane_guidance", "belief.update.probe", "belief.entropy.probe",
             "planner.predicted_observation_mean", "planner.probe_projection")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up and warm up, print 'ready' and exit (times set-up)")
    return parser.parse_args(argv)


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git (which
    would read files outside the checkout); None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy

    src = sha256()
    for path in sorted((SRC / "probeplan").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest(),
        "start_method": multiprocessing.get_start_method(),
        "blas_threads": 1,
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or any finished child, in MB."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def setup_times(args, meter) -> list[float]:
    """Fresh process to ready-to-time, measured from outside, several times,
    with the machine's speed sampled between them."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_SAMPLES):
        meter.sample(min_blocks=SPEED_BLOCKS)
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=SETUP_TIMEOUT_S)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up process failed with code {code}")
        times.append(elapsed)
    meter.sample(min_blocks=SPEED_BLOCKS)
    return times


def end_to_end(p, latencies_s, setups, rss_mb, speed, setup_speed) -> dict:
    """name -> (value, unit, sample count[, samples beyond]).

    Timed metrics are at reference speed (see refspeed.py); ``<name>.wall``
    holds the wall-clock value and ``speed_factor``/``setup_speed_factor``
    the factors."""
    from stats import count_beyond, percentile

    ms = [1e3 * x for x in latencies_s]
    p95 = percentile(ms, 95)
    wall = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "steps_per_s": (p.steps / p.wall, "steps/s", p.steps),
        "runs_per_s": (len(p.rows) / p.wall, "runs/s", len(p.rows)),
        "step_ms_p50": (percentile(ms, 50), "ms", len(ms)),
        "step_ms_p95": (p95, "ms", len(ms), count_beyond(ms, p95)),
    }
    scale = {"setup_s": 1.0 / setup_speed.factor, "steps_per_s": speed.factor,
             "runs_per_s": speed.factor, "step_ms_p50": 1.0 / speed.factor,
             "step_ms_p95": 1.0 / speed.factor}
    out = {name: (value * scale[name], *rest) for name, (value, *rest) in wall.items()}
    out["peak_rss_mb"] = (rss_mb, "MB", 1)
    out["speed_factor"] = (speed.factor, "ratio", len(speed.samples))
    out["setup_speed_factor"] = (setup_speed.factor, "ratio", len(setup_speed.samples))
    out.update({f"{name}.wall": m for name, m in wall.items()})
    return out


def failed_runs(p) -> int:
    """Runs that ended in error or raised (every run started has a row unless
    its call raised)."""
    return p.count("error") + p.attempted - len(p.rows)


def outcome_rates(p) -> dict:
    """Run outcomes over runs attempted."""
    n = max(p.attempted, 1)
    errors = failed_runs(p)
    return {
        "success_rate": (100.0 * p.count("success") / n, "%", p.attempted),
        "violation_rate": (100.0 * p.count("violation") / n, "%", p.attempted),
        "error_rate": (100.0 * errors / n, "%", p.attempted),
    }


def layer_metrics(rec, p, samples_per_cost_call: int, overhead_s: float) -> dict:
    """Per-layer metrics of a traced pass; a metric whose wrapped name is
    absent from the package is left out."""
    from stats import percentile
    from workloads import row_fields

    steps = max(p.steps, 1)
    runs = max(len(p.rows), 1)
    totals = rec.totals()
    own = rec.self_totals()
    have = rec.installed_names
    out = {}

    def calls(name):
        return totals.get(name, (0, 0))[0]

    def ns(name):
        return totals.get(name, (0, 0))[1]

    def put(name, needs, value, unit, n):
        if all(span in have for span in needs):
            out[name] = (value, unit, n)

    def per_call_us(span):
        return ns(span) / 1e3 / calls(span) if calls(span) else 0.0

    for span in ("belief.update.probe", "belief.entropy.probe"):
        put(f"{span}.calls_per_step", [span], calls(span) / steps, "calls/step", calls(span))
        put(f"{span}.ms_per_step", [span], ns(span) / 1e6 / steps, "ms/step", calls(span))
    for span in ("planner.predicted_observation_mean", "planner.probe_projection",
                 "risk.draw_human_paths", "planner.lane_guidance"):
        put(f"{span}.ms_per_step", [span], ns(span) / 1e6 / steps, "ms/step", calls(span))
    for span in ("belief.update.filter", "belief.relax_mode_weights",
                 "config.build_run_config"):
        put(f"{span}.us_per_call", [span], per_call_us(span), "us", calls(span))

    plan = "planner.plan_step"
    evals = rec.counters["planner.solver_evals"]
    put("planner.solver_evals_per_step", [plan], evals / steps, "evals/step", calls(plan))
    put("planner.modes_solved_per_step", [plan], rec.counters["planner.modes_solved"] / steps,
        "modes/step", calls(plan))
    # A NOT_SOLVE name the package no longer has counts as solve time.
    solve_ns = ns(plan) - sum(ns(s) for s in NOT_SOLVE)
    put("planner.solve_us_per_eval", [plan],
        solve_ns / 1e3 / evals if evals else 0.0, "us", int(evals))

    for fn in RISK_FNS:
        for site in SITES:
            span = f"risk.{fn}.{site}"
            put(f"risk.{fn}.calls_per_step.{site}", [span], calls(span) / steps,
                "calls/step", calls(span))
            put(f"risk.{fn}.us_per_call.{site}", [span], per_call_us(span), "us", calls(span))
    cost_spans = [f"risk.path_costs.{site}" for site in SITES]
    cost_calls = sum(calls(s) for s in cost_spans)
    put("risk.path_costs.samples_per_step", cost_spans,
        cost_calls * samples_per_cost_call / steps, "samples/step", cost_calls)

    human = ("human.observe", "human.human_response")
    put("human.ms_per_step", human, sum(ns(s) for s in human) / 1e6 / steps, "ms/step",
        sum(calls(s) for s in human))
    put("planner.plan_step.self_ms_per_step", [plan], own.get(plan, 0) / 1e6 / steps,
        "ms/step", calls(plan))
    put("scenario.loop.self_ms_per_step", ["scenario.run"],
        own.get("scenario.run", 0) / 1e6 / steps, "ms/step", p.steps)
    run_s = [d / 1e9 for d in rec.durations("scenario.run")] or [0.0]
    put("scenario.run.s_p50", ["scenario.run"], percentile(run_s, 50), "s", calls("scenario.run"))
    put("scenario.run.s_max", ["scenario.run"], max(run_s), "s", calls("scenario.run"))

    put("cli.trace_rows.ms_per_run", ["cli.trace_rows"], ns("cli.trace_rows") / 1e6 / runs,
        "ms/run", calls("cli.trace_rows"))
    put("cli.bytes_written", ["cli.write"], rec.counters["cli.bytes"] / runs, "B/run",
        calls("cli.write"))
    put("cli.write_ms", ["cli.write"], ns("cli.write") / 1e6 / runs, "ms/run",
        calls("cli.write"))

    fields = [row_fields(r) for r in p.rows]
    out["belief.degenerate_frac"] = (
        sum(int(f["degenerate_steps"]) for f in fields) / steps, "ratio", p.steps)
    out["planner.infeasible_step_frac"] = (
        sum(int(f["infeasible_steps"]) for f in fields) / steps, "ratio", p.steps)
    out["trace.overhead_s"] = (overhead_s, "s", len(p.rows))
    return {name: out[name] for name in PER_LAYER if name in out}


def measure(wl, args, work: Path) -> dict:
    """Set up, run the untraced pass and then either set-up timing (trace 0)
    or the traced replay (trace 1). Returns the full result record."""
    from refspeed import SpeedMeter
    from spans import Recorder, StepClock
    from stats import tail_ok
    from workloads import Pass, digest

    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment()}
    setup = wl.configure(args.seed, work)
    wl.warm_up(setup)

    untraced = Pass()
    error = None
    clock = StepClock(work / "plan_step_s.bin")
    speed = SpeedMeter(wl.cores)
    speed.sample(min_blocks=SPEED_BLOCKS)
    try:
        with clock.installed():
            wl.run_pass(setup, untraced, seconds=args.seconds, between=speed.sample)
    except Exception:
        error = traceback.format_exc()
    finally:
        latencies = clock.samples()
        clock.close()
    problems = list(untraced.problems)
    metrics = outcome_rates(untraced)
    counted = untraced

    if error is None and args.trace == 0:
        rss = peak_rss_mb()
        setup_speed = SpeedMeter(wl.cores)
        try:
            setups = setup_times(args, setup_speed)
        except (RuntimeError, OSError, subprocess.SubprocessError):
            error = traceback.format_exc()
        else:
            metrics.update(end_to_end(untraced, latencies, setups, rss, speed, setup_speed))
        if not tail_ok([1e3 * x for x in latencies], 95):
            problems.append("fewer than 10 plan_step samples beyond p95")
    elif error is None:
        rec = Recorder()
        traced = Pass()
        try:
            with rec.installed():
                traced_setup = wl.configure(args.seed, work, traced=True)
                wl.run_pass(traced_setup, traced, jobs=untraced.jobs)
        except Exception:
            error = traceback.format_exc()
        problems += traced.problems
        if error is None:
            if traced.rows != untraced.rows:
                problems.append("traced and untraced passes gave different result rows")
            metrics = layer_metrics(rec, traced, wl.samples_per_cost_call(setup),
                                    traced.wall - untraced.wall)
            record["absent"] = rec.absent
            record["spans"] = len(rec)
            spans_path = OUT / f"{wl.name}-seed{args.seed}-spans.csv.gz"
            rec.dump(spans_path)
            record["spans_file"] = spans_path.relative_to(ROOT).as_posix()
        counted = traced if error is not None else untraced
    failed = failed_runs(counted)
    if error is not None:
        # A workload that raises counts every run it attempted as failed.
        problems.append(error)
        failed = counted.attempted
        metrics = outcome_rates(counted)
        metrics["error_rate"] = (100.0, "%", counted.attempted)
    record.update({
        "attempted": counted.attempted,
        "failed": failed,
        "runs": len(untraced.rows),
        "steps": untraced.steps,
        "digest": digest(untraced.rows[:untraced.digest_rows]),
        "digest_rows": min(untraced.digest_rows, len(untraced.rows)),
        "problems": problems,
        "correct": not problems,
        "metrics": metrics,
    })
    return record


def print_report(record: dict) -> None:
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']}")
    print(f"# environment: {json.dumps(record['environment'], sort_keys=True)}")
    for name, (value, unit, n, *beyond) in record["metrics"].items():
        extra = f" ({beyond[0]} beyond)" if beyond else ""
        print(f"  {name:45s} {value:14.6g} {unit:12s} n={n}{extra}")
    if record.get("absent"):
        print(f"# absent (metrics left out): {', '.join(record['absent'])}")
    print(f"# result digest (first {record['digest_rows']} rows): {record['digest']}")
    print(f"# runs={record['runs']} steps={record['steps']} attempted={record['attempted']} "
          f"failed={record['failed']} correct={record['correct']}")
    for problem in record["problems"]:
        print(f"# PROBLEM: {problem}")


def result_line(record: dict) -> str:
    names = PER_LAYER if record["trace"] else END_TO_END
    metrics = {
        name: {"value": record["metrics"][name][0], "unit": record["metrics"][name][1]}
        for name in names
        if name in record["metrics"] and math.isfinite(record["metrics"][name][0])
    }
    return json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


def run_all(args, names) -> int:
    """Every workload in its own process; one failing does not stop the rest."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"# PROBLEM: {name} printed no result (exit {proc.returncode})")
            correct = False
            continue
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "probeplan" / "__init__.py").is_file():
        print(f"error: no probeplan source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import probeplan

    if Path(probeplan.__file__).resolve().parent != (SRC / "probeplan").resolve():
        print(f"error: probeplan imported from {probeplan.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT))
    try:
        if args.setup_only:
            wl.warm_up(wl.configure(args.seed, work))
            print("ready", flush=True)
            return 0
        record = measure(wl, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print_report(record)
    print(result_line(record), flush=True)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
