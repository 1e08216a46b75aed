"""The benchmark's workloads, driven through the package's public entry
points: ``probeplan.scenario.run`` in process and
``probeplan.cli.run_experiment`` for the batch.

Every workload is a closed loop: a run starts only when the previous one has
finished. Its inputs are generated from the benchmark seed; the package only
sees the generated configs. Each workload starts with a fixed first pass
(``min_jobs``) whose result rows are digested, so two commits can be compared
for moved numerics whatever the machine's speed, and then keeps going until
the measuring time is up and enough ``plan_step`` samples exist for a p95.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import importlib
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from spans import patched
from stats import min_samples_for

# The columns of the package's results.csv that make a result row.
INT_FIELDS = ("run_index", "gt_intent", "success", "steps", "infeasible_steps",
              "degenerate_steps")
FLOAT_FIELDS = ("completion_time", "min_gap", "mean_velocity", "mean_abs_long_jerk",
                "mean_abs_ang_jerk", "final_entropy")
ROW_FIELDS = ("run_index", "scenario", "planner", "gt_intent", "success", "termination",
              "completion_time", "min_gap", "mean_velocity", "mean_abs_long_jerk",
              "mean_abs_ang_jerk", "steps", "final_entropy", "infeasible_steps",
              "degenerate_steps")

MIN_STEPS = min_samples_for(95)  # plan_step samples a p95 needs
INTENTS = (1, 2, 3)
WARM_UP_T_MAX = 0.1  # one control step per warm-up run
NORM_TOL = 1e-9


def canonical_row(values: dict) -> str:
    """One result row as text: ints as ints, floats in shortest round-trip form."""
    cells = []
    for name in ROW_FIELDS:
        v = values[name]
        if name in INT_FIELDS:
            cells.append(str(int(v)))
        elif name in FLOAT_FIELDS:
            cells.append(repr(float(v)))
        else:
            cells.append(str(v))
    return ",".join(cells)


def row_from_run(run_index: int, scenario: str, planner: str, result, log) -> str:
    records = log.records
    return canonical_row({
        "run_index": run_index, "scenario": scenario, "planner": planner,
        "gt_intent": log.gt_intent, "success": result.success,
        "termination": result.termination_reason,
        "completion_time": result.completion_time, "min_gap": result.min_gap,
        "mean_velocity": result.mean_velocity,
        "mean_abs_long_jerk": result.mean_abs_long_jerk,
        "mean_abs_ang_jerk": result.mean_abs_ang_jerk,
        "steps": len(records),
        "final_entropy": records[-1].entropy if records else math.nan,
        "infeasible_steps": sum(1 for r in records if r.infeasible),
        "degenerate_steps": sum(1 for r in records if r.degenerate_evidence),
    })


def row_fields(row: str) -> dict:
    return dict(zip(ROW_FIELDS, row.split(",")))


def row_problems(row: str) -> list[str]:
    """Invariants every result row must hold."""
    f = row_fields(row)
    where = f"{f['scenario']}/{f['planner']} run {f['run_index']}"
    out = []
    success = f["success"] == "1"
    for name in FLOAT_FIELDS:
        value = float(f[name])
        if name == "completion_time":
            if math.isfinite(value) != success:
                out.append(f"{where}: completion_time {value} with success={success}")
        elif name == "final_entropy" and f["steps"] == "0":
            continue
        elif not math.isfinite(value):
            out.append(f"{where}: {name} is {value}")
    if not float(f["min_gap"]) >= 0.0:
        out.append(f"{where}: min_gap {f['min_gap']} < 0")
    return out


def _normalized(p) -> bool:
    total = 0.0
    for x in p:
        if not x >= 0.0:
            return False
        total += float(x)
    return abs(total - 1.0) <= NORM_TOL


def log_problems(log) -> list[str]:
    """Every recorded intent distribution and mode-weight row is normalized."""
    for r in log.records:
        if not _normalized(r.pi) or not all(_normalized(w) for w in r.w_rows):
            return [f"{log.scenario}/{log.planner} run {log.run_index} step {r.step}: "
                    "belief not normalized"]
    return []


def trace_file_problems(path: Path) -> list[str]:
    """Intent probabilities in a trace CSV the batch wrote are normalized."""
    with path.open(newline="") as f:
        reader = csv.DictReader(f)
        cols = [c for c in reader.fieldnames or () if c.startswith("pi_")]
        for rec in reader:
            if not _normalized([float(rec[c]) for c in cols]):
                return [f"{path.name} step {rec['step']}: pi not normalized"]
    return []


def digest(rows: list[str]) -> str:
    return hashlib.sha256(("\n".join(rows) + "\n").encode()).hexdigest()


@dataclass
class Pass:
    """What one closed-loop pass did. ``attempted`` counts runs started."""

    rows: list[str] = field(default_factory=list)
    run_walls: list[float] = field(default_factory=list)
    jobs: int = 0
    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    digest_rows: int = 0

    @property
    def wall(self) -> float:
        return sum(self.run_walls)

    @property
    def steps(self) -> int:
        return sum(int(row_fields(r)["steps"]) for r in self.rows)

    def count(self, termination: str) -> int:
        return sum(1 for r in self.rows if row_fields(r)["termination"] == termination)


def _more(k: int, steps: int, start: float, seconds, jobs, min_jobs: int) -> bool:
    """Whether a pass starts job k: exactly ``jobs`` jobs when given, else
    until ``seconds`` have passed, the first ``min_jobs`` jobs are done and
    MIN_STEPS control steps exist."""
    if jobs is not None:
        return k < jobs
    return k < min_jobs or steps < MIN_STEPS or time.perf_counter() - start < seconds


def _write_yaml(path: Path, body: dict) -> Path:
    with path.open("w") as f:
        yaml.safe_dump(body, f, sort_keys=True)
    return path


@dataclass(frozen=True)
class InProcess:
    """Runs of one scenario through ``probeplan.scenario.run``, cycling the
    planners run by run and the ground-truth intent run index by run index,
    so every measurement holds the intents in near-equal shares. Runs stop
    at ``t_max`` so that one measurement holds many encounters: per-step cost
    differs widely between encounters, and a few long runs would make the
    figures depend on which encounters the seed drew."""

    name: str
    scenario: str
    planners: tuple[str, ...]
    t_max: float

    cores = 1  # processes the workload keeps busy, and so the speed kernel runs in

    @property
    def min_jobs(self) -> int:
        return len(INTENTS) * len(self.planners)

    def job(self, k: int) -> tuple[str, int, int]:
        """Job k: (planner, run index, intent). A planner listed twice in
        ``planners`` runs twice per cycle; each planner numbers its own runs."""
        cycle, pos = divmod(k, len(self.planners))
        planner = self.planners[pos]
        run_index = (cycle * self.planners.count(planner)
                     + self.planners[:pos].count(planner))
        return planner, run_index, INTENTS[run_index % len(INTENTS)]

    def configure(self, seed: int, work: Path, traced: bool = False) -> dict:
        config = importlib.import_module("probeplan.config")
        run_configs = {}
        for intent in INTENTS:
            path = _write_yaml(work / f"{self.name}-intent{intent}.yaml", {
                "experiment": {"runs": 1, "master_seed": seed, "scenario": self.scenario,
                               "planner": sorted(set(self.planners))},
                "human": {"pinned_intent": intent},
                "scenario": {"t_max": self.t_max},
            })
            cfg = config.load_config(path)
            for planner in set(self.planners):
                run_configs[planner, intent] = config.build_run_config(cfg, self.scenario, planner)
        return run_configs

    def samples_per_cost_call(self, run_configs: dict) -> int:
        cfg = next(iter(run_configs.values())).planner_cfg
        return cfg.rollout_count * cfg.horizon_steps

    def warm_up(self, run_configs: dict) -> None:
        scenario = importlib.import_module("probeplan.scenario")
        for planner in sorted(set(self.planners)):
            cfg = dataclasses.replace(run_configs[planner, INTENTS[0]], t_max=WARM_UP_T_MAX)
            scenario.run(cfg, run_index=0)

    def run_pass(self, run_configs: dict, out: Pass, seconds: float | None = None,
                 jobs: int | None = None, between=None) -> None:
        """Run jobs while ``_more`` says so; ``between`` is called after each
        run, outside the timed region."""
        scenario = importlib.import_module("probeplan.scenario")
        out.digest_rows = self.min_jobs
        start = time.perf_counter()
        steps = 0
        k = 0
        while _more(k, steps, start, seconds, jobs, self.min_jobs):
            planner, run_index, intent = self.job(k)
            out.attempted += 1
            t0 = time.perf_counter()
            result, log = scenario.run(run_configs[planner, intent], run_index=run_index)
            out.run_walls.append(time.perf_counter() - t0)
            row = row_from_run(run_index, self.scenario, planner, result, log)
            out.rows.append(row)
            out.problems += row_problems(row) + log_problems(log)
            steps += len(log.records)
            k += 1
            if between:
                between()
        out.jobs = k


@dataclass(frozen=True)
class Batch:
    """Repeated ``run_experiment`` calls over both scenarios and all three
    planners with the reduced budgets of ``configs/smoke.yaml``; call k uses
    master seed seed*1000+k and traces every run. Runs stop at ``t_max``, so
    that a measurement holds several calls: each call's wall time is set by
    its slowest worker, and a few long calls would make the figures depend
    on which runs the seed drew."""

    name: str
    t_max: float

    runs_per_combo = 2
    workers = 2
    budgets = {"rollout_count": 50, "obs_samples": 10, "solver_iters": 4}
    scenarios = ("lane_merge", "intersection")
    planners = ("ours", "passive", "conservative")
    runs_per_call = runs_per_combo * len(scenarios) * len(planners)
    min_jobs = 1  # one run_experiment call
    cores = workers

    def config(self, master_seed: int, workers: int, runs: int, t_max: float) -> dict:
        return {
            "experiment": {"runs": runs, "master_seed": master_seed,
                           "scenario": list(self.scenarios), "planner": list(self.planners),
                           "comparison_mode": False, "workers": workers,
                           "trace_seeds": list(range(runs))},
            "planner": dict(self.budgets),
            "scenario": {"t_max": t_max},
        }

    def configure(self, seed: int, work: Path, traced: bool = False) -> dict:
        # The traced pass keeps runs in process: spans from forked workers
        # would never reach this process.
        return {"seed": seed, "work": work, "workers": 1 if traced else self.workers}

    def samples_per_cost_call(self, setup: dict) -> int:
        planner = importlib.import_module("probeplan.planner")
        cfg = planner.PlannerConfig(**self.budgets)
        return cfg.rollout_count * cfg.horizon_steps

    def warm_up(self, setup: dict) -> None:
        """A tiny batch: imports, config loading and pool start."""
        cli = importlib.import_module("probeplan.cli")
        work = setup["work"]
        path = _write_yaml(work / "warm-up.yaml",
                           self.config(setup["seed"], setup["workers"], 1, WARM_UP_T_MAX))
        cli.run_experiment(path, out_dir=work / "warm-up")
        shutil.rmtree(work / "warm-up")

    def run_pass(self, setup: dict, out: Pass, seconds: float | None = None,
                 jobs: int | None = None, between=None) -> None:
        """Run ``run_experiment`` calls while ``_more`` says so; ``between``
        is called after each call, outside the timed region.

        With one worker the runs stay in this process, so every run is also
        turned into a row straight from ``run()``'s return value and compared
        with the row the batch wrote.
        """
        cli = importlib.import_module("probeplan.cli")
        work = setup["work"]
        direct_check = setup["workers"] == 1
        out.digest_rows = self.runs_per_call
        start = time.perf_counter()
        steps = 0
        k = 0
        while _more(k, steps, start, seconds, jobs, self.min_jobs):
            path = _write_yaml(work / f"batch{k}.yaml", self.config(
                setup["seed"] * 1000 + k, setup["workers"], self.runs_per_combo, self.t_max))
            out_dir = work / f"batch{k}"
            direct: list[str] = []
            out.attempted += self.runs_per_call
            t0 = time.perf_counter()
            if direct_check:
                with _capturing_runs(cli, direct, out.problems):
                    cli.run_experiment(path, out_dir=out_dir)
            else:
                cli.run_experiment(path, out_dir=out_dir)
            out.run_walls.append(time.perf_counter() - t0)
            rows = _read_results(out_dir / "results.csv")
            if direct_check and sorted(direct) != sorted(rows):
                out.problems.append(f"batch {k}: results.csv differs from run() called directly")
            for trace in sorted(out_dir.glob("trace_*.csv")):
                out.problems += trace_file_problems(trace)
            out.rows += rows
            for row in rows:
                out.problems += row_problems(row)
                steps += int(row_fields(row)["steps"])
            shutil.rmtree(out_dir)
            k += 1
            if between:
                between()
        out.jobs = k


def _capturing_runs(cli, rows: list[str], problems: list[str]):
    """Wrap ``probeplan.cli.run`` so each run's own return value yields a row
    and its belief log is checked; sees runs only while they stay in process."""
    inner = cli.run

    def run(cfg, run_index=0):
        result, log = inner(cfg, run_index=run_index)
        rows.append(row_from_run(run_index, cfg.scenario, cfg.planner, result, log))
        problems.extend(log_problems(log))
        return result, log

    return patched([(cli, "run", run)])


def _read_results(path: Path) -> list[str]:
    with path.open(newline="") as f:
        return [canonical_row(rec) for rec in csv.DictReader(f)]


WORKLOADS = {
    w.name: w
    for w in (
        # Why each workload is here: BENCHMARK.json and README.md.
        InProcess(
            name="merge_probe",
            scenario="lane_merge",
            planners=("ours",),
            t_max=1.0,
        ),
        InProcess(
            name="crossing_hedge",
            scenario="intersection",
            # Two passive runs per conservative one puts the step-latency
            # median inside the passive mode, not in the gap between the
            # planners' latency modes, where it would jump between runs.
            planners=("passive", "passive", "conservative"),
            t_max=2.0,
        ),
        Batch(name="batch_mixed", t_max=2.0),
    )
}
