"""Probes the benchmark installs on the package from outside it.

Two kinds, both put in place by replacing module or class attributes and
taken out again on exit; no file under ``src/`` changes:

* ``StepClock``: one ``perf_counter`` pair around each ``plan_step``, the
  only probe in the untraced run that gives the end-to-end metrics. Samples
  are appended to a file opened with ``O_APPEND``, so forked pool workers
  report theirs too.
* ``Recorder``: spans around the package's functions, wrapped at each module
  that imports them, so a call site keeps its own name
  (``probeplan.planner.update`` is the probe grid, ``probeplan.scenario.update``
  the filter). Spans stay in memory and are written out when the run ends.

A wrapped name that no longer exists is recorded as absent, and every metric
built on it is left out, so refactors of the package do not break the
benchmark.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import os
import pathlib
import struct
import time
from array import array
from collections import defaultdict

# (importing module, attribute, span name). The same function imported by
# two modules gets two names, one per call site.
WRAPS = (
    ("probeplan.scenario", "run", "scenario.run"),
    ("probeplan.scenario", "update", "belief.update.filter"),
    ("probeplan.scenario", "relax_mode_weights", "belief.relax_mode_weights"),
    ("probeplan.scenario", "entropy", "belief.entropy.filter"),
    ("probeplan.scenario", "observe", "human.observe"),
    ("probeplan.scenario", "human_response", "human.human_response"),
    ("probeplan.planner", "update", "belief.update.probe"),
    ("probeplan.planner", "entropy", "belief.entropy.probe"),
    ("probeplan.planner", "predicted_observation_mean", "planner.predicted_observation_mean"),
    ("probeplan.planner", "probe_projection", "planner.probe_projection"),
    ("probeplan.planner", "lane_guidance", "planner.lane_guidance"),
    ("probeplan.planner", "simulate_ego_path", "risk.simulate_ego_path.planner"),
    ("probeplan.planner", "path_costs", "risk.path_costs.planner"),
    ("probeplan.planner", "cvar", "risk.cvar.planner"),
    ("probeplan.planner", "draw_human_paths", "risk.draw_human_paths"),
    ("probeplan.baselines", "lane_guidance", "planner.lane_guidance"),
    ("probeplan.baselines", "simulate_ego_path", "risk.simulate_ego_path.baselines"),
    ("probeplan.baselines", "path_costs", "risk.path_costs.baselines"),
    ("probeplan.baselines", "cvar", "risk.cvar.baselines"),
    ("probeplan.config", "load_config", "config.load_config"),
    ("probeplan.config", "build_run_config", "config.build_run_config"),
    ("probeplan.cli", "run", "scenario.run"),
    ("probeplan.cli", "load_config", "config.load_config"),
    ("probeplan.cli", "build_run_config", "config.build_run_config"),
    ("probeplan.cli", "trace_rows", "cli.trace_rows"),
)
PLAN_STEP = "planner.plan_step"
WRITE = "cli.write"

_MISSING = object()


@contextlib.contextmanager
def patched(patches):
    """Set each (owner, attribute, value) for the duration of the block."""
    saved = []
    try:
        for owner, attr, value in patches:
            saved.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


def _planner_classes():
    scenario = importlib.import_module("probeplan.scenario")
    return list(getattr(scenario, "PLANNERS", {}).values())


def _plan_step_patches(make_wrapper):
    """One wrapper per planner class, around the plan_step the class
    resolves to now (its own or inherited), so nothing is wrapped twice."""
    patches = []
    for cls in _planner_classes():
        original = getattr(cls, "plan_step", None)
        if original is not None:
            patches.append((cls, "plan_step", make_wrapper(original)))
    return patches


class StepClock:
    """``plan_step`` latencies in seconds, gathered across forked workers."""

    def __init__(self, path: pathlib.Path):
        self.path = path
        self._fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_APPEND, 0o644)

    def _wrap(self, fn):
        fd = self._fd
        pack = struct.Struct("d").pack

        @functools.wraps(fn)
        def plan_step(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            os.write(fd, pack(time.perf_counter() - t0))
            return out

        return plan_step

    def installed(self):
        return patched(_plan_step_patches(self._wrap))

    def samples(self) -> list[float]:
        data = array("d")
        data.frombytes(self.path.read_bytes())
        return data.tolist()

    def close(self) -> None:
        os.close(self._fd)


class Recorder:
    """In-memory spans (name, parent, start, end) plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("l")
        self.t0 = array("q")
        self.t1 = array("q")
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.installed_names: set[str] = set()
        self.absent: list[str] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        stack, name_id, parent, t0s, t1s = (
            self._stack, self.name_id, self.parent, self.t0, self.t1)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            idx = len(t0s)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            t1s.append(0)
            stack.append(idx)
            t0s.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                t1s[idx] = clock()
                stack.pop()

        return spanned

    def _plan_step(self, fn):
        spanned = self.wrap(PLAN_STEP, fn)
        counters = self.counters

        @functools.wraps(fn)
        def plan_step(*args, **kwargs):
            u, diag = spanned(*args, **kwargs)
            counters["planner.solver_evals"] += getattr(diag, "solver_evals", 0)
            counters["planner.modes_solved"] += sum(
                1 for m in getattr(diag, "modes", ()) if getattr(m, "nu", None) is not None
            )
            return u, diag

        return plan_step

    def _write_text(self, fn):
        spanned = self.wrap(WRITE, fn)
        counters = self.counters

        @functools.wraps(fn)
        def write_text(*args, **kwargs):
            written = spanned(*args, **kwargs)
            counters["cli.bytes"] += written  # characters; the outputs are ASCII
            return written

        return write_text

    def installed(self):
        """Context manager wrapping every name in WRAPS that still exists,
        ``plan_step`` on each planner class, and ``Path.write_text``."""
        patches = []
        for module_name, attr, span in WRAPS:
            try:
                module = importlib.import_module(module_name)
            except ModuleNotFoundError:
                module = None
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self.installed_names.add(span)
            patches.append((module, attr, self.wrap(span, fn)))
        plan_patches = _plan_step_patches(self._plan_step)
        if plan_patches:
            self.installed_names.add(PLAN_STEP)
        else:
            self.absent.append("probeplan.scenario.PLANNERS[*].plan_step")
        patches += plan_patches
        patches.append((pathlib.Path, "write_text", self._write_text(pathlib.Path.write_text)))
        self.installed_names.add(WRITE)
        return patched(patches)

    def __len__(self) -> int:
        return len(self.t0)

    def totals(self) -> dict[str, tuple[int, int]]:
        """Span name -> (calls, total ns)."""
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, int] = defaultdict(int)
        for nid, a, b in zip(self.name_id, self.t0, self.t1):
            name = self.names[nid]
            calls[name] += 1
            total[name] += b - a
        return {n: (calls[n], total[n]) for n in calls}

    def durations(self, name: str) -> list[int]:
        nid = self._ids.get(name)
        return [b - a for i, a, b in zip(self.name_id, self.t0, self.t1) if i == nid]

    def self_totals(self) -> dict[str, int]:
        """Span name -> summed self time in ns."""
        own = self_times(self.parent, self.t0, self.t1)
        out: dict[str, int] = defaultdict(int)
        for nid, ns in zip(self.name_id, own):
            out[self.names[nid]] += ns
        return dict(out)

    def dump(self, path: pathlib.Path) -> None:
        with gzip.open(path, "wt") as f:
            f.write("id,parent,name,start_ns,end_ns\n")
            for i, (nid, p, a, b) in enumerate(zip(self.name_id, self.parent, self.t0, self.t1)):
                f.write(f"{i},{p},{self.names[nid]},{a},{b}\n")


def covered(lo: int, hi: int, intervals) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(parents, starts, ends) -> list[int]:
    """Each span's duration less the part its direct children cover.

    ``parents[i]`` is the index of span i's parent, or -1. Overlapping or
    adjacent children are merged first, so no instant is subtracted twice.
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append((starts[i], ends[i]))
    own = [b - a for a, b in zip(starts, ends)]
    for p, kids in children.items():
        own[p] -= covered(starts[p], ends[p], kids)
    return own
