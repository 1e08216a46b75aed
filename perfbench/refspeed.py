"""The machine's speed while a pass runs, relative to a reference machine.

The sandboxes this benchmark runs on share their cores with other tenants,
and their speed drifts by 1.5x over minutes. Wall-clock figures taken a few
minutes apart then differ by more than any regression worth catching. So
between runs, outside the timed region, the benchmark times a fixed kernel of
its own (no probeplan code): a 30-step ego rollout in Python followed by
rollout costs and a CVaR tail over 100 sampled paths in numpy, the mix that
dominates a plan_step. The kernel runs in as many processes at once as the
workload keeps busy, since two busy processes slow each other. Its mean time
over a pass, divided by its time in one process on the reference machine, is
the pass's speed factor. The timed metrics
are reported at reference speed: throughputs multiplied by the factor,
times divided by it. The wall-clock values are reported next to them.

The reference machine is a 2-core x86-64 sandbox, Python 3.11.7, numpy 2.4.6,
where one kernel block took 6.2 ms.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from array import array

import numpy as np

REF_BLOCK_S = 0.0062
DUTY = 0.01  # share of elapsed time spent sampling
_REPS = 60
_HORIZON = 30
_PATHS = np.random.default_rng(0).random((100, _HORIZON, 2)) * 20.0
_WEIGHTS = 0.95 ** np.arange(_HORIZON)


def block() -> float:
    """Time one pass of the fixed kernel, in seconds."""
    t0 = time.perf_counter()
    for _ in range(_REPS):
        xy = np.empty((_HORIZON, 2))
        x = y = 0.0
        v, theta = 5.0, 0.1
        for k in range(_HORIZON):
            x += v * math.cos(theta) * 0.1
            y += v * math.sin(theta) * 0.1
            v = max(0.0, v + 0.01)
            theta += 0.001
            xy[k, 0] = x
            xy[k, 1] = y
        delta = xy[None, :, :] - _PATHS
        costs = (10.0 * np.exp(-(np.hypot(delta[:, :, 0], delta[:, :, 1]) - 3.0) / 2.0)) @ _WEIGHTS
        float(np.mean(np.sort(costs, kind="stable")[::-1][:5]))
    return time.perf_counter() - t0


def _blocks_in_parallel(n: int, processes: int) -> list[float]:
    """n blocks in each of ``processes`` processes at once (the others
    forked for the purpose and waited for); every block's time."""
    children = []
    for _ in range(processes - 1):
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: time its blocks, report them, exit at once
            os.close(read_fd)
            os.write(write_fd, array("d", [block() for _ in range(n)]).tobytes())
            os._exit(0)
        os.close(write_fd)
        children.append((pid, read_fd))
    times = [block() for _ in range(n)]
    for pid, read_fd in children:
        with os.fdopen(read_fd, "rb") as f:
            times += array("d", f.read()).tolist()
        os.waitpid(pid, 0)
    return times


class SpeedMeter:
    """Kernel blocks taken between runs, about DUTY of the time elapsed, in
    as many processes at once as the workload keeps busy."""

    def __init__(self, processes: int = 1):
        self.processes = processes
        self.samples: list[float] = []
        self._last = time.perf_counter()

    def sample(self, min_blocks: int = 1) -> None:
        elapsed = time.perf_counter() - self._last
        n = max(min_blocks, round(DUTY * elapsed / REF_BLOCK_S))
        self.samples += _blocks_in_parallel(n, self.processes)
        self._last = time.perf_counter()

    @property
    def factor(self) -> float:
        """Mean block time over the reference time: above 1 on a slow machine."""
        return statistics.fmean(self.samples) / REF_BLOCK_S
