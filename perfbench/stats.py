"""Order statistics for the benchmark's timing samples.

Timings are reported as a median plus the highest tail percentile that
still has at least ``TAIL_SAMPLES`` samples strictly beyond it, so a tail
figure always rests on enough observations to mean something.
"""

from __future__ import annotations

import math

TAIL_SAMPLES = 10


def percentile(samples, q: float) -> float:
    """Linear-interpolated percentile (numpy's default method), q in [0, 100]."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must lie in [0, 100], got {q}")
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def count_beyond(samples, value: float) -> int:
    return sum(1 for s in samples if s > value)


def min_samples_for(q: float, beyond: int = TAIL_SAMPLES) -> int:
    """Smallest sample count whose q-th percentile can have ``beyond``
    samples above it (ties aside)."""
    return math.ceil(beyond / (1.0 - q / 100.0))


def tail_ok(samples, q: float, beyond: int = TAIL_SAMPLES) -> bool:
    """True when at least ``beyond`` samples lie strictly above the q-th
    percentile, which is the rule a reported tail percentile must meet."""
    return len(samples) > 0 and count_beyond(samples, percentile(samples, q)) >= beyond
