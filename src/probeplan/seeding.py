"""Deterministic random-stream derivation.

Every stochastic component owns an explicit stream derived from integer
keys, never the global numpy state. Key-based derivation (rather than
sequential spawning) keeps streams independent of call order, which is
what makes batch results identical at any worker count.
"""

from __future__ import annotations

import numpy as np

# Fixed stream labels. The enumeration is part of the reproducibility
# contract: changing a value changes every downstream sample.
STREAM_INIT = 1
STREAM_OBS = 2
STREAM_PLAN = 3
STREAM_INTENT = 4
STREAM_MODE_ROLLOUT = 11


def rng_from_keys(*keys: int) -> np.random.Generator:
    """Build a PCG64 generator from a chain of nonnegative integer keys."""
    return np.random.default_rng(np.random.SeedSequence(list(keys)))


def derive_key(rng: np.random.Generator) -> int:
    """Draw one 64-bit key from a generator, for keying sub-streams."""
    return int(rng.integers(0, 2**63 - 1))
