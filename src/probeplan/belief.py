"""Hierarchical belief over discrete driver intents and per-intent motion
modes, with Bayesian updates, entropy, and joint mode weights.

The belief is the pair (pi, w): a probability vector over intents and, for
each intent, a weight vector over its modes. Each mode carries a fixed
Gaussian target over the observation feature space (authored offline);
updates sharpen both levels simultaneously from a single observation.

Likelihoods are computed in log space and exponentiated after subtracting
the per-row maximum, so the update survives observations far into the
tails; results match naive arithmetic to ~1e-12 on non-degenerate inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import DegenerateEvidenceError, InvalidInputError
from .gaussmath import Gaussian

_NORM_TOL = 1e-9
_LOG_Z_FLOOR = math.log(1e-300)
_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class ModeTarget:
    """One motion mode (intent_id, mode_id) with its Gaussian targets.

    ``target`` lives in the observation feature space (human longitudinal
    velocity, optionally extended with the gap to the ego) and defines the
    likelihood model. ``steer`` optionally gives the interaction-space
    target (ego speed, ego lead over the human) used by the influence
    objective; belief updates never touch it.
    """

    intent_id: int
    mode_id: int
    target: Gaussian
    label: str = ""
    steer: Gaussian | None = None

    def __post_init__(self) -> None:
        if self.intent_id < 1 or self.mode_id < 1:
            raise InvalidInputError("intent_id and mode_id are 1-based indices")


class ModeTargetSet:
    """Validated, immutable collection of mode targets.

    Precomputes stacked likelihood constants so a full update evaluates all
    mode densities in one vectorized pass.
    """

    def __init__(self, targets: Iterable[ModeTarget], intent_names: Sequence[str] | None = None):
        targets = tuple(sorted(targets, key=lambda t: (t.intent_id, t.mode_id)))
        if not targets:
            raise InvalidInputError("mode target set is empty")
        seen = set()
        for t in targets:
            key = (t.intent_id, t.mode_id)
            if key in seen:
                raise InvalidInputError(f"duplicate mode target {key}")
            seen.add(key)
        intent_ids = sorted({t.intent_id for t in targets})
        if intent_ids != list(range(1, len(intent_ids) + 1)):
            raise InvalidInputError("intent ids must be contiguous starting at 1")
        counts = []
        for i in intent_ids:
            mode_ids = sorted(t.mode_id for t in targets if t.intent_id == i)
            if mode_ids != list(range(1, len(mode_ids) + 1)):
                raise InvalidInputError(f"mode ids of intent {i} must be contiguous from 1")
            counts.append(len(mode_ids))
        dims = {t.target.dim for t in targets}
        if len(dims) != 1:
            raise InvalidInputError(f"all observation targets must share one dimension, got {dims}")

        self.targets = targets
        self.num_intents = len(intent_ids)
        self.modes_per_intent = tuple(counts)
        self.obs_dim = dims.pop()
        self.max_modes = max(counts)
        if intent_names is not None:
            if len(intent_names) != self.num_intents:
                raise InvalidInputError("intent_names length must equal the intent count")
            self.intent_names = tuple(intent_names)
        else:
            self.intent_names = tuple(f"intent_{i}" for i in intent_ids)
        self._by_key = {(t.intent_id, t.mode_id): t for t in targets}

        m = len(targets)
        d = self.obs_dim
        self._means = np.stack([t.target.mean for t in targets])
        self._chol_inv = np.stack(
            [np.linalg.inv(t.target._chol) for t in targets]
        ).reshape(m, d, d)
        self._log_norm = np.array(
            [-0.5 * (d * _LOG_2PI + t.target._log_det) for t in targets]
        )
        self._rows = np.array([t.intent_id - 1 for t in targets])
        self._cols = np.array([t.mode_id - 1 for t in targets])

    def __iter__(self):
        return iter(self.targets)

    def __len__(self) -> int:
        return len(self.targets)

    def get(self, intent_id: int, mode_id: int) -> ModeTarget:
        return self._by_key[(intent_id, mode_id)]

    def log_likelihood_matrix(self, z: np.ndarray) -> np.ndarray:
        """Padded (I, max_K) matrix of log p(z | i, k); padding is -inf."""
        z = np.atleast_1d(np.asarray(z, dtype=float))
        if z.shape[0] != self.obs_dim:
            raise InvalidInputError(
                f"observation dim {z.shape[0]} does not match target dim {self.obs_dim}"
            )
        diff = z - self._means
        y = np.einsum("mij,mj->mi", self._chol_inv, diff)
        ll = self._log_norm - 0.5 * np.einsum("mi,mi->m", y, y)
        out = np.full((self.num_intents, self.max_modes), -np.inf)
        out[self._rows, self._cols] = ll
        return out


@dataclass(frozen=True)
class HierarchicalBelief:
    """Intent probabilities pi and per-intent mode weights w.

    Both levels are normalized probability vectors (tolerance 1e-9).
    Instances are immutable; ``update`` returns a new belief sharing the
    same target set.
    """

    intent_probs: np.ndarray
    mode_weights: tuple[np.ndarray, ...]
    targets: ModeTargetSet
    _wpad: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pi = np.array(self.intent_probs, dtype=float)
        if pi.shape != (self.targets.num_intents,):
            raise InvalidInputError("intent_probs length must match the target set")
        if np.any(pi < -1e-12) or np.any(pi > 1.0 + 1e-12):
            raise InvalidInputError("intent probabilities must lie in [0, 1]")
        if abs(float(pi.sum()) - 1.0) > _NORM_TOL:
            raise InvalidInputError(f"intent probabilities sum to {pi.sum():.12f}, not 1")
        rows = []
        wpad = np.zeros((self.targets.num_intents, self.targets.max_modes))
        for i, k in enumerate(self.targets.modes_per_intent):
            row = np.array(self.mode_weights[i], dtype=float)
            if row.shape != (k,):
                raise InvalidInputError(f"mode weight row {i + 1} must have length {k}")
            if np.any(row < -1e-12) or np.any(row > 1.0 + 1e-12):
                raise InvalidInputError("mode weights must lie in [0, 1]")
            if abs(float(row.sum()) - 1.0) > _NORM_TOL:
                raise InvalidInputError(f"mode weight row {i + 1} sums to {row.sum():.12f}")
            row = np.clip(row, 0.0, 1.0)
            row.flags.writeable = False
            rows.append(row)
            wpad[i, :k] = row
        pi = np.clip(pi, 0.0, 1.0)
        pi.flags.writeable = False
        wpad.flags.writeable = False
        object.__setattr__(self, "intent_probs", pi)
        object.__setattr__(self, "mode_weights", tuple(rows))
        object.__setattr__(self, "_wpad", wpad)


def uniform_belief(targets: ModeTargetSet | Iterable[ModeTarget]) -> HierarchicalBelief:
    """Belief with pi_i = 1/I and w_{i,k} = 1/K_i."""
    if not isinstance(targets, ModeTargetSet):
        targets = ModeTargetSet(targets)
    num = targets.num_intents
    pi = np.full(num, 1.0 / num)
    weights = tuple(np.full(k, 1.0 / k) for k in targets.modes_per_intent)
    return HierarchicalBelief(pi, weights, targets)


def update(b: HierarchicalBelief, z: np.ndarray) -> HierarchicalBelief:
    """One Bayesian update of both belief levels from observation ``z``.

    Raises DegenerateEvidenceError when the total evidence falls below
    1e-300 (every mode astronomically unlikely); callers should keep the
    prior belief and flag the event.
    """
    ll = b.targets.log_likelihood_matrix(z)
    wpad = b._wpad
    active = wpad > 0.0

    # Per-row max over weighted modes only; zero-weight modes cannot
    # contribute evidence and must not dominate the shift.
    row_max = np.where(active, ll, -np.inf).max(axis=1)
    global_max = float(row_max.max())
    if not np.all(np.isfinite(row_max)):
        raise DegenerateEvidenceError("a mode row's log-likelihoods all underflowed")
    rel = np.exp(np.where(active, ll - row_max[:, None], -np.inf))
    weighted = wpad * rel
    row_sum = weighted.sum(axis=1)  # L[i] * exp(-row_max[i])

    scaled_intent_lik = np.exp(row_max - global_max) * row_sum
    post_pi_un = b.intent_probs * scaled_intent_lik
    z_rel = float(post_pi_un.sum())
    log_z = global_max + math.log(z_rel) if z_rel > 0.0 else -math.inf
    if log_z < _LOG_Z_FLOOR:
        raise DegenerateEvidenceError(
            f"evidence underflow: log Z = {log_z:.1f} is below ln(1e-300)"
        )

    pi_new = post_pi_un / z_rel
    w_new = []
    for i, k in enumerate(b.targets.modes_per_intent):
        row = weighted[i, :k]
        s = row.sum()
        if s <= 0.0:
            raise DegenerateEvidenceError(f"mode evidence underflow in intent {i + 1}")
        w_new.append(row / s)
    return HierarchicalBelief(pi_new, tuple(w_new), b.targets)


def relax_mode_weights(b: HierarchicalBelief, forgetting: float) -> HierarchicalBelief:
    """Mix every mode-weight row toward uniform by ``forgetting``.

    Behavior modes are patterns the driver can switch between
    mid-encounter, so the run loop applies this small diffusion after each
    Bayesian update; without it, long-disfavored modes decay to dust and
    the filter reacts sluggishly when the driver's pattern changes. Intent
    probabilities are left untouched (dead intents stay dead).
    """
    if not 0.0 <= forgetting < 1.0:
        raise InvalidInputError("forgetting must lie in [0, 1)")
    if forgetting == 0.0:
        return b
    rows = tuple(
        (1.0 - forgetting) * row + forgetting / row.shape[0]
        for row in b.mode_weights
    )
    return HierarchicalBelief(b.intent_probs, rows, b.targets)


def joint_weights(b: HierarchicalBelief) -> np.ndarray:
    """Joint mode probabilities omega_{i,k} = pi_i * w_{i,k}, one entry per
    mode in ``b.targets.targets`` order."""
    rows, cols = b.targets._rows, b.targets._cols
    return b.intent_probs[rows] * b._wpad[rows, cols]


def entropy(b: HierarchicalBelief, pi_weighted_modes: bool = False) -> float:
    """Belief uncertainty: intent entropy plus the mode-weight term.

    The default sums w log w over every intent's row without weighting by
    pi (the literal two-term form); ``pi_weighted_modes=True`` switches to
    the Shannon-style variant where each row's entropy is scaled by its
    intent probability.
    """
    pi = b.intent_probs
    h = -float(np.sum(pi * np.log(pi, where=pi > 0, out=np.zeros_like(pi))))
    for i, row in enumerate(b.mode_weights):
        row_h = -float(np.sum(row * np.log(row, where=row > 0, out=np.zeros_like(row))))
        h += pi[i] * row_h if pi_weighted_modes else row_h
    return max(0.0, h)


def max_entropy(targets: ModeTargetSet, pi_weighted_modes: bool = False) -> float:
    """Entropy of the uniform belief, the maximum over all beliefs."""
    h = math.log(targets.num_intents)
    for i, k in enumerate(targets.modes_per_intent):
        h += math.log(k) / (targets.num_intents if pi_weighted_modes else 1)
    return h
