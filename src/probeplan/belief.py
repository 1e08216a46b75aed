"""Hierarchical belief over discrete driver intents and per-intent motion
modes, with Bayesian updates, entropy, and joint mode weights.

The belief is the pair (pi, w): a probability vector over intents and one
flat vector of mode weights in target order, where each intent's modes form
a contiguous segment that sums to one. Each mode carries a fixed Gaussian
band over the observed human speed (authored offline); updates sharpen
both levels simultaneously from a single observation.

One posterior kernel (``_posteriors``) and one entropy kernel
(``_entropies``) work on rows of observations and beliefs: ``update`` and
``entropy`` are their one-row calls, ``posterior_entropies`` their batched
one. Likelihoods are computed in log space and exponentiated after
subtracting the per-intent maximum, so the update survives observations far
into the tails; results match naive arithmetic to ~1e-12 on non-degenerate
inputs. Per-intent sums use ``np.bincount``, which adds each segment's
modes in target order starting from zero, exactly as the sum of a
per-intent row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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

    ``target`` is a 1-D band over the observed human longitudinal speed
    and defines the likelihood model. ``steer`` optionally gives the
    interaction-space target (ego speed, ego lead over the human) used by
    the influence objective; belief updates never touch it.
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
    """Validated, immutable collection of mode targets, sorted by
    (intent_id, mode_id).

    Every observation target is 1-D. Precomputes stacked likelihood
    constants so a full update evaluates all mode densities in one
    vectorized pass, and the mode axis's segments:
    the intent index of each mode (``_rows``), the first mode of each
    intent (``_starts``) and the mode count of each mode's intent.
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
        for t in targets:
            if t.target.dim != 1:
                raise InvalidInputError(f"observation target {(t.intent_id, t.mode_id)} must be "
                                        f"1-dimensional (speed), got dim {t.target.dim}")

        self.targets = targets
        self.num_intents = len(intent_ids)
        self.modes_per_intent = tuple(counts)
        if intent_names is not None:
            if len(intent_names) != self.num_intents:
                raise InvalidInputError("intent_names length must equal the intent count")
            self.intent_names = tuple(intent_names)
        else:
            self.intent_names = tuple(f"intent_{i}" for i in intent_ids)

        self._means = np.array([t.target.mean[0] for t in targets])
        self._inv_std = np.array([1.0 / t.target._chol[0, 0] for t in targets])
        self._log_norm = np.array([-0.5 * (_LOG_2PI + t.target._log_det) for t in targets])
        self._rows = np.array([t.intent_id - 1 for t in targets])
        self._starts = np.cumsum([0, *counts[:-1]])
        self._row_len = np.repeat(counts, counts)
        # One set may serve many runs (``default_targets`` shares its sets),
        # so nothing may write to its arrays.
        for a in (self._means, self._inv_std, self._log_norm, self._rows, self._starts,
                  self._row_len):
            a.flags.writeable = False

    def __len__(self) -> int:
        return len(self.targets)

    def log_likelihoods(self, zs: np.ndarray) -> np.ndarray:
        """log p(z | i, k) for every observation z of ``zs`` (N,) and every
        mode in target order, as (N, M)."""
        zs = np.asarray(zs, dtype=float)
        if zs.ndim != 1:
            raise InvalidInputError(f"observations must have shape (N,), got {zs.shape}")
        # An observation far enough into the tails overflows to a -inf
        # log-likelihood, which the update reads as degenerate evidence.
        with np.errstate(over="ignore"):
            y = self._inv_std * (zs[:, None] - self._means)
            return self._log_norm - 0.5 * (y * y)


def _probabilities(x, size: int, name: str) -> np.ndarray:
    """Checked, read-only copy of the vector ``x``, clipped to [0, 1]."""
    x = np.array(x, dtype=float)
    if x.shape != (size,):
        raise InvalidInputError(f"{name} must have length {size}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError(f"{name} must be finite, got {x}")
    if np.any(x < -1e-12) or np.any(x > 1.0 + 1e-12):
        raise InvalidInputError(f"{name} must lie in [0, 1]")
    x = np.clip(x, 0.0, 1.0)
    x.flags.writeable = False
    return x


@dataclass(frozen=True)
class HierarchicalBelief:
    """Intent probabilities pi (I,) and mode weights w (M,), flat in
    ``targets.targets`` order.

    pi and each intent's segment of w are normalized (tolerance 1e-9).
    Instances are immutable; ``update`` returns a new belief sharing the
    same target set.
    """

    intent_probs: np.ndarray
    mode_weights: np.ndarray
    targets: ModeTargetSet

    def __post_init__(self) -> None:
        ts = self.targets
        pi = _probabilities(self.intent_probs, ts.num_intents, "intent probabilities")
        w = _probabilities(self.mode_weights, len(ts), "mode weights")
        if abs(float(pi.sum()) - 1.0) > _NORM_TOL:
            raise InvalidInputError(f"intent probabilities sum to {pi.sum():.12f}, not 1")
        sums = np.bincount(ts._rows, weights=w, minlength=ts.num_intents)
        if np.any(np.abs(sums - 1.0) > _NORM_TOL):
            raise InvalidInputError(f"mode weights sum to {sums} per intent, not 1")
        object.__setattr__(self, "intent_probs", pi)
        object.__setattr__(self, "mode_weights", w)

    def rows(self) -> tuple[np.ndarray, ...]:
        """The mode weights split into one read-only row per intent."""
        return tuple(np.split(self.mode_weights, self.targets._starts[1:]))


def uniform_belief(targets: ModeTargetSet) -> HierarchicalBelief:
    """Belief with pi_i = 1/I and w_{i,k} = 1/K_i."""
    num = targets.num_intents
    return HierarchicalBelief(np.full(num, 1.0 / num), 1.0 / targets._row_len, targets)


def _segment_sums(ts: ModeTargetSet, x: np.ndarray) -> np.ndarray:
    """Per-intent sums (N, I) of the per-mode rows ``x`` (N, M)."""
    n, num = x.shape[0], ts.num_intents
    bins = (ts._rows + num * np.arange(n)[:, None]).ravel()
    return np.bincount(bins, weights=x.ravel(), minlength=n * num).reshape(n, num)


def _underflows(log_shift: np.ndarray, z_rel: np.ndarray) -> np.ndarray:
    """Mask (N,) of the rows whose total evidence ``exp(log_shift) * z_rel``
    is below 1e-300, decided as ``not (z > 0 and g + math.log(z) >=
    _LOG_Z_FLOOR)`` per row. The rows are decided with ``np.log``, which may
    differ from ``math.log`` in the last bit; a row that is not finite or
    lies within a margin far wider than that of the floor is decided by the
    scalar rule itself."""
    with np.errstate(divide="ignore", invalid="ignore"):
        log_z = np.log(z_rel)
        log_evidence = log_shift + log_z
        out = ~(log_evidence >= _LOG_Z_FLOOR)
        margin = 1e-9 * (np.abs(log_shift) + np.abs(log_z) + 1.0)
        near = ~(np.abs(log_evidence - _LOG_Z_FLOOR) > margin)
    for k in np.flatnonzero(near).tolist():
        g, z = float(log_shift[k]), float(z_rel[k])
        out[k] = not (z > 0.0 and g + math.log(z) >= _LOG_Z_FLOOR)
    return out


def _posteriors(
    b: HierarchicalBelief, zs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Posterior intent probabilities (N, I) and mode weights (N, M) of
    ``b`` after each observation of ``zs`` (N,), and the mask (N,) of
    rows whose evidence is degenerate: a row whose weighted modes'
    log-likelihoods all underflow, or whose total evidence falls below
    1e-300. Degenerate rows hold finite stand-ins."""
    ts = b.targets
    ll = ts.log_likelihoods(zs)
    w = b.mode_weights
    active = w > 0.0

    # Per-intent max over weighted modes only; zero-weight modes cannot
    # contribute evidence and must not dominate the shift.
    row_max = np.maximum.reduceat(np.where(active, ll, -np.inf), ts._starts, axis=1)
    bad = ~np.all(np.isfinite(row_max), axis=1)
    # A finite stand-in keeps a degenerate row's arithmetic free of inf - inf.
    row_max[bad] = 0.0
    global_max = row_max.max(axis=1)
    # The mode at its intent's max has weight > 0 and factor exp(0) = 1,
    # so every row sum is positive.
    weighted = w * np.exp(np.where(active, ll - row_max[:, ts._rows], -np.inf))
    row_sum = _segment_sums(ts, weighted)
    row_sum[bad] = 1.0
    post_pi_un = b.intent_probs * (np.exp(row_max - global_max[:, None]) * row_sum)
    z_rel = post_pi_un.sum(axis=1)
    bad |= _underflows(global_max, z_rel)
    z_rel[bad] = 1.0
    # Each value is a nonnegative term over a float sum that includes it,
    # so it lies in [0, 1].
    return post_pi_un / z_rel[:, None], weighted / row_sum[:, ts._rows], bad


def update(b: HierarchicalBelief, z: float) -> HierarchicalBelief:
    """One Bayesian update of both belief levels from the observed speed ``z``.

    Raises DegenerateEvidenceError when the total evidence falls below
    1e-300 (every mode astronomically unlikely); callers should keep the
    prior belief and flag the event.
    """
    pi, w, bad = _posteriors(b, np.array([z], dtype=float))
    if bad[0]:
        raise DegenerateEvidenceError(
            "evidence underflow: a mode row underflowed or log Z is below ln(1e-300)"
        )
    return HierarchicalBelief(pi[0], w[0], b.targets)


def relax_mode_weights(b: HierarchicalBelief, forgetting: float) -> HierarchicalBelief:
    """Mix every intent's mode weights toward uniform by ``forgetting``.

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
    w = (1.0 - forgetting) * b.mode_weights + forgetting / b.targets._row_len
    return HierarchicalBelief(b.intent_probs, w, b.targets)


def joint_weights(b: HierarchicalBelief) -> np.ndarray:
    """Joint mode probabilities omega_{i,k} = pi_i * w_{i,k}, one entry per
    mode in ``b.targets.targets`` order."""
    return b.intent_probs[b.targets._rows] * b.mode_weights


def _x_log_x(p: np.ndarray) -> np.ndarray:
    return p * np.log(p, where=p > 0, out=np.zeros_like(p))


def _entropies(
    ts: ModeTargetSet, pi: np.ndarray, w: np.ndarray, pi_weighted_modes: bool
) -> np.ndarray:
    """``entropy`` of each belief row: intent probabilities (N, I) and
    mode weights (N, M), as (N,)."""
    h = -_x_log_x(pi).sum(axis=1)
    row_h = -_segment_sums(ts, _x_log_x(w))
    # One addition per intent, in intent order.
    for i in range(ts.num_intents):
        h += pi[:, i] * row_h[:, i] if pi_weighted_modes else row_h[:, i]
    return np.where(h > 0.0, h, 0.0)


def entropy(b: HierarchicalBelief, pi_weighted_modes: bool = False) -> float:
    """Belief uncertainty: intent entropy plus the mode-weight term.

    The default sums w log w over every intent's modes without weighting by
    pi (the literal two-term form); ``pi_weighted_modes=True`` switches to
    the Shannon-style variant where each intent's mode entropy is scaled by
    its intent probability.
    """
    return float(
        _entropies(b.targets, b.intent_probs[None], b.mode_weights[None], pi_weighted_modes)[0]
    )


def posterior_entropies(
    b: HierarchicalBelief,
    zs: np.ndarray,
    h_prior: float,
    pi_weighted_modes: bool = False,
) -> np.ndarray:
    """``entropy(update(b, z), pi_weighted_modes)`` for every observation z
    of ``zs`` (N,), in one pass that builds no belief. A row whose update
    would raise DegenerateEvidenceError reads ``h_prior``."""
    pi, w, bad = _posteriors(b, zs)
    return np.where(bad, h_prior, _entropies(b.targets, pi, w, pi_weighted_modes))

