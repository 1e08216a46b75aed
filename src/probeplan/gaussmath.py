"""Multivariate Gaussian utilities shared by the belief, planner and risk
modules: a validated mean/covariance pair with its cached Cholesky factor,
and the closed-form KL divergence.

All values are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError

log = logging.getLogger(__name__)

_SYM_TOL = 1e-9
_EIG_FLOOR = -1e-9
_JITTER = 1e-9


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.flags.writeable = False
    return out


def _chol_with_jitter(cov: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of ``cov``, adding 1e-9*I if the exact
    factorization fails. Returns (factor, log-determinant)."""
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        log.debug("cholesky failed, regularizing with %g*I", _JITTER)
        chol = np.linalg.cholesky(cov + _JITTER * np.eye(cov.shape[0]))
    log_det = 2.0 * float(np.sum(np.log(np.diagonal(chol))))
    return chol, log_det


@dataclass(frozen=True)
class Gaussian:
    """Mean/covariance pair.

    Mean and covariance must be finite. The covariance is symmetrized on
    construction (asymmetry above 1e-9 is rejected) and must be positive
    semidefinite with eigenvalues >= -1e-9.
    Near-singular covariances are regularized by a 1e-9*I jitter when the
    Cholesky factorization fails; the stored matrix is never mutated.
    """

    mean: np.ndarray
    cov: np.ndarray
    _chol: np.ndarray = field(init=False, repr=False, compare=False)
    _log_det: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        mean = _as_readonly(np.atleast_1d(self.mean))
        cov = np.atleast_2d(np.array(self.cov, dtype=float))
        if mean.ndim != 1 or cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise InvalidInputError("mean must be a vector and cov a square matrix")
        if cov.shape[0] != mean.shape[0]:
            raise InvalidInputError(
                f"dimension mismatch: mean has dim {mean.shape[0]}, cov dim {cov.shape[0]}"
            )
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise InvalidInputError(f"mean and cov must be finite, got {mean} and {cov.tolist()}")
        asym = float(np.max(np.abs(cov - cov.T))) if cov.size else 0.0
        if asym > _SYM_TOL:
            raise InvalidInputError(f"cov asymmetry {asym:.3e} exceeds {_SYM_TOL}")
        cov = _as_readonly(0.5 * (cov + cov.T))
        min_eig = float(np.min(np.linalg.eigvalsh(cov)))
        if min_eig < _EIG_FLOOR:
            raise InvalidInputError(f"cov eigenvalue {min_eig:.3e} below {_EIG_FLOOR}")
        chol, log_det = _chol_with_jitter(cov)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "_chol", _as_readonly(chol))
        object.__setattr__(self, "_log_det", log_det)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def kl_divergence(p: Gaussian, q: Gaussian) -> float:
    """Closed-form KL divergence D(p || q) between Gaussians.

    Returns exactly 0.0 for identical inputs; small negative round-off is
    clamped to zero so the result is always nonnegative.
    """
    if p.dim != q.dim:
        raise InvalidInputError(f"dimension mismatch: p dim {p.dim}, q dim {q.dim}")
    d = p.dim
    diff = q.mean - p.mean
    # All terms via the cached Cholesky factor of q.
    y = np.linalg.solve(q._chol, diff)
    maha = float(y @ y)
    z = np.linalg.solve(q._chol, p._chol)
    trace = float(np.sum(z * z))
    val = 0.5 * (trace + maha - d + q._log_det - p._log_det)
    return val if val > 0.0 else 0.0

