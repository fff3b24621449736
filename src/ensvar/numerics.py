"""Small dense linear-algebra and statistics kernels.

Ensembles are plain float arrays of shape (N, q): one member per row.
Every matrix inverse in the package is realized as an SPD solve against a
Cholesky factorization; explicit inverses are never formed.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import NotSPDError, ValidationError

__all__ = [
    "cholesky_spd",
    "spd_solve",
    "sample_mean",
    "sample_covariance",
    "empirical_lp_norm",
    "fit_loglog_slope",
]

_SYMMETRY_RTOL = 1e-12


def _as_spd_input(a: np.ndarray, name: str) -> np.ndarray:
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.shape[0] != a.shape[1]:
        raise NotSPDError(f"{name} is not square: shape {a.shape}")
    norm = np.linalg.norm(a)
    if not np.isfinite(norm):  # a non-finite entry makes the norm non-finite
        raise NotSPDError(f"{name} has a non-finite Frobenius norm ({norm})")
    if np.linalg.norm(a - a.T) > _SYMMETRY_RTOL * max(norm, 1.0):
        raise NotSPDError(f"{name} is not symmetric")
    return a


def cholesky_spd(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Lower-triangular L with a = L @ L.T; raises NotSPDError otherwise."""
    a = _as_spd_input(a, name)
    try:
        return scipy.linalg.cholesky(a, lower=True)
    except scipy.linalg.LinAlgError:
        raise NotSPDError(f"{name} is not positive definite") from None


def spd_solve(a: np.ndarray, b: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Solve a @ x = b for SPD a via its Cholesky factorization."""
    a = _as_spd_input(a, name)
    b = np.asarray(b, dtype=float)
    if not np.all(np.isfinite(b)):
        raise ValidationError(f"right-hand side of the {name} solve contains non-finite entries")
    try:
        factor = scipy.linalg.cho_factor(a, lower=True)
    except scipy.linalg.LinAlgError:
        raise NotSPDError(f"{name} is not positive definite") from None
    return scipy.linalg.cho_solve(factor, b)


def sample_mean(members: np.ndarray) -> np.ndarray:
    """Arithmetic mean over ensemble members (rows)."""
    members = np.atleast_2d(np.asarray(members, dtype=float))
    if members.shape[0] < 1:
        raise ValidationError("sample_mean needs at least one member")
    return members.mean(axis=0)


def sample_covariance(members: np.ndarray) -> np.ndarray:
    """Sample covariance with the 1/(N-1) normalization; symmetric PSD."""
    members = np.atleast_2d(np.asarray(members, dtype=float))
    n = members.shape[0]
    if n < 2:
        raise ValidationError(f"sample_covariance needs at least 2 members, got {n}")
    dev = members - members.mean(axis=0)
    cov = dev.T @ dev / (n - 1)
    return 0.5 * (cov + cov.T)


def empirical_lp_norm(samples, p: float) -> float:
    """Empirical L^p norm ((1/R) sum |v_r|^p)^(1/p) over replicate vectors.

    |.| is the Euclidean norm; each element of ``samples`` is one
    replicate (a vector or scalar).
    """
    if p < 1:
        raise ValidationError(f"p must be >= 1, got {p}")
    norms = np.array([np.linalg.norm(np.asarray(v, dtype=float).reshape(-1)) for v in samples])
    if norms.size == 0:
        raise ValidationError("empirical_lp_norm needs at least one sample")
    return float(np.mean(norms**p) ** (1.0 / p))


def fit_loglog_slope(xs, ys) -> tuple[float, float]:
    """Ordinary least-squares fit of log(y) against log(x).

    Returns (slope, intercept).  Both inputs must be positive and contain
    at least two points.
    """
    xs = np.asarray(xs, dtype=float).reshape(-1)
    ys = np.asarray(ys, dtype=float).reshape(-1)
    if xs.size != ys.size:
        raise ValidationError(f"xs and ys lengths differ: {xs.size} vs {ys.size}")
    if xs.size < 2:
        raise ValidationError("slope fit needs at least two points")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValidationError("slope fit requires strictly positive inputs")
    slope, intercept = np.polyfit(np.log(xs), np.log(ys), 1)
    return float(slope), float(intercept)
