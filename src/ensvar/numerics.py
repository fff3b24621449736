"""Small dense linear-algebra and statistics kernels.

Ensembles are plain float arrays of shape (N, q): one member per row.
Every matrix inverse in the package comes from a Cholesky solve.  Small
m x m inverses may be formed explicitly (Q^-1, and the filter's and
smoother's covariance blocks F_i^-1 and S_i^-1).  The exact block
elimination behind the Kalman filter, the smoother, the exact LM step
and the reference members solves against m x m SPD blocks by ``dpotrs``,
which with m right-hand sides stays on one thread up to about m = 28 and
wakes scipy's pool from about m = 32.  The ensemble analysis kernel
solves against its (P H^T)^T.

Every SPD factor and solve goes through :func:`_factor`/:func:`_solve`,
direct calls of the LAPACK ``dpotrf``/``dpotrs`` behind scipy's
``cholesky``/``cho_factor``/``cho_solve`` (same bits), because on the
small matrices of the LM passes scipy's wrappers cost far more than the
arithmetic.  The two wrappers come from scipy's own compiled
``_flapack`` extension, loaded from its file (:func:`_load_lapack`):
they are the objects ``scipy.linalg.lapack`` re-exports, but importing
``scipy.linalg`` itself takes about a quarter of a second (its
array-API layer imports ``numpy.f2py``, ``numpy.testing`` and more),
over half of the package's import time.
The full SPD check runs once, at the public boundary: in
:func:`cholesky_spd` and :func:`spd_solve`, and when an
``AssimilationProblem`` is built, which keeps the factors of its
covariances for every algorithm to reuse.  Each kernel call checks only
that its input is finite, which LAPACK does not.  A pass/fail test that
yields no numbers, on matrices up to composite size, is
:func:`_positive_definite`.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os

import numpy as np
import scipy  # cheap; runs scipy's shared-library set-up for its extensions

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


def _flapack_path() -> str | None:
    """The file of scipy's compiled LAPACK wrappers, if it is where scipy installs it."""
    folder = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, "_flapack" + suffix)
        if os.path.isfile(path):
            return path
    return None


def _load_lapack():
    """scipy's ``_flapack`` module without importing ``scipy.linalg``, or
    ``scipy.linalg.lapack`` (the same wrappers) if that file will not load."""
    path = _flapack_path()
    if path is not None:
        try:
            spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
        except (ImportError, OSError):
            pass
    from scipy.linalg import lapack

    return lapack


_LAPACK = _load_lapack()


def _frobenius_norm(a: np.ndarray) -> float:
    """Frobenius norm, non-finite only when an entry is.

    The unscaled norm overflows for entries above about 1e154; only then
    is it recomputed from ``a`` scaled by its largest entry, so the common
    path makes no extra pass, and numpy need not warn about the overflow.
    """
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(a)
    if np.isfinite(norm) or not np.isfinite(a).all():
        return norm
    amax = np.abs(a).max()
    return amax * np.linalg.norm(a / amax)


def _as_spd_input(a: np.ndarray, name: str) -> tuple[np.ndarray, float]:
    """``a`` as a float array and its Frobenius norm; NotSPDError naming
    ``a`` if it is not square, has a non-finite entry or is not symmetric."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.shape[0] != a.shape[1]:
        raise NotSPDError(f"{name} is not square: shape {a.shape}")
    norm = _frobenius_norm(a)
    if not np.isfinite(norm):  # only a non-finite entry makes the norm non-finite
        raise NotSPDError(f"{name} has a non-finite Frobenius norm ({norm})")
    if np.linalg.norm(a - a.T) > _SYMMETRY_RTOL * max(norm, 1.0):
        raise NotSPDError(f"{name} is not symmetric")
    return a, norm


def _factor(a: np.ndarray, name: str) -> np.ndarray:
    """Lower Cholesky factor of a square float array from its lower triangle
    (symmetry is the caller's); NotSPDError naming ``a`` if not finite or PD."""
    if not np.isfinite(a).all():
        raise NotSPDError(f"{name} contains non-finite entries")
    factor, info = _LAPACK.dpotrf(a, lower=1, clean=1)
    if info != 0:
        raise NotSPDError(f"{name} is not positive definite")
    return factor


def _positive_definite(a: np.ndarray) -> bool:
    """Cholesky pass/fail test by numpy's LAPACK: on a large matrix, scipy's
    own OpenBLAS wakes a second thread pool that competes with numpy's."""
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


def _solve(factor: np.ndarray, b: np.ndarray, name: str) -> np.ndarray:
    """Solve (factor @ factor.T) @ x = b for a 1-D or 2-D float array b."""
    if not np.isfinite(b).all():
        raise ValidationError(f"right-hand side of the {name} solve contains non-finite entries")
    return _LAPACK.dpotrs(factor, b, lower=1)[0]


def cholesky_spd(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Lower-triangular L with a = L @ L.T; raises NotSPDError otherwise."""
    a, _ = _as_spd_input(a, name)
    return _factor(a, name)


def spd_solve(a: np.ndarray, b: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Solve a @ x = b for SPD a via its Cholesky factorization."""
    a, _ = _as_spd_input(a, name)
    return _solve(_factor(a, name), np.asarray(b, dtype=float), name)


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
    if not (np.isfinite(p) and p >= 1):
        raise ValidationError(f"p must be finite and >= 1, got {p}")
    norms = np.array([np.linalg.norm(np.asarray(v, dtype=float).reshape(-1)) for v in samples])
    if norms.size == 0:
        raise ValidationError("empirical_lp_norm needs at least one sample")
    with np.errstate(over="ignore"):
        value = float(np.mean(norms**p) ** (1.0 / p))
    if (value == 0.0 or not np.isfinite(value)) and np.isfinite(norms).all() and norms.max() > 0:
        # norms**p under- or overflowed; the largest norm scales it back into range.
        scale = norms.max()
        value = float(scale * np.mean((norms / scale) ** p) ** (1.0 / p))
    return value


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
