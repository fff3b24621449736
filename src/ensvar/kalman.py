"""Exact recursions for the linear-Gaussian case.

The smoother is deliberately implemented as the *filter applied to the
growing composite state* x_0:i, rather than as a backward pass: the
ensemble algorithms in this package mirror exactly that structure, and
the coupled convergence tests rely on the structural parity.  Since the
composite observation operator is [0, ..., 0, H_i], one private
recursion on the mean and the trailing block column of the covariance
serves everything: :func:`ks_run` adds the rank-d update of the leading
block to it, :func:`kf_run` is it with the column cut to its trailing
m x m block, and the exact-covariance reference ensembles read its
columns directly.

An independent block least-squares oracle solves the smoothing problem by
assembling and solving its normal equations directly; it shares no code
path with the recursion beyond the low-level SPD solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonlinearOperatorError, ValidationError
from .numerics import spd_solve
from .problem import AssimilationProblem, GaussianEstimate

__all__ = [
    "KalmanFilterResult",
    "KalmanSmootherResult",
    "kf_run",
    "ks_run",
    "ks_least_squares_oracle",
]


@dataclass(frozen=True, eq=False)
class KalmanFilterResult:
    """Filtering estimates at i = 0..k."""

    estimates: tuple[GaussianEstimate, ...]


@dataclass(frozen=True, eq=False)
class KalmanSmootherResult:
    """The smoothing estimate of the whole trajectory x_0:k given y_1:k."""

    estimate: GaussianEstimate


def _linear_matrices(problem: AssimilationProblem, what: str = "Kalman recursions"):
    """The model and observation matrices ``(models, obs_mats)`` of a fully linear problem."""
    if not problem.all_linear:
        raise NonlinearOperatorError(f"{what} require every operator to be flagged linear")
    m = problem.state_dim
    return [op.as_matrix(m) for op in problem.model_ops], [op.as_matrix(m) for op in problem.obs_ops]


def _symmetrize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


def _column_recursion(problem: AssimilationProblem, models, obs_mats, composite=True):
    """The exact recursion on the mean and the trailing block column.

    Yields ``(col_f, pht, gain, mean, col)`` for i = 1..k, where ``col_f``
    and ``col`` are the trailing m columns of the forecast and analysis
    covariances of x_0:i (of x_i alone when not ``composite``).  The
    exact-covariance ensembles read ``col_f``, :func:`ks_run` updates the
    leading block with ``pht`` and ``gain``, and both Kalman runs return
    ``mean`` and ``col``.  The column's update never reads the leading
    block.  Each gain is P H^T times the d x d inverse of the innovation
    covariance.
    """
    m = problem.state_dim
    mean, col = problem.background_mean, problem.background_cov
    for i in range(1, problem.horizon + 1):
        m_i, h_i = models[i - 1], obs_mats[i - 1]
        corner = _symmetrize(m_i @ col[-m:] @ m_i.T + problem.model_noise_covs[i - 1])
        col_f = np.vstack([col @ m_i.T, corner]) if composite else corner
        pht = col_f @ h_i.T
        if not np.isfinite(pht).all():
            raise ValidationError("P H^T of the gain contains non-finite entries")
        innovation_cov = h_i @ corner @ h_i.T + problem.obs_noise_covs[i - 1]
        inverse = spd_solve(innovation_cov, np.eye(h_i.shape[0]), name="innovation covariance")
        gain = pht @ inverse
        col = col_f - gain @ pht[-m:].T
        col[-m:] = _symmetrize(col[-m:])
        # An overflowing mean is refused right below, so numpy need not warn.
        with np.errstate(over="ignore", invalid="ignore"):
            state = m_i @ mean[-m:] + problem.forcings[i - 1]
            mean_f = np.concatenate([mean, state]) if composite else state
            innovation = problem.observations[i - 1] - h_i @ state
            mean = mean_f + gain @ innovation
        if not np.isfinite(mean).all():
            raise ValidationError("mean contains non-finite entries")
        yield col_f, pht, gain, mean, col


def kf_run(problem: AssimilationProblem) -> KalmanFilterResult:
    """Kalman filter for a fully linear problem.

    The smoother's recursion with the column cut to its trailing m x m
    block: the forecast/gain/update recursion on x_i alone, with the
    covariance symmetrized after each update to control round-off drift.
    """
    recursion = _column_recursion(problem, *_linear_matrices(problem), composite=False)
    estimates = [GaussianEstimate(problem.background_mean.copy(), problem.background_cov.copy())]
    estimates += [GaussianEstimate(mean, cov) for *_, mean, cov in recursion]
    return KalmanFilterResult(tuple(estimates))


def ks_run(problem: AssimilationProblem) -> KalmanSmootherResult:
    """Kalman smoother as the filter on the growing composite state.

    At step i the composite state x_0:i-1 is extended by the forecast of
    x_i, the composite covariance gains one block row/column, and the
    observation y_i (which only sees the trailing block) updates the whole
    composite estimate.  The trailing block column comes from the shared
    recursion; the leading block takes the rank-d update -K (P H^T)^T.
    The trailing block of the final mean therefore reproduces the
    filter's final estimate.  Only the running composite covariance is
    carried; the one estimate built is the final one.
    """
    cov = problem.background_cov
    for _, pht, gain, mean, col in _column_recursion(problem, *_linear_matrices(problem)):
        size = cov.shape[0]
        # Rank-d update of the leading block, symmetrized straight into place.
        update = cov - gain[:size] @ pht[:size].T
        cov = np.empty((col.shape[0],) * 2)
        np.add(update, update.T, out=cov[:size, :size])
        cov[:size, :size] *= 0.5
        cov[:, size:], cov[size:, :size] = col, col[:size].T
    return KalmanSmootherResult(GaussianEstimate(mean, cov))


def ks_least_squares_oracle(problem: AssimilationProblem) -> np.ndarray:
    """Smoothing mean by direct solution of the block normal equations.

    Assembles the full m*(k+1) system for

        |x_0 - x_b|^2_{B^-1} + sum_i |x_i - M_i x_{i-1} - f_i|^2_{Q_i^-1}
                             + sum_i |y_i - H_i x_i|^2_{R_i^-1}

    and solves it with one SPD solve.  Independent of the recursion in
    :func:`ks_run`; used to cross-check it.
    """
    models, obs_mats = _linear_matrices(problem)
    return _normal_equations_solution(problem, zip(models, problem.forcings, obs_mats, problem.observations))


def _normal_equations_solution(problem: AssimilationProblem, steps, gamma: float = 0.0, center=None):
    """The dense normal-equations solve behind both least-squares oracles.

    ``steps`` gives ``(M_i, mu_i, H_i, y_i)`` for i = 1..k, the residuals
    x_i - M_i x_{i-1} - mu_i and y_i - H_i x_i; gamma > 0 adds the damping
    gamma |x_i - center[i]|^2 for i >= 1.
    """
    m, k = problem.state_dim, problem.horizon
    size = m * (k + 1)
    eye = np.eye(m)
    gram, rhs = np.zeros((size, size)), np.zeros(size)

    b_inv = spd_solve(problem.background_cov, eye, name="background_cov")
    gram[:m, :m] += b_inv
    rhs[:m] += b_inv @ problem.background_mean

    for i, (m_i, mu_i, h_i, y_i) in enumerate(steps, start=1):
        q_inv = spd_solve(problem.model_noise_covs[i - 1], eye, name=f"model_noise_covs[{i}]")
        lo, hi = m * (i - 1), m * i
        # Residual x_i - M_i x_{i-1} - mu_i as the block map [-M_i, I].
        gram[lo:hi, lo:hi] += m_i.T @ q_inv @ m_i
        gram[lo:hi, hi : hi + m] += -m_i.T @ q_inv
        gram[hi : hi + m, lo:hi] += -q_inv @ m_i
        gram[hi : hi + m, hi : hi + m] += q_inv
        rhs[lo:hi] += -m_i.T @ q_inv @ mu_i
        rhs[hi : hi + m] += q_inv @ mu_i

        r_inv = spd_solve(problem.obs_noise_covs[i - 1], np.eye(y_i.size), name=f"obs_noise_covs[{i}]")
        gram[hi : hi + m, hi : hi + m] += h_i.T @ r_inv @ h_i
        rhs[hi : hi + m] += h_i.T @ r_inv @ y_i

        if gamma > 0:
            gram[hi : hi + m, hi : hi + m] += gamma * eye
            rhs[hi : hi + m] += gamma * center[i]

    return spd_solve(_symmetrize(gram), rhs, name="normal equations")
