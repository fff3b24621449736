"""Exact recursions for the linear-Gaussian case.

Every exact solver runs on :func:`_block_factor`, which eliminates the
smoothing problem's block-tridiagonal normal equations once, before any
data.  Its forward sweep is the information filter (:func:`kf_run`).  Its
back substitution gives the smoothing mean, the exact LM step and each
exact reference member; :func:`ks_run` adds the smoothing covariance by
the Rauch–Tung–Striebel recursion in information form.

Every covariance these solvers return is the inverse, or a diagonal block
of the inverse, of the block-tridiagonal precision matrix whose Schur
complements all took a ``dpotrf`` factor with positive pivots, which
proves it SPD.  So they build their estimates by
``problem._certified_estimate``: shapes, finite entries and bit-for-bit
symmetry, at O(n^2) with no BLAS call, and no dense O((k m)^3) PSD check.

An independent block least-squares oracle solves the smoothing problem by
assembling and solving its normal equations directly; it shares no code
path with the elimination beyond the low-level SPD solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonlinearOperatorError
from .numerics import _factor, _solve, spd_solve
from .problem import AssimilationProblem, GaussianEstimate, _certified_estimate

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


def kf_run(problem: AssimilationProblem) -> KalmanFilterResult:
    """Kalman filter for a fully linear problem, in information form: the
    estimate at time i >= 1 is F_i^-1 b_i with the covariance F_i^-1,
    symmetrized, from the end of the window 0..i of :func:`_block_factor`'s
    forward sweep.  Time 0 is the background, its covariance symmetrized
    (the same bits for a B symmetric bit for bit)."""
    sweep, *_, last = _block_factor(problem, *_linear_matrices(problem))
    _, ends = sweep(problem.background_mean, problem.forcings, problem.observations)
    estimates = [_certified_estimate(problem.background_mean.copy(), _symmetrize(problem.background_cov))]
    for information, b in zip(last[1:], ends[1:]):
        factor = _factor(information, "normal equations")
        cov = _symmetrize(_solve(factor, np.eye(problem.state_dim), "normal equations"))
        estimates.append(_certified_estimate(_solve(factor, b, "normal equations"), cov))
    return KalmanFilterResult(tuple(estimates))


def ks_run(problem: AssimilationProblem) -> KalmanSmootherResult:
    """Kalman smoother: the mean by back substitution, the covariance by the
    Rauch–Tung–Striebel recursion (1965) in information form: with the
    Schur complements S_i and couplings C_i of :func:`_block_factor`,
    P_kk = S_k^-1, P_il = -C_i P_i+1,l for l > i, P_ii = S_i^-1 - P_i,i+1 C_i^T.
    The mean and diagonal blocks cost O(k m^3), the row blocks O(k^2 m^3),
    the output's size.  Row blocks are mirrored and diagonal blocks
    symmetrized, so the covariance is symmetric bit for bit; its trailing
    block is the filter's final estimate, and the only estimate built,
    certified by the factors of S_0..S_k rather than a dense check."""
    sweep, back, schur, coupling, _ = _block_factor(problem, *_linear_matrices(problem))
    m, k = problem.state_dim, problem.horizon
    eye = np.eye(m)
    mean = back(*sweep(problem.background_mean, problem.forcings, problem.observations))
    cov = np.empty((m * (k + 1),) * 2)
    cov[-m:, -m:] = _symmetrize(_solve(schur[k], eye, "normal equations"))
    for i in range(k - 1, -1, -1):
        lo, hi = m * i, m * (i + 1)
        cov[lo:hi, hi:] = -coupling[i] @ cov[hi : hi + m, hi:]
        cov[hi:, lo:hi] = cov[lo:hi, hi:].T
        inverse = _solve(schur[i], eye, "normal equations")
        cov[lo:hi, lo:hi] = _symmetrize(inverse - cov[lo:hi, hi : hi + m] @ coupling[i].T)
    return KalmanSmootherResult(_certified_estimate(mean, cov))


def _block_factor(problem: AssimilationProblem, models, obs_mats, gamma: float = 0.0):
    """The smoothing problem's normal equations on the system (M_i, H_i),
    damped by gamma |x_i - c_i|^2 for i >= 1, eliminated before any data.

    They are block tridiagonal, with A_i = -Q_i^-1 M_i coupling x_i to
    x_{i-1}.  Each Schur complement S_i = D_i - A_i C_{i-1}, with
    C_i = S_i^-1 A_{i+1}^T, is factored once; F_i, S_i without step i+1's
    M^T Q^-1 M, ends the window 0..i and is the filter's information
    matrix at time i.  Returns ``(sweep, back, schur, coupling, last)``:
    the data path, the factors of S_0..S_k, C_0..C_k-1 and F_0..F_k.
    ``sweep(background, forcings, observations, centers=None)`` maps x_b,
    mu_i, y_i (and c_i when damped), as vectors or member columns, to the
    eliminated right-hand sides r_0..r_k-1 and b_0..b_k, each window 0..i's
    own (r_i before step i+1's term), at O(k m^2) a column with no solve.
    ``back(rhs[:i], ends)`` solves F_i x_i = b_i and substitutes back to the
    window's mean x_0:i, so ``back(*sweep(...))`` is the composite mean.
    """
    m, k = problem.state_dim, problem.horizon
    eye = np.eye(m)
    l_b, l_q, l_r = problem._factors
    # A non-finite block or right-hand side is refused by its factor or solve: numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        q_inv = [_solve(l, eye, "model_noise_cov") for l in l_q]
        r_inv_h = [_solve(l, h, "obs_noise_cov") for l, h in zip(l_r, obs_mats)]
        lower = [-q @ a for q, a in zip(q_inv, models)]
        last, schur, coupling = [_solve(l_b, eye, "background_cov")], [], []
        for i in range(k):
            schur.append(_factor(last[i] - models[i].T @ lower[i], "normal equations"))
            coupling.append(_solve(schur[i], lower[i].T, "normal equations"))
            last.append(q_inv[i] + obs_mats[i].T @ r_inv_h[i] + gamma * eye - lower[i] @ coupling[i])
        schur.append(_factor(last[k], "normal equations"))

    @np.errstate(over="ignore", invalid="ignore")
    def sweep(background, forcings, observations, centers=None):
        ends, rhs = [last[0] @ background], []
        centers = [0.0] * k if centers is None else centers
        for i, (mu, y, c) in enumerate(zip(forcings, observations, centers)):
            rhs.append(ends[i] + lower[i].T @ mu)
            ends.append(q_inv[i] @ mu + r_inv_h[i].T @ y + gamma * c - coupling[i].T @ rhs[i])
        return rhs, ends

    @np.errstate(over="ignore", invalid="ignore")
    def back(rhs, ends):
        i = len(rhs)
        x = np.empty((i + 1, *ends[i].shape))
        top = schur[k] if i == k else _factor(last[i], "normal equations")  # F_k = S_k
        x[i] = _solve(top, ends[i], "normal equations")
        for j in range(i - 1, -1, -1):
            x[j] = _solve(schur[j], rhs[j] - lower[j].T @ x[j + 1], "normal equations")
        return x.reshape(-1, *ends[i].shape[1:])

    return sweep, back, schur, coupling, last


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
