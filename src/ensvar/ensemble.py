"""Ensemble Kalman filter and smoother with matrix-free covariance products.

Three variants share one analysis kernel and differ only in where the
covariance products come from:

* :func:`enkf_run` - per-time state ensembles, sample covariances;
* :func:`enks_run` - composite-state (trajectory) ensembles, sample
  covariances;
* :func:`reference_enks_run` - composite ensembles whose gains use the
  *exact* covariances from the Kalman smoother.  Its members are i.i.d.
  draws from the smoothing distribution, and it consumes the same keyed
  perturbations as :func:`enks_run`, so the pair forms a coupled run whose
  member-wise difference is pure sampling error of the ensemble method.

Sample statistics are always reduced in ascending member-key order, so a
run whose member keys are permuted reproduces the unpermuted run's
statistics bit for bit; permuting keys permutes output members exactly.

The degenerate zero-spread ensemble needs no special casing: all sample
products vanish, the innovation covariance reduces to R (still SPD), and
the gain is exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NonlinearOperatorError, NotSPDError, ValidationError
from .kalman import KalmanSmootherResult, ks_run
from .numerics import cholesky_spd, empirical_lp_norm
from .problem import AssimilationProblem, validate_problem
from .streams import NoiseKind, PerturbationStream, Phase, derive_seed

__all__ = [
    "EnsembleRunResult",
    "ReferenceRunResult",
    "enkf_run",
    "enks_run",
    "reference_enks_run",
    "coupled_member_diffs",
    "coupled_enks_error",
]


@dataclass(frozen=True, eq=False)
class EnsembleRunResult:
    """Ensembles produced by an EnKF/EnKS pass.

    ``analysis_ensembles[i]`` holds the post-update ensemble at time i
    (rows are members, in the caller's slot order); for the smoother these
    are composite states of growing length m*(i+1).  ``sample_means`` are
    the canonical-order means of the analysis ensembles.
    """

    analysis_ensembles: tuple[np.ndarray, ...]
    forecast_ensembles: tuple[np.ndarray, ...]
    sample_means: tuple[np.ndarray, ...]
    member_indices: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class ReferenceRunResult:
    """Exact-covariance reference ensembles and the covariances they used."""

    analysis_ensembles: tuple[np.ndarray, ...]
    forecast_covariances: tuple[np.ndarray, ...]
    member_indices: tuple[int, ...]


def _member_array(n_members: int, member_indices) -> np.ndarray:
    if member_indices is None:
        return np.arange(n_members, dtype=np.int64)
    arr = np.asarray(member_indices, dtype=np.int64)
    if arr.size != n_members:
        raise ValidationError(
            f"member_indices has {arr.size} entries, expected {n_members}"
        )
    if len(set(arr.tolist())) != arr.size:
        raise ValidationError("member_indices must be distinct")
    return arr


def _canonical_order(members: np.ndarray) -> np.ndarray:
    return np.argsort(members, kind="stable")


def _analysis_update(
    ensemble: np.ndarray,
    innovations: np.ndarray,
    pht: np.ndarray,
    hpht: np.ndarray,
    obs_cov: np.ndarray,
) -> np.ndarray:
    """Shared analysis kernel: members += K @ innovation, K from products.

    The gain K = pht @ (hpht + R)^-1 is applied without ever forming a
    covariance matrix; only the two products enter.
    """
    try:
        factor = scipy.linalg.cho_factor(hpht + obs_cov, lower=True)
    except scipy.linalg.LinAlgError:
        raise NotSPDError("innovation covariance is not positive definite") from None
    return ensemble + innovations @ scipy.linalg.cho_solve(factor, pht.T)


def _sample_products(
    composite_dev: np.ndarray, obs_dev: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Matrix-free P @ H^T and H @ P @ H^T from deviation rows."""
    n = composite_dev.shape[0]
    pht = composite_dev.T @ obs_dev / (n - 1)
    hpht = obs_dev.T @ obs_dev / (n - 1)
    return pht, 0.5 * (hpht + hpht.T)


def _prepare_linear(problem: AssimilationProblem, n_members: int):
    validate_problem(problem)
    if not problem.all_linear:
        raise NonlinearOperatorError(
            "ensemble Kalman runs require every operator to be flagged linear"
        )
    m = problem.state_dim
    models = [op.as_matrix(m) for op in problem.model_ops]
    obs = [op.as_matrix(m) for op in problem.obs_ops]
    l_b = cholesky_spd(problem.background_cov, "background_cov")
    l_q = [cholesky_spd(q, "model_noise_cov") for q in problem.model_noise_covs]
    l_r = [cholesky_spd(r, "obs_noise_cov") for r in problem.obs_noise_covs]
    return models, obs, l_b, l_q, l_r


def enkf_run(
    problem: AssimilationProblem,
    n_members: int,
    stream: PerturbationStream,
    member_indices=None,
) -> EnsembleRunResult:
    """Perturbed-observation ensemble Kalman filter (linear operators).

    Members start as draws from N(background_mean, background_cov), are
    advanced with per-member model noise, and are updated with perturbed
    observations; the observation perturbation is subtracted inside the
    innovation, ``y - W_n - H x_n``.
    """
    if n_members < 2:
        raise ValidationError(f"EnKF needs at least 2 members, got {n_members}")
    members = _member_array(n_members, member_indices)
    order = _canonical_order(members)
    models, obs_mats, l_b, l_q, l_r = _prepare_linear(problem, n_members)
    m = problem.state_dim

    z = stream.draw_members(Phase.SMOOTHER, 0, 0, NoiseKind.INIT, members, m)
    ensemble = problem.background_mean + z @ l_b.T

    analyses = [ensemble.copy()]
    forecasts = []
    means = [ensemble[order].mean(axis=0)]
    for i in range(1, problem.horizon + 1):
        h_i = obs_mats[i - 1]
        y_i = problem.observations[i - 1]
        d = problem.obs_dim(i)

        v = stream.draw_members(Phase.SMOOTHER, 0, i, NoiseKind.MODEL, members, m)
        ensemble = ensemble @ models[i - 1].T + problem.forcings[i - 1] + v @ l_q[i - 1].T
        forecasts.append(ensemble.copy())

        dev = ensemble[order] - ensemble[order].mean(axis=0)
        pht, hpht = _sample_products(dev, dev @ h_i.T)

        w = stream.draw_members(Phase.SMOOTHER, 0, i, NoiseKind.OBS, members, d)
        innovations = y_i - w @ l_r[i - 1].T - ensemble @ h_i.T
        ensemble = _analysis_update(
            ensemble, innovations, pht, hpht, problem.obs_noise_covs[i - 1]
        )

        analyses.append(ensemble.copy())
        means.append(ensemble[order].mean(axis=0))
    return EnsembleRunResult(
        tuple(analyses), tuple(forecasts), tuple(means), tuple(members.tolist())
    )


def enks_run(
    problem: AssimilationProblem,
    n_members: int,
    stream: PerturbationStream,
    member_indices=None,
) -> EnsembleRunResult:
    """Ensemble Kalman smoother over composite states (linear operators).

    Identical keyed draws to :func:`enkf_run`; the update touches the whole
    composite trajectory, so the time-i marginal of the smoother ensemble
    coincides with the filter ensemble member for member.
    """
    if n_members < 2:
        raise ValidationError(f"EnKS needs at least 2 members, got {n_members}")
    members = _member_array(n_members, member_indices)
    order = _canonical_order(members)
    models, obs_mats, l_b, l_q, l_r = _prepare_linear(problem, n_members)
    m = problem.state_dim

    z = stream.draw_members(Phase.SMOOTHER, 0, 0, NoiseKind.INIT, members, m)
    ensemble = problem.background_mean + z @ l_b.T

    analyses = [ensemble.copy()]
    forecasts = []
    means = [ensemble[order].mean(axis=0)]
    for i in range(1, problem.horizon + 1):
        h_i = obs_mats[i - 1]
        y_i = problem.observations[i - 1]
        d = problem.obs_dim(i)

        v = stream.draw_members(Phase.SMOOTHER, 0, i, NoiseKind.MODEL, members, m)
        state = ensemble[:, -m:] @ models[i - 1].T + problem.forcings[i - 1] + v @ l_q[i - 1].T
        ensemble = np.hstack([ensemble, state])
        forecasts.append(ensemble.copy())

        sorted_ens = ensemble[order]
        dev = sorted_ens - sorted_ens.mean(axis=0)
        pht, hpht = _sample_products(dev, dev[:, -m:] @ h_i.T)

        w = stream.draw_members(Phase.SMOOTHER, 0, i, NoiseKind.OBS, members, d)
        innovations = y_i - w @ l_r[i - 1].T - ensemble[:, -m:] @ h_i.T
        ensemble = _analysis_update(
            ensemble, innovations, pht, hpht, problem.obs_noise_covs[i - 1]
        )

        analyses.append(ensemble.copy())
        means.append(ensemble[order].mean(axis=0))
    return EnsembleRunResult(
        tuple(analyses), tuple(forecasts), tuple(means), tuple(members.tolist())
    )


def reference_enks_run(
    problem: AssimilationProblem,
    n_members: int,
    stream: PerturbationStream,
    member_indices=None,
    smoother: KalmanSmootherResult | None = None,
    forecast_covariances=None,
) -> ReferenceRunResult:
    """Composite ensemble updated with exact covariances.

    Consumes the same keyed draws as :func:`enks_run` but replaces the
    sample-covariance products in the gain with the exact composite
    forecast covariances from the Kalman smoother.  Each member then
    evolves independently of the others, and is an exact draw from the
    smoothing distribution; a single member (n_members=1) is valid.

    ``forecast_covariances`` may override the exact covariances, which is
    useful for forcing the reference update to coincide with an ensemble
    run in tests.
    """
    if n_members < 1:
        raise ValidationError(f"reference run needs at least 1 member, got {n_members}")
    members = _member_array(n_members, member_indices)
    models, obs_mats, l_b, l_q, l_r = _prepare_linear(problem, n_members)
    m = problem.state_dim

    if forecast_covariances is None:
        if smoother is None:
            smoother = ks_run(problem)
        forecast_covariances = smoother.forecast_covariances
    forecast_covariances = tuple(np.asarray(c, dtype=float) for c in forecast_covariances)
    if len(forecast_covariances) != problem.horizon:
        raise ValidationError(
            f"need {problem.horizon} forecast covariances, got {len(forecast_covariances)}"
        )

    z = stream.draw_members(Phase.SMOOTHER, 0, 0, NoiseKind.INIT, members, m)
    ensemble = problem.background_mean + z @ l_b.T

    analyses = [ensemble.copy()]
    for i in range(1, problem.horizon + 1):
        h_i = obs_mats[i - 1]
        y_i = problem.observations[i - 1]
        d = problem.obs_dim(i)

        v = stream.draw_members(Phase.SMOOTHER, 0, i, NoiseKind.MODEL, members, m)
        state = ensemble[:, -m:] @ models[i - 1].T + problem.forcings[i - 1] + v @ l_q[i - 1].T
        ensemble = np.hstack([ensemble, state])

        cov_f = forecast_covariances[i - 1]
        pht = cov_f[:, -m:] @ h_i.T
        hpht = h_i @ cov_f[-m:, -m:] @ h_i.T

        w = stream.draw_members(Phase.SMOOTHER, 0, i, NoiseKind.OBS, members, d)
        innovations = y_i - w @ l_r[i - 1].T - ensemble[:, -m:] @ h_i.T
        ensemble = _analysis_update(
            ensemble, innovations, pht, hpht, problem.obs_noise_covs[i - 1]
        )
        analyses.append(ensemble.copy())
    return ReferenceRunResult(tuple(analyses), forecast_covariances, tuple(members.tolist()))


def coupled_member_diffs(
    problem: AssimilationProblem,
    n_members: int,
    stream: PerturbationStream,
    replicates: int,
) -> list[np.ndarray]:
    """Per-replicate difference of member 1 between EnKS and reference run.

    Each replicate derives its own seed from the stream's root seed and
    feeds *identical* draws to both arms, so the difference measures only
    the effect of sample versus exact covariances.
    """
    if replicates < 1:
        raise ValidationError(f"replicates must be >= 1, got {replicates}")
    smoother = ks_run(problem)
    diffs = []
    for r in range(replicates):
        seed = derive_seed(stream.seed, r)
        enks = enks_run(problem, n_members, PerturbationStream(seed))
        ref = reference_enks_run(
            problem, n_members, PerturbationStream(seed), smoother=smoother
        )
        diffs.append(enks.analysis_ensembles[-1][0] - ref.analysis_ensembles[-1][0])
    return diffs


def coupled_enks_error(
    problem: AssimilationProblem,
    n_members: int,
    stream: PerturbationStream,
    p_order: float,
    replicates: int,
) -> float:
    """Empirical L^p estimate of the member-1 EnKS-vs-reference gap."""
    diffs = coupled_member_diffs(problem, n_members, stream, replicates)
    return empirical_lp_norm(diffs, p_order)
