"""Ensemble Kalman filter and smoother with matrix-free covariance products.

Three variants share one forecast/analysis step and differ only in where
the covariance products come from:

* :func:`enkf_run` - per-time state ensembles, sample covariances;
* :func:`enks_run` - composite-state (trajectory) ensembles, sample
  covariances;
* :func:`reference_enks_run` - composite ensembles whose gains use the
  *exact* covariances of the Kalman smoother's recursion.  Its members are
  i.i.d. draws from the smoothing distribution, and it consumes the same
  keyed perturbations as :func:`enks_run`, so the pair forms a coupled run
  whose member-wise difference is pure sampling error of the ensemble
  method.

:func:`coupled_member_diffs` runs that pair as one pass: each key is drawn
once and fed to both arms, and the reference arm carries member 1 only,
since with exact gains no member depends on another.

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

from .errors import NotSPDError, ValidationError
from .kalman import KalmanSmootherResult, _column_recursion, _linear_matrices
from .numerics import cholesky_spd, empirical_lp_norm
from .problem import AssimilationProblem
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
    """Exact-covariance reference ensembles and the covariances they used.

    By default these are the trailing block columns ``cov_f[:, -m:]``, the
    only part the update reads; supplied covariances are kept as given.
    """

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


def _canonical_order(members: np.ndarray) -> np.ndarray | None:
    """Stable ascending order of the member keys; None when already sorted."""
    if np.all(members[1:] >= members[:-1]):
        return None
    return np.argsort(members, kind="stable")


def _canonical(rows: np.ndarray, order: np.ndarray | None) -> np.ndarray:
    """``rows`` in ascending member-key order, without a copy when sorted."""
    return rows if order is None else rows[order]


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


def _prepare_linear(problem: AssimilationProblem):
    models, obs = _linear_matrices(problem, "ensemble Kalman runs")
    l_b = cholesky_spd(problem.background_cov, "background_cov")
    l_q = [cholesky_spd(q, "model_noise_cov") for q in problem.model_noise_covs]
    l_r = [cholesky_spd(r, "obs_noise_cov") for r in problem.obs_noise_covs]
    return models, obs, l_b, l_q, l_r


def _initial_ensemble(problem, lin, stream, members) -> np.ndarray:
    """Members drawn from N(background_mean, background_cov) by their keys."""
    z = stream.draw_members(Phase.SMOOTHER, 0, 0, NoiseKind.INIT, members, problem.state_dim)
    return problem.background_mean + z @ lin[2].T


def _step_draws(problem, stream, members, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Step i's model and observation draws, one row per member key."""
    v = stream.draw_members(Phase.SMOOTHER, 0, i, NoiseKind.MODEL, members, problem.state_dim)
    w = stream.draw_members(Phase.SMOOTHER, 0, i, NoiseKind.OBS, members, problem.obs_dim(i))
    return v, w


def _forecast_analysis(problem, lin, i, ensemble, v, w, order=None, cov_f=None, composite=True):
    """One forecast/analysis step; returns (forecast, analysis) ensembles.

    Rows are advanced with model draws ``v``, then updated with perturbed
    observations (obs draws ``w``).  The gain comes from sample products
    over the rows in ``order`` or, when ``cov_f`` is given, from the exact
    composite forecast covariance or its trailing block column (only that
    is read), in which case every row is updated independently of the
    others.  A composite ensemble gains the forecast block as new columns;
    a filter ensemble (``composite=False``) is replaced by it.
    """
    models, obs_mats, _, l_q, l_r = lin
    m = problem.state_dim
    h_i = obs_mats[i - 1]
    state = ensemble[:, -m:] @ models[i - 1].T + problem.forcings[i - 1] + v @ l_q[i - 1].T
    forecast = np.hstack([ensemble, state]) if composite else state
    if cov_f is None:
        sorted_ens = _canonical(forecast, order)
        dev = sorted_ens - sorted_ens.mean(axis=0)
        pht, hpht = _sample_products(dev, dev[:, -m:] @ h_i.T)
    else:
        pht = cov_f[:, -m:] @ h_i.T
        hpht = h_i @ cov_f[-m:, -m:] @ h_i.T
    innovations = problem.observations[i - 1] - w @ l_r[i - 1].T - forecast[:, -m:] @ h_i.T
    analysis = _analysis_update(
        forecast, innovations, pht, hpht, problem.obs_noise_covs[i - 1]
    )
    return forecast, analysis


def _run(problem, lin, stream, members, order=None, cov_fs=None, composite=True):
    """The keyed pass of the three runners; returns (analyses, forecasts)."""
    analyses = [_initial_ensemble(problem, lin, stream, members)]
    forecasts = []
    for i in range(1, problem.horizon + 1):
        v, w = _step_draws(problem, stream, members, i)
        cov_f = None if cov_fs is None else cov_fs[i - 1]
        forecast, analysis = _forecast_analysis(
            problem, lin, i, analyses[-1], v, w, order, cov_f, composite
        )
        forecasts.append(forecast)
        analyses.append(analysis)
    return tuple(analyses), tuple(forecasts)


def _ensemble_result(problem, n_members, stream, member_indices, composite):
    if n_members < 2:
        name = "EnKS" if composite else "EnKF"
        raise ValidationError(f"{name} needs at least 2 members, got {n_members}")
    members = _member_array(n_members, member_indices)
    order = _canonical_order(members)
    lin = _prepare_linear(problem)
    analyses, forecasts = _run(problem, lin, stream, members, order, composite=composite)
    means = tuple(_canonical(a, order).mean(axis=0) for a in analyses)
    return EnsembleRunResult(analyses, forecasts, means, tuple(members.tolist()))


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
    return _ensemble_result(problem, n_members, stream, member_indices, composite=False)


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
    return _ensemble_result(problem, n_members, stream, member_indices, composite=True)


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
    forecast covariances: by default the trailing block columns of the
    Kalman smoother's recursion, else those of ``smoother``.  Each member
    then evolves independently of the others, and is an exact draw from
    the smoothing distribution; a single member (n_members=1) is valid.

    ``forecast_covariances`` may override the exact covariances, which is
    useful for forcing the reference update to coincide with an ensemble
    run in tests.
    """
    if n_members < 1:
        raise ValidationError(f"reference run needs at least 1 member, got {n_members}")
    members = _member_array(n_members, member_indices)
    lin = _prepare_linear(problem)

    if forecast_covariances is None:
        if smoother is None:
            forecast_covariances = [col_f for _, col_f, *_ in _column_recursion(problem, *lin[:2])]
        else:
            forecast_covariances = smoother.forecast_covariances
    forecast_covariances = tuple(np.asarray(c, dtype=float) for c in forecast_covariances)
    if len(forecast_covariances) != problem.horizon:
        raise ValidationError(
            f"need {problem.horizon} forecast covariances, got {len(forecast_covariances)}"
        )

    analyses, _ = _run(problem, lin, stream, members, cov_fs=forecast_covariances)
    return ReferenceRunResult(analyses, forecast_covariances, tuple(members.tolist()))


def coupled_member_diffs(
    problem: AssimilationProblem,
    n_members: int,
    stream: PerturbationStream,
    replicates: int,
) -> list[np.ndarray]:
    """Per-replicate difference of member 1 between EnKS and reference run.

    Each replicate derives its own seed from the stream's root seed and
    runs both arms in one pass: every key is drawn once, for all members,
    and both arms consume that draw, so the difference measures only the
    effect of sample versus exact covariances.  The EnKS arm updates all
    members; the reference arm carries member 1 (key 0) alone, which is
    exact because its gains use no other member.  The result equals the
    member-1 gap between :func:`enks_run` and :func:`reference_enks_run`
    up to round-off.
    """
    if replicates < 1:
        raise ValidationError(f"replicates must be >= 1, got {replicates}")
    if n_members < 2:
        raise ValidationError(f"EnKS needs at least 2 members, got {n_members}")
    lin = _prepare_linear(problem)
    forecast_columns = [col_f for _, col_f, *_ in _column_recursion(problem, *lin[:2])]
    members = _member_array(n_members, None)
    order = _canonical_order(members)
    diffs = []
    for r in range(replicates):
        replicate_stream = PerturbationStream(derive_seed(stream.seed, r))
        ensemble = _initial_ensemble(problem, lin, replicate_stream, members)
        reference = ensemble[:1]
        for i in range(1, problem.horizon + 1):
            v, w = _step_draws(problem, replicate_stream, members, i)
            _, ensemble = _forecast_analysis(problem, lin, i, ensemble, v, w, order)
            _, reference = _forecast_analysis(
                problem, lin, i, reference, v[:1], w[:1], cov_f=forecast_columns[i - 1]
            )
        diffs.append(ensemble[0] - reference[0])
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
