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
since with exact gains no member depends on another; each exact gain is
computed once per call.  A study sweeping the ensemble size runs every
size in that one pass, on prefixes of the largest size's draw.

Ensembles are held state-major, as (state, member) arrays: with a state
of a few components and thousands of members, every mean, deviation and
product then runs along the contiguous member axis.  The runners' results
still hand out one row per member, as transposed views.  Sample
statistics are always reduced in ascending member-key order, so a run
whose member keys are permuted reproduces the unpermuted run's
statistics bit for bit; permuting keys permutes output members exactly.

The degenerate zero-spread ensemble needs no special casing: all sample
products vanish, the innovation covariance reduces to R (still SPD), and
the gain is exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .kalman import _column_recursion, _linear_matrices
from .numerics import _factor, _solve
from .problem import AssimilationProblem, _validated_factors
from .streams import NoiseKind, PerturbationStream, Phase, derive_seed

__all__ = [
    "EnsembleRunResult",
    "ReferenceRunResult",
    "enkf_run",
    "enks_run",
    "reference_enks_run",
    "coupled_member_diffs",
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


def _canonical_columns(ensemble: np.ndarray, order: np.ndarray | None) -> np.ndarray:
    """A (state, member) ensemble's columns in ascending member-key order.

    The gather is C-ordered, as a sorted run's ensemble is, so reductions
    along the member axis visit the same values in the same order.
    """
    return ensemble if order is None else np.take(ensemble, order, axis=1)


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
    return ensemble + innovations @ _gain_transpose(pht, hpht, obs_cov)


def _gain_transpose(pht: np.ndarray, hpht: np.ndarray, obs_cov: np.ndarray) -> np.ndarray:
    """K^T = (hpht + R)^-1 pht^T from the lower triangle of hpht + R."""
    factor = _factor(hpht + obs_cov, "innovation covariance")
    return _solve(factor, pht.T, "innovation covariance")


def _sample_products(
    composite_dev: np.ndarray, obs_dev: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Matrix-free P @ H^T and H @ P @ H^T from deviation rows."""
    n = composite_dev.shape[0]
    pht = composite_dev.T @ obs_dev / (n - 1)
    hpht = obs_dev.T @ obs_dev / (n - 1)
    return pht, 0.5 * (hpht + hpht.T)


def _initial_ensemble(problem, lin, stream, members) -> np.ndarray:
    """Members drawn from N(background_mean, background_cov) by their keys, as columns."""
    z = stream.draw_members(Phase.SMOOTHER, 0, 0, NoiseKind.INIT, members, problem.state_dim)
    return problem.background_mean[:, None] + lin[2] @ z.T


def _step_draws(problem, stream, members, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Step i's model and observation draws, one column per member key."""
    v = stream.draw_members(Phase.SMOOTHER, 0, i, NoiseKind.MODEL, members, problem.state_dim)
    w = stream.draw_members(Phase.SMOOTHER, 0, i, NoiseKind.OBS, members, problem.obs_dim(i))
    return v.T, w.T


def _sample_gain(forecast, order, h_i, r_i) -> np.ndarray:
    """K^T from the sample products of the forecast columns in key order.

    The deviations live only in this scope, so they are freed before the
    caller applies the gain.
    """
    m = h_i.shape[1]
    sorted_ens = _canonical_columns(forecast, order)
    dev = sorted_ens - sorted_ens.mean(axis=1, keepdims=True)
    return _gain_transpose(*_sample_products(dev.T, (h_i @ dev[-m:]).T), r_i)


def _forecast(problem, lin, i, ensemble, v, composite) -> np.ndarray:
    """Step i's forecast: the ensemble with its advanced state appended, or that state alone."""
    models, _, _, l_q, _ = lin
    m = problem.state_dim
    state = models[i - 1] @ ensemble[-m:] + problem.forcings[i - 1][:, None] + l_q[i - 1] @ v
    return np.vstack([ensemble, state]) if composite else state


def _forecast_analysis(
    problem, lin, i, ensemble, v, w, order=None, cov_f=None, composite=True, gains=None, forecasts=None
):
    """One forecast/analysis step on a (state, member) ensemble; returns the analysis.

    Columns are advanced with model draws ``v``, then updated with
    perturbed observations (obs draws ``w``), both one column per member.
    The gain comes from sample products over the columns in ``order`` or,
    when ``cov_f`` is given, from the exact composite forecast covariance
    or its trailing block column (only that is read), in which case every
    column is updated independently of the others.  An exact gain depends
    on the step alone: ``gains`` (a dict, required with ``cov_f``) is
    shared by the calls of one run and keeps each step's K^T once
    computed.  A composite ensemble gains the forecast block as new rows;
    a filter ensemble (``composite=False``) is replaced by it.  A copy of
    the forecast is appended to ``forecasts`` when it is given; the
    update itself is made in place.
    """
    _, obs_mats, _, _, l_r = lin
    m, h_i, r_i = problem.state_dim, obs_mats[i - 1], problem.obs_noise_covs[i - 1]
    forecast = _forecast(problem, lin, i, ensemble, v, composite)
    if forecasts is not None:
        forecasts.append(forecast.copy())
    if cov_f is None:
        gain_t = _sample_gain(forecast, order, h_i, r_i)
    else:
        if i not in gains:
            gains[i] = _gain_transpose(cov_f[:, -m:] @ h_i.T, h_i @ cov_f[-m:, -m:] @ h_i.T, r_i)
        gain_t = gains[i]
    innovations = problem.observations[i - 1][:, None] - l_r[i - 1] @ w - h_i @ forecast[-m:]
    forecast += gain_t.T @ innovations
    return forecast


def _run(problem, lin, stream, members, order=None, cov_fs=None, composite=True, forecasts=None):
    """The keyed pass of the three runners; returns the (state, member) analyses."""
    analyses, gains = [_initial_ensemble(problem, lin, stream, members)], {}
    for i in range(1, problem.horizon + 1):
        v, w = _step_draws(problem, stream, members, i)
        cov_f = None if cov_fs is None else cov_fs[i - 1]
        analyses.append(
            _forecast_analysis(problem, lin, i, analyses[-1], v, w, order, cov_f, composite, gains, forecasts)
        )
    return analyses


def _ensemble_result(problem, n_members, stream, member_indices, composite):
    if n_members < 2:
        name = "EnKS" if composite else "EnKF"
        raise ValidationError(f"{name} needs at least 2 members, got {n_members}")
    members = _member_array(n_members, member_indices)
    order = _canonical_order(members)
    lin = _linear_matrices(problem, "ensemble Kalman runs")
    forecasts = []
    analyses = _run(problem, lin, stream, members, order, composite=composite, forecasts=forecasts)
    means = tuple(_canonical_columns(a, order).mean(axis=1) for a in analyses)
    return EnsembleRunResult(
        tuple(a.T for a in analyses), tuple(f.T for f in forecasts), means, tuple(members.tolist())
    )


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
    forecast_covariances=None,
) -> ReferenceRunResult:
    """Composite ensemble updated with exact covariances.

    Consumes the same keyed draws as :func:`enks_run` but replaces the
    sample-covariance products in the gain with the exact composite
    forecast covariances, the trailing block columns of the Kalman
    smoother's recursion.  Each member then evolves independently of the
    others, and is an exact draw from the smoothing distribution; a single
    member (n_members=1) is valid.

    ``forecast_covariances`` may override the exact covariances, which is
    useful for forcing the reference update to coincide with an ensemble
    run in tests.
    """
    if n_members < 1:
        raise ValidationError(f"reference run needs at least 1 member, got {n_members}")
    members = _member_array(n_members, member_indices)
    lin = _linear_matrices(problem, "ensemble Kalman runs")

    if forecast_covariances is None:
        forecast_covariances = [col_f for _, col_f, *_ in _column_recursion(problem, *lin[:2])]
    forecast_covariances = tuple(np.asarray(c, dtype=float) for c in forecast_covariances)
    if len(forecast_covariances) != problem.horizon:
        raise ValidationError(
            f"need {problem.horizon} forecast covariances, got {len(forecast_covariances)}"
        )

    analyses = _run(problem, lin, stream, members, cov_fs=forecast_covariances)
    return ReferenceRunResult(tuple(a.T for a in analyses), forecast_covariances, tuple(members.tolist()))


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
    (diffs,) = _coupled_diffs(problem, (n_members,), stream, replicates, _validated_factors(problem))
    return diffs


def _coupled_diffs(problem, sizes, stream, replicates, factors) -> list[list[np.ndarray]]:
    """:func:`coupled_member_diffs` for every ensemble size in ``sizes`` at once.

    Size n uses keys 0..n-1, a prefix of the largest size's keys, so each
    replicate draws every key once, at the largest size, and each EnKS arm
    runs on the first n columns of that draw: bit for bit a separate draw.
    One reference arm (key 0, exact gains) serves every size.  ``factors``
    are the Cholesky factors :func:`_validated_factors` returned for
    ``problem``.  Returns one list of per-replicate diffs per size.
    """
    if replicates < 1:
        raise ValidationError(f"replicates must be >= 1, got {replicates}")
    if min(sizes) < 2:
        raise ValidationError(f"EnKS needs at least 2 members, got {min(sizes)}")
    lin = _linear_matrices(problem, "ensemble Kalman runs", factors)
    forecast_columns = [col_f for _, col_f, *_ in _column_recursion(problem, *lin[:2])]
    gains = {}
    per_replicate = [
        _coupled_replicate(problem, lin, sizes, PerturbationStream(derive_seed(stream.seed, r)), forecast_columns, gains)
        for r in range(replicates)
    ]
    return [list(cell) for cell in zip(*per_replicate)]


def _coupled_replicate(problem, lin, sizes, stream, forecast_columns, gains) -> list[np.ndarray]:
    """One replicate of :func:`_coupled_diffs`: each size's member-1 gap."""
    members = np.arange(max(sizes), dtype=np.int64)
    initial = _initial_ensemble(problem, lin, stream, members)
    ensembles, reference = [initial[:, :n] for n in sizes], initial[:, :1]
    del initial  # the prefixes keep it alive through step 1 only
    for i in range(1, problem.horizon + 1):
        v, w = _step_draws(problem, stream, members, i)
        ensembles = [
            _forecast_analysis(problem, lin, i, ensemble, v[:, :n], w[:, :n])
            for ensemble, n in zip(ensembles, sizes)
        ]
        reference = _forecast_analysis(
            problem, lin, i, reference, v[:, :1], w[:, :1], cov_f=forecast_columns[i - 1], gains=gains
        )
    return [ensemble[:, 0] - reference[:, 0] for ensemble in ensembles]
