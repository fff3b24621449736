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
product then runs along the contiguous member axis.  :func:`_sample_gain`
is the package's one sample-covariance analysis step; the ensemble LM
passes of :mod:`ensvar.fourdvar` take their gains from it too.  A run
draws its members in ascending key order and hands out one row per
member in the caller's slot order at the end, as transposed views when
the keys already ascend.  So a run whose member keys are permuted
computes the unpermuted run's numbers bit for bit; permuting keys
permutes output members exactly.

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
    the key-order means of the analysis ensembles.
    """

    analysis_ensembles: tuple[np.ndarray, ...]
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


def _sorted_members(n_members: int, member_indices) -> tuple[np.ndarray, np.ndarray | None]:
    """The member keys in ascending order, and each slot's position among them.

    The positions are None when the keys already ascend, as the default
    keys do; :func:`_slot_rows` then makes no copy.
    """
    if member_indices is None:
        return np.arange(n_members, dtype=np.int64), None
    members = np.asarray(member_indices, dtype=np.int64)
    if members.size != n_members:
        raise ValidationError(f"member_indices has {members.size} entries, expected {n_members}")
    if len(set(members.tolist())) != members.size:
        raise ValidationError("member_indices must be distinct")
    if np.all(members[1:] > members[:-1]):
        return members, None
    order = np.argsort(members)
    return members[order], np.argsort(order)


def _slot_rows(ensemble: np.ndarray, slots: np.ndarray | None) -> np.ndarray:
    """A key-ordered (state, member) ensemble as one row per member, in slot
    order; the keys themselves, given as a 1-d array, come back in slot order."""
    return ensemble.T if slots is None else ensemble[..., slots].T


def _gain_transpose(pht: np.ndarray, hpht: np.ndarray, obs_cov: np.ndarray) -> np.ndarray:
    """K^T = (hpht + R)^-1 pht^T from the lower triangle of hpht + R."""
    factor = _factor(hpht + obs_cov, "innovation covariance")
    return _solve(factor, pht.T, "innovation covariance")


def _sample_gain(forecast: np.ndarray, observe, obs_cov: np.ndarray) -> np.ndarray:
    """The analysis step's K^T from the sample products of a forecast ensemble.

    ``forecast`` is a (state, member) array in ascending key order;
    ``observe`` maps its deviations to observed deviations, column by
    column.  K = P H^T (H P H^T + R)^-1 takes only these two products, so
    no covariance is formed, and the deviations are freed on return.
    """
    n = forecast.shape[1]
    dev = forecast - forecast.mean(axis=1, keepdims=True)
    obs_dev = observe(dev)
    hpht = obs_dev @ obs_dev.T / (n - 1)
    return _gain_transpose(dev @ obs_dev.T / (n - 1), 0.5 * (hpht + hpht.T), obs_cov)


def _initial_ensemble(problem, lin, stream, members) -> np.ndarray:
    """Members drawn from N(background_mean, background_cov) by their keys, as columns."""
    z = stream.draw_members(Phase.SMOOTHER, 0, 0, NoiseKind.INIT, members, problem.state_dim)
    return problem.background_mean[:, None] + lin[2] @ z.T


def _step_draws(problem, stream, members, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Step i's model and observation draws, one column per member key."""
    v = stream.draw_members(Phase.SMOOTHER, 0, i, NoiseKind.MODEL, members, problem.state_dim)
    w = stream.draw_members(Phase.SMOOTHER, 0, i, NoiseKind.OBS, members, problem.obs_dim(i))
    return v.T, w.T


def _forecast(problem, lin, i, ensemble, v, composite) -> np.ndarray:
    """Step i's forecast: the ensemble with its advanced state appended, or that state alone."""
    models, _, _, l_q, _ = lin
    m = problem.state_dim
    state = models[i - 1] @ ensemble[-m:] + problem.forcings[i - 1][:, None] + l_q[i - 1] @ v
    return np.vstack([ensemble, state]) if composite else state


def _forecast_analysis(problem, lin, i, ensemble, v, w, cov_f=None, composite=True, gains=None):
    """One forecast/analysis step on a (state, member) ensemble; returns the analysis.

    Columns are advanced with model draws ``v``, then updated with
    perturbed observations (obs draws ``w``), both one column per member.
    The gain is the sample gain of the columns, in ascending key order,
    or, given ``cov_f``, the exact gain of that composite forecast
    covariance or its trailing block column.  An exact gain depends on the
    step alone, so ``gains`` (a dict shared by one run's calls) keeps it.
    A composite ensemble gains the forecast block as new rows; a filter
    ensemble (``composite=False``) is replaced by it.
    """
    _, obs_mats, _, _, l_r = lin
    m, h_i, r_i = problem.state_dim, obs_mats[i - 1], problem.obs_noise_covs[i - 1]
    if cov_f is None:
        # A non-finite forecast makes the sample products non-finite, and
        # the gain's factor or solve refuses them, so numpy need not warn.
        with np.errstate(over="ignore", invalid="ignore"):
            forecast = _forecast(problem, lin, i, ensemble, v, composite)
            gain_t = _sample_gain(forecast, lambda dev: h_i @ dev[-m:], r_i)
    else:
        forecast = _forecast(problem, lin, i, ensemble, v, composite)
        if i not in gains:
            gains[i] = _gain_transpose(cov_f[:, -m:] @ h_i.T, h_i @ cov_f[-m:, -m:] @ h_i.T, r_i)
        gain_t = gains[i]
    innovations = problem.observations[i - 1][:, None] - l_r[i - 1] @ w - h_i @ forecast[-m:]
    forecast += gain_t.T @ innovations
    return forecast


def _run(problem, lin, stream, members, cov_fs=None, composite=True):
    """The keyed pass of the three runners; returns the (state, member) analyses."""
    analyses, gains = [_initial_ensemble(problem, lin, stream, members)], {}
    for i in range(1, problem.horizon + 1):
        v, w = _step_draws(problem, stream, members, i)
        cov_f = None if cov_fs is None else cov_fs[i - 1]
        analyses.append(_forecast_analysis(problem, lin, i, analyses[-1], v, w, cov_f, composite, gains))
    return analyses


def _ensemble_result(problem, n_members, stream, member_indices, composite):
    if n_members < 2:
        name = "EnKS" if composite else "EnKF"
        raise ValidationError(f"{name} needs at least 2 members, got {n_members}")
    members, slots = _sorted_members(n_members, member_indices)
    analyses = _run(problem, _linear_matrices(problem, "ensemble Kalman runs"), stream, members, composite=composite)
    rows, keys = tuple(_slot_rows(a, slots) for a in analyses), tuple(_slot_rows(members, slots).tolist())
    return EnsembleRunResult(rows, tuple(a.mean(axis=1) for a in analyses), keys)


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
    members, slots = _sorted_members(n_members, member_indices)
    lin = _linear_matrices(problem, "ensemble Kalman runs")

    if forecast_covariances is None:
        forecast_covariances = [col_f for _, col_f, *_ in _column_recursion(problem, *lin[:2])]
    forecast_covariances = tuple(np.asarray(c, dtype=float) for c in forecast_covariances)
    if len(forecast_covariances) != problem.horizon:
        raise ValidationError(
            f"need {problem.horizon} forecast covariances, got {len(forecast_covariances)}"
        )

    analyses = _run(problem, lin, stream, members, cov_fs=forecast_covariances)
    rows = tuple(_slot_rows(a, slots) for a in analyses)
    return ReferenceRunResult(rows, forecast_covariances, tuple(_slot_rows(members, slots).tolist()))


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
