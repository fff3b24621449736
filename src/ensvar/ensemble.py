"""Ensemble Kalman filter and smoother with matrix-free covariance products.

Three variants share one step and differ only in where the covariance
products come from:

* :func:`enkf_run` - per-time state ensembles, sample covariances;
* :func:`enks_run` - composite-state (trajectory) ensembles, sample
  covariances;
* :func:`reference_enks_run` - composite ensembles whose gains use the
  *exact* covariances of the Kalman smoother's recursion.  Its members are
  i.i.d. draws from the smoothing distribution, and it consumes the same
  keyed perturbations as :func:`enks_run`, so the pair forms a coupled run
  whose member-wise difference is pure sampling error of the ensemble
  method.

Every smoother is a list of arms on one pass, :func:`_smoother_pass`:
:func:`enks_run` is one sample arm and :func:`reference_enks_run` one
exact arm.  :func:`coupled_member_diffs` runs the pair: each key is drawn
once for both arms, and the exact arm carries member 1 only, since with
exact gains no member depends on another.  A study sweeping the ensemble
size adds a sample arm per size, on prefixes of the largest size's draw.

Ensembles are held state-major, as (state, member) arrays: with a state
of a few components and thousands of members, every mean, deviation and
product then runs along the contiguous member axis.  A run draws its
members in ascending key order and hands out one row per member in the
caller's slot order at the end, as transposed views when the keys
already ascend.  So a run whose member keys are permuted computes the
unpermuted run's numbers bit for bit; permuting keys permutes output
members exactly.

A smoother arm fills one trajectory array in place, allocated once, so
no trajectory is copied per step; a run copies each step's analysis out
of it.  The filter keeps no trajectory, only one new state per step.

Every runner, the ensemble LM arms of :mod:`ensvar.fourdvar` included,
takes a step in three phases, each one helper:

1. :func:`_forecast` advances the time i-1 analysis by the caller's
   propagation (the model matrix here; in an LM arm, the model linearized
   around its centre) and adds the step's scaled model draw;
2. K^T comes from :func:`_sample_gain`, the package's one sample-covariance
   analysis step, or, for an exact arm, from the exact forecast covariance;
3. :func:`_update` adds the gain times the caller's innovations to the
   forecast in row blocks: ``y - w - H x`` here (:func:`_innovations`), in
   an LM arm those of its stacked [H; I] prediction.

Every draw is scaled by its Cholesky factor in one place, :func:`_noise`.
Here the model draw is made just before the forecast and the observation
draw w only after the gains; a keyed draw is a pure function of its key,
so that moves no number.  The smoother pass runs each phase over all its
arms before the next, freeing the model draw before the gains: the
step's peak is then the trajectories plus one gain's deviations of the
composite forecast, with no draw or full-width update product beside
them.

The degenerate zero-spread ensemble needs no special casing: all sample
products vanish, the innovation covariance reduces to R (still SPD), and
the gain is exactly zero.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ValidationError
from .kalman import _column_recursion, _linear_matrices
from .numerics import _factor, _solve
from .problem import AssimilationProblem, _validated_factors
from .streams import NoiseKind, PerturbationStream, Phase, _member_keys, derive_seed

__all__ = [
    "EnsembleRunResult",
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


def _sorted_members(n_members: int, member_indices) -> tuple[np.ndarray, np.ndarray | None]:
    """The member keys in ascending order, and each slot's position among them.

    The positions are None when the keys already ascend, as the default
    keys do; :func:`_slot_rows` then makes no copy.
    """
    if member_indices is None:
        return np.arange(n_members, dtype=np.int64), None
    members = _member_keys(member_indices)
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
    no covariance is formed, and the deviations are freed on return.  The
    factor refuses a non-finite forecast's products, so numpy need not warn.
    """
    n = forecast.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        dev = forecast - forecast.mean(axis=1, keepdims=True)
        obs_dev = observe(dev)
        hpht = obs_dev @ obs_dev.T / (n - 1)
        return _gain_transpose(dev @ obs_dev.T / (n - 1), 0.5 * (hpht + hpht.T), obs_cov)


def _noise(stream, phase, iteration, members):
    """A pass's scaled draw: ``noise(i, kind, l)`` is l times the time-i
    keyed standard normals of dimension len(l), one column per member."""
    return lambda i, kind, l: l @ stream.draw_members(phase, iteration, i, kind, members, len(l)).T


def _trajectory(problem, initial: np.ndarray) -> np.ndarray:
    """A ((k+1)m, N) trajectory array, allocated once, starting with the
    (m, N) ``initial``; step i fills rows i*m:(i+1)*m and updates rows
    :(i+1)*m in place."""
    trajectory = np.empty(((problem.horizon + 1) * problem.state_dim, initial.shape[1]))
    trajectory[: problem.state_dim] = initial
    return trajectory


def _forecast(problem, i, out, propagate, noise, previous=None, exact=False) -> None:
    """Step i's forecast, in place: ``propagate`` of the time i-1 state,
    the m rows of ``out`` before its last or else ``previous``, plus the
    forcing and the scaled model draw ``noise``, fills the last m rows.

    ``out`` is a smoother's (state, member) trajectory array through time
    i, or the filter's new state.  A sample arm's gain refuses a non-finite
    forecast, so numpy need not warn; an ``exact`` arm's overflow warns.
    """
    m = problem.state_dim
    previous = out[-2 * m : -m] if previous is None else previous
    with nullcontext() if exact else np.errstate(over="ignore", invalid="ignore"):
        np.add(propagate(previous) + problem.forcings[i - 1][:, None], noise, out=out[-m:])


def _gain(problem, lin, i, out, cov_f=None, gains=None) -> np.ndarray:
    """Step i's K^T for the forecast ``out``: the sample gain of its
    columns, in ascending key order, or, given ``cov_f``, the exact gain of
    that composite forecast covariance or its trailing block column, kept
    in ``gains`` (one run's dict)."""
    m, h_i, r_i = problem.state_dim, lin[1][i - 1], problem.obs_noise_covs[i - 1]
    if cov_f is None:
        return _sample_gain(out, lambda dev: h_i @ dev[-m:], r_i)
    if i not in gains:
        gains[i] = _gain_transpose(cov_f[:, -m:] @ h_i.T, h_i @ cov_f[-m:, -m:] @ h_i.T, r_i)
    return gains[i]


def _innovations(problem, lin, i, out, noise) -> np.ndarray:
    """Step i's innovations of perturbed observations, ``y - noise - H x``,
    for the forecast ``out`` and the scaled observation draw ``noise``."""
    return problem.observations[i - 1][:, None] - noise - lin[1][i - 1] @ out[-problem.state_dim :]


def _update(m, out, gain_t, innovations) -> None:
    """The analysis, in place: ``gain_t.T @ innovations`` is added to the
    forecast ``out``, whose time blocks have m rows.

    The product is added in row blocks, so none as large as ``out`` is
    formed.  A one-row block would take numpy's matrix-vector path, whose
    bits can differ, so a block has two rows or more unless ``out`` has
    one: one time block, or row pairs when m = 1, the last taking any odd
    row.  The blocks match the full-width product's bits while it has at
    most about 10^6 multiply-adds (rows * len(innovations) * N); above
    that OpenBLAS may pick another kernel, which can differ in the last bit.
    """
    # No block starts on the last row, so a block has one row only when out does.
    edges = [*range(0, max(len(out) - 1, 1), max(m, 2)), len(out)]
    for start, stop in zip(edges, edges[1:]):
        out[start:stop] += gain_t[:, start:stop].T @ innovations


def _smoother_pass(problem, lin, stream, members, arms, gains, analyses=None) -> list[np.ndarray]:
    """The keyed smoother pass over the draws of ``members``, for every arm.

    An arm ``(n, cov_fs)`` reads the first n columns of each draw with
    sample gains or, given forecast columns ``cov_fs``, exact gains, kept
    in ``gains``.  Returns each arm's trajectory array, its final
    analysis; ``analyses``, when given, receives copies of the first
    arm's earlier analyses.
    """
    (models, _, l_b, l_q, l_r), m = lin, problem.state_dim
    noise = _noise(stream, Phase.SMOOTHER, 0, members)
    initial = problem.background_mean[:, None] + noise(0, NoiseKind.INIT, l_b)
    trajectories = [_trajectory(problem, initial[:, :n]) for n, _ in arms]
    del initial  # the trajectories hold copies of its prefixes
    for i in range(1, problem.horizon + 1):
        if analyses is not None:
            analyses.append(trajectories[0][: i * m].copy())
        outs = [trajectory[: (i + 1) * m] for trajectory in trajectories]
        propagate, v = models[i - 1].__matmul__, noise(i, NoiseKind.MODEL, l_q[i - 1])
        for out, (n, cov_fs) in zip(outs, arms):
            _forecast(problem, i, out, propagate, v[:, :n], exact=cov_fs is not None)
        del v
        gain_ts = [
            _gain(problem, lin, i, out, None if cov_fs is None else cov_fs[i - 1], gains)
            for out, (_, cov_fs) in zip(outs, arms)
        ]
        w = noise(i, NoiseKind.OBS, l_r[i - 1])
        for out, gain_t in zip(outs, gain_ts):
            _update(m, out, gain_t, _innovations(problem, lin, i, out, w[:, : out.shape[1]]))
        del w
    return trajectories


def _smoother_arm(problem, lin, stream, members, exact=False) -> list[np.ndarray]:
    """The analyses at times 0..k of one smoother arm over every member,
    with exact gains or sample ones."""
    cov_fs = [col_f for col_f, *_ in _column_recursion(problem, *lin[:2])] if exact else None
    analyses = []
    trajectories = _smoother_pass(problem, lin, stream, members, [(len(members), cov_fs)], {}, analyses)
    return analyses + trajectories


def _filter_run(problem, lin, stream, members) -> list[np.ndarray]:
    """The keyed pass of enkf_run: a new (state, member) array per step."""
    (models, _, l_b, l_q, l_r), m = lin, problem.state_dim
    noise = _noise(stream, Phase.SMOOTHER, 0, members)
    analyses = [problem.background_mean[:, None] + noise(0, NoiseKind.INIT, l_b)]
    for i in range(1, problem.horizon + 1):
        out = np.empty_like(analyses[-1])
        _forecast(problem, i, out, models[i - 1].__matmul__, noise(i, NoiseKind.MODEL, l_q[i - 1]), analyses[-1])
        gain_t = _gain(problem, lin, i, out)
        _update(m, out, gain_t, _innovations(problem, lin, i, out, noise(i, NoiseKind.OBS, l_r[i - 1])))
        analyses.append(out)
    return analyses


def _ensemble_result(name, run, problem, n_members, stream, member_indices, fewest=2) -> EnsembleRunResult:
    if n_members < fewest:
        raise ValidationError(f"{name} needs at least {fewest} member{'s' * (fewest > 1)}, got {n_members}")
    members, slots = _sorted_members(n_members, member_indices)
    analyses = run(problem, _linear_matrices(problem, "ensemble Kalman runs"), stream, members)
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
    return _ensemble_result("EnKF", _filter_run, problem, n_members, stream, member_indices)


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
    return _ensemble_result("EnKS", _smoother_arm, problem, n_members, stream, member_indices)


def reference_enks_run(
    problem: AssimilationProblem,
    n_members: int,
    stream: PerturbationStream,
    member_indices=None,
) -> EnsembleRunResult:
    """Composite ensemble updated with exact covariances.

    Consumes the same keyed draws as :func:`enks_run` but replaces the
    sample-covariance products in the gain with the exact composite
    forecast covariances, the trailing block columns of the Kalman
    smoother's recursion.  Each member then evolves independently of the
    others, and is an exact draw from the smoothing distribution; a single
    member (n_members=1) is valid.
    """
    run = partial(_smoother_arm, exact=True)
    return _ensemble_result("reference run", run, problem, n_members, stream, member_indices, fewest=1)


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
    arms = [*((n, None) for n in sizes), (1, [col_f for col_f, *_ in _column_recursion(problem, *lin[:2])])]
    keys, gains, per_replicate = np.arange(max(sizes), dtype=np.int64), {}, []
    for r in range(replicates):
        replicate = PerturbationStream(derive_seed(stream.seed, r))
        *ensembles, reference = _smoother_pass(problem, lin, replicate, keys, arms, gains)
        per_replicate.append([ensemble[:, 0] - reference[:, 0] for ensemble in ensembles])
        del ensembles, reference  # not alive beside the next replicate's trajectories
    return [list(cell) for cell in zip(*per_replicate)]
