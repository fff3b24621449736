"""Ensemble Kalman filter and smoother with matrix-free covariance products.

Three variants differ only in where the gains come from:

* :func:`enkf_run` - per-time state ensembles, sample covariances;
* :func:`enks_run` - composite-state (trajectory) ensembles, sample
  covariances;
* :func:`reference_enks_run` - composite ensembles with *exact* gains,
  under which a member is the smoothing mean of its own perturbed data
  (randomized maximum likelihood): a solve of ``kalman._block_factor``.
  Its members are i.i.d. draws from the smoothing distribution, and it
  consumes the same keyed perturbations as :func:`enks_run`, so the pair
  is a coupled run whose member-wise difference is pure sampling error.

The sample runs are arms of one pass, :func:`_smoother_pass`, the
package's only forecast, gain and update loop, of which each arm of an
ensemble LM iteration (:mod:`ensvar.fourdvar`) is a call of its own.
:func:`coupled_member_diffs` runs the pair on each key drawn once, with
an EnKS arm per ensemble size on prefixes of the largest size's draw.

The pass reads its system from ``step(i)``, step i's ``(propagate,
observe, obs_cov, predict, observation)``, and its draws from
``noise(i, kind)``, the scaled draw of key (i, kind).  Each step runs in
three phases, each one helper:

1. :func:`_forecast` adds the forcing and the model draw to ``propagate``
   of the time i-1 analysis;
2. K^T comes from :func:`_sample_gain`, which hands ``observe`` the newest
   block's deviations;
3. :func:`_update` adds the gain times the innovations
   ``observation - w - predict(x)`` to the forecast in row blocks.

Ensembles are held state-major, as (state, member) arrays: with a state
of a few components and thousands of members, every mean, deviation and
product then runs along the contiguous member axis.  A run draws its
members in ascending key order and hands out one row per member in the
caller's slot order at the end, as transposed views when the keys
already ascend.  So a run whose member keys are permuted computes the
unpermuted run's numbers bit for bit; permuting keys permutes output
members exactly.

Every arm fills one trajectory array in place, started with the
background mean plus its prefix of the initial draw; a smoother run
copies each step's analysis out of it, and a filtering pass
(:func:`enkf_run`) updates only the newest block.  Each draw is scaled
chunk by chunk in :func:`_noises` and made just before the phase that
reads it, which runs over all arms; a keyed draw is a pure function of
its key, so that moves no number.  The gain's P H^T and the update's
product run over m-row blocks (:func:`_row_blocks`), so each phase holds
at most one state block of temporaries beside the trajectories.

The degenerate zero-spread ensemble needs no special casing: all sample
products vanish, the innovation covariance reduces to R (still SPD), and
the gain is exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import ValidationError
from .kalman import _block_factor, _linear_matrices
from .numerics import _factor, _solve
from .problem import AssimilationProblem
from .streams import NoiseKind, PerturbationStream, Phase, _integer, _member_keys, derive_seed

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


@lru_cache(maxsize=1024)
def _row_blocks(m: int, rows: int) -> tuple[tuple[int, int], ...]:
    """The (start, stop) row blocks of a composite with ``rows`` rows and
    time blocks of m rows: one time block each, or row pairs when m = 1,
    the last taking any odd row.  Worked out once per (m, rows).

    A one-row block would take numpy's matrix-vector path, whose bits can
    differ, so a block has two rows or more unless the composite has one.
    """
    # No block starts on the last row, so a block has one row only when rows is 1.
    edges = [*range(0, max(rows - 1, 1), max(m, 2)), rows]
    return tuple(zip(edges, edges[1:]))


def _sample_gain(forecast: np.ndarray, m: int, observe, obs_cov: np.ndarray) -> np.ndarray:
    """The analysis step's K^T from the sample products of a forecast ensemble.

    ``forecast`` is a (state, member) array in ascending key order whose
    last m rows are the newest time block; ``observe`` maps that block's
    (m, member) deviations to observed deviations, column by column.
    K = P H^T (H P H^T + R)^-1 takes only these two products, so no
    covariance is formed, and P H^T is filled over :func:`_row_blocks`,
    so no deviations of the whole composite are formed either.  The
    factor refuses a non-finite forecast's products, so the pass runs this
    with numpy's warnings off.
    """
    n = forecast.shape[1]
    mean = np.add.reduce(forecast, axis=1, keepdims=True) / n  # ndarray.mean's own sum and divide
    obs_dev = observe(forecast[-m:] - mean[-m:])
    hpht = obs_dev @ obs_dev.T / (n - 1)
    pht = np.empty((len(forecast), len(obs_dev)))
    for start, stop in _row_blocks(m, len(forecast)):
        pht[start:stop] = (forecast[start:stop] - mean[start:stop]) @ obs_dev.T / (n - 1)
    factor = _factor(0.5 * (hpht + hpht.T) + obs_cov, "innovation covariance")
    return _solve(factor, pht.T, "innovation covariance")


def _pass_keys(problem, obs_factors) -> dict:
    """A pass's 2k+1 keys (i, kind) and their factors: the initial draw and
    each step's model draw, then the observation draws, on ``obs_factors``."""
    l_b, l_q, _ = problem._factors
    keys = {(0, NoiseKind.INIT): l_b} | {(i, NoiseKind.MODEL): l for i, l in enumerate(l_q, 1)}
    return keys | {(i, NoiseKind.OBS): l for i, l in enumerate(obs_factors, 1)}


def _noise(problem, stream, members):
    """A smoother pass's scaled draws, one key per call: ``noise(i, kind)``
    is :func:`_noises` of the one key (i, kind) of :func:`_pass_keys`."""
    factors = _pass_keys(problem, problem._factors[2])
    return lambda i, kind: _noises(stream, Phase.SMOOTHER, 0, members, [(i, kind, factors[i, kind])])[0]


def _noises(stream, phase, iteration, members, keys) -> list[np.ndarray]:
    """Several scaled draws in one kernel pass: per ``(i, kind, l)`` in
    ``keys``, l times the time-i keyed standard normals of dimension
    len(l), a (len(l), N) array with one column per member.  Each member
    chunk is scaled straight into its columns, so no unscaled draw of the
    whole ensemble is held: a chunk's columns are l times that chunk's
    draws, bit for bit.  A one-chunk draw is ``l @ draw_members(...).T``
    bit for bit; over several chunks it may differ at round-off, since a
    BLAS may give a column other bits in a wider product.  The outputs
    are allocated once the first chunk is drawn, so they never coexist
    with its Philox words."""
    outs = None
    for rows, draws in stream.draw_keys(phase, iteration, [(i, kind, len(l)) for i, kind, l in keys], members):
        if outs is None:
            outs = [np.empty((len(l), len(members))) for *_, l in keys]
        for out, (*_, l), z in zip(outs, keys, draws):
            np.matmul(l, z.T, out=out[:, rows])
    return outs


def _forecast(problem, i, out, propagate, noise) -> None:
    """Step i's forecast, in place: ``propagate`` of the time i-1 state,
    the m rows before the last of ``out``, a (state, member) trajectory
    array through time i, plus the forcing and the scaled model draw
    ``noise``, fills the last m rows."""
    m = problem.state_dim
    np.add(propagate(out[-2 * m : -m]) + problem.forcings[i - 1][:, None], noise, out=out[-m:])


def _update(m, out, gain_t, innovations) -> None:
    """The analysis, in place: ``gain_t.T @ innovations`` is added to the
    forecast ``out``, whose time blocks have m rows.

    The product is added over :func:`_row_blocks`, so none as large as
    ``out`` is formed.  The blocks match the full-width product's bits
    while it has at most about 10^6 multiply-adds (rows * len(innovations)
    * N); above that OpenBLAS may pick another kernel, which can differ in
    the last bit.
    """
    for start, stop in _row_blocks(m, len(out)):
        out[start:stop] += gain_t[:, start:stop].T @ innovations


def _smoother_pass(problem, step, noise, sizes, analyses=None, filtering=False) -> list[np.ndarray]:
    """The package's one ensemble step loop, for every arm on one system.

    ``step(i)`` gives step i's ``(propagate, observe, obs_cov, predict,
    observation)`` and ``noise(i, kind)`` the scaled draw of key (i, kind),
    of which the arm of each size n in ``sizes`` reads the first n columns.
    Returns each arm's trajectory array, its final analysis; ``analyses``,
    when given, receives copies of the first arm's earlier analyses.  A
    ``filtering`` pass updates only the newest block.
    """
    m, k = problem.state_dim, problem.horizon
    draw, trajectories = noise(0, NoiseKind.INIT), []
    for n in sizes:
        trajectories.append(np.empty(((k + 1) * m, n)))
        np.add(problem.background_mean[:, None], draw[:, :n], out=trajectories[-1][:m])
    del draw
    for i in range(1, k + 1):
        propagate, observe, obs_cov, predict, observation = step(i)
        if analyses is not None:
            analyses.append(trajectories[0][: i * m].copy())
        outs = [trajectory[(i * m if filtering else 0) : (i + 1) * m] for trajectory in trajectories]
        v = noise(i, NoiseKind.MODEL)
        # The gain refuses a non-finite forecast, so numpy need not warn.
        with np.errstate(over="ignore", invalid="ignore"):
            for trajectory, n in zip(trajectories, sizes):
                _forecast(problem, i, trajectory[: (i + 1) * m], propagate, v[:, :n])
            del v
            gains = [_sample_gain(out, m, observe, obs_cov) for out in outs]
        w = noise(i, NoiseKind.OBS)
        for out, gain_t in zip(outs, gains):
            innovations = observation[:, None] - w[:, : out.shape[1]]
            innovations -= predict(out[-m:])
            _update(m, out, gain_t, innovations)
        del w, innovations  # freed before step i+1 draws
    return trajectories


def _linear_steps(problem, lin):
    """``step`` of :func:`_smoother_pass` for the linear system ``lin``."""
    rows = zip(*lin, problem.obs_noise_covs, problem.observations)
    steps = [(a.__matmul__, h.__matmul__, r, h.__matmul__, y) for a, h, r, y in rows]
    return lambda i: steps[i - 1]


def _smoother_arm(problem, lin, stream, members, filtering=False) -> list[np.ndarray]:
    """The analyses at times 0..k of one sample arm over every member: the
    smoother's composites or, when ``filtering``, the filter's states, as
    blocks of its one array."""
    analyses = None if filtering else []
    step, noise = _linear_steps(problem, lin), _noise(problem, stream, members)
    (trajectory,) = _smoother_pass(problem, step, noise, [len(members)], analyses, filtering)
    return np.split(trajectory, problem.horizon + 1) if filtering else [*analyses, trajectory]


def _reference_arm(problem, lin, stream, members) -> list[np.ndarray]:
    """The exact-gain analyses at times 0..k: the initial draw, then each
    member's smoothing mean over the window 0..i of its perturbed data."""
    sweep, back, *_ = _block_factor(problem, *lin)
    start, *data = _reference_data(problem, _noise(problem, stream, members))
    rhs, ends = sweep(start, *data)
    return [start, *(back(rhs[:i], ends) for i in range(1, len(ends)))]


def _reference_data(problem, noise):
    """The reference members' perturbed data from the draws ``noise(i, kind)``:
    x_b plus the initial draw, f_i plus model draws, y_i less obs draws."""
    start = problem.background_mean[:, None] + noise(0, NoiseKind.INIT)
    forcings = [f[:, None] + noise(i, NoiseKind.MODEL) for i, f in enumerate(problem.forcings, 1)]
    return start, forcings, [y[:, None] - noise(i, NoiseKind.OBS) for i, y in enumerate(problem.observations, 1)]


def _ensemble_result(name, run, problem, n_members, stream, member_indices, fewest=2) -> EnsembleRunResult:
    n_members = _integer("ensemble size", n_members)
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
    return _ensemble_result("EnKF", partial(_smoother_arm, filtering=True), problem, n_members, stream, member_indices)


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

    Consumes the same keyed draws as :func:`enks_run`, but each member is
    the smoothing mean of its own perturbed data, which is what exact
    gains give it.  Members are independent exact draws from the smoothing
    distribution; a single member (n_members=1) is valid.
    """
    return _ensemble_result("reference run", _reference_arm, problem, n_members, stream, member_indices, fewest=1)


def coupled_member_diffs(
    problem: AssimilationProblem,
    n_members: int,
    stream: PerturbationStream,
    replicates: int,
) -> list[np.ndarray]:
    """Per-replicate difference of member 1 between EnKS and reference run.

    Each replicate derives its own seed from the stream's root seed and
    draws every key once for both runs, so the difference measures only
    the effect of sample versus exact covariances.  It equals the member-1
    gap between :func:`enks_run` and :func:`reference_enks_run` up to
    round-off.
    """
    replicates = _integer("replicates", replicates)
    if replicates < 1:
        raise ValidationError(f"replicates must be >= 1, got {replicates}")
    one_pass = _coupled_pass(problem, (n_members,))
    return [one_pass(PerturbationStream(derive_seed(stream.seed, r)))[0] for r in range(replicates)]


def _coupled_pass(problem, sizes):
    """One replicate of :func:`coupled_member_diffs` for every ensemble
    size in ``sizes``: a function of its stream giving each size's diff.

    Size n uses keys 0..n-1, a prefix of the largest size's keys, so each
    replicate draws every key once, at the largest size, and each EnKS arm
    runs on the first n columns of that draw: bit for bit a separate draw.
    The pass keeps column 0 of each draw, from which one solve of the
    study's one block factorization gives reference member 1 (key 0).
    """
    sizes = [_integer("ensemble size", n) for n in sizes]
    if min(sizes) < 2:
        raise ValidationError(f"EnKS needs at least 2 members, got {min(sizes)}")
    lin = _linear_matrices(problem, "ensemble Kalman runs")
    (sweep, back, *_), step = _block_factor(problem, *lin), _linear_steps(problem, lin)
    keys = np.arange(max(sizes), dtype=np.int64)

    def one_pass(stream) -> list[np.ndarray]:
        noise, first = _noise(problem, stream, keys), {}

        def kept(i, kind):
            draw = noise(i, kind)
            first[i, kind] = draw[:, :1].copy()
            return draw

        ensembles = _smoother_pass(problem, step, kept, sizes)
        reference = back(*sweep(*_reference_data(problem, lambda *key: first[key])))[:, 0]
        return [ensemble[:, 0] - reference for ensemble in ensembles]

    return one_pass
