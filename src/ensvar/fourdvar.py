"""Weak-constraint 4DVAR objective and Levenberg-Marquardt solvers.

The nonlinear least-squares objective over the whole trajectory is

    |x_0 - x_b|^2_{B^-1} + sum_i |x_i - M_i(x_{i-1}) - f_i|^2_{Q_i^-1}
                         + sum_i |y_i - H_i(x_i)|^2_{R_i^-1}

Three solver variants compute the damped Gauss-Newton (LM) iteration:

* ``exact``: the linearized subproblem is solved exactly, by block
  elimination of its block-tridiagonal normal equations
  (``kalman._block_factor``) in O(k m^3) time and O(k m^2) memory.  The
  step is the smoothing mean of the linearized system with the damping
  as an extra observation of each state with noise covariance
  (1/gamma) I, since both minimize the same quadratic (Bell 1994: the
  iterated Kalman smoother is Gauss-Newton).
* ``tangent``: the linearized subproblem is solved approximately by an
  ensemble Kalman smoother, with exact Jacobians applied to ensemble
  deviations and the linearization centered at the previous iterate's
  sample mean.  Each iteration of each arm is one pass of the EnKS's own
  loop, ``ensemble._smoother_pass``, whose ``step`` is the linearized
  system with the damping stacked under each observation.
* ``finite-difference``: as ``tangent``, but every Jacobian-vector
  product is replaced by a forward-difference quotient with step tau
  around the same center, so no Jacobians are needed at all.  Each
  operator is evaluated at its center once per step, and at all N
  shifted members in one ``Operator.apply_rows`` call on a transposed
  view of them.

The two ensemble variants, and runs with different tau, consume identical
keyed perturbations (same phase, iteration, time, member, kind), so
differences between them isolate the approximation under study.  All
arms share each draw: a tau sweep advances the tangent arm and every tau
arm, and an ensemble-size sweep a tangent arm per size on prefixes of
the draw, through each LM iteration, one pass per arm.  An iteration's
2k+1 keys (init, k model, k augmented observation) come from one pass of
the stream's kernel, ``ensemble._noises``, and each pass's ``noise``
reads them by key.  What no draw changes (sizes, member keys, augmented
covariances, the start) is set up once per study, not per replicate.

``LMConfig`` reads each field by its reader in ``_LM_READERS``, type and
range together; a config's ``lm`` section is read by the same table.
Its quantities are read by ``streams``' readers: each ensemble size by
``_size``, ``tau`` by ``_positive`` and the states of a nested-list
``initial_trajectory`` by ``_states``, the reader ``Trajectory`` uses.
Its one rule between fields, that an ensemble mode needs gamma > 0 and a
nonempty schedule, is checked when it is built, so no solver checks it
again.  The gamma and tau readers also check the raw arguments of
``lm_exact_step``, ``lm_tangent_ls_oracle`` and ``fd_directional``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ensemble import _noises, _pass_keys, _slot_rows, _smoother_pass, _sorted_members
from .errors import ValidationError
from .kalman import _block_factor, _normal_equations_solution
from .numerics import _factor, _solve
from .problem import AssimilationProblem, Operator, Trajectory
from .streams import (PerturbationStream, Phase, _count, _each, _positive, _read_fields, _real, _reals, _rule, _size,
                      _states)

__all__ = [
    "LMConfig",
    "LMRunResult",
    "objective",
    "fd_directional",
    "lm_exact_step",
    "lm_tangent_ls_oracle",
    "lm_exact_run",
    "lm_enks_tangent_run",
    "enks_4dvar_run",
    "lm_run",
]

_MODES = ("exact", "tangent", "finite-difference")
_gamma = _rule(_real, "finite and >= 0", lambda gamma: math.isfinite(gamma) and gamma >= 0)


def _check_shape(problem: AssimilationProblem, x: np.ndarray) -> None:
    shape = (problem.horizon + 1, problem.state_dim)
    if x.shape != shape:
        raise ValidationError(f"trajectory shape {x.shape} does not match problem {shape}")


def _initial_trajectory(name: str, value) -> Trajectory | None:
    """None, a Trajectory, or the nested lists of one (as a config holds
    them) made a Trajectory: the one place a document's list becomes one."""
    return value if value is None or isinstance(value, Trajectory) else Trajectory(_states(name, value))


# LMConfig's fields, each with the reader that checks its type and range.
_LM_READERS = {
    "gamma": _gamma,
    "max_iterations": _count,
    "mode": _rule(None, f"one of {_MODES}", lambda mode: isinstance(mode, str) and mode in _MODES),
    "ensemble_sizes": _each(_size),
    "tau": _positive,
    "initial_trajectory": _initial_trajectory,
}


@dataclass(frozen=True)
class LMConfig:
    """Settings for one LM solve.

    ``ensemble_sizes`` is the per-iteration schedule N_j; a shorter
    schedule than ``max_iterations`` repeats its last entry.  ``gamma`` is
    the constant damping weight (ensemble modes require gamma > 0 so that
    the augmented observation covariance stays SPD, and a nonempty
    schedule; ``exact`` accepts gamma = 0, i.e. pure Gauss-Newton).
    ``tau`` is the forward-difference step of the ``finite-difference``
    mode.  Each field is read by its reader in ``_LM_READERS``, which a
    config's ``lm`` section is read by too.
    """

    gamma: float
    max_iterations: int = 1
    mode: str = "exact"
    ensemble_sizes: tuple[int, ...] = ()
    tau: float = 1e-3
    initial_trajectory: Trajectory | None = None

    def __post_init__(self) -> None:
        _read_fields(self, _LM_READERS)
        if self.mode != "exact" and self.gamma <= 0:
            raise ValidationError("ensemble LM modes require gamma > 0")
        if self.mode != "exact" and not self.ensemble_sizes:
            raise ValidationError("ensemble mode requires a nonempty ensemble_sizes schedule")


@dataclass(frozen=True, eq=False)
class LMRunResult:
    """Iterate trajectories x^0..x^J with objective values and diagnostics.

    ``ensembles`` holds the final composite analysis ensemble of each LM
    iteration for the ensemble modes (empty for exact), one row per
    member in the caller's slot order.
    ``max_member_norms`` is a per-iteration diagnostic: the largest
    Euclidean norm over ensemble members.
    """

    iterates: tuple[Trajectory, ...]
    objectives: tuple[float, ...]
    mode: str
    ensembles: tuple[np.ndarray, ...] = ()
    max_member_norms: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not all(np.isfinite(v) for v in self.objectives):
            raise ValidationError("LM run produced a non-finite objective value")


def objective(problem: AssimilationProblem, trajectory: Trajectory) -> float:
    """Weak-constraint 4DVAR objective at a trajectory."""
    x = trajectory.states
    _check_shape(problem, x)
    l_b, l_q, l_r = problem._factors
    r0 = x[0] - problem.background_mean
    total = float(r0 @ _solve(l_b, r0, "background_cov"))
    for i in range(1, problem.horizon + 1):
        rm = x[i] - problem.model_ops[i - 1](x[i - 1]) - problem.forcings[i - 1]
        total += float(rm @ _solve(l_q[i - 1], rm, "model_noise_cov"))
        ro = problem.observations[i - 1] - problem.obs_ops[i - 1](x[i])
        total += float(ro @ _solve(l_r[i - 1], ro, "obs_noise_cov"))
    return total


def _augmented_noise_cov(problem: AssimilationProblem, i: int, gamma: float) -> np.ndarray:
    """blockdiag(R_i, (1/gamma) I): SPD whenever R_i is SPD and gamma > 0."""
    m, d = problem.state_dim, problem.obs_dim(i)
    cov = np.zeros((d + m, d + m))
    cov[:d, :d] = problem.obs_noise_covs[i - 1]
    cov[d:, d:] = np.eye(m) / gamma
    return cov


def fd_directional(f: Callable[[np.ndarray], np.ndarray], x, y, tau: float) -> np.ndarray:
    """Forward-difference directional derivative (f(x + tau y) - f(x)) / tau."""
    tau = _positive("tau", tau)
    x, y = _reals("fd_directional x", x), _reals("fd_directional y", y)
    return (np.asarray(f(x + tau * y), dtype=float) - np.asarray(f(x), dtype=float)) / tau


def lm_exact_step(problem: AssimilationProblem, x_prev: Trajectory, gamma: float) -> Trajectory:
    """One exact LM step: the smoothing mean of the linearized system."""
    gamma = _gamma("gamma", gamma)
    _check_shape(problem, x_prev.states)
    models, obs_mats, forcings, observations = [], [], [], []
    # An overflowing linearization is refused by the solve, so numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, problem.horizon + 1):
            c_prev, c_i = x_prev[i - 1], x_prev[i]
            mop, hop = problem.model_ops[i - 1], problem.obs_ops[i - 1]
            models.append(mop.jacobian_at(c_prev))
            obs_mats.append(hop.jacobian_at(c_i))
            forcings.append(mop(c_prev) + problem.forcings[i - 1] - models[-1] @ c_prev)
            observations.append(problem.observations[i - 1] - hop(c_i) + obs_mats[-1] @ c_i)
    sweep, back, *_ = _block_factor(problem, models, obs_mats, gamma)
    x = back(*sweep(problem.background_mean, forcings, observations, x_prev.states[1:]))
    return Trajectory(x.reshape(-1, problem.state_dim))


def lm_tangent_ls_oracle(
    problem: AssimilationProblem, x_prev: Trajectory, gamma: float
) -> np.ndarray:
    """The LM step by direct normal-equations assembly (independent oracle).

    Builds the full linearized least-squares system, with the damping
    written explicitly as gamma |x_i - x_i_prev|^2 terms rather than as
    augmented observations, and solves it in one shot.  Shares no path
    with :func:`lm_exact_step` beyond the low-level SPD solve.
    """
    gamma = _gamma("gamma", gamma)
    _check_shape(problem, x_prev.states)
    steps = []
    for i in range(1, problem.horizon + 1):
        c_prev, c_i = x_prev[i - 1], x_prev[i]
        mop, hop = problem.model_ops[i - 1], problem.obs_ops[i - 1]
        mj, hj = mop.jacobian_at(c_prev), hop.jacobian_at(c_i)
        mu_eff = mop(c_prev) + problem.forcings[i - 1] - mj @ c_prev
        y_eff = problem.observations[i - 1] - hop(c_i) + hj @ c_i
        steps.append((mj, mu_eff, hj, y_eff))
    return _normal_equations_solution(problem, steps, gamma, x_prev)


def _start(problem: AssimilationProblem, cfg: LMConfig) -> tuple[Trajectory, float]:
    """The initial trajectory and its objective, which checks its shape and must be finite."""
    x0 = problem.prior_chain() if cfg.initial_trajectory is None else cfg.initial_trajectory
    # A start whose objective overflows is refused below, so numpy need
    # not warn about the overflow.
    with np.errstate(over="ignore", invalid="ignore"):
        value = objective(problem, x0)
    if not np.isfinite(value):
        raise ValidationError(f"LM start objective is non-finite ({value}) at the initial trajectory")
    return x0, value


def lm_exact_run(problem: AssimilationProblem, cfg: LMConfig) -> LMRunResult:
    """Run the exact LM iteration for the configured budget."""
    if cfg.mode != "exact":
        raise ValidationError(f"lm_exact_run requires mode='exact', got {cfg.mode!r}")
    x, start_objective = _start(problem, cfg)
    iterates = [x]
    objectives = [start_objective]
    for _ in range(cfg.max_iterations):
        x = lm_exact_step(problem, x, cfg.gamma)
        iterates.append(x)
        objectives.append(objective(problem, x))
    return LMRunResult(tuple(iterates), tuple(objectives), "exact")


def _lm_pass(
    problem: AssimilationProblem,
    arms: tuple[LMConfig, ...],
    member_indices=None,
    keep_ensembles: bool = True,
) -> Callable[[PerturbationStream], list[LMRunResult]]:
    """The ensemble LM iterations as a function of their stream: one run
    per arm, all arms on shared keys.

    An arm is a ``tangent`` or ``finite-difference`` config, whose run is
    bit for bit its run alone; the arms share the first arm's gamma,
    iteration count and start.  What no draw changes is set up once, here,
    and checked before any draw: every iteration's sizes and sorted member
    keys, blockdiag(R_i, I / gamma) and its factors, and the start and its
    objective; a study runs the returned pass once per replicate.  Per LM
    iteration j, each arm runs one ``_smoother_pass`` on the system
    linearized at its own previous iterate, with the damping realized as
    stacked observations.  The iteration's 2k+1 keys are drawn in one
    kernel pass at the largest arm's size (``_noises``); an arm of n
    members reads the first n columns, keys 0..n-1, so arms of different
    sizes take no caller-given keys.  The arms run one after another, each
    in a function scope of its own, so only one working trajectory array is
    alive at a time and no iteration's draws outlive it; a kept ensemble is
    a view into its own array.  ``keep_ensembles=False`` leaves
    ``ensembles`` and ``max_member_norms`` empty.
    """
    cfg = arms[0]
    m, k = problem.state_dim, problem.horizon
    # Every iteration's sizes (a schedule repeats its last size) and sorted
    # member keys, checked before any draw.
    schedule = [[arm.ensemble_sizes[min(j, len(arm.ensemble_sizes) - 1)] for arm in arms] for j in range(cfg.max_iterations)]
    for sizes in schedule:
        if member_indices is not None and len(set(sizes)) > 1:
            raise ValidationError(f"arms of different ensemble sizes {sizes} cannot share member_indices")
    members = {n: _sorted_members(n, member_indices) for n in sorted({max(sizes) for sizes in schedule})}
    # blockdiag(R_i, I / gamma) does not depend on the linearization center.
    r_aug = [_augmented_noise_cov(problem, i, cfg.gamma) for i in range(1, k + 1)]
    keys = _pass_keys(problem, [_factor(r, "augmented obs cov") for r in r_aug])
    scaled = [(*key, l) for key, l in keys.items()]
    start, start_objective = _start(problem, cfg)

    def linearized(op: Operator, c: np.ndarray, tau):
        """op(c), and the map from directions (columns) to their products
        with op's Jacobian at c, exact or forward differences with step tau."""
        f_c = op(c)
        if tau is None:
            return f_c, op.jacobian_at(c).__matmul__
        return f_c, lambda dirs: ((op.apply_rows(c + tau * dirs.T) - f_c) / tau).T

    def run_arm(arm, n, run, noise, slots) -> None:
        """One arm's EnKS pass of one LM iteration, on the system linearized
        at its last iterate with the damping stacked under each observation,
        appended to ``run``; its array is freed on return unless its
        ensemble is kept."""
        iterates, objectives, ensembles, max_norms = run
        tau, center = arm.tau if arm.mode == "finite-difference" else None, iterates[-1]

        def step(i: int):
            c_prev, c_i = center[i - 1], center[i]
            m_c, model = linearized(problem.model_ops[i - 1], c_prev, tau)
            h_c, obs = linearized(problem.obs_ops[i - 1], c_i, tau)
            # The stacked operator's lower block is the identity, whose
            # directional derivative is the direction itself.
            observe = lambda dev: np.concatenate([obs(dev), dev])
            predicted_center = np.concatenate([h_c, c_i])[:, None]
            return (
                lambda x: m_c[:, None] + model(x - c_prev[:, None]),
                observe,
                r_aug[i - 1],
                lambda x: predicted_center + observe(x - c_i[:, None]),
                np.concatenate([problem.observations[i - 1], c_i]),
            )

        (trajectory,) = _smoother_pass(problem, step, noise, [n])
        # The member mean, as ndarray.mean computes it.
        iterates.append(Trajectory((np.add.reduce(trajectory, axis=1) / n).reshape(-1, m)))
        objectives.append(objective(problem, iterates[-1]))
        if keep_ensembles:
            ensembles.append(_slot_rows(trajectory, slots))
            max_norms.append(float(np.max(np.linalg.norm(ensembles[-1], axis=1))))

    def one_pass(stream: PerturbationStream) -> list[LMRunResult]:
        # Per arm: iterates, objectives, final ensembles, max member norms.
        runs = [([start], [start_objective], [], []) for _ in arms]
        for j, sizes in enumerate(schedule, 1):
            ordered, slots = members[max(sizes)]
            draws = dict(zip(keys, _noises(stream, Phase.LM, j, ordered, scaled)))
            for arm, n, run in zip(arms, sizes, runs):
                run_arm(arm, n, run, lambda i, kind: draws[i, kind], slots)
            del draws  # freed before iteration j+1 draws
        return [LMRunResult(tuple(it), tuple(ob), arm.mode, tuple(en), tuple(mx)) for arm, (it, ob, en, mx) in zip(arms, runs)]

    return one_pass


def lm_enks_tangent_run(
    problem: AssimilationProblem,
    cfg: LMConfig,
    stream: PerturbationStream,
    member_indices=None,
) -> LMRunResult:
    """LM with the linearized subproblem solved by an EnKS (exact Jacobians)."""
    if cfg.mode != "tangent":
        raise ValidationError(f"lm_enks_tangent_run requires mode='tangent', got {cfg.mode!r}")
    return _lm_pass(problem, (cfg,), member_indices)(stream)[0]


def enks_4dvar_run(
    problem: AssimilationProblem,
    cfg: LMConfig,
    stream: PerturbationStream,
    member_indices=None,
) -> LMRunResult:
    """Derivative-free LM: Jacobian-vector products by forward differences.

    Structurally identical to :func:`lm_enks_tangent_run` and driven by
    the same draw keys, so a run with the same seed differs from the
    tangent run only through the finite-difference error, which vanishes
    as tau -> 0 (and is exactly zero, up to round-off, on linear
    operators).
    """
    if cfg.mode != "finite-difference":
        raise ValidationError(
            f"enks_4dvar_run requires mode='finite-difference', got {cfg.mode!r}"
        )
    return _lm_pass(problem, (cfg,), member_indices)(stream)[0]


def lm_run(
    problem: AssimilationProblem,
    cfg: LMConfig,
    stream: PerturbationStream | None = None,
    member_indices=None,
) -> LMRunResult:
    """Dispatch to the solver variant selected by ``cfg.mode``."""
    if cfg.mode == "exact":
        return lm_exact_run(problem, cfg)
    if stream is None:
        raise ValidationError(f"mode {cfg.mode!r} requires a perturbation stream")
    if cfg.mode == "tangent":
        return lm_enks_tangent_run(problem, cfg, stream, member_indices)
    return enks_4dvar_run(problem, cfg, stream, member_indices)
