"""Weak-constraint 4DVAR objective and Levenberg-Marquardt solvers.

The nonlinear least-squares objective over the whole trajectory is

    |x_0 - x_b|^2_{B^-1} + sum_i |x_i - M_i(x_{i-1}) - f_i|^2_{Q_i^-1}
                         + sum_i |y_i - H_i(x_i)|^2_{R_i^-1}

Three solver variants compute the damped Gauss-Newton (LM) iteration:

* ``exact``: the linearized subproblem is solved exactly.  Its normal
  equations are block tridiagonal in x_0..x_k, and a block Cholesky solve
  costs O(k m^3) time and O(k m^2) memory.  The step is the smoothing mean
  of the linearized system with the damping as an extra observation of
  each state with noise covariance (1/gamma) I, since both minimize the
  same quadratic (Bell 1994: the iterated Kalman smoother is Gauss-Newton).
* ``tangent``: the linearized subproblem is solved approximately by an
  ensemble Kalman smoother, with exact Jacobians applied to ensemble
  deviations and the linearization centered at the previous iterate's
  sample mean.  Its analysis step is the EnKS's own
  (``ensemble._sample_gain``), on the same (state, member) arrays.
* ``finite-difference``: as ``tangent``, but every Jacobian-vector
  product is replaced by a forward-difference quotient with step tau
  around the same center, so no Jacobians are needed at all.  Each
  operator is evaluated at its center once per step, and at all N
  shifted members in one ``Operator.apply_rows`` call on a transposed
  view of them.

The two ensemble variants, and runs with different tau, consume identical
keyed perturbations (same phase, iteration, time, member, kind), so
differences between them isolate the approximation under study.  All
arms share each draw, in one pass: a tau sweep advances the tangent arm
and every tau arm through each LM iteration on one draw of its keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .ensemble import _sample_gain, _slot_rows, _sorted_members
from .errors import ValidationError
from .kalman import _normal_equations_solution
from .numerics import _factor, _solve, _triangular_solve
from .problem import AssimilationProblem, Operator, Trajectory, _validated_factors, validate_problem
from .streams import NoiseKind, PerturbationStream, Phase

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


@dataclass(frozen=True)
class LMConfig:
    """Settings for one LM solve.

    ``ensemble_sizes`` is the per-iteration schedule N_j; a shorter
    schedule than ``max_iterations`` repeats its last entry.  ``gamma`` is
    the constant damping weight (ensemble modes require gamma > 0 so that
    the augmented observation covariance stays SPD; ``exact`` accepts
    gamma = 0, i.e. pure Gauss-Newton).  ``tau`` is the forward-difference
    step of the ``finite-difference`` mode.
    """

    gamma: float
    max_iterations: int = 1
    mode: str = "exact"
    ensemble_sizes: tuple[int, ...] = ()
    tau: float = 1e-3
    initial_trajectory: Trajectory | None = None

    def __post_init__(self) -> None:
        if not (np.isfinite(self.gamma) and self.gamma >= 0):
            raise ValidationError(f"gamma must be finite and >= 0, got {self.gamma}")
        if not (np.isfinite(self.tau) and self.tau > 0):
            raise ValidationError(f"tau must be finite and > 0, got {self.tau}")
        if self.max_iterations < 1:
            raise ValidationError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.mode not in _MODES:
            raise ValidationError(f"mode must be one of {_MODES}, got {self.mode!r}")
        object.__setattr__(self, "ensemble_sizes", tuple(int(n) for n in self.ensemble_sizes))
        if any(n < 2 for n in self.ensemble_sizes):
            raise ValidationError("every ensemble size must be >= 2")

    def ensemble_size_for(self, iteration: int) -> int:
        if not self.ensemble_sizes:
            raise ValidationError("ensemble mode requires a nonempty ensemble_sizes schedule")
        return self.ensemble_sizes[min(iteration - 1, len(self.ensemble_sizes) - 1)]


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
    return _objective(problem, trajectory, _validated_factors(problem))


def _objective(problem: AssimilationProblem, trajectory: Trajectory, factors) -> float:
    """The objective of a validated problem; ``factors`` are its ``(l_b, l_q, l_r)``."""
    x = trajectory.states
    if x.shape != (problem.horizon + 1, problem.state_dim):
        raise ValidationError(
            f"trajectory shape {x.shape} does not match problem "
            f"({problem.horizon + 1}, {problem.state_dim})"
        )
    l_b, l_q, l_r = factors
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
    if not (np.isfinite(tau) and tau > 0):
        raise ValidationError(f"tau must be finite and > 0, got {tau}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return (np.asarray(f(x + tau * y), dtype=float) - np.asarray(f(x), dtype=float)) / tau


def _exact_step(problem: AssimilationProblem, x_prev: Trajectory, gamma: float, factors) -> Trajectory:
    """``lm_exact_step`` on a validated problem with factors ``(l_b, l_q, l_r)``."""
    m, k = problem.state_dim, problem.horizon
    eye = np.eye(m)
    l_b, l_q, l_r = factors
    # Normal equations: diagonal blocks D_i, right-hand sides b_i, and
    # blocks A_i = -Q_i^-1 M_i coupling x_i to x_{i-1}.
    diag = [_solve(l_b, eye, "background_cov")]
    rhs = [diag[0] @ problem.background_mean]
    lower = []
    for i in range(1, k + 1):
        c_prev, c_i = x_prev[i - 1], x_prev[i]
        mop, hop = problem.model_ops[i - 1], problem.obs_ops[i - 1]
        mj, hj = mop.jacobian_at(c_prev), hop.jacobian_at(c_i)
        mu = mop(c_prev) + problem.forcings[i - 1] - mj @ c_prev
        y_eff = problem.observations[i - 1] - hop(c_i) + hj @ c_i
        q_inv = _solve(l_q[i - 1], eye, "model_noise_cov")
        r_inv_h = _solve(l_r[i - 1], hj, "obs_noise_cov")
        lower.append(-q_inv @ mj)
        diag[-1] = diag[-1] - mj.T @ lower[-1]
        rhs[-1] = rhs[-1] + lower[-1].T @ mu
        diag.append(q_inv + hj.T @ r_inv_h + gamma * eye)
        rhs.append(q_inv @ mu + r_inv_h.T @ y_eff + gamma * c_i)
    # Block Cholesky, forward: L_i L_i^T = D_i - C_i C_i^T and
    # L_i z_i = b_i - C_i z_{i-1}, where C_i = A_i L_{i-1}^-T.
    blocks, couplings, z = [], [None], []
    for i in range(k + 1):
        s, b = diag[i], rhs[i]
        if i > 0:
            couplings.append(_triangular_solve(blocks[-1], lower[i - 1].T, "normal equations").T)
            s, b = s - couplings[i] @ couplings[i].T, b - couplings[i] @ z[-1]
        blocks.append(_factor(0.5 * (s + s.T), "normal equations"))
        z.append(_triangular_solve(blocks[-1], b, "normal equations"))
    # Back substitution: L_i^T x_i = z_i - C_{i+1}^T x_{i+1}.
    x = np.empty((k + 1, m))
    for i in range(k, -1, -1):
        b = z[i] if i == k else z[i] - couplings[i + 1].T @ x[i + 1]
        x[i] = _triangular_solve(blocks[i], b, "normal equations", trans=1)
    return Trajectory(x)


def lm_exact_step(
    problem: AssimilationProblem, x_prev: Trajectory, gamma: float
) -> Trajectory:
    """One exact LM step: the smoothing mean of the linearized system."""
    return _exact_step(problem, x_prev, gamma, _validated_factors(problem))


def lm_tangent_ls_oracle(
    problem: AssimilationProblem, x_prev: Trajectory, gamma: float
) -> np.ndarray:
    """The LM step by direct normal-equations assembly (independent oracle).

    Builds the full linearized least-squares system, with the damping
    written explicitly as gamma |x_i - x_i_prev|^2 terms rather than as
    augmented observations, and solves it in one shot.  Shares no path
    with :func:`lm_exact_step` beyond the low-level SPD solve.
    """
    validate_problem(problem)
    steps = []
    for i in range(1, problem.horizon + 1):
        c_prev, c_i = x_prev[i - 1], x_prev[i]
        mop, hop = problem.model_ops[i - 1], problem.obs_ops[i - 1]
        mj, hj = mop.jacobian_at(c_prev), hop.jacobian_at(c_i)
        mu_eff = mop(c_prev) + problem.forcings[i - 1] - mj @ c_prev
        y_eff = problem.observations[i - 1] - hop(c_i) + hj @ c_i
        steps.append((mj, mu_eff, hj, y_eff))
    return _normal_equations_solution(problem, steps, gamma, x_prev)


def _start(problem: AssimilationProblem, cfg: LMConfig, factors) -> tuple[Trajectory, float]:
    """The initial trajectory and its objective, which must be finite."""
    x0 = cfg.initial_trajectory
    if x0 is None:
        x0 = problem.prior_chain()
    elif x0.states.shape != (problem.horizon + 1, problem.state_dim):
        raise ValidationError(f"initial trajectory shape {x0.states.shape} does not match problem")
    # A start whose objective overflows is refused below, so numpy need
    # not warn about the overflow.
    with np.errstate(over="ignore", invalid="ignore"):
        value = _objective(problem, x0, factors)
    if not np.isfinite(value):
        raise ValidationError(f"LM start objective is non-finite ({value}) at the initial trajectory")
    return x0, value


def lm_exact_run(problem: AssimilationProblem, cfg: LMConfig) -> LMRunResult:
    """Run the exact LM iteration for the configured budget."""
    factors = _validated_factors(problem)
    if cfg.mode != "exact":
        raise ValidationError(f"lm_exact_run requires mode='exact', got {cfg.mode!r}")
    x, start_objective = _start(problem, cfg, factors)
    iterates = [x]
    objectives = [start_objective]
    for _ in range(cfg.max_iterations):
        x = _exact_step(problem, x, cfg.gamma, factors)
        iterates.append(x)
        objectives.append(_objective(problem, x, factors))
    return LMRunResult(tuple(iterates), tuple(objectives), "exact")


def _lm_ensemble_runs(
    problem: AssimilationProblem,
    cfg: LMConfig,
    stream: PerturbationStream,
    member_indices,
    taus: tuple[float | None, ...],
    factors,
    keep_ensembles: bool = True,
) -> list[LMRunResult]:
    """The only ensemble LM step: one run per arm, all arms on shared keys.

    An arm is a forward-difference step tau, or ``None`` for the tangent
    arm.  Per LM iteration j, each arm runs one ensemble Kalman smoother
    pass on the system linearized at its own previous iterate, with the
    damping realized as stacked observations.  The iteration's keys are
    drawn and scaled once, then the arms run one after another, so only
    one working ensemble is alive at a time.  ``factors`` are the
    Cholesky factors :func:`_validated_factors` returned for ``problem``.
    ``keep_ensembles=False`` leaves ``ensembles`` and ``max_member_norms``
    empty.
    """
    l_b, l_q, _ = factors
    if cfg.gamma <= 0:
        raise ValidationError("ensemble LM modes require gamma > 0")
    m, k = problem.state_dim, problem.horizon

    def directional(op: Operator, c: np.ndarray, f_c: np.ndarray, dirs: np.ndarray, tau) -> np.ndarray:
        """Products of op's Jacobian at c with every column of dirs, f_c = op(c)."""
        if tau is None:
            return op.jacobian_at(c) @ dirs
        return ((op.apply_rows(c + tau * dirs.T) - f_c) / tau).T

    # blockdiag(R_i, I / gamma) does not depend on the linearization center.
    r_aug = [_augmented_noise_cov(problem, i, cfg.gamma) for i in range(1, k + 1)]
    l_r_aug = [_factor(r, "augmented obs cov") for r in r_aug]
    start, start_objective = _start(problem, cfg, factors)
    # Per arm: iterates, objectives, final ensembles, max member norms.
    runs = [([start], [start_objective], [], []) for _ in taus]

    for j in range(1, cfg.max_iterations + 1):
        members, slots = _sorted_members(cfg.ensemble_size_for(j), member_indices)
        draw = partial(stream.draw_members, Phase.LM, j, members=members)
        init = problem.background_mean[:, None] + l_b @ draw(0, NoiseKind.INIT, dim=m).T
        model_noise = [l @ draw(i, NoiseKind.MODEL, dim=m).T for i, l in enumerate(l_q, 1)]
        obs_noise = [l @ draw(i, NoiseKind.OBS, dim=len(l)).T for i, l in enumerate(l_r_aug, 1)]

        for tau, (iterates, objectives, ensembles, max_norms) in zip(taus, runs):
            center, ensemble = iterates[-1], init
            for i in range(1, k + 1):
                c_prev, c_i = center[i - 1], center[i]
                mop, hop = problem.model_ops[i - 1], problem.obs_ops[i - 1]
                m_c, h_c = mop(c_prev), hop(c_i)
                prop = directional(mop, c_prev, m_c, ensemble[-m:] - c_prev[:, None], tau)
                state = prop + m_c[:, None] + problem.forcings[i - 1][:, None] + model_noise[i - 1]
                ensemble = np.vstack([ensemble, state])
                # The stacked operator's lower block is the identity, whose
                # directional derivative is the direction itself.
                gain_t = _sample_gain(
                    ensemble, lambda dev: np.vstack([directional(hop, c_i, h_c, dev[-m:], tau), dev[-m:]]), r_aug[i - 1]
                )
                dev_center = ensemble[-m:] - c_i[:, None]
                predicted = np.vstack(
                    [h_c[:, None] + directional(hop, c_i, h_c, dev_center, tau), c_i[:, None] + dev_center]
                )
                observation = np.concatenate([problem.observations[i - 1], c_i])
                ensemble += gain_t.T @ (observation[:, None] - obs_noise[i - 1] - predicted)

            iterates.append(Trajectory.from_composite(ensemble.mean(axis=1), m))
            objectives.append(_objective(problem, iterates[-1], factors))
            if keep_ensembles:
                ensembles.append(_slot_rows(ensemble, slots))
                max_norms.append(float(np.max(np.linalg.norm(ensembles[-1], axis=1))))

    return [
        LMRunResult(tuple(it), tuple(ob), "tangent" if tau is None else "finite-difference", tuple(en), tuple(mx))
        for tau, (it, ob, en, mx) in zip(taus, runs)
    ]


def lm_enks_tangent_run(
    problem: AssimilationProblem,
    cfg: LMConfig,
    stream: PerturbationStream,
    member_indices=None,
) -> LMRunResult:
    """LM with the linearized subproblem solved by an EnKS (exact Jacobians)."""
    if cfg.mode != "tangent":
        raise ValidationError(f"lm_enks_tangent_run requires mode='tangent', got {cfg.mode!r}")
    return _lm_ensemble_runs(problem, cfg, stream, member_indices, (None,), _validated_factors(problem))[0]


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
    return _lm_ensemble_runs(problem, cfg, stream, member_indices, (cfg.tau,), _validated_factors(problem))[0]


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
