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
  sample mean.
* ``finite-difference``: as ``tangent``, but every Jacobian-vector
  product is replaced by a forward-difference quotient with step tau
  around the same center, so no Jacobians are needed at all.  Each
  operator is evaluated at its center once per step, and at all N
  shifted members in one ``Operator.apply_rows`` call.

The two ensemble variants consume identical keyed perturbations (same
phase, iteration, time, member, kind), as do runs with different tau, so
differences between them isolate the approximation under study.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import solve_triangular

from .ensemble import _analysis_update, _canonical_order, _member_array, _sample_products
from .errors import ValidationError
from .numerics import cholesky_spd, spd_solve
from .problem import AssimilationProblem, Operator, Trajectory, validate_problem
from .streams import NoiseKind, PerturbationStream, Phase

__all__ = [
    "LMConfig",
    "AugmentedObservation",
    "LMRunResult",
    "objective",
    "augment",
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
class AugmentedObservation:
    """One step's observation, stacked with the damping pseudo-observation.

    ``observation`` is [y_i; x_i_prev], ``apply`` maps a state z to
    [H_i(z); z], and ``noise_cov`` is blockdiag(R_i, (1/gamma) I).
    """

    observation: np.ndarray
    apply: Callable[[np.ndarray], np.ndarray]
    noise_cov: np.ndarray


@dataclass(frozen=True, eq=False)
class LMRunResult:
    """Iterate trajectories x^0..x^J with objective values and diagnostics.

    ``ensembles`` holds the final composite analysis ensemble of each LM
    iteration for the ensemble modes (empty for exact).
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
    return _objective(validate_problem(problem), trajectory)


def _objective(problem: AssimilationProblem, trajectory: Trajectory) -> float:
    x = trajectory.states
    if x.shape != (problem.horizon + 1, problem.state_dim):
        raise ValidationError(
            f"trajectory shape {x.shape} does not match problem "
            f"({problem.horizon + 1}, {problem.state_dim})"
        )
    r0 = x[0] - problem.background_mean
    total = float(r0 @ spd_solve(problem.background_cov, r0, name="background_cov"))
    for i in range(1, problem.horizon + 1):
        rm = x[i] - problem.model_ops[i - 1](x[i - 1]) - problem.forcings[i - 1]
        total += float(rm @ spd_solve(problem.model_noise_covs[i - 1], rm, name="model_noise_cov"))
        ro = problem.observations[i - 1] - problem.obs_ops[i - 1](x[i])
        total += float(ro @ spd_solve(problem.obs_noise_covs[i - 1], ro, name="obs_noise_cov"))
    return total


def _augmented_noise_cov(problem: AssimilationProblem, i: int, gamma: float) -> np.ndarray:
    """blockdiag(R_i, (1/gamma) I): SPD whenever R_i is SPD and gamma > 0."""
    m = problem.state_dim
    d = problem.obs_dim(i)
    cov = np.zeros((d + m, d + m))
    cov[:d, :d] = problem.obs_noise_covs[i - 1]
    cov[d:, d:] = np.eye(m) / gamma
    return cov


def augment(
    problem: AssimilationProblem, x_prev: Trajectory, gamma: float
) -> tuple[AugmentedObservation, ...]:
    """Per-step stacked observations realizing the damping term.

    The penalty gamma |x_i - x_i_prev|^2 is an independent observation
    x_i_prev = x_i + E_i with E_i ~ N(0, (1/gamma) I), appended below the
    physical observation.
    """
    if gamma <= 0:
        raise ValidationError(f"augmentation requires gamma > 0, got {gamma}")
    out = []
    for i in range(1, problem.horizon + 1):
        op = problem.obs_ops[i - 1]
        out.append(
            AugmentedObservation(
                observation=np.concatenate([problem.observations[i - 1], x_prev[i]]),
                apply=lambda z, _op=op: np.concatenate([_op(z), np.asarray(z, dtype=float)]),
                noise_cov=_augmented_noise_cov(problem, i, gamma),
            )
        )
    return tuple(out)


def fd_directional(f: Callable[[np.ndarray], np.ndarray], x, y, tau: float) -> np.ndarray:
    """Forward-difference directional derivative (f(x + tau y) - f(x)) / tau."""
    if not (np.isfinite(tau) and tau > 0):
        raise ValidationError(f"tau must be finite and > 0, got {tau}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return (np.asarray(f(x + tau * y), dtype=float) - np.asarray(f(x), dtype=float)) / tau


def _exact_step(problem: AssimilationProblem, x_prev: Trajectory, gamma: float) -> Trajectory:
    """``lm_exact_step`` on a problem that is already validated."""
    m, k = problem.state_dim, problem.horizon
    eye = np.eye(m)
    # Normal equations: diagonal blocks D_i, right-hand sides b_i, and
    # blocks A_i = -Q_i^-1 M_i coupling x_i to x_{i-1}.
    diag = [spd_solve(problem.background_cov, eye, name="background_cov")]
    rhs = [diag[0] @ problem.background_mean]
    lower = []
    for i in range(1, k + 1):
        c_prev, c_i = x_prev[i - 1], x_prev[i]
        mop, hop = problem.model_ops[i - 1], problem.obs_ops[i - 1]
        mj, hj = mop.jacobian_at(c_prev), hop.jacobian_at(c_i)
        mu = mop(c_prev) + problem.forcings[i - 1] - mj @ c_prev
        y_eff = problem.observations[i - 1] - hop(c_i) + hj @ c_i
        q_inv = spd_solve(problem.model_noise_covs[i - 1], eye, name="model_noise_cov")
        r_inv_h = spd_solve(problem.obs_noise_covs[i - 1], hj, name="obs_noise_cov")
        lower.append(-q_inv @ mj)
        diag[-1] = diag[-1] - mj.T @ lower[-1]
        rhs[-1] = rhs[-1] + lower[-1].T @ mu
        diag.append(q_inv + hj.T @ r_inv_h + gamma * eye)
        rhs.append(q_inv @ mu + r_inv_h.T @ y_eff + gamma * c_i)
    # Block Cholesky, forward: L_i L_i^T = D_i - C_i C_i^T and
    # L_i z_i = b_i - C_i z_{i-1}, where C_i = A_i L_{i-1}^-T.
    factors, couplings, z = [], [None], []
    for i in range(k + 1):
        s, b = diag[i], rhs[i]
        if i > 0:
            couplings.append(solve_triangular(factors[-1], lower[i - 1].T, lower=True).T)
            s, b = s - couplings[i] @ couplings[i].T, b - couplings[i] @ z[-1]
        factors.append(cholesky_spd(0.5 * (s + s.T), "normal equations"))
        z.append(solve_triangular(factors[-1], b, lower=True))
    # Back substitution: L_i^T x_i = z_i - C_{i+1}^T x_{i+1}.
    x = np.empty((k + 1, m))
    for i in range(k, -1, -1):
        b = z[i] if i == k else z[i] - couplings[i + 1].T @ x[i + 1]
        x[i] = solve_triangular(factors[i], b, lower=True, trans="T")
    return Trajectory(x)


def lm_exact_step(
    problem: AssimilationProblem, x_prev: Trajectory, gamma: float
) -> Trajectory:
    """One exact LM step: the smoothing mean of the linearized system."""
    return _exact_step(validate_problem(problem), x_prev, gamma)


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
    m, k = problem.state_dim, problem.horizon
    size = m * (k + 1)
    eye = np.eye(m)
    gram = np.zeros((size, size))
    rhs = np.zeros(size)

    b_inv = spd_solve(problem.background_cov, eye, name="background_cov")
    gram[:m, :m] += b_inv
    rhs[:m] += b_inv @ problem.background_mean

    for i in range(1, k + 1):
        c_prev, c_i = x_prev[i - 1], x_prev[i]
        lo, hi = m * (i - 1), m * i
        mj = problem.model_ops[i - 1].jacobian_at(c_prev)
        mu_eff = problem.model_ops[i - 1](c_prev) + problem.forcings[i - 1] - mj @ c_prev
        q_inv = spd_solve(problem.model_noise_covs[i - 1], eye, name="model_noise_cov")
        gram[lo:hi, lo:hi] += mj.T @ q_inv @ mj
        gram[lo:hi, hi : hi + m] += -mj.T @ q_inv
        gram[hi : hi + m, lo:hi] += -q_inv @ mj
        gram[hi : hi + m, hi : hi + m] += q_inv
        rhs[lo:hi] += -mj.T @ q_inv @ mu_eff
        rhs[hi : hi + m] += q_inv @ mu_eff

        d = problem.obs_dim(i)
        hj = problem.obs_ops[i - 1].jacobian_at(c_i)
        y_eff = problem.observations[i - 1] - problem.obs_ops[i - 1](c_i) + hj @ c_i
        r_inv = spd_solve(problem.obs_noise_covs[i - 1], np.eye(d), name="obs_noise_cov")
        gram[hi : hi + m, hi : hi + m] += hj.T @ r_inv @ hj
        rhs[hi : hi + m] += hj.T @ r_inv @ y_eff

        if gamma > 0:
            gram[hi : hi + m, hi : hi + m] += gamma * eye
            rhs[hi : hi + m] += gamma * c_i

    return spd_solve(0.5 * (gram + gram.T), rhs, name="normal equations")


def _initial_trajectory(problem: AssimilationProblem, cfg: LMConfig) -> Trajectory:
    if cfg.initial_trajectory is not None:
        x0 = cfg.initial_trajectory
        if x0.states.shape != (problem.horizon + 1, problem.state_dim):
            raise ValidationError(
                f"initial trajectory shape {x0.states.shape} does not match problem"
            )
        return x0
    return problem.prior_chain()


def lm_exact_run(problem: AssimilationProblem, cfg: LMConfig) -> LMRunResult:
    """Run the exact LM iteration for the configured budget."""
    validate_problem(problem)
    if cfg.mode != "exact":
        raise ValidationError(f"lm_exact_run requires mode='exact', got {cfg.mode!r}")
    x = _initial_trajectory(problem, cfg)
    iterates = [x]
    objectives = [_objective(problem, x)]
    for _ in range(cfg.max_iterations):
        x = _exact_step(problem, x, cfg.gamma)
        iterates.append(x)
        objectives.append(_objective(problem, x))
    return LMRunResult(tuple(iterates), tuple(objectives), "exact")


def _lm_ensemble_run(
    problem: AssimilationProblem,
    cfg: LMConfig,
    stream: PerturbationStream,
    member_indices,
    use_fd: bool,
) -> LMRunResult:
    """Shared skeleton of the two ensemble LM variants.

    Per LM iteration j, runs one ensemble Kalman smoother pass on the
    system linearized at the previous iterate (the previous sample mean),
    with the damping realized as stacked observations.  The variants
    differ only in how Jacobian-vector products are evaluated.
    """
    validate_problem(problem)
    if cfg.gamma <= 0:
        raise ValidationError("ensemble LM modes require gamma > 0")
    m, k = problem.state_dim, problem.horizon

    def directional(op: Operator, c: np.ndarray, f_c: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        """Products of op's Jacobian at c with every row of dirs, f_c = op(c)."""
        if use_fd:
            return (op.apply_rows(c + cfg.tau * dirs) - f_c) / cfg.tau
        return dirs @ op.jacobian_at(c).T

    l_b = cholesky_spd(problem.background_cov, "background_cov")
    l_q = [cholesky_spd(q, "model_noise_cov") for q in problem.model_noise_covs]
    # The augmented noise covariance depends on gamma and R_i only, not on
    # the linearization center, so its factor is loop-invariant.
    l_r_aug = [
        cholesky_spd(_augmented_noise_cov(problem, i, cfg.gamma), "augmented obs cov")
        for i in range(1, k + 1)
    ]

    center = _initial_trajectory(problem, cfg)
    iterates = [center]
    objectives = [_objective(problem, center)]
    ensembles = []
    max_norms = []

    for j in range(1, cfg.max_iterations + 1):
        n = cfg.ensemble_size_for(j)
        members = _member_array(n, member_indices)
        order = _canonical_order(members)
        aug = augment(problem, center, cfg.gamma)

        z = stream.draw_members(Phase.LM, j, 0, NoiseKind.INIT, members, m)
        ensemble = problem.background_mean + z @ l_b.T

        for i in range(1, k + 1):
            c_prev, c_i = center[i - 1], center[i]
            mop, hop = problem.model_ops[i - 1], problem.obs_ops[i - 1]
            m_c, h_c = mop(c_prev), hop(c_i)

            v = stream.draw_members(Phase.LM, j, i, NoiseKind.MODEL, members, m)
            prop = directional(mop, c_prev, m_c, ensemble[:, -m:] - c_prev)
            ensemble = np.hstack(
                [ensemble, prop + m_c + problem.forcings[i - 1] + v @ l_q[i - 1].T]
            )

            sorted_ens = ensemble[order]
            dev = sorted_ens - sorted_ens.mean(axis=0)
            sdev = dev[:, -m:]
            # The stacked operator's lower block is the identity, whose
            # directional derivative is the direction itself.
            pht, hpht = _sample_products(dev, np.hstack([directional(hop, c_i, h_c, sdev), sdev]))

            r_tilde = aug[i - 1].noise_cov
            d_aug = r_tilde.shape[0]
            w = stream.draw_members(Phase.LM, j, i, NoiseKind.OBS, members, d_aug)
            w = w @ l_r_aug[i - 1].T

            dev_center = ensemble[:, -m:] - c_i
            predicted = np.hstack([h_c + directional(hop, c_i, h_c, dev_center), c_i + dev_center])
            innovations = aug[i - 1].observation - w - predicted
            ensemble = _analysis_update(ensemble, innovations, pht, hpht, r_tilde)

        center = Trajectory.from_composite(ensemble[order].mean(axis=0), m)
        iterates.append(center)
        objectives.append(_objective(problem, center))
        ensembles.append(ensemble.copy())
        max_norms.append(float(np.max(np.linalg.norm(ensemble, axis=1))))

    mode = "finite-difference" if use_fd else "tangent"
    return LMRunResult(
        tuple(iterates), tuple(objectives), mode, tuple(ensembles), tuple(max_norms)
    )


def lm_enks_tangent_run(
    problem: AssimilationProblem,
    cfg: LMConfig,
    stream: PerturbationStream,
    member_indices=None,
) -> LMRunResult:
    """LM with the linearized subproblem solved by an EnKS (exact Jacobians)."""
    if cfg.mode != "tangent":
        raise ValidationError(f"lm_enks_tangent_run requires mode='tangent', got {cfg.mode!r}")
    return _lm_ensemble_run(problem, cfg, stream, member_indices, use_fd=False)


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
    return _lm_ensemble_run(problem, cfg, stream, member_indices, use_fd=True)


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
