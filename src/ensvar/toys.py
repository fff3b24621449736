"""Toy problems for tests, demos, and convergence studies."""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .numerics import cholesky_spd
from .problem import AssimilationProblem, Operator, validate_problem

__all__ = ["make_toy_problem"]

_LORENZ_SIGMA = 10.0
_LORENZ_RHO = 28.0
_LORENZ_BETA = 8.0 / 3.0


def make_toy_problem(name: str, **params) -> AssimilationProblem:
    """Build a named toy problem.

    Names
    -----
    ``w1-linear``
        Scalar one-step linear fixture: x_b=0, B=1, identity model and
        observation, unit noise covariances, y_1=3.  Its filtering answer
        is (mean 2, variance 2/3) and its smoothing answer is mean (1, 2)
        with covariance [[2/3, 1/3], [1/3, 2/3]].
    ``w2-quadratic``
        As w1-linear but with the mildly nonlinear model x + 0.1 x^2,
        exact Jacobian registered.
    ``linear-chain``
        Random linear problem; requires ``m``, ``k``, ``seed``.  Model
        matrices are scaled to spectral radius <= 0.95, covariances are
        SPD by construction, and observations come from a simulated truth.
    ``lorenz63``
        Fixed-step RK4 map of the Lorenz-63 system; requires ``k``,
        optional ``dt`` (default 0.05).  No Jacobian is registered, so
        only derivative-free solvers apply, and the tangent-LM rate
        claims cannot be checked on it; this fixture is for qualitative
        demos only.
    """
    return validate_problem(_toy_builder(name)(**params))


def _toy_builder(name):
    """The function that builds the named toy; ValidationError if unknown."""
    builder = _BUILDERS.get(name) if isinstance(name, str) else None
    if builder is None:
        raise ValidationError(f"unknown toy problem {name!r}; known: {sorted(_BUILDERS)}")
    return builder


def _w1_linear() -> AssimilationProblem:
    identity = Operator.from_matrix(np.eye(1))
    return AssimilationProblem(
        state_dim=1,
        horizon=1,
        background_mean=np.zeros(1),
        background_cov=np.eye(1),
        model_ops=(identity,),
        forcings=(np.zeros(1),),
        model_noise_covs=(np.eye(1),),
        obs_ops=(identity,),
        obs_noise_covs=(np.eye(1),),
        observations=(np.array([3.0]),),
    )


def _w2_quadratic() -> AssimilationProblem:
    base = _w1_linear()

    def quadratic(x):
        return x + 0.1 * x**2

    model = Operator(
        apply=quadratic,
        jacobian=lambda x: np.diag(1.0 + 0.2 * np.asarray(x, dtype=float)),
        linear=False,
        rows=quadratic,  # elementwise, so rows map exactly as single states do
    )
    return AssimilationProblem(
        state_dim=1,
        horizon=1,
        background_mean=base.background_mean,
        background_cov=base.background_cov,
        model_ops=(model,),
        forcings=base.forcings,
        model_noise_covs=base.model_noise_covs,
        obs_ops=base.obs_ops,
        obs_noise_covs=base.obs_noise_covs,
        observations=base.observations,
    )


def _random_spd(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim))
    return g @ g.T / dim + 0.5 * np.eye(dim)


def _stable_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.standard_normal((dim, dim))
    radius = float(np.max(np.abs(np.linalg.eigvals(a))))
    return a * (0.9 / max(radius, 1e-12))


def _linear_chain(m: int, k: int, seed: int) -> AssimilationProblem:
    if m < 1 or k < 1 or seed < 0:
        raise ValidationError(f"linear-chain needs m >= 1, k >= 1 and seed >= 0, got m={m}, k={k}, seed={seed}")
    rng = np.random.default_rng(seed)
    background_mean = rng.standard_normal(m)
    background_cov = _random_spd(rng, m)
    models = [_stable_matrix(rng, m) for _ in range(k)]
    forcings = [0.1 * rng.standard_normal(m) for _ in range(k)]
    model_covs = [_random_spd(rng, m) for _ in range(k)]
    obs_mats = [rng.standard_normal((m, m)) for _ in range(k)]
    obs_covs = [_random_spd(rng, m) for _ in range(k)]

    # Synthetic observations from one simulated truth trajectory.
    truth = background_mean + cholesky_spd(background_cov) @ rng.standard_normal(m)
    observations = []
    for i in range(k):
        truth = models[i] @ truth + forcings[i] + cholesky_spd(model_covs[i]) @ rng.standard_normal(m)
        observations.append(obs_mats[i] @ truth + cholesky_spd(obs_covs[i]) @ rng.standard_normal(m))

    return AssimilationProblem(
        state_dim=m,
        horizon=k,
        background_mean=background_mean,
        background_cov=background_cov,
        model_ops=tuple(Operator.from_matrix(a) for a in models),
        forcings=tuple(forcings),
        model_noise_covs=tuple(model_covs),
        obs_ops=tuple(Operator.from_matrix(h) for h in obs_mats),
        obs_noise_covs=tuple(obs_covs),
        observations=tuple(observations),
    )


def _lorenz_rhs(x: np.ndarray) -> np.ndarray:
    # Written on the last axis, so one state or an (N, 3) batch of them.
    x0, x1, x2 = x[..., 0], x[..., 1], x[..., 2]
    return np.stack(
        [
            _LORENZ_SIGMA * (x1 - x0),
            x0 * (_LORENZ_RHO - x2) - x1,
            x0 * x1 - _LORENZ_BETA * x2,
        ],
        axis=-1,
    )


def _rk4_map(x: np.ndarray, dt: float) -> np.ndarray:
    # Substeps capped at 0.01 time units for stability on the attractor.
    n_sub = max(1, int(np.ceil(dt / 0.01)))
    h = dt / n_sub
    for _ in range(n_sub):
        k1 = _lorenz_rhs(x)
        k2 = _lorenz_rhs(x + 0.5 * h * k1)
        k3 = _lorenz_rhs(x + 0.5 * h * k2)
        k4 = _lorenz_rhs(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


def _lorenz63(k: int, dt: float = 0.05) -> AssimilationProblem:
    if k < 1 or dt <= 0:
        raise ValidationError(f"lorenz63 needs k >= 1 and dt > 0, got k={k}, dt={dt}")
    m = 3
    rng = np.random.default_rng(0)

    def step(x):
        return _rk4_map(np.asarray(x, dtype=float), dt)

    model = Operator(apply=step, rows=step)
    obs = Operator.from_matrix(np.eye(m))
    background_cov = 4.0 * np.eye(m)
    model_cov = 0.05 * np.eye(m)
    obs_cov = 2.0 * np.eye(m)

    # Spin onto the attractor, then simulate the truth and observe it.
    truth = _rk4_map(np.array([1.0, 1.0, 25.0]), 5.0)
    background_mean = truth + 2.0 * rng.standard_normal(m)
    observations = []
    for _ in range(k):
        truth = _rk4_map(truth, dt) + np.sqrt(0.05) * rng.standard_normal(m)
        observations.append(truth + np.sqrt(2.0) * rng.standard_normal(m))

    return AssimilationProblem(
        state_dim=m,
        horizon=k,
        background_mean=background_mean,
        background_cov=background_cov,
        model_ops=(model,) * k,
        forcings=(np.zeros(m),) * k,
        model_noise_covs=(model_cov,) * k,
        obs_ops=(obs,) * k,
        obs_noise_covs=(obs_cov,) * k,
        observations=tuple(observations),
    )


_BUILDERS = {
    "w1-linear": _w1_linear,
    "w2-quadratic": _w2_quadratic,
    "linear-chain": _linear_chain,
    "lorenz63": _lorenz63,
}
