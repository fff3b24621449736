"""Toy problems for tests, demos, and convergence studies.

A toy's parameters are read by one table keyed by parameter name
(``_PARAMETERS``), whose readers are ``streams``' quantity readers, so a
parameter two toys share (``k``) is read by one rule.  Only the bounds
that involve a derived quantity, the composite size and the ``lorenz63``
substep count, are written here.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import replace

import numpy as np

from .errors import ValidationError
from .numerics import cholesky_spd
from .problem import AssimilationProblem, Operator
from .streams import _count, _positive, _seed

__all__ = ["make_toy_problem"]

_LORENZ_SIGMA = 10.0
_LORENZ_RHO = 28.0
_LORENZ_BETA = 8.0 / 3.0
# The largest composite size m*(k+1) a toy may have; see make_toy_problem.
_MAX_COMPOSITE = 1 << 15
# The most RK4 substeps one lorenz63 model step may take; see make_toy_problem.
_MAX_SUBSTEPS = 1000
# Each toy parameter's reader, by name: a name two toys share has one reader.
_PARAMETERS = {"m": _count, "k": _count, "seed": _seed, "dt": _positive}


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

    The parameters are bound to the builder's signature and each is read
    by its name's reader in ``_PARAMETERS``, type and range together: ``m``
    and ``k`` are counts (``streams._count``), ``seed`` a seed in
    [0, 2**64) (``_seed``) and ``dt`` finite and > 0 (``_positive``).  So a
    boolean or a string is refused as a number, from Python as from YAML,
    and each refusal reads ``toy '<name>' parameter <key> must be ...``.

    A toy's composite size m*(k+1), with m = 3 for ``lorenz63``, is at
    most 32,768 (``_MAX_COMPOSITE``), checked before anything is
    allocated.  The bound is on the composite size because that is what
    the package holds: the exact smoother's covariance and the oracles'
    normal equations are dense m(k+1)-square matrices (8.6 GB at the
    bound), and each ensemble member is a trajectory of that length.  It
    lies ten times past the largest problem measured so far (m=40, k=80,
    3,240), and turns a huge m or k into a ``ValidationError`` rather
    than numpy's raw error or a loop over k that does not return.  It does
    not bound a build's own cost: ``linear-chain`` takes O(k m^3) time and
    O(k m^2) memory, so an accepted m in the thousands is slow to build.

    A ``lorenz63`` step takes ceil(dt / 0.01) RK4 substeps, at most 1,000
    (``_MAX_SUBSTEPS``, so dt up to 10), checked before any step runs.  Ten
    time units are about nine Lyapunov times of Lorenz-63 (leading exponent
    near 0.9), past which a step's output has forgotten its input, so no
    longer step makes a problem worth assimilating; and the bound turns a
    huge dt (1e300 took 1e302 substeps a step) into a ``ValidationError``.
    A step at the bound takes about 45 ms a state, and a build takes 2k of
    them.
    """
    builder = _BUILDERS.get(name) if isinstance(name, str) else None
    if builder is None:
        raise ValidationError(f"unknown toy problem {name!r}; known: {sorted(_BUILDERS)}")
    try:
        bound = inspect.signature(builder).bind(**params)
    except TypeError as exc:
        raise ValidationError(f"toy {name!r}: {exc}") from None
    return builder(**{key: _PARAMETERS[key](f"toy {name!r} parameter {key}", v) for key, v in bound.arguments.items()})


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
    def quadratic(x):
        return x + 0.1 * x**2

    model = Operator(
        apply=quadratic,
        jacobian=lambda x: np.diag(1.0 + 0.2 * np.asarray(x, dtype=float)),
        linear=False,
        rows=quadratic,  # elementwise, so rows map exactly as single states do
    )
    return replace(_w1_linear(), model_ops=(model,))


def _check_size(name: str, m: int, k: int) -> None:
    if m * (k + 1) > _MAX_COMPOSITE:
        raise ValidationError(f"{name} needs m*(k+1) <= {_MAX_COMPOSITE}, got m={m}, k={k}")


def _random_spd(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim))
    return g @ g.T / dim + 0.5 * np.eye(dim)


def _stable_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.standard_normal((dim, dim))
    radius = float(np.max(np.abs(np.linalg.eigvals(a))))
    return a * (0.9 / max(radius, 1e-12))


def _linear_chain(m: int, k: int, seed: int) -> AssimilationProblem:
    _check_size("linear-chain", m, k)
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


def _substeps(dt: float) -> int:
    # Substeps capped at 0.01 time units for stability on the attractor.
    return max(1, math.ceil(dt / 0.01))


def _rk4_map(x: np.ndarray, dt: float) -> np.ndarray:
    n_sub = _substeps(dt)
    h = dt / n_sub
    for _ in range(n_sub):
        k1 = _lorenz_rhs(x)
        k2 = _lorenz_rhs(x + 0.5 * h * k1)
        k3 = _lorenz_rhs(x + 0.5 * h * k2)
        k4 = _lorenz_rhs(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


def _lorenz63(k: int, dt: float = 0.05) -> AssimilationProblem:
    if _substeps(dt) > _MAX_SUBSTEPS:
        raise ValidationError(f"lorenz63 needs ceil(dt / 0.01) <= {_MAX_SUBSTEPS} RK4 substeps a step, got dt={dt}")
    m = 3
    _check_size("lorenz63", m, k)
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
