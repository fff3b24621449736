"""Definition and validation of the assimilation problem.

The hidden-state system is

    X_0 ~ N(background_mean, background_cov)
    X_i = model_i(X_{i-1}) + forcing_i + V_i,   V_i ~ N(0, model_noise_cov_i)
    y_i = obs_i(X_i) + W_i,                     W_i ~ N(0, obs_noise_cov_i)

for time steps i = 1..horizon.  Operators may be nonlinear; linear ones
are flagged and the linearity claim is checked at validation time.

A problem is validated once, when it is built, and keeps the Cholesky
factors its checks computed; its arrays are read-only copies, so it stays
valid for as long as it lives and every algorithm reads its factors.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatchError,
    MissingJacobianError,
    NonlinearOperatorError,
    ValidationError,
)
from .numerics import _as_spd_input, _factor, _frobenius_norm, _positive_definite

__all__ = [
    "Operator",
    "AssimilationProblem",
    "Trajectory",
    "GaussianEstimate",
    "validate_problem",
]

_LINEARITY_RTOL = 1e-12
_PSD_RTOL = 1e-10


@dataclass(frozen=True, eq=False)
class Operator:
    """A model or observation operator with an optional exact Jacobian.

    ``apply`` maps a state vector to an output vector.  ``jacobian``, if
    registered, maps a state vector to the (out_dim, in_dim) Jacobian
    matrix at that point.  Operators flagged ``linear`` may carry their
    matrix directly, of which they keep a read-only copy; given no
    ``apply``, they apply that copy.  Algorithms that require linearity
    or a Jacobian fail fast instead of silently substituting an
    approximation.  ``rows``, if registered, is ``apply`` vectorized over
    the rows of an (N, in_dim) array; it must agree with ``apply`` row by
    row, bit for bit.
    """

    apply: Callable[[np.ndarray], np.ndarray] | None = None
    jacobian: Callable[[np.ndarray], np.ndarray] | None = None
    linear: bool = False
    matrix: np.ndarray | None = None
    rows: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        # A copy, so that writing to the caller's array cannot make a built
        # problem's checks stale.
        if self.matrix is not None:
            object.__setattr__(self, "matrix", _mat(self.matrix))
            if self.apply is None:
                object.__setattr__(self, "apply", self.matrix.__matmul__)
        if self.apply is None:
            raise ValidationError("an operator needs apply or matrix")

    @classmethod
    def from_matrix(cls, a: np.ndarray) -> "Operator":
        """The linear operator x -> a x, on the read-only copy of ``a`` it keeps."""
        return cls(linear=True, matrix=a)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.apply(np.asarray(x, dtype=float)), dtype=float)

    def apply_rows(self, x: np.ndarray) -> np.ndarray:
        """Apply to every row of an (N, in_dim) array; returns (N, out_dim).

        Row r is ``self(x[r])``: bit for bit through ``rows`` or the
        per-row loop that serves operators registering neither ``rows``
        nor ``matrix``, and up to round-off through ``x @ matrix.T``.
        """
        x = np.asarray(x, dtype=float)
        if self.matrix is not None:
            return x @ self.matrix.T
        if self.rows is not None:
            return np.asarray(self.rows(x), dtype=float)
        return np.stack([self(row) for row in x])

    def jacobian_at(self, x: np.ndarray) -> np.ndarray:
        """Exact Jacobian at ``x``; raises if none was registered."""
        if self.matrix is not None:
            return self.matrix
        if self.jacobian is None:
            raise MissingJacobianError(
                "operator has no registered Jacobian; register one or use a "
                "finite-difference algorithm variant"
            )
        return np.atleast_2d(np.asarray(self.jacobian(np.asarray(x, dtype=float)), dtype=float))

    def as_matrix(self, in_dim: int) -> np.ndarray:
        """Materialize a linear operator's matrix by applying it to a basis."""
        if not self.linear:
            raise NonlinearOperatorError("operator is not flagged linear")
        if self.matrix is not None:
            return self.matrix
        cols = [self(e) for e in np.eye(in_dim)]
        return np.stack(cols, axis=1)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A composite state: the stacked states x_0..x_k, one row per time."""

    states: np.ndarray

    def __post_init__(self) -> None:
        arr = np.atleast_2d(np.asarray(self.states, dtype=float))
        if not np.isfinite(arr).all():
            raise ValidationError("trajectory contains non-finite entries")
        object.__setattr__(self, "states", arr)

    @property
    def horizon(self) -> int:
        return self.states.shape[0] - 1

    @property
    def state_dim(self) -> int:
        return self.states.shape[1]

    @property
    def composite(self) -> np.ndarray:
        """The trajectory flattened to one vector of length m*(k+1)."""
        return self.states.reshape(-1)

    @classmethod
    def from_composite(cls, vec: np.ndarray, state_dim: int) -> "Trajectory":
        vec = np.asarray(vec, dtype=float)
        if vec.size % state_dim != 0:
            raise DimensionMismatchError(
                f"composite length {vec.size} not a multiple of state_dim {state_dim}"
            )
        return cls(vec.reshape(-1, state_dim))

    def __getitem__(self, i: int) -> np.ndarray:
        return self.states[i]


@dataclass(frozen=True, eq=False)
class GaussianEstimate:
    """A mean/covariance pair; the covariance must be symmetric PSD."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float).reshape(-1)
        cov = np.atleast_2d(np.asarray(self.covariance, dtype=float))
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)
        if cov.shape != (mean.size, mean.size):
            raise DimensionMismatchError(
                f"covariance shape {cov.shape} does not match mean length {mean.size}"
            )
        _check_finite(mean, "mean")
        _, scale = _as_spd_input(cov, "covariance")
        if scale > 0:
            # No eigenvalue below -tol * scale <=> cov + tol * scale * I is PSD,
            # which one Cholesky checks up to round-off; eigvalsh only reports.
            shifted = cov.copy()
            shifted.flat[:: mean.size + 1] += _PSD_RTOL * scale
            if not _positive_definite(shifted):
                min_eig = np.linalg.eigvalsh(cov)[0]
                raise ValidationError(f"covariance has eigenvalue {min_eig:.3e} below PSD tolerance")


@dataclass(frozen=True, eq=False)
class AssimilationProblem:
    """The full stochastic system: operators, covariances, observations.

    Per-step lists are indexed 0..horizon-1 for steps i = 1..horizon.
    Observation dimensions may vary across steps.  Every array is kept as
    a read-only float copy, and construction runs every structural check
    (so does ``dataclasses.replace``), keeping the lower Cholesky factors
    ``_factors = (l_b, l_q, l_r)`` of B, each Q_i and each R_i.

    Raises
    ------
    DimensionMismatchError
        Naming the offending field, when a length or shape is wrong.
    NotSPDError
        Naming the covariance, when a Cholesky factorization fails.
    ValidationError
        Naming the field, when an input array holds a non-finite number;
        and when a linearity flag is contradicted by the operator itself.
    """

    state_dim: int
    horizon: int
    background_mean: np.ndarray
    background_cov: np.ndarray
    model_ops: tuple[Operator, ...]
    forcings: tuple[np.ndarray, ...]
    model_noise_covs: tuple[np.ndarray, ...]
    obs_ops: tuple[Operator, ...]
    obs_noise_covs: tuple[np.ndarray, ...]
    observations: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "background_mean", _vec(self.background_mean))
        object.__setattr__(self, "background_cov", _mat(self.background_cov))
        object.__setattr__(self, "model_ops", tuple(self.model_ops))
        object.__setattr__(self, "forcings", tuple(_vec(v) for v in self.forcings))
        object.__setattr__(self, "model_noise_covs", tuple(_mat(a) for a in self.model_noise_covs))
        object.__setattr__(self, "obs_ops", tuple(self.obs_ops))
        object.__setattr__(self, "obs_noise_covs", tuple(_mat(a) for a in self.obs_noise_covs))
        object.__setattr__(self, "observations", tuple(_vec(v) for v in self.observations))
        object.__setattr__(self, "_factors", _validated_factors(self))

    def obs_dim(self, i: int) -> int:
        """Observation dimension d_i at step i (1-based)."""
        return self.observations[i - 1].size

    @property
    def all_linear(self) -> bool:
        return all(op.linear for op in self.model_ops) and all(
            op.linear for op in self.obs_ops
        )

    def prior_chain(self) -> Trajectory:
        """The trajectory obtained by propagating the background mean
        through the models with forcings but no noise."""
        states = [self.background_mean]
        for i in range(1, self.horizon + 1):
            states.append(self.model_ops[i - 1](states[-1]) + self.forcings[i - 1])
        return Trajectory(np.stack(states))


def _frozen(a) -> np.ndarray:
    """A read-only copy of the float array ``a``, in its memory order."""
    a = np.array(a)
    a.flags.writeable = False
    return a


def _vec(v) -> np.ndarray:
    return _frozen(np.asarray(v, dtype=float).reshape(-1))


def _mat(a) -> np.ndarray:
    return _frozen(np.atleast_2d(np.asarray(a, dtype=float)))


def _check_finite(a: np.ndarray, name: str) -> None:
    if not np.isfinite(a).all():
        raise ValidationError(f"{name} contains non-finite entries")


def _check_spd(a: np.ndarray, name: str) -> np.ndarray:
    """Read-only lower Cholesky factor of a shape-checked covariance, by the public SPD check."""
    _check_finite(a, name)
    a, _ = _as_spd_input(a, name)
    return _frozen(_factor(a, name))


@functools.lru_cache(maxsize=64)
def _linearity_probes(in_dim: int) -> tuple[tuple[np.ndarray, np.ndarray, float, float], ...]:
    """Three (u, v, alpha, beta) probes drawn in order from ``default_rng(0)``.

    Cached per dimension, since validation probes every linear operator at
    every step; the arrays are read-only because every caller shares them.
    """
    rng = np.random.default_rng(0)
    probes = []
    for _ in range(3):
        u = rng.standard_normal(in_dim)
        v = rng.standard_normal(in_dim)
        alpha, beta = rng.standard_normal(2)
        u.flags.writeable = v.flags.writeable = False
        probes.append((u, v, alpha, beta))
    return tuple(probes)


def _check_linear_flag(op: Operator, in_dim: int, name: str) -> None:
    # Deterministic probe vectors; tolerance per the linearity contract.
    # A non-finite image is refused right below, and a gap that overflows
    # between finite images fails the test, so numpy need not warn.
    for u, v, alpha, beta in _linearity_probes(in_dim):
        with np.errstate(over="ignore", invalid="ignore"):
            lhs = op(alpha * u + beta * v)
            rhs = alpha * op(u) + beta * op(v)
            gap = lhs - rhs
        if not (np.isfinite(lhs).all() and np.isfinite(rhs).all()):
            raise ValidationError(f"{name} maps a linearity probe vector to non-finite entries")
        if _frobenius_norm(gap) > _LINEARITY_RTOL * max(_frobenius_norm(rhs), 1.0):
            raise ValidationError(
                f"{name} is flagged linear but violates linearity on probe vectors"
            )


def validate_problem(problem: AssimilationProblem) -> AssimilationProblem:
    """Return ``problem``, which was checked when it was built; see
    :class:`AssimilationProblem` for what a check refuses."""
    return problem


def _validated_factors(problem: AssimilationProblem):
    """Every structural check of a problem being built; returns the lower
    Cholesky factors ``(l_b, l_q, l_r)`` of B, each Q_i and each R_i that
    they computed, read-only."""
    m, k = problem.state_dim, problem.horizon
    if m < 1:
        raise ValidationError(f"state_dim must be positive, got {m}")
    if k < 1:
        raise ValidationError(f"horizon must be positive, got {k}")
    if problem.background_mean.size != m:
        raise DimensionMismatchError(
            f"background_mean has length {problem.background_mean.size}, expected {m}"
        )
    if problem.background_cov.shape != (m, m):
        raise DimensionMismatchError(
            f"background_cov has shape {problem.background_cov.shape}, expected {(m, m)}"
        )
    _check_finite(problem.background_mean, "background_mean")
    l_b = _check_spd(problem.background_cov, "background_cov")
    l_q, l_r = [], []

    for name, seq in (
        ("model_ops", problem.model_ops),
        ("forcings", problem.forcings),
        ("model_noise_covs", problem.model_noise_covs),
        ("obs_ops", problem.obs_ops),
        ("obs_noise_covs", problem.obs_noise_covs),
        ("observations", problem.observations),
    ):
        if len(seq) != k:
            raise DimensionMismatchError(f"{name} has {len(seq)} entries, expected {k}")

    probe = np.zeros(m)
    for i in range(1, k + 1):
        if problem.forcings[i - 1].size != m:
            raise DimensionMismatchError(f"forcings[{i}] has length {problem.forcings[i - 1].size}, expected {m}")
        _check_finite(problem.forcings[i - 1], f"forcings[{i}]")
        if problem.model_noise_covs[i - 1].shape != (m, m):
            raise DimensionMismatchError(
                f"model_noise_covs[{i}] has shape {problem.model_noise_covs[i - 1].shape}, expected {(m, m)}"
            )
        l_q.append(_check_spd(problem.model_noise_covs[i - 1], f"model_noise_covs[{i}]"))

        out = problem.model_ops[i - 1](probe)
        if out.shape != (m,):
            raise DimensionMismatchError(
                f"model_ops[{i}] maps length-{m} input to shape {out.shape}, expected ({m},)"
            )
        if problem.model_ops[i - 1].linear:
            _check_linear_flag(problem.model_ops[i - 1], m, f"model_ops[{i}]")

        d = problem.observations[i - 1].size
        _check_finite(problem.observations[i - 1], f"observations[{i}]")
        h_out = problem.obs_ops[i - 1](probe)
        if h_out.shape != (d,):
            raise DimensionMismatchError(
                f"obs_ops[{i}] output has shape {h_out.shape} but observations[{i}] "
                f"has length {d}"
            )
        if problem.obs_noise_covs[i - 1].shape != (d, d):
            raise DimensionMismatchError(
                f"obs_noise_covs[{i}] has shape {problem.obs_noise_covs[i - 1].shape}, expected {(d, d)}"
            )
        l_r.append(_check_spd(problem.obs_noise_covs[i - 1], f"obs_noise_covs[{i}]"))
        if problem.obs_ops[i - 1].linear:
            _check_linear_flag(problem.obs_ops[i - 1], m, f"obs_ops[{i}]")

    return l_b, tuple(l_q), tuple(l_r)
