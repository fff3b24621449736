"""Definition and validation of the assimilation problem.

The hidden-state system is

    X_0 ~ N(background_mean, background_cov)
    X_i = model_i(X_{i-1}) + forcing_i + V_i,   V_i ~ N(0, model_noise_cov_i)
    y_i = obs_i(X_i) + W_i,                     W_i ~ N(0, obs_noise_cov_i)

for time steps i = 1..horizon.  Operators may be nonlinear; linear ones
are flagged.  When a problem is built, each operator is probed against
its own claims on fixed probe vectors: a ``matrix`` must agree with
``apply`` (which makes the operator linear), a linear flag without one
must hold, and ``rows`` must agree with ``apply`` bit for bit.  So every
algorithm applies the one map, whichever of the three it reads.

A problem is validated once, when it is built, and keeps the Cholesky
factors its checks computed; its arrays are read-only copies, so it stays
valid for as long as it lives and every algorithm reads its factors.
Every type here reads its counts, arrays and trajectory states through
``streams``' ``_count``, ``_reals`` and ``_states``: a boolean or a
string is not a number, and a trajectory is finite, non-empty and at most
2-d.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatchError,
    MissingJacobianError,
    NonlinearOperatorError,
    ValidationError,
)
from .numerics import _as_spd_input, _factor, _frobenius_norm, _positive_definite
from .streams import _count, _each, _read_fields, _reals, _rule, _states

__all__ = [
    "Operator",
    "AssimilationProblem",
    "Trajectory",
    "GaussianEstimate",
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
    ``apply``, they apply that copy.  A linear operator's Jacobian is its
    matrix, built once by :meth:`as_matrix` if none was given.  Algorithms that
    require linearity or a Jacobian fail fast instead of silently
    substituting an approximation.  ``rows``, if registered, is ``apply``
    vectorized over the rows of an (N, in_dim) array; it must agree with
    ``apply`` row by row, bit for bit.  A problem built with the operator checks both
    claims on probe vectors, and that ``apply`` agrees with ``matrix``.
    """

    apply: Callable[[np.ndarray], np.ndarray] | None = None
    jacobian: Callable[[np.ndarray], np.ndarray] | None = None
    linear: bool = False
    matrix: np.ndarray | None = None
    rows: Callable[[np.ndarray], np.ndarray] | None = None
    _built: dict = field(default_factory=dict, init=False, repr=False)  # in_dim -> as_matrix

    def __post_init__(self) -> None:
        # A copy, so that writing to the caller's array cannot make a built
        # problem's checks stale.
        if self.matrix is not None:
            object.__setattr__(self, "matrix", _mat("operator matrix", self.matrix))
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
        """Exact Jacobian at ``x``: a linear operator's matrix, or the
        registered ``jacobian``; raises if there is neither."""
        if self.matrix is not None:
            return self.matrix
        if self.linear:
            return self.as_matrix(np.size(x))
        if self.jacobian is None:
            raise MissingJacobianError(
                "operator has no registered Jacobian; register one or use a "
                "finite-difference algorithm variant"
            )
        return np.atleast_2d(np.asarray(self.jacobian(np.asarray(x, dtype=float)), dtype=float))

    def as_matrix(self, in_dim: int) -> np.ndarray:
        """Materialize a linear operator's matrix, read-only, by applying it to
        a basis once per ``in_dim``."""
        if not self.linear:
            raise NonlinearOperatorError("operator is not flagged linear")
        if self.matrix is not None:
            return self.matrix
        if in_dim not in self._built:
            self._built[in_dim] = _frozen(np.stack([self(e) for e in np.eye(in_dim)], axis=1))
        return self._built[in_dim]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A composite state: the stacked states x_0..x_k, one row per time,
    read by ``streams._states``: real numbers, finite, non-empty and at
    most 2-d (a 1-d array is one state)."""

    states: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "states", _states("trajectory states", self.states))

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
        vec, state_dim = _reals("composite", vec), _count("state_dim", state_dim)
        if vec.size % state_dim != 0 or vec.size == 0:
            raise DimensionMismatchError(f"composite length {vec.size} not a positive multiple of state_dim {state_dim}")
        return cls(vec.reshape(-1, state_dim))

    def __getitem__(self, i: int) -> np.ndarray:
        return self.states[i]


@dataclass(frozen=True, eq=False)
class GaussianEstimate:
    """A mean/covariance pair; the covariance must be symmetric PSD.

    Every estimate checks its shapes and that it is finite.  Built by a
    caller, it also runs the full check: a covariance symmetric within
    round-off and with no eigenvalue below ``-_PSD_RTOL`` times its
    Frobenius norm, by one dense Cholesky.  ``kf_run`` and ``ks_run``
    build theirs by :func:`_certified_estimate`, which asks for bit-for-bit
    symmetry instead and makes no BLAS or LAPACK call: each covariance is
    the inverse, or a diagonal block of the inverse, of a block-tridiagonal
    precision matrix whose Schur complements all took a ``dpotrf`` factor
    with positive pivots.  That block LDL^T proves the precision matrix
    SPD, so its inverse and every principal block of it are SPD too.
    """

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self) -> None:
        _, scale = _as_spd_input(self._read(self.mean, self.covariance), "covariance")
        if scale > 0:
            # No eigenvalue below -tol * scale <=> cov + tol * scale * I is PSD,
            # which one Cholesky checks up to round-off; eigvalsh only reports.
            shifted = self.covariance.copy()
            shifted.flat[:: self.mean.size + 1] += _PSD_RTOL * scale
            if not _positive_definite(shifted):
                min_eig = np.linalg.eigvalsh(self.covariance)[0]
                raise ValidationError(f"covariance has eigenvalue {min_eig:.3e} below PSD tolerance")

    def _read(self, mean, covariance) -> np.ndarray:
        """Set the fields to ``mean`` and ``covariance`` read as float arrays,
        with the checks every estimate runs (shapes, a finite mean); returns
        the covariance."""
        mean = _reals("mean", mean).reshape(-1)
        cov = np.atleast_2d(_reals("covariance", covariance))
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)
        if cov.shape != (mean.size, mean.size):
            raise DimensionMismatchError(
                f"covariance shape {cov.shape} does not match mean length {mean.size}"
            )
        _check_finite(mean, "mean")
        return cov


def _certified_estimate(mean: np.ndarray, covariance: np.ndarray) -> GaussianEstimate:
    """An estimate whose covariance the package built from SPD factors it
    checked (see :class:`GaussianEstimate`): the shape checks, then finite
    and bit-for-bit symmetric entries.  They run on blocks of 128 rows, so
    no temporary grows with the whole matrix, and by no BLAS call: one
    would wake OpenBLAS's pool, whose worker then spins through the writer."""
    estimate = object.__new__(GaussianEstimate)
    bits = estimate._read(mean, covariance).view(np.uint64)
    for lo in range(0, len(bits), 128):  # each block of rows against its mirrored columns
        if not (bits[lo : lo + 128, lo:] == bits[lo:, lo : lo + 128].T).all():
            raise ValidationError("covariance is not symmetric bit for bit")
        _check_finite(estimate.covariance[lo : lo + 128, lo:], "covariance")  # so its mirror is too
    return estimate


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
        Naming the field, when it is not of its type (``state_dim`` and
        ``horizon`` counts, arrays of real numbers, sequences of
        ``Operator``), when an input array holds a non-finite number,
        and when an operator's matrix, rows or linearity flag is
        contradicted by its own ``apply``.
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
        _read_fields(self, _FIELD_READERS)
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


def _vec(name: str, v) -> np.ndarray:
    return _frozen(_reals(name, v).reshape(-1))


def _mat(name: str, a) -> np.ndarray:
    return _frozen(np.atleast_2d(_reals(name, a)))


_operator = _rule(None, "an Operator", lambda op: isinstance(op, Operator))

# AssimilationProblem's fields, each with the reader that checks its type.
_FIELD_READERS = {"state_dim": _count, "horizon": _count, "background_mean": _vec, "background_cov": _mat,
                  "model_ops": _each(_operator), "forcings": _each(_vec), "model_noise_covs": _each(_mat),
                  "obs_ops": _each(_operator), "obs_noise_covs": _each(_mat), "observations": _each(_vec)}


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

    Cached per dimension, since validation probes every operator with a
    matrix, rows or linear flag; the arrays are read-only because every
    caller shares them.
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


def _check_operator(op: Operator, in_dim: int, out_dim: int, name: str, probed: set) -> None:
    """Probe an operator, unless it is in ``probed``, against its own claims.

    On the linearity probes, a ``matrix`` must agree with ``apply`` within
    ``_LINEARITY_RTOL``, which makes the operator linear; one flagged linear
    without a matrix must map each probe combination linearly; and ``rows``
    must agree with ``apply`` bit for bit.  A non-finite image is refused,
    and a gap that overflows between finite images fails its test, so numpy
    need not warn.
    """
    if id(op) in probed:
        return
    probed.add(id(op))
    probes = _linearity_probes(in_dim)
    with np.errstate(over="ignore", invalid="ignore"):
        claim, images = "is flagged linear but violates linearity", []
        if op.matrix is not None:
            _expect_shape(f"{name} matrix", op.matrix.shape, (out_dim, in_dim))
            claim, images = "apply disagrees with its matrix", [(op(u), op.matrix @ u) for u, *_ in probes]
        elif op.linear:
            images = [(op(alpha * u + beta * v), alpha * op(u) + beta * op(v)) for u, v, alpha, beta in probes]
        gaps = [lhs - rhs for lhs, rhs in images]
    for (lhs, rhs), gap in zip(images, gaps):
        if not (np.isfinite(lhs).all() and np.isfinite(rhs).all()):
            raise ValidationError(f"{name} maps a linearity probe vector to non-finite entries")
        if _frobenius_norm(gap) > _LINEARITY_RTOL * max(_frobenius_norm(rhs), 1.0):
            raise ValidationError(f"{name} {claim} on probe vectors")
    if op.rows is not None:
        points = np.stack([u for u, *_ in probes])
        rows, each = np.asarray(op.rows(points), dtype=float), np.stack([op(u) for u in points])
        if not np.array_equal(rows.view(np.uint64), each.view(np.uint64)):
            raise ValidationError(f"{name} rows disagrees with apply on probe vectors")


def _expect_output(op: Operator, in_dim: int, out_dim: int, name: str) -> None:
    """An operator maps a state to ``out_dim`` numbers; a matrix whose
    column count is not ``in_dim`` is refused by its shape before it is
    applied."""
    if op.matrix is not None and op.matrix.shape[1] != in_dim:
        _expect_shape(f"{name} matrix", op.matrix.shape, (out_dim, in_dim))
    _expect_shape(f"{name} output", op(np.zeros(in_dim)).shape, (out_dim,))


def _expect_shape(name: str, shape: tuple, expected: tuple) -> None:
    if shape != expected:
        raise DimensionMismatchError(f"{name} has shape {shape}, expected {expected}")


def _validated_factors(problem: AssimilationProblem):
    """Every structural check of a problem being built; returns the lower
    Cholesky factors ``(l_b, l_q, l_r)`` of B, each Q_i and each R_i that
    they computed, read-only."""
    m, k = problem.state_dim, problem.horizon
    _expect_shape("background_mean", problem.background_mean.shape, (m,))
    _expect_shape("background_cov", problem.background_cov.shape, (m, m))
    _check_finite(problem.background_mean, "background_mean")
    l_b = _check_spd(problem.background_cov, "background_cov")
    l_q, l_r = [], []

    for name in ("model_ops", "forcings", "model_noise_covs", "obs_ops", "obs_noise_covs", "observations"):
        if (entries := len(getattr(problem, name))) != k:
            raise DimensionMismatchError(f"{name} has {entries} entries, expected {k}")

    probed = set()
    for i in range(1, k + 1):
        model_op, obs_op, d = problem.model_ops[i - 1], problem.obs_ops[i - 1], problem.observations[i - 1].size
        _expect_shape(f"forcings[{i}]", problem.forcings[i - 1].shape, (m,))
        _check_finite(problem.forcings[i - 1], f"forcings[{i}]")
        _expect_shape(f"model_noise_covs[{i}]", problem.model_noise_covs[i - 1].shape, (m, m))
        l_q.append(_check_spd(problem.model_noise_covs[i - 1], f"model_noise_covs[{i}]"))
        _expect_output(model_op, m, m, f"model_ops[{i}]")
        _check_operator(model_op, m, m, f"model_ops[{i}]", probed)
        _check_finite(problem.observations[i - 1], f"observations[{i}]")
        _expect_output(obs_op, m, d, f"obs_ops[{i}]")
        _expect_shape(f"obs_noise_covs[{i}]", problem.obs_noise_covs[i - 1].shape, (d, d))
        l_r.append(_check_spd(problem.obs_noise_covs[i - 1], f"obs_noise_covs[{i}]"))
        _check_operator(obs_op, m, d, f"obs_ops[{i}]", probed)

    return l_b, tuple(l_q), tuple(l_r)
