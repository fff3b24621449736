import re
from dataclasses import replace

import numpy as np
import pytest

from ensvar import (
    AssimilationProblem,
    DimensionMismatchError,
    GaussianEstimate,
    LMConfig,
    NotSPDError,
    Operator,
    Trajectory,
    ValidationError,
    kf_run,
    ks_run,
    make_toy_problem,
)
from ensvar.problem import _PSD_RTOL, _linearity_probes


def _w1_with(**overrides) -> AssimilationProblem:
    identity = Operator.from_matrix(np.eye(1))
    fields = dict(
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
    fields.update(overrides)
    return AssimilationProblem(**fields)


def test_w1_accepted():
    assert isinstance(_w1_with(), AssimilationProblem)


def test_zero_obs_cov_rejected():
    with pytest.raises(NotSPDError, match="obs_noise_covs"):
        _w1_with(obs_noise_covs=(np.zeros((1, 1)),))


def test_wrong_obs_length_rejected():
    with pytest.raises(DimensionMismatchError, match="obs"):
        _w1_with(observations=(np.array([3.0, 1.0]),))


def test_wrong_background_length_rejected():
    with pytest.raises(DimensionMismatchError, match="background_mean"):
        _w1_with(background_mean=np.zeros(2))


def test_asymmetric_cov_rejected():
    bad = np.array([[1.0, 0.5], [0.0, 1.0]])
    identity2 = Operator.from_matrix(np.eye(2))
    with pytest.raises(NotSPDError, match="background_cov"):
        AssimilationProblem(
            state_dim=2,
            horizon=1,
            background_mean=np.zeros(2),
            background_cov=bad,
            model_ops=(identity2,),
            forcings=(np.zeros(2),),
            model_noise_covs=(np.eye(2),),
            obs_ops=(identity2,),
            obs_noise_covs=(np.eye(2),),
            observations=(np.zeros(2),),
        )


def test_problem_arrays_are_read_only_copies():
    # A built problem stays valid: its arrays, its matrix operators' copies
    # and the factors its checks computed are read-only, while the
    # caller's arrays stay writable and unshared.
    cov, y, matrix = 4.0 * np.eye(1), np.array([3.0]), np.eye(1)
    problem = _w1_with(background_cov=cov, observations=(y,), model_ops=(Operator.from_matrix(matrix),))
    l_b, l_q, l_r = problem._factors
    arrays = [
        problem.background_mean,
        problem.background_cov,
        *problem.forcings,
        *problem.model_noise_covs,
        *problem.obs_noise_covs,
        *problem.observations,
        problem.model_ops[0].matrix,
        l_b,
        *l_q,
        *l_r,
    ]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
    assert cov.flags.writeable and y.flags.writeable and matrix.flags.writeable
    cov[0, 0], y[0], matrix[0, 0] = 9.0, 0.0, 5.0
    assert problem.background_cov[0, 0] == 4.0 and problem.observations[0][0] == 3.0
    assert problem.model_ops[0].matrix[0, 0] == 1.0
    np.testing.assert_array_equal(l_b, [[2.0]])


def test_operator_built_with_a_matrix_keeps_a_read_only_copy():
    # A write to the caller's array after construction reaches neither the
    # operator nor the problem checked with it.
    a, b = np.eye(1), np.eye(1)
    direct = Operator(apply=lambda x: np.array(x), linear=True, matrix=a)
    from_matrix = Operator.from_matrix(b)
    problem = _w1_with(model_ops=(direct,), obs_ops=(from_matrix,))
    a[0, 0] = b[0, 0] = np.nan
    for op in (direct, from_matrix):
        assert not op.matrix.flags.writeable
        np.testing.assert_array_equal(op.matrix, [[1.0]])
        np.testing.assert_array_equal(op.jacobian_at(np.zeros(1)), [[1.0]])
    np.testing.assert_array_equal(from_matrix(np.array([2.0])), [2.0])
    np.testing.assert_array_equal(ks_run(problem).estimate.mean, ks_run(_w1_with()).estimate.mean)
    with pytest.raises(ValidationError, match="apply or matrix"):
        Operator(linear=True)


def test_replace_runs_the_checks_again(w1):
    with pytest.raises(NotSPDError, match=r"^obs_noise_covs\[1\] is not positive definite"):
        replace(w1, obs_noise_covs=(np.zeros((1, 1)),))
    with pytest.raises(DimensionMismatchError, match=r"^background_mean has shape \(2,\), expected \(1,\)$"):
        replace(w1, background_mean=np.zeros(2))
    np.testing.assert_array_equal(replace(w1, background_cov=[[9.0]])._factors[0], [[3.0]])


def test_false_linear_flag_rejected():
    bogus = Operator(apply=lambda x: x**2, linear=True)
    _w1_with()  # the probes for in_dim 1 are now cached
    with pytest.raises(ValidationError, match="model_ops.*linear"):
        _w1_with(model_ops=(bogus,))
    with pytest.raises(ValidationError, match="obs_ops.*linear"):
        _w1_with(obs_ops=(bogus,))


def test_linear_flag_check_of_a_huge_finite_operator_does_not_overflow():
    # The probe images of 1e200 * I have norms near 1e200, whose unscaled
    # squares overflow; the suite turns an overflow warning into an error.
    huge = Operator.from_matrix(1e200 * np.eye(2))
    problem = make_toy_problem("linear-chain", m=2, k=1, seed=0)
    replace(problem, model_ops=(huge,), obs_ops=(huge,))
    bogus = Operator(apply=lambda x: 1e200 * x**2, linear=True)
    with pytest.raises(ValidationError, match="model_ops.*linear"):
        replace(problem, model_ops=(bogus,))


def test_linear_flag_check_refuses_an_operator_whose_probe_images_overflow():
    # 1e308 * I is finite, but its images of the probe vectors are not; the
    # suite turns an overflow warning into an error, so none may be raised.
    problem = make_toy_problem("linear-chain", m=2, k=3, seed=0)
    model_ops = (Operator.from_matrix(1e308 * np.eye(2)), *problem.model_ops[1:])
    with pytest.raises(ValidationError, match=r"^model_ops\[1\] maps a linearity probe vector to non-finite"):
        replace(problem, model_ops=model_ops)


@pytest.mark.parametrize("in_dim", [1, 3])
def test_linearity_probes_are_the_default_rng_0_sequence(in_dim):
    rng = np.random.default_rng(0)
    probes = _linearity_probes(in_dim)
    assert _linearity_probes(in_dim) is probes and len(probes) == 3
    for u, v, alpha, beta in probes:
        np.testing.assert_array_equal(u, rng.standard_normal(in_dim))
        np.testing.assert_array_equal(v, rng.standard_normal(in_dim))
        np.testing.assert_array_equal([alpha, beta], rng.standard_normal(2))
        assert not u.flags.writeable and not v.flags.writeable


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "field, name, value",
    [
        ("background_mean", "background_mean", lambda v: np.array([v])),
        ("background_cov", "background_cov", lambda v: np.array([[v]])),
        ("forcings", "forcings[1]", lambda v: (np.array([v]),)),
        ("model_noise_covs", "model_noise_covs[1]", lambda v: (np.array([[v]]),)),
        ("obs_noise_covs", "obs_noise_covs[1]", lambda v: (np.array([[v]]),)),
        ("observations", "observations[1]", lambda v: (np.array([v]),)),
    ],
)
def test_non_finite_data_rejected(field, name, value, bad):
    with pytest.raises(ValidationError, match=rf"^{re.escape(name)} contains non-finite"):
        _w1_with(**{field: value(bad)})


def test_operator_from_matrix_carries_jacobian():
    op = Operator.from_matrix([[2.0, 0.0], [0.0, 3.0]])
    assert op.linear
    np.testing.assert_array_equal(op(np.array([1.0, 1.0])), [2.0, 3.0])
    np.testing.assert_array_equal(op.jacobian_at(np.zeros(2)), [[2.0, 0.0], [0.0, 3.0]])


def test_linear_operator_matrix_materialized_from_basis():
    op = Operator(apply=lambda x: np.array([x[0] + x[1]]), linear=True)
    np.testing.assert_allclose(op.as_matrix(2), [[1.0, 1.0]])


def test_trajectory_rejects_nonfinite():
    with pytest.raises(ValidationError):
        Trajectory(np.array([[np.nan], [0.0]]))


def test_trajectory_composite_round_trip():
    traj = Trajectory(np.array([[1.0, 2.0], [3.0, 4.0]]))
    back = Trajectory.from_composite(traj.composite, 2)
    np.testing.assert_array_equal(back.states, traj.states)
    assert traj.horizon == 1 and traj.state_dim == 2


def _rotated(eigenvalues) -> np.ndarray:
    basis, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((len(eigenvalues),) * 2))
    cov = basis @ np.diag(eigenvalues) @ basis.T
    return 0.5 * (cov + cov.T)


def test_gaussian_estimate_psd_tolerance_boundary():
    # Eigenvalues 1, 1, 1 (scale ~ sqrt(3)) and one small eigenvalue placed
    # relative to the PSD tolerance -_PSD_RTOL * scale.
    tol = _PSD_RTOL * np.sqrt(3.0)
    GaussianEstimate(np.zeros(4), _rotated([1.0, 1.0, 1.0, 0.0]))
    GaussianEstimate(np.zeros(4), _rotated([1.0, 1.0, 1.0, -0.5 * tol]))
    with pytest.raises(ValidationError, match=r"eigenvalue -3\.46\de-10 below PSD tolerance"):
        GaussianEstimate(np.zeros(4), _rotated([1.0, 1.0, 1.0, -2.0 * tol]))


def test_gaussian_estimate_invariants():
    GaussianEstimate(np.zeros(2), np.eye(2))
    with pytest.raises(ValidationError):
        GaussianEstimate(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValidationError):
        GaussianEstimate(np.zeros(2), np.diag([1.0, -1.0]))
    with pytest.raises(DimensionMismatchError):
        GaussianEstimate(np.zeros(3), np.eye(2))


@pytest.mark.parametrize(
    "mean, cov, name",
    [
        (np.zeros(1), [[np.nan]], "covariance"),
        (np.zeros(2), [[1.0, 0.0], [0.0, np.inf]], "covariance"),
        (np.array([np.inf]), [[1.0]], "mean"),
        (np.array([0.0, np.nan]), np.eye(2), "mean"),
    ],
)
def test_gaussian_estimate_rejects_non_finite(mean, cov, name):
    with pytest.raises(ValidationError, match=rf"^{name} "):
        GaussianEstimate(mean, cov)


def test_gaussian_estimate_accepts_huge_finite_covariance():
    # The unscaled Frobenius norm of 1e200 * I overflows; the matrix is SPD.
    estimate = GaussianEstimate(np.zeros(2), 1e200 * np.eye(2))
    np.testing.assert_array_equal(estimate.covariance, 1e200 * np.eye(2))


def test_kf_run_overflow_raises_instead_of_returning_nan():
    # Finite inputs whose analysis overflows: x_1 is unobserved, so its
    # analysis is the forecast 10 * 1e308 = inf.  No numpy warning either.
    problem = _w1_with(
        background_mean=np.array([1e308]),
        model_ops=(Operator.from_matrix([[10.0]]),),
        obs_ops=(Operator.from_matrix([[0.0]]),),
    )
    with pytest.raises(ValidationError, match="^mean contains non-finite"):
        kf_run(problem)


def test_prior_chain(w2):
    chain = w2.prior_chain()
    np.testing.assert_array_equal(chain.states, [[0.0], [0.0]])


def test_per_step_obs_dims_allowed():
    # Observation dimension may vary across steps.
    identity2 = Operator.from_matrix(np.eye(2))
    narrow = Operator.from_matrix(np.array([[1.0, 0.0]]))
    problem = AssimilationProblem(
        state_dim=2,
        horizon=2,
        background_mean=np.zeros(2),
        background_cov=np.eye(2),
        model_ops=(identity2, identity2),
        forcings=(np.zeros(2), np.zeros(2)),
        model_noise_covs=(np.eye(2), np.eye(2)),
        obs_ops=(identity2, narrow),
        obs_noise_covs=(np.eye(2), np.eye(1)),
        observations=(np.zeros(2), np.zeros(1)),
    )
    assert problem.obs_dim(1) == 2 and problem.obs_dim(2) == 1


def test_apply_rows_default_is_the_row_loop():
    op = Operator(apply=lambda x: np.array([x[0] * x[1], np.sin(x[0])]))
    x = np.random.default_rng(0).standard_normal((5, 2))
    np.testing.assert_array_equal(op.apply_rows(x), np.stack([op(row) for row in x]))


def test_apply_rows_uses_registered_rows_callable():
    calls = []

    def rows(x):
        calls.append(x.shape)
        return 2.0 * x

    op = Operator(apply=lambda x: 2.0 * x, rows=rows)
    x = np.arange(6.0).reshape(3, 2)
    np.testing.assert_array_equal(op.apply_rows(x), np.stack([op(row) for row in x]))
    assert calls == [(3, 2)]


def test_apply_rows_from_matrix_matches_per_row_apply():
    rng = np.random.default_rng(1)
    op = Operator.from_matrix(rng.standard_normal((3, 4)))
    x = rng.standard_normal((50, 4))
    loop = np.stack([op(row) for row in x])
    batched = op.apply_rows(x)
    assert batched.shape == (50, 3)
    assert np.max(np.abs(batched - loop)) <= 1e-12 * np.max(np.abs(loop))


_IDENTITY = Operator.from_matrix(np.eye(1))
_TALL = Operator.from_matrix(np.ones((2, 1)))


@pytest.mark.parametrize(
    "overrides, error, message",
    [
        ({"state_dim": 0}, ValidationError, r"^state_dim must be >= 1, got 0$"),
        ({"horizon": 0}, ValidationError, r"^horizon must be >= 1, got 0$"),
        ({"background_cov": np.eye(2)}, DimensionMismatchError, r"^background_cov has shape \(2, 2\), expected \(1, 1\)$"),
        ({"model_ops": (_IDENTITY, _IDENTITY)}, DimensionMismatchError, r"^model_ops has 2 entries, expected 1$"),
        ({"forcings": (np.zeros(2),)}, DimensionMismatchError, r"^forcings\[1\] has shape \(2,\), expected \(1,\)$"),
        (
            {"model_noise_covs": (np.eye(2),)},
            DimensionMismatchError,
            r"^model_noise_covs\[1\] has shape \(2, 2\), expected \(1, 1\)$",
        ),
        (
            {"model_ops": (_TALL,)},
            DimensionMismatchError,
            r"^model_ops\[1\] output has shape \(2,\), expected \(1,\)$",
        ),
        (
            {"obs_ops": (_TALL,)},
            DimensionMismatchError,
            r"^obs_ops\[1\] output has shape \(2,\), expected \(1,\)$",
        ),
        (
            {"obs_noise_covs": (np.eye(2),)},
            DimensionMismatchError,
            r"^obs_noise_covs\[1\] has shape \(2, 2\), expected \(1, 1\)$",
        ),
    ],
)
def test_dimension_refusals(overrides, error, message):
    # Each structural refusal of a problem being built, by its exception type and message.
    with pytest.raises(error, match=message):
        _w1_with(**overrides)


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"state_dim": "1"}, r"^state_dim must be an integer, got '1'$"),
        ({"state_dim": True}, r"^state_dim must be an integer, got True$"),
        ({"state_dim": None}, r"^state_dim must be an integer, got None$"),
        ({"state_dim": 1.5}, r"^state_dim must be an integer, got 1\.5$"),
        ({"horizon": "1"}, r"^horizon must be an integer, got '1'$"),
        ({"horizon": np.True_}, r"^horizon must be an integer, got (np\.)?True_?$"),
        ({"background_mean": [True]}, r"^background_mean must hold real numbers, got True$"),
        ({"background_cov": [["1.0"]]}, r"^background_cov must hold real numbers, got '1\.0'$"),
        ({"background_cov": np.array([[1, True]], dtype=object)}, r"^background_cov must hold real numbers, got True$"),
        ({"forcings": ([None],)}, r"^forcings\[1\] must hold real numbers, got None$"),
        ({"model_noise_covs": (np.eye(1, dtype=bool),)}, r"^model_noise_covs\[1\] must hold real numbers, got True$"),
        ({"obs_noise_covs": 1.0}, r"^obs_noise_covs must be a sequence, got 1\.0$"),
        ({"observations": (["3.0"],)}, r"^observations\[1\] must hold real numbers, got '3\.0'$"),
        ({"model_ops": ([[1.0]],)}, r"^model_ops\[1\] must be an Operator, got \[\[1\.0\]\]$"),
        ({"obs_ops": None}, r"^obs_ops must be a sequence, got None$"),
    ],
)
def test_fields_are_read_by_type(overrides, message):
    # A boolean, a string or None is not a number, alone or inside an array:
    # numpy would read [True] as [1.0] and ["3.0"] as [3.0].
    with pytest.raises(ValidationError, match=message):
        _w1_with(**overrides)


def test_integral_float_dimensions_are_read_as_ints():
    problem = _w1_with(state_dim=1.0, horizon=np.int64(1))
    assert type(problem.state_dim) is int and type(problem.horizon) is int


@pytest.mark.parametrize(
    "vec, state_dim, error, message",
    [
        ([1.0, 2.0], 0, ValidationError, r"^state_dim must be >= 1, got 0$"),
        ([1.0, 2.0], -2, ValidationError, r"^state_dim must be >= 1, got -2$"),
        ([1.0, 2.0], "2", ValidationError, r"^state_dim must be an integer, got '2'$"),
        ([1.0, 2.0], True, ValidationError, r"^state_dim must be an integer, got True$"),
        ([1.0, 2.0, 3.0], 2, DimensionMismatchError, r"^composite length 3 not a positive multiple of state_dim 2$"),
        ([], 10**30, DimensionMismatchError, r"^composite length 0 not a positive multiple"),
        ([1.0, True], 1, ValidationError, r"^composite must hold real numbers, got True$"),
    ],
)
def test_from_composite_refusals(vec, state_dim, error, message):
    with pytest.raises(error, match=message):
        Trajectory.from_composite(vec, state_dim)


def test_from_composite_reads_an_integral_float_state_dim():
    assert Trajectory.from_composite([1.0, 2.0, 3.0, 4.0], 2.0).states.shape == (2, 2)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Trajectory([[0.0], [True]]), r"^trajectory states must hold real numbers, got True$"),
        (lambda: Trajectory([[0.0], [0.0, 1.0]]), r"^trajectory states: "),
        (lambda: Trajectory({"a": 1.0}), r"^trajectory states must hold real numbers, got \{'a': 1\.0\}$"),
        (lambda: GaussianEstimate([False], [[1.0]]), r"^mean must hold real numbers, got False$"),
        (lambda: GaussianEstimate([0.0], [["1"]]), r"^covariance must hold real numbers, got '1'$"),
        (lambda: GaussianEstimate([10**400], [[1.0]]), r"^mean: int too large to convert to float$"),
        (lambda: Operator.from_matrix([[1.0, "2"]]), r"^operator matrix must hold real numbers, got '2'$"),
        (lambda: Operator.from_matrix(np.array([[1 + 0j]])), r"^operator matrix must hold real numbers, got \(1\+0j\)$"),
    ],
)
def test_arrays_of_the_other_types_are_read_by_type(build, message):
    with pytest.raises(ValidationError, match=message):
        build()


def test_numeric_arrays_read_as_before():
    # Lists of ints and floats, numpy scalars and int arrays read as
    # np.asarray(..., dtype=float) reads them.
    problem = _w1_with(background_mean=[np.int32(2)], background_cov=[[np.float32(0.5)]], forcings=(np.arange(1),))
    assert problem.background_mean.tolist() == [2.0] and problem.background_cov.tolist() == [[0.5]]
    assert problem.forcings[0].dtype == float
    assert Trajectory([[1, 2], [3, 4]]).states.dtype == float


def test_an_operator_whose_apply_disagrees_with_its_matrix_is_refused():
    # Built, ks_run smoothed with the matrix I while objective and the LM
    # forecast applied 2x.
    doubling = Operator(apply=lambda x: 2 * x, linear=True, matrix=np.eye(1))
    for field in ("model_ops", "obs_ops"):
        with pytest.raises(ValidationError, match=rf"^{field}\[1\] apply disagrees with its matrix on probe vectors$"):
            _w1_with(**{field: (doubling,)})
    # A matrix of another shape than the operator's map is refused by name, not by numpy.
    with pytest.raises(DimensionMismatchError, match=r"^model_ops\[1\] matrix has shape \(1, 2\), expected \(1, 1\)$"):
        _w1_with(model_ops=(Operator(apply=lambda x: x, matrix=np.ones((1, 2))),))
    # A matrix that agrees makes the operator linear: it needs no second probe.
    _w1_with(model_ops=(Operator(apply=lambda x: np.array(x), matrix=np.eye(1)),))


@pytest.mark.parametrize("field", ["model_ops", "obs_ops"])
def test_a_matrix_with_another_column_count_is_refused_by_its_shape(field):
    # Applied first, it ended in numpy's raw matmul ValueError.
    with pytest.raises(DimensionMismatchError, match=rf"^{field}\[1\] matrix has shape \(1, 2\), expected \(1, 1\)$"):
        _w1_with(**{field: (Operator.from_matrix(np.ones((1, 2))),)})


def test_an_operator_whose_rows_disagree_with_its_apply_is_refused():
    # Built, the finite-difference LM pass read rows (3x) and every other caller apply (2x).
    tripling_rows = Operator(apply=lambda x: 2 * x, rows=lambda x: 3 * x)
    with pytest.raises(ValidationError, match=r"^model_ops\[1\] rows disagrees with apply on probe vectors$"):
        _w1_with(model_ops=(tripling_rows,))
    # Bit for bit: a last-bit difference is a disagreement too.
    nudged = Operator(apply=lambda x: 2 * x, rows=lambda x: np.nextafter(2 * x, np.inf))
    with pytest.raises(ValidationError, match=r"^obs_ops\[1\] rows disagrees with apply on probe vectors$"):
        _w1_with(obs_ops=(nudged,))
    _w1_with(model_ops=(Operator(apply=lambda x: 2 * x, rows=lambda x: 2 * x),))


def test_each_operator_is_probed_once_per_problem():
    calls = []
    shared = Operator(apply=lambda x: calls.append(x.shape) or 2 * x, rows=lambda x: 2 * x)
    problem = make_toy_problem("linear-chain", m=2, k=4, seed=0)
    replace(problem, model_ops=(shared,) * 4)
    # The output check at each of the four steps, and the three probe points once.
    assert len(calls) == 4 + 3


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Trajectory(np.zeros((2, 2, 2))), r"^trajectory states must be finite, non-empty and at most 2-d, got "),
        (lambda: Trajectory([]), r"^trajectory states must be finite, non-empty and at most 2-d, got array\(\[\], shape=\(1, 0\)"),
        (lambda: Trajectory([[0.0], [np.inf]]), r"^trajectory states must be finite, non-empty and at most 2-d, got "),
        (lambda: LMConfig(gamma=1.0, initial_trajectory=[[[0.0]]]),
         r"^initial_trajectory must be finite, non-empty and at most 2-d, got array\(\[\[\[0\.\]\]\]\)$"),
    ],
)
def test_trajectory_states_are_read_by_one_rule(build, message):
    # Built, the first, second and last would have a horizon and state_dim
    # that their data does not have.
    with pytest.raises(ValidationError, match=message):
        build()
