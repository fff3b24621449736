import time

import numpy as np
import pytest

from ensvar import ValidationError, make_toy_problem


def test_w1_fixture_values():
    p = make_toy_problem("w1-linear")
    assert p.state_dim == 1 and p.horizon == 1
    np.testing.assert_array_equal(p.background_mean, [0.0])
    np.testing.assert_array_equal(p.background_cov, [[1.0]])
    np.testing.assert_array_equal(p.model_ops[0].matrix, [[1.0]])
    np.testing.assert_array_equal(p.observations[0], [3.0])
    assert p.all_linear


def test_w2_jacobian_value():
    p = make_toy_problem("w2-quadratic")
    # d/dx (x + 0.1 x^2) = 1 + 0.2 x = 1.2 at x = 1.
    np.testing.assert_allclose(p.model_ops[0].jacobian_at(np.array([1.0])), [[1.2]])
    assert not p.model_ops[0].linear
    assert p.obs_ops[0].linear


def test_linear_chain_deterministic():
    a = make_toy_problem("linear-chain", m=2, k=3, seed=7)
    b = make_toy_problem("linear-chain", m=2, k=3, seed=7)
    np.testing.assert_array_equal(a.background_mean, b.background_mean)
    for i in range(3):
        np.testing.assert_array_equal(a.model_ops[i].matrix, b.model_ops[i].matrix)
        np.testing.assert_array_equal(a.observations[i], b.observations[i])


def test_linear_chain_stable_and_valid():
    p = make_toy_problem("linear-chain", m=3, k=4, seed=1)
    for op in p.model_ops:
        assert np.max(np.abs(np.linalg.eigvals(op.matrix))) <= 0.95


def test_lorenz63_shape_and_no_jacobian():
    p = make_toy_problem("lorenz63", k=3, dt=0.05)
    assert p.state_dim == 3 and p.horizon == 3
    assert not p.model_ops[0].linear
    assert p.model_ops[0].jacobian is None
    # The RK4 map moves points along the attractor.
    x = np.array([1.0, 1.0, 25.0])
    assert np.linalg.norm(p.model_ops[0](x) - x) > 0


def test_unknown_name_rejected():
    with pytest.raises(ValidationError, match="unknown toy problem"):
        make_toy_problem("lorenz96")


@pytest.mark.parametrize(
    "name, params",
    [("w2-quadratic", {}), ("lorenz63", {"k": 2}), ("lorenz63", {"k": 2, "dt": 0.5})],
)
def test_batched_model_rows_bit_equal_to_row_loop(name, params):
    p = make_toy_problem(name, **params)
    op = p.model_ops[0]
    assert op.rows is not None
    x = p.background_mean + np.random.default_rng(3).standard_normal((64, p.state_dim))
    np.testing.assert_array_equal(op.apply_rows(x), np.stack([op(row) for row in x]))


@pytest.mark.parametrize(
    "name, params, message",
    [
        ("linear-chain", {"m": True, "k": 1, "seed": 0}, r"^toy 'linear-chain' parameter m must be an integer, got True$"),
        ("linear-chain", {"m": "2", "k": 1, "seed": 0}, r"^toy 'linear-chain' parameter m must be an integer, got '2'$"),
        ("linear-chain", {"m": 2, "k": 1.5, "seed": 0}, r"^toy 'linear-chain' parameter k must be an integer, got 1\.5$"),
        ("linear-chain", {"m": 2, "k": 1, "seed": None}, r"^toy 'linear-chain' parameter seed must be an integer, got None$"),
        ("linear-chain", {"m": 2, "k": 1}, r"^toy 'linear-chain': missing a required argument: 'seed'$"),
        ("w1-linear", {"m": 2}, r"^toy 'w1-linear': got an unexpected keyword argument 'm'$"),
        ("lorenz63", {"k": 2, "dt": "0.1"}, r"^toy 'lorenz63' parameter dt must be a real number, got '0\.1'$"),
        ("lorenz63", {"k": 2, "dt": np.False_}, r"^toy 'lorenz63' parameter dt must be a real number, got "),
        ("lorenz63", {"k": 2, "dt": float("inf")}, r"^toy 'lorenz63' parameter dt must be finite and > 0, got inf$"),
        ("lorenz63", {"k": 2, "dt": float("nan")}, r"^toy 'lorenz63' parameter dt must be finite and > 0, got nan$"),
    ],
)
def test_parameters_are_read_by_their_annotation(name, params, message):
    # Python callers get the refusals a YAML config gets; numpy would have
    # read m=True as a 1 and ended a string in a TypeError.  Each parameter
    # is read by its name's reader in toys._PARAMETERS, type and range.
    with pytest.raises(ValidationError, match=message):
        make_toy_problem(name, **params)


def test_integral_float_parameters_build_the_same_problem():
    a = make_toy_problem("linear-chain", m=2.0, k=np.int64(3), seed=7.0)
    b = make_toy_problem("linear-chain", m=2, k=3, seed=7)
    assert a.state_dim == 2 and type(a.state_dim) is int
    np.testing.assert_array_equal(a.background_cov, b.background_cov)
    c = make_toy_problem("lorenz63", k=2, dt=1)
    np.testing.assert_array_equal(c.observations[1], make_toy_problem("lorenz63", k=2, dt=1.0).observations[1])


@pytest.mark.parametrize(
    "name, params, message",
    [
        ("linear-chain", {"m": 10**30, "k": 1, "seed": 0}, r"^linear-chain needs m\*\(k\+1\) <= 32768, got m=10{30}, k=1$"),
        ("linear-chain", {"m": 1, "k": 10**30, "seed": 0}, r"^linear-chain needs m\*\(k\+1\) <= 32768, got m=1, k=10{30}$"),
        ("linear-chain", {"m": 2, "k": 16384, "seed": 0}, r"^linear-chain needs m\*\(k\+1\) <= 32768, got m=2, k=16384$"),
        ("lorenz63", {"k": 10922}, r"^lorenz63 needs m\*\(k\+1\) <= 32768, got m=3, k=10922$"),
    ],
)
def test_sizes_past_the_composite_bound_are_refused_before_allocation(name, params, message):
    # numpy ended m=10**30 in "Maximum allowed dimension exceeded", and a
    # loop over k=10**30 steps never returned; just past the bound is refused too.
    with pytest.raises(ValidationError, match=message):
        make_toy_problem(name, **params)


@pytest.mark.parametrize("dt", [1e300, 1e6, 10.02])
def test_a_step_past_the_substep_bound_is_refused_before_any_step(dt):
    # dt=1e300 took 1e302 RK4 substeps a step and never returned.
    start = time.perf_counter()
    with pytest.raises(ValidationError, match=r"^lorenz63 needs ceil\(dt / 0\.01\) <= 1000 RK4 substeps a step, got dt="):
        make_toy_problem("lorenz63", k=1, dt=dt)
    assert time.perf_counter() - start < 1.0
    assert make_toy_problem("lorenz63", k=1, dt=10.0).horizon == 1  # 1,000 substeps: at the bound
