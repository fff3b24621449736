from dataclasses import replace

import numpy as np
import pytest

from ensvar import AssimilationProblem, Operator, PerturbationStream, make_toy_problem


@pytest.fixture
def w1():
    return make_toy_problem("w1-linear")


@pytest.fixture
def w2():
    return make_toy_problem("w2-quadratic")


@pytest.fixture
def draw_log(monkeypatch):
    """Every ``PerturbationStream.draw_members`` call of the test, in order,
    as ``(seed, phase, iteration, time_index, kind, members, dim)``."""
    log = []
    original = PerturbationStream.draw_members

    def logged(self, phase, iteration, time_index, kind, members, dim):
        log.append((self.seed, phase, iteration, time_index, kind, tuple(np.asarray(members).tolist()), dim))
        return original(self, phase, iteration, time_index, kind, members, dim)

    monkeypatch.setattr(PerturbationStream, "draw_members", logged)
    return log


def truncated(problem: AssimilationProblem, i: int) -> AssimilationProblem:
    """``problem`` cut to horizon i: its first i steps, unchanged.

    The Kalman recursions are causal, so their step-i estimate is the
    final estimate of the truncated problem.
    """
    per_step = ("model_ops", "forcings", "model_noise_covs", "obs_ops", "obs_noise_covs", "observations")
    return replace(problem, horizon=i, **{name: getattr(problem, name)[:i] for name in per_step})


def random_nonlinear_problem(m: int, k: int, seed: int) -> AssimilationProblem:
    """Random problem with mildly quadratic operators and exact Jacobians."""
    rng = np.random.default_rng(seed)

    def spd(dim):
        g = rng.standard_normal((dim, dim))
        return g @ g.T / dim + 0.5 * np.eye(dim)

    def quad_op(a, eps):
        return Operator(
            apply=lambda x, _a=a, _e=eps: _a @ x + _e * x**2,
            jacobian=lambda x, _a=a, _e=eps: _a + 2.0 * _e * np.diag(np.asarray(x, dtype=float)),
            linear=False,
        )

    model_ops, obs_ops = [], []
    for _ in range(k):
        a = rng.standard_normal((m, m))
        a *= 0.8 / max(np.max(np.abs(np.linalg.eigvals(a))), 1e-12)
        model_ops.append(quad_op(a, 0.05))
        obs_ops.append(quad_op(rng.standard_normal((m, m)), 0.05))

    return AssimilationProblem(
        state_dim=m,
        horizon=k,
        background_mean=0.3 * rng.standard_normal(m),
        background_cov=spd(m),
        model_ops=tuple(model_ops),
        forcings=tuple(0.1 * rng.standard_normal(m) for _ in range(k)),
        model_noise_covs=tuple(spd(m) for _ in range(k)),
        obs_ops=tuple(obs_ops),
        obs_noise_covs=tuple(spd(m) for _ in range(k)),
        observations=tuple(rng.standard_normal(m) for _ in range(k)),
    )
