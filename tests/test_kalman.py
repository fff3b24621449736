"""Filter/smoother recursions against hand values and the block oracle.

W1 ground truth, derived by hand from the recursion and the normal
equations: filtering (mean 2, variance 2/3); smoothing mean (1, 2) with
covariance [[2/3, 1/3], [1/3, 2/3]].
"""

from pathlib import Path

import numpy as np
import pytest

from ensvar import (
    NonlinearOperatorError,
    Operator,
    ValidationError,
    kf_run,
    ks_least_squares_oracle,
    ks_run,
    make_toy_problem,
    spd_solve,
)
from ensvar import kalman
from ensvar.problem import AssimilationProblem
from conftest import truncated

DATA = Path(__file__).parent / "data"


def _w1_variant(**overrides) -> AssimilationProblem:
    base = make_toy_problem("w1-linear")
    fields = {
        "state_dim": base.state_dim,
        "horizon": base.horizon,
        "background_mean": base.background_mean,
        "background_cov": base.background_cov,
        "model_ops": base.model_ops,
        "forcings": base.forcings,
        "model_noise_covs": base.model_noise_covs,
        "obs_ops": base.obs_ops,
        "obs_noise_covs": base.obs_noise_covs,
        "observations": base.observations,
    }
    fields.update(overrides)
    return AssimilationProblem(**fields)


class TestFilter:
    def test_w1_ground_truth(self, w1):
        result = kf_run(w1)
        final = result.estimates[-1]
        assert final.mean[0] == pytest.approx(2.0, abs=1e-10)
        assert final.covariance[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-10)

    def test_zero_observation_operator(self):
        # Zero gain: posterior equals the forecast N(0, 2).
        problem = _w1_variant(obs_ops=(Operator.from_matrix([[0.0]]),))
        result = kf_run(problem)
        final = result.estimates[-1]
        assert final.mean[0] == pytest.approx(0.0, abs=1e-12)
        assert final.covariance[0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_zero_observation_value(self):
        problem = _w1_variant(observations=(np.array([0.0]),))
        final = kf_run(problem).estimates[-1]
        assert final.mean[0] == pytest.approx(0.0, abs=1e-12)
        assert final.covariance[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-10)

    def test_rejects_nonlinear(self, w2):
        with pytest.raises(NonlinearOperatorError):
            kf_run(w2)


@pytest.mark.parametrize("runner", [kf_run, ks_run])
def test_non_finite_background_named_before_any_estimate(runner):
    # Validation runs when the problem is built, before any estimate, so
    # the error names the field rather than the estimate's mean.
    with pytest.raises(ValidationError, match="^background_mean contains non-finite"):
        runner(_w1_variant(background_mean=np.array([np.nan])))


class TestSmoother:
    def test_w1_ground_truth(self, w1):
        estimate = ks_run(w1).estimate
        np.testing.assert_allclose(estimate.mean, [1.0, 2.0], atol=1e-10)
        np.testing.assert_allclose(
            estimate.covariance,
            [[2.0 / 3.0, 1.0 / 3.0], [1.0 / 3.0, 2.0 / 3.0]],
            atol=1e-10,
        )

    def test_huge_model_noise_decouples(self):
        # Q -> 1e8 unhooks x_0 from the observation; it falls back to the
        # background 0.  Cross-checked against the least-squares oracle.
        problem = _w1_variant(model_noise_covs=(np.array([[1e8]]),))
        mean = ks_run(problem).estimate.mean
        oracle = ks_least_squares_oracle(problem)
        assert abs(mean[0]) <= 1e-3
        np.testing.assert_allclose(mean, oracle, atol=1e-6)

    def test_no_observation_prior_propagation(self):
        problem = _w1_variant(obs_ops=(Operator.from_matrix([[0.0]]),))
        estimate = ks_run(problem).estimate
        np.testing.assert_allclose(estimate.mean, [0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(
            estimate.covariance, [[1.0, 1.0], [1.0, 2.0]], atol=1e-12
        )

    def test_rejects_nonlinear(self, w2):
        with pytest.raises(NonlinearOperatorError):
            ks_run(w2)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_trailing_block_matches_filter(self, seed):
        problem = make_toy_problem("linear-chain", m=2, k=4, seed=seed)
        flt = kf_run(problem)
        m = problem.state_dim
        for i in range(1, problem.horizon + 1):
            smoothed, filtered = ks_run(truncated(problem, i)).estimate, flt.estimates[i]
            np.testing.assert_allclose(smoothed.mean[-m:], filtered.mean, rtol=1e-10)
            np.testing.assert_allclose(
                smoothed.covariance[-m:, -m:], filtered.covariance, rtol=1e-10, atol=1e-12
            )

    def test_covariances_symmetric_psd(self):
        problem = make_toy_problem("linear-chain", m=3, k=4, seed=9)
        for i in range(1, problem.horizon + 1):
            cov = ks_run(truncated(problem, i)).estimate.covariance
            scale = np.linalg.norm(cov)
            assert np.linalg.norm(cov - cov.T) <= 1e-12 * scale
            assert np.linalg.eigvalsh(cov)[0] >= -1e-10 * scale

    def test_builds_one_estimate(self, monkeypatch):
        # Only the final composite estimate is built, and checked.
        built = []
        original = kalman.GaussianEstimate

        def counting(*args, **kwargs):
            built.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(kalman, "GaussianEstimate", counting)
        problem = make_toy_problem("linear-chain", m=2, k=5, seed=0)
        assert ks_run(problem).estimate.mean.shape == (2 * 6,)
        assert len(built) == 1

    def test_final_estimate_pinned(self):
        # The final estimate is pinned bit for bit: a change to the
        # recursion's arithmetic must show here and update the file on purpose.
        problem = make_toy_problem("linear-chain", m=6, k=6, seed=0)
        estimate = ks_run(problem).estimate
        with np.load(DATA / "ks_linear_chain_m6_k6.npz") as pinned:
            np.testing.assert_array_equal(estimate.mean, pinned["mean"])
            np.testing.assert_array_equal(estimate.covariance, pinned["covariance"])

    @pytest.mark.parametrize("runner", [ks_run, kf_run])
    def test_solves_no_wider_than_the_observation(self, runner, monkeypatch):
        # Each gain is P H^T times the d x d inverse; a solve against the
        # composite-wide (P H^T)^T stalls in threaded triangular solves.
        problem = make_toy_problem("linear-chain", m=3, k=5, seed=0)
        widths = []

        def recording(a, b, name="matrix"):
            b = np.asarray(b)
            widths.append(1 if b.ndim == 1 else b.shape[1])
            return spd_solve(a, b, name)

        monkeypatch.setattr(kalman, "spd_solve", recording)
        runner(problem)
        assert len(widths) == problem.horizon
        for i, width in enumerate(widths, start=1):
            assert width <= problem.obs_dim(i)


class TestLeastSquaresOracle:
    def test_w1(self, w1):
        np.testing.assert_allclose(ks_least_squares_oracle(w1), [1.0, 2.0], atol=1e-12)

    def test_no_observations_prior_chain_minimizes(self):
        problem = make_toy_problem("linear-chain", m=2, k=3, seed=3)
        zero = Operator.from_matrix(np.zeros((2, 2)))
        muted = AssimilationProblem(
            state_dim=2,
            horizon=3,
            background_mean=problem.background_mean,
            background_cov=problem.background_cov,
            model_ops=problem.model_ops,
            forcings=problem.forcings,
            model_noise_covs=problem.model_noise_covs,
            obs_ops=(zero,) * 3,
            obs_noise_covs=problem.obs_noise_covs,
            observations=(np.zeros(2),) * 3,
        )
        np.testing.assert_allclose(
            ks_least_squares_oracle(muted), muted.prior_chain().composite, atol=1e-10
        )

    def test_matches_recursion_on_random_problem(self):
        problem = make_toy_problem("linear-chain", m=3, k=4, seed=7)
        mean = ks_run(problem).estimate.mean
        oracle = ks_least_squares_oracle(problem)
        assert np.linalg.norm(mean - oracle) <= 1e-8 * np.linalg.norm(oracle)
