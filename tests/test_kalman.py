"""Filter/smoother recursions against hand values and the block oracle.

W1 ground truth, derived by hand from the recursion and the normal
equations: filtering (mean 2, variance 2/3); smoothing mean (1, 2) with
covariance [[2/3, 1/3], [1/3, 2/3]].
"""

import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ensvar import (
    GaussianEstimate,
    LMConfig,
    NonlinearOperatorError,
    Operator,
    ValidationError,
    kf_run,
    ks_least_squares_oracle,
    ks_run,
    lm_exact_run,
    make_toy_problem,
)
from ensvar import kalman, numerics
from ensvar import problem as problem_module
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


def _scaled(problem: AssimilationProblem, b_scale: float, q_scale: float) -> AssimilationProblem:
    """The problem with B scaled by ``b_scale`` and every Q_i by ``q_scale``."""
    model_noise_covs = tuple(q * q_scale for q in problem.model_noise_covs)
    return replace(problem, background_cov=problem.background_cov * b_scale, model_noise_covs=model_noise_covs)


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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_forecast_with_a_finite_analysis(self):
        # The forecast mean 10 * 1e308 overflows, but the analysis
        # (1e309 + 101 * 3) / 102 with variance 101/102 does not, and the
        # information form never forms the forecast.
        problem = _w1_variant(background_mean=np.array([1e308]), model_ops=(Operator.from_matrix([[10.0]]),))
        final = kf_run(problem).estimates[-1]
        assert final.mean[0] == pytest.approx(1e308 * (10 / 102), rel=1e-12)
        assert final.covariance[0, 0] == pytest.approx(101 / 102, rel=1e-12)


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
        original = kalman._certified_estimate

        def counting(*args, **kwargs):
            built.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(kalman, "_certified_estimate", counting)
        problem = make_toy_problem("linear-chain", m=2, k=5, seed=0)
        assert ks_run(problem).estimate.mean.shape == (2 * 6,)
        assert len(built) == 1

    def test_final_estimate_pinned(self):
        # The final estimate is pinned bit for bit: a change to the
        # elimination's arithmetic must show here and update the file on purpose.
        problem = make_toy_problem("linear-chain", m=6, k=6, seed=0)
        estimate = ks_run(problem).estimate
        with np.load(DATA / "ks_linear_chain_m6_k6.npz") as pinned:
            np.testing.assert_array_equal(estimate.mean, pinned["mean"])
            np.testing.assert_array_equal(estimate.covariance, pinned["covariance"])

    @pytest.mark.parametrize("runner", [ks_run, kf_run])
    def test_solves_no_wider_than_the_state(self, runner, monkeypatch):
        # Both run on the block elimination: no public SPD solve, and no
        # right-hand side wider than m, since a solve against a
        # composite-wide right-hand side stalls in threaded triangular solves.
        problem = make_toy_problem("linear-chain", m=3, k=5, seed=0)
        widths = {"spd_solve": [], "_solve": []}

        def recorder(name, original):
            def recording(a, b, *args, **kwargs):
                b = np.asarray(b)
                widths[name].append(1 if b.ndim == 1 else b.shape[1])
                return original(a, b, *args, **kwargs)

            return recording

        for name in widths:
            monkeypatch.setattr(kalman, name, recorder(name, getattr(kalman, name)))
        runner(problem)
        assert widths["spd_solve"] == []
        assert widths["_solve"] and max(widths["_solve"]) <= problem.state_dim

    @pytest.mark.parametrize(
        "name, params",
        [("w1-linear", {})] + [("linear-chain", {"m": 3, "k": 6, "seed": seed}) for seed in range(4)],
    )
    def test_trailing_block_is_the_filter_estimate(self, name, params):
        # Both take the trailing block from one factor of F_k = S_k, the
        # final window's information matrix; each row block is mirrored
        # into its column.
        problem = make_toy_problem(name, **params)
        m = problem.state_dim
        smoothed, filtered = ks_run(problem).estimate, kf_run(problem).estimates[-1]
        np.testing.assert_array_equal(smoothed.mean[-m:], filtered.mean)
        np.testing.assert_array_equal(smoothed.covariance[-m:, -m:], filtered.covariance)
        np.testing.assert_array_equal(smoothed.covariance, smoothed.covariance.T)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_long_window_matches_the_oracle(self, seed):
        # At C01's tolerance, over a window of k = 24.  The first block
        # column of the covariance is the oracle's answer to x_b = B e_j
        # with zero forcings and zero observations, since its normal
        # equations then have the right-hand side e_j.
        problem = make_toy_problem("linear-chain", m=4, k=24, seed=seed)
        m, k = problem.state_dim, problem.horizon
        estimate = ks_run(problem).estimate
        oracle = ks_least_squares_oracle(problem)
        assert np.linalg.norm(estimate.mean - oracle) <= 1e-8 * np.linalg.norm(oracle)
        zeros = dict(forcings=(np.zeros(m),) * k, observations=tuple(np.zeros(y.size) for y in problem.observations))
        column = np.column_stack(
            [ks_least_squares_oracle(replace(problem, background_mean=b, **zeros)) for b in problem.background_cov.T]
        )
        got = estimate.covariance[:, :m]
        assert np.linalg.norm(got - column) <= 1e-8 * np.linalg.norm(column)

    @pytest.mark.parametrize("b_scale, q_scale", [(1e4, 1), (1e6, 1), (1e8, 1), (1, 1e-4), (1, 1e-6)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_diffuse_background_or_tight_model_noise_matches_the_oracle(self, seed, b_scale, q_scale):
        # At C01's tolerance.  A covariance-form filter with an RTS pass
        # cancels catastrophically on a diffuse background (1.8e-5 from
        # the oracle at B x 1e8); block elimination does not.
        problem = _scaled(make_toy_problem("linear-chain", m=4, k=8, seed=seed), b_scale, q_scale)
        m = problem.state_dim
        oracle = ks_least_squares_oracle(problem)
        mean, final = ks_run(problem).estimate.mean, kf_run(problem).estimates[-1].mean
        assert np.linalg.norm(mean - oracle) <= 1e-8 * np.linalg.norm(oracle)
        assert np.linalg.norm(final - oracle[-m:]) <= 1e-8 * np.linalg.norm(oracle[-m:])

    @pytest.mark.parametrize("b_scale", [1, 1e8])
    @pytest.mark.parametrize("q_scale", [1, 1e-6])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_the_one_shot_exact_lm_iterate(self, seed, b_scale, q_scale):
        # On a linear problem one undamped Gauss-Newton step from any start
        # is the smoothing mean (Bell 1994).
        problem = _scaled(make_toy_problem("linear-chain", m=4, k=8, seed=seed), b_scale, q_scale)
        iterate = lm_exact_run(problem, LMConfig(gamma=0.0, max_iterations=1, mode="exact")).iterates[1].composite
        mean = ks_run(problem).estimate.mean
        assert np.linalg.norm(mean - iterate) <= 1e-10 * np.linalg.norm(iterate)


class TestCertificate:
    """kf_run and ks_run certify their covariances by _block_factor's SPD
    Schur factors, not by the public constructor's dense PSD check."""

    @pytest.mark.parametrize("b_scale, q_scale", [(1e8, 1), (1, 1e-6)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_covariances_pass_the_public_check(self, seed, b_scale, q_scale):
        # Where the dense check is cheap, it agrees with the certificate,
        # on a diffuse background and on a near-perfect model too.
        problem = _scaled(make_toy_problem("linear-chain", m=4, k=8, seed=seed), b_scale, q_scale)
        estimates = [ks_run(problem).estimate, *kf_run(problem).estimates]
        for estimate in estimates:
            GaussianEstimate(estimate.mean, estimate.covariance)

    def test_background_symmetric_to_round_off_is_symmetrized_at_time_0(self):
        # A problem takes a B symmetric within its tolerance; the filter's
        # time-0 estimate, certified bit for bit, carries (B + B^T) / 2.
        base = make_toy_problem("linear-chain", m=3, k=2, seed=1)
        b = base.background_cov.copy()
        b[0, 1] = np.nextafter(b[0, 1], np.inf)
        covariance = kf_run(replace(base, background_cov=b)).estimates[0].covariance
        np.testing.assert_array_equal(covariance, 0.5 * (b + b.T))
        assert covariance[0, 1] == covariance[1, 0]

    @pytest.mark.parametrize("runner", [ks_run, kf_run])
    def test_no_dense_psd_check(self, runner, monkeypatch):
        def refuse(a):
            raise AssertionError(f"dense PSD check of a {a.shape} matrix")

        monkeypatch.setattr(numerics, "_positive_definite", refuse)
        monkeypatch.setattr(problem_module, "_positive_definite", refuse)
        runner(make_toy_problem("linear-chain", m=3, k=5, seed=0))

    def test_peak_memory_is_about_the_output(self):
        # Beside its output ks_run holds only m-row blocks: the certificate
        # copies nothing and compares in row blocks.
        problem = make_toy_problem("linear-chain", m=20, k=40, seed=3)
        ks_run(problem)  # import-time and first-call allocations do not count
        tracemalloc.start()
        try:
            covariance = ks_run(problem).estimate.covariance
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * covariance.nbytes

    @pytest.mark.parametrize(
        "upper, lower, message",
        [(0.5, np.nextafter(0.5, 1.0), "is not symmetric bit for bit"), (0.0, -0.0, "is not symmetric bit for bit"),
         (np.inf, np.inf, "contains non-finite entries"), (np.nan, np.nan, "contains non-finite entries")],
    )
    def test_refuses_what_the_cheap_checks_catch(self, upper, lower, message):
        # Entry (130, 290) lies in the second block of 128 rows, outside its
        # diagonal square, and its mirror in the third.
        cov = np.eye(300)
        cov[130, 290], cov[290, 130] = upper, lower
        with pytest.raises(ValidationError, match=f"^covariance {message}$"):
            problem_module._certified_estimate(np.zeros(300), cov)


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
