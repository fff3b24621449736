import inspect
import sys

import numpy as np
import pytest

from ensvar import (
    NoiseKind,
    NonlinearOperatorError,
    NotSPDError,
    PerturbationStream,
    ValidationError,
    coupled_enks_error,
    coupled_member_diffs,
    derive_seed,
    enkf_run,
    enks_run,
    kf_run,
    ks_run,
    make_toy_problem,
    reference_enks_run,
    sample_covariance,
)
from ensvar import ensemble
from ensvar.ensemble import _analysis_update, _canonical_order, _sample_products


class DegenerateStream(PerturbationStream):
    """Zero init and model draws: the exact-mean limit of a shrinking
    background spread, used to force a degenerate (zero-spread) ensemble."""

    def draw_members(self, phase, iteration, time_index, kind, members, dim):
        out = super().draw_members(phase, iteration, time_index, kind, members, dim)
        if kind in (NoiseKind.INIT, NoiseKind.MODEL):
            return np.zeros_like(out)
        return out


class TestEnKF:
    def test_degenerate_ensemble_zero_gain(self, w1):
        result = enkf_run(w1, 2, DegenerateStream(0))
        # Sample covariance 0 -> gain 0 -> analysis equals forecast exactly.
        np.testing.assert_array_equal(
            result.analysis_ensembles[-1], result.forecast_ensembles[-1]
        )

    def test_large_ensemble_matches_filter(self, w1):
        n = 10_000
        result = enkf_run(w1, n, PerturbationStream(42))
        kf_mean = kf_run(w1).estimates[-1].mean
        tol = 4.0 * np.sqrt(2.0 / 3.0) / np.sqrt(n)
        assert abs(result.sample_means[-1][0] - kf_mean[0]) < tol

    def test_bit_identical_reruns(self, w1):
        a = enkf_run(w1, 3, PerturbationStream(123))
        b = enkf_run(w1, 3, PerturbationStream(123))
        for ea, eb in zip(a.analysis_ensembles, b.analysis_ensembles):
            np.testing.assert_array_equal(ea, eb)

    def test_rejects_single_member(self, w1):
        with pytest.raises(ValidationError):
            enkf_run(w1, 1, PerturbationStream(0))

    def test_rejects_nonlinear(self, w2):
        with pytest.raises(NonlinearOperatorError):
            enkf_run(w2, 4, PerturbationStream(0))


class TestEnKS:
    def test_large_ensemble_matches_smoother(self, w1):
        n = 10_000
        result = enks_run(w1, n, PerturbationStream(42))
        target = ks_run(w1).estimate.mean
        final = result.analysis_ensembles[-1]
        sigma = final.std(axis=0, ddof=1)
        np.testing.assert_array_less(
            np.abs(result.sample_means[-1] - target), 4.0 * sigma / np.sqrt(n)
        )

    def test_degenerate_ensemble_zero_gain(self, w1):
        result = enks_run(w1, 2, DegenerateStream(0))
        np.testing.assert_array_equal(
            result.analysis_ensembles[-1], result.forecast_ensembles[-1]
        )

    def test_permutation_equivariance_bitwise(self, w1):
        perm = np.random.default_rng(1).permutation(8)
        base = enks_run(w1, 8, PerturbationStream(5))
        permuted = enks_run(w1, 8, PerturbationStream(5), member_indices=perm)
        for pe, be in zip(permuted.analysis_ensembles, base.analysis_ensembles):
            np.testing.assert_array_equal(pe, be[perm])
        for ma, mb in zip(permuted.sample_means, base.sample_means):
            np.testing.assert_array_equal(ma, mb)

    @pytest.mark.parametrize("runner", [enks_run, enkf_run])
    def test_default_keys_match_explicit_ascending_keys_bitwise(self, runner):
        # Ascending keys skip the canonical-order gather; the default keys
        # and an explicit arange must still agree bit for bit.
        problem = make_toy_problem("linear-chain", m=3, k=4, seed=5)
        default = runner(problem, 20, PerturbationStream(6))
        explicit = runner(problem, 20, PerturbationStream(6), member_indices=np.arange(20))
        for field in ("analysis_ensembles", "forecast_ensembles", "sample_means"):
            for a, b in zip(getattr(default, field), getattr(explicit, field)):
                np.testing.assert_array_equal(a, b)
        assert _canonical_order(np.arange(20)) is None
        np.testing.assert_array_equal(_canonical_order(np.array([4, 0, 9])), [1, 0, 2])

    @pytest.mark.parametrize("problem_args", [("w1-linear", {}), ("linear-chain", {"m": 2, "k": 3, "seed": 4})])
    def test_marginals_match_enkf_members(self, problem_args):
        # The trailing (time-i) block of the EnKS analysis at time i equals
        # the EnKF analysis member for member when both consume the same
        # keys: the smoother's last-block update is the filter update.
        name, params = problem_args
        problem = make_toy_problem(name, **params)
        m = problem.state_dim
        enks = enks_run(problem, 50, PerturbationStream(8))
        enkf = enkf_run(problem, 50, PerturbationStream(8))
        for i in range(problem.horizon + 1):
            block = enks.analysis_ensembles[i][:, -m:]
            target = enkf.analysis_ensembles[i]
            scale = max(np.abs(target).max(), 1.0)
            assert np.abs(block - target).max() <= 1e-10 * scale

    def test_member_count_constant_and_composite_growth(self, w1):
        result = enks_run(w1, 6, PerturbationStream(2))
        for i, ens in enumerate(result.analysis_ensembles):
            assert ens.shape == (6, w1.state_dim * (i + 1))

    def test_matrix_free_products_match_dense_path(self):
        # The deviation-product route never forms the sample covariance;
        # on a small composite problem both routes must agree.
        problem = make_toy_problem("linear-chain", m=3, k=4, seed=6)
        m = problem.state_dim
        run = enks_run(problem, 30, PerturbationStream(14))
        for i, forecast in enumerate(run.forecast_ensembles, start=1):
            h_i = problem.obs_ops[i - 1].matrix
            dev = forecast - forecast.mean(axis=0)
            pht, hpht = _sample_products(dev, dev[:, -m:] @ h_i.T)
            dense = sample_covariance(forecast)
            dense_pht = dense[:, -m:] @ h_i.T
            dense_hpht = h_i @ dense[-m:, -m:] @ h_i.T
            assert np.abs(pht - dense_pht).max() <= 1e-10 * max(np.abs(dense_pht).max(), 1.0)
            assert np.abs(hpht - dense_hpht).max() <= 1e-10 * max(np.abs(dense_hpht).max(), 1.0)


def test_analysis_update_non_spd_innovation_covariance():
    with pytest.raises(NotSPDError, match="innovation covariance"):
        _analysis_update(np.zeros((3, 1)), np.ones((3, 1)), np.ones((1, 1)), np.array([[-5.0]]),
                         np.array([[1.0]]))


class TestReferenceRun:
    def test_single_member_valid(self, w1):
        result = reference_enks_run(w1, 1, PerturbationStream(3))
        assert result.analysis_ensembles[-1].shape == (1, 2)

    def test_distribution_matches_smoother(self, w1):
        n = 10_000
        result = reference_enks_run(w1, n, PerturbationStream(31))
        final = result.analysis_ensembles[-1]
        smoother = ks_run(w1).estimate
        sigma = np.sqrt(np.diag(smoother.covariance))
        np.testing.assert_array_less(
            np.abs(final.mean(axis=0) - smoother.mean), 4.0 * sigma / np.sqrt(n)
        )
        assert np.abs(sample_covariance(final) - smoother.covariance).max() < 0.1

    def test_forecast_covariances_recorded(self, w1):
        # By default the run records the trailing block columns it used;
        # a supplied smoother's full covariances are recorded as given.
        smoother = ks_run(w1)
        m = w1.state_dim
        columns = reference_enks_run(w1, 4, PerturbationStream(3)).forecast_covariances
        supplied = reference_enks_run(w1, 4, PerturbationStream(3), smoother=smoother)
        assert len(columns) == len(supplied.forecast_covariances) == w1.horizon
        for column, full, want in zip(columns, supplied.forecast_covariances, smoother.forecast_covariances):
            np.testing.assert_array_equal(column, want[:, -m:])
            np.testing.assert_array_equal(full, want)

    def test_injected_sample_covariances_reproduce_enks(self, w1):
        # Forcing the reference gain to use the EnKS's own sample
        # covariances makes the two updates identical.
        n = 40
        enks = enks_run(w1, n, PerturbationStream(12))
        injected = tuple(sample_covariance(f) for f in enks.forecast_ensembles)
        ref = reference_enks_run(
            w1, n, PerturbationStream(12), forecast_covariances=injected
        )
        diff = np.abs(ref.analysis_ensembles[-1] - enks.analysis_ensembles[-1]).max()
        assert diff <= 1e-12

    def test_single_member_matches_row_of_full_run(self, w1):
        # With exact gains no member depends on another: member 0 alone
        # evolves as row 0 of an N-member run.
        full = reference_enks_run(w1, 25, PerturbationStream(9))
        single = reference_enks_run(w1, 1, PerturbationStream(9), member_indices=[0])
        for one, many in zip(single.analysis_ensembles, full.analysis_ensembles):
            assert np.abs(one[0] - many[0]).max() <= 1e-12 * max(np.abs(many[0]).max(), 1.0)


@pytest.mark.parametrize(
    "name, params",
    [("w1-linear", {})] + [("linear-chain", {"m": 3, "k": 5, "seed": seed}) for seed in range(4)],
)
def test_reference_columns_are_smoother_columns(name, params, monkeypatch):
    # ks_run writes the shared recursion's column into its full forecast
    # covariance, so both exact arms read the smoother's column bit for bit.
    problem = make_toy_problem(name, **params)
    m = problem.state_dim
    want = [cov_f[:, -m:] for cov_f in ks_run(problem).forecast_covariances]
    reference = reference_enks_run(problem, 1, PerturbationStream(0)).forecast_covariances

    used = []
    original = ensemble._forecast_analysis
    signature = inspect.signature(original)

    def recording(*args, **kwargs):
        cov_f = signature.bind(*args, **kwargs).arguments.get("cov_f")
        if cov_f is not None:
            used.append(cov_f)
        return original(*args, **kwargs)

    monkeypatch.setattr(ensemble, "_forecast_analysis", recording)
    coupled_member_diffs(problem, 4, PerturbationStream(0), 1)
    for columns in (reference, used):
        assert len(columns) == problem.horizon
        for got, expected in zip(columns, want):
            np.testing.assert_array_equal(got, expected)


def test_exact_arms_do_not_run_the_smoother(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("ks_run called")

    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "ensvar"]:
        if hasattr(module, "ks_run"):
            monkeypatch.setattr(module, "ks_run", refuse)
    problem = make_toy_problem("linear-chain", m=2, k=3, seed=1)
    assert len(coupled_member_diffs(problem, 4, PerturbationStream(0), 2)) == 2
    assert len(reference_enks_run(problem, 4, PerturbationStream(0)).analysis_ensembles) == 4


class TestCoupledError:
    @pytest.mark.parametrize("problem_args", [("w1-linear", {}), ("linear-chain", {"m": 2, "k": 3, "seed": 4})])
    def test_diffs_match_separate_runs(self, problem_args):
        name, params = problem_args
        problem = make_toy_problem(name, **params)
        stream = PerturbationStream(17)
        diffs = coupled_member_diffs(problem, 60, stream, 5)
        for r, diff in enumerate(diffs):
            seed = derive_seed(stream.seed, r)
            enks_row = enks_run(problem, 60, PerturbationStream(seed)).analysis_ensembles[-1][0]
            ref_row = reference_enks_run(problem, 60, PerturbationStream(seed)).analysis_ensembles[-1][0]
            scale = max(np.abs(enks_row).max(), 1.0)
            assert np.abs(diff - (enks_row - ref_row)).max() <= 1e-10 * scale

    def test_each_key_drawn_once_per_replicate(self, w1, monkeypatch):
        calls = []
        original = PerturbationStream.draw_members

        def recording(self, phase, iteration, time_index, kind, members, dim):
            calls.append((self.seed, time_index, kind, tuple(np.asarray(members).tolist())))
            return original(self, phase, iteration, time_index, kind, members, dim)

        monkeypatch.setattr(PerturbationStream, "draw_members", recording)
        stream = PerturbationStream(4)
        coupled_member_diffs(w1, 12, stream, 3)
        seeds = [derive_seed(stream.seed, r) for r in range(3)]
        expected = [(0, NoiseKind.INIT)] + [
            (i, kind) for i in range(1, w1.horizon + 1) for kind in (NoiseKind.MODEL, NoiseKind.OBS)
        ]
        for seed in seeds:
            drawn = [(t, kind) for s, t, kind, _ in calls if s == seed]
            assert sorted(drawn) == sorted(expected)
        assert {s for s, *_ in calls} == set(seeds)
        assert all(members == tuple(range(12)) for *_, members in calls)

    def test_rate_is_roughly_root_n(self, w1):
        errors = [
            coupled_enks_error(w1, n, PerturbationStream(7), 2.0, 20)
            for n in (100, 1000)
        ]
        assert errors[1] < errors[0]
        ratio = np.log(errors[1] / errors[0]) / np.log(10.0)
        assert -0.8 < ratio < -0.2

    def test_replication_stability(self, w1):
        # Doubling the replicate count moves the estimate by < 30%.
        short = coupled_enks_error(w1, 200, PerturbationStream(13), 2.0, 25)
        long = coupled_enks_error(w1, 200, PerturbationStream(13), 2.0, 50)
        assert abs(long - short) / short < 0.3

    def test_diffs_have_replicate_count(self, w1):
        diffs = coupled_member_diffs(w1, 30, PerturbationStream(1), 7)
        assert len(diffs) == 7
        assert all(d.shape == (2,) for d in diffs)

    def test_rejects_zero_replicates(self, w1):
        with pytest.raises(ValidationError):
            coupled_member_diffs(w1, 10, PerturbationStream(1), 0)
