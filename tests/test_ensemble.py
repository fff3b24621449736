import sys
import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensvar import (
    AssimilationProblem,
    NoiseKind,
    NonlinearOperatorError,
    NotSPDError,
    Operator,
    PerturbationStream,
    Phase,
    ValidationError,
    coupled_member_diffs,
    derive_seed,
    empirical_lp_norm,
    enkf_run,
    enks_run,
    fit_loglog_slope,
    kf_run,
    ks_run,
    make_toy_problem,
    reference_enks_run,
    sample_covariance,
)
from ensvar import ensemble, ks_least_squares_oracle
from ensvar.ensemble import (
    _coupled_pass,
    _linear_steps,
    _noise,
    _sample_gain,
    _slot_rows,
    _smoother_pass,
    _sorted_members,
    _update,
)
from ensvar.kalman import _linear_matrices
from ensvar.numerics import _factor, _solve
from conftest import truncated


PINNED_RUNS = Path(__file__).parent / "data" / "ensemble_runs_pinned.npz"
# Reference members written by the exact-gain ensemble step (the composite
# Kalman recursion's gains) before the normal-equations solve replaced it.
PINNED_REFERENCE = Path(__file__).parent / "data" / "reference_members_pinned.npz"


class DegenerateStream(PerturbationStream):
    """Zero init and model draws: the exact-mean limit of a shrinking
    background spread, used to force a degenerate (zero-spread) ensemble.
    The passes draw through ``draw_keys``; the reference forecasts here
    through ``draw_members``."""

    def draw_members(self, phase, iteration, time_index, kind, members, dim):
        out = super().draw_members(phase, iteration, time_index, kind, members, dim)
        if kind in (NoiseKind.INIT, NoiseKind.MODEL):
            return np.zeros_like(out)
        return out

    def draw_keys(self, phase, iteration, keys, members):
        keys = list(keys)
        for rows, draws in super().draw_keys(phase, iteration, keys, members):
            yield rows, [
                np.zeros_like(z) if kind in (NoiseKind.INIT, NoiseKind.MODEL) else z
                for (_, kind, _), z in zip(keys, draws)
            ]


def coupled_cells(problem, sizes, stream, replicates):
    """Each size's per-replicate diffs from one coupled pass per
    replicate, on the replicates' derived seeds, as a study runs them."""
    one_pass = _coupled_pass(problem, sizes)
    per_replicate = [one_pass(PerturbationStream(derive_seed(stream.seed, r))) for r in range(replicates)]
    return [list(cell) for cell in zip(*per_replicate)]


def _plain_forecast(problem, keys, stream, i, x, composite):
    """Step i's forecast rows from the analysis rows ``x`` at time i - 1,
    written without the package; rows are members in slot order."""
    m = problem.state_dim
    chol_q = np.linalg.cholesky(problem.model_noise_covs[i - 1])
    v = stream.draw_members(Phase.SMOOTHER, 0, i, NoiseKind.MODEL, keys, m)
    state = x[:, -m:] @ problem.model_ops[i - 1].matrix.T + problem.forcings[i - 1] + v @ chol_q.T
    return np.hstack([x, state]) if composite else state


def _forecasts(problem, run, stream, composite):
    """A run's forecast ensembles, rebuilt from its analyses and keyed draws."""
    return [
        _plain_forecast(problem, run.member_indices, stream, i, x, composite)
        for i, x in enumerate(run.analysis_ensembles[:-1], start=1)
    ]


class TestEnKF:
    def test_degenerate_ensemble_zero_gain(self, w1):
        result = enkf_run(w1, 2, DegenerateStream(0))
        # Sample covariance 0 -> gain 0 -> analysis equals forecast exactly.
        forecasts = _forecasts(w1, result, DegenerateStream(0), composite=False)
        np.testing.assert_array_equal(result.analysis_ensembles[-1], forecasts[-1])

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

    @pytest.mark.parametrize(
        "name, params, keys",
        [
            ("m1_k5", {"m": 1, "k": 5, "seed": 5}, None),
            ("m3_k6", {"m": 3, "k": 6, "seed": 6}, None),
            ("m3_k6_permuted", {"m": 3, "k": 6, "seed": 6}, np.random.default_rng(1).permutation(40) * 3 + 1),
        ],
    )
    def test_analyses_pinned(self, name, params, keys):
        # Pinned bit for bit, 40 members on stream seed 17: a change to the
        # filter's arithmetic must show here and update the file on purpose.
        run = enkf_run(make_toy_problem("linear-chain", **params), 40, PerturbationStream(17), member_indices=keys)
        assert len(run.analysis_ensembles) == params["k"] + 1
        with np.load(PINNED_RUNS) as pinned:
            np.testing.assert_array_equal(run.member_indices, pinned[f"enkf_{name}_members"])
            for i, analysis in enumerate(run.analysis_ensembles):
                np.testing.assert_array_equal(analysis, pinned[f"enkf_{name}_analysis_{i}"])


def _plain_enks(problem, keys, stream, composite):
    """Row-major perturbed-observation EnKS/EnKF, written without the package.

    Rows are members in slot order; the gain is P H^T (H P H^T + R)^-1
    from ``np.cov`` of the forecast rows and ``np.linalg.solve``.  Returns
    every analysis ensemble.
    """
    m = problem.state_dim

    def draw(i, kind, dim):
        return stream.draw_members(Phase.SMOOTHER, 0, i, kind, keys, dim)

    x = problem.background_mean + draw(0, NoiseKind.INIT, m) @ np.linalg.cholesky(problem.background_cov).T
    analyses = [x]
    for i in range(1, problem.horizon + 1):
        obs, r, y = problem.obs_ops[i - 1].matrix, problem.obs_noise_covs[i - 1], problem.observations[i - 1]
        forecast = _plain_forecast(problem, keys, stream, i, x, composite)
        h_full = np.zeros((len(y), forecast.shape[1]))
        h_full[:, -m:] = obs
        p = np.cov(forecast, rowvar=False).reshape(forecast.shape[1], forecast.shape[1])
        gain = np.linalg.solve(h_full @ p @ h_full.T + r, h_full @ p).T
        perturbed = y - draw(i, NoiseKind.OBS, len(y)) @ np.linalg.cholesky(r).T
        x = forecast + (perturbed - forecast @ h_full.T) @ gain.T
        analyses.append(x)
    return analyses


@settings(max_examples=30, deadline=None)
@given(
    m=st.integers(1, 3),
    k=st.integers(1, 4),
    n=st.integers(2, 12),
    problem_seed=st.integers(0, 1000),
    stream_seed=st.integers(0, 2**32),
    key_seed=st.integers(0, 1000),
)
def test_runners_match_plain_row_major_oracle(m, k, n, problem_seed, stream_seed, key_seed):
    # An independent oracle of the state-major step: permuted, sparse
    # member keys, every analysis of both runners within 1e-10 relative.
    problem = make_toy_problem("linear-chain", m=m, k=k, seed=problem_seed)
    keys = np.random.default_rng(key_seed).choice(5 * n, size=n, replace=False)
    for runner, composite in ((enks_run, True), (enkf_run, False)):
        got = runner(problem, n, PerturbationStream(stream_seed), member_indices=keys).analysis_ensembles
        want = _plain_enks(problem, keys, PerturbationStream(stream_seed), composite)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.shape == b.shape
            assert np.abs(a - b).max() <= 1e-10 * max(np.abs(b).max(), 1.0)


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
        forecasts = _forecasts(w1, result, DegenerateStream(0), composite=True)
        np.testing.assert_array_equal(result.analysis_ensembles[-1], forecasts[-1])

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
        # Ascending keys hand out views, with no slot-order gather; the
        # default keys and an explicit arange must still agree bit for bit.
        problem = make_toy_problem("linear-chain", m=3, k=4, seed=5)
        composite = runner is enks_run
        default = runner(problem, 20, PerturbationStream(6))
        explicit = runner(problem, 20, PerturbationStream(6), member_indices=np.arange(20))
        for field in ("analysis_ensembles", "sample_means"):
            for a, b in zip(getattr(default, field), getattr(explicit, field)):
                np.testing.assert_array_equal(a, b)
        rebuilt = [_forecasts(problem, run, PerturbationStream(6), composite) for run in (default, explicit)]
        for a, b in zip(*rebuilt):
            np.testing.assert_array_equal(a, b)
        ensemble = np.zeros((3, 20))
        assert _sorted_members(20, None)[1] is None and np.shares_memory(_slot_rows(ensemble, None), ensemble)
        keys, slots = _sorted_members(3, [4, 0, 9])
        np.testing.assert_array_equal(keys, [0, 4, 9])
        np.testing.assert_array_equal(slots, [1, 0, 2])

    @pytest.mark.parametrize("runner", [enks_run, enkf_run, reference_enks_run])
    def test_per_step_analyses_share_no_memory(self, runner):
        # The smoothers update one trajectory array in place; every step's
        # analysis they return must be a copy that later steps leave alone.
        problem = make_toy_problem("linear-chain", m=2, k=4, seed=3)
        analyses = runner(problem, 6, PerturbationStream(2)).analysis_ensembles
        for i, a in enumerate(analyses):
            assert not any(np.shares_memory(a, b) for b in analyses[i + 1 :])

    def test_rejects_non_whole_ensemble_size(self, w1):
        # 16.7 members would otherwise run as 17, and 2.5 as 3.
        for runner, n in ((enks_run, 16.7), (enkf_run, 16.7), (reference_enks_run, 2.5)):
            with pytest.raises(ValidationError, match=r"^n_members must be an integer, got "):
                runner(w1, n, PerturbationStream(0))
        np.testing.assert_array_equal(
            enks_run(w1, 4.0, PerturbationStream(0)).analysis_ensembles[-1],
            enks_run(w1, 4, PerturbationStream(0)).analysis_ensembles[-1],
        )

    def test_rejects_non_integer_member_keys(self, w1):
        # 0.3 and 1.6 would otherwise run as keys 0 and 1.
        for runner in (enks_run, enkf_run, reference_enks_run):
            with pytest.raises(ValidationError, match="member"):
                runner(w1, 2, PerturbationStream(0), member_indices=[0.3, 1.6])
        with pytest.raises(ValidationError, match="member"):
            _sorted_members(3, np.array([0.0, 2.0, -0.5]))
        whole = enks_run(w1, 2, PerturbationStream(0), member_indices=[1.0, 0.0])
        assert whole.member_indices == (1, 0)
        np.testing.assert_array_equal(
            whole.analysis_ensembles[-1], enks_run(w1, 2, PerturbationStream(0), member_indices=[1, 0]).analysis_ensembles[-1]
        )

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
        # on a small composite problem both routes must give one gain.
        problem = make_toy_problem("linear-chain", m=3, k=4, seed=6)
        m = problem.state_dim
        run = enks_run(problem, 30, PerturbationStream(14))
        for i, forecast in enumerate(_forecasts(problem, run, PerturbationStream(14), composite=True), start=1):
            h_i, r_i = problem.obs_ops[i - 1].matrix, problem.obs_noise_covs[i - 1]
            gain_t = _sample_gain(forecast.T, m, h_i.__matmul__, r_i)
            dense = sample_covariance(forecast)
            dense_gain_t = np.linalg.solve(h_i @ dense[-m:, -m:] @ h_i.T + r_i, h_i @ dense[-m:])
            assert np.abs(gain_t - dense_gain_t).max() <= 1e-10 * max(np.abs(dense_gain_t).max(), 1.0)


def _full_deviation_gain(forecast, m, observe, obs_cov):
    """K^T from the deviations of the whole composite forecast, each
    product in one call: the row-block gain's plain reference."""
    n = forecast.shape[1]
    dev = forecast - forecast.mean(axis=1, keepdims=True)
    obs_dev = observe(dev[-m:])
    hpht = obs_dev @ obs_dev.T / (n - 1)
    factor = _factor(0.5 * (hpht + hpht.T) + obs_cov, "innovation covariance")
    return _solve(factor, (dev @ obs_dev.T / (n - 1)).T, "innovation covariance")


@pytest.mark.parametrize("m,k,n,tol", [(3, 6, 200, 1e-13), (1, 1, 50, 0.0), (1, 1, 2000, 0.0)])
def test_row_block_gain_matches_full_deviation_reference(m, k, n, tol):
    # Blocks of P H^T are separate gemms, which may round differently from
    # the one composite product; a single-block composite (m = k = 1) must
    # reproduce it bit for bit.
    problem = make_toy_problem("linear-chain", m=m, k=k, seed=5)
    run = enks_run(problem, n, PerturbationStream(6))
    for i, forecast in enumerate(_forecasts(problem, run, PerturbationStream(6), composite=True), start=1):
        h_i, r_i = problem.obs_ops[i - 1].matrix, problem.obs_noise_covs[i - 1]
        forecast = np.ascontiguousarray(forecast.T)  # state-major, as the runners hold it
        got = _sample_gain(forecast, m, h_i.__matmul__, r_i)
        want = _full_deviation_gain(forecast, m, h_i.__matmul__, r_i)
        assert np.abs(got - want).max() <= tol * np.abs(want).max()


def test_analysis_update_non_spd_innovation_covariance():
    # Zero spread leaves H P H^T + R = R, here negative.
    with pytest.raises(NotSPDError, match="innovation covariance"):
        _sample_gain(np.zeros((3, 2)), 1, lambda dev: dev, np.array([[-5.0]]))


def test_analysis_update_non_finite_products_name_the_innovation_covariance():
    # LAPACK takes nan and inf without complaint; the kernel must refuse
    # them with a package error, not scipy's bare ValueError.
    nan = np.nan
    with pytest.raises(NotSPDError, match="innovation covariance contains non-finite entries"):
        _sample_gain(np.zeros((3, 2)), 1, lambda dev: np.array([[nan, nan]]), np.eye(1))
    # A non-finite unobserved component leaves H P H^T finite but not P H^T.
    with pytest.raises(ValidationError, match="right-hand side of the innovation covariance solve"):
        _sample_gain(np.array([[nan, nan], [0.0, 1.0]]), 1, lambda dev: dev, np.eye(1))


def test_exact_reference_refuses_an_overflowing_system_before_any_draw(draw_log):
    # Step 2's model row (a, -a) with a near the largest float overflows
    # M^T Q^-1 M in the normal equations.  Their factorization refuses the
    # system at set-up, with no numpy warning and before any key is drawn;
    # the EnKS alone runs until its gain refuses the overflowing forecast.
    eye, a = np.eye(2), np.finfo(float).max / 2.4
    problem = AssimilationProblem(
        state_dim=2,
        horizon=2,
        background_mean=np.full(2, 2.0),
        background_cov=2.0 * eye,
        model_ops=(Operator.from_matrix(eye), Operator.from_matrix(np.array([[a, -a], [0.0, 1.0]]))),
        forcings=(np.zeros(2), np.zeros(2)),
        model_noise_covs=(1e-300 * eye, eye),
        obs_ops=(Operator.from_matrix(np.array([[1.0, -1.0]])), Operator.from_matrix(eye)),
        obs_noise_covs=(np.array([[1e-300]]), eye),
        observations=(np.zeros(1), np.zeros(2)),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NotSPDError, match="normal equations contains non-finite entries"):
            reference_enks_run(problem, 8, PerturbationStream(1))
        with pytest.raises(NotSPDError, match="normal equations contains non-finite entries"):
            coupled_member_diffs(problem, 8, PerturbationStream(1), 1)
        assert draw_log == []
        with pytest.raises(NotSPDError, match="innovation covariance contains non-finite entries"):
            enks_run(problem, 8, PerturbationStream(1))


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("d", [1, 2, 5])
def test_update_in_row_blocks_is_the_full_width_product_bitwise(m, d):
    # A one-row block would take numpy's matrix-vector path and move bits;
    # at these sizes every block of two or more rows must reproduce the
    # full-width product.
    rng = np.random.default_rng(100 * m + d)

    def spd(dim):
        g = rng.standard_normal((dim, dim))
        return g @ g.T / dim + np.eye(dim)

    k = 4
    problem = AssimilationProblem(
        state_dim=m,
        horizon=k,
        background_mean=np.zeros(m),
        background_cov=spd(m),
        model_ops=tuple(Operator.from_matrix(rng.standard_normal((m, m))) for _ in range(k)),
        forcings=tuple(np.zeros(m) for _ in range(k)),
        model_noise_covs=tuple(spd(m) for _ in range(k)),
        obs_ops=tuple(Operator.from_matrix(rng.standard_normal((d, m))) for _ in range(k)),
        obs_noise_covs=tuple(spd(d) for _ in range(k)),
        observations=tuple(rng.standard_normal(d) for _ in range(k)),
    )
    (_, obs_mats), (_, _, l_r) = _linear_matrices(problem), problem._factors
    for n in (7, 1000):
        for i in range(1, k + 1):
            for rows in {m, (i + 1) * m}:  # the filter's state, a smoother's trajectory
                out = rng.standard_normal((rows, n))
                y, h_x, center = problem.observations[i - 1], obs_mats[i - 1] @ out[-m:], rng.standard_normal(m)
                # The EnKS's d innovations, and an LM arm's d + m of the stacked [H; I] prediction.
                for innovations in (
                    y[:, None] - l_r[i - 1] @ rng.standard_normal((d, n)) - h_x,
                    np.concatenate([y, center])[:, None] - rng.standard_normal((d + m, n)) - np.vstack([h_x, out[-m:]]),
                ):
                    # LAPACK hands gains back in Fortran order; try both layouts.
                    shape = (len(innovations), rows)
                    for gain_t in (rng.standard_normal(shape), np.asfortranarray(rng.standard_normal(shape))):
                        expected = out + gain_t.T @ innovations
                        _update(m, out, gain_t, innovations)
                        np.testing.assert_array_equal(out, expected)


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

    def test_single_member_matches_row_of_full_run(self, w1):
        # With exact gains no member depends on another: member 0 alone
        # evolves as row 0 of an N-member run.
        full = reference_enks_run(w1, 25, PerturbationStream(9))
        single = reference_enks_run(w1, 1, PerturbationStream(9), member_indices=[0])
        for one, many in zip(single.analysis_ensembles, full.analysis_ensembles):
            assert np.abs(one[0] - many[0]).max() <= 1e-12 * max(np.abs(many[0]).max(), 1.0)


@pytest.mark.parametrize(
    "name, params, keys",
    [("w1-linear", {}, None)]
    + [("linear-chain", {"m": 3, "k": 5, "seed": seed}, None) for seed in range(3)]
    + [("linear-chain", {"m": 2, "k": 6, "seed": 3}, [9, 2, 5])],
)
def test_reference_windows_are_smoothing_means_of_perturbed_data(name, params, keys):
    # With exact gains a member at time i is the smoothing mean over the
    # window 0..i of its own perturbed data: background plus its initial
    # draw, forcings plus its model draws, observations less its
    # observation draws.  The dense oracle of the problem cut to horizon i,
    # with that data put in, must give every window of every member.
    problem = make_toy_problem(name, **params)
    m, n = problem.state_dim, 3
    keys = list(range(n)) if keys is None else keys
    run = reference_enks_run(problem, n, PerturbationStream(4), member_indices=keys)

    def draw(i, kind, cov):
        z = PerturbationStream(4).draw_members(Phase.SMOOTHER, 0, i, kind, keys, len(cov))
        return z @ np.linalg.cholesky(cov).T

    start = problem.background_mean + draw(0, NoiseKind.INIT, problem.background_cov)
    model = [draw(i, NoiseKind.MODEL, q) for i, q in enumerate(problem.model_noise_covs, 1)]
    obs = [draw(i, NoiseKind.OBS, r) for i, r in enumerate(problem.obs_noise_covs, 1)]
    np.testing.assert_allclose(run.analysis_ensembles[0], start, rtol=1e-14, atol=0)
    for i in range(1, problem.horizon + 1):
        for member in range(n):
            perturbed = replace(
                truncated(problem, i),
                background_mean=start[member],
                forcings=tuple(f + v[member] for f, v in zip(problem.forcings[:i], model)),
                observations=tuple(y - w[member] for y, w in zip(problem.observations[:i], obs)),
            )
            want = ks_least_squares_oracle(perturbed)
            got = run.analysis_ensembles[i][member]
            assert got.shape == (m * (i + 1),)
            assert np.abs(got - want).max() <= 1e-10 * max(np.abs(want).max(), 1.0)


def test_reference_members_pinned():
    # Reference members at k >= 20, every window, and coupled diffs, as the
    # exact-gain ensemble step wrote them; the block solve must agree to
    # 1e-13 relative to each array's largest entry.
    cases = {
        "m3_k20": ({"m": 3, "k": 20, "seed": 7}, 5, 5, [7, 2, 11, 0, 4]),
        "m2_k24": ({"m": 2, "k": 24, "seed": 3}, 3, 8, None),
    }
    with np.load(PINNED_REFERENCE) as pinned:
        for name, (params, n, seed, keys) in cases.items():
            problem = make_toy_problem("linear-chain", **params)
            run = reference_enks_run(problem, n, PerturbationStream(seed), member_indices=keys)
            np.testing.assert_array_equal(run.member_indices, pinned[f"reference_{name}_members"])
            assert len(run.analysis_ensembles) == params["k"] + 1
            for i, got in enumerate(run.analysis_ensembles):
                want = pinned[f"reference_{name}_analysis_{i}"]
                assert got.shape == want.shape
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        problem = make_toy_problem("linear-chain", m=2, k=24, seed=3)
        got = np.array(coupled_member_diffs(problem, 20, PerturbationStream(9), 3))
        want = pinned["coupled_m2_k24_n20"]
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("keys", [None, [5, 1, 9, 0, 2, 7]])
def test_reference_start_is_the_enks_start_bitwise(keys):
    # Time 0 is the initial draw itself, not a solve, so the coupled pair
    # starts from the same ensemble bit for bit.
    problem = make_toy_problem("linear-chain", m=2, k=3, seed=11)
    enks = enks_run(problem, 6, PerturbationStream(2024), member_indices=keys)
    reference = reference_enks_run(problem, 6, PerturbationStream(2024), member_indices=keys)
    np.testing.assert_array_equal(reference.analysis_ensembles[0], enks.analysis_ensembles[0])
    np.testing.assert_array_equal(reference.sample_means[0], enks.sample_means[0])


def test_exact_arms_do_not_run_the_smoother(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("ks_run called")

    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "ensvar"]:
        if hasattr(module, "ks_run"):
            monkeypatch.setattr(module, "ks_run", refuse)
    problem = make_toy_problem("linear-chain", m=2, k=3, seed=1)
    assert len(coupled_member_diffs(problem, 4, PerturbationStream(0), 2)) == 2
    assert len(reference_enks_run(problem, 4, PerturbationStream(0)).analysis_ensembles) == 4


def test_coupled_reference_gains_computed_once(monkeypatch):
    # The EnKS arm needs a new gain per replicate and step; the exact
    # reference needs one block factorization per study.
    calls = Counter()
    for name in ("_block_factor", "_sample_gain"):
        original = getattr(ensemble, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(ensemble, name, counting)
    problem = make_toy_problem("linear-chain", m=2, k=3, seed=1)
    coupled_member_diffs(problem, 4, PerturbationStream(0), 5)
    assert calls == {"_block_factor": 1, "_sample_gain": problem.horizon * 5}


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

    def test_each_key_drawn_once_per_replicate(self, w1, draw_log):
        stream = PerturbationStream(4)
        coupled_member_diffs(w1, 12, stream, 3)
        seeds = [derive_seed(stream.seed, r) for r in range(3)]
        expected = [(0, NoiseKind.INIT)] + [
            (i, kind) for i in range(1, w1.horizon + 1) for kind in (NoiseKind.MODEL, NoiseKind.OBS)
        ]
        for seed in seeds:
            drawn = [(t, kind) for s, _, _, t, kind, *_ in draw_log if s == seed]
            assert sorted(drawn) == sorted(expected)
        assert {s for s, *_ in draw_log} == set(seeds)
        assert all(members == tuple(range(12)) for *_, members, _ in draw_log)

    def test_rate_is_roughly_root_n(self, w1):
        errors = [
            empirical_lp_norm(coupled_member_diffs(w1, n, PerturbationStream(7), 20), 2.0)
            for n in (100, 1000)
        ]
        assert errors[1] < errors[0]
        ratio = np.log(errors[1] / errors[0]) / np.log(10.0)
        assert -0.8 < ratio < -0.2

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_negative_control_independent_reference_does_not_decay(self, seed):
        # The harness can fail: with the reference member on an independent
        # stream, the gap to EnKS member 1 is two independent draws, and
        # its L^2 norm stays flat in N; on the shared stream it decays
        # at N^(-1/2).  Public names only.
        problem = make_toy_problem("linear-chain", m=2, k=3, seed=11)
        sizes, replicates = (50, 500, 5000), 20

        def member_1(run, n, stream_seed):
            return run(problem, n, PerturbationStream(stream_seed)).analysis_ensembles[-1][0]

        coupled, independent = [], []
        for n in sizes:
            gaps = []
            for r in range(replicates):
                replicate_seed = derive_seed(seed, r)
                enks = member_1(enks_run, n, replicate_seed)
                gaps.append((
                    enks - member_1(reference_enks_run, 1, replicate_seed),
                    enks - member_1(reference_enks_run, 1, derive_seed(replicate_seed, 1)),
                ))
            coupled.append(empirical_lp_norm([same for same, _ in gaps], 2.0))
            independent.append(empirical_lp_norm([other for _, other in gaps], 2.0))
        assert -0.1 <= fit_loglog_slope(sizes, independent)[0] <= 0.1
        assert -0.7 <= fit_loglog_slope(sizes, coupled)[0] <= -0.3

    def test_replication_stability(self, w1):
        # Doubling the replicate count moves the estimate by < 30%.
        short = empirical_lp_norm(coupled_member_diffs(w1, 200, PerturbationStream(13), 25), 2.0)
        long = empirical_lp_norm(coupled_member_diffs(w1, 200, PerturbationStream(13), 50), 2.0)
        assert abs(long - short) / short < 0.3

    def test_diffs_have_replicate_count(self, w1):
        diffs = coupled_member_diffs(w1, 30, PerturbationStream(1), 7)
        assert len(diffs) == 7
        assert all(d.shape == (2,) for d in diffs)

    @pytest.mark.parametrize("sizes", [(16, 64), (64, 16), (2, 3, 100)])
    def test_shared_draws_match_one_size_calls_bitwise(self, sizes):
        # Keys 0..n-1 are a prefix of the largest size's keys, so the sizes
        # of one pass reproduce separate one-size passes bit for bit.
        problem = make_toy_problem("linear-chain", m=2, k=3, seed=4)
        cells = coupled_cells(problem, sizes, PerturbationStream(9), 3)
        assert len(cells) == len(sizes)
        for n, cell in zip(sizes, cells):
            separate = coupled_member_diffs(problem, n, PerturbationStream(9), 3)
            assert len(cell) == len(separate) == 3
            for shared, alone in zip(cell, separate):
                np.testing.assert_array_equal(shared, alone)

    def test_rejects_zero_replicates(self, w1):
        with pytest.raises(ValidationError):
            coupled_member_diffs(w1, 10, PerturbationStream(1), 0)

    def test_rejects_non_whole_sizes_and_replicates(self, w1):
        with pytest.raises(ValidationError, match="replicates must be an integer"):
            coupled_member_diffs(w1, 10, PerturbationStream(1), 2.5)
        with pytest.raises(ValidationError, match=r"^n_members must be an integer, got 10\.5$"):
            coupled_member_diffs(w1, 10.5, PerturbationStream(1), 2)
        whole = coupled_member_diffs(w1, 10.0, PerturbationStream(1), 2.0)
        for a, b in zip(whole, coupled_member_diffs(w1, 10, PerturbationStream(1), 2)):
            np.testing.assert_array_equal(a, b)

    @staticmethod
    def _peak_in_trajectories(m, k, sizes):
        """Traced peak of a warm two-replicate pass, in trajectories of the largest size."""
        problem = make_toy_problem("linear-chain", m=m, k=k, seed=0)
        coupled_cells(problem, sizes, PerturbationStream(20), 1)
        tracemalloc.start()
        try:
            coupled_cells(problem, sizes, PerturbationStream(20), 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / ((k + 1) * m * max(sizes) * 8)

    def test_pass_peak_memory_is_bounded_by_its_trajectories(self):
        # Each arm holds one trajectory array for the whole pass, so the
        # peak is a few trajectories of the largest size, not a copy per
        # step.  Every phase holds at most one m-row state block of
        # temporaries beside the trajectories: the gain fills P H^T block
        # by block, and no draw outlives its phase.
        assert self._peak_in_trajectories(3, 6, (50, 2000)) <= 1.85

    def test_long_pass_peak_memory_shrinks_toward_its_trajectories(self):
        # At k = 20 one state block is a small part of the trajectory, so
        # the peak comes closer to the trajectories alone than at k = 6.
        assert self._peak_in_trajectories(4, 20, (50, 2000)) <= 1.45

    def test_enks_rate_pass_peak_memory_is_bounded_by_its_trajectories(self):
        # The enks-rate study's shape: three arms sharing each draw.
        assert self._peak_in_trajectories(2, 3, (100, 1000, 10000)) <= 2.15

    def test_one_arm_pass_frees_its_innovations_before_the_next_draws(self):
        # One arm of 10^4 members at the enks-rate shape: a step's d x N
        # innovations must be gone before the next step's model draw, or
        # the peak holds both beside the trajectory (2.01 trajectories).
        problem = make_toy_problem("linear-chain", m=2, k=3, seed=0)
        step, keys = _linear_steps(problem, _linear_matrices(problem)), np.arange(10_000)
        _smoother_pass(problem, step, _noise(problem, PerturbationStream(20), keys), [keys.size])
        tracemalloc.start()
        try:
            _smoother_pass(problem, step, _noise(problem, PerturbationStream(20), keys), [keys.size])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / ((problem.horizon + 1) * problem.state_dim * keys.size * 8) <= 1.85
