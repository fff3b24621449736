import re
import sys
import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from ensvar import (
    fit_loglog_slope,
    LMConfig,
    MissingJacobianError,
    NoiseKind,
    NotSPDError,
    Operator,
    PerturbationStream,
    Phase,
    Trajectory,
    ValidationError,
    enks_4dvar_run,
    enks_run,
    fd_directional,
    ks_least_squares_oracle,
    ks_run,
    lm_enks_tangent_run,
    lm_exact_run,
    lm_exact_step,
    lm_run,
    lm_tangent_ls_oracle,
    make_toy_problem,
    objective,
)
from ensvar import fourdvar
from ensvar.fourdvar import _augmented_noise_cov, _lm_pass
from conftest import random_nonlinear_problem
from test_ensemble import PINNED_RUNS, DegenerateStream, coupled_cells

W1_TARGET = np.array([1.0, 2.0])


def _arms(cfg, taus):
    """The LM pass's arms for ``taus``: the tangent config for None, else
    the finite-difference config with that tau."""
    return tuple(
        replace(cfg, mode="tangent") if tau is None else replace(cfg, mode="finite-difference", tau=tau) for tau in taus
    )


class TestObjective:
    def test_w1_hand_value(self, w1):
        # |1-0|^2 + |2-1|^2 + |3-2|^2 = 3, term by term.
        assert objective(w1, Trajectory([[1.0], [2.0]])) == pytest.approx(3.0)

    def test_zero_everything(self, w1):
        quiet = replace(w1, observations=(np.array([0.0]),))
        assert objective(quiet, Trajectory([[0.0], [0.0]])) == pytest.approx(0.0)

    def test_prior_chain_with_perfect_observations(self):
        problem = random_nonlinear_problem(2, 3, seed=6)
        chain = problem.prior_chain()
        perfect = tuple(
            problem.obs_ops[i](chain[i + 1]) for i in range(problem.horizon)
        )
        fitted = replace(problem, observations=perfect)
        assert objective(fitted, chain) == pytest.approx(0.0, abs=1e-20)

    def test_rejects_wrong_shape(self, w1):
        with pytest.raises(ValidationError):
            objective(w1, Trajectory(np.zeros((3, 1))))


class TestAugment:
    def test_block_covariance(self, w1):
        np.testing.assert_array_equal(_augmented_noise_cov(w1, 1, 4.0), [[1.0, 0.0], [0.0, 0.25]])

    def test_strong_penalty_pins_iterate(self, w2):
        prev = w2.prior_chain()
        step = lm_exact_step(w2, prev, gamma=1e12)
        assert np.linalg.norm(step.composite - prev.composite) <= 1e-4


class TestFdDirectional:
    def test_linear_map_exact(self):
        out = fd_directional(lambda x: 2.0 * x, np.array([1.0]), np.array([3.0]), 0.1)
        assert out[0] == pytest.approx(6.0)

    def test_quadratic_taylor_bound(self):
        # f(x) = x^2 at x=1, y=1: quotient 2.1; the remainder tau*|y|^2*M
        # with M = sup |f''|/2 = 1 bounds the error |2.1 - 2| = 0.1.
        out = fd_directional(lambda x: x**2, np.array([1.0]), np.array([1.0]), 0.1)
        assert out[0] == pytest.approx(2.1)
        assert abs(out[0] - 2.0) <= 0.1 + 1e-12

    def test_zero_direction(self):
        out = fd_directional(lambda x: x**3, np.array([2.0, 1.0]), np.zeros(2), 0.5)
        np.testing.assert_array_equal(out, np.zeros(2))

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValidationError):
            fd_directional(lambda x: x, np.zeros(1), np.ones(1), 0.0)

    @pytest.mark.parametrize("tau", [np.nan, np.inf])
    def test_rejects_non_finite_tau(self, tau):
        with pytest.raises(ValidationError, match="tau"):
            fd_directional(lambda x: x, np.zeros(1), np.ones(1), tau)

    @pytest.mark.parametrize("tau", ["x", None, True])
    def test_rejects_a_tau_that_is_not_a_real_number(self, tau):
        with pytest.raises(ValidationError, match=r"^tau must be a real number, got "):
            fd_directional(lambda x: x, np.zeros(1), np.ones(1), tau)

    def test_reads_x_and_y_by_the_number_rule(self):
        # Both were read by np.asarray, so this returned [3.].
        with pytest.raises(ValidationError, match=r"^fd_directional x must hold real numbers, got True$"):
            fd_directional(lambda x: 2 * x, [True], [1.5], 0.1)
        with pytest.raises(ValidationError, match=r"^fd_directional y must hold real numbers, got '1\.5'$"):
            fd_directional(lambda x: 2 * x, [1.0], ["1.5"], 0.1)


class TestExactLM:
    @pytest.mark.parametrize("step", [lm_exact_step, lm_tangent_ls_oracle])
    def test_step_refuses_what_config_and_objective_refuse(self, step):
        # Both take a raw gamma and center: a negative or non-finite gamma,
        # and a trajectory one row short, are refused with LMConfig's and
        # objective's messages, not solved at gamma = 0 or left to an
        # IndexError or a misleading NotSPDError.
        problem = make_toy_problem("linear-chain", m=2, k=3, seed=1)
        for gamma in (-0.3, np.nan, np.inf):
            message = f"gamma must be finite and >= 0, got {gamma}"
            with pytest.raises(ValidationError, match=re.escape(message)):
                LMConfig(gamma=gamma)
            with pytest.raises(ValidationError, match=re.escape(message)):
                step(problem, problem.prior_chain(), gamma)
        short = Trajectory(problem.prior_chain().states[:-1])
        message = re.escape("trajectory shape (3, 2) does not match problem (4, 2)")
        with pytest.raises(ValidationError, match=message):
            objective(problem, short)
        with pytest.raises(ValidationError, match=message):
            step(problem, short, 1.0)

    def test_linear_one_shot(self, w1):
        cfg = LMConfig(gamma=0.0, max_iterations=1, mode="exact",
                       initial_trajectory=Trajectory([[5.0], [-3.0]]))
        run = lm_exact_run(w1, cfg)
        target = ks_run(w1).estimate.mean
        gap = np.linalg.norm(run.iterates[1].composite - target)
        assert gap <= 1e-8 * np.linalg.norm(target)

    def test_w1_damped_geometric_convergence(self, w1):
        cfg = LMConfig(gamma=1.0, max_iterations=5, mode="exact",
                       initial_trajectory=Trajectory([[0.0], [0.0]]))
        run = lm_exact_run(w1, cfg)
        errors = [np.linalg.norm(t.composite - W1_TARGET) for t in run.iterates]
        assert all(b < a for a, b in zip(errors, errors[1:]))
        ratios = [b / a for a, b in zip(errors, errors[1:])]
        assert max(ratios) < 1.0
        assert errors[5] <= 0.1

    def test_w2_objective_monotone(self, w2):
        cfg = LMConfig(gamma=1.0, max_iterations=10, mode="exact")
        run = lm_exact_run(w2, cfg)
        diffs = np.diff(run.objectives)
        assert np.all(diffs <= 1e-12)

    @pytest.mark.parametrize("centre", [1e153, 3e153, 3e154])
    def test_overflowing_step_is_validation_error(self, w2, centre):
        # The normal equations' right-hand side overflows to inf, and no
        # numpy warning comes before the refusal.
        with pytest.raises(ValidationError, match="normal equations solve contains non-finite"):
            lm_exact_step(w2, Trajectory([[centre], [centre]]), 1.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("mode", ["exact", "tangent", "finite-difference"])
    def test_non_finite_start_objective_is_refused_before_any_step(self, w2, mode, monkeypatch):
        # The model residual at the start is about 1e306; its square overflows.
        def no_step(*args, **kwargs):
            raise AssertionError("an LM step ran")

        monkeypatch.setattr(fourdvar, "lm_exact_step", no_step)
        monkeypatch.setattr(PerturbationStream, "draw_members", no_step)
        monkeypatch.setattr(PerturbationStream, "draw_keys", no_step)
        start = Trajectory([[1e153], [1e153]])
        cfg = LMConfig(gamma=1.0, mode=mode, ensemble_sizes=(8,), initial_trajectory=start)
        with pytest.raises(ValidationError, match=r"start objective is non-finite \(inf\)"):
            lm_run(w2, cfg, PerturbationStream(0))

    def test_missing_jacobian_fails_fast(self):
        problem = make_toy_problem("lorenz63", k=2)
        cfg = LMConfig(gamma=1.0, max_iterations=1, mode="exact")
        with pytest.raises(MissingJacobianError):
            lm_exact_run(problem, cfg)

    def test_linear_operator_without_a_matrix_has_its_matrix_as_jacobian(self):
        # ks_run ran on such an operator through as_matrix; exact LM raised
        # MissingJacobianError.
        base = make_toy_problem("linear-chain", m=2, k=3, seed=5)
        cfg = LMConfig(gamma=1.0, max_iterations=2, mode="exact")
        runs = [
            lm_exact_run(replace(base, model_ops=(op,) * base.horizon), cfg)
            for op in (Operator(apply=lambda x: 2 * x, linear=True), Operator.from_matrix(2 * np.eye(2)))
        ]
        assert runs[0].objectives == runs[1].objectives
        for flagged, matrix in zip(runs[0].iterates, runs[1].iterates):
            np.testing.assert_array_equal(flagged.states, matrix.states)

    def test_linear_operator_without_a_matrix_is_materialized_once(self):
        # Its matrix was rebuilt, m applications, at every step of every iteration.
        base = make_toy_problem("linear-chain", m=3, k=4, seed=5)
        basis = {tuple(e) for e in np.eye(base.state_dim)}
        calls = []

        def apply(x):
            calls.append(tuple(x) in basis)
            return 0.9 * x

        op = Operator(apply=apply, linear=True)
        lm_exact_run(replace(base, model_ops=(op,) * base.horizon), LMConfig(gamma=1.0, max_iterations=2))
        assert sum(calls) == base.state_dim
        assert not op.as_matrix(base.state_dim).flags.writeable

    @pytest.mark.parametrize("gamma", [0.1, 1.0, 10.0])
    def test_step_matches_normal_equations_oracle_w2(self, w2, gamma):
        x_prev = Trajectory([[0.3], [0.7]])
        step = lm_exact_step(w2, x_prev, gamma).composite
        oracle = lm_tangent_ls_oracle(w2, x_prev, gamma)
        assert np.linalg.norm(step - oracle) <= 1e-8 * np.linalg.norm(oracle)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("gamma", [0.1, 1.0, 10.0])
    def test_step_matches_oracle_random_nonlinear(self, seed, gamma):
        problem = random_nonlinear_problem(m=3, k=4, seed=seed)
        rng = np.random.default_rng(seed + 100)
        x_prev = Trajectory(0.3 * rng.standard_normal((5, 3)))
        step = lm_exact_step(problem, x_prev, gamma).composite
        oracle = lm_tangent_ls_oracle(problem, x_prev, gamma)
        assert np.linalg.norm(step - oracle) <= 1e-8 * np.linalg.norm(oracle)

    @pytest.mark.parametrize("gamma", [0.0, 1.0, 1e12])
    @pytest.mark.parametrize(
        "name", ["linear-chain", "w2-quadratic", "lorenz63", "linear-chain-m4-k24", "linear-chain-m24-k24"]
    )
    def test_banded_step_matches_oracle(self, name, gamma):
        problem = _exact_step_problem(name)
        x_prev = problem.prior_chain()
        step = lm_exact_step(problem, x_prev, gamma).composite
        oracle = lm_tangent_ls_oracle(problem, x_prev, gamma)
        assert np.linalg.norm(step - oracle) <= 1e-8 * np.linalg.norm(oracle)

    def test_gauss_newton_step_is_smoothing_mean_on_linear_problem(self):
        problem = make_toy_problem("linear-chain", m=3, k=6, seed=4)
        x_prev = Trajectory(np.random.default_rng(5).standard_normal((7, 3)))
        step = lm_exact_step(problem, x_prev, 0.0).composite
        target = ks_run(problem).estimate.mean
        assert np.linalg.norm(step - target) <= 1e-10 * np.linalg.norm(target)

    @pytest.mark.parametrize("name, params", [("w1-linear", {}), ("linear-chain", {"m": 3, "k": 5, "seed": 2})])
    def test_smoother_oracle_is_lm_oracle_at_gamma_zero(self, name, params, monkeypatch):
        # One dense assembly serves both oracles, and it stays independent
        # of the recursions it checks.
        def refuse(*args, **kwargs):
            raise AssertionError("a recursion under test was called")

        problem = make_toy_problem(name, **params)
        for module in [m for mod_name, m in sys.modules.items() if mod_name.split(".")[0] == "ensvar"]:
            for attr in ("_column_recursion", "_block_factor", "ks_run", "lm_exact_step"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
        x_prev = Trajectory(np.random.default_rng(3).standard_normal((problem.horizon + 1, problem.state_dim)))
        smoother = ks_least_squares_oracle(problem)
        lm = lm_tangent_ls_oracle(problem, x_prev, 0.0)
        assert np.linalg.norm(lm - smoother) <= 1e-10 * np.linalg.norm(smoother)

    def test_step_does_not_run_the_smoother(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("ks_run called")

        for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "ensvar"]:
            if hasattr(module, "ks_run"):
                monkeypatch.setattr(module, "ks_run", refuse)
        problem = make_toy_problem("linear-chain", m=2, k=3, seed=1)
        lm_exact_step(problem, problem.prior_chain(), 1.0)
        lm_exact_run(problem, LMConfig(gamma=0.0, max_iterations=2))


def _exact_step_problem(name: str):
    if name == "linear-chain":
        return make_toy_problem(name, m=4, k=6, seed=2)
    if name.startswith("linear-chain-"):  # a long window: linear-chain-m<m>-k<k>
        m, k = (int(part[1:]) for part in name.split("-")[2:])
        return make_toy_problem("linear-chain", m=m, k=k, seed=2)
    if name == "w2-quadratic":
        return make_toy_problem(name)
    # Lorenz-63 registers no Jacobian; any registered matrix serves to
    # compare two solvers of the same linearized system.
    problem = make_toy_problem(name, k=8)
    model = problem.model_ops[0]

    def jacobian(x):
        cols = [(model(x + 1e-6 * e) - model(x - 1e-6 * e)) / 2e-6 for e in np.eye(3)]
        return np.stack(cols, axis=1)

    return replace(problem, model_ops=(replace(model, jacobian=jacobian),) * 8)


def _plain_lm_enks(problem, cfg, keys, stream, tau):
    """Row-major EnKS-4DVAR, written without the package.

    Each LM iteration runs a perturbed-observation EnKS on the system
    linearized at the previous iterate, with the damping as a second
    observation of x_i: the previous iterate, with noise covariance
    I / gamma.  Rows are members in slot order.  Jacobian products are
    exact (``tau`` None) or forward differences through the operator, one
    row at a time.  The gain's cross-covariance comes from ``np.cov``;
    the observed deviations' own product is not re-centred, since forward
    differences of deviations need not sum to zero.  Returns every
    iterate and every iteration's final ensemble.
    """
    m, n = problem.state_dim, len(keys)

    def product(op, c, rows):
        if tau is None:
            return rows @ op.jacobian_at(c).T
        return np.array([(op(c + tau * row) - op(c)) / tau for row in rows])

    iterates, ensembles = [problem.prior_chain().states], []
    for j in range(1, cfg.max_iterations + 1):

        def draw(i, kind, cov):
            return stream.draw_members(Phase.LM, j, i, kind, keys, len(cov)) @ np.linalg.cholesky(cov).T

        center = iterates[-1]
        x = problem.background_mean + draw(0, NoiseKind.INIT, problem.background_cov)
        for i in range(1, problem.horizon + 1):
            mop, hop = problem.model_ops[i - 1], problem.obs_ops[i - 1]
            c_prev, c_i = center[i - 1], center[i]
            state = mop(c_prev) + product(mop, c_prev, x[:, -m:] - c_prev) + problem.forcings[i - 1]
            x = np.hstack([x, state + draw(i, NoiseKind.MODEL, problem.model_noise_covs[i - 1])])
            r = problem.obs_noise_covs[i - 1]
            r_aug = np.block([[r, np.zeros((len(r), m))], [np.zeros((m, len(r))), np.eye(m) / cfg.gamma]])
            dev = x[:, -m:] - x[:, -m:].mean(axis=0)
            observed = np.hstack([product(hop, c_i, dev), dev])
            pht = np.cov(np.hstack([x, observed]), rowvar=False)[: x.shape[1], x.shape[1] :]
            gain = np.linalg.solve(observed.T @ observed / (n - 1) + r_aug, pht.T).T
            predicted = np.hstack([hop(c_i) + product(hop, c_i, x[:, -m:] - c_i), x[:, -m:]])
            perturbed = np.concatenate([problem.observations[i - 1], c_i]) - draw(i, NoiseKind.OBS, r_aug)
            x = x + (perturbed - predicted) @ gain.T
        ensembles.append(x)
        iterates.append(x.mean(axis=0).reshape(-1, m))
    return iterates, ensembles


@pytest.mark.parametrize("tau", [None, 1e-3])
@pytest.mark.parametrize("name", ["linear-chain", "w2-quadratic", "lorenz63", "quadratic-observations"])
def test_ensemble_lm_matches_plain_row_major_oracle(name, tau):
    # An independent oracle of the ensemble LM step: permuted, sparse
    # member keys; every iterate and every final ensemble within 1e-10
    # relative, for the tangent and the finite-difference arm.  Only a
    # nonlinear observation operator gives the finite-difference observed
    # deviations a nonzero mean.
    if name == "quadratic-observations":
        problem = random_nonlinear_problem(m=3, k=4, seed=1)
    else:
        problem = _exact_step_problem(name)
    if name == "lorenz63":
        # The central-difference Jacobian turns round-off in its point into
        # noise near 1e-9; a smooth stand-in, the tangent of one Euler
        # step, keeps two solvers of the same system within round-off.
        def jacobian(x, dt=0.05, sigma=10.0, rho=28.0, beta=8.0 / 3.0):
            return np.eye(3) + dt * np.array([[-sigma, sigma, 0.0], [rho - x[2], -1.0, -x[0]], [x[1], x[0], -beta]])

        problem = replace(problem, model_ops=tuple(replace(op, jacobian=jacobian) for op in problem.model_ops))
    n = 12
    keys = np.random.default_rng(3).choice(5 * n, size=n, replace=False)
    mode = "tangent" if tau is None else "finite-difference"
    cfg = LMConfig(gamma=1.0, max_iterations=2, mode=mode, ensemble_sizes=(n,), tau=tau or 1e-3)
    run = lm_run(problem, cfg, PerturbationStream(8), member_indices=keys)
    iterates, ensembles = _plain_lm_enks(problem, cfg, keys, PerturbationStream(8), tau)
    got = [t.states for t in run.iterates] + list(run.ensembles)
    want = iterates + ensembles
    assert len(got) == len(want) == 2 * cfg.max_iterations + 1
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.abs(a - b).max() <= 1e-10 * max(np.abs(b).max(), 1.0)


def test_every_sample_covariance_step_runs_the_one_kernel(monkeypatch):
    # EnKS, coupled study and LM passes share one step loop, with one
    # forecast, one analysis step and one update; a second copy of any of
    # them would not be counted here.
    calls = Counter()
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "ensvar"]:
        for helper in ("_smoother_pass", "_forecast", "_sample_gain", "_update"):
            if hasattr(module, helper):

                def counting(*args, _original=getattr(module, helper), _helper=helper, **kwargs):
                    calls[_helper] += 1
                    return _original(*args, **kwargs)

                monkeypatch.setattr(module, helper, counting)
    problem = make_toy_problem("linear-chain", m=2, k=3, seed=1)
    k, replicates, iterations, sizes, arms = problem.horizon, 3, 2, (4, 8), (None, 1e-1, 1e-2)

    enks_run(problem, 6, PerturbationStream(0), member_indices=[5, 1, 9, 0, 2, 7])
    assert calls == {"_smoother_pass": 1, "_forecast": k, "_sample_gain": k, "_update": k}
    calls.clear()
    coupled_cells(problem, sizes, PerturbationStream(0), replicates)
    # The sample arms alone: the reference member is a solve, not a step.
    steps = len(sizes) * k * replicates
    assert calls == {"_smoother_pass": replicates, "_forecast": steps, "_sample_gain": steps, "_update": steps}
    calls.clear()
    cfg = LMConfig(gamma=1.0, max_iterations=iterations, mode="tangent", ensemble_sizes=(6,))
    _lm_pass(problem, _arms(cfg, arms))(PerturbationStream(0))
    steps = k * iterations * len(arms)
    want = {"_smoother_pass": iterations * len(arms), "_forecast": steps, "_sample_gain": steps, "_update": steps}
    assert calls == want


@pytest.mark.parametrize("mode", ["tangent", "finite-difference"])
def test_overflowing_lm_forecast_is_refused_by_the_gain_without_a_warning(mode):
    # 1e200 * I is finite and linear, but its forecast's sample products
    # overflow; the gain's factor refuses them, as in the EnKS.
    problem = make_toy_problem("linear-chain", m=2, k=4, seed=0)
    problem = replace(problem, model_ops=(Operator.from_matrix(1e200 * np.eye(2)),) * problem.horizon)
    start = Trajectory(np.zeros((problem.horizon + 1, problem.state_dim)))
    cfg = LMConfig(gamma=1.0, mode=mode, ensemble_sizes=(8,), initial_trajectory=start)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NotSPDError, match="innovation covariance contains non-finite entries"):
            lm_run(problem, cfg, PerturbationStream(0))


class TestTangentEnsembleLM:
    def test_matches_exact_lm_at_large_n(self, w1):
        n = 10_000
        cfg = LMConfig(gamma=1.0, max_iterations=2, mode="tangent", ensemble_sizes=(n,))
        run = lm_enks_tangent_run(w1, cfg, PerturbationStream(3))
        exact = lm_exact_run(w1, LMConfig(gamma=1.0, max_iterations=2, mode="exact"))
        sigma = run.ensembles[-1].std(axis=0, ddof=1)
        gap = np.abs(run.iterates[-1].composite - exact.iterates[-1].composite)
        np.testing.assert_array_less(gap, 4.0 * sigma / np.sqrt(n))

    def test_degenerate_init_completes(self, w1):
        cfg = LMConfig(gamma=1.0, max_iterations=2, mode="tangent", ensemble_sizes=(4,))
        run = lm_enks_tangent_run(w1, cfg, DegenerateStream(0))
        assert len(run.iterates) == 3
        assert all(np.isfinite(v) for v in run.objectives)

    def test_permuted_member_keys(self, w1):
        perm = np.random.default_rng(2).permutation(8)
        cfg = LMConfig(gamma=1.0, max_iterations=2, mode="tangent", ensemble_sizes=(8,))
        base = lm_enks_tangent_run(w1, cfg, PerturbationStream(5))
        permuted = lm_enks_tangent_run(w1, cfg, PerturbationStream(5), member_indices=perm)
        for pe, be in zip(permuted.ensembles, base.ensembles):
            np.testing.assert_array_equal(pe, be[perm])
        for a, b in zip(base.iterates, permuted.iterates):
            np.testing.assert_array_equal(a.states, b.states)

    def test_requires_positive_gamma(self):
        # Refused when the config is built, not when it runs.
        with pytest.raises(ValidationError, match=r"^ensemble LM modes require gamma > 0$"):
            LMConfig(gamma=0.0, max_iterations=1, mode="tangent", ensemble_sizes=(4,))

    def test_ensemble_size_schedule(self, w2):
        cfg = LMConfig(gamma=1.0, max_iterations=3, mode="tangent", ensemble_sizes=(8, 16))
        run = lm_enks_tangent_run(w2, cfg, PerturbationStream(1))
        assert [e.shape[0] for e in run.ensembles] == [8, 16, 16]


class TestFiniteDifferenceLM:
    @pytest.mark.parametrize("tau", [1.0, 1e-3])
    def test_exact_on_linear_operators(self, w1, tau):
        cfg_fd = LMConfig(gamma=1.0, max_iterations=2, mode="finite-difference",
                          ensemble_sizes=(64,), tau=tau)
        cfg_tan = LMConfig(gamma=1.0, max_iterations=2, mode="tangent", ensemble_sizes=(64,))
        fd = enks_4dvar_run(w1, cfg_fd, PerturbationStream(9))
        tan = lm_enks_tangent_run(w1, cfg_tan, PerturbationStream(9))
        for a, b in zip(fd.iterates, tan.iterates):
            scale = max(np.linalg.norm(b.composite), 1.0)
            assert np.linalg.norm(a.composite - b.composite) <= 1e-9 * scale

    def test_tau_sweep_first_order(self, w2):
        taus = (1e-1, 1e-2, 1e-3, 1e-4)
        cfg_tan = LMConfig(gamma=1.0, max_iterations=2, mode="tangent", ensemble_sizes=(200,))
        target = lm_enks_tangent_run(w2, cfg_tan, PerturbationStream(11)).iterates[-1].composite
        errors = []
        for tau in taus:
            cfg = LMConfig(gamma=1.0, max_iterations=2, mode="finite-difference",
                           ensemble_sizes=(200,), tau=tau)
            run = enks_4dvar_run(w2, cfg, PerturbationStream(11))
            errors.append(np.linalg.norm(run.iterates[-1].composite - target))
        assert all(b < a for a, b in zip(errors, errors[1:]))
        slope, _ = fit_loglog_slope(taus, errors)
        assert 0.7 <= slope <= 1.3

    def test_bit_identical_reruns(self, w2):
        cfg = LMConfig(gamma=1.0, max_iterations=2, mode="finite-difference",
                       ensemble_sizes=(16,), tau=1e-2)
        a = enks_4dvar_run(w2, cfg, PerturbationStream(21))
        b = enks_4dvar_run(w2, cfg, PerturbationStream(21))
        for ea, eb in zip(a.ensembles, b.ensembles):
            np.testing.assert_array_equal(ea, eb)

    def test_no_jacobian_needed(self):
        problem = make_toy_problem("lorenz63", k=2)
        cfg = LMConfig(gamma=1.0, max_iterations=1, mode="finite-difference",
                       ensemble_sizes=(16,), tau=1e-3)
        run = enks_4dvar_run(problem, cfg, PerturbationStream(0))
        assert all(np.isfinite(v) for v in run.objectives)

    def test_rejects_bad_tau_or_gamma(self):
        with pytest.raises(ValidationError):
            LMConfig(gamma=1.0, tau=0.0, mode="finite-difference", ensemble_sizes=(4,))
        with pytest.raises(ValidationError, match=r"^ensemble LM modes require gamma > 0$"):
            LMConfig(gamma=0.0, max_iterations=1, mode="finite-difference", ensemble_sizes=(4,))

    @pytest.mark.parametrize("name, params", [("w2-quadratic", {}), ("lorenz63", {"k": 3})])
    def test_row_loop_fallback_matches_batched_rows(self, name, params):
        problem = make_toy_problem(name, **params)
        looped = replace(
            problem, model_ops=tuple(replace(op, rows=None) for op in problem.model_ops)
        )
        cfg = LMConfig(gamma=1.0, max_iterations=2, mode="finite-difference",
                       ensemble_sizes=(16,), tau=1e-3)
        batched = enks_4dvar_run(problem, cfg, PerturbationStream(4))
        fallback = enks_4dvar_run(looped, cfg, PerturbationStream(4))
        for a, b in zip(batched.ensembles, fallback.ensembles):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("name, params", [("w2-quadratic", {}), ("lorenz63", {"k": 3})])
    def test_permuted_member_keys(self, name, params):
        problem = make_toy_problem(name, **params)
        perm = np.random.default_rng(2).permutation(8)
        cfg = LMConfig(gamma=1.0, max_iterations=2, mode="finite-difference",
                       ensemble_sizes=(8,), tau=1e-3)
        base = enks_4dvar_run(problem, cfg, PerturbationStream(5))
        permuted = enks_4dvar_run(problem, cfg, PerturbationStream(5), member_indices=perm)
        for pe, be in zip(permuted.ensembles, base.ensembles):
            np.testing.assert_array_equal(pe, be[perm])
        for a, b in zip(base.iterates, permuted.iterates):
            np.testing.assert_array_equal(a.states, b.states)

    def test_model_evaluated_at_center_once_per_step(self):
        k, iterations = 3, 2
        problem = make_toy_problem("lorenz63", k=k)
        model = problem.model_ops[0]
        calls = {"apply": 0, "rows": 0}

        def counted(key, fn):
            def wrapped(x):
                calls[key] += 1
                return fn(x)

            return wrapped

        counting = Operator(apply=counted("apply", model.apply), rows=counted("rows", model.rows))
        problem = replace(problem, model_ops=(counting,) * k)

        def single_state_calls(n):
            calls.update(apply=0, rows=0)
            cfg = LMConfig(gamma=1.0, max_iterations=iterations, mode="finite-difference",
                           ensemble_sizes=(n,), tau=1e-3)
            enks_4dvar_run(problem, cfg, PerturbationStream(0))
            # One batched call per step carries every member.
            assert calls["rows"] == k * iterations
            return calls["apply"]

        # Besides validation and objective values, the pass evaluates each
        # step's center once; a per-member f(center) would scale with N.
        assert single_state_calls(8) == single_state_calls(64)


class TestSharedPass:
    """The arms of one keyed pass are the separate runs, bit for bit."""

    @pytest.mark.parametrize(
        "name, params, sizes, iterations",
        [("w2-quadratic", {}, (16, 32), 2), ("linear-chain", {"m": 3, "k": 4, "seed": 2}, (60, 120), 3)],
    )
    def test_arms_equal_separate_runs(self, name, params, sizes, iterations):
        problem = make_toy_problem(name, **params)
        taus = (1e-1, 1e-2, 1e-3)
        cfg = LMConfig(gamma=1.0, max_iterations=iterations, mode="tangent", ensemble_sizes=sizes)
        arms = _lm_pass(problem, _arms(cfg, (None, *taus)))(PerturbationStream(7))
        separate = [lm_enks_tangent_run(problem, cfg, PerturbationStream(7))] + [
            enks_4dvar_run(problem, replace(cfg, mode="finite-difference", tau=tau), PerturbationStream(7))
            for tau in taus
        ]
        for arm, run in zip(arms, separate, strict=True):
            assert arm.mode == run.mode
            assert arm.objectives == run.objectives
            assert all(np.array_equal(a.states, b.states) for a, b in zip(arm.iterates, run.iterates, strict=True))
            assert all(np.array_equal(a, b) for a, b in zip(arm.ensembles, run.ensembles, strict=True))
            assert arm.max_member_norms == run.max_member_norms
            assert len(arm.ensembles) == iterations

    @pytest.mark.parametrize(
        "name, toy, params", [("w2", "w2-quadratic", {}), ("chain_m3_k4", "linear-chain", {"m": 3, "k": 4, "seed": 2})]
    )
    def test_pass_pinned(self, name, toy, params):
        # A tangent arm and two finite-difference arms over a (30, 60)
        # schedule, pinned bit for bit: a change to the LM step's arithmetic
        # must show here and update the file on purpose.
        cfg = LMConfig(gamma=1.0, max_iterations=2, mode="tangent", ensemble_sizes=(30, 60))
        arms = _lm_pass(make_toy_problem(toy, **params), _arms(cfg, (None, 1e-1, 1e-2)))(PerturbationStream(23))
        with np.load(PINNED_RUNS) as pinned:
            for a, run in enumerate(arms):
                key = f"lm_{name}_arm{a}"
                np.testing.assert_array_equal(np.stack([t.states for t in run.iterates]), pinned[f"{key}_iterates"])
                np.testing.assert_array_equal(run.objectives, pinned[f"{key}_objectives"])
                assert len(run.ensembles) == 2
                for j, ensemble in enumerate(run.ensembles):
                    np.testing.assert_array_equal(ensemble, pinned[f"{key}_ensemble_{j}"])

    def test_arms_of_different_sizes_equal_one_size_passes(self, w2, monkeypatch):
        # Each iteration draws its keys once, at the largest arm's 6000
        # members (3 blocks each, so two 2^14-block member chunks), and the
        # smaller arms read the first n columns: keys 0..n-1, bit for bit
        # their own draws.
        chunks, original = [], PerturbationStream.draw_keys

        def counted(self, *args):
            for chunk in original(self, *args):
                chunks.append(chunk[0])
                yield chunk

        monkeypatch.setattr(PerturbationStream, "draw_keys", counted)
        cfg = LMConfig(gamma=1.0, max_iterations=2, mode="tangent", ensemble_sizes=(16,))
        arms = tuple(replace(cfg, ensemble_sizes=(n,)) for n in (50, 400, 6000))
        shared = _lm_pass(w2, arms)(PerturbationStream(8))
        assert len(chunks) == 2 * cfg.max_iterations
        for arm, run in zip(arms, shared, strict=True):
            (alone,) = _lm_pass(w2, (arm,))(PerturbationStream(8))
            assert run.objectives == alone.objectives
            assert all(np.array_equal(a.states, b.states) for a, b in zip(run.iterates, alone.iterates, strict=True))
            assert all(np.array_equal(a, b) for a, b in zip(run.ensembles, alone.ensembles, strict=True))
            assert run.max_member_norms == alone.max_member_norms

    def test_arms_of_different_sizes_refuse_member_indices(self, w2):
        # Prefix columns are keys 0..n-1, which caller-given keys are not.
        cfg = LMConfig(gamma=1.0, max_iterations=1, mode="tangent", ensemble_sizes=(8,))
        arms = (cfg, replace(cfg, ensemble_sizes=(16,)))
        with pytest.raises(ValidationError, match=r"^arms of different ensemble sizes \[8, 16\] cannot share member_indices$"):
            _lm_pass(w2, arms, list(range(16)))(PerturbationStream(0))
        same = _lm_pass(w2, (cfg, cfg), list(range(8, 0, -1)))(PerturbationStream(0))
        assert same[0].objectives == same[1].objectives

    @pytest.mark.parametrize("mode", ["tangent", "finite-difference"])
    def test_member_indices_checked_before_the_first_draw(self, mode, monkeypatch):
        # Iteration 2's size does not match the keys; no iteration may
        # draw before that is refused.
        drawn = []
        monkeypatch.setattr(fourdvar, "_noises", lambda *args, **kwargs: drawn.append(args))
        problem = make_toy_problem("linear-chain", m=2, k=3, seed=0)
        cfg = LMConfig(gamma=1.0, max_iterations=2, mode=mode, ensemble_sizes=(10, 20))
        with pytest.raises(ValidationError, match=r"^member_indices has 10 entries, expected 20$"):
            lm_run(problem, cfg, PerturbationStream(0), member_indices=range(10))
        assert drawn == []

    def test_kept_ensembles_share_no_memory(self):
        # Every arm and every iteration fills an array of its own; a kept
        # ensemble must not be overwritten by a later arm or iteration.
        problem = make_toy_problem("linear-chain", m=2, k=3, seed=2)
        cfg = LMConfig(gamma=1.0, max_iterations=3, mode="tangent", ensemble_sizes=(12,))
        arms = _lm_pass(problem, _arms(cfg, (None, 1e-1, 1e-2)))(PerturbationStream(5))
        kept = [e for arm in arms for e in arm.ensembles]
        assert len(kept) == 9
        for i, a in enumerate(kept):
            assert not any(np.shares_memory(a, b) for b in kept[i + 1 :])

    def test_dropping_ensembles_keeps_iterates(self, w2):
        cfg = LMConfig(gamma=1.0, max_iterations=2, mode="tangent", ensemble_sizes=(16,))
        kept = _lm_pass(w2, _arms(cfg, (None, 1e-2)))(PerturbationStream(3))
        dropped = _lm_pass(w2, _arms(cfg, (None, 1e-2)), keep_ensembles=False)(PerturbationStream(3))
        for a, b in zip(kept, dropped, strict=True):
            assert a.objectives == b.objectives
            assert all(np.array_equal(x.states, y.states) for x, y in zip(a.iterates, b.iterates))
            assert b.ensembles == () and b.max_member_norms == ()

    def test_later_iterations_do_not_raise_the_peak(self):
        # Each iteration's draws, and its last arm's arrays, are freed
        # before the next iteration draws, so without kept ensembles a
        # second iteration peaks no higher than the first.
        problem = make_toy_problem("linear-chain", m=6, k=6, seed=0)
        peaks = []
        for iterations in (1, 2):
            cfg = LMConfig(gamma=1.0, max_iterations=iterations, mode="tangent", ensemble_sizes=(2000,))
            _lm_pass(problem, _arms(cfg, (None,)), keep_ensembles=False)(PerturbationStream(0))
            tracemalloc.start()
            try:
                _lm_pass(problem, _arms(cfg, (None,)), keep_ensembles=False)(PerturbationStream(0))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.02 * peaks[0]

    def test_each_covariance_factored_once(self, monkeypatch):
        problem = make_toy_problem("linear-chain", m=2, k=3, seed=1)
        k, arms, iterations = problem.horizon, 5, 2
        calls, in_objective, objectives = [], [], []
        for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "ensvar"]:
            if hasattr(module, "_factor"):
                original = module._factor

                def recording(a, name, _original=original):
                    calls.append((name, np.array(a), bool(in_objective)))
                    return _original(a, name)

                monkeypatch.setattr(module, "_factor", recording)
        objective_original = fourdvar.objective

        def flagged(*args):
            objectives.append(1)
            in_objective.append(1)
            try:
                return objective_original(*args)
            finally:
                in_objective.pop()

        monkeypatch.setattr(fourdvar, "objective", flagged)
        # Building the problem factors B, each Q_i and each R_i, once.
        problem = replace(problem)
        cfg = LMConfig(gamma=2.0, max_iterations=iterations, mode="tangent", ensemble_sizes=(8,))
        taus = (None, 1e-1, 1e-2, 1e-3, 1e-4)
        _lm_pass(problem, _arms(cfg, taus))(PerturbationStream(4))

        # The start objective is shared by the arms; each iterate gets one.
        assert len(objectives) == 1 + arms * iterations
        assert not any(inside for *_, inside in calls)
        once = ["background_cov"] + [f"{field}[{i}]" for field in ("model_noise_covs", "obs_noise_covs") for i in range(1, k + 1)]
        # Every other factorization is an innovation covariance of one
        # arm's analysis step.
        assert Counter(name for name, *_ in calls) == Counter(
            {**dict.fromkeys(once, 1), "augmented obs cov": k, "innovation covariance": arms * iterations * k}
        )
        augmented = [a for name, a, _ in calls if name == "augmented obs cov"]
        for i, a in enumerate(augmented, start=1):
            np.testing.assert_array_equal(a, _augmented_noise_cov(problem, i, cfg.gamma))

    def test_each_key_drawn_once(self, w2, draw_log):
        cfg = LMConfig(gamma=1.0, max_iterations=2, mode="tangent", ensemble_sizes=(8,))
        _lm_pass(w2, _arms(cfg, (None, 1e-1, 1e-2, 1e-3)))(PerturbationStream(6))
        shared = draw_log.copy()
        draw_log.clear()
        lm_enks_tangent_run(w2, cfg, PerturbationStream(6))
        assert shared and shared == draw_log

    def test_one_draw_pass_per_iteration(self, monkeypatch):
        # An LM iteration's init key, k model keys and k augmented-observation
        # keys come from one kernel pass; no key is drawn on its own.
        problem = make_toy_problem("linear-chain", m=3, k=4, seed=2)
        passes, original = [], PerturbationStream.draw_keys

        def counted(self, phase, iteration, keys, members):
            passes.append((phase, iteration, [(time_index, kind) for time_index, kind, _ in keys]))
            return original(self, phase, iteration, keys, members)

        def alone(*args, **kwargs):
            raise AssertionError("a key was drawn on its own")

        monkeypatch.setattr(PerturbationStream, "draw_keys", counted)
        monkeypatch.setattr(PerturbationStream, "draw_members", alone)
        cfg = LMConfig(gamma=1.0, max_iterations=3, mode="tangent", ensemble_sizes=(8,))
        _lm_pass(problem, _arms(cfg, (None, 1e-2)))(PerturbationStream(6))
        steps = range(1, problem.horizon + 1)
        keys = [(0, NoiseKind.INIT), *((i, NoiseKind.MODEL) for i in steps), *((i, NoiseKind.OBS) for i in steps)]
        assert passes == [(Phase.LM, j, keys) for j in (1, 2, 3)]


class TestDispatcherAndConfig:
    def test_lm_run_dispatch(self, w1):
        exact = lm_run(w1, LMConfig(gamma=0.0, max_iterations=1, mode="exact"))
        assert exact.mode == "exact"
        tangent = lm_run(
            w1,
            LMConfig(gamma=1.0, max_iterations=1, mode="tangent", ensemble_sizes=(4,)),
            PerturbationStream(0),
        )
        assert tangent.mode == "tangent"
        with pytest.raises(ValidationError):
            lm_run(w1, LMConfig(gamma=1.0, mode="tangent", ensemble_sizes=(4,)))

    @pytest.mark.parametrize("mode", ["tangent", "finite-difference"])
    def test_ensemble_modes_need_a_schedule_when_built(self, mode):
        # Both were built and refused only once run, and "" read as no sizes.
        with pytest.raises(ValidationError, match=r"^ensemble mode requires a nonempty ensemble_sizes schedule$"):
            LMConfig(gamma=1.0, mode=mode)
        with pytest.raises(ValidationError, match=r"^ensemble_sizes must be a sequence, got ''$"):
            LMConfig(gamma=1.0, mode=mode, ensemble_sizes="")
        assert LMConfig(gamma=0.0).ensemble_sizes == ()  # the exact mode needs neither

    def test_initial_trajectory_reads_nested_lists(self):
        # The one reader of the field serves a config's nested lists and a Python caller alike.
        cfg = LMConfig(gamma=1.0, initial_trajectory=[[0.0], [1.0]])
        np.testing.assert_array_equal(cfg.initial_trajectory.states, [[0.0], [1.0]])
        with pytest.raises(ValidationError, match=r"^initial_trajectory must be finite, non-empty and at most 2-d, got "):
            LMConfig(gamma=1.0, initial_trajectory=[[np.nan], [1.0]])

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            LMConfig(gamma=-1.0)
        with pytest.raises(ValidationError):
            LMConfig(gamma=1.0, max_iterations=0)
        with pytest.raises(ValidationError):
            LMConfig(gamma=1.0, mode="newton")
        with pytest.raises(ValidationError):
            LMConfig(gamma=1.0, ensemble_sizes=(1,))

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"max_iterations": 2.5}, "max_iterations must be an integer, got 2.5"),
            ({"max_iterations": "2"}, "max_iterations must be an integer, got '2'"),
            ({"ensemble_sizes": (16.7,)}, "ensemble_sizes[1] must be an integer, got 16.7"),
            ({"ensemble_sizes": (16, "8")}, "ensemble_sizes[2] must be an integer, got '8'"),
        ],
    )
    def test_config_refuses_a_count_that_is_not_whole(self, kwargs, message):
        # Refused, never truncated: a truncated 16.7 would run 16 members.
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            LMConfig(gamma=1.0, mode="tangent", **kwargs)

    def test_config_takes_whole_floats_as_ints(self):
        cfg = LMConfig(gamma=1.0, max_iterations=2.0, ensemble_sizes=(np.float64(16.0), 8))
        assert cfg.max_iterations == 2 and cfg.ensemble_sizes == (16, 8)
        assert type(cfg.max_iterations) is int and all(type(n) is int for n in cfg.ensemble_sizes)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"max_iterations": True}, "max_iterations must be an integer, got True"),
            ({"ensemble_sizes": (16, np.True_)}, f"ensemble_sizes[2] must be an integer, got {np.True_!r}"),
            ({"gamma": True}, "gamma must be a real number, got True"),
            ({"gamma": "abc"}, "gamma must be a real number, got 'abc'"),
            ({"gamma": None}, "gamma must be a real number, got None"),
            ({"tau": "x"}, "tau must be a real number, got 'x'"),
            ({"tau": np.False_}, f"tau must be a real number, got {np.False_!r}"),
            ({"ensemble_sizes": 5}, "ensemble_sizes must be a sequence, got 5"),
            ({"initial_trajectory": "x"}, "initial_trajectory must hold real numbers, got 'x'"),
        ],
    )
    def test_config_refuses_fields_of_the_wrong_type(self, kwargs, message):
        # Each was a raw TypeError or AttributeError, or a boolean read as
        # a number, before the fields were read by type.
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            LMConfig(**{"gamma": 1.0, "mode": "tangent", **kwargs})

    @pytest.mark.parametrize("field", ["gamma", "tau"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_config_rejects_non_finite(self, field, value):
        kwargs = {"gamma": 1.0, field: value}
        with pytest.raises(ValidationError, match=field):
            LMConfig(**kwargs)

    def test_shared_stream_keys_between_modes(self, w2, draw_log):
        # The coupling contract: both ensemble modes consume the identical
        # key sequence, asserted by diffing draw logs.
        cfg_tan = LMConfig(gamma=1.0, max_iterations=2, mode="tangent", ensemble_sizes=(8,))
        cfg_fd = LMConfig(gamma=1.0, max_iterations=2, mode="finite-difference",
                          ensemble_sizes=(8,), tau=1e-2)
        lm_enks_tangent_run(w2, cfg_tan, PerturbationStream(6))
        log_tan = draw_log.copy()
        draw_log.clear()
        enks_4dvar_run(w2, cfg_fd, PerturbationStream(6))
        assert log_tan and log_tan == draw_log
