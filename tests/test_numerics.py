import ctypes

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.linalg import _umath_linalg

from ensvar import (
    LMConfig,
    NoiseKind,
    NotSPDError,
    PerturbationStream,
    Phase,
    ValidationError,
    cholesky_spd,
    coupled_member_diffs,
    empirical_lp_norm,
    enks_run,
    fit_loglog_slope,
    kf_run,
    ks_run,
    lm_exact_run,
    lm_run,
    make_toy_problem,
    sample_covariance,
    sample_mean,
    spd_solve,
)
from ensvar import numerics
from ensvar.numerics import _factor, _solve


def _random_spd(rng, dim):
    g = rng.standard_normal((dim, dim))
    return g @ g.T + 0.1 * np.eye(dim)


class TestCholesky:
    def test_identity(self):
        np.testing.assert_array_equal(cholesky_spd(np.eye(3)), np.eye(3))

    def test_scalar(self):
        np.testing.assert_array_equal(cholesky_spd([[4.0]]), [[2.0]])

    def test_reconstruction(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        factor = cholesky_spd(a)
        assert np.linalg.norm(factor @ factor.T - a) <= 1e-12 * np.linalg.norm(a)

    def test_not_spd(self):
        with pytest.raises(NotSPDError):
            cholesky_spd(np.zeros((2, 2)))
        with pytest.raises(NotSPDError):
            cholesky_spd(np.diag([1.0, -1.0]))
        with pytest.raises(NotSPDError):
            cholesky_spd(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_not_square(self):
        with pytest.raises(NotSPDError, match=r"^B is not square: shape \(2, 3\)$"):
            cholesky_spd(np.ones((2, 3)), name="B")

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), dim=st.integers(1, 6))
    def test_reconstruction_random(self, seed, dim):
        a = _random_spd(np.random.default_rng(seed), dim)
        factor = cholesky_spd(a)
        assert np.linalg.norm(factor @ factor.T - a) <= 1e-10 * np.linalg.norm(a)


class TestSpdSolve:
    def test_identity(self):
        np.testing.assert_array_equal(spd_solve(np.eye(2), np.array([3.0, 4.0])), [3.0, 4.0])

    def test_scalar(self):
        np.testing.assert_allclose(spd_solve([[2.0]], [6.0]), [3.0])

    def test_two_by_two(self):
        x = spd_solve(np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([3.0, 3.0]))
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-14)

    @pytest.mark.parametrize("b", [np.array([3.0, 3.0]), np.asfortranarray([[3.0, 1.0], [3.0, 2.0]])], ids=["1-D", "F-order"])
    def test_right_hand_side_is_left_as_it_was(self, b):
        # LAPACK overwrites its right-hand side with x; the caller's b must not be that buffer.
        before = b.copy()
        x = spd_solve(np.array([[2.0, 1.0], [1.0, 2.0]]), b)
        np.testing.assert_array_equal(b, before)
        assert not np.shares_memory(x, b)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), dim=st.integers(1, 6))
    def test_residual_bound(self, seed, dim):
        rng = np.random.default_rng(seed)
        a = _random_spd(rng, dim)
        b = rng.standard_normal(dim)
        x = spd_solve(a, b)
        bound = 1e-9 * (np.linalg.norm(a) * np.linalg.norm(x) + np.linalg.norm(b))
        assert np.linalg.norm(a @ x - b) <= bound

    def test_not_spd(self):
        with pytest.raises(NotSPDError):
            spd_solve(np.diag([1.0, -1.0]), np.ones(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_is_not_spd(self, bad):
        with pytest.raises(NotSPDError, match="gram has a non-finite Frobenius norm"):
            spd_solve([[bad]], [1.0], name="gram")
        with pytest.raises(NotSPDError, match="gram has a non-finite Frobenius norm"):
            cholesky_spd(np.array([[1.0, bad], [bad, 1.0]]), "gram")

    def test_huge_finite_matrix_is_spd(self):
        # Entries above about 1e154 overflow the unscaled Frobenius norm.
        np.testing.assert_array_equal(cholesky_spd([[1e200]]), [[1e100]])
        np.testing.assert_allclose(spd_solve(1e200 * np.eye(2), [1e200, 2e200]), [1.0, 2.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_huge_matrix_with_non_finite_entry(self, bad):
        with pytest.raises(NotSPDError, match="gram has a non-finite Frobenius norm"):
            cholesky_spd(np.array([[1e200, 0.0], [0.0, bad]]), "gram")

    def test_non_finite_right_hand_side(self):
        with pytest.raises(ValidationError, match="right-hand side of the gram solve"):
            spd_solve(np.eye(2), [1.0, np.nan], name="gram")


class TestKernel:
    """The private factor/solve pair: numpy's LAPACK, checked against scipy's."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        dim=st.integers(1, 12),
        rhs=st.sampled_from(["1-D", "2-D", "F-ordered view"]),
    )
    def test_matches_scipy(self, seed, dim, rhs):
        rng = np.random.default_rng(seed)
        a = _random_spd(rng, dim)
        b = {
            "1-D": lambda: rng.standard_normal(dim),
            "2-D": lambda: rng.standard_normal((dim, 3)),
            # Like the analysis kernel's pht.T: a transposed C-ordered array.
            "F-ordered view": lambda: rng.standard_normal((7, dim)).T,
        }[rhs]()
        factor = _factor(a, "a")
        _assert_close(factor, scipy.linalg.cholesky(a, lower=True))
        np.testing.assert_array_equal(cholesky_spd(a), factor)
        want = scipy.linalg.cho_solve(scipy.linalg.cho_factor(a, lower=True), b)
        _assert_close(_solve(factor, b, "a"), want)
        np.testing.assert_array_equal(spd_solve(a, b), _solve(factor, b, "a"))

    def test_reads_only_the_lower_triangle(self):
        a = np.array([[4.0, 99.0], [2.0, 5.0]])
        np.testing.assert_array_equal(_factor(a, "a"), [[2.0, 0.0], [1.0, 2.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_names_the_matrix(self, bad):
        with pytest.raises(NotSPDError, match="gram contains non-finite entries"):
            _factor(np.array([[1.0, bad], [0.0, 1.0]]), "gram")
        with pytest.raises(ValidationError, match="right-hand side of the gram solve"):
            _solve(np.eye(2), np.array([[1.0], [bad]]), "gram")

    def test_not_positive_definite(self):
        with pytest.raises(NotSPDError, match="gram is not positive definite"):
            _factor(np.diag([1.0, -1.0]), "gram")

    def test_shapes_that_do_not_match(self):
        for factor, b in [(np.eye(2), np.ones(3)), (np.eye(2), np.ones(1)), (np.eye(2), np.float64(1.0)), (np.ones((2, 1)), np.ones(2))]:
            with pytest.raises(ValueError, match="the gram solve got a factor of shape"):
                _solve(factor, b, "gram")

    def test_empty_inputs(self):
        assert _factor(np.zeros((0, 0)), "a").shape == (0, 0)
        assert _solve(np.eye(2), np.zeros((2, 0)), "a").shape == (2, 0)


def _assert_close(x, y):
    """x equals y within 1e-14 relative to y's largest entry, shape and all."""
    assert x.shape == y.shape
    assert np.abs(x - y).max(initial=0.0) <= 1e-14 * np.abs(y).max(initial=0.0)


_SIZES = (1, 2, 24, 120)
_RHS_SHAPES = ((), (5,))
_LAYOUTS = {
    "C": lambda a: np.ascontiguousarray(a),
    "F": lambda a: np.asfortranarray(a),
    "strided": lambda a: np.repeat(a, 2, axis=-1)[..., ::2],
    "read-only": lambda a: np.frombuffer(np.ascontiguousarray(a).tobytes()).reshape(a.shape),
}


class TestLapackHandle:
    """dpotrf and dpotrs come from numpy's own LAPACK, and no other routine."""

    @pytest.mark.parametrize("layout", _LAYOUTS)
    @pytest.mark.parametrize("dim", _SIZES)
    @pytest.mark.parametrize("shape", _RHS_SHAPES, ids=["1-D", "2-D"])
    def test_direct_calls_match_scipy(self, dim, shape, layout):
        rng = np.random.default_rng(dim)
        a = _random_spd(rng, dim)
        b = rng.standard_normal((dim, *shape))
        as_layout = _LAYOUTS[layout]
        want = scipy.linalg.cholesky(a, lower=True)
        factor = _factor(as_layout(a), "a")
        assert factor.flags.f_contiguous and factor.flags.writeable
        _assert_close(factor, want)
        x = _solve(as_layout(want), as_layout(b), "a")
        _assert_close(x, scipy.linalg.cho_solve((want, True), b))
        assert x.flags.writeable

    def test_routines_are_numpys(self):
        library = ctypes.CDLL(_umath_linalg.__file__)
        address = lambda routine: ctypes.cast(routine, ctypes.c_void_p).value  # noqa: E731
        found = [
            pattern for pattern, _ in numerics._LAPACK_SYMBOLS if hasattr(library, pattern.format("dpotrf"))
        ]
        assert found, "numpy's LAPACK exports no name in the table"
        assert address(numerics._POTRF) == address(getattr(library, found[0].format("dpotrf")))
        assert address(numerics._POTRS) == address(getattr(library, found[0].format("dpotrs")))

    def test_refused_when_no_name_resolves(self, monkeypatch):
        table = (("no_such_{}_64_", ctypes.c_int64), ("no_such_{}", ctypes.c_int32))
        monkeypatch.setattr(numerics, "_LAPACK_SYMBOLS", table)
        with pytest.raises(ImportError, match="exports none of no_such_dpotrf_64_, no_such_dpotrs_64_, no_such_dpotrf, no_such_dpotrs"):
            numerics._load_lapack(_umath_linalg.__file__)

    def test_algorithms_need_only_the_spd_pair(self, monkeypatch):
        # Every algorithm's LAPACK goes through dpotrf and dpotrs alone, the
        # only routines the kernel loads.
        calls = {"dpotrf": 0, "dpotrs": 0}

        def counting(name, routine):
            def call(*args):
                calls[name] += 1
                return routine(*args)

            return call

        monkeypatch.setattr(numerics, "_POTRF", counting("dpotrf", numerics._POTRF))
        monkeypatch.setattr(numerics, "_POTRS", counting("dpotrs", numerics._POTRS))
        problem = make_toy_problem("linear-chain", m=3, k=4, seed=1)
        runs = [
            lambda: kf_run(problem),
            lambda: ks_run(problem),
            lambda: enks_run(problem, 8, PerturbationStream(0)),
            lambda: coupled_member_diffs(problem, 8, PerturbationStream(0), 2),
            lambda: lm_exact_run(problem, LMConfig(gamma=1.0, max_iterations=2)),
            *(
                lambda mode=mode: lm_run(problem, LMConfig(gamma=1.0, mode=mode, ensemble_sizes=(8,)), PerturbationStream(0))
                for mode in ("tangent", "finite-difference")
            ),
        ]
        for run in runs:
            before = dict(calls)
            run()
            assert calls["dpotrs"] > before["dpotrs"]


class TestPositiveDefinite:
    """The pass/fail Cholesky test behind GaussianEstimate, on the same kernel."""

    def test_large_inputs(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((600, 600))
        pd = g @ g.T + np.eye(600)
        assert numerics._positive_definite(pd)
        not_pd = pd.copy()
        not_pd[-1, -1] = -1.0
        assert not numerics._positive_definite(not_pd)
        assert not numerics._positive_definite(pd - 1e6 * np.eye(600))

    @pytest.mark.parametrize(
        "a, expected",
        [(np.eye(3), True), (np.zeros((2, 2)), False), (np.diag([1.0, -1.0]), False), ([[2.0, 1.0], [1.0, 2.0]], True)],
    )
    def test_small_inputs(self, a, expected):
        assert numerics._positive_definite(np.asarray(a)) is expected


class TestSampleStats:
    def test_two_point_mean(self):
        np.testing.assert_array_equal(sample_mean([[1.0], [3.0]]), [2.0])

    def test_constant_ensemble(self):
        v = np.array([1.5, -2.0])
        np.testing.assert_array_equal(sample_mean(np.tile(v, (5, 1))), v)

    def test_three_point_mean(self):
        np.testing.assert_array_equal(
            sample_mean([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]]), [1.0, 1.0]
        )

    def test_mean_requires_members(self):
        with pytest.raises(ValidationError):
            sample_mean(np.zeros((0, 2)))

    def test_two_point_variance(self):
        np.testing.assert_array_equal(sample_covariance([[1.0], [3.0]]), [[2.0]])

    def test_zero_spread(self):
        np.testing.assert_array_equal(
            sample_covariance(np.ones((4, 3))), np.zeros((3, 3))
        )

    def test_covariance_needs_two(self):
        with pytest.raises(ValidationError):
            sample_covariance(np.ones((1, 2)))

    def test_law_of_large_numbers(self):
        # 1e5 colored draws: sample covariance near [[2,1],[1,2]].
        target = np.array([[2.0, 1.0], [1.0, 2.0]])
        factor = cholesky_spd(target)
        z = PerturbationStream(17).draw_members(
            Phase.SMOOTHER, 0, 0, NoiseKind.INIT, np.arange(100_000), 2
        )
        cov = sample_covariance(z @ factor.T)
        assert np.abs(cov - target).max() < 0.1

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 40), dim=st.integers(1, 5))
    def test_covariance_symmetric_psd(self, seed, n, dim):
        members = np.random.default_rng(seed).standard_normal((n, dim))
        cov = sample_covariance(members)
        scale = max(np.linalg.norm(cov), 1e-30)
        assert np.linalg.norm(cov - cov.T) <= 1e-12 * scale
        assert np.linalg.eigvalsh(cov)[0] >= -1e-10 * scale


class TestLpNorm:
    def test_single_euclidean(self):
        assert empirical_lp_norm([[3.0, 4.0]], 2.0) == 5.0

    def test_all_zero(self):
        assert empirical_lp_norm([np.zeros(3)] * 4, 2.0) == 0.0

    def test_p4_symmetric(self):
        assert empirical_lp_norm([[1.0], [-1.0]], 4.0) == pytest.approx(1.0)

    def test_rejects_small_p(self):
        with pytest.raises(ValidationError):
            empirical_lp_norm([[1.0]], 0.5)

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            empirical_lp_norm([], 2.0)

    @pytest.mark.parametrize("p", ["x", None, True])
    def test_rejects_a_p_that_is_not_a_real_number(self, p):
        with pytest.raises(ValidationError, match=r"^p must be a real number, got "):
            empirical_lp_norm([[3.0, 4.0]], p)

    @pytest.mark.parametrize("p", [np.inf, np.nan])
    def test_rejects_non_finite_p(self, p):
        # The formula gives 1.0 at p = inf and nan at p = nan, neither a norm.
        with pytest.raises(ValidationError, match=r"^p must be finite and >= 1, got (inf|nan)$"):
            empirical_lp_norm([[3.0, 4.0], [1.0]], p)

    @pytest.mark.parametrize(
        "norms, p", [((1e-7, 2e-7), 50.0), ((1e3, 2e3), 120.0), ((1e-100, 3e-100, 0.0), 4.0)]
    )
    def test_powers_outside_the_float_range(self, norms, p):
        # Each norms**p under- or overflows, so the plain formula reads 0 or
        # inf; the reference sums the powers in log space.
        logs = p * np.log([n for n in norms if n > 0])
        want = np.exp((np.logaddexp.reduce(logs) - np.log(len(norms))) / p)
        assert empirical_lp_norm([[n] for n in norms], p) == pytest.approx(want, rel=1e-12, abs=0.0)


class TestSlopeFit:
    def test_exact_power_law(self):
        xs = np.array([10.0, 100.0, 1000.0])
        slope, _ = fit_loglog_slope(xs, 1.0 / np.sqrt(xs))
        assert slope == pytest.approx(-0.5)

    def test_flat(self):
        slope, intercept = fit_loglog_slope([1.0, 10.0, 100.0], [3.0, 3.0, 3.0])
        assert slope == pytest.approx(0.0, abs=1e-12)
        assert intercept == pytest.approx(np.log(3.0))

    def test_noisy_linear(self):
        rng = np.random.default_rng(4)
        xs = np.linspace(1.0, 10.0, 10)
        ys = 2.0 * xs * (1.0 + 0.01 * rng.standard_normal(10))
        slope, _ = fit_loglog_slope(xs, ys)
        assert abs(slope - 1.0) < 0.05

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            fit_loglog_slope([1.0, -2.0], [1.0, 1.0])
        with pytest.raises(ValidationError):
            fit_loglog_slope([1.0, 2.0], [0.0, 1.0])

    def test_rejects_single_point(self):
        with pytest.raises(ValidationError):
            fit_loglog_slope([1.0], [1.0])

    def test_rejects_unequal_lengths(self):
        with pytest.raises(ValidationError, match=r"^xs and ys lengths differ: 3 vs 2$"):
            fit_loglog_slope([1.0, 2.0, 3.0], [1.0, 2.0])


@pytest.mark.parametrize(
    "call, named",
    [
        (lambda: cholesky_spd([[True]]), "matrix"),
        (lambda: cholesky_spd([["4"]], name="B"), "B"),
        (lambda: spd_solve([[2.0]], [True]), "right-hand side of the matrix solve"),
        (lambda: spd_solve([[None]], [1.0], name="R"), "R"),
        (lambda: sample_mean([["1"], ["3"]]), "members"),
        (lambda: sample_covariance([[1.0], [False]]), "members"),
        (lambda: fit_loglog_slope([True, 10], [1.0, 0.1]), "xs"),
        (lambda: fit_loglog_slope([1, 10], ["1", "0.1"]), "ys"),
        (lambda: empirical_lp_norm([[3.0], [True]], 2.0), r"samples\[2\]"),
    ],
    ids=["cholesky_spd", "cholesky_spd-name", "spd_solve-b", "spd_solve-a", "sample_mean", "sample_covariance",
         "fit_loglog_slope-xs", "fit_loglog_slope-ys", "empirical_lp_norm"],
)
def test_public_helpers_read_only_real_numbers(call, named):
    # numpy would read True as 1 and "3" as 3; the package's number rule does not.
    with pytest.raises(ValidationError, match=rf"^{named} must hold real numbers, got "):
        call()
