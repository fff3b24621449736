import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from ensvar import (
    NoiseKind,
    NotSPDError,
    PerturbationStream,
    Phase,
    ValidationError,
    cholesky_spd,
    empirical_lp_norm,
    fit_loglog_slope,
    sample_covariance,
    sample_mean,
    spd_solve,
)
from ensvar import numerics
from ensvar.numerics import _factor, _solve, _triangular_solve


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


def _same_bits(x, y):
    return x.shape == y.shape and x.tobytes() == y.tobytes()


class TestKernel:
    """The private factor/solve pair is scipy's Cholesky path, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        dim=st.integers(1, 12),
        rhs=st.sampled_from(["1-D", "2-D", "F-ordered view"]),
    )
    def test_bits_equal_scipy(self, seed, dim, rhs):
        rng = np.random.default_rng(seed)
        a = _random_spd(rng, dim)
        b = {
            "1-D": lambda: rng.standard_normal(dim),
            "2-D": lambda: rng.standard_normal((dim, 3)),
            # Like the analysis kernel's pht.T: a transposed C-ordered array.
            "F-ordered view": lambda: rng.standard_normal((7, dim)).T,
        }[rhs]()
        factor = _factor(a, "a")
        assert _same_bits(factor, scipy.linalg.cholesky(a, lower=True))
        assert _same_bits(cholesky_spd(a), factor)
        want = scipy.linalg.cho_solve(scipy.linalg.cho_factor(a, lower=True), b)
        assert _same_bits(_solve(factor, b, "a"), want)
        assert _same_bits(spd_solve(a, b), want)

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

    def test_triangular_solve_checks_its_right_hand_side_and_factor(self):
        with pytest.raises(ValidationError, match="right-hand side of the gram solve"):
            _triangular_solve(np.eye(2, order="F"), np.array([1.0, np.inf]), "gram")
        with pytest.raises(NotSPDError, match="gram factor is singular"):
            _triangular_solve(np.asfortranarray([[0.0, 0.0], [1.0, 1.0]]), np.ones(2), "gram")


_SIZES = (1, 2, 7, 24, 120)
_RHS_SHAPES = ((), (5,))


def _direct_calls_match_scipy(dim, shape):
    """Each direct call against its scipy function, bit for bit, on one SPD matrix."""
    rng = np.random.default_rng(dim)
    a = _random_spd(rng, dim)
    b = rng.standard_normal((dim, *shape))
    factor = _factor(a, "a")
    assert _same_bits(factor, scipy.linalg.cholesky(a, lower=True))
    assert _same_bits(_solve(factor, b, "a"), scipy.linalg.cho_solve((factor, True), b))
    for trans in (0, 1):
        want = scipy.linalg.solve_triangular(factor, b, lower=True, trans=trans)
        assert _same_bits(_triangular_solve(factor, b, "a", trans=trans), want)


class TestLapackHandle:
    """The wrappers loaded from scipy's extension file give scipy's bits."""

    @pytest.mark.parametrize("dim", _SIZES)
    @pytest.mark.parametrize("shape", _RHS_SHAPES, ids=["1-D", "2-D"])
    def test_direct_calls_bit_equal_scipy(self, dim, shape):
        _direct_calls_match_scipy(dim, shape)

    def test_handle_is_scipys_extension(self):
        assert scipy.linalg.lapack.dpotrf is numerics._LAPACK.dpotrf
        assert numerics._LAPACK is not scipy.linalg.lapack

    @pytest.mark.parametrize("lookup", ["missing", "not a library"])
    def test_fallback_gives_the_same_bits(self, lookup, tmp_path, monkeypatch):
        bogus = tmp_path / "_flapack.so"
        bogus.write_text("not a shared library")
        monkeypatch.setattr(numerics, "_flapack_path", lambda: None if lookup == "missing" else str(bogus))
        handle = numerics._load_lapack()
        assert handle is scipy.linalg.lapack
        monkeypatch.setattr(numerics, "_LAPACK", handle)
        for dim in _SIZES:
            for shape in _RHS_SHAPES:
                _direct_calls_match_scipy(dim, shape)


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
