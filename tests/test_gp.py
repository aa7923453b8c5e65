"""Gaussian-process surrogate against dense closed-form solves."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.optimize import check_grad, minimize

from sliceorch import gp
from sliceorch.agent import SW_VALUES
from sliceorch.baselines import enumerate_joint_grid
from sliceorch.core import AlgoParams
from sliceorch.errors import GpFitError
from sliceorch.gp import (
    KernelLattice,
    KernelParams,
    TrainingSet,
    default_length_scales,
    fit,
    kernel_matrix,
    log_marginal_likelihood,
    optimize_params,
)

ALGO = AlgoParams()


@pytest.fixture(autouse=True)
def scipy_routines():
    """Bind gp's LAPACK and L-BFGS-B handles: tests here call the helpers that use them directly.

    In the program, `fit` and `TrainingSet.build` bind them before any helper runs.
    """
    gp._load_scipy()


def dense_posterior(x, y, params, noise_var, queries):
    """Textbook GP posterior via a dense solve, standardized like the implementation."""
    y = np.asarray(y, dtype=float)
    mean, scale = y.mean(), y.std()
    if scale < 1e-12:
        scale = 1.0
    y_std = (y - mean) / scale
    gram = kernel_matrix(x, x, params) + noise_var * np.eye(x.shape[0])
    inv = np.linalg.inv(gram)
    k_star = kernel_matrix(queries, x, params)
    mu = mean + scale * (k_star @ inv @ y_std)
    var = params.signal_var - np.einsum("qn,nm,qm->q", k_star, inv, k_star)
    sigma = scale * np.sqrt(np.clip(var, 0.0, None))
    return mu, sigma


class TestKernel:
    def test_matern25_closed_form(self):
        a = np.array([[1.0, 0.2, 0.5]])
        b = np.array([[3.0, 0.7, 0.0]])
        params = KernelParams((2.0, 1.0, 1.0), signal_var=1.7)
        r = math.sqrt(1.0 + 0.25 + 0.25)
        t = math.sqrt(5.0) * r
        expected = 1.7 * (1.0 + t + t * t / 3.0) * math.exp(-t)
        assert kernel_matrix(a, b, params)[0, 0] == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.6857606022407073, abs=1e-12)

    def test_diagonal_is_signal_variance(self):
        x = np.array([[0.0, 0.0], [2.0, 3.0]])
        params = KernelParams((1.0, 2.0), signal_var=2.5)
        gram = kernel_matrix(x, x, params)
        assert np.allclose(np.diag(gram), 2.5)

    def test_kernel_decays_with_distance(self):
        params = KernelParams((1.0,), 1.0)
        near = kernel_matrix(np.array([[0.0]]), np.array([[0.5]]), params)[0, 0]
        far = kernel_matrix(np.array([[0.0]]), np.array([[3.0]]), params)[0, 0]
        assert near > far

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            KernelParams((0.0,), 1.0)
        with pytest.raises(ValueError):
            KernelParams((1.0,), 0.0)


class TestPinnedOrder:
    """gp._norm's written-out order of summing squares against numpy's einsum."""

    @pytest.mark.parametrize("d", range(1, 8))
    def test_equals_einsum_bit_for_bit(self, d):
        rng = np.random.default_rng(70 + d)
        for _ in range(20):
            m, n = (int(v) for v in rng.integers(1, 40, size=2))
            x = rng.standard_normal((m, n, d)) * 10.0 ** rng.uniform(-170.0, 170.0, size=(m, n, d))
            special = rng.random((m, n, d))
            x[special < 0.05] = 0.0
            x[(special >= 0.05) & (special < 0.07)] = math.inf
            x[(special >= 0.07) & (special < 0.08)] = -math.inf
            x[(special >= 0.08) & (special < 0.09)] = math.nan
            with np.errstate(over="ignore", invalid="ignore"):
                expected = np.sqrt(np.einsum("mnd,mnd->mn", x, x))
                got = gp._norm(x)
            assert np.array_equal(got, expected, equal_nan=True)


class TestPosterior:
    def test_two_point_case(self):
        x = np.array([[1.0, 0.0, 0.0], [3.0, 0.5, 1.0]])
        y = np.array([2.0, 5.0])
        params = KernelParams((2.0, 1.0, 1.0), 1.3)
        model = fit(x, y, params, noise_var=0.01)
        mu, sigma = model.predict(np.array([[2.0, 0.25, 0.5]]))
        assert mu[0] == pytest.approx(3.5, abs=1e-9)
        assert sigma[0] == pytest.approx(0.9253096352118682, abs=1e-9)

    def test_matches_dense_solve_on_random_datasets(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(1, 11))
            d = int(rng.integers(1, 4))
            x = rng.uniform(-3.0, 3.0, size=(n, d))
            y = rng.uniform(-5.0, 5.0, size=n)
            params = KernelParams(
                tuple(rng.uniform(0.5, 3.0, size=d)),
                float(rng.uniform(0.5, 2.0)),
            )
            noise = float(rng.uniform(1e-4, 1e-1))
            queries = rng.uniform(-3.0, 3.0, size=(7, d))

            model = fit(x, y, params, noise)
            mu, sigma = model.predict(queries)
            mu_ref, sigma_ref = dense_posterior(x, y, params, noise, queries)
            np.testing.assert_allclose(mu, mu_ref, atol=1e-8)
            np.testing.assert_allclose(sigma, sigma_ref, atol=1e-8)

    def test_posterior_variance_never_exceeds_prior(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0.0, 10.0, size=(8, 1))
        y = rng.uniform(0.0, 30.0, size=8)
        params = KernelParams((2.0,), 1.0)
        model = fit(x, y, params, noise_var=1e-3)
        grid = np.linspace(-2.0, 12.0, 100)[:, None]
        _, sigma = model.predict(grid)
        assert np.all(sigma**2 <= model.prior_var + 1e-12)

    def test_interpolates_with_tiny_noise(self):
        x = np.array([[0.0], [1.0], [2.5]])
        y = np.array([1.0, -1.0, 4.0])
        model = fit(x, y, KernelParams((1.0,), 1.0), noise_var=1e-10)
        mu, sigma = model.predict(x)
        np.testing.assert_allclose(mu, y, atol=1e-4)
        assert np.all(sigma < 0.01)

    def test_constant_targets_survive_standardization(self):
        x = np.array([[0.0], [1.0]])
        y = np.array([3.0, 3.0])
        model = fit(x, y, KernelParams((1.0,), 1.0), noise_var=1e-6)
        mu, _ = model.predict(np.array([[0.5]]))
        assert mu[0] == pytest.approx(3.0, abs=1e-6)

    def test_fit_input_validation(self):
        params = KernelParams((1.0,), 1.0)
        with pytest.raises(ValueError):
            fit(np.empty((0, 1)), np.array([]), params, 0.01)
        with pytest.raises(ValueError):
            fit(np.array([[0.0]]), np.array([1.0, 2.0]), params, 0.01)
        with pytest.raises(ValueError):
            fit(np.array([[0.0, 1.0]]), np.array([1.0]), params, 0.01)
        with pytest.raises(ValueError):
            fit(np.array([[0.0]]), np.array([1.0]), params, -0.1)


class TestHyperopt:
    def test_improves_or_keeps_marginal_likelihood(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0.0, 6.0, size=(12, 2))
        y = np.sin(x[:, 0]) + 0.1 * rng.standard_normal(12)
        init = KernelParams((3.0, 3.0), 1.0)
        tuned, noise = optimize_params(x, y, init, 1e-2)
        data = TrainingSet.build(x, y)
        before = log_marginal_likelihood(data, init, 1e-2)[0]
        after = log_marginal_likelihood(data, tuned, noise)[0]
        assert after >= before - 1e-6

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(0.0, 6.0, size=(10, 1))
        y = np.cos(x[:, 0])
        init = KernelParams((1.0,), 1.0)
        a = optimize_params(x, y, init, 1e-3)
        b = optimize_params(x, y, init, 1e-3)
        assert a == b

    def test_default_length_scales_half_span(self):
        assert default_length_scales([10.0, 1.0, 0.0]) == (5.0, 0.5, 1e-2)


def unpack_theta(theta):
    """Kernel hyperparameters and noise variance at log-space theta."""
    v = np.exp(theta)
    return KernelParams(tuple(float(s) for s in v[:-2]), float(v[-2])), float(v[-1])


def gradient_error(data, theta):
    """check_grad's finite-difference error over the gradient's norm."""

    def value(t):
        return log_marginal_likelihood(data, *unpack_theta(t))[0]

    def grad(t):
        return log_marginal_likelihood(data, *unpack_theta(t))[1]

    return check_grad(value, grad, theta) / np.linalg.norm(grad(theta))


# A "nu" parameter names the Matern order a case runs at (5/2, the kernel's
# only one); some cases also seed their random draws from it.


class TestLikelihoodGradient:
    """The analytic gradient of the log marginal likelihood against finite differences."""

    @pytest.mark.parametrize("nu", [2.5])
    def test_matches_finite_differences_on_random_data(self, nu):
        rng = np.random.default_rng(31)
        for i in range(30):
            n, d = int(rng.integers(2, 16)), int(rng.integers(1, 4))
            x = rng.uniform(0.0, 5.0, size=(n, d))
            if i % 2:
                x[1] = x[0]  # a duplicate row: r = 0 off the diagonal
            log_scales = rng.uniform(-1.0, 1.5, size=d)
            theta = np.array([*log_scales, rng.uniform(-0.7, 0.7), rng.uniform(-7.0, -2.0)])
            assert gradient_error(TrainingSet.build(x, rng.standard_normal(n)), theta) <= 1e-4

    @pytest.mark.parametrize("nu", [2.5])
    def test_matches_finite_differences_through_jitter(self, nu):
        # Duplicate rows and a noise too small to register: the Gram is
        # singular and factors only with jitter. Finite differences measure a
        # slope only if every point check_grad evaluates gets the same jitter.
        x = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [2.5, 2.0], [2.5, 2.0], [4.0, 1.0]])
        y = np.array([1.0, 1.0, -1.0, 4.0, 4.0, 0.5])
        theta = np.log([1.5, 0.8, 10**-3.5, 1e-300])
        jitters = set()
        for t in [theta] + [theta + math.sqrt(np.finfo(float).eps) * e for e in np.eye(4)]:
            params, noise_var = unpack_theta(t)
            jitters.add(gp._chol_with_jitter(kernel_matrix(x, x, params) + noise_var * np.eye(6))[1])
        assert len(jitters) == 1 and jitters.pop() > 0.0
        assert gradient_error(TrainingSet.build(x, y), theta) <= 1e-4

    @pytest.mark.parametrize("nu", [2.5])
    def test_search_never_ends_below_its_start(self, nu):
        rng = np.random.default_rng(3)
        x = rng.uniform(0.0, 6.0, size=(12, 2))
        y = np.sin(x[:, 0]) + 0.1 * rng.standard_normal(12)
        init = KernelParams((3.0, 3.0), 1.0)
        tuned, noise = optimize_params(x, y, init, 1e-2)
        data = TrainingSet.build(x, y)
        after = log_marginal_likelihood(data, tuned, noise)[0]
        assert after >= log_marginal_likelihood(data, init, 1e-2)[0]


def reference_chol_with_jitter(gram):
    """The jitter escalation written with scipy.linalg.cholesky."""
    try:
        return cholesky(gram, lower=True), 0.0
    except np.linalg.LinAlgError:
        pass
    jitter = gp._JITTER_START
    eye = np.eye(gram.shape[0])
    while jitter <= gp._JITTER_MAX:
        try:
            return cholesky(gram + jitter * eye, lower=True), jitter
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise GpFitError("reference factorization failed")


def reference_lml(x, y, params, noise_var):
    """Log marginal likelihood written with cholesky/cho_solve and a dense noise term."""
    y = np.asarray(y, dtype=float)
    mean, scale = float(y.mean()), float(y.std())
    if not math.isfinite(scale) or scale < 1e-12:
        scale = 1.0
    y_std = (y - mean) / scale
    n = x.shape[0]
    gram = kernel_matrix(x, x, params) + noise_var * np.eye(n)
    chol, _ = reference_chol_with_jitter(gram)
    alpha = cho_solve((chol, True), y_std)
    return float(
        -0.5 * y_std @ alpha - np.log(np.diag(chol)).sum() - 0.5 * n * math.log(2.0 * math.pi)
    )


def random_params(rng, d):
    """Hyperparameters drawn log-uniformly from the search's bounds."""
    return (
        KernelParams(
            tuple(float(v) for v in np.exp(rng.uniform(math.log(1e-2), math.log(1e3), size=d))),
            float(np.exp(rng.uniform(math.log(1e-4), math.log(1e4)))),
        ),
        float(np.exp(rng.uniform(math.log(1e-8), math.log(1e-1)))),
    )


class TestLapackPath:
    """The direct potrf/potrs path against scipy.linalg.cholesky/cho_solve."""

    def test_rank_deficient_gram_gets_the_reference_jitter(self):
        rng = np.random.default_rng(5)
        grams = []
        for _ in range(40):
            n = int(rng.integers(3, 12))
            a = rng.standard_normal((n, int(rng.integers(1, n))))
            grams.append(a @ a.T)
        x = np.array([[0.0], [0.0], [1.0], [1.0], [2.0]])  # duplicate rows, no noise
        grams.append(kernel_matrix(x, x, KernelParams((1.0,), 1.0)))
        jittered = 0
        for gram in grams:
            chol, jitter = gp._chol_with_jitter(gram)
            ref_chol, ref_jitter = reference_chol_with_jitter(gram)
            assert jitter == ref_jitter
            assert np.array_equal(chol, ref_chol)
            jittered += jitter > 0.0
        assert jitter > 0.0  # the duplicate-row Gram
        assert jittered > 1

    def test_jitter_beyond_the_max_raises(self):
        with pytest.raises(GpFitError):
            gp._chol_with_jitter(np.diag([1.0, -1e-3]))
        with pytest.raises(GpFitError):
            reference_chol_with_jitter(np.diag([1.0, -1e-3]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_gram_raises_value_error(self, bad):
        gram = np.eye(3)
        gram[1, 2] = gram[2, 1] = bad
        with pytest.raises(ValueError):
            gp._chol_with_jitter(gram)
        with pytest.raises(ValueError):
            cholesky(gram, lower=True)

    def test_overflowing_posterior_weights_fail_the_fit(self):
        # finite targets so far apart that their spread overflows, on rows
        # close enough that K^-1 amplifies them past the float range
        x = np.array([[0.0], [0.01], [0.02]])
        with np.errstate(over="ignore"), pytest.raises(GpFitError, match="not finite"):
            fit(x, np.array([1e308, -1e308, 1e308]), KernelParams((1.0,), 1.0), 1e-3)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_data_keeps_the_value_error(self):
        params = KernelParams((1.0,), 1.0)
        with pytest.raises(ValueError):
            fit(np.array([[0.0], [1.0]]), np.array([1.0, math.nan]), params, 1e-3)
        with pytest.raises(ValueError):
            fit(np.array([[0.0], [math.inf]]), np.array([1.0, 2.0]), params, 1e-3)
        with pytest.raises(ValueError):
            log_marginal_likelihood(TrainingSet.build([[0.0]], [math.inf]), params, 1e-3)

    def test_lml_matches_the_reference_bit_for_bit(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(1, 31))
            d = int(rng.integers(1, 4))
            x = rng.integers(0, 6, size=(n, d)).astype(float)  # grid rows, with repeats
            y = rng.uniform(-5.0, 40.0, size=n)
            params, noise_var = random_params(rng, d)
            try:
                expected = reference_lml(x, y, params, noise_var)
            except GpFitError:
                with pytest.raises(GpFitError):
                    log_marginal_likelihood(TrainingSet.build(x, y), params, noise_var)
                continue
            assert log_marginal_likelihood(TrainingSet.build(x, y), params, noise_var)[0] == expected

    def test_fit_matches_the_reference_factorization(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(1, 31))
            x = rng.integers(0, 6, size=(n, 2)).astype(float)
            y = rng.uniform(-5.0, 40.0, size=n)
            params, noise_var = random_params(rng, 2)
            y_std = (y - y.mean()) / (y.std() if y.std() >= 1e-12 else 1.0)
            gram = kernel_matrix(x, x, params) + noise_var * np.eye(n)
            try:
                ref_chol, ref_jitter = reference_chol_with_jitter(gram)
            except GpFitError:
                continue
            model = fit(x, y, params, noise_var)
            assert model.jitter == ref_jitter
            assert np.array_equal(model.chol, ref_chol)
            assert np.array_equal(model.alpha, cho_solve((ref_chol, True), y_std))


def reference_lml_and_grad(data, params, noise_var):
    """The likelihood and gradient as written before fusion, one array step at a time."""
    scaled = data.diff / np.asarray(params.length_scales, dtype=float)
    r = np.sqrt(np.maximum(np.einsum("mnd,mnd->mn", scaled, scaled), 0.0))
    t = math.sqrt(5.0) * r
    decay = np.exp(-t)
    shape = (1.0 + t + t * t / 3.0) * decay
    slope = (5.0 / 3.0) * (1.0 + t) * decay
    n = data.x.shape[0]
    gram = params.signal_var * shape
    gram.flat[:: n + 1] += noise_var
    chol, _ = gp._chol_with_jitter(gram)
    alpha = gp._cho_solve(chol, data.y_std)
    value = float(
        -0.5 * data.y_std @ alpha - np.log(np.diag(chol)).sum() - 0.5 * n * math.log(2.0 * math.pi)
    )
    w = np.outer(alpha, alpha) - gp._POTRS(chol, np.eye(n), lower=1)[0]
    grad = np.empty(len(params.length_scales) + 2)
    grad[:-2] = 0.5 * params.signal_var * np.einsum("ab,abk->k", w * slope, scaled * scaled)
    grad[-2] = 0.5 * params.signal_var * np.vdot(w, shape)
    grad[-1] = 0.5 * noise_var * np.trace(w)
    return value, grad


def outcome(fun, *args):
    """The bytes of fun's value and gradient, or the type of the error it raised."""
    try:
        value, grad = fun(*args)
    except (GpFitError, ValueError) as err:
        return type(err)
    return np.float64(value).tobytes() + grad.tobytes()


class TestFusedLikelihood:
    """The one-pass likelihood against the step-by-step formula, byte for byte."""

    def test_matches_the_reference_on_random_problems(self):
        rng = np.random.default_rng(41)
        jittered = 0
        for case in range(320):
            n, d = int(rng.integers(2, 31)), int(rng.integers(1, 6))
            if case % 2:  # grid rows with repeats, as the agents' probes
                x = rng.integers(0, 6, size=(n, d)).astype(float)
            else:
                x = rng.uniform(0.0, 12.0, size=(n, d))
            y = rng.uniform(-5.0, 40.0, size=n)
            # log hyperparameters up to 4 units past either end of the search box
            theta = np.concatenate([
                rng.uniform(math.log(1e-2) - 4.0, math.log(1e3) + 4.0, size=d),
                rng.uniform([math.log(1e-4) - 4.0, math.log(1e-8) - 4.0],
                            [math.log(1e4) + 4.0, math.log(1e-1) + 4.0]),
            ])
            if case % 4 == 1:  # a duplicate row and noise far below the box: jitter
                x[1] = x[0]
                theta[-1] = math.log(1e-8) - 30.0
            params, noise_var = unpack_theta(theta)
            data = TrainingSet.build(x, y)
            expected = outcome(reference_lml_and_grad, data, params, noise_var)
            assert outcome(log_marginal_likelihood, data, params, noise_var) == expected
            if isinstance(expected, bytes):
                gram = kernel_matrix(x, x, params) + noise_var * np.eye(n)
                jittered += gp._chol_with_jitter(gram)[1] > 0.0
        assert jittered > 10

    def test_jitter_escalation_matches_the_reference(self):
        # Duplicate rows and no noise to speak of: potrf fails, jitter escalates.
        x = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [2.5, 2.0], [2.5, 2.0], [4.0, 1.0]])
        data = TrainingSet.build(x, [1.0, 1.0, -1.0, 4.0, 4.0, 0.5])
        for signal_var in (10**-3.5, 1.0, 10.0):
            params, noise_var = KernelParams((1.5, 0.8), signal_var), 1e-300
            gram = kernel_matrix(x, x, params) + noise_var * np.eye(6)
            assert gp._POTRF(gram, lower=1, clean=1)[1] != 0
            assert gp._chol_with_jitter(gram)[1] > 0.0
            expected = outcome(reference_lml_and_grad, data, params, noise_var)
            assert isinstance(expected, bytes)
            assert outcome(log_marginal_likelihood, data, params, noise_var) == expected
        # A negative noise the largest jitter cannot offset: both give up.
        params = KernelParams((1.5, 0.8), 10**-3.5)
        assert outcome(reference_lml_and_grad, data, params, -1e-3) is GpFitError
        assert outcome(log_marginal_likelihood, data, params, -1e-3) is GpFitError

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_targets_raise_value_error(self, bad):
        x = np.array([[0.0], [1.0], [3.0]])
        data = TrainingSet.build(x, [1.0, bad, 2.0])
        assert not data.y_finite
        params = KernelParams((1.0,), 1.0)
        with pytest.raises(ValueError):
            reference_lml_and_grad(data, params, 1e-3)
        with pytest.raises(ValueError):
            log_marginal_likelihood(data, params, 1e-3)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "rows, signal_var, noise_var",
        [
            ([[0.0], [1.0], [math.inf]], 1.0, 1e-3),  # NaN differences
            ([[0.0], [1.0], [math.nan]], 1.0, 1e-3),
            ([[0.0], [1.0], [3.0]], 1.0, math.inf),  # an inf diagonal potrf can factor
            ([[0.0], [1.0], [3.0]], 1.0, math.nan),
            ([[0.0], [1.0], [3.0]], math.inf, 1e-3),
            ([[0.0], [1.0], [3.0]], math.nan, 1e-3),
        ],
    )
    def test_non_finite_gram_raises_value_error(self, rows, signal_var, noise_var):
        data = TrainingSet.build(np.array(rows), [1.0, -1.0, 2.0])
        params = KernelParams((1.0,), signal_var)
        with pytest.raises(ValueError):
            reference_lml_and_grad(data, params, noise_var)
        with pytest.raises(ValueError):
            log_marginal_likelihood(data, params, noise_var)


def reference_predict(model, queries):
    """Posterior mean, and the standardized variance clipped at 0, through a triangular solve."""
    k_star = kernel_matrix(queries, model.x_train, model.params)
    v = solve_triangular(model.chol, k_star.T, lower=True)
    var_std = model.params.signal_var - np.einsum("nm,nm->m", v, v)
    mu = model.y_mean + model.y_scale * (k_star @ model.alpha)
    return mu, np.clip(var_std, 0.0, None), k_star


class TestPredictProduct:
    """predict's one product with the cached [L^-T | alpha] against a triangular solve."""

    @pytest.mark.parametrize("nu", [2.5])
    def test_matches_the_triangular_solve(self, nu):
        rng = np.random.default_rng(int(nu * 10))
        jittered = 0
        for case in range(100):
            n = int(rng.integers(1, 30))
            d = int(rng.integers(1, 4))
            x = rng.integers(0, 6, size=(n, d)).astype(float)  # grid rows, with repeats
            y = rng.uniform(-5.0, 40.0, size=n)
            params, noise_var = random_params(rng, d)
            if case % 4 == 0:  # a duplicated row and no noise: only jitter factors the Gram
                x = np.vstack([x, x[:1]])
                y = np.append(y, y[0] + 1.0)
                noise_var = 0.0
            try:
                model = fit(x, y, params, noise_var)
            except GpFitError:
                continue
            jittered += model.jitter > 0.0
            queries = np.vstack([x, rng.uniform(-1.0, 6.0, size=(50, d))])
            mu, sigma = model.predict(queries)
            mu_ref, var_ref, k_star = reference_predict(model, queries)
            mean_bound = 1e-12 * model.y_scale * (np.abs(k_star) @ np.abs(model.alpha))
            assert np.all(np.abs(mu - mu_ref) <= mean_bound)
            var = (sigma / model.y_scale) ** 2
            assert np.all(np.abs(var - var_ref) <= 1e-12 * params.signal_var)
        assert jittered > 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_cross_covariance_raises(self, bad):
        x = np.array([[0.0], [1.0], [2.5]])
        model = fit(x, np.array([1.0, -1.0, 4.0]), KernelParams((1.0,), 1.0), 1e-3)
        queries = np.array([[0.5], [1.5], [3.0]])
        k_star = kernel_matrix(queries, x, model.params)
        k_star[1, 2] = bad
        with pytest.raises(ValueError):
            model.predict(queries, k_star=k_star)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_at_a_flushed_weight_raises(self, bad):
        """0 * inf is NaN, so a bad entry reaches the mean even where alpha is 0."""
        x = np.array([[0.0], [1.0], [2.5]])
        model = fit(x, np.array([1.0, -1.0, 4.0]), KernelParams((1.0,), 1.0), 1e-3)
        w = model.w.copy()
        w[2, -1] = 0.0  # a posterior weight flushed below SQRT_TINY
        model = replace(model, w=w)
        queries = np.array([[0.5], [1.5], [3.0]])
        k_star = kernel_matrix(queries, x, model.params)
        k_star[0, 2] = bad
        with pytest.raises(ValueError):
            model.predict(queries, k_star=k_star)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_finite_product_with_overflowing_squares_raises(self):
        """Entries above about 1e154 square to inf in the variance, which is checked."""
        x = np.array([[0.0], [1.0], [2.5]])
        model = fit(x, np.array([1.0, -1.0, 4.0]), KernelParams((1.0,), 1.0), 1e-3)
        k_star = np.full((2, 3), 1e200)
        assert np.isfinite(k_star @ model.w).all()
        with pytest.raises(ValueError):
            model.predict(np.array([[0.5], [1.5]]), k_star=k_star)

    def test_failed_inverse_raises_gp_fit_error(self, monkeypatch):
        monkeypatch.setattr(gp, "_TRTRI", lambda chol, lower: (chol, 1))
        with pytest.raises(GpFitError):
            fit(np.array([[0.0], [1.0]]), np.array([1.0, 2.0]), KernelParams((1.0,), 1.0), 1e-3)


def log_uniform(rng, low, high, size=None):
    return np.exp(rng.uniform(math.log(low), math.log(high), size=size))


def random_subset(rng, grid):
    """Ascending indices of a random subset of the grid's rows: all of them, or at least one."""
    n = grid.shape[0]
    if rng.random() < 0.2:
        return np.arange(n)
    return np.sort(rng.choice(n, rng.integers(1, min(n, 500) + 1), replace=False))


class TestLatticeColumns:
    """KernelLattice.cross against kernel_matrix, bit for bit."""

    GRIDS = [
        np.asarray(enumerate_joint_grid(k, 12, ALGO.min_alive, ALGO.grid_cap), dtype=float)
        for k in range(1, 5)
    ] + [
        # gbo's grid on scale/slices_5
        np.asarray(enumerate_joint_grid(5, 24, ALGO.min_alive, ALGO.grid_cap), dtype=float),
        # svRB x sw, sw on a 0.1 lattice
        np.array([[svrb, sw] for svrb in range(ALGO.min_alive, 13) for sw in SW_VALUES]),
    ]

    @staticmethod
    def check(grid, rows, x, params):
        expected = kernel_matrix(grid[rows], x, params)
        assert np.array_equal(KernelLattice(grid).cross(rows, x, params), expected, equal_nan=True)

    @pytest.mark.parametrize("nu", [2.5])
    def test_equals_the_kernel_matrix_column(self, nu):
        rng = np.random.default_rng(int(nu * 10) + 41)
        for grid in self.GRIDS:
            d = grid.shape[1]
            for case in range(12):
                scales = log_uniform(rng, 1e-2, 1e3, size=d)
                if case < 2:  # the search's bounds themselves
                    scales = np.full(d, (1e-2, 1e3)[case])
                params = KernelParams(
                    tuple(float(v) for v in scales), float(log_uniform(rng, 1e-4, 1e4))
                )
                x = grid[rng.integers(grid.shape[0], size=rng.integers(1, 41))]
                self.check(grid, random_subset(rng, grid), x, params)

    WIDE_GRIDS = [
        np.asarray(enumerate_joint_grid(6, 10, ALGO.min_alive, ALGO.grid_cap), dtype=float),
        np.asarray(enumerate_joint_grid(7, 10, ALGO.min_alive, ALGO.grid_cap), dtype=float),
    ]

    @pytest.mark.parametrize("grid", WIDE_GRIDS, ids=["d6", "d7"])
    def test_wide_joint_grids(self, grid):
        """Six and seven dimensions give each lane three or four terms."""
        rng = np.random.default_rng(grid.shape[1])
        for _ in range(12):
            params, _ = random_params(rng, grid.shape[1])
            x = grid[rng.integers(grid.shape[0], size=rng.integers(1, 41))]
            self.check(grid, random_subset(rng, grid), x, params)

    @pytest.mark.parametrize("grid", GRIDS + WIDE_GRIDS)
    def test_row_off_the_lattice(self, grid):
        rng = np.random.default_rng(5)
        params, _ = random_params(rng, grid.shape[1])
        x = rng.uniform(-2.0, 30.0, size=(30, grid.shape[1]))
        self.check(grid, random_subset(rng, grid), x, params)

    @pytest.mark.parametrize("grid", GRIDS + WIDE_GRIDS)
    def test_nan_length_scale(self, grid):
        d = grid.shape[1]
        params = KernelParams((math.nan,) + (2.0,) * (d - 1), 1.5)
        x = grid[[grid.shape[0] // 2, 0]]
        got = KernelLattice(grid).cross(np.arange(grid.shape[0]), x, params)
        assert np.isnan(got).any()
        assert np.array_equal(got, kernel_matrix(grid, x, params), equal_nan=True)


class TestSubnormalFlush:
    """At the 1e-2 length-scale bound no kernel entry or weight is subnormal."""

    def test_fit_at_the_length_scale_bound(self):
        rng = np.random.default_rng(9)
        grid = np.asarray(
            enumerate_joint_grid(5, 24, ALGO.min_alive, ALGO.grid_cap), dtype=float
        )
        # Probes cluster as the search closes in: neighbours one svRB apart
        # put second-order products of tiny kernel entries into w.
        near = np.flatnonzero(np.abs(grid - 4.0).max(axis=1) <= 1.0)
        far = np.setdiff1d(np.arange(grid.shape[0]), near)
        x = grid[np.concatenate([rng.choice(near, 20, replace=False), rng.choice(far, 10, replace=False)])]
        params = KernelParams((0.01,) * 5, 1.0)
        tiny = np.finfo(float).tiny
        scaled = (grid[:, None, :] - x[None, :, :]) / np.asarray(params.length_scales)
        raw = gp._matern(gp._norm(scaled))
        assert np.any((raw > 0.0) & (raw < tiny))  # unflushed, the grid's kernel is subnormal
        model = fit(x, rng.uniform(-5.0, 40.0, size=30), params, 1e-4)
        k_star = kernel_matrix(grid, x, params)
        for values in (np.abs(model.w), k_star):
            assert not np.any((values > 0.0) & (values < gp.SQRT_TINY))
        mu, sigma = model.predict(grid, k_star=k_star)
        assert np.isfinite(mu).all() and np.isfinite(sigma).all()


class TestSearchDriver:
    """gp's loop over L-BFGS-B's core against scipy.optimize.minimize, bit for bit."""

    LOWER = (math.log(1e-2), math.log(1e-4), math.log(1e-8))
    UPPER = (math.log(1e3), math.log(1e4), math.log(1e-1))

    @staticmethod
    def objective(data, visited):
        """The search's negative likelihood, recording every point it is asked at."""

        def fun(theta):
            visited.append(theta.tobytes())
            try:
                value, grad = log_marginal_likelihood(data, *unpack_theta(theta))
            except (GpFitError, FloatingPointError, ValueError):
                return 1e12, np.zeros(theta.size)
            return -value, -grad

        return fun

    def assert_same_search(self, data, theta0, max_iter):
        """Same result bits and the same evaluated points; returns minimize's result."""
        d = data.x.shape[1]
        lower = np.array([self.LOWER[0]] * d + list(self.LOWER[1:]))
        upper = np.array([self.UPPER[0]] * d + list(self.UPPER[1:]))
        ours, theirs = [], []
        x, f = gp._lbfgsb_minimize(self.objective(data, ours), theta0, lower, upper, max_iter)
        res = minimize(
            self.objective(data, theirs), theta0, jac=True, method="L-BFGS-B",
            bounds=list(zip(lower, upper)), options={"maxiter": max_iter},
        )
        assert x.tobytes() == res.x.tobytes()
        assert np.float64(f).tobytes() == np.float64(res.fun).tobytes()
        assert ours == theirs and len(ours) == res.nfev
        return res

    @pytest.mark.parametrize("nu", [2.5])
    def test_matches_minimize_on_random_problems(self, nu):
        rng = np.random.default_rng(int(nu * 10) + 7)
        iteration_stops = 0
        for case in range(16):
            n, d = int(rng.integers(2, 31)), int(rng.integers(1, 6))
            x = rng.uniform(0.0, 12.0, size=(n, d)).round(1)
            y = np.sin(x.sum(axis=1)) + 0.3 * rng.standard_normal(n)
            theta0 = np.concatenate([rng.uniform(-6.0, 9.0, size=d), rng.uniform(-11.0, 11.0, size=2)])
            if case % 4 == 0:  # every coordinate outside its bounds
                theta0 = np.array([-7.0] * d + [11.0, 1.0])
            max_iter = int(rng.integers(1, 16)) if case % 2 else 15
            res = self.assert_same_search(TrainingSet.build(x, y), theta0, max_iter)
            iteration_stops += res.nit == max_iter and res.status == 1
        assert iteration_stops > 0  # some runs stopped on max_iter, not on convergence

    def test_matches_minimize_when_every_evaluation_fails(self):
        data = TrainingSet.build(np.array([[0.0], [1.0], [2.0]]), [1.0, math.nan, 2.0])
        res = self.assert_same_search(data, np.array([0.5, 0.0, -4.0]), 15)
        assert res.fun == 1e12


class TestHyperoptFallback:
    def test_failed_search_returns_init_unchanged(self):
        # A NaN target makes every likelihood evaluation raise; init's length
        # scale lies below the search's 1e-2 bound, so the clipped start differs.
        init = KernelParams((5e-3,), 2.0)
        x = np.array([[0.0], [1.0], [2.0]])
        assert optimize_params(x, [1.0, math.nan, 2.0], init, 1e-4) == (init, 1e-4)


def both_starts_search(inputs, targets, init, noise_var, reference, max_iter=15):
    """optimize_params's two L-BFGS-B runs, always both, best by strict `<`."""
    data = TrainingSet.build(inputs, targets)
    d = data.x.shape[1]
    lower = np.array([math.log(1e-2)] * d + [math.log(1e-4), math.log(1e-8)])
    upper = np.array([math.log(1e3)] * d + [math.log(1e4), math.log(1e-1)])
    fun = TestSearchDriver.objective(data, [])
    best_theta, best_val = None, math.inf
    for p, nv in ((init, noise_var), (reference, gp.NOISE_VAR_START)):
        theta0 = np.log(np.array([*p.length_scales, p.signal_var, max(nv, 1e-8)]))
        theta, value = gp._lbfgsb_minimize(fun, theta0, lower, upper, max_iter)
        if value < best_val:
            best_theta, best_val = theta, value
    return unpack_theta(best_theta)


class TestCoincidingStarts:
    @staticmethod
    def count_searches(monkeypatch):
        calls = []
        search = gp._lbfgsb_minimize

        def counting(*args):
            calls.append(args[1].tobytes())
            return search(*args)

        monkeypatch.setattr(gp, "_lbfgsb_minimize", counting)
        return calls

    def test_one_run_when_init_is_the_reference(self, monkeypatch):
        rng = np.random.default_rng(13)
        problems = []
        for _ in range(6):
            n, d = int(rng.integers(5, 31)), int(rng.integers(1, 4))
            x = rng.integers(0, 12, size=(n, d)).astype(float)
            y = rng.uniform(-5.0, 40.0, size=n)
            init = KernelParams(tuple(rng.uniform(0.5, 6.0, size=d).tolist()), 1.0)
            problems.append((x, y, init, both_starts_search(x, y, init, 1e-4, init)))
        calls = self.count_searches(monkeypatch)
        for x, y, init, expected in problems:
            calls.clear()
            assert optimize_params(x, y, init, 1e-4, reference=init) == expected
            assert len(calls) == 1

    def test_two_runs_when_the_starts_differ(self, monkeypatch):
        rng = np.random.default_rng(14)
        x = rng.integers(0, 12, size=(20, 2)).astype(float)
        y = rng.uniform(-5.0, 40.0, size=20)
        init = KernelParams((3.0, 4.0), 1.0)
        expected = both_starts_search(x, y, init, 1e-3, init)
        calls = self.count_searches(monkeypatch)
        assert optimize_params(x, y, init, 1e-3, reference=init) == expected
        assert len(calls) == 2 and calls[0] != calls[1]
