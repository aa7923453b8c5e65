"""Acquisition functions and the Hedge portfolio bandit."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sliceorch
from sliceorch.acquisition import (
    KAPPA,
    HedgeState,
    PORTFOLIO,
    ei,
    hedge_probabilities,
    hedge_select,
    hedge_update,
    lcb,
    pi,
    portfolio_nominate,
)


class TestExpectedImprovement:
    def test_zero_gap_unit_sigma(self):
        # improvement 0, sigma 1: EI reduces to the standard normal density at 0
        value = ei(np.array([2.0]), np.array([1.0]), best=2.0)[0]
        assert value == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), abs=1e-9)
        assert value == pytest.approx(0.3989422804014327, abs=1e-9)

    def test_deterministic_candidates_keep_plain_improvement(self):
        values = ei(np.array([1.0, 3.0]), np.array([0.0, 0.0]), best=2.0)
        assert values[0] == 1.0
        assert values[1] == 0.0

    def test_nonnegative_and_increasing_with_gap(self):
        sigma = np.array([1.0, 1.0, 1.0])
        mu = np.array([3.0, 2.0, 1.0])
        values = ei(mu, sigma, best=2.0)
        assert np.all(values >= 0.0)
        assert values[0] < values[1] < values[2]


class TestProbabilityOfImprovement:
    def test_one_sigma_below_best(self):
        value = pi(np.array([1.0]), np.array([1.0]), best=2.0)[0]
        assert value == pytest.approx(0.8413447460685429, abs=1e-9)

    def test_at_the_incumbent(self):
        assert pi(np.array([2.0]), np.array([1.0]), best=2.0)[0] == pytest.approx(0.5)

    def test_deterministic_candidates_become_indicators(self):
        values = pi(np.array([1.0, 2.0, 3.0]), np.zeros(3), best=2.0)
        assert list(values) == [1.0, 0.0, 0.0]


class TestLowerConfidenceBound:
    def test_frozen_example(self):
        assert lcb(np.array([5.0]), np.array([2.0]), kappa=1.96)[0] == 1.08

    def test_kappa_linearity(self):
        mu = np.array([4.0, 2.5])
        sigma = np.array([1.0, 0.5])
        for kappa in (0.0, 0.5, 1.96, 3.0):
            np.testing.assert_array_equal(lcb(mu, sigma, kappa), mu - kappa * sigma)


class TestPortfolio:
    def test_nominates_one_index_per_acquisition(self):
        rng = np.random.default_rng(0)
        mu = rng.uniform(0.0, 5.0, size=40)
        sigma = rng.uniform(0.1, 2.0, size=40)
        nominees = portfolio_nominate(mu, sigma, best=2.0, kappa=KAPPA)
        assert nominees.shape == (len(PORTFOLIO),)
        assert all(0 <= i < 40 for i in nominees)

    def test_pure_exploit_prefers_low_mean_when_flat_sigma(self):
        # only the middle candidate improves on the incumbent, so every
        # member of the portfolio must nominate it
        mu = np.array([3.0, 1.0, 2.0])
        sigma = np.zeros(3)
        nominees = portfolio_nominate(mu, sigma, best=1.5, kappa=KAPPA)
        assert list(nominees) == [1, 1, 1]

    def test_fused_nominees_equal_the_separate_acquisitions(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            n = int(rng.integers(1, 80))
            mu = rng.normal(2.0, 1.5, size=n).round(int(rng.integers(0, 3)))  # rounding makes ties
            sigma = rng.uniform(0.0, 2.0, size=n)
            sigma[rng.random(n) < 0.3] = 0.0
            best = float(rng.normal(2.0, 1.0))
            kappa = float(rng.uniform(0.0, 3.0))
            expected = [
                ei(mu, sigma, best).argmax(),
                pi(mu, sigma, best).argmax(),
                lcb(mu, sigma, kappa).argmin(),
            ]
            assert list(portfolio_nominate(mu, sigma, best, kappa)) == expected


class TestHedge:
    def test_uniform_at_the_start(self):
        probs = hedge_probabilities(HedgeState(eta=1.0))
        np.testing.assert_allclose(probs, np.full(len(PORTFOLIO), 1.0 / len(PORTFOLIO)))

    def test_softmax_of_unit_gain(self):
        state = HedgeState(eta=1.0)
        hedge_update(state, np.array([1.0, 0.0, 0.0]))
        probs = hedge_probabilities(state)
        e = math.e
        assert probs[0] == pytest.approx(e / (e + 2.0), abs=1e-12)
        assert probs[1] == pytest.approx(1.0 / (e + 2.0), abs=1e-12)
        assert probs[2] == pytest.approx(1.0 / (e + 2.0), abs=1e-12)

    def test_probabilities_sum_to_one(self):
        state = HedgeState(eta=1.0)
        rng = np.random.default_rng(5)
        for _ in range(50):
            hedge_update(state, rng.uniform(-3.0, 3.0, size=len(PORTFOLIO)))
            assert abs(hedge_probabilities(state).sum() - 1.0) <= 1e-12

    def test_persistent_gap_concentrates_quickly(self):
        state = HedgeState(eta=1.0)
        for _ in range(200):
            hedge_update(state, np.array([1.0, 0.0, 0.0]))
        assert hedge_probabilities(state)[0] > 0.99

    def test_huge_gains_do_not_overflow(self):
        state = HedgeState(gains=np.array([1e6, 0.0, -1e6]), eta=1.0)
        probs = hedge_probabilities(state)
        assert np.isfinite(probs).all()
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_huge_eta_is_one_hot_on_the_best_arm(self):
        state = HedgeState(gains=np.array([0.5, 2.0, -1.0]), eta=1e308)
        probs = hedge_probabilities(state)  # a warning would fail this test
        assert np.isfinite(probs).all()
        assert probs.sum() == 1.0
        assert probs.tolist() == [0.0, 1.0, 0.0]
        assert hedge_select(state, np.random.default_rng(0)) == 1

    def test_selection_follows_the_distribution(self):
        state = HedgeState(gains=np.array([5.0, 0.0, 0.0]), eta=1.0)
        rng = np.random.default_rng(9)
        draws = [hedge_select(state, rng) for _ in range(500)]
        assert draws.count(0) > 450

    def test_update_rejects_wrong_arity(self):
        state = HedgeState(eta=1.0)
        with pytest.raises(ValueError):
            hedge_update(state, np.array([1.0]))

    def test_eta_must_be_positive(self):
        with pytest.raises(ValueError):
            HedgeState(eta=0.0)


def reference_ei(mu, sigma, best):
    """EI as written with scipy.stats.norm."""
    from scipy.stats import norm

    improve = best - mu
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.where(sigma > 0.0, improve / sigma, 0.0)
    exact = np.maximum(improve, 0.0)
    return np.where(sigma > 0.0, improve * norm.cdf(d) + sigma * norm.pdf(d), exact)


def reference_pi(mu, sigma, best):
    """PI as written with scipy.stats.norm."""
    from scipy.stats import norm

    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.where(sigma > 0.0, (best - mu) / sigma, 0.0)
    return np.where(sigma > 0.0, norm.cdf(d), (mu < best).astype(float))


def assert_same_bits(actual, expected):
    """Equal bit patterns, except that any NaN matches any NaN."""
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(actual), nan)
    assert np.array_equal(actual[~nan].view(np.int64), expected[~nan].view(np.int64))


class TestAgainstScipyStats:
    def inputs(self):
        rng = np.random.default_rng(8)
        mu = rng.normal(0.0, 20.0, size=200_000)
        sigma = np.abs(rng.normal(0.0, 5.0, size=200_000)) * rng.choice([1e-6, 1.0, 1e3], 200_000)
        special = [0.0, 1e-300, 1e300, -1e300, math.inf, -math.inf, math.nan, 40.0, -40.0]
        mu_edge, sigma_edge = np.meshgrid(special, [0.0, 1e-300, 1.0, 1e300, math.inf, math.nan])
        return np.concatenate([mu, mu_edge.ravel()]), np.concatenate([sigma, sigma_edge.ravel()])

    @pytest.mark.parametrize("best", [0.0, 3.5, -1e6, math.inf])
    def test_ei_and_pi_match_bit_for_bit(self, best):
        mu, sigma = self.inputs()
        with np.errstate(invalid="ignore", over="ignore"):
            assert_same_bits(ei(mu, sigma, best), reference_ei(mu, sigma, best))
            assert_same_bits(pi(mu, sigma, best), reference_pi(mu, sigma, best))

    def test_importing_the_harness_leaves_scipy_stats_out(self):
        src = Path(sliceorch.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
        code = "import sys, sliceorch.harness; print('scipy.stats' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
        )
        assert out.stdout.strip() == "False"
