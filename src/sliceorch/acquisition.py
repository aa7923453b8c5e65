"""Acquisition portfolio and Hedge arbitration for the Bayesian agents.

All acquisitions score candidates for *minimization* of the surrogate
objective; larger scores are more promising. A softmax Hedge bandit picks
which acquisition's nominee is actually played, learning from full-information
rewards (every arm is rewarded each round, played or not). EI and PI take
scipy.special's ndtr, imported when they are first called; in a run, the
first GP fit has imported it already.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

PORTFOLIO = ("ei", "pi", "lcb")
KAPPA = 1.96  # the optimizers' LCB exploration weight: a two-sided 95% normal quantile
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _normal_pdf(d: np.ndarray) -> np.ndarray:
    """Standard normal density, written as scipy.stats.norm.pdf evaluates it.

    scipy.stats costs about as much to import as the rest of the program, so
    the density is written out here and the distribution function is
    scipy.special.ndtr, which norm.cdf itself calls.
    """
    return np.exp(-(d**2) / 2.0) / _SQRT_2PI


def _ei_pi(mu: np.ndarray, sigma: np.ndarray, best: float) -> tuple[np.ndarray, np.ndarray]:
    """Expected improvement and probability of improvement below the best.

    Both read one standardized improvement d = (best - mu) / sigma and one
    ndtr(d). A candidate without positive sigma is deterministic: where
    there are any, their entries are patched to the plain improvement and
    an indicator.
    """
    from scipy.special import ndtr

    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    improve = best - mu
    with np.errstate(divide="ignore", invalid="ignore"):
        d = improve / sigma
    probability = ndtr(d)
    expected = improve * probability
    expected += sigma * _normal_pdf(d)
    flat = ~(sigma > 0.0)
    if flat.any():
        expected[flat] = np.maximum(improve[flat], 0.0)
        probability[flat] = mu[flat] < best
    return expected, probability


def ei(mu: np.ndarray, sigma: np.ndarray, best: float) -> np.ndarray:
    """Expected improvement below the incumbent best."""
    return _ei_pi(mu, sigma, best)[0]


def pi(mu: np.ndarray, sigma: np.ndarray, best: float) -> np.ndarray:
    """Probability of improving on the incumbent best."""
    return _ei_pi(mu, sigma, best)[1]


def lcb(mu: np.ndarray, sigma: np.ndarray, kappa: float) -> np.ndarray:
    """Lower confidence bound; smaller is more promising."""
    return np.asarray(mu, dtype=float) - kappa * np.asarray(sigma, dtype=float)


def portfolio_nominate(
    mu: np.ndarray, sigma: np.ndarray, best: float, kappa: float
) -> np.ndarray:
    """Each acquisition's favorite candidate index, in PORTFOLIO order.

    EI and PI share one standardized improvement and one ndtr. Ties resolve
    to the first (lowest-index) candidate, so callers get lexicographic
    tie-breaking for free by ordering their grids; the first NaN score beats
    every number, as argmax and argmin let it.
    """
    expected, probability = _ei_pi(mu, sigma, best)
    return np.array([expected.argmax(), probability.argmax(), lcb(mu, sigma, kappa).argmin()])


@dataclass
class HedgeState:
    """Cumulative gains and softmax temperature of the acquisition bandit."""

    eta: float
    gains: np.ndarray = field(default_factory=lambda: np.zeros(len(PORTFOLIO)))

    def __post_init__(self) -> None:
        self.gains = np.asarray(self.gains, dtype=float)
        if self.eta <= 0.0:
            raise ValueError(f"eta must be > 0, got {self.eta}")


def hedge_probabilities(state: HedgeState) -> np.ndarray:
    """Softmax of eta-scaled gains, max-shifted so large gains cannot overflow.

    The shift comes before the scaling, so a huge eta sends lower gains to -inf (weight 0).
    """
    with np.errstate(over="ignore"):
        expd = np.exp(state.eta * (state.gains - state.gains.max()))
    return expd / expd.sum()


def hedge_select(state: HedgeState, rng: np.random.Generator) -> int:
    """Draw an arm index from the softmax distribution."""
    return int(rng.choice(len(state.gains), p=hedge_probabilities(state)))


def hedge_update(state: HedgeState, rewards: np.ndarray) -> None:
    """Full-information update: every arm's gain absorbs its reward."""
    rewards = np.asarray(rewards, dtype=float)
    if rewards.shape != state.gains.shape:
        raise ValueError(f"expected {state.gains.shape[0]} rewards, got {rewards.shape}")
    state.gains = state.gains + rewards
