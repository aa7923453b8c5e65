"""Gaussian-process surrogate and priority replay buffer for the slice agents.

Exact GP regression with a Matern kernel over anisotropic (per-dimension)
length scales, zero prior mean over standardized targets. The training window
comes from a small replay buffer whose priorities decay with age, so the
surrogate tracks a drifting environment instead of averaging over history.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.linalg import get_lapack_funcs
from scipy.optimize import minimize

from .core import PerfVector
from .errors import GpFitError

# Jitter escalation: start tiny, multiply by 10, give up past the max.
_JITTER_START = 1e-10
_JITTER_MAX = 1e-4

# LAPACK's float64 Cholesky factorization, solve and triangular inverse,
# called directly: at a few dozen training rows, scipy.linalg.cholesky/
# cho_solve spend longer on argument handling than LAPACK spends on the
# arithmetic.
_POTRF, _POTRS, _TRTRI = get_lapack_funcs(("potrf", "potrs", "trtri"), (np.empty((0, 0)),))


@dataclass(frozen=True)
class GpInput:
    """Surrogate input for one slice observation.

    peers_sw is the slot's aggregated sharing weight of the other slices:
    exogenous context that shifts how much pool the slice's own sw can win.
    """

    svrb: float
    sw: float
    peers_sw: float

    def as_array(self) -> np.ndarray:
        return np.array([self.svrb, self.sw, self.peers_sw], dtype=float)


@dataclass
class Experience:
    """One observed (input, delivered performance) pair.

    The raw PerfVector is stored rather than a scalar objective so targets can
    be re-priced under whatever SLA thresholds hold at fit time.
    """

    input: GpInput
    observed: PerfVector
    slot: int
    priority: float = 1.0

    def key(self) -> tuple:
        """Identity of the queried input, for duplicate replacement."""
        return (self.input.svrb, self.input.sw, self.input.peers_sw)

    def row(self) -> np.ndarray:
        """The queried input as a surrogate training row."""
        return self.input.as_array()


class ReplayBuffer:
    """Fixed-capacity buffer with age-decayed priorities.

    Every push decays all retained priorities by `decay` (one aging step per
    arriving experience), inserts the newcomer at maximal priority, and evicts
    the oldest entry once full. Re-observing an input already in the buffer
    replaces the stale entry instead of appending a duplicate: repeats carry
    no new information but would crowd out the diversity the surrogate needs.
    Sampling is proportional to priority, without replacement.
    """

    def __init__(self, capacity: int, decay: float = 0.95, max_priority: float = 1.0):
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        if not 0.0 < decay <= 1.0:
            raise ValueError(f"decay must lie in (0, 1], got {decay}")
        self.capacity = capacity
        self.decay = decay
        self.max_priority = max_priority
        self._items: deque = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> list:
        """Oldest-first view of the buffer contents."""
        return list(self._items)

    def push(self, item) -> None:
        for old in self._items:
            old.priority *= self.decay
        key = item.key() if hasattr(item, "key") else None
        if key is not None:
            for i, old in enumerate(self._items):
                if hasattr(old, "key") and old.key() == key:
                    del self._items[i]
                    break
        if len(self._items) == self.capacity:
            self._items.popleft()
        item.priority = self.max_priority
        self._items.append(item)

    def sample(self, n: int, rng: np.random.Generator) -> list:
        """Draw min(n, len) distinct items with probability proportional to priority."""
        if n <= 0:
            return []
        if n >= len(self._items):
            return list(self._items)
        priorities = np.array([it.priority for it in self._items], dtype=float)
        weights = priorities / priorities.sum()
        idx = rng.choice(len(self._items), size=n, replace=False, p=weights)
        return [self._items[i] for i in idx]


@dataclass(frozen=True)
class KernelParams:
    """Matern kernel hyperparameters with one length scale per input dimension."""

    length_scales: tuple[float, ...]
    signal_var: float = 1.0
    nu: float = 2.5

    def __post_init__(self) -> None:
        if any(l <= 0.0 for l in self.length_scales):
            raise ValueError(f"length scales must be > 0, got {self.length_scales}")
        if self.signal_var <= 0.0:
            raise ValueError(f"signal_var must be > 0, got {self.signal_var}")
        if self.nu not in (0.5, 1.5, 2.5):
            raise ValueError(f"nu must be one of 0.5, 1.5, 2.5, got {self.nu}")


def _scaled_distance(diff: np.ndarray, params: KernelParams) -> tuple[np.ndarray, np.ndarray]:
    """Per-dimension differences over the length scales, and their norm r."""
    scaled = diff / np.asarray(params.length_scales, dtype=float)
    return scaled, np.sqrt(np.maximum(np.einsum("mnd,mnd->mn", scaled, scaled), 0.0))


def _matern(r: np.ndarray, nu: float, slope: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """Unit-variance Matern shape k(r), and with `slope` also g(r) = -k'(r) / r.

    g is what the likelihood gradient needs: d k / d log l_k = g(r) (diff_k / l_k)^2.
    At nu = 0.5 it diverges at r = 0, where every diff_k is 0; it is taken as 0 there.
    """
    if nu == 0.5:
        shape = np.exp(-r)
        g = np.divide(shape, r, out=np.zeros_like(r), where=r > 0.0) if slope else None
    elif nu == 1.5:
        t = math.sqrt(3.0) * r
        decay = np.exp(-t)
        shape = (1.0 + t) * decay
        g = 3.0 * decay if slope else None
    else:
        t = math.sqrt(5.0) * r
        decay = np.exp(-t)
        shape = (1.0 + t + t * t / 3.0) * decay
        g = (5.0 / 3.0) * (1.0 + t) * decay if slope else None
    return shape, g


def kernel_matrix(a: np.ndarray, b: np.ndarray, params: KernelParams) -> np.ndarray:
    """Matern cross-covariance between row sets `a` (m,d) and `b` (n,d)."""
    _, r = _scaled_distance(a[:, None, :] - b[None, :, :], params)
    return params.signal_var * _matern(r, params.nu)[0]


def _chol_with_jitter(gram: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor, escalating diagonal jitter until it succeeds.

    A Gram matrix with an inf or NaN entry raises ValueError before any
    factorization is tried.
    """
    if not np.isfinite(gram).all():
        raise ValueError("Gram matrix must not contain infs or NaNs")
    chol, info = _POTRF(gram, lower=1, clean=1)
    if info == 0:
        return chol, 0.0
    diag = gram.diagonal()
    jittered = gram.copy()
    jitter = _JITTER_START
    while jitter <= _JITTER_MAX:
        np.fill_diagonal(jittered, diag + jitter)
        chol, info = _POTRF(jittered, lower=1, clean=1)
        if info == 0:
            return chol, jitter
        jitter *= 10.0
    raise GpFitError(f"Gram factorization failed with jitter up to {_JITTER_MAX}")


def _cho_solve(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (chol chol^T) x = rhs; an inf or NaN in rhs raises ValueError."""
    if not np.isfinite(rhs).all():
        raise ValueError("right-hand side must not contain infs or NaNs")
    return _POTRS(chol, rhs, lower=1)[0]


def _noisy_gram(x: np.ndarray, params: KernelParams, noise_var: float) -> np.ndarray:
    """Training covariance: the kernel over x plus noise_var on the diagonal."""
    gram = kernel_matrix(x, x, params)
    gram.flat[:: x.shape[0] + 1] += noise_var
    return gram


@dataclass
class GpModel:
    """Fitted exact-GP posterior (or the bare prior when x_train is None).

    `w` is [L^-T | alpha], n x (n + 1), for the Cholesky factor L of the
    training Gram and alpha = K^-1 y_std: k_star @ w holds the whitened
    cross-covariance L^-1 k_star^T (transposed) in its first n columns and
    the standardized posterior mean in its last (GPML, Alg. 2.1).
    """

    params: KernelParams
    noise_var: float
    x_train: np.ndarray | None = None
    y_mean: float = 0.0
    y_scale: float = 1.0
    chol: np.ndarray | None = None
    w: np.ndarray | None = None
    jitter: float = 0.0

    @classmethod
    def prior(cls, params: KernelParams, noise_var: float = 0.0) -> "GpModel":
        return cls(params=params, noise_var=noise_var)

    @property
    def alpha(self) -> np.ndarray | None:
        """K^-1 y_std, the last column of `w`."""
        return None if self.w is None else self.w[:, -1]

    @property
    def prior_var(self) -> float:
        """Prior predictive variance in raw target units."""
        return self.params.signal_var * self.y_scale * self.y_scale

    def predict(
        self, x_query: np.ndarray, k_star: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation at the query rows.

        The cross-covariance k_star = kernel_matrix(x_query, x_train, params)
        is multiplied by the cached `w` in one product, whose last column is
        the mean and whose other columns, squared and summed, are the
        variance explained by the data. An inf or NaN in k_star carries into
        the product and raises ValueError. `k_star`, when given, must equal
        that kernel matrix; callers that cache kernel columns pass it to skip
        the recomputation.
        """
        x_query = np.atleast_2d(np.asarray(x_query, dtype=float))
        if self.x_train is None:
            mu = np.zeros(x_query.shape[0])
            sigma = np.full(x_query.shape[0], math.sqrt(self.params.signal_var))
            return mu, sigma
        if k_star is None:
            k_star = kernel_matrix(x_query, self.x_train, self.params)
        out = k_star @ self.w
        if not np.isfinite(out).all():
            raise ValueError("cross-covariance must not contain infs or NaNs")
        n = self.w.shape[0]
        var_std = self.params.signal_var - np.einsum("mn,mn->m", out[:, :n], out[:, :n])
        sigma = self.y_scale * np.sqrt(np.clip(var_std, 0.0, None))
        return self.y_mean + self.y_scale * out[:, n], sigma


def _standardize(targets: np.ndarray) -> tuple[np.ndarray, float, float]:
    mean = float(targets.mean())
    scale = float(targets.std())
    if not math.isfinite(scale) or scale < 1e-12:
        scale = 1.0
    return (targets - mean) / scale, mean, scale


@dataclass(frozen=True)
class TrainingSet:
    """GP training rows as float arrays, with targets standardized once.

    The hyperparameter search evaluates the likelihood of the same data at
    many hyperparameters; building this once keeps the conversion, the
    standardization and the pairwise row differences `diff` (n, n, d) out of
    every evaluation. kernel_matrix(x, x, .) subtracts the rows the same way
    before it scales them, so a Gram built from `diff` has the same bits.
    """

    x: np.ndarray
    y_std: np.ndarray
    y_mean: float
    y_scale: float
    diff: np.ndarray

    @classmethod
    def build(cls, inputs: np.ndarray, targets: Sequence[float] | np.ndarray) -> "TrainingSet":
        x = np.atleast_2d(np.asarray(inputs, dtype=float))
        y_std, y_mean, y_scale = _standardize(np.asarray(targets, dtype=float))
        return cls(x, y_std, y_mean, y_scale, x[:, None, :] - x[None, :, :])


def fit(
    inputs: np.ndarray,
    targets: Sequence[float] | np.ndarray,
    params: KernelParams,
    noise_var: float,
) -> GpModel:
    """Fit the exact GP on (inputs, targets) with fixed hyperparameters."""
    x = np.atleast_2d(np.asarray(inputs, dtype=float))
    y = np.asarray(targets, dtype=float)
    if x.shape[0] == 0:
        raise ValueError("cannot fit a GP on zero experiences")
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"{x.shape[0]} inputs but {y.shape[0]} targets")
    if x.shape[1] != len(params.length_scales):
        raise ValueError(
            f"inputs have {x.shape[1]} dims but kernel has {len(params.length_scales)} length scales"
        )
    if noise_var < 0.0:
        raise ValueError(f"noise_var must be >= 0, got {noise_var}")
    data = TrainingSet.build(x, y)
    chol, jitter = _chol_with_jitter(_noisy_gram(data.x, params, noise_var))
    alpha = _cho_solve(chol, data.y_std)
    chol_inv, info = _TRTRI(chol, lower=1)
    if info != 0:
        raise GpFitError(f"inverting the Cholesky factor failed (trtri info {info})")
    n = data.x.shape[0]
    w = np.empty((n, n + 1))
    w[:, :n] = chol_inv.T
    w[:, n] = alpha
    return GpModel(
        params=params,
        noise_var=noise_var,
        x_train=data.x,
        y_mean=data.y_mean,
        y_scale=data.y_scale,
        chol=chol,
        w=w,
        jitter=jitter,
    )


def log_marginal_likelihood(
    data: TrainingSet, params: KernelParams, noise_var: float
) -> tuple[float, np.ndarray]:
    """Log marginal likelihood of the standardized targets, and its gradient.

    The gradient is taken in the search's coordinates theta = (log l_1 ..
    log l_d, log signal_var, log noise_var) and reuses the one factor of the
    Gram K: d/d theta_j = 1/2 tr((alpha alpha^T - K^-1) dK/d theta_j)
    (Rasmussen & Williams, GPML, eq. 5.9). Jitter added to factor K is held
    constant, so it adds nothing to dK.
    """
    scaled, r = _scaled_distance(data.diff, params)
    shape, slope = _matern(r, params.nu, slope=True)
    n = data.x.shape[0]
    gram = params.signal_var * shape
    gram.flat[:: n + 1] += noise_var
    chol, _ = _chol_with_jitter(gram)
    alpha = _cho_solve(chol, data.y_std)
    value = float(
        -0.5 * data.y_std @ alpha - np.log(np.diag(chol)).sum() - 0.5 * n * math.log(2.0 * math.pi)
    )
    w = np.outer(alpha, alpha) - _POTRS(chol, np.eye(n), lower=1)[0]
    grad = np.empty(len(params.length_scales) + 2)
    grad[:-2] = 0.5 * params.signal_var * np.einsum("ab,abk->k", w * slope, scaled * scaled)
    grad[-2] = 0.5 * params.signal_var * np.vdot(w, shape)
    grad[-1] = 0.5 * noise_var * np.trace(w)
    return value, grad


def optimize_params(
    inputs: np.ndarray,
    targets: np.ndarray,
    init: KernelParams,
    noise_var: float,
    reference: KernelParams | None = None,
    max_iter: int = 15,
) -> tuple[KernelParams, float]:
    """Refit hyperparameters by maximizing log marginal likelihood.

    Multi-start local search in log space: one start from the current
    hyperparameters, one from the reference (dimension-span) defaults.
    L-BFGS-B takes the likelihood's analytic gradient, so each step costs one
    evaluation. Deterministic given the data.
    """
    data = TrainingSet.build(inputs, targets)
    d = data.x.shape[1]
    reference = reference or init

    def pack(p: KernelParams, nv: float) -> np.ndarray:
        return np.log(np.array([*p.length_scales, p.signal_var, max(nv, 1e-8)]))

    def unpack(theta: np.ndarray) -> tuple[KernelParams, float]:
        vals = np.exp(theta)
        return (
            KernelParams(tuple(float(v) for v in vals[:d]), float(vals[d]), init.nu),
            float(vals[d + 1]),
        )

    def negative_lml(theta: np.ndarray) -> tuple[float, np.ndarray]:
        try:
            p, nv = unpack(theta)
            value, grad = log_marginal_likelihood(data, p, nv)
            return -value, -grad
        except (GpFitError, FloatingPointError, ValueError):
            return 1e12, np.zeros(d + 2)

    bounds = [(math.log(1e-2), math.log(1e3))] * d + [
        (math.log(1e-4), math.log(1e4)),
        (math.log(1e-8), math.log(1e-1)),
    ]
    starts = [pack(init, noise_var), pack(reference, 1e-4)]
    best_theta, best_val = None, math.inf
    for theta0 in starts:
        res = minimize(
            negative_lml,
            np.clip(theta0, [b[0] for b in bounds], [b[1] for b in bounds]),
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
            options={"maxiter": max_iter},
        )
        if res.fun < best_val:
            best_theta, best_val = res.x, res.fun
    if best_theta is None or not math.isfinite(best_val):
        return init, noise_var
    return unpack(best_theta)


def default_length_scales(spans: Iterable[float]) -> tuple[float, ...]:
    """Half the span of each input dimension, floored away from zero."""
    return tuple(max(span / 2.0, 1e-2) for span in spans)
