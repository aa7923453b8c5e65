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
from scipy.optimize import _lbfgsb

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

# Kernel entries and posterior weights below sqrt(tiny) (about 1.5e-154) are
# set to 0: a product of two of them would be subnormal, and the CPU handles
# subnormal arithmetic about ten times slower. It happens once a length
# scale nears its 1e-2 bound and neighbouring grid rows decorrelate.
SQRT_TINY = math.sqrt(np.finfo(float).tiny)

# scipy.optimize.minimize(method="L-BFGS-B")'s defaults: memory (maxcor),
# factr = ftol / eps, gtol, line-search steps and evaluation limit (maxfun).
_LBFGSB_M = 10
_LBFGSB_FACTR = 2.2204460492503131e-09 / np.finfo(float).eps
_LBFGSB_PGTOL = 1e-5
_LBFGSB_MAXLS = 20
_LBFGSB_MAXFUN = 15000


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
    arriving experience), inserts the newcomer at priority 1, and evicts the
    oldest entry once full. Re-observing an input already in the buffer (same
    `key()`) replaces the stale entry instead of appending a duplicate: repeats
    carry no new information but would crowd out the diversity the surrogate
    needs.
    Sampling is proportional to priority, without replacement.
    """

    def __init__(self, capacity: int, decay: float = 0.95):
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        if not 0.0 < decay <= 1.0:
            raise ValueError(f"decay must lie in (0, 1], got {decay}")
        self.capacity = capacity
        self.decay = decay
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
        key = item.key()
        for i, old in enumerate(self._items):
            if old.key() == key:
                del self._items[i]
                break
        if len(self._items) == self.capacity:
            self._items.popleft()
        item.priority = 1.0
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


def _norm(scaled: np.ndarray) -> np.ndarray:
    """Euclidean norm r over the last axis of an (m, n, d) array.

    Every kernel path calls this one einsum, so they all sum the d squares
    in the same order and agree bit for bit.
    """
    return np.sqrt(np.maximum(np.einsum("mnd,mnd->mn", scaled, scaled), 0.0))


def _scaled_distance(diff: np.ndarray, params: KernelParams) -> tuple[np.ndarray, np.ndarray]:
    """Per-dimension differences over the length scales, and their norm r."""
    scaled = diff / np.asarray(params.length_scales, dtype=float)
    return scaled, _norm(scaled)


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


def _covariance(scaled: np.ndarray, params: KernelParams) -> np.ndarray:
    """Matern covariance at scaled differences (m, n, d), flushed below SQRT_TINY."""
    k = params.signal_var * _matern(_norm(scaled), params.nu)[0]
    k[k < SQRT_TINY] = 0.0
    return k


def kernel_matrix(a: np.ndarray, b: np.ndarray, params: KernelParams) -> np.ndarray:
    """Matern cross-covariance between row sets `a` (m,d) and `b` (n,d).

    Entries below SQRT_TINY are 0.
    """
    diff = a[:, None, :] - b[None, :, :]
    return _covariance(diff / np.asarray(params.length_scales, dtype=float), params)


class KernelLattice:
    """Kernel columns over one fixed candidate matrix, from per-dimension tables.

    A grid's rows take few distinct values per dimension (the levels), so
    the scaled differences to a row are looked up instead of computed per
    candidate: `column` fills a (d, V) table with (level - row_d) / l_d and
    gathers it through a flat (m, d) index built once here. The gathered
    differences are the ones kernel_matrix computes, and both pass them
    through `_covariance`, so a column equals
    kernel_matrix(candidates, row[None, :], params)[:, 0] bit for bit.
    """

    def __init__(self, candidates: np.ndarray):
        candidates = np.atleast_2d(np.asarray(candidates, dtype=float))
        levels = [np.unique(candidates[:, k]) for k in range(candidates.shape[1])]
        width = max(len(v) for v in levels)
        # Short dimensions repeat their last level; the gather never reads it.
        self._levels = np.array([np.pad(v, (0, width - len(v)), mode="edge") for v in levels])
        self._index = np.stack(
            [k * width + np.searchsorted(v, candidates[:, k]) for k, v in enumerate(levels)],
            axis=1,
        )

    def column(self, row: np.ndarray, params: KernelParams) -> np.ndarray:
        """kernel_matrix(candidates, row[None, :], params)[:, 0]."""
        scale = np.asarray(params.length_scales, dtype=float)[:, None]
        table = (self._levels - np.asarray(row, dtype=float)[:, None]) / scale
        return _covariance(table.ravel()[self._index][:, None, :], params)[:, 0]


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
    before it scales them, so a Gram built from `diff` has the same bits
    wherever kernel_matrix's entry is at least SQRT_TINY; kernel_matrix sets
    the smaller ones to 0, and the likelihood's Gram keeps them.
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
    w[np.abs(w) < SQRT_TINY] = 0.0
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


def _lbfgsb_minimize(
    fun_and_grad, x0: np.ndarray, lower: np.ndarray, upper: np.ndarray, max_iter: int
) -> tuple[np.ndarray, float]:
    """Minimize over the box [lower, upper] with scipy's L-BFGS-B core, `setulb`.

    Step for step what minimize(fun_and_grad, x0, jac=True, method="L-BFGS-B",
    bounds=..., options={"maxiter": max_iter}) does, without the function
    wrapper and result objects it builds around the same core: the start is
    clipped into the box and evaluated once, `setulb` is re-entered with the
    values of the last point evaluated, a point is evaluated again only when
    `setulb` asks at one that differs from it, and the search stops on the
    max_iter-th new iterate. Returns minimize's res.x and res.fun.
    """
    m, n = _LBFGSB_M, x0.size
    x = np.clip(x0, lower, upper)
    x_seen = x.copy()
    f_seen, g_seen = fun_and_grad(x_seen)
    evaluations, iterations = 1, 0
    nbd = np.full(n, 2, dtype=np.int32)  # 2: bounded below and above
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, dtype=np.int32)
    task = np.zeros(2, dtype=np.int32)
    ln_task = np.zeros(2, dtype=np.int32)
    lsave = np.zeros(4, dtype=np.int32)
    isave = np.zeros(44, dtype=np.int32)
    dsave = np.zeros(29)
    f, g = np.array(0.0), np.zeros(n)
    while True:
        # setulb gets its own copy of g each call, as minimize's loop does.
        g = g.astype(np.float64)
        _lbfgsb.setulb(m, x, lower, upper, nbd, f, g, _LBFGSB_FACTR, _LBFGSB_PGTOL,
                       wa, iwa, task, lsave, isave, dsave, _LBFGSB_MAXLS, ln_task)
        if task[0] == 3:  # FG: f and g wanted at x
            if not np.array_equal(x, x_seen):
                x_seen = x.copy()
                f_seen, g_seen = fun_and_grad(x_seen)
                evaluations += 1
            f, g = f_seen, g_seen
        elif task[0] == 1:  # NEW_X: an iteration finished
            iterations += 1
            if iterations >= max_iter:
                task[:] = 5, 504  # STOP: iteration limit
            elif evaluations > _LBFGSB_MAXFUN:
                task[:] = 5, 502  # STOP: evaluation limit
        else:
            return x, f


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
    evaluation. Deterministic given the data. When no evaluation succeeds,
    `init` and `noise_var` come back unchanged.
    """
    data = TrainingSet.build(inputs, targets)
    d = data.x.shape[1]
    reference = reference or init
    succeeded = False

    def pack(p: KernelParams, nv: float) -> np.ndarray:
        return np.log(np.array([*p.length_scales, p.signal_var, max(nv, 1e-8)]))

    def unpack(theta: np.ndarray) -> tuple[KernelParams, float]:
        vals = np.exp(theta)
        return (
            KernelParams(tuple(float(v) for v in vals[:d]), float(vals[d]), init.nu),
            float(vals[d + 1]),
        )

    def negative_lml(theta: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal succeeded
        try:
            p, nv = unpack(theta)
            value, grad = log_marginal_likelihood(data, p, nv)
        except (GpFitError, FloatingPointError, ValueError):
            return 1e12, np.zeros(d + 2)
        succeeded = True
        return -value, -grad

    lower = np.array([math.log(1e-2)] * d + [math.log(1e-4), math.log(1e-8)])
    upper = np.array([math.log(1e3)] * d + [math.log(1e4), math.log(1e-1)])
    best_theta, best_val = None, math.inf
    for theta0 in (pack(init, noise_var), pack(reference, 1e-4)):
        theta, value = _lbfgsb_minimize(negative_lml, theta0, lower, upper, max_iter)
        if value < best_val:
            best_theta, best_val = theta, value
    if not succeeded or best_theta is None or not math.isfinite(best_val):
        return init, noise_var
    return unpack(best_theta)


def default_length_scales(spans: Iterable[float]) -> tuple[float, ...]:
    """Half the span of each input dimension, floored away from zero."""
    return tuple(max(span / 2.0, 1e-2) for span in spans)
