"""Gaussian-process surrogate.

Exact GP regression with a Matern 5/2 kernel over anisotropic (per-dimension)
length scales, zero prior mean over standardized targets, fitted on float
input rows and scalar targets. Which rows it is fitted on is the optimizers'
choice (`agent.PortfolioBo`); nothing here knows about slices, actions,
prices or training windows. scipy's LAPACK handles and L-BFGS-B core are
loaded on the first fit, not with this module, from scipy's compiled
modules alone; no scipy subpackage is imported (`_load_scipy`).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
from dataclasses import dataclass
from types import ModuleType
from typing import Iterable, Sequence

import numpy as np

from .errors import GpFitError

# Jitter escalation: start tiny, multiply by 10, give up past the max.
_JITTER_START = 1e-10
_JITTER_MAX = 1e-4

# LAPACK's float64 Cholesky factorization, solve and triangular inverse,
# called directly: at a few dozen training rows, scipy.linalg.cholesky/
# cho_solve spend longer on argument handling than LAPACK spends on the
# arithmetic. Then scipy's L-BFGS-B core. All four are bound by _load_scipy.
_POTRF = _POTRS = _TRTRI = _SETULB = None
_SCIPY_LOCK = threading.Lock()


def scipy_extension(name: str) -> ModuleType:
    """scipy's compiled module `name`, loaded from its file in the installed scipy.

    The file is found under the `scipy` package's directory by the
    interpreter's extension suffixes and loaded without importing the
    package it sits in: no `__init__` of scipy.linalg, scipy.optimize or
    scipy.special runs. The module is registered in sys.modules under
    `name`, so a package imported later links this module object rather
    than loading the file again; a module already there (its package was
    imported first) is returned as it is. One gap: the import system sets a
    package's attribute for a child only when it loads the child itself. So
    once `name` is loaded here, a later `import scipy.optimize` leaves no
    attribute `scipy.optimize._lbfgsb`, though `from scipy.optimize import
    _lbfgsb` gives this module.
    """
    module = sys.modules.get(name)
    if module is not None:
        return module
    with _SCIPY_LOCK:  # two threads fitting at once load the file once
        module = sys.modules.get(name)
        if module is not None:
            return module
        scipy = importlib.util.find_spec("scipy")  # locates the package, runs no __init__
        files = [
            os.path.join(directory, *name.split(".")[1:]) + suffix
            for directory in (scipy and scipy.submodule_search_locations) or ()
            for suffix in importlib.machinery.EXTENSION_SUFFIXES
        ]
        path = next((f for f in files if os.path.isfile(f)), None)
        if path is None:
            raise ImportError(
                f"{name} is missing from the installed scipy ({_scipy_version()});"
                " sliceorch needs scipy>=1.17"
            )
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module  # once complete, since readers outside the lock take it as is
        return module


def _scipy_version() -> str:
    from importlib import metadata

    try:
        return metadata.version("scipy")
    except metadata.PackageNotFoundError:
        return "none"


def _load_scipy() -> None:
    """Bind the scipy routines that fitting a GP and scoring its candidates call.

    They are LAPACK's dpotrf, dpotrs and dtrtri, L-BFGS-B's setulb and the
    normal distribution function ndtr, and they live in three compiled
    modules, each loaded by `scipy_extension`: scipy.linalg._flapack,
    scipy.optimize._lbfgsb and scipy.special._special_ufuncs. Importing the
    three packages around them would load about 300 modules and take about
    twice as long as importing numpy and the rest of sliceorch; exhaustive
    search, `validate` and `oracle` need none of them. So the three modules
    are loaded here, on the first `fit` or `TrainingSet.build`, not when
    sliceorch is imported.
    Every Bayesian optimizer fits on its first observation, before it
    searches hyperparameters or scores a candidate, so that fit loads all
    three, scipy.special._special_ufuncs (acquisition's ndtr) included. Later
    calls return at once, and the likelihood reads the handles as module
    globals, as it did when they were bound at import. The handles are the
    objects that scipy.linalg.get_lapack_funcs returns for float64 arrays.
    """
    global _POTRF, _POTRS, _TRTRI, _SETULB
    if _SETULB is not None:
        return
    scipy_extension("scipy.special._special_ufuncs")  # acquisition's ndtr, before any scoring
    flapack = scipy_extension("scipy.linalg._flapack")
    _POTRF, _POTRS, _TRTRI = flapack.dpotrf, flapack.dpotrs, flapack.dtrtri
    _SETULB = scipy_extension("scipy.optimize._lbfgsb").setulb


# Kernel entries and posterior weights below sqrt(tiny) (about 1.5e-154) are
# set to 0: a product of two of them would be subnormal, and the CPU handles
# subnormal arithmetic about ten times slower. It happens once a length
# scale nears its 1e-2 bound and neighbouring grid rows decorrelate.
SQRT_TINY = math.sqrt(np.finfo(float).tiny)

# scipy.optimize.minimize(method="L-BFGS-B")'s defaults: memory (maxcor),
# factr = ftol / eps, gtol and line-search steps.
_LBFGSB_M = 10
_LBFGSB_FACTR = 2.2204460492503131e-09 / np.finfo(float).eps
_LBFGSB_PGTOL = 1e-5
_LBFGSB_MAXLS = 20
# Iterations per start of the hyperparameter search (minimize's maxiter).
_LBFGSB_MAXITER = 15
NOISE_VAR_START = 1e-4  # a surrogate's noise variance until its first search, and its reference start


@dataclass(frozen=True)
class KernelParams:
    """Matern 5/2 kernel hyperparameters with one length scale per input dimension."""

    length_scales: tuple[float, ...]
    signal_var: float = 1.0

    def __post_init__(self) -> None:
        if any(l <= 0.0 for l in self.length_scales):
            raise ValueError(f"length scales must be > 0, got {self.length_scales}")
        if self.signal_var <= 0.0:
            raise ValueError(f"signal_var must be > 0, got {self.signal_var}")


def _row_sum(values: np.ndarray) -> np.ndarray:
    """Sum over the last axis, strictly left to right."""
    total = values[..., 0].copy()
    for k in range(1, values.shape[-1]):
        total += values[..., k]
    return total


def _sum_squares(squares: np.ndarray) -> np.ndarray:
    """Sum of (m, n, d) squares over d, in the one order every kernel path uses.

    The even-index dimensions are summed left to right, then the odd-index
    ones, and the two partial sums are added. For d <= 7 that is the order
    in which numpy 2.4's einsum("mnd,mnd->mn") sums, two lanes wide, so the
    sums keep the bits they had when the kernels called einsum; written out,
    the order no longer depends on how a numpy release vectorizes einsum.
    """
    total = _row_sum(squares[..., 0::2])
    if squares.shape[-1] > 1:
        total += _row_sum(squares[..., 1::2])
    return total


def _norm(scaled: np.ndarray) -> np.ndarray:
    """Euclidean norm r over the last axis of an (m, n, d) array, in `_sum_squares`' order."""
    return np.sqrt(_sum_squares(scaled * scaled))


def _matern(r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Unit-variance Matern 5/2 shape k(r) = (1 + t + t^2/3) e^-t, t = sqrt(5) r.

    Written into `out` when given, which may be r itself; the operations
    and their order are the same either way.
    """
    t = np.multiply(r, math.sqrt(5.0), out=out)
    decay = np.negative(t)
    np.exp(decay, out=decay)
    square = t * t
    square /= 3.0
    t += 1.0
    t += square
    t *= decay
    return t


def _covariance(r: np.ndarray, params: KernelParams) -> np.ndarray:
    """Matern covariance at distances r, flushed below SQRT_TINY, computed in place in r.

    Distances past the cut t = sqrt(5) r = 400 + max(0, ln signal_var) are
    clamped to it first. signal_var * shape(t) < e^-400 t^2 stays far below
    SQRT_TINY there, and the shape decreases, so those entries are flushed
    to 0 just as unclamped; but exp(-t) and its products no longer go
    subnormal. An inf or NaN distance is left as it is, so its entry is NaN.
    """
    cut = (400.0 + max(0.0, math.log(params.signal_var))) / math.sqrt(5.0)
    np.minimum(r, cut, out=r, where=r < math.inf)
    k = _matern(r, out=r)
    k *= params.signal_var
    k[k < SQRT_TINY] = 0.0
    return k


def kernel_matrix(a: np.ndarray, b: np.ndarray, params: KernelParams) -> np.ndarray:
    """Matern cross-covariance between row sets `a` (m,d) and `b` (n,d).

    Entries below SQRT_TINY are 0.
    """
    diff = a[:, None, :] - b[None, :, :]
    return _covariance(_norm(diff / np.asarray(params.length_scales, dtype=float)), params)


def _combinations(columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of (m, k) `columns`, and each row's index among them.

    Ranks the rows one column at a time, by integer code, which is far
    cheaper than np.unique(axis=0) over float rows; the codes stay below m^2.
    """
    code = np.zeros(columns.shape[0], dtype=np.int64)
    for column in columns.T:
        levels, level = np.unique(column, return_inverse=True)
        _, first, code = np.unique(
            code * len(levels) + level, return_index=True, return_inverse=True
        )
    return columns[first], code


class KernelLattice:
    """Kernel columns over one fixed candidate matrix, from per-lane tables.

    `_sum_squares` sums a row's squared scaled differences in two lanes, the
    even-index dimensions and the odd-index ones, so a lane's partial sum
    depends only on the candidate's levels in that lane's dimensions. Each
    lane keeps the distinct level combinations of the candidates (1,540
    and 210 of them on the 5-slice joint grid's 42,504 rows) and one inverse
    index from candidates to combinations. `column` sums each lane over its
    combinations, from (level - row_k) / l_k squared, gathers the two partial
    sums through the inverse indices, adds them and takes the Matern
    covariance in place. Every difference, square and sum is the one
    kernel_matrix computes, in its order, so a column equals
    kernel_matrix(candidates, row[None, :], params)[:, 0] bit for bit.
    """

    def __init__(self, candidates: np.ndarray):
        candidates = np.atleast_2d(np.asarray(candidates, dtype=float))
        self._lanes = []  # (dimensions, distinct level combinations, inverse index)
        for first in (0, 1)[: candidates.shape[1]]:
            dims = np.arange(first, candidates.shape[1], 2)
            self._lanes.append((dims, *_combinations(candidates[:, dims])))

    def column(self, row: np.ndarray, params: KernelParams) -> np.ndarray:
        """kernel_matrix(candidates, row[None, :], params)[:, 0]."""
        scale = np.asarray(params.length_scales, dtype=float)
        row = np.asarray(row, dtype=float)
        r = None
        for dims, combos, inverse in self._lanes:
            scaled = (combos - row[dims]) / scale[dims]
            scaled *= scaled
            part = _row_sum(scaled).take(inverse)
            if r is None:
                r = part
            else:
                r += part
        return _covariance(np.sqrt(r, out=r), params)


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
    """Fitted exact-GP posterior.

    `w` is [L^-T | alpha], n x (n + 1), for the Cholesky factor L of the
    training Gram and alpha = K^-1 y_std: k_star @ w holds the whitened
    cross-covariance L^-1 k_star^T (transposed) in its first n columns and
    the standardized posterior mean in its last (GPML, Alg. 2.1).
    """

    params: KernelParams
    x_train: np.ndarray
    y_mean: float
    y_scale: float
    chol: np.ndarray
    w: np.ndarray
    jitter: float

    @property
    def alpha(self) -> np.ndarray:
        """K^-1 y_std, the last column of `w`."""
        return self.w[:, -1]

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
        variance explained by the data. `k_star`, when given, must equal
        that kernel matrix; callers that cache kernel columns pass it to skip
        the recomputation.

        An inf or NaN in k_star raises ValueError. It makes its whole row of
        the product inf or NaN (an inf times a zero weight is NaN), so the
        row's mean or its sum of squares is not finite, and only those two
        m-length results are checked. A finite product whose squares
        overflow, which takes entries above about 1e154, raises too.
        """
        x_query = np.atleast_2d(np.asarray(x_query, dtype=float))
        if k_star is None:
            k_star = kernel_matrix(x_query, self.x_train, self.params)
        out = k_star @ self.w
        n = self.w.shape[0]
        mean = out[:, n]
        var_std = self.params.signal_var - np.einsum("mn,mn->m", out[:, :n], out[:, :n])
        if not (np.isfinite(mean).all() and np.isfinite(var_std).all()):
            raise ValueError("cross-covariance must not contain infs or NaNs")
        sigma = self.y_scale * np.sqrt(np.clip(var_std, 0.0, None))
        return self.y_mean + self.y_scale * mean, sigma


def _standardize(targets: np.ndarray) -> tuple[np.ndarray, float, float]:
    # Targets near the float limit overflow to inf or NaN without a numpy
    # warning; the fit and the likelihood refuse non-finite standardized ones.
    with np.errstate(over="ignore", invalid="ignore"):
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
    the smaller ones to 0, and the likelihood's Gram keeps them. The
    likelihood's other per-search constants are kept too: the identity
    `eye` it solves against for K^-1, `neg_half_y` = -0.5 * y_std, and
    whether every standardized target is finite.
    """

    x: np.ndarray
    y_std: np.ndarray
    diff: np.ndarray
    eye: np.ndarray
    neg_half_y: np.ndarray
    y_finite: bool

    @classmethod
    def build(cls, inputs: np.ndarray, targets: Sequence[float] | np.ndarray) -> "TrainingSet":
        _load_scipy()  # for the likelihood, which takes a TrainingSet
        x = np.atleast_2d(np.asarray(inputs, dtype=float))
        y_std = _standardize(np.asarray(targets, dtype=float))[0]
        return cls(
            x, y_std, x[:, None, :] - x[None, :, :],
            np.eye(x.shape[0]), -0.5 * y_std, bool(np.isfinite(y_std).all()),
        )


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
        raise ValueError("cannot fit a GP on zero rows")
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"{x.shape[0]} inputs but {y.shape[0]} targets")
    if x.shape[1] != len(params.length_scales):
        raise ValueError(
            f"inputs have {x.shape[1]} dims but kernel has {len(params.length_scales)} length scales"
        )
    if noise_var < 0.0:
        raise ValueError(f"noise_var must be >= 0, got {noise_var}")
    _load_scipy()
    y_std, y_mean, y_scale = _standardize(y)
    chol, jitter = _chol_with_jitter(_noisy_gram(x, params, noise_var))
    alpha = _cho_solve(chol, y_std)
    chol_inv, info = _TRTRI(chol, lower=1)
    if info != 0:
        raise GpFitError(f"inverting the Cholesky factor failed (trtri info {info})")
    n = x.shape[0]
    w = np.empty((n, n + 1))
    w[:, :n] = chol_inv.T
    w[:, n] = alpha
    w[np.abs(w) < SQRT_TINY] = 0.0
    if not np.isfinite(w).all():  # finite data whose solve or inverse overflowed
        raise GpFitError("posterior weights are not finite")
    return GpModel(
        params=params,
        x_train=x,
        y_mean=y_mean,
        y_scale=y_scale,
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

    One pass builds the Matern shape and slope in place and calls potrf
    itself; `_chol_with_jitter` runs only when potrf fails, so jitter
    escalates as it always has. Each operation is the unfused formula's, in
    its order, so value and gradient keep their bits. potrf can factor a
    Gram with an inf on its diagonal, and any inf or NaN in a Gram it
    factors reaches a pivot, so a non-finite log-determinant stands in for
    `_chol_with_jitter`'s check and raises the same ValueError. The search
    calls this function by its module-level name, so a wrapper installed
    there sees every evaluation.
    """
    n = data.x.shape[0]
    # Dividing (n, n, d) by n rows of scales instead of one lets numpy loop
    # over n * d contiguous quotients at a time, not d.
    squares = data.diff / np.array((params.length_scales,)).repeat(n, axis=0)
    squares *= squares  # (diff_k / l_k)^2, kept for the length-scale gradient
    t = _sum_squares(squares)
    np.sqrt(t, out=t)
    t *= math.sqrt(5.0)
    decay = np.negative(t)
    np.exp(decay, out=decay)
    one_t = 1.0 + t
    shape = t
    shape *= t
    shape /= 3.0
    shape += one_t
    shape *= decay  # (1 + t + t^2/3) e^-t
    slope = one_t
    slope *= 5.0 / 3.0
    slope *= decay  # g(t) = -k'(r) / r = (5/3)(1 + t) e^-t
    gram = params.signal_var * shape
    gram.reshape(-1)[:: n + 1] += noise_var
    chol, info = _POTRF(gram, lower=1, clean=1)
    if info != 0:
        chol, _ = _chol_with_jitter(gram)
    log_det = np.log(chol.diagonal()).sum()
    if not math.isfinite(log_det):
        raise ValueError("Gram matrix must not contain infs or NaNs")
    if not data.y_finite:
        raise ValueError("right-hand side must not contain infs or NaNs")
    alpha = _POTRS(chol, data.y_std, lower=1)[0]
    value = float(data.neg_half_y @ alpha - log_det - 0.5 * n * math.log(2.0 * math.pi))
    # w = alpha alpha^T - K^-1; d k / d log l_k = g(r) (diff_k / l_k)^2.
    w = alpha[:, None] * alpha[None, :]
    w -= _POTRS(chol, data.eye, lower=1)[0]
    slope *= w
    half_signal = 0.5 * params.signal_var
    grad = np.empty(len(params.length_scales) + 2)
    grad[:-2] = half_signal * np.einsum("ab,abk->k", slope, squares)
    grad[-2] = half_signal * np.vdot(w, shape)
    grad[-1] = 0.5 * noise_var * w.trace()
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
    max_iter-th new iterate. minimize's evaluation limit (maxfun = 15000) is
    left out: _LBFGSB_MAXITER iterations never reach it. Returns res.x, res.fun.
    """
    m, n = _LBFGSB_M, x0.size
    x = np.clip(x0, lower, upper)
    x_seen = x.copy()
    f_seen, g_seen = fun_and_grad(x_seen)
    iterations = 0
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
        _SETULB(m, x, lower, upper, nbd, f, g, _LBFGSB_FACTR, _LBFGSB_PGTOL,
                wa, iwa, task, lsave, isave, dsave, _LBFGSB_MAXLS, ln_task)
        if task[0] == 3:  # FG: f and g wanted at x
            if not (x == x_seen).all():
                x_seen = x.copy()
                f_seen, g_seen = fun_and_grad(x_seen)
            f, g = f_seen, g_seen
        elif task[0] == 1:  # NEW_X: an iteration finished
            iterations += 1
            if iterations >= max_iter:
                task[:] = 5, 504  # STOP: iteration limit
        else:
            return x, f


def optimize_params(
    inputs: np.ndarray,
    targets: np.ndarray,
    init: KernelParams,
    noise_var: float,
    reference: KernelParams | None = None,
) -> tuple[KernelParams, float]:
    """Refit hyperparameters by maximizing log marginal likelihood.

    Multi-start local search in log space: one start from the current
    hyperparameters, one from the reference (dimension-span) defaults. When
    both starts pack to the same point, the search runs once: a second run
    would repeat the first and could not beat it under the strict `<`.
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
        vals = np.exp(theta).tolist()
        return KernelParams(tuple(vals[:d]), vals[d]), vals[d + 1]

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
    first, second = pack(init, noise_var), pack(reference, NOISE_VAR_START)
    starts = (first,) if np.array_equal(first, second) else (first, second)
    best_theta, best_val = None, math.inf
    # Targets near the float limit overflow the likelihood to inf or NaN,
    # which the search never keeps, so numpy need not warn of it.
    with np.errstate(over="ignore", invalid="ignore"):
        for theta0 in starts:
            theta, value = _lbfgsb_minimize(negative_lml, theta0, lower, upper, _LBFGSB_MAXITER)
            if value < best_val:
                best_theta, best_val = theta, value
    if not succeeded or best_theta is None or not math.isfinite(best_val):
        return init, noise_var
    return unpack(best_theta)


def default_length_scales(spans: Iterable[float]) -> tuple[float, ...]:
    """Half the span of each input dimension, floored away from zero."""
    return tuple(max(span / 2.0, 1e-2) for span in spans)
