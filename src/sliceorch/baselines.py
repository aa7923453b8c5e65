"""Reference baselines, all operating under hard isolation.

* gbo - one global Bayesian optimizer over the joint svRB vector.
* atlas - one single-slice gbo per slice, oblivious to the others; their
  proposals are rescaled proportionally when they jointly exceed capacity.
* exsearch - exhaustive sweep of the noise-free environment; picks the
  cheapest action meeting every SLA. Serves as the hard-isolation optimum.

The Bayesian baselines share the optimizer core of the main agents
(`agent.PortfolioBo`); only their objectives and candidate grids differ.
Sharing weights are unused here: hard isolation has no pool to share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .agent import PortfolioBo, _radical_inverse, barrier_value
from .coordinator import clamp_capacity
from .core import Action, CostParams, PerfVector, SliceSpec
from .errors import GridCapExceededError, NoFeasibleActionError
from .gp import KernelParams, kernel_matrix
from .netenv import EnvConfig, TrafficProfile, step
from .vsharing import ground


def _row_key(row: np.ndarray) -> tuple:
    return tuple(float(v) for v in row)


@dataclass
class GridExperience:
    """One joint observation for a grid optimizer; payload stays raw."""

    inputs: np.ndarray
    payload: object
    slot: int
    priority: float = 1.0

    def key(self) -> tuple:
        return _row_key(self.inputs)

    def row(self) -> np.ndarray:
        return self.inputs


class GridPortfolioBo(PortfolioBo):
    """Portfolio Bayesian optimizer over a fixed candidate matrix.

    The owner supplies a target function at call time so stored observations
    are re-priced under whatever SLA thresholds currently hold.

    The archive backs two behaviors a discrete noise-limited sweep needs:
    the incumbent recommendation survives buffer eviction, and a nominee
    that has already been probed is swapped for the next unexplored design
    point (re-probing a known grid row teaches the optimizer nothing new).

    Every training row is a candidate row, so the cross-covariance between
    the candidates and the training sample is kept column by column, keyed
    by row: a refit computes only the columns of rows new to the sample.
    All columns are dropped when a hyperparameter search changes the kernel.
    A row that leaves the subsample but stays in the replay buffer keeps its
    column, since the next refit's sample is likely to draw it again; rows
    evicted from the buffer lose theirs. So the cache holds at most one
    column per buffered row, and the columns live in one column-major
    candidates x buffer-capacity matrix with a slot per buffered row: a new
    column is one contiguous store, and a prediction gathers its
    cross-covariance as one contiguous copy per training row.
    """

    def __init__(
        self,
        candidates: np.ndarray,
        rng: np.random.Generator,
        hedge_rng: np.random.Generator,
        **bo_kwargs,
    ):
        self.candidates = np.atleast_2d(np.asarray(candidates, dtype=float))
        spans = self.candidates.max(axis=0) - self.candidates.min(axis=0)
        super().__init__(np.maximum(spans, 1.0), rng, hedge_rng, **bo_kwargs)
        self._kernel_columns = np.empty(
            (self.candidates.shape[0], self.buffer.capacity), order="F"
        )
        self._columns: dict[tuple, int] = {}  # buffered row key -> its slot in _kernel_columns
        self._columns_params: KernelParams | None = None

    def _predict_candidates(self) -> tuple[np.ndarray, np.ndarray]:
        """gp.predict(candidates), reusing the cached kernel columns.

        Each column is kernel_matrix(candidates, row), which equals the
        matching column of the full cross-covariance bit for bit.
        """
        gp = self.gp
        if gp.params != self._columns_params:
            self._columns = {}
            self._columns_params = gp.params
        buffered = {e.key() for e in self.buffer.items}
        self._columns = {k: c for k, c in self._columns.items() if k in buffered}
        free = iter(sorted(set(range(self.buffer.capacity)) - set(self._columns.values())))
        keys = [_row_key(row) for row in gp.x_train]
        for key, row in zip(keys, gp.x_train):
            if key not in self._columns:
                slot = self._columns[key] = next(free)
                self._kernel_columns[:, slot] = kernel_matrix(
                    self.candidates, row[None, :], gp.params
                )[:, 0]
        k_star = self._kernel_columns[:, [self._columns[k] for k in keys]]
        return gp.predict(self.candidates, k_star=k_star)

    def _design_index(self) -> int:
        u = _radical_inverse(self._next_design() + 1, 2)
        return min(int(u * self.candidates.shape[0]), self.candidates.shape[0] - 1)

    def _next_unexplored(self) -> np.ndarray | None:
        """Next never-probed candidate, or None once the grid is exhausted.

        Walks the van der Corput ordering so early picks stay spread out,
        with a bounded scan; any holes the scan misses are taken in grid
        order instead.
        """
        if len(self.archive) >= self.candidates.shape[0]:
            return None
        for _ in range(self.candidates.shape[0]):
            row = self.candidates[self._design_index()]
            if _row_key(row) not in self.archive:
                return row
        for row in self.candidates:
            if _row_key(row) not in self.archive:
                return row
        return None

    def suggest(self, target_fn: Callable[[GridExperience], float]) -> np.ndarray:
        if not self._warm():
            self._last_nominees = None
            row = self._next_unexplored()
            return row if row is not None else self.candidates[self._design_index()]
        mu, sigma = self._predict_candidates()
        best = min(target_fn(e) for e in self.archive.values())
        chosen = self.candidates[self._nominate(mu, sigma, best, self.candidates)]
        if _row_key(chosen) in self.archive:
            fallback = self._next_unexplored()
            if fallback is not None:
                return fallback
        return chosen

    def incumbent(self, target_fn: Callable[[GridExperience], float]) -> np.ndarray:
        """Best row ever observed, re-priced under the current target.

        Requires at least one observation; ties go to the lexicographically
        smallest row.
        """
        if not self.archive:
            raise ValueError("incumbent requested before any observation")
        best = min(self.archive.values(), key=lambda e: (target_fn(e), e.key()))
        return best.inputs.copy()

    def observe(
        self,
        inputs: np.ndarray,
        payload: object,
        target_fn: Callable[[GridExperience], float],
        slot: int,
    ) -> None:
        self._learn(GridExperience(np.asarray(inputs, dtype=float), payload, slot), target_fn)


# -- candidate grids -----------------------------------------------------------


def joint_grid_size(n_slices: int, capacity: int, min_alive: int = 1) -> int:
    """Number of integer vectors with x_i >= min_alive and sum <= capacity."""
    slack = capacity - n_slices * min_alive
    if slack < 0:
        return 0
    return math.comb(slack + n_slices, n_slices)


def enumerate_joint_grid(
    n_slices: int, capacity: int, min_alive: int = 1, grid_cap: int = 10**6
) -> list[tuple[int, ...]]:
    """All joint svRB vectors within capacity, in lexicographic order."""
    size = joint_grid_size(n_slices, capacity, min_alive)
    if size > grid_cap:
        raise GridCapExceededError(
            f"joint grid has {size} actions, over the cap of {grid_cap}"
        )

    def rec(remaining: int, budget: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        reserve = (remaining - 1) * min_alive
        for v in range(min_alive, budget - reserve + 1):
            for tail in rec(remaining - 1, budget - v):
                yield (v, *tail)

    return list(rec(n_slices, capacity))


# -- global joint optimizer ------------------------------------------------------


class GboBaseline:
    """Single Bayesian optimizer over the joint hard-isolation allocation.

    Over one slice the joint grid is the svRB range itself, which makes this
    atlas's per-slice optimizer as well.
    """

    def __init__(
        self,
        slice_ids: Sequence[str],
        capacity: int,
        rng: np.random.Generator,
        hedge_rng: np.random.Generator,
        min_alive: int = 1,
        grid_cap: int = 10**6,
        **bo_kwargs,
    ):
        self.slice_ids = list(slice_ids)
        grid = np.asarray(
            enumerate_joint_grid(len(self.slice_ids), capacity, min_alive, grid_cap), dtype=float
        )
        self.bo = GridPortfolioBo(grid, rng, hedge_rng, **bo_kwargs)

    def _target_fn(
        self, specs: Mapping[str, SliceSpec], cost_params: CostParams,
        barrier_coef: float, violation_penalty: float,
    ) -> Callable[[GridExperience], float]:
        def target(exp: GridExperience) -> float:
            cost = cost_params.u_h * float(exp.inputs.sum())
            perfs: Mapping[str, PerfVector] = exp.payload
            penalty = sum(
                barrier_value(perfs[sid], specs[sid], barrier_coef, violation_penalty)
                for sid in self.slice_ids
            )
            return cost + penalty

        return target

    def suggest(
        self, specs: Mapping[str, SliceSpec], cost_params: CostParams,
        barrier_coef: float, violation_penalty: float,
    ) -> dict[str, Action]:
        row = self.bo.suggest(self._target_fn(specs, cost_params, barrier_coef, violation_penalty))
        return {sid: Action(int(row[i]), 0.0) for i, sid in enumerate(self.slice_ids)}

    def incumbent(
        self, specs: Mapping[str, SliceSpec], cost_params: CostParams,
        barrier_coef: float, violation_penalty: float,
    ) -> dict[str, Action]:
        """Best joint allocation observed so far (falls back to a suggestion)."""
        target = self._target_fn(specs, cost_params, barrier_coef, violation_penalty)
        row = self.bo.incumbent(target) if self.bo.archive else self.bo.suggest(target)
        return {sid: Action(int(row[i]), 0.0) for i, sid in enumerate(self.slice_ids)}

    def observe(
        self,
        actions: Mapping[str, Action],
        perfs: Mapping[str, PerfVector],
        specs: Mapping[str, SliceSpec],
        cost_params: CostParams,
        barrier_coef: float,
        violation_penalty: float,
        slot: int,
    ) -> None:
        row = np.array([actions[sid].svrb for sid in self.slice_ids], dtype=float)
        self.bo.observe(
            row, dict(perfs), self._target_fn(specs, cost_params, barrier_coef, violation_penalty), slot
        )


# -- proportional rescale (atlas) --------------------------------------------------


def atlas_scale(
    proposals: Mapping[str, int], order: Sequence[str], capacity: int, min_alive: int = 1
) -> dict[str, int]:
    """Proportionally rescale over-capacity proposals to fit the budget.

    Each proposal becomes floor(x * capacity / total), floored at min_alive.
    The min_alive floor can overshoot in corner cases, so the deterministic
    largest-first clamp guarantees the bound.
    """
    total = sum(proposals[sid] for sid in order)
    if total <= capacity:
        return {sid: proposals[sid] for sid in order}
    scaled = {
        sid: max(min_alive, ground(proposals[sid] * capacity / total)) for sid in order
    }
    return clamp_capacity(scaled, order, capacity, min_alive)


# -- exhaustive search ------------------------------------------------------------


@dataclass(frozen=True)
class OracleEntry:
    """Ground-truth performance of one joint hard-isolation action."""

    svrbs: tuple[int, ...]
    perfs: tuple[PerfVector, ...]


def sweep_dataset(
    specs: Sequence[SliceSpec],
    config: EnvConfig,
    min_alive: int = 1,
    grid_cap: int = 10**6,
) -> list[OracleEntry]:
    """Evaluate every joint action on the noise-free hard-isolation environment."""
    active = [s for s in specs if s.active]
    clean_config = replace(config, noise_std=0.0, isolation_mode="hard")
    clean_specs = []
    for s in active:
        profile = s.app_profile
        if profile is not None and profile.burstiness != 0.0:
            profile = TrafficProfile(profile.frame_rate, profile.frame_size, 0.0)
        clean_specs.append(replace(s, app_profile=profile))
    rng = np.random.default_rng(0)  # never consulted: noise-free, burstiness 0

    entries = []
    for combo in enumerate_joint_grid(len(clean_specs), config.capacity_h, min_alive, grid_cap):
        actions = {s.slice_id: Action(v, 0.0) for s, v in zip(clean_specs, combo)}
        perfs = step(actions, clean_specs, clean_config, rng)
        entries.append(OracleEntry(combo, tuple(perfs[s.slice_id] for s in clean_specs)))
    return entries


def exsearch_best(
    dataset: Sequence[OracleEntry],
    specs: Sequence[SliceSpec],
    cost_params: CostParams,
) -> OracleEntry:
    """Cheapest action meeting every SLA outright; lexicographic tie-break.

    Feasibility is per metric: each slice's delivered throughput and FPS must
    reach its thresholds. Raises NoFeasibleActionError when nothing qualifies.
    """
    active = [s for s in specs if s.active]
    best: OracleEntry | None = None
    best_cost = math.inf
    for entry in dataset:  # dataset is lexicographic, strict < keeps the first minimum
        feasible = all(
            p.throughput >= s.q_throughput and p.fps >= s.q_fps
            for p, s in zip(entry.perfs, active)
        )
        if not feasible:
            continue
        cost = cost_params.u_h * sum(entry.svrbs)
        if cost < best_cost:
            best, best_cost = entry, cost
    if best is None:
        raise NoFeasibleActionError(
            "no joint hard-isolation action meets every SLA on this environment"
        )
    return best
