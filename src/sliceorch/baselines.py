"""Reference baselines, all playing sharing weight 0: hard isolation.

* gbo - one global Bayesian optimizer over the joint svRB vector.
* atlas - one single-slice gbo per slice, oblivious to the others.
* exsearch - exhaustive sweep of the noise-free environment; picks the
  cheapest action meeting every SLA. Serves as the hard-isolation optimum.

Both Bayesian baselines are `GridPortfolioBo`, a subclass of the main
agents' optimizer core (`agent.PortfolioBo`): it records, prices and
proposes the same way, and differs only in its candidate rows (the joint
svRB grid), its design sequence and its incumbent rule. They play weight 0,
which `netenv.step` delivers as hard isolation in either mode. The harness
plays their joint proposals through `coordinator.probe`, which fits them to
capacity as it fits adaslicing's: exploratory probes by `spread_capacity`,
commits by `clamp_capacity`. gbo's joint grid never overflows, so only
atlas's proposals are ever cut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .agent import PortfolioBo, _radical_inverse, row_blocks
from .core import Action, AlgoParams, CostParams, PerfVector, SliceSpec
from .errors import GridCapExceededError, NoFeasibleActionError
from .gp import KernelLattice, KernelParams
from .netenv import EnvConfig, step


# -- candidate grids -----------------------------------------------------------


def joint_grid_size(n_slices: int, capacity: int, min_alive: int) -> int:
    """Number of integer vectors with x_i >= min_alive and sum <= capacity."""
    slack = capacity - n_slices * min_alive
    if slack < 0:
        return 0
    return math.comb(slack + n_slices, n_slices)


def check_joint_grid(n_slices: int, capacity: int, min_alive: int, grid_cap: int) -> None:
    """Refuse a joint grid over `grid_cap` actions, without building it."""
    size = joint_grid_size(n_slices, capacity, min_alive)
    if size > grid_cap:
        raise GridCapExceededError(
            f"joint grid has {size} actions, over the cap of {grid_cap}"
        )


def enumerate_joint_grid(
    n_slices: int, capacity: int, min_alive: int, grid_cap: int
) -> np.ndarray:
    """All joint svRB vectors within capacity, one integer row each, in lexicographic order.

    Built one position at a time: every partial vector is repeated once per
    value its next entry can take, from min_alive up to what the later
    entries' floors leave of the capacity, so each prefix's extensions stay
    contiguous and ascending. A grid over `grid_cap` actions is refused first.
    """
    check_joint_grid(n_slices, capacity, min_alive, grid_cap)
    grid = np.zeros((1, 0), dtype=np.int64)
    used = np.zeros(1, dtype=np.int64)
    for position in range(n_slices):
        reserve = (n_slices - 1 - position) * min_alive
        counts = np.maximum(capacity - reserve - used - min_alive + 1, 0)
        parent = np.repeat(np.arange(used.shape[0]), counts)
        first = np.repeat(np.cumsum(counts) - counts, counts)
        value = min_alive + np.arange(parent.shape[0]) - first
        grid = np.column_stack([grid[parent], value])
        used = used[parent] + value
    return grid


# -- the grid optimizer (gbo and atlas) ------------------------------------------


class GridPortfolioBo(PortfolioBo):
    """Portfolio Bayesian optimizer over the joint hard-isolation allocation.

    Candidates are every joint svRB vector of `slice_ids` within capacity,
    and an input row is such a vector. Over one slice that grid is the svRB
    range itself, which makes this atlas's per-slice optimizer as well as
    gbo's global one. The design is a van der Corput walk over the grid's
    rows. The archive keeps the incumbent after it leaves the training
    window, and tells the propose step which rows were probed already.

    A warm suggestion scores at most PREDICT_BLOCK_ROWS candidates, a
    sample of them on a larger grid (`PortfolioBo._propose`). Their
    cross-covariance with the training sample comes from the candidates'
    KernelLattice, which builds each lane's table for all training rows at
    once and equals kernel_matrix bit for bit.
    """

    def __init__(
        self,
        slice_ids: Sequence[str],
        capacity: int,
        rng: np.random.Generator,
        hedge_rng: np.random.Generator,
        algo: AlgoParams,
        cost: CostParams,
    ):
        self.slice_ids = list(slice_ids)
        self.candidates = enumerate_joint_grid(
            len(self.slice_ids), capacity, algo.min_alive, algo.grid_cap
        ).astype(float)
        spans = self.candidates.max(axis=0) - self.candidates.min(axis=0)
        super().__init__(np.maximum(spans, 1.0), rng, hedge_rng, algo, cost, capacity)
        self._lattice = KernelLattice(self.candidates)

    def _predict(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """gp.predict(candidates[rows]), with the cross-covariance from the lattice."""
        gp = self.gp
        k_star = self._lattice.cross(rows, gp.x_train, gp.params)
        return gp.predict(self.candidates[rows], k_star=k_star)

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
            if tuple(row.tolist()) not in self.archive:
                return row
        for row in self.candidates:
            if tuple(row.tolist()) not in self.archive:
                return row
        return None

    def _actions(self, row: np.ndarray) -> dict[str, Action]:
        return {sid: Action(int(row[i]), 0.0) for i, sid in enumerate(self.slice_ids)}

    def suggest(self, specs: Mapping[str, SliceSpec]) -> dict[str, Action]:
        if not self._warm():
            row = self._next_unexplored()
            return self._actions(row if row is not None else self.candidates[self._design_index()])
        return self._actions(
            self._propose(self.candidates, specs, self._predict, self._next_unexplored)
        )

    def incumbent(self, specs: Mapping[str, SliceSpec]) -> dict[str, Action]:
        """Best allocation ever observed, re-priced under the current specs.

        Ties go to the lexicographically smallest row; with nothing observed
        yet it is a suggestion.
        """
        if not self.archive:
            return self.suggest(specs)
        return self._actions(self.archive[self._cheapest(specs)].x)

    def observe(
        self,
        actions: Mapping[str, Action],
        perfs: Mapping[str, PerfVector],
        specs: Mapping[str, SliceSpec],
    ) -> None:
        mine = [actions[sid] for sid in self.slice_ids]
        self._learn(
            np.array([a.svrb for a in mine], dtype=float),
            mine,
            {sid: perfs[sid] for sid in self.slice_ids},
            specs,
        )


# -- exhaustive search ------------------------------------------------------------


@dataclass(frozen=True)
class OracleEntry:
    """Ground-truth performance of one joint hard-isolation action."""

    svrbs: tuple[int, ...]
    perfs: tuple[PerfVector, ...]


@dataclass(frozen=True, eq=False)
class OracleDataset:
    """The exhaustive sweep as columns: row i is one joint action and its outcome.

    `svrbs` is the joint grid, one integer row per action in lexicographic
    order; `throughput` and `fps` hold each slice's delivered performance, one
    float column per slice. The arrays are read-only.
    """

    svrbs: np.ndarray  # (N, k) int
    throughput: np.ndarray  # (N, k) float, Mbps
    fps: np.ndarray  # (N, k) float

    def __post_init__(self) -> None:
        for column in (self.svrbs, self.throughput, self.fps):
            column.setflags(write=False)

    def __len__(self) -> int:
        return self.svrbs.shape[0]


def sweep_dataset(
    specs: Sequence[SliceSpec],
    config: EnvConfig,
    min_alive: int,
    grid_cap: int,
) -> OracleDataset:
    """Evaluate every joint action on the noise-free environment at weight 0.

    Weight 0 is hard isolation in either mode. One `step` per grid row, each
    written straight into the row of the performance columns. The grid is
    turned into Python rows one `row_blocks` block at a time, so besides the
    three output arrays the sweep holds at most PREDICT_BLOCK_ROWS rows as
    Python objects.
    """
    active = [s for s in specs if s.active]
    clean_config = replace(config, noise_std=0.0)
    clean_specs = [replace(s, app_profile=replace(s.app_profile, burstiness=0.0)) for s in active]
    rng = np.random.default_rng(0)  # never consulted: noise-free, burstiness 0

    grid = enumerate_joint_grid(len(clean_specs), config.capacity_h, min_alive, grid_cap)
    throughput = np.empty(grid.shape)
    fps = np.empty(grid.shape)
    ids = [s.slice_id for s in clean_specs]
    for block in row_blocks(grid.shape[0]):
        for i, combo in enumerate(grid[block].tolist(), start=block.start):
            perfs = step(
                {sid: Action(v, 0.0) for sid, v in zip(ids, combo)}, clean_specs, clean_config, rng
            )
            throughput[i] = [perfs[sid].throughput for sid in ids]
            fps[i] = [perfs[sid].fps for sid in ids]
    return OracleDataset(grid, throughput, fps)


def exsearch_best(
    dataset: OracleDataset,
    specs: Sequence[SliceSpec],
    cost_params: CostParams,
) -> OracleEntry:
    """Cheapest action meeting every SLA outright; lexicographic tie-break.

    Feasibility is per metric: each slice's delivered throughput and FPS must
    reach its thresholds. The dataset is lexicographic, and `argmin` keeps the
    first of equal costs. Raises NoFeasibleActionError when nothing qualifies.
    """
    active = [s for s in specs if s.active]
    q_throughput = np.array([s.q_throughput for s in active], dtype=float)
    q_fps = np.array([s.q_fps for s in active], dtype=float)
    feasible = ((dataset.throughput >= q_throughput) & (dataset.fps >= q_fps)).all(axis=1)
    costs = np.where(feasible, cost_params.u_h * dataset.svrbs.sum(axis=1), math.inf)
    if not (costs < math.inf).any():
        raise NoFeasibleActionError(
            "no joint hard-isolation action meets every SLA on this environment"
        )
    i = int(costs.argmin())
    perfs = map(PerfVector, dataset.throughput[i].tolist(), dataset.fps[i].tolist())
    return OracleEntry(tuple(dataset.svrbs[i].tolist()), tuple(perfs))
