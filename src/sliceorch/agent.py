"""Per-slice constrained Bayesian agent, and the optimizer core it shares.

Each agent minimizes its own scalarized objective over a discrete action
grid: resource cost, plus a consensus proximal term that ties its svRB count
to the coordinator's target, plus a log-barrier on the worst SLA margin that
turns the performance constraint into a price. The surrogate models only
cost + barrier as a function of (svrb, sw, peers_sw); the proximal term is a
known quadratic and is added analytically when candidates are scored.

`PortfolioBo` is the one optimizer core of the workbench: its `Observation`
record, its pricing rule (stored resource cost plus SLA barriers, cached
per archive entry until the SLAs change), its propose step (best so far,
predict and nominate block by block, Hedge-pick, swap an already-probed
nominee for an unexplored design row) and its learn step (replay buffer,
archive, GP refits and hyperparameter searches). `SliceAgent` and the
baselines' `GridPortfolioBo` subclass it with their own candidate rows,
design sequences and recommendation rules. `parallel_map` spreads the
independent row blocks of a large grid over up to two CPUs.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

import numpy as np

from .acquisition import HedgeState, hedge_select, hedge_update, portfolio_nominate
from .core import Action, AlgoParams, CostParams, PerfVector, SliceSpec
from .gp import (
    GpModel,
    KernelParams,
    ReplayBuffer,
    default_length_scales,
    fit,
    optimize_params,
)

# Candidate rows scored per surrogate call: a block's cross-covariance is
# about 1 MB at 30 training rows, so a probe's temporaries stay this size
# however large the candidate grid.
PREDICT_BLOCK_ROWS = 4096


def row_blocks(n_rows: int) -> list[slice]:
    """Consecutive row slices of at most PREDICT_BLOCK_ROWS rows covering n_rows.

    A lone last row joins the block before it: numpy multiplies a one-row
    matrix through gemv rather than gemm, whose sums can differ in the last
    bit from the same row's sums inside a larger block.
    """
    starts = list(range(0, n_rows, PREDICT_BLOCK_ROWS))
    if len(starts) > 1 and n_rows - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n_rows])]


T = TypeVar("T")
R = TypeVar("R")

# Threads that compute items at once, the caller's included. Each holds one
# row block's or kernel column's temporaries, about 3.5 MB on the 5-slice
# joint grid: perfbench `joint` (seed 61, 16 s) read 110 MB of peak RSS on
# one worker, 115 MB on two, and 122 and 150 MB when forced to 4 and 12
# workers, so more than two would break joint's 5% peak_rss_mb bound.
MAX_WORKERS = 2

# (pid, executor, helpers) of this process's helper pool, built on first use
_pool: tuple[int, ThreadPoolExecutor | None, int] | None = None


def _cgroup_cpu_quota(root: Path = Path("/sys/fs/cgroup")) -> float | None:
    """CPUs' worth of run time per period that the cgroup at `root` grants.

    Reads cgroup v2's `cpu.max` ("<quota> <period>", or "max <period>") or
    else cgroup v1's `cpu/cpu.cfs_quota_us` (-1 for none) over
    `cpu/cpu.cfs_period_us`; in a container, `root` is the container's own
    cgroup. None when no quota is set or none can be read.
    """
    try:
        quota, period = (root / "cpu.max").read_text().split()
    except (OSError, ValueError):
        try:
            quota = (root / "cpu" / "cpu.cfs_quota_us").read_text().strip()
            period = (root / "cpu" / "cpu.cfs_period_us").read_text().strip()
        except OSError:
            return None
    try:
        quota_us, period_us = float(quota), float(period)
    except ValueError:  # "max"
        return None
    return quota_us / period_us if quota_us > 0 and period_us > 0 else None


def _cpu_count() -> int:
    """CPUs this process may run on: its CPU affinity, capped by a cgroup CPU quota.

    A quota of q CPUs' worth of time counts as ceil(q) CPUs, so threads
    beyond the quota are not started only to be throttled.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    quota = _cgroup_cpu_quota()
    return cpus if quota is None else min(cpus, math.ceil(quota))


def _helpers() -> tuple[ThreadPoolExecutor | None, int]:
    """The helper pool, one thread per CPU beyond the caller's, and its size.

    The caller and its helpers are at most MAX_WORKERS threads.

    A forked child inherits the executor but none of its threads, so the
    pool is rebuilt whenever the process id changes.
    """
    global _pool
    pid = os.getpid()
    if _pool is None or _pool[0] != pid:
        helpers = min(_cpu_count(), MAX_WORKERS) - 1
        executor = ThreadPoolExecutor(helpers, "sliceorch") if helpers > 0 else None
        _pool = (pid, executor, helpers)
    return _pool[1], _pool[2]


def _settled(fn: Callable[[T], R], item: T) -> Future:
    """fn(item), run in this thread, as a finished future."""
    done: Future = Future()
    try:
        done.set_result(fn(item))
    except Exception as exc:  # read back by the caller in item order
        done.set_exception(exc)
    return done


def parallel_map(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """[fn(item) for item in items], with the items spread over the CPUs.

    The calling thread computes every (helpers + 1)-th item itself, from the
    first, and the helper threads the others, so no more items are in flight
    than the process has CPUs, nor more than MAX_WORKERS. It returns once
    every item has finished; the first exception in item order propagates.
    With no helpers, or fewer than two items, everything runs inline. The items must be independent: numpy
    releases the interpreter lock in their array work, so they overlap.
    """
    pool, helpers = _helpers()
    if pool is None or len(items) < 2:
        return [fn(item) for item in items]
    stride = helpers + 1
    futures = [None if i % stride == 0 else pool.submit(fn, x) for i, x in enumerate(items)]
    for i in range(0, len(items), stride):
        futures[i] = _settled(fn, items[i])
    wait(futures)
    return [f.result() for f in futures]


@dataclass(frozen=True)
class AgentContext:
    """Everything the coordinator broadcasts to one agent for one iteration."""

    z: float  # consensus svRB target for this slice
    y: float  # scaled dual of the consensus constraint
    rho: float  # proximal weight
    s: float  # aggregated sharing weight of the other slices
    spec: SliceSpec  # current SLA thresholds


def sla_margin(perf: PerfVector, spec: SliceSpec) -> float:
    """Worst SLA margin in throughput units.

    The FPS margin is rescaled by q_throughput / q_fps so both metrics are
    comparable; the binding (smallest) margin is returned.
    """
    fps_scale = spec.q_throughput / spec.q_fps
    return min(
        perf.throughput - spec.q_throughput,
        perf.fps * fps_scale - spec.q_throughput,
    )


def barrier_value(
    perf: PerfVector, spec: SliceSpec, barrier_coef: float, violation_penalty: float
) -> float:
    """Log-barrier on the worst margin, with a finite penalty once violated.

    Positive margins pay -coef*log(margin): steep near the boundary, a mild
    subsidy deep inside. Non-positive margins pay a flat penalty plus the
    violation depth, so the agent is still pulled toward feasibility.
    """
    margin = sla_margin(perf, spec)
    if margin > 0.0:
        return -barrier_coef * math.log(margin)
    return violation_penalty + abs(margin)


def proximal_term(svrb: float, ctx: AgentContext) -> float:
    return 0.5 * ctx.rho * (svrb - ctx.z + ctx.y) ** 2


@dataclass(frozen=True)
class CandidateGrid:
    """Discrete action space: integer svRBs times a sharing-weight lattice."""

    svrb_values: tuple[int, ...]
    sw_values: tuple[float, ...]

    @classmethod
    def for_capacity(cls, capacity_h: int, min_alive: int, sw_step: float) -> "CandidateGrid":
        svrbs = tuple(range(min_alive, capacity_h + 1))
        n_steps = int(round(1.0 / sw_step))
        sws = tuple(round(i * sw_step, 10) for i in range(n_steps + 1))
        return cls(svrbs, sws)

    def points(self) -> np.ndarray:
        """All (svrb, sw) pairs, svrb-major: lexicographic candidate order."""
        svrb = np.repeat(np.asarray(self.svrb_values, dtype=float), len(self.sw_values))
        sw = np.tile(np.asarray(self.sw_values, dtype=float), len(self.svrb_values))
        return np.column_stack([svrb, sw])


def _radical_inverse(index: int, base: int) -> float:
    """Van der Corput radical inverse, the 1-D ingredient of a Halton point."""
    result, f = 0.0, 1.0 / base
    while index > 0:
        result += f * (index % base)
        index //= base
        f /= base
    return result


def design_point(grid: CandidateGrid, index: int) -> tuple[int, float]:
    """index-th point of the deterministic space-filling (Halton 2,3) design."""
    u1 = _radical_inverse(index + 1, 2)
    u2 = _radical_inverse(index + 1, 3)
    svrb = grid.svrb_values[min(int(u1 * len(grid.svrb_values)), len(grid.svrb_values) - 1)]
    sw = grid.sw_values[min(int(u2 * len(grid.sw_values)), len(grid.sw_values) - 1)]
    return svrb, sw


@dataclass(eq=False)
class Observation:
    """One probe as an optimizer records it.

    `x` is the probe's surrogate input row. The raw per-slice performance is
    kept rather than a scalar objective, so the probe can be re-priced under
    whatever SLA thresholds hold later; its resource cost does not depend on
    them and is priced once, when the probe is recorded. `priority` is the
    replay buffer's.
    """

    x: np.ndarray
    cost: float  # u_h * sum(svRB) + u_s * sum(sw) of the probed actions
    perfs: dict[str, PerfVector]
    priority: float = 1.0

    def __post_init__(self) -> None:
        self._key = tuple(self.x.tolist())

    def key(self) -> tuple:
        """Identity of the probed input: archive key and buffer duplicate test."""
        return self._key


class PortfolioBo:
    """Shared core of the online Bayesian optimizers.

    Holds the replay buffer that feeds the surrogate, an all-time archive of
    the latest observation per distinct input, the GP with its
    hyperparameters, the Hedge bandit over the acquisition portfolio, and a
    cursor into a deterministic space-filling design. A subclass owns its
    candidate rows and design sequence; it calls `_propose` for a warm
    suggestion and `_learn` to record a probe. All settings come from the
    scenario's `AlgoParams`; the run's prices, the barrier coefficient and
    the resolved SLA violation penalty are fixed at construction.

    An observation is priced as its stored resource cost plus each of its
    slices' SLA barriers (`_price`), under the specs of the call, so stored
    observations are re-priced under whatever SLA thresholds currently hold.
    Those change only at SLA events, so the archive keeps one price per
    entry (`_prices`): an entry is priced when `_learn` archives it, and
    the whole archive again only when the specs passed in differ from the
    ones its prices were taken under. The best-so-far of `_propose`, the
    training targets of `_learn` and `_cheapest`, the one rule through which
    the subclasses' recommendations commit, all read these prices.

    `_propose` scores the candidates block by block (`row_blocks`), so a
    probe's temporaries are bounded by PREDICT_BLOCK_ROWS rows per thread
    whatever the grid's size, and nominates the same rows, bit for bit, as
    scoring the whole grid in one call would. The blocks are scored through
    `parallel_map`, and `portfolio_nominate` picks again among their
    nominees, sorted by row.
    """

    def __init__(
        self,
        spans: Iterable[float],
        rng: np.random.Generator,
        hedge_rng: np.random.Generator,
        algo: AlgoParams,
        cost: CostParams,
        penalty: float,
        design_offset: int = 0,
    ):
        self.cost = cost
        self.barrier_coef = algo.barrier_coef
        self.penalty = penalty
        self.rng = rng
        self.hedge = HedgeState(eta=algo.hedge_eta)
        self.hedge_rng = hedge_rng
        self.buffer = ReplayBuffer(algo.buffer_capacity, algo.priority_decay)
        self.subsample = algo.subsample
        self.n_init = algo.n_init
        self.noise_var = algo.noise_var
        self.hyperopt_every = algo.hyperopt_every
        self.kappa = algo.kappa
        self._default_params = KernelParams(default_length_scales(spans))
        self.params = self._default_params
        self.gp: GpModel | None = None
        self.fit_count = 0
        self._last_nominees: np.ndarray | None = None
        self._design_cursor = design_offset
        self.archive: dict[tuple, Observation] = {}  # written by _learn
        # same keys in the same order as archive: _learn writes both, _prices rebuilds it
        self._archive_prices: dict[tuple, float] = {}
        self._priced_specs: dict[str, SliceSpec] | None = None

    def _warm(self) -> bool:
        """Whether the surrogate has seen enough data to drive the search."""
        return self.gp is not None and len(self.buffer) >= self.n_init

    def _next_design(self) -> int:
        """Current design index; advances the cursor."""
        self._design_cursor += 1
        return self._design_cursor - 1

    def _price(self, obs: Observation, specs: Mapping[str, SliceSpec]) -> float:
        """Resource cost plus the SLA barriers of `obs`, under `specs`."""
        barriers = 0  # summed before the cost is added: another order moves the last bit
        for sid, perf in obs.perfs.items():
            barriers += barrier_value(perf, specs[sid], self.barrier_coef, self.penalty)
        return obs.cost + barriers

    def _prices(self, specs: Mapping[str, SliceSpec]) -> dict[tuple, float]:
        """Each archived observation's `_price` under `specs`, in archive order.

        The prices are kept while the specs passed in equal the ones they
        were taken under; other specs re-price the whole archive once.
        """
        if specs != self._priced_specs:
            self._priced_specs = dict(specs)
            self._archive_prices = {k: self._price(o, specs) for k, o in self.archive.items()}
        return self._archive_prices

    def _cheapest(self, specs: Mapping[str, SliceSpec], keys: Sequence[tuple] = ()) -> tuple:
        """The archived input with the lowest (price, key) among `keys`, priced under `specs`.

        With no `keys`, the whole archive is searched. Archive keys are
        unique, so distinct entries never tie.
        """
        prices = self._prices(specs)
        return min(keys or prices, key=lambda k: (prices[k], k))

    def _propose(
        self,
        queries: np.ndarray,
        specs: Mapping[str, SliceSpec],
        predict: Callable[[slice], tuple[np.ndarray, np.ndarray]],
        unexplored: Callable[[], np.ndarray | None],
        offset: Callable[[np.ndarray], np.ndarray] | None = None,
    ) -> np.ndarray:
        """The query row a warm optimizer probes next.

        `predict(rows)` gives the surrogate's mean and deviation over
        `queries[rows]`; it may run on several row blocks at once. `offset`
        is a known additive term of the objective over input rows, which the
        surrogate does not model. Each acquisition nominates a row against
        the best objective observed so far, block by block, and Hedge picks
        one. A nominee already in the archive teaches the surrogate nothing,
        so the probe goes to the subclass's `unexplored()` design row
        instead, when there is one.
        """
        prices = self._prices(specs)
        best = np.fromiter(prices.values(), float, len(prices))
        if offset is not None:
            best = best + offset(np.array([o.x for o in self.archive.values()]))
        best = float(best.min())

        def score(rows: slice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            mu, sigma = predict(rows)
            if offset is not None:
                mu = mu + offset(queries[rows])
            local = portfolio_nominate(mu, sigma, best, self.kappa)
            return rows.start + local, mu[local], sigma[local]

        blocks = parallel_map(score, row_blocks(queries.shape[0]))
        nominees, mu, sigma = (np.concatenate(part) for part in zip(*blocks))
        if len(blocks) > 1:
            # Each block nominated its first best row (or first NaN) per
            # acquisition, so the grid's first best row is among the
            # nominees; taken in row order, the same rule keeps it.
            nominees, first = np.unique(nominees, return_index=True)
            nominees = nominees[portfolio_nominate(mu[first], sigma[first], best, self.kappa)]
        self._last_nominees = queries[nominees]
        chosen = queries[nominees[hedge_select(self.hedge, self.hedge_rng)]]
        if tuple(chosen.tolist()) in self.archive:
            fallback = unexplored()
            if fallback is not None:
                return fallback
        return chosen

    def _learn(
        self,
        x: np.ndarray,
        actions: Sequence[Action],
        perfs: dict[str, PerfVector],
        specs: Mapping[str, SliceSpec],
        offset: Callable[[np.ndarray], np.ndarray] | None = None,
    ) -> None:
        """Record one probe, refit the surrogate, settle Hedge.

        `x` is the probe's input row, `actions` the allocation it priced and
        `perfs` what each slice delivered. Training targets are priced under
        `specs`; `offset` is the objective's known term over input rows, which
        the Hedge rewards include.
        """
        svrbs, sws = sum(a.svrb for a in actions), sum(a.sw for a in actions)
        obs = Observation(x, self.cost.u_h * svrbs + self.cost.u_s * sws, perfs)
        prices = self._prices(specs)  # re-prices the archive first if the specs changed
        self.archive[obs.key()] = obs  # replaces any earlier probe of this input
        prices[obs.key()] = self._price(obs, specs)
        self.buffer.push(obs)  # like the archive, keeps only the latest probe of an input
        sample = self.buffer.sample(self.subsample, self.rng)
        x_train = np.stack([o.x for o in sample])
        y = np.array([prices[o.key()] for o in sample])
        self.fit_count += 1
        if self.fit_count % self.hyperopt_every == 0:
            self.params, self.noise_var = optimize_params(
                x_train,
                y,
                self.params,
                self.noise_var,
                reference=self._default_params,
            )
        self.gp = fit(x_train, y, self.params, self.noise_var)
        if self._last_nominees is not None:
            mu_nom, _ = self.gp.predict(self._last_nominees)
            if offset is not None:
                mu_nom = mu_nom + offset(self._last_nominees)
            hedge_update(self.hedge, -mu_nom)
            self._last_nominees = None


class SliceAgent(PortfolioBo):
    """Online constrained Bayesian optimizer for one slice's (svrb, sw).

    Its input rows are (svrb, sw, peers_sw), where peers_sw is the slot's
    aggregated sharing weight of the other slices: exogenous context that
    shifts how much pool the slice's own sw can win. Its candidates are the
    action grid under the current peer weight, and its design is the grid's
    Halton (2, 3) sequence.
    """

    def __init__(
        self,
        slice_id: str,
        grid: CandidateGrid,
        rng: np.random.Generator,
        hedge_rng: np.random.Generator,
        algo: AlgoParams,
        cost: CostParams,
        penalty: float,
        peers_sw_span: float = 2.0,
        design_offset: int = 0,
    ):
        svrb_span = max(grid.svrb_values) - min(grid.svrb_values)
        sw_span = max(grid.sw_values) - min(grid.sw_values) or 1.0
        # A per-agent design_offset staggers the design sequence across
        # agents, keeping their cold-start proposals distinct, so the joint
        # capacity clamp does not flatten every early probe onto the same
        # symmetric point.
        spans = [max(svrb_span, 1.0), sw_span, max(peers_sw_span, 1.0)]
        super().__init__(spans, rng, hedge_rng, algo, cost, penalty, design_offset)
        self.slice_id = slice_id
        self.grid = grid

    def recommend(self, ctx: AgentContext) -> Action:
        """Pick the allocation this slot should commit to.

        Only sharing-free outcomes transfer across slots (an entry observed
        with sharing active may owe its performance to a pool split that no
        longer exists), so the committed weight is always zero and the
        incumbent is the cheapest sharing-free entry that meets the current
        SLA. An svRB count never tried weight-free may still challenge the
        incumbent when its re-priced target looks cheaper; committing to it
        produces the missing weight-free evidence, after which it either
        becomes the new incumbent or is ruled out for good. The commit is the
        `_cheapest` of these, and with none of them on record, of the whole
        archive. Requires at least one observation.
        """
        specs = {self.slice_id: ctx.spec}
        weight_free: dict[float, list[tuple]] = {}  # svRB -> its keys probed at sw = 0
        for key in self.archive:
            if key[1] == 0.0:
                weight_free.setdefault(key[0], []).append(key)
        committable = [k for k in self.archive if k[0] not in weight_free]  # challengers
        for keys in weight_free.values():
            key = self._cheapest(specs, keys)
            if sla_margin(self.archive[key].perfs[self.slice_id], ctx.spec) > 0.0:
                committable.append(key)  # an incumbent
        return Action(int(self._cheapest(specs, committable)[0]), 0.0)

    def _next_unexplored(self, peers_sw: float) -> np.ndarray | None:
        """Next design point not yet probed under `peers_sw`, or None after a full cycle."""
        for _ in range(len(self.grid.svrb_values) * len(self.grid.sw_values)):
            svrb, sw = design_point(self.grid, self._next_design())
            if (svrb, sw, peers_sw) not in self.archive:
                return np.array([svrb, sw, peers_sw], dtype=float)
        return None

    def suggest(self, ctx: AgentContext) -> Action:
        """Propose the next action: space-filling cold start, then portfolio BO.

        The recommendation itself comes from `recommend`, not from here.
        """
        if not self._warm():
            return Action(*design_point(self.grid, self._next_design()))
        pts = self.grid.points()
        queries = np.column_stack([pts, np.full(pts.shape[0], ctx.s)])
        row = self._propose(
            queries,
            {self.slice_id: ctx.spec},
            lambda rows: self.gp.predict(queries[rows]),
            lambda: self._next_unexplored(ctx.s),
            offset=lambda rows: proximal_term(rows[:, 0], ctx),
        )
        return Action(int(row[0]), float(row[1]))

    def observe(self, action: Action, perf: PerfVector, ctx: AgentContext) -> None:
        """Ingest one probe: push, refit the surrogate, settle hedge rewards."""
        self._learn(
            np.array([action.svrb, action.sw, ctx.s], dtype=float),
            (action,),
            {self.slice_id: perf},
            {self.slice_id: ctx.spec},
            offset=lambda rows: proximal_term(rows[:, 0], ctx),
        )
