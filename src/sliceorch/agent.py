"""Per-slice constrained Bayesian agent, and the optimizer core it shares.

Each agent minimizes its own scalarized objective over a discrete action
grid: resource cost, plus a consensus proximal term that ties its svRB count
to the coordinator's target, plus a log-barrier on the worst SLA margin that
turns the performance constraint into a price. The surrogate models only
cost + barrier as a function of (svrb, sw, peers_sw); the proximal term is a
known quadratic and is added analytically when candidates are scored.

`PortfolioBo` holds what every online optimizer of the workbench shares:
the replay buffer, archive, GP refits and hyperparameter searches, and the
Hedge-weighted acquisition portfolio. `SliceAgent` and the baselines' grid
optimizer are its two subclasses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .acquisition import (
    HedgeState,
    hedge_select,
    hedge_update,
    portfolio_nominate,
)
from .core import Action, AlgoParams, CostParams, PerfVector, SliceSpec, slice_cost
from .gp import (
    Experience,
    GpInput,
    GpModel,
    KernelParams,
    ReplayBuffer,
    default_length_scales,
    fit,
    optimize_params,
)


@dataclass(frozen=True)
class AgentContext:
    """Everything the coordinator broadcasts to one agent for one iteration."""

    z: float  # consensus svRB target for this slice
    y: float  # scaled dual of the consensus constraint
    rho: float  # proximal weight
    s: float  # aggregated sharing weight of the other slices
    spec: SliceSpec  # current SLA thresholds
    cost_params: CostParams
    barrier_coef: float
    violation_penalty: float


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


def scalarize(action: Action, perf: PerfVector, ctx: AgentContext) -> float:
    """Full per-slice objective: cost + consensus proximal + SLA barrier."""
    return (
        slice_cost(action, ctx.cost_params)
        + proximal_term(action.svrb, ctx)
        + barrier_value(perf, ctx.spec, ctx.barrier_coef, ctx.violation_penalty)
    )


@dataclass(frozen=True)
class CandidateGrid:
    """Discrete action space: integer svRBs times a sharing-weight lattice."""

    svrb_values: tuple[int, ...]
    sw_values: tuple[float, ...]

    @classmethod
    def for_capacity(cls, capacity_h: int, min_alive: int = 1, sw_step: float = 0.1) -> "CandidateGrid":
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


class PortfolioBo:
    """Shared core of the online Bayesian optimizers.

    Holds the replay buffer that feeds the surrogate, an all-time archive of
    the latest outcome per distinct input, the GP with its hyperparameters,
    the Hedge bandit over the acquisition portfolio, and a cursor into a
    deterministic space-filling design. A subclass owns its candidate space
    and objective; it calls `_nominate` to pick a probe and `_learn` to
    ingest one. Every experience exposes `key()` and `row()`. All settings
    come from the scenario's `AlgoParams`.
    """

    def __init__(
        self,
        spans: Iterable[float],
        rng: np.random.Generator,
        hedge_rng: np.random.Generator,
        algo: AlgoParams,
        design_offset: int = 0,
    ):
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
        self.archive: dict[tuple, object] = {}

    def _warm(self) -> bool:
        """Whether the surrogate has seen enough data to drive the search."""
        return self.gp is not None and len(self.buffer) >= self.n_init

    def _next_design(self) -> int:
        """Current design index; advances the cursor."""
        self._design_cursor += 1
        return self._design_cursor - 1

    def _nominate(self, mu: np.ndarray, sigma: np.ndarray, best: float, rows: np.ndarray):
        """Hedge-selected index among the portfolio's nominees over `rows`.

        The nominee rows are kept so the next `_learn` can settle the bandit.
        """
        nominees = portfolio_nominate(mu, sigma, best, self.kappa)
        self._last_nominees = rows[nominees]
        return nominees[hedge_select(self.hedge, self.hedge_rng)]

    def _learn(
        self,
        exp,
        target: Callable[[object], float],
        offset: Callable[[np.ndarray], np.ndarray] | None = None,
    ) -> None:
        """Archive and push one experience, refit the surrogate, settle Hedge.

        `target` prices a stored experience under the current objective;
        `offset` is a known additive term of the objective over input rows,
        which the surrogate does not model but the Hedge rewards include.
        """
        self.archive[exp.key()] = exp
        self.buffer.push(exp)
        sample = self.buffer.sample(self.subsample, self.rng)
        x = np.stack([e.row() for e in sample])
        y = np.array([target(e) for e in sample])
        self.fit_count += 1
        if self.fit_count % self.hyperopt_every == 0:
            self.params, self.noise_var = optimize_params(
                x,
                y,
                self.params,
                self.noise_var,
                reference=self._default_params,
            )
        self.gp = fit(x, y, self.params, self.noise_var)
        if self._last_nominees is not None:
            mu_nom, _ = self.gp.predict(self._last_nominees)
            if offset is not None:
                mu_nom = mu_nom + offset(self._last_nominees)
            hedge_update(self.hedge, -mu_nom)
            self._last_nominees = None


class SliceAgent(PortfolioBo):
    """Online constrained Bayesian optimizer for one slice's (svrb, sw)."""

    def __init__(
        self,
        slice_id: str,
        grid: CandidateGrid,
        rng: np.random.Generator,
        hedge_rng: np.random.Generator,
        algo: AlgoParams,
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
        super().__init__(spans, rng, hedge_rng, algo, design_offset)
        self.slice_id = slice_id
        self.grid = grid
        self.last_action: Action | None = None

    # -- objective bookkeeping -------------------------------------------------

    def _target(self, exp: Experience, ctx: AgentContext) -> float:
        """Cost + barrier for a stored experience, priced at current thresholds."""
        cost = ctx.cost_params.u_h * exp.input.svrb + ctx.cost_params.u_s * exp.input.sw
        return cost + barrier_value(exp.observed, ctx.spec, ctx.barrier_coef, ctx.violation_penalty)

    def _incumbent(self, ctx: AgentContext) -> float:
        """Best full objective over everything observed, under the current context."""
        return min(
            self._target(e, ctx) + proximal_term(e.input.svrb, ctx)
            for e in self.archive.values()
        )

    def recommend(self, ctx: AgentContext) -> Action:
        """Pick the allocation this slot should commit to.

        Only sharing-free outcomes transfer across slots (an entry observed
        with sharing active may owe its performance to a pool split that no
        longer exists), so the committed weight is always zero and the
        incumbent is the cheapest sharing-free entry that meets the current
        SLA. An svRB count never tried weight-free may still challenge the
        incumbent when its re-priced target looks cheaper; committing to it
        produces the missing weight-free evidence, after which it either
        becomes the new incumbent or is ruled out for good. With nothing
        feasible on record, the least-bad entry is committed. Requires at
        least one observation.
        """

        def rank(e: Experience) -> tuple[float, float, float, float]:
            return self._target(e, ctx), e.input.svrb, e.input.sw, e.input.peers_sw

        tested: dict[int, Experience] = {}
        for e in self.archive.values():
            if e.input.sw != 0.0:
                continue
            svrb = int(e.input.svrb)
            if svrb not in tested or rank(e) < rank(tested[svrb]):
                tested[svrb] = e
        feasible = [
            e for e in tested.values() if sla_margin(e.observed, ctx.spec) > 0.0
        ]
        untested = [
            e for e in self.archive.values() if int(e.input.svrb) not in tested
        ]
        incumbent = min(feasible, key=rank, default=None)
        challenger = min(untested, key=rank, default=None)
        if incumbent is None:
            best = challenger or min(self.archive.values(), key=rank)
        elif challenger is not None and rank(challenger) < rank(incumbent):
            best = challenger
        else:
            best = incumbent
        return Action(int(best.input.svrb), 0.0)

    # -- online loop -----------------------------------------------------------

    def suggest(self, ctx: AgentContext) -> Action:
        """Propose the next action: space-filling cold start, then portfolio BO.

        A nominee whose exact (svrb, sw) was already observed under the
        current peer weights teaches the surrogate nothing, so the probe is
        spent on the next unseen design point instead; the recommendation
        itself comes from `recommend`, not from here.
        """
        if not self._warm():
            self._last_nominees = None
            return Action(*design_point(self.grid, self._next_design()))

        pts = self.grid.points()
        queries = np.column_stack([pts, np.full(pts.shape[0], ctx.s)])
        mu, sigma = self.gp.predict(queries)
        mu_total = mu + proximal_term(pts[:, 0], ctx)
        chosen = self._nominate(mu_total, sigma, self._incumbent(ctx), queries)
        svrb, sw = int(pts[chosen, 0]), float(pts[chosen, 1])
        if (svrb, sw, ctx.s) in self.archive:
            for _ in range(pts.shape[0]):
                cand = design_point(self.grid, self._next_design())
                if (*cand, ctx.s) not in self.archive:
                    return Action(cand[0], cand[1])
        return Action(svrb, sw)

    def observe(self, action: Action, perf: PerfVector, ctx: AgentContext, slot: int) -> None:
        """Ingest one probe: push, refit the surrogate, settle hedge rewards."""
        self.last_action = action
        self._learn(
            Experience(GpInput(action.svrb, action.sw, ctx.s), perf, slot),
            lambda e: self._target(e, ctx),
            offset=lambda rows: proximal_term(rows[:, 0], ctx),
        )
