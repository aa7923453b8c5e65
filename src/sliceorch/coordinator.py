"""Consensus coordinator for the per-slice agents.

The capacity constraint couples the slices, so the joint problem is split
consensus-style: each agent optimizes its own svRB count x_i against a
proximal pull toward an auxiliary copy z_i, the coordinator projects the
copies onto the capacity slab 0 <= sum(z) <= H in closed form, and scaled
duals y_i accumulate the disagreement. Within a slot the loop alternates
agent proposals (probed live against the environment) with projection and
dual updates until the largest primal residual |x_i - z_i| is small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .agent import AgentContext, SliceAgent
from .core import Action, CostParams, PerfVector, SliceSpec, total_cost
from .errors import InfeasibleCapacityError
from .netenv import RanEnvironment


@dataclass
class CoordinatorState:
    """Consensus variables and loop settings, persisted across slots."""

    rho: float = 2.0
    primal_tol: float = 0.5
    max_iters: int = 15
    dual_init: float = -5.0
    z: dict[str, float] = field(default_factory=dict)
    y: dict[str, float] = field(default_factory=dict)


def project_consensus(x: np.ndarray, y: np.ndarray, capacity: float) -> np.ndarray:
    """Least-squares projection of the consensus targets onto the capacity slab.

    Minimizes sum((x_i + y_i - z_i)^2) subject to 0 <= sum(z) <= capacity.
    The slab only constrains the total, so the projection shifts every
    coordinate of c = x + y equally: down by (sum(c) - capacity)/n when over
    capacity, up by -sum(c)/n when the total is negative, untouched otherwise.
    Individual z_i may leave [0, capacity]; only the total is constrained.
    """
    c = np.asarray(x, dtype=float) + np.asarray(y, dtype=float)
    total = c.sum()
    if total > capacity:
        return c - (total - capacity) / c.size
    if total < 0.0:
        return c - total / c.size
    return c.copy()


def dual_update(y: np.ndarray, x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Scaled-dual ascent: accumulate the remaining disagreement."""
    return np.asarray(y, dtype=float) + (np.asarray(x, dtype=float) - np.asarray(z, dtype=float))


def clamp_capacity(
    svrbs: Mapping[str, int], order: Sequence[str], capacity: int, min_alive: int = 1
) -> dict[str, int]:
    """Deterministically shrink a joint allocation until sum <= capacity.

    Removes one svRB at a time from the largest allocation, breaking ties by
    position in `order`, never dropping a slice below min_alive.
    """
    if min_alive * len(order) > capacity:
        raise InfeasibleCapacityError(
            f"{len(order)} slices at minimum {min_alive} svRBs exceed capacity {capacity}"
        )
    clamped = {sid: svrbs[sid] for sid in order}
    while sum(clamped.values()) > capacity:
        victim = max(order, key=lambda sid: (clamped[sid], -order.index(sid)))
        if clamped[victim] <= min_alive:
            raise InfeasibleCapacityError(
                f"cannot reduce below per-slice minimum {min_alive} within capacity {capacity}"
            )
        clamped[victim] -= 1
    return clamped


def spread_capacity(
    svrbs: Mapping[str, int], order: Sequence[str], capacity: int, min_alive: int = 1
) -> dict[str, int]:
    """Fit over-capacity proposals by shifting every slice down equally.

    Uses the same equal-shift geometry as the consensus projection, then
    integerizes by largest fractional remainder (ties by position in
    `order`) without exceeding any original request. Unlike the
    largest-first clamp this preserves the relative differences between
    requests, so a slice asking for much more than its peers still gets a
    large probe instead of being shaved back to the pack.
    """
    total = sum(svrbs[sid] for sid in order)
    if total <= capacity:
        return {sid: svrbs[sid] for sid in order}
    shift = (total - capacity) / len(order)
    real = {sid: svrbs[sid] - shift for sid in order}
    fitted = {sid: max(min_alive, math.floor(real[sid] + 1e-9)) for sid in order}
    spare = capacity - sum(fitted.values())
    if spare > 0:
        frac = {sid: real[sid] - math.floor(real[sid] + 1e-9) for sid in order}
        for sid in sorted(order, key=lambda s: (-frac[s], order.index(s))):
            if spare == 0:
                break
            if fitted[sid] < svrbs[sid]:
                fitted[sid] += 1
                spare -= 1
    # min_alive floors can leave the total above capacity; resolve the
    # remainder deterministically.
    return clamp_capacity(fitted, order, capacity, min_alive)


def resize(state: CoordinatorState, joined: Sequence[str], left: Sequence[str]) -> None:
    """Adapt consensus variables to slices joining or leaving.

    Departed slices drop their variables. New slices start at the minimum
    alive allocation with the current mean dual, so they inherit the going
    price of capacity instead of restarting the negotiation.
    """
    for sid in left:
        state.z.pop(sid, None)
        state.y.pop(sid, None)
    for sid in joined:
        state.z[sid] = 1.0
        state.y[sid] = (
            sum(state.y.values()) / len(state.y) if state.y else state.dual_init
        )


@dataclass
class IterationRecord:
    """One consensus iteration: applied cost, residual, and variable snapshots."""

    cost: float
    residual: float
    z: dict[str, float]
    y: dict[str, float]


@dataclass
class SlotOutcome:
    """Final emitted allocation of one slot plus the consensus-loop trace, if any."""

    actions: dict[str, Action] = field(default_factory=dict)
    perfs: dict[str, PerfVector] = field(default_factory=dict)
    iterations: int = 0
    primal_residual: float = 0.0
    trace: list[IterationRecord] = field(default_factory=list)


def orchestrate_slot(
    agents: Mapping[str, SliceAgent],
    env: RanEnvironment,
    specs: Sequence[SliceSpec],
    state: CoordinatorState,
    cost_params: CostParams,
    slot: int,
    barrier_coef: float,
    violation_penalty: float,
    min_alive: int = 1,
) -> SlotOutcome:
    """Run the consensus loop for one orchestration slot.

    Each iteration broadcasts (z, y, rho) plus the peers' latest sharing
    weights to every agent simultaneously, collects proposals, fits them
    jointly to capacity (live probes must respect the infrastructure bound),
    probes the environment once, lets agents ingest their own outcomes, then
    projects and updates duals. Stops when the largest |x_i - z_i| falls
    within primal_tol or after max_iters. The slot then emits each agent's
    best known action under the settled consensus (clamped jointly, probed,
    and fed back like any probe), so the recorded allocation is a
    recommendation rather than the last exploratory sample.
    """
    active = [s for s in specs if s.active]
    order = [s.slice_id for s in active]
    spec_by_id = {s.slice_id: s for s in active}
    capacity = env.config.capacity_h
    if min_alive * len(order) > capacity:
        raise InfeasibleCapacityError(
            f"{len(order)} slices at minimum {min_alive} svRBs exceed capacity {capacity}"
        )

    def context(sid: str, s_value: float) -> AgentContext:
        return AgentContext(
            z=state.z[sid],
            y=state.y[sid],
            rho=state.rho,
            s=s_value,
            spec=spec_by_id[sid],
            cost_params=cost_params,
            barrier_coef=barrier_coef,
            violation_penalty=violation_penalty,
        )

    def peers_sw(weights: Mapping[str, float], sid: str) -> float:
        return math.fsum(weights[o] for o in order if o != sid)

    def settle(x_by_id: Mapping[str, int]) -> float:
        """Project the current proposals, update duals, return the residual."""
        x_vec = np.array([x_by_id[sid] for sid in order], dtype=float)
        y_vec = np.array([state.y[sid] for sid in order], dtype=float)
        z_vec = project_consensus(x_vec, y_vec, capacity)
        y_vec = dual_update(y_vec, x_vec, z_vec)
        for i, sid in enumerate(order):
            state.z[sid] = float(z_vec[i])
            state.y[sid] = float(y_vec[i])
        return float(np.abs(x_vec - z_vec).max())

    def probe(
        proposals: Mapping[str, Action], fit_capacity: Callable[..., dict[str, int]]
    ) -> tuple[dict[str, Action], dict[str, PerfVector]]:
        """Fit the proposals to capacity, probe once, and feed every agent its outcome."""
        svrbs = {sid: proposals[sid].svrb for sid in order}
        fitted = fit_capacity(svrbs, order, capacity, min_alive)
        actions = {sid: Action(fitted[sid], proposals[sid].sw) for sid in order}
        perfs = env.step(actions, active)
        # Agents learn against the weights that were actually applied.
        sw = {sid: actions[sid].sw for sid in order}
        for sid in order:
            agents[sid].observe(actions[sid], perfs[sid], context(sid, peers_sw(sw, sid)), slot)
        return actions, perfs

    last_w = {
        sid: (agents[sid].last_action.sw if agents[sid].last_action is not None else 0.0)
        for sid in order
    }
    trace: list[IterationRecord] = []
    iterations = 0
    for _ in range(state.max_iters):
        iterations += 1
        # Jacobi broadcast: every agent sees the peers' previous-round weights.
        proposals = {sid: agents[sid].suggest(context(sid, peers_sw(last_w, sid))) for sid in order}
        actions, perfs = probe(proposals, spread_capacity)
        last_w = {sid: actions[sid].sw for sid in order}
        residual = settle({sid: actions[sid].svrb for sid in order})
        trace.append(
            IterationRecord(
                cost=total_cost(actions.values(), cost_params),
                residual=residual,
                z=dict(state.z),
                y=dict(state.y),
            )
        )
        if residual <= state.primal_tol:
            break

    # Emission: record each agent's recommendation, not the last exploratory
    # probe. The emitted action is observed like any probe, and the consensus
    # state re-anchors on it so the next slot's proximal term pulls the
    # negotiation toward the recommendation.
    recommended: dict[str, Action] = {}
    for sid in order:
        ctx = context(sid, peers_sw(last_w, sid))
        agent = agents[sid]
        recommended[sid] = agent.recommend(ctx) if agent.archive else agent.suggest(ctx)
    actions, perfs = probe(recommended, clamp_capacity)
    residual = settle({sid: actions[sid].svrb for sid in order})
    return SlotOutcome(actions, perfs, iterations, residual, trace)
