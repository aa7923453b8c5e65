"""Experiment harness: scenarios, runners, traces, and summary metrics.

A Scenario fully describes one experiment (slices, environment, scripted
dynamics, algorithm, horizon, seed). `run` executes it deterministically:
every random draw descends from the scenario seed through named substreams,
so identical scenarios produce byte-identical traces. `run_matrix` crosses
scenario files with all algorithms, and `dump_oracle` materializes the
exhaustive-search dataset.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np
import yaml

from .agent import CandidateGrid, SliceAgent
from .baselines import (
    GboBaseline,
    OracleEntry,
    atlas_scale,
    exsearch_best,
    sweep_dataset,
)
from .coordinator import CoordinatorState, SlotOutcome, orchestrate_slot, resize
from .core import Action, CostParams, PerfVector, SliceSpec, normalized_performance, slice_cost
from .errors import ScenarioError
from .netenv import DynamicsEvent, EnvConfig, RanEnvironment, TrafficProfile, apply_events
from .rng import substream

ALGORITHMS = ("adaslicing", "gbo", "atlas", "exsearch")


@dataclass(frozen=True)
class AlgoParams:
    """Tunables of the orchestration algorithms; defaults suit the bundled scenarios."""

    rho: float = 2.0
    primal_tol: float = 0.5
    max_iters: int = 15
    dual_init: float = -5.0
    buffer_capacity: int = 40
    priority_decay: float = 0.95
    subsample: int = 30
    n_init: int = 3
    noise_var: float = 1e-4
    hyperopt_every: int = 5
    hedge_eta: float = 1.0
    kappa: float = 1.96
    # The log barrier turns into a bonus once the margin exceeds 1. Kept
    # at 0.5 so that bonus stays worth less than one resource block and
    # recommendations do not creep past the cheapest feasible allocation.
    barrier_coef: float = 0.5
    violation_penalty: float | None = None  # None: 10 * u_h * capacity
    sw_step: float = 0.1
    min_alive: int = 1
    probes_per_slot: int = 15  # baseline BO probe budget, parity with max_iters
    grid_cap: int = 10**6

    def __post_init__(self) -> None:
        for name in (
            "max_iters", "buffer_capacity", "subsample", "n_init", "hyperopt_every",
            "min_alive", "probes_per_slot", "grid_cap",
        ):
            value = getattr(self, name)
            if not _whole(value) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        for name in ("rho", "hedge_eta"):
            value = getattr(self, name)
            if not (_finite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        for name in ("primal_tol", "noise_var", "kappa", "barrier_coef", "violation_penalty"):
            value = getattr(self, name)
            if name == "violation_penalty" and value is None:
                continue
            if not (_finite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        if not _finite(self.dual_init):
            raise ValueError(f"dual_init must be finite, got {self.dual_init!r}")
        for name in ("priority_decay", "sw_step"):
            value = getattr(self, name)
            if not (_finite(value) and 0.0 < value <= 1.0):
                raise ValueError(f"{name} must lie in (0, 1], got {value!r}")


def _whole(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _finite(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


@dataclass(frozen=True)
class Scenario:
    """One fully specified experiment."""

    name: str
    seed: int
    slots: int
    algorithm: str
    env: EnvConfig
    slices: tuple[SliceSpec, ...]
    events: tuple[DynamicsEvent, ...] = ()
    cost: CostParams = field(default_factory=CostParams)
    algo: AlgoParams = field(default_factory=AlgoParams)

    def __post_init__(self) -> None:
        if not _whole(self.seed) or self.seed < 0:
            raise ScenarioError(f"seed: must be an integer >= 0, got {self.seed!r}")
        if not _whole(self.slots) or self.slots <= 0:
            raise ScenarioError(f"slots: must be an integer > 0, got {self.slots!r}")
        if self.algorithm not in ALGORITHMS:
            raise ScenarioError(
                f"algorithm: must be one of {ALGORITHMS}, got {self.algorithm!r}"
            )
        ids = [s.slice_id for s in self.slices]
        if not ids:
            raise ScenarioError("slices: at least one slice is required")
        if len(set(ids)) != len(ids):
            raise ScenarioError(f"slices: duplicate slice_id in {ids}")
        need = self.algo.min_alive * self._peak_population()
        if need > self.env.capacity_h:
            raise ScenarioError(
                f"env.capacity_h: {self.env.capacity_h} is below the {need} svRBs that"
                f" min_alive {self.algo.min_alive} needs for the most slices active at once"
            )

    def _peak_population(self) -> int:
        """Most slices active at once over the horizon, events applied."""
        specs, peak = list(self.slices), 0
        for slot in sorted({0} | {e.slot for e in self.events if e.slot < self.slots}):
            specs = apply_events(slot, self.events, specs)
            peak = max(peak, sum(s.active for s in specs))
        return peak


@dataclass(frozen=True, slots=True)
class SlotRecord:
    """Emitted allocation and delivered performance of one slot."""

    slot: int
    actions: dict[str, Action]
    perfs: dict[str, PerfVector]
    per_slice_cost: dict[str, float]
    total_cost: float
    norm_perf: dict[str, float]
    mean_norm_perf: float
    admm_iterations: int
    primal_residual: float


# -- scenario i/o ---------------------------------------------------------------


def _require(mapping: Mapping, key: str, where: str):
    if key not in mapping:
        raise ScenarioError(f"{where}.{key}: missing required field")
    return mapping[key]


def _build(where: str, cls, **kwargs):
    """cls(**kwargs), reporting a rejected value under its field path."""
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def scenario_from_dict(data: Mapping) -> Scenario:
    """Build and validate a Scenario, reporting errors with field paths."""
    if not isinstance(data, Mapping):
        raise ScenarioError("scenario: expected a mapping at the top level")

    env_raw = _require(data, "env", "scenario")
    env = _build(
        "env",
        EnvConfig,
        capacity_h=_require(env_raw, "capacity_h", "env"),
        per_vrb_rate=env_raw.get("per_vrb_rate", 2.1),
        noise_std=env_raw.get("noise_std", 0.03),
        isolation_mode=env_raw.get("isolation_mode", "soft"),
    )
    cost_raw = data.get("cost", {})
    cost = _build("cost", CostParams, u_h=cost_raw.get("u_h", 1.0), u_s=cost_raw.get("u_s", 1.0))

    slices = []
    for i, raw in enumerate(_require(data, "slices", "scenario")):
        where = f"slices[{i}]"
        profile_raw = _require(raw, "profile", where)
        profile = _build(
            f"{where}.profile",
            TrafficProfile,
            frame_rate=_require(profile_raw, "frame_rate", f"{where}.profile"),
            frame_size=_require(profile_raw, "frame_size", f"{where}.profile"),
            burstiness=profile_raw.get("burstiness", 0.0),
        )
        slices.append(
            _build(
                where,
                SliceSpec,
                slice_id=str(_require(raw, "slice_id", where)),
                q_throughput=_require(raw, "q_throughput", where),
                q_fps=_require(raw, "q_fps", where),
                app_profile=profile,
                active=bool(raw.get("active", True)),
            )
        )

    known_ids = {s.slice_id for s in slices}
    events = []
    for i, raw in enumerate(data.get("events", []) or []):
        where = f"events[{i}]"
        ev = _build(
            where,
            DynamicsEvent,
            slot=_require(raw, "slot", where),
            kind=_require(raw, "kind", where),
            slice_id=str(_require(raw, "slice_id", where)),
            q_throughput=raw.get("q_throughput"),
            q_fps=raw.get("q_fps"),
        )
        if ev.slice_id not in known_ids:
            raise ScenarioError(f"{where}.slice_id: unknown slice {ev.slice_id!r}")
        events.append(ev)
    events.sort(key=lambda e: e.slot)

    algo_raw = data.get("algo_params", {}) or {}
    known_fields = {f.name for f in fields(AlgoParams)}
    for key in algo_raw:
        if key not in known_fields:
            raise ScenarioError(f"algo_params.{key}: unknown parameter")

    return _build(
        "scenario",
        Scenario,
        name=str(_require(data, "name", "scenario")),
        seed=_require(data, "seed", "scenario"),
        slots=_require(data, "slots", "scenario"),
        algorithm=str(_require(data, "algorithm", "scenario")),
        env=env,
        slices=tuple(slices),
        events=tuple(events),
        cost=cost,
        algo=_build("algo_params", AlgoParams, **algo_raw),
    )


def scenario_to_dict(scenario: Scenario) -> dict:
    """Canonical plain-dict form, stable for hashing and round-trips."""
    return {
        "name": scenario.name,
        "seed": scenario.seed,
        "slots": scenario.slots,
        "algorithm": scenario.algorithm,
        "env": asdict(scenario.env),
        "cost": asdict(scenario.cost),
        "slices": [
            {
                "slice_id": s.slice_id,
                "q_throughput": s.q_throughput,
                "q_fps": s.q_fps,
                "active": s.active,
                "profile": asdict(s.app_profile) if s.app_profile else None,
            }
            for s in scenario.slices
        ],
        "events": [asdict(e) for e in scenario.events],
        "algo_params": asdict(scenario.algo),
    }


def scenario_digest(scenario: Scenario) -> str:
    canonical = json.dumps(scenario_to_dict(scenario), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"scenario file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    return scenario_from_dict(data)


# -- policies and the slot loop ------------------------------------------------------


def _make_record(
    slot: int, outcome: SlotOutcome, specs: Sequence[SliceSpec], cost: CostParams
) -> SlotRecord:
    actions, perfs = outcome.actions, outcome.perfs
    spec_by_id = {s.slice_id: s for s in specs}
    per_cost = {sid: slice_cost(a, cost) for sid, a in actions.items()}
    norm = {sid: normalized_performance(perfs[sid], spec_by_id[sid]) for sid in actions}
    return SlotRecord(
        slot=slot,
        actions=dict(actions),
        perfs=dict(perfs),
        per_slice_cost=per_cost,
        total_cost=math.fsum(per_cost.values()),
        norm_perf=norm,
        mean_norm_perf=(math.fsum(norm.values()) / len(norm)) if norm else 0.0,
        admm_iterations=outcome.iterations,
        primal_residual=outcome.primal_residual,
    )


_BO_PARAMS = (
    "buffer_capacity", "priority_decay", "subsample", "n_init",
    "noise_var", "hyperopt_every", "hedge_eta", "kappa",
)


def _bo_kwargs(p: AlgoParams) -> dict:
    """The AlgoParams fields that configure every Bayesian optimizer."""
    return {name: getattr(p, name) for name in _BO_PARAMS}


# A policy is built once per run from the scenario and its environment, then
# called on every slot with the slot number and the active slices (possibly
# none). It keeps its own state across slots and returns the slot's committed
# allocation.
Policy = Callable[[int, list[SliceSpec]], SlotOutcome]


def _adaslicing(scenario: Scenario, env: RanEnvironment) -> Policy:
    """Per-slice agents negotiating svRBs through the consensus coordinator."""
    p = scenario.algo
    state = CoordinatorState(
        rho=p.rho, primal_tol=p.primal_tol, max_iters=p.max_iters, dual_init=p.dual_init
    )
    grid = CandidateGrid.for_capacity(scenario.env.capacity_h, p.min_alive, p.sw_step)
    peers_span = max(1.0, float(len(scenario.slices) - 1))
    design_offsets = {s.slice_id: i for i, s in enumerate(scenario.slices)}
    agents: dict[str, SliceAgent] = {}

    def decide(slot: int, active: list[SliceSpec]) -> SlotOutcome:
        active_ids = [s.slice_id for s in active]
        joined = [sid for sid in active_ids if sid not in state.z]
        resize(state, joined, [sid for sid in state.z if sid not in active_ids])
        for sid in joined:
            if sid not in agents:  # departed agents are retained for rejoin
                agents[sid] = SliceAgent(
                    sid,
                    grid,
                    substream(scenario.seed, f"agent:{sid}"),
                    substream(scenario.seed, f"hedge:{sid}"),
                    peers_sw_span=peers_span,
                    design_offset=design_offsets[sid],
                    **_bo_kwargs(p),
                )
        if not active:  # an empty slot still retires the departed slices above
            return SlotOutcome()
        return orchestrate_slot(
            {sid: agents[sid] for sid in active_ids},
            env,
            active,
            state,
            scenario.cost,
            slot,
            barrier_coef=p.barrier_coef,
            violation_penalty=p.violation_penalty,  # None: the coordinator's default
            min_alive=p.min_alive,
        )

    return decide


def _bayesian(
    scenario: Scenario,
    env: RanEnvironment,
    optimizers: Callable[[int, list[SliceSpec]], list[GboBaseline]],
) -> Policy:
    """Hard-isolation BO probing: `optimizers` gives the slot's optimizers.

    Each probe merges their proposals, rescales them proportionally when they
    overflow capacity, and feeds every optimizer the outcome. A joint grid
    never overflows, so the rescale only ever acts on atlas.
    """
    p = scenario.algo
    capacity = scenario.env.capacity_h
    penalty = p.violation_penalty
    if penalty is None:  # the coordinator's default
        penalty = 10.0 * scenario.cost.u_h * capacity

    def decide(slot: int, active: list[SliceSpec]) -> SlotOutcome:
        if not active:
            return SlotOutcome()
        bos = optimizers(slot, active)
        order = [s.slice_id for s in active]
        args = ({s.slice_id: s for s in active}, scenario.cost, p.barrier_coef, penalty)

        def probe(propose: Callable[[GboBaseline], dict[str, Action]]) -> SlotOutcome:
            proposals = {sid: a.svrb for bo in bos for sid, a in propose(bo).items()}
            applied = atlas_scale(proposals, order, capacity, p.min_alive)
            actions = {sid: Action(applied[sid], 0.0) for sid in order}
            perfs = env.step(actions, active)
            for bo in bos:
                bo.observe(actions, perfs, *args, slot)
            return SlotOutcome(actions, perfs)

        for _ in range(p.probes_per_slot - 1):
            probe(lambda bo: bo.suggest(*args))
        # The slot's recorded allocation is the recommendation, not the last
        # exploratory probe.
        return probe(lambda bo: bo.incumbent(*args))

    return decide


def _gbo_baseline(
    scenario: Scenario, ids: Sequence[str], stream: str, tag: int | str
) -> GboBaseline:
    """A GboBaseline over `ids`, drawing from the `stream` substreams of `tag`."""
    p = scenario.algo
    return GboBaseline(
        ids,
        scenario.env.capacity_h,
        substream(scenario.seed, f"{stream}:{tag}"),
        substream(scenario.seed, f"{stream}-hedge:{tag}"),
        min_alive=p.min_alive,
        grid_cap=p.grid_cap,
        **_bo_kwargs(p),
    )


def _gbo(scenario: Scenario, env: RanEnvironment) -> Policy:
    """One optimizer over the joint allocation of the active slices."""
    current: dict[tuple[str, ...], GboBaseline] = {}

    def optimizers(slot: int, active: list[SliceSpec]) -> list[GboBaseline]:
        ids = tuple(s.slice_id for s in active)
        if ids not in current:
            # A global optimizer has a fixed joint input space; population
            # changes force a rebuild from scratch.
            current.clear()
            current[ids] = _gbo_baseline(scenario, ids, "gbo", slot)
        return [current[ids]]

    return _bayesian(scenario, env, optimizers)


def _atlas(scenario: Scenario, env: RanEnvironment) -> Policy:
    """One single-slice gbo per slice, each oblivious to the others."""
    agents: dict[str, GboBaseline] = {}

    def optimizers(slot: int, active: list[SliceSpec]) -> list[GboBaseline]:
        for s in active:
            if s.slice_id not in agents:
                agents[s.slice_id] = _gbo_baseline(scenario, [s.slice_id], "atlas", s.slice_id)
        return [agents[s.slice_id] for s in active]

    return _bayesian(scenario, env, optimizers)


def _exsearch(scenario: Scenario, env: RanEnvironment) -> Policy:
    """The cheapest allocation meeting every SLA on the noise-free sweep."""
    p = scenario.algo
    datasets: dict[tuple[str, ...], list[OracleEntry]] = {}

    def decide(slot: int, active: list[SliceSpec]) -> SlotOutcome:
        ids = tuple(s.slice_id for s in active)
        if not ids:
            return SlotOutcome()
        if ids not in datasets:
            datasets[ids] = sweep_dataset(active, scenario.env, p.min_alive, p.grid_cap)
        best = exsearch_best(datasets[ids], active, scenario.cost)
        actions = {sid: Action(v, 0.0) for sid, v in zip(ids, best.svrbs)}
        return SlotOutcome(actions, env.step(actions, active))

    return decide


_POLICIES: dict[str, Callable[[Scenario, RanEnvironment], Policy]] = {
    "adaslicing": _adaslicing,
    "gbo": _gbo,
    "atlas": _atlas,
    "exsearch": _exsearch,
}


def run(scenario: Scenario) -> list[SlotRecord]:
    """Execute a scenario deterministically and return one record per slot."""
    config = scenario.env
    if scenario.algorithm != "adaslicing":  # the baselines have no pool to share
        config = replace(config, isolation_mode="hard")
    env = RanEnvironment(config, substream(scenario.seed, "env"))
    decide = _POLICIES[scenario.algorithm](scenario, env)
    specs = list(scenario.slices)
    records = []
    for slot in range(scenario.slots):
        specs = apply_events(slot, scenario.events, specs)
        outcome = decide(slot, [s for s in specs if s.active])
        records.append(_make_record(slot, outcome, specs, scenario.cost))
    return records


# -- summary metrics ---------------------------------------------------------------


def convergence_slot(costs: Sequence[float], window: int = 3, rel_tol: float = 0.05) -> int | None:
    """First slot after which total cost stays within rel_tol for `window` slots."""
    for t in range(len(costs) - window):
        ref = costs[t]
        denom = max(abs(ref), 1e-9)
        if all(abs(costs[s] - ref) <= rel_tol * denom for s in range(t + 1, t + window + 1)):
            return t
    return None


def converged_value(values: Sequence[float], costs: Sequence[float] | None = None) -> float:
    """Median of the post-convergence tail (last five values as a fallback)."""
    costs = costs if costs is not None else values
    t = convergence_slot(costs)
    tail = values[t:] if t is not None else values[-5:]
    return float(np.median(np.asarray(tail, dtype=float)))


@dataclass(frozen=True)
class MatrixRow:
    """Summary of one (scenario x algorithm) cell."""

    scenario: str
    algorithm: str
    n_slices: int
    status: str  # "ok" or "error"
    error: str
    converged_cost: float | None
    converged_norm_perf: float | None
    slots_to_convergence: int | None
    final_cost: float | None


def run_matrix(
    scenarios: Iterable[Scenario], algorithms: Sequence[str] | None = None
) -> list[MatrixRow]:
    """Cross scenarios with algorithms; cell failures become error rows."""
    rows = []
    for scn in scenarios:
        for algo in algorithms or ALGORITHMS:
            cell = replace(scn, algorithm=algo)
            try:
                records = run(cell)
            except Exception as exc:  # a failing cell must not halt the sweep
                rows.append(
                    MatrixRow(
                        scn.name, algo, len(scn.slices), "error",
                        f"{type(exc).__name__}: {exc}", None, None, None, None,
                    )
                )
                continue
            costs = [r.total_cost for r in records]
            norms = [r.mean_norm_perf for r in records]
            rows.append(
                MatrixRow(
                    scn.name,
                    algo,
                    len(scn.slices),
                    "ok",
                    "",
                    converged_value(costs),
                    converged_value(norms, costs),
                    convergence_slot(costs),
                    costs[-1],
                )
            )
    return rows


# -- file outputs -------------------------------------------------------------------


def trace_columns(slice_ids: Sequence[str]) -> list[str]:
    cols = ["slot", "admm_iterations", "primal_residual", "total_cost", "mean_norm_perf"]
    for sid in slice_ids:
        cols += [
            f"{sid}_svrb", f"{sid}_sw", f"{sid}_throughput",
            f"{sid}_fps", f"{sid}_cost", f"{sid}_norm_perf",
        ]
    return cols


def write_trace_csv(records: Sequence[SlotRecord], slice_ids: Sequence[str], path: str | Path) -> None:
    """One row per slot; inactive slices leave their cells empty.

    Floats are written with repr so traces are byte-stable and lossless.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(trace_columns(slice_ids))
        for r in records:
            row: list = [
                r.slot, r.admm_iterations, repr(r.primal_residual),
                repr(r.total_cost), repr(r.mean_norm_perf),
            ]
            for sid in slice_ids:
                if sid in r.actions:
                    row += [
                        r.actions[sid].svrb,
                        repr(r.actions[sid].sw),
                        repr(r.perfs[sid].throughput),
                        repr(r.perfs[sid].fps),
                        repr(r.per_slice_cost[sid]),
                        repr(r.norm_perf[sid]),
                    ]
                else:
                    row += ["", "", "", "", "", ""]
            writer.writerow(row)


def write_manifest(scenario: Scenario, path: str | Path) -> None:
    """Deterministic run manifest: what ran, from which scenario, which code."""
    from . import __version__

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    manifest = {
        "name": scenario.name,
        "algorithm": scenario.algorithm,
        "seed": scenario.seed,
        "slots": scenario.slots,
        "scenario_sha256": scenario_digest(scenario),
        "package_version": __version__,
        "trace_columns": trace_columns([s.slice_id for s in scenario.slices]),
    }
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_matrix_csv(rows: Sequence[MatrixRow], path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            [
                "scenario", "algorithm", "n_slices", "status", "error",
                "converged_cost", "converged_norm_perf", "slots_to_convergence", "final_cost",
            ]
        )
        for r in rows:
            writer.writerow(
                [
                    r.scenario, r.algorithm, r.n_slices, r.status, r.error,
                    "" if r.converged_cost is None else repr(r.converged_cost),
                    "" if r.converged_norm_perf is None else repr(r.converged_norm_perf),
                    "" if r.slots_to_convergence is None else r.slots_to_convergence,
                    "" if r.final_cost is None else repr(r.final_cost),
                ]
            )


def dump_oracle(scenario: Scenario) -> list[OracleEntry]:
    """Materialize the exhaustive-search dataset for a scenario's initial slices."""
    active = [s for s in scenario.slices if s.active]
    return sweep_dataset(active, scenario.env, scenario.algo.min_alive, scenario.algo.grid_cap)


def write_oracle_csv(
    entries: Sequence[OracleEntry], slice_ids: Sequence[str], path: str | Path
) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        header = [f"{sid}_svrb" for sid in slice_ids]
        header += [f"{sid}_throughput" for sid in slice_ids]
        header += [f"{sid}_fps" for sid in slice_ids]
        writer.writerow(header)
        for e in entries:
            row = [str(v) for v in e.svrbs]
            row += [repr(p.throughput) for p in e.perfs]
            row += [repr(p.fps) for p in e.perfs]
            writer.writerow(row)
