"""Experiment harness: scenarios, runners, traces, and summary metrics.

A Scenario fully describes one experiment (slices, environment, scripted
dynamics, algorithm, horizon, seed). `run` executes it deterministically:
every random draw descends from the scenario seed through named substreams,
so identical scenarios produce byte-identical traces. `summarize` reduces a
run's records to one summary row. `run_matrix` is the one experiment loop: it
crosses scenarios (one per name and seed) with algorithms, and can write each
cell's trace as it goes. `dump_oracle` materializes the exhaustive-search
dataset.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import platform
from collections import Counter
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np
import yaml

from .agent import SliceAgent, check_action_grid, row_blocks
from .baselines import (
    GridPortfolioBo,
    OracleDataset,
    check_joint_grid,
    exsearch_best,
    sweep_dataset,
)
from .coordinator import CoordinatorState, SlotOutcome, orchestrate_slot, probe
from .core import (
    Action,
    AlgoParams,
    CostParams,
    PerfVector,
    SliceSpec,
    TrafficProfile,
    _whole,
    normalized_performance,
    slice_cost,
)
from .errors import ScenarioError
from .netenv import DynamicsEvent, EnvConfig, RanEnvironment, apply_events
from .rng import substream

ALGORITHMS = ("adaslicing", "gbo", "atlas", "exsearch")


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
        if self.name in ("", ".", "..") or Path(self.name).name != self.name or "\0" in self.name:
            raise ScenarioError(  # it names trace files
                f"name: must be a non-empty single path component, got {self.name!r}"
            )
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
        for i, ev in enumerate(self.events):
            if ev.slice_id not in ids:
                raise ScenarioError(f"events[{i}].slice_id: unknown slice {ev.slice_id!r}")
        object.__setattr__(self, "events", tuple(sorted(self.events, key=lambda e: e.slot)))
        for i, profile in enumerate(s.app_profile for s in self.slices):
            if not math.isfinite(profile.frame_rate * profile.frame_size / self.env.per_vrb_rate):
                raise ScenarioError(
                    f"slices[{i}].profile: offered load over env.per_vrb_rate"
                    f" {self.env.per_vrb_rate!r} is not a finite vRB count"
                )
        need = self.algo.min_alive * max(self._populations())
        if need > self.env.capacity_h:
            raise ScenarioError(
                f"env.capacity_h: {self.env.capacity_h} is below the {need} svRBs that"
                f" min_alive {self.algo.min_alive} needs for the most slices active at once"
            )

    def _populations(self) -> list[int]:
        """Active slice counts from slot 0 and from each event slot of the horizon, in slot order."""
        specs, counts = list(self.slices), []
        for slot in sorted({0} | {e.slot for e in self.events if e.slot < self.slots}):
            specs = apply_events(slot, self.events, specs)
            counts.append(sum(s.active for s in specs))
        return counts


def check_grid_cap(scenario: Scenario) -> None:
    """Raise the GridCapExceededError that `run` would raise, building no grid.

    Each grid's size comes from its closed form: for adaslicing, the one
    action grid every agent builds; for the others, the joint grid of each
    population in slot order, which is one slice for each of atlas's
    optimizers. A horizon with no slice active builds no grid.
    """
    capacity, algo = scenario.env.capacity_h, scenario.algo
    populations = [n for n in scenario._populations() if n > 0]
    if not populations:
        return
    if scenario.algorithm == "adaslicing":
        check_action_grid(capacity, algo, scenario.env.shares_pool)
    else:
        for n in [1] if scenario.algorithm == "atlas" else populations:
            check_joint_grid(n, capacity, algo.min_alive, algo.grid_cap)


@dataclass(frozen=True, slots=True)
class SlotRecord:
    """Emitted allocation and delivered performance of one slot.

    A record keeps only what the slot produced: the `actions` and `perfs`
    mappings the policy returned, uncopied (a policy that reuses a mapping
    across slots hands out a read-only view of it), the slice specs and
    cost parameters in force, and the two slot totals. `run` passes one
    spec sequence per stretch of slots without events, so records share it.
    `per_slice_cost` and `norm_perf` are derived from these when read.
    """

    slot: int
    actions: Mapping[str, Action]
    perfs: Mapping[str, PerfVector]
    specs: Sequence[SliceSpec]
    cost: CostParams
    total_cost: float
    mean_norm_perf: float
    admm_iterations: int
    primal_residual: float

    @property
    def per_slice_cost(self) -> dict[str, float]:
        """Each allocated slice's `slice_cost` under the record's cost parameters."""
        return {sid: slice_cost(a, self.cost) for sid, a in self.actions.items()}

    @property
    def norm_perf(self) -> dict[str, float]:
        """Each allocated slice's `normalized_performance` under the SLA in force."""
        return {
            s.slice_id: normalized_performance(self.perfs[s.slice_id], s)
            for s in self.specs
            if s.slice_id in self.actions
        }


# -- scenario i/o ---------------------------------------------------------------

# A scenario file holds one mapping per dataclass, keyed by its field names,
# and a field left out takes its dataclass default. What differs by field:
_FILE_KEYS = {"app_profile": "profile", "algo": "algo_params"}  # field -> file key
_SECTIONS = {
    "env": EnvConfig, "cost": CostParams, "app_profile": TrafficProfile, "algo": AlgoParams,
}
_LISTS = {"slices": SliceSpec, "events": DynamicsEvent}
_IDENTIFIERS = {"name", "algorithm", "slice_id"}  # a string, or an integer read as its digits
# Fields annotated float take an integer literal as a float, so `3` and `3.0`
# load, print and hash alike. A bool is an int, and is left to validation.
_FLOAT_TYPES = {"float", "float | None"}


def _build(where: str, cls, raw):
    """cls from one mapping of a scenario file, reporting problems by field path."""
    if not isinstance(raw, Mapping):
        raise ScenarioError(f"{where}: expected a mapping, got {type(raw).__name__}")
    by_key = {_FILE_KEYS.get(f.name, f.name): f for f in fields(cls)}
    for key in raw:
        if key not in by_key:
            raise ScenarioError(f"{where}.{key}: unknown field")
    kwargs = {}
    for key, f in by_key.items():
        if key not in raw:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ScenarioError(f"{where}.{key}: missing required field")
            continue
        path = key if cls is Scenario else f"{where}.{key}"  # `env`, not `scenario.env`
        value = raw[key]
        if f.name in _SECTIONS:  # a null section or list reads as empty
            value = _build(path, _SECTIONS[f.name], {} if value is None else value)
        elif f.name in _LISTS:
            value = _build_each(path, _LISTS[f.name], [] if value is None else value)
        elif f.name in _IDENTIFIERS and not isinstance(value, str):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ScenarioError(f"{path}: must be a string, got {type(value).__name__}")
            value = str(value)
        elif f.type in _FLOAT_TYPES and isinstance(value, int) and not isinstance(value, bool):
            try:
                value = float(value)
            except OverflowError as exc:
                raise ScenarioError(f"{path}: {exc}") from exc
        kwargs[f.name] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def _build_each(where: str, cls, raw) -> tuple:
    """One cls per entry of a scenario-file list."""
    if not isinstance(raw, list):
        raise ScenarioError(f"{where}: expected a list, got {type(raw).__name__}")
    return tuple(_build(f"{where}[{i}]", cls, item) for i, item in enumerate(raw))


def scenario_from_dict(data: Mapping) -> Scenario:
    """Build and validate a Scenario, reporting errors with field paths."""
    return _build("scenario", Scenario, data)


def _to_dict(value):
    """The scenario-file form of a value: dataclasses as mappings, tuples as lists."""
    if is_dataclass(value):
        return {
            _FILE_KEYS.get(f.name, f.name): _to_dict(getattr(value, f.name)) for f in fields(value)
        }
    if isinstance(value, tuple):
        return [_to_dict(v) for v in value]
    return value


def scenario_to_dict(scenario: Scenario) -> dict:
    """Canonical plain-dict form, stable for hashing and round-trips."""
    return _to_dict(scenario)


def scenario_digest(scenario: Scenario) -> str:
    canonical = json.dumps(scenario_to_dict(scenario), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class _UniqueKeyLoader(yaml.SafeLoader):
    """`yaml.safe_load`'s loader, refusing a mapping that repeats a key.

    YAML requires unique keys, where PyYAML would keep the last value. A key
    merged in with `<<` may still be overridden.
    """

    def construct_mapping(self, node, deep=False):
        key_nodes = [k for k, _ in node.value if k.tag != "tag:yaml.org,2002:merge"]
        mapping = super().construct_mapping(node, deep=deep)  # an unhashable key raises here
        seen = set()
        for key_node in key_nodes:
            key = self.construct_object(key_node, deep=deep)
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping", node.start_mark,
                    f"found repeated key {key!r}", key_node.start_mark,
                )
            seen.add(key)
        return mapping


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"scenario file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.load(fh, Loader=_UniqueKeyLoader)
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: int or date literals, bad UTF-8
        detail = " ".join(str(exc).split())  # one line, as the CLI's last stderr line
        raise ScenarioError(f"{path}: cannot be read as UTF-8 YAML: {detail}") from exc
    return scenario_from_dict(data)


# -- policies and the slot loop ------------------------------------------------------


def _make_record(
    slot: int, outcome: SlotOutcome, specs: Sequence[SliceSpec], cost: CostParams
) -> SlotRecord:
    """The record of one slot: `run` calls this once per slot, at the slot's end.

    The outcome's mappings and `specs` are kept as given. The totals are
    exact sums (`fsum`), so they do not depend on the order of the slices,
    and a slot with no active slice totals 0.
    """
    actions, perfs = outcome.actions, outcome.perfs
    norms = [normalized_performance(perfs[s.slice_id], s) for s in specs if s.slice_id in actions]
    return SlotRecord(
        slot=slot,
        actions=actions,
        perfs=perfs,
        specs=specs,
        cost=cost,
        total_cost=math.fsum(slice_cost(a, cost) for a in actions.values()),
        mean_norm_perf=(math.fsum(norms) / len(norms)) if norms else 0.0,
        admm_iterations=outcome.iterations,
        primal_residual=outcome.primal_residual,
    )


# A policy is built once per run from the scenario and its environment, then
# called on every slot with the slot number and the active slices (possibly
# none). It keeps its own state across slots and returns the slot's committed
# allocation.
Policy = Callable[[int, list[SliceSpec]], SlotOutcome]


def _adaslicing(scenario: Scenario, env: RanEnvironment) -> Policy:
    """Per-slice agents negotiating svRBs through the consensus coordinator."""
    p = scenario.algo
    state = CoordinatorState(rho=p.rho, max_iters=p.max_iters)
    peers_span = max(1.0, float(len(scenario.slices) - 1))
    design_offsets = {s.slice_id: i for i, s in enumerate(scenario.slices)}
    agents: dict[str, SliceAgent] = {}

    def decide(slot: int, active: list[SliceSpec]) -> SlotOutcome:
        for sid in (s.slice_id for s in active):
            if sid not in agents:  # departed agents are retained for rejoin
                agents[sid] = SliceAgent(
                    sid,
                    scenario.env.capacity_h,
                    substream(scenario.seed, f"agent:{sid}"),
                    substream(scenario.seed, f"hedge:{sid}"),
                    p,
                    scenario.cost,
                    peers_sw_span=peers_span,
                    design_offset=design_offsets[sid],
                    shares_pool=scenario.env.shares_pool,
                )
        # the coordinator retires departed slices, also on a slot with none active
        return orchestrate_slot(
            {s.slice_id: agents[s.slice_id] for s in active}, env, active, state, p.min_alive
        )

    return decide


def _bayesian(
    scenario: Scenario,
    env: RanEnvironment,
    optimizers: Callable[[int, list[SliceSpec]], list[GridPortfolioBo]],
) -> Policy:
    """BO probing at weight 0: `optimizers` gives the slot's optimizers.

    Each probe merges their proposals and plays them through
    `coordinator.probe`, which fits them to capacity as it fits
    adaslicing's, and feeds every optimizer the outcome. The optimizers
    propose weight 0 (hard isolation in either mode). A joint grid never
    overflows, so the fit only ever acts on atlas.
    """
    p = scenario.algo

    def decide(slot: int, active: list[SliceSpec]) -> SlotOutcome:
        if not active:
            return SlotOutcome()
        bos = optimizers(slot, active)
        specs = {s.slice_id: s for s in active}

        def observe(actions: dict[str, Action], perfs: dict[str, PerfVector]) -> None:
            for bo in bos:
                bo.observe(actions, perfs, specs)

        def merged(propose: Callable[[GridPortfolioBo], dict[str, Action]]) -> dict[str, Action]:
            return {sid: a for bo in bos for sid, a in propose(bo).items()}

        for _ in range(p.max_iters - 1):
            probe(env, active, merged(lambda bo: bo.suggest(specs)), p.min_alive, False, observe)
        # The slot's recorded allocation is the recommendation, not the last
        # exploratory probe.
        commit = merged(lambda bo: bo.incumbent(specs))
        return SlotOutcome(*probe(env, active, commit, p.min_alive, True, observe))

    return decide


def _grid_bo(
    scenario: Scenario, ids: Sequence[str], stream: str, tag: int | str
) -> GridPortfolioBo:
    """A grid optimizer over `ids`, drawing from the `stream` substreams of `tag`."""
    return GridPortfolioBo(
        ids,
        scenario.env.capacity_h,
        substream(scenario.seed, f"{stream}:{tag}"),
        substream(scenario.seed, f"{stream}-hedge:{tag}"),
        scenario.algo,
        scenario.cost,
    )


def _gbo(scenario: Scenario, env: RanEnvironment) -> Policy:
    """One optimizer over the joint allocation of the active slices."""
    current: dict[tuple[str, ...], GridPortfolioBo] = {}

    def optimizers(slot: int, active: list[SliceSpec]) -> list[GridPortfolioBo]:
        ids = tuple(s.slice_id for s in active)
        if ids not in current:
            # A global optimizer has a fixed joint input space; population
            # changes force a rebuild from scratch.
            current.clear()
            current[ids] = _grid_bo(scenario, ids, "gbo", slot)
        return [current[ids]]

    return _bayesian(scenario, env, optimizers)


def _atlas(scenario: Scenario, env: RanEnvironment) -> Policy:
    """One single-slice gbo per slice, each oblivious to the others."""
    agents: dict[str, GridPortfolioBo] = {}

    def optimizers(slot: int, active: list[SliceSpec]) -> list[GridPortfolioBo]:
        for s in active:
            if s.slice_id not in agents:
                agents[s.slice_id] = _grid_bo(scenario, [s.slice_id], "atlas", s.slice_id)
        return [agents[s.slice_id] for s in active]

    return _bayesian(scenario, env, optimizers)


def _exsearch(scenario: Scenario, env: RanEnvironment) -> Policy:
    """The cheapest allocation meeting every SLA on the noise-free sweep.

    A population's sweep depends on its ids and traffic profiles, and the
    pick on those plus the SLA thresholds, so each is computed once per
    distinct key and reused; the pick is a read-only mapping, since every
    slot of its epoch returns, and records, the same one. The environment
    still steps every slot, since each step draws from its random stream.
    """
    p = scenario.algo
    datasets: dict[tuple, OracleDataset] = {}
    picks: dict[tuple, dict[str, Action]] = {}

    def decide(slot: int, active: list[SliceSpec]) -> SlotOutcome:
        if not active:
            return SlotOutcome()
        epoch = tuple((s.slice_id, s.q_throughput, s.q_fps, s.app_profile) for s in active)
        if epoch not in picks:
            population = tuple((s.slice_id, s.app_profile) for s in active)
            if population not in datasets:
                datasets[population] = sweep_dataset(active, scenario.env, p.min_alive, p.grid_cap)
            best = exsearch_best(datasets[population], active, scenario.cost)
            picks[epoch] = MappingProxyType(
                {s.slice_id: Action(v, 0.0) for s, v in zip(active, best.svrbs)}
            )
        actions = picks[epoch]
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
    env = RanEnvironment(scenario.env, substream(scenario.seed, "env"))
    decide = _POLICIES[scenario.algorithm](scenario, env)
    specs: Sequence[SliceSpec] = scenario.slices
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
    """Summary of one (scenario x algorithm x seed) cell."""

    scenario: str
    algorithm: str
    seed: int
    n_slices: int
    status: str  # "ok" or "error"
    error: str  # empty when ok; the summaries below are None when not
    converged_cost: float | None = None
    converged_norm_perf: float | None = None
    slots_to_convergence: int | None = None
    final_cost: float | None = None


def summarize(scenario: Scenario, records: Sequence[SlotRecord]) -> MatrixRow:
    """The summary row of one completed run of `scenario`."""
    costs = [r.total_cost for r in records]
    norms = [r.mean_norm_perf for r in records]
    return MatrixRow(
        scenario.name, scenario.algorithm, scenario.seed, len(scenario.slices), "ok", "",
        converged_value(costs), converged_value(norms, costs), convergence_slot(costs), costs[-1],
    )


def _trace_name(scenario: Scenario) -> str:
    """File name of a matrix cell's trace: `<scenario>-<algorithm>-seed<seed>.csv`."""
    return f"{scenario.name}-{scenario.algorithm}-seed{scenario.seed}.csv"


def run_matrix(
    scenarios: Iterable[Scenario],
    algorithms: Sequence[str] | None = None,
    traces: str | Path | None = None,
) -> list[MatrixRow]:
    """Cross scenarios with algorithms; cell failures become error rows.

    With `traces`, each ok cell's trace is written there under `_trace_name`.
    Two cells with one trace name (a scenario name and seed given twice) are
    refused before any cell runs.
    """
    cells = [replace(scn, algorithm=algo) for scn in scenarios for algo in algorithms or ALGORITHMS]
    twice = [name for name, n in Counter(map(_trace_name, cells)).items() if n > 1]
    if twice:
        raise ScenarioError(
            f"{twice[0]}: two matrix cells share this trace; give each scenario name"
            " and seed once"
        )
    rows = []
    for cell in cells:
        try:
            records = run(cell)
        except Exception as exc:  # a failing cell must not halt the sweep
            error = f"{type(exc).__name__}: {exc}"
            rows.append(
                MatrixRow(cell.name, cell.algorithm, cell.seed, len(cell.slices), "error", error)
            )
            continue
        if traces is not None:
            slice_ids = [s.slice_id for s in cell.slices]
            write_trace_csv(records, slice_ids, Path(traces) / _trace_name(cell))
        rows.append(summarize(cell, records))
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


def _write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header and rows as CSV with bare newline line endings, making the directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _trace_row(r: SlotRecord, slice_ids: Sequence[str]) -> list:
    row: list = [
        r.slot, r.admm_iterations, repr(r.primal_residual),
        repr(r.total_cost), repr(r.mean_norm_perf),
    ]
    costs, norms = r.per_slice_cost, r.norm_perf
    for sid in slice_ids:
        if sid not in r.actions:
            row += [""] * 6
            continue
        action, perf = r.actions[sid], r.perfs[sid]
        row += [action.svrb, repr(action.sw), repr(perf.throughput), repr(perf.fps)]
        row += [repr(costs[sid]), repr(norms[sid])]
    return row


def write_trace_csv(records: Sequence[SlotRecord], slice_ids: Sequence[str], path: str | Path) -> None:
    """One row per slot; inactive slices leave their cells empty.

    Floats are written with repr so traces are byte-stable and lossless.
    """
    _write_csv(path, trace_columns(slice_ids), (_trace_row(r, slice_ids) for r in records))


def write_manifest(scenario: Scenario, path: str | Path, wall_s: float) -> None:
    """Run manifest: what ran, from which scenario, which code, and how long it took.

    The interpreter and library versions are recorded beside the package's,
    since a trace's floating-point bits depend on them too. So is the thread
    count of each bundled OpenBLAS, since the run's speed depends on it.
    `wall_s`, the run's wall time in seconds, is the one field that differs
    between two identical runs.
    """
    import scipy

    from . import __version__, blas

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    manifest = {
        "name": scenario.name,
        "algorithm": scenario.algorithm,
        "seed": scenario.seed,
        "slots": scenario.slots,
        "scenario_sha256": scenario_digest(scenario),
        "package_version": __version__,
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "openblas_threads": blas.threads(),
        "trace_columns": trace_columns([s.slice_id for s in scenario.slices]),
        "wall_s": wall_s,
    }
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_matrix_csv(rows: Sequence[MatrixRow], path: str | Path) -> None:
    """One row per cell, in MatrixRow's field order; None is written as an empty cell."""
    def cell(value):  # floats by repr, as in the traces
        return "" if value is None else repr(value) if isinstance(value, float) else value

    names = [f.name for f in fields(MatrixRow)]
    _write_csv(path, names, ([cell(getattr(r, n)) for n in names] for r in rows))


def dump_oracle(scenario: Scenario) -> OracleDataset:
    """Materialize the exhaustive-search dataset for a scenario's initial slices."""
    active = [s for s in scenario.slices if s.active]
    if not active:
        raise ScenarioError("slices: no slice is active at slot 0")
    return sweep_dataset(active, scenario.env, scenario.algo.min_alive, scenario.algo.grid_cap)


def write_oracle_csv(
    dataset: OracleDataset, slice_ids: Sequence[str], path: str | Path
) -> None:
    """One row per joint action: each slice's svRB, then throughputs, then FPS.

    Integers are written with str and floats with repr. The columns are
    turned into Python rows one `row_blocks` block at a time, so the writer
    holds at most PREDICT_BLOCK_ROWS rows as Python objects.
    """
    header = [f"{sid}_{col}" for col in ("svrb", "throughput", "fps") for sid in slice_ids]
    columns = (dataset.svrbs, dataset.throughput, dataset.fps)
    _write_csv(path, header, (
        [*map(str, svrbs), *map(repr, throughput), *map(repr, fps)]
        for block in row_blocks(len(dataset))
        for svrbs, throughput, fps in zip(*(column[block].tolist() for column in columns))
    ))
