"""Scenario i/o, experiment runners, summary metrics, and the CLI."""

import contextlib
import copy
import csv
import io
import json
import math
import os
import platform
import re
import shlex
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import scipy
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceorch import blas, harness, netenv
from sliceorch.agent import PortfolioBo, SliceAgent
from sliceorch.baselines import GridPortfolioBo
from sliceorch.cli import _build_parser, main
from sliceorch.coordinator import CoordinatorState, clamp_capacity, spread_capacity
from sliceorch.core import Action, CostParams
from sliceorch.errors import NoFeasibleActionError, ScenarioError
from sliceorch.harness import (
    ALGORITHMS,
    AlgoParams,
    Scenario,
    convergence_slot,
    converged_value,
    load_scenario,
    run,
    run_matrix,
    scenario_digest,
    scenario_from_dict,
    scenario_to_dict,
    trace_columns,
    write_manifest,
    write_trace_csv,
)
from sliceorch.netenv import EnvConfig, RanEnvironment, TrafficProfile


def base_dict(**over):
    data = {
        "name": "tiny",
        "seed": 3,
        "slots": 4,
        "algorithm": "exsearch",
        "env": {"capacity_h": 6, "per_vrb_rate": 3.2, "noise_std": 0.0},
        "slices": [
            {
                "slice_id": "a",
                "q_throughput": 7.0,
                "q_fps": 10.0,
                "profile": {"frame_rate": 30.0, "frame_size": 0.5},
            },
            {
                "slice_id": "b",
                "q_throughput": 7.0,
                "q_fps": 10.0,
                "profile": {"frame_rate": 24.0, "frame_size": 0.625},
            },
        ],
    }
    data.update(over)
    return data


def full_dict():
    """base_dict with every optional section present."""
    return base_dict(
        cost={"u_h": 1.0},
        events=[{"slot": 2, "kind": "slice_leave", "slice_id": "b"}],
        algo_params={"rho": 2.0},
    )


def locate(data, path):
    """(container, key) of the section at a scenario-file path such as `slices[1].profile`."""
    steps = [int(s) if s.isdigit() else s for s in re.findall(r"\w+", path)]
    for step in steps[:-1]:
        data = data[step]
    return data, steps[-1]


def mappings(node, path="scenario"):
    """Every mapping of a scenario file, with the path its errors are reported under."""
    yield path, node
    for key, value in node.items():
        child = key if path == "scenario" else f"{path}.{key}"
        if isinstance(value, dict):
            yield from mappings(value, child)
        elif isinstance(value, list):
            for i, item in enumerate(value):
                yield from mappings(item, f"{child}[{i}]")


BUNDLED = sorted((Path(__file__).resolve().parents[1] / "scenarios").rglob("*.yaml"))
RAW = {path.name: yaml.safe_load(path.read_text()) for path in BUNDLED}
KNOWN_KEYS = {
    key
    for path in BUNDLED
    for _, mapping in mappings(scenario_to_dict(load_scenario(path)))
    for key in mapping
}


class TestScenarioParsing:
    def test_roundtrip(self):
        scn = scenario_from_dict(base_dict())
        assert scn.name == "tiny"
        assert scn.env.capacity_h == 6
        assert [s.slice_id for s in scn.slices] == ["a", "b"]
        assert scenario_from_dict(scenario_to_dict(scn)) == scn

    def test_integer_literals_in_float_fields_load_as_floats(self):
        data = base_dict(env={"capacity_h": 6, "per_vrb_rate": 3, "noise_std": 0})
        data["slices"][0]["profile"]["frame_rate"] = 30
        data["events"] = [
            {"slot": 1, "kind": "sla_change", "slice_id": "a", "q_throughput": 8, "q_fps": 12}
        ]
        scn = scenario_from_dict(data)
        assert type(scn.env.per_vrb_rate) is float and type(scn.env.noise_std) is float
        assert type(scn.slices[0].app_profile.frame_rate) is float
        assert type(scn.events[0].q_fps) is float
        assert type(scn.env.capacity_h) is int
        as_floats = base_dict(env={"capacity_h": 6, "per_vrb_rate": 3.0, "noise_std": 0.0})
        as_floats["slices"][0]["profile"]["frame_rate"] = 30.0
        as_floats["events"] = [
            {"slot": 1, "kind": "sla_change", "slice_id": "a", "q_throughput": 8.0, "q_fps": 12.0}
        ]
        assert scenario_digest(scn) == scenario_digest(scenario_from_dict(as_floats))

    def test_missing_top_level_field_names_the_path(self):
        data = base_dict()
        del data["slots"]
        with pytest.raises(ScenarioError, match=r"scenario\.slots"):
            scenario_from_dict(data)

    def test_missing_env_field_names_the_path(self):
        with pytest.raises(ScenarioError, match=r"env\.capacity_h"):
            scenario_from_dict(base_dict(env={"noise_std": 0.0}))

    def test_missing_profile_names_the_path(self):
        data = base_dict()
        del data["slices"][1]["profile"]
        with pytest.raises(ScenarioError) as info:
            scenario_from_dict(data)
        assert str(info.value) == "slices[1].profile: missing required field"

    def test_slice_errors_carry_their_index(self):
        data = base_dict()
        del data["slices"][1]["q_fps"]
        with pytest.raises(ScenarioError, match=r"slices\[1\]\.q_fps"):
            scenario_from_dict(data)

    def test_invalid_slice_value_carries_its_index(self):
        data = base_dict()
        data["slices"][0]["profile"]["frame_rate"] = -1.0
        with pytest.raises(ScenarioError, match=r"slices\[0\]"):
            scenario_from_dict(data)

    def test_event_for_unknown_slice_is_rejected(self):
        data = base_dict(events=[{"slot": 2, "kind": "slice_leave", "slice_id": "ghost"}])
        with pytest.raises(ScenarioError, match=r"events\[0\]\.slice_id"):
            scenario_from_dict(data)

    def test_unknown_algo_parameter_is_rejected(self):
        data = base_dict(algo_params={"bogus": 1})
        with pytest.raises(ScenarioError, match=r"algo_params\.bogus"):
            scenario_from_dict(data)

    def test_invalid_algo_parameter_value_is_rejected(self):
        data = base_dict(algo_params={"max_iters": 0})
        with pytest.raises(ScenarioError, match="algo_params"):
            scenario_from_dict(data)

    def test_unknown_algorithm_is_rejected(self):
        with pytest.raises(ScenarioError, match="algorithm"):
            scenario_from_dict(base_dict(algorithm="magic"))

    def test_duplicate_slice_ids_are_rejected(self):
        data = base_dict()
        data["slices"][1]["slice_id"] = "a"
        with pytest.raises(ScenarioError, match="duplicate"):
            scenario_from_dict(data)

    def test_events_are_sorted_by_slot(self):
        data = base_dict(
            events=[
                {"slot": 9, "kind": "slice_leave", "slice_id": "b"},
                {"slot": 2, "kind": "slice_join", "slice_id": "b"},
            ]
        )
        scn = scenario_from_dict(data)
        assert [e.slot for e in scn.events] == [2, 9]

    def test_integer_identifiers_read_as_their_digits(self):
        data = base_dict(name=7)
        data["slices"][0]["slice_id"] = 1
        data["events"] = [{"slot": 2, "kind": "slice_leave", "slice_id": 1}]
        scn = scenario_from_dict(data)
        assert scn.name == "7"
        assert scn.slices[0].slice_id == "1" and scn.events[0].slice_id == "1"

    def test_merge_keys_may_be_overridden(self, tmp_path):
        """A repeated key is refused, but a key merged in with `<<` may still be overridden."""
        path = tmp_path / "merged.yaml"
        path.write_text(
            "name: tiny\nseed: 3\nslots: 4\nalgorithm: exsearch\n"
            "env: {capacity_h: 6, per_vrb_rate: 3.2, noise_std: 0.0}\n"
            "slices:\n"
            "  - {slice_id: a, q_throughput: 7.0, q_fps: 10.0,"
            " profile: &profile {frame_rate: 30.0, frame_size: 0.5}}\n"
            "  - slice_id: b\n    q_throughput: 7.0\n    q_fps: 10.0\n"
            "    profile:\n      <<: *profile\n      frame_rate: 24.0\n"
        )
        scn = load_scenario(path)
        assert scn.slices[1].app_profile == TrafficProfile(24.0, 0.5)

    def test_load_scenario_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="not found"):
            load_scenario(tmp_path / "nope.yaml")

    def test_bundled_scenarios_parse(self):
        root = Path(__file__).resolve().parents[1] / "scenarios"
        for path in sorted(root.rglob("*.yaml")):
            scn = load_scenario(path)
            assert scn.slots > 0

    @pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.name)
    def test_bundled_scenarios_round_trip(self, path):
        scn = load_scenario(path)
        assert scenario_from_dict(scenario_to_dict(scn)) == scn

    def test_omitted_fields_take_the_dataclass_defaults(self):
        data = base_dict(env={"capacity_h": 6}, cost=None, events=None, algo_params=None)
        scn = scenario_from_dict(data)
        assert scn.env == EnvConfig(6)
        assert scn.cost == CostParams()
        assert scn.algo == AlgoParams()
        assert scn.events == ()
        assert scn.slices[0].app_profile == TrafficProfile(30.0, 0.5)
        assert scn.slices[0].active

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_unknown_key_anywhere_is_named_by_its_path(self, data):
        raw = copy.deepcopy(RAW[data.draw(st.sampled_from(sorted(RAW)))])
        path, mapping = data.draw(st.sampled_from(list(mappings(raw))))
        key = data.draw(
            st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12).filter(
                lambda k: k not in KNOWN_KEYS
            )
        )
        mapping[key] = 0.0
        with pytest.raises(ScenarioError) as info:
            scenario_from_dict(raw)
        assert str(info.value) == f"{path}.{key}: unknown field"


class TestAlgoParams:
    def test_penalty_defaults_to_ten_capacities_of_svrb(self):
        cost, rng = CostParams(u_h=2.0), np.random.default_rng(0)
        bo = GridPortfolioBo(["a"], 12, rng, rng, AlgoParams(), cost)
        agent = SliceAgent("a", 12, rng, rng, AlgoParams(), cost)
        assert bo.penalty == agent.penalty == 240.0

    @pytest.mark.parametrize("algorithm", ["gbo", "atlas"])
    def test_baselines_probe_max_iters_times_per_slot(self, algorithm, monkeypatch):
        steps = []
        original = RanEnvironment.step

        def counting(self, *args, **kwargs):
            steps.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(RanEnvironment, "step", counting)
        default = next(path for path in BUNDLED if path.name == "default.yaml")
        scenario = load_scenario(default)
        run(replace(scenario, algorithm=algorithm, slots=2, algo=AlgoParams(max_iters=3)))
        assert len(steps) == 2 * 3

    def test_atlas_probes_and_commits_through_the_coordinators_capacity_rules(self, monkeypatch):
        # Each per-slice optimizer proposes a fixed svRB; together they
        # overflow the 12-vRB cell. Exploratory probes are fitted by
        # spread_capacity and the commit by clamp_capacity, as adaslicing's.
        proposals = {"slice1": 8, "slice2": 5, "slice3": 2}
        order = list(proposals)

        def fixed(self, specs):
            return {sid: Action(proposals[sid], 0.0) for sid in self.slice_ids}

        monkeypatch.setattr(GridPortfolioBo, "suggest", fixed)
        monkeypatch.setattr(GridPortfolioBo, "incumbent", fixed)
        steps = []
        original = RanEnvironment.step

        def recording(self, actions, *args, **kwargs):
            steps.append({sid: (a.svrb, a.sw) for sid, a in actions.items()})
            return original(self, actions, *args, **kwargs)

        monkeypatch.setattr(RanEnvironment, "step", recording)
        default = next(path for path in BUNDLED if path.name == "default.yaml")
        scenario = load_scenario(default)
        (record,) = run(replace(scenario, algorithm="atlas", slots=1, algo=AlgoParams(max_iters=3)))
        spread = spread_capacity(proposals, order, 12, 1)
        clamp = clamp_capacity(proposals, order, 12, 1)
        assert spread == {"slice1": 7, "slice2": 4, "slice3": 1}
        assert clamp == {"slice1": 5, "slice2": 5, "slice3": 2}
        assert steps == [{sid: (spread[sid], 0.0) for sid in order}] * 2 + [
            {sid: (clamp[sid], 0.0) for sid in order}
        ]
        assert {sid: a.svrb for sid, a in record.actions.items()} == clamp

    def test_adaslicing_probes_and_commits_through_the_coordinators_capacity_rules(self, monkeypatch):
        # Every agent proposes a fixed weighted action and recommends another;
        # each set overflows the 12-vRB cell. Probes are fitted by
        # spread_capacity, the commit by clamp_capacity, and both keep the
        # proposed weights.
        suggested = {"slice1": Action(8, 0.3), "slice2": Action(5, 0.0), "slice3": Action(2, 0.5)}
        recommended = {"slice1": Action(9, 0.2), "slice2": Action(2, 0.0), "slice3": Action(4, 0.4)}
        order = list(suggested)
        monkeypatch.setattr(SliceAgent, "suggest", lambda self, ctx: suggested[self.slice_id])
        monkeypatch.setattr(SliceAgent, "recommend", lambda self, spec: recommended[self.slice_id])
        steps = []
        original = RanEnvironment.step

        def recording(self, actions, *args, **kwargs):
            steps.append({sid: (a.svrb, a.sw) for sid, a in actions.items()})
            return original(self, actions, *args, **kwargs)

        monkeypatch.setattr(RanEnvironment, "step", recording)
        default = next(path for path in BUNDLED if path.name == "default.yaml")
        scenario = load_scenario(default)
        (record,) = run(replace(scenario, algorithm="adaslicing", slots=1, algo=AlgoParams(max_iters=3)))

        def fit(rule, proposals):
            svrbs = rule({sid: a.svrb for sid, a in proposals.items()}, order, 12, 1)
            return {sid: (svrbs[sid], proposals[sid].sw) for sid in order}

        spread, clamp = fit(spread_capacity, suggested), fit(clamp_capacity, recommended)
        assert spread == {"slice1": (7, 0.3), "slice2": (4, 0.0), "slice3": (1, 0.5)}
        assert clamp == {"slice1": (6, 0.2), "slice2": (2, 0.0), "slice3": (4, 0.4)}
        # The consensus loop runs all three iterations: x = (7, 4, 1)
        # leaves residuals of 4 and then 1 against the projected targets.
        assert steps == [spread] * 3 + [clamp]
        assert {sid: (a.svrb, a.sw) for sid, a in record.actions.items()} == clamp

    @pytest.mark.parametrize(
        "algorithm, kind, count",
        [("adaslicing", SliceAgent, 2), ("gbo", GridPortfolioBo, 1), ("atlas", GridPortfolioBo, 2)],
    )
    def test_scenario_settings_reach_every_optimizer(self, algorithm, kind, count, monkeypatch):
        def instances(cls):
            built, original = [], cls.__init__

            def recording(self, *args, **kwargs):
                original(self, *args, **kwargs)
                built.append(self)

            monkeypatch.setattr(cls, "__init__", recording)
            return built

        built, states = instances(PortfolioBo), instances(CoordinatorState)
        settings = {
            "buffer_capacity": 7, "subsample": 4, "n_init": 2, "hedge_eta": 0.3,
            "barrier_coef": 0.25, "hyperopt_every": 3,
            "rho": 1.5, "max_iters": 4,
        }
        run(scenario_from_dict(base_dict(algorithm=algorithm, slots=2, algo_params=settings)))
        assert len(built) == count
        for bo in built:
            assert type(bo) is kind
            assert bo.buffer_capacity == 7
            assert bo.subsample == 4
            assert bo.n_init == 2
            assert bo.hedge.eta == 0.3
            assert bo.barrier_coef == 0.25
            assert bo.hyperopt_every == 3
        consensus = [(state.rho, state.max_iters) for state in states]
        assert consensus == ([(1.5, 4)] if algorithm == "adaslicing" else [])


class TestHardIsolation:
    def test_adaslicing_probes_no_sharing_weight(self, monkeypatch):
        weights = []
        original = RanEnvironment.step

        def recording(self, actions, specs):
            weights.extend(a.sw for a in actions.values())
            return original(self, actions, specs)

        monkeypatch.setattr(RanEnvironment, "step", recording)
        scenario = load_scenario(next(path for path in BUNDLED if path.name == "default.yaml"))
        hard = replace(scenario.env, isolation_mode="hard")
        run(replace(scenario, algorithm="adaslicing", env=hard))
        assert weights and max(weights) == 0.0

    @pytest.mark.parametrize("grid_cap", [5, 6])
    def test_validate_and_run_size_the_weightless_grid_alike(self, grid_cap, tmp_path, capsys):
        # 6 svRBs and weight 0 alone: 6 actions, where soft isolation has 66
        data = base_dict(algorithm="adaslicing", slots=1, algo_params={"grid_cap": grid_cap})
        data["env"]["isolation_mode"] = "hard"
        path = tmp_path / "hard.yaml"
        path.write_text(yaml.safe_dump(data))
        expected = 2 if grid_cap < 6 else 0
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == expected
        assert main(["validate", str(path)]) == expected
        if expected:
            run_err, validate_err = capsys.readouterr().err.splitlines()[-2:]
            assert run_err == validate_err == (
                "ERROR GridCapExceededError: candidate grid has 6 actions, over the cap of 5"
            )


class TestDigest:
    def test_digest_is_stable(self):
        a = scenario_from_dict(base_dict())
        b = scenario_from_dict(base_dict())
        assert scenario_digest(a) == scenario_digest(b)
        assert len(scenario_digest(a)) == 64

    def test_digest_tracks_content(self):
        a = scenario_from_dict(base_dict())
        b = scenario_from_dict(base_dict(seed=4))
        assert scenario_digest(a) != scenario_digest(b)


class TestRunners:
    def test_exsearch_settles_on_the_cheapest_feasible_allocation(self):
        records = run(scenario_from_dict(base_dict()))
        assert len(records) == 4
        for r in records:
            assert {sid: a.svrb for sid, a in r.actions.items()} == {"a": 3, "b": 3}
            assert r.total_cost == pytest.approx(6.0)
            assert all(v >= 1.0 for v in r.norm_perf.values())

    def test_leave_event_removes_the_slice_from_records(self):
        scn = scenario_from_dict(
            base_dict(events=[{"slot": 2, "kind": "slice_leave", "slice_id": "b"}])
        )
        records = run(scn)
        assert set(records[1].actions) == {"a", "b"}
        assert set(records[2].actions) == {"a"}
        assert set(records[3].actions) == {"a"}

    def test_sla_change_moves_the_allocation(self):
        scn = scenario_from_dict(
            base_dict(
                env={"capacity_h": 12, "per_vrb_rate": 3.2, "noise_std": 0.0},
                events=[
                    {
                        "slot": 2,
                        "kind": "sla_change",
                        "slice_id": "a",
                        "q_throughput": 14.0,
                        "q_fps": 20.0,
                    }
                ],
            )
        )
        records = run(scn)
        assert records[1].actions["a"].svrb == 3
        assert records[2].actions["a"].svrb == 5
        assert records[2].actions["b"].svrb == 3

    @pytest.mark.parametrize(
        "name,sweeps,picks",
        [("sla_change.yaml", 1, 2), ("dynamics_leave_rejoin.yaml", 2, 2)],
    )
    def test_exsearch_sweeps_once_per_population_and_picks_once_per_sla_epoch(
        self, monkeypatch, name, sweeps, picks
    ):
        # Both files change something at slots 10 and 20 and restore at slot
        # 20 what held in slots 0-9: sla_change slice1's SLA, leave_rejoin
        # the population. A restored epoch reuses its pick.
        calls = Counter()

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls[fn.__name__] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(harness, "sweep_dataset", counted(harness.sweep_dataset))
        monkeypatch.setattr(harness, "exsearch_best", counted(harness.exsearch_best))
        root = Path(__file__).resolve().parents[1] / "scenarios"
        records = run(replace(load_scenario(root / name), algorithm="exsearch"))
        assert len(records) == 30
        assert calls == {"sweep_dataset": sweeps, "exsearch_best": picks}

    @pytest.mark.parametrize("algorithm", ["gbo", "atlas", "exsearch"])
    def test_baselines_trace_the_same_in_either_isolation_mode(
        self, algorithm, monkeypatch, tmp_path
    ):
        # The baselines play weight 0, so soft mode never shares the pool.
        def refuse(*args):
            raise AssertionError("a baseline reached share_pool")

        monkeypatch.setattr(netenv, "share_pool", refuse)
        default = Path(__file__).resolve().parents[1] / "scenarios" / "default.yaml"
        base = replace(load_scenario(default), algorithm=algorithm, slots=8)
        ids = [s.slice_id for s in base.slices]
        for mode in ("soft", "hard"):
            cell = replace(base, env=replace(base.env, isolation_mode=mode))
            write_trace_csv(run(cell), ids, tmp_path / f"{mode}.csv")
        assert (tmp_path / "soft.csv").read_bytes() == (tmp_path / "hard.csv").read_bytes()

    def test_adaslicing_runs_are_reproducible(self):
        data = base_dict(
            algorithm="adaslicing",
            slots=5,
            env={"capacity_h": 6, "per_vrb_rate": 3.2, "noise_std": 0.03},
        )
        first = run(scenario_from_dict(data))
        second = run(scenario_from_dict(data))
        assert first == second

    def test_every_algorithm_emits_within_bounds(self):
        for algorithm in ("adaslicing", "gbo", "atlas", "exsearch"):
            scn = scenario_from_dict(base_dict(algorithm=algorithm, slots=3))
            for r in run(scn):
                total = sum(a.svrb for a in r.actions.values())
                assert 0 <= total <= scn.env.capacity_h
                assert all(0.0 <= a.sw <= 1.0 for a in r.actions.values())


class TestMatrix:
    def test_cell_failure_becomes_an_error_row(self):
        data = base_dict()
        data["slices"][0]["q_throughput"] = 1000.0
        rows = run_matrix([scenario_from_dict(data)], ["exsearch"])
        assert len(rows) == 1
        assert rows[0].status == "error"
        assert "NoFeasibleActionError" in rows[0].error
        assert rows[0].converged_cost is None

    def test_ok_row_carries_summaries(self):
        rows = run_matrix([scenario_from_dict(base_dict())], ["exsearch"])
        row = rows[0]
        assert row.status == "ok"
        assert row.algorithm == "exsearch"
        assert row.converged_cost == pytest.approx(6.0)
        assert row.final_cost == pytest.approx(6.0)
        assert row.slots_to_convergence == 0
        assert row.seed == 3


class TestSummaries:
    def test_convergence_slot_finds_the_plateau(self):
        costs = [100.0, 50.0, 20.0, 12.0, 12.0, 12.0, 12.0]
        assert convergence_slot(costs) == 3

    def test_no_plateau_returns_none(self):
        assert convergence_slot([10.0, 8.0, 6.0, 4.0, 2.0, 1.0]) is None

    def test_converged_value_uses_the_tail(self):
        costs = [100.0, 50.0, 12.0, 12.0, 12.0, 12.0]
        norms = [0.2, 0.5, 1.0, 1.1, 1.0, 1.2]
        assert converged_value(norms, costs) == pytest.approx(1.05)

    def test_converged_value_falls_back_to_last_five(self):
        costs = [32.0, 16.0, 8.0, 4.0, 2.0, 1.0]
        assert converged_value(costs) == pytest.approx(4.0)


class TestFileOutputs:
    def test_trace_column_order(self):
        assert trace_columns(["a"]) == [
            "slot",
            "admm_iterations",
            "primal_residual",
            "total_cost",
            "mean_norm_perf",
            "a_svrb",
            "a_sw",
            "a_throughput",
            "a_fps",
            "a_cost",
            "a_norm_perf",
        ]

    def test_trace_roundtrips_and_blanks_departed_slices(self, tmp_path):
        scn = scenario_from_dict(
            base_dict(events=[{"slot": 2, "kind": "slice_leave", "slice_id": "b"}])
        )
        records = run(scn)
        path = tmp_path / "trace.csv"
        write_trace_csv(records, ["a", "b"], path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert float(rows[0]["total_cost"]) == records[0].total_cost
        assert float(rows[1]["b_throughput"]) == records[1].perfs["b"].throughput
        assert rows[2]["b_svrb"] == ""
        assert rows[2]["b_throughput"] == ""

    def test_manifest_contents(self, tmp_path):
        scn = scenario_from_dict(base_dict())
        path = tmp_path / "manifest.json"
        write_manifest(scn, path)
        manifest = json.loads(path.read_text())
        assert manifest["name"] == "tiny"
        assert manifest["algorithm"] == "exsearch"
        assert manifest["scenario_sha256"] == scenario_digest(scn)
        assert manifest["trace_columns"] == trace_columns(["a", "b"])
        assert manifest["python_version"] == platform.python_version()
        assert manifest["numpy_version"] == np.__version__
        assert manifest["scipy_version"] == scipy.__version__
        assert manifest["openblas_threads"] == blas.threads()


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text(yaml.safe_dump(base_dict()))
    return path


class TestCli:
    def test_cli_pins_openblas_to_one_thread_when_unset(self, scenario_file, tmp_path):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / "out"
        subprocess.run(
            [sys.executable, "-m", "sliceorch.cli", "run", str(scenario_file),
             "--out", str(out), "--slots", "1"],
            env=env, check=True, capture_output=True,
        )
        threads = json.loads((out / "manifest.json").read_text())["openblas_threads"]
        if not threads:
            pytest.skip("numpy and scipy bundle no OpenBLAS here")
        assert set(threads.values()) == {1}

    def test_cli_leaves_a_set_thread_count_alone(self, scenario_file, monkeypatch):
        pinned = []
        monkeypatch.setattr(blas, "set_threads", pinned.append)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        assert main(["validate", str(scenario_file)]) == 0
        assert pinned == []
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        assert main(["validate", str(scenario_file)]) == 0
        assert pinned == [1]

    def test_validate_ok(self, scenario_file, capsys):
        assert main(["validate", str(scenario_file)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_missing_file_exits_2_with_parsable_error(self, tmp_path, capsys):
        code = main(["validate", str(tmp_path / "nope.yaml")])
        assert code == 2
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert err_lines[-1].startswith("ERROR ScenarioError:")

    def test_run_writes_trace_and_manifest(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", str(scenario_file), "--out", str(out)]) == 0
        assert (out / "trace.csv").exists()
        assert (out / "manifest.json").exists()
        assert "final_cost" in capsys.readouterr().out

    def test_run_overrides_reach_the_outputs(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["run", str(scenario_file), "--out", str(out), "--slots", "2", "--seed", "9"]
        )
        assert code == 0
        with open(out / "trace.csv", newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 9
        assert manifest["slots"] == 2

    def test_run_rejects_bad_slot_override(self, scenario_file, tmp_path, capsys):
        code = main(["run", str(scenario_file), "--out", str(tmp_path), "--slots", "0"])
        assert code == 2
        assert "ERROR ScenarioError" in capsys.readouterr().err

    def test_matrix_writes_summary(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["matrix", str(scenario_file), "--out", str(out), "--algo", "exsearch"]
        )
        assert code == 0
        with open(out / "matrix.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["status"] == "ok"

    def test_matrix_crosses_seeds_with_every_algorithm(self, tmp_path):
        path = tmp_path / "tiny.yaml"
        path.write_text(yaml.safe_dump(base_dict(slots=2)))
        out = tmp_path / "matrix"
        assert main(["matrix", str(path), "--out", str(out), "--seed", "1", "2"]) == 0
        with open(out / "matrix.csv", newline="") as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames[:4] == ["scenario", "algorithm", "seed", "n_slices"]
            rows = list(reader)
        cells = [(algo, seed) for seed in ("1", "2") for algo in ALGORITHMS]
        assert [(r["algorithm"], r["seed"]) for r in rows] == cells
        assert all(r["status"] == "ok" for r in rows)
        for algo, seed in cells:
            single = tmp_path / f"run-{algo}-{seed}"
            argv = ["run", str(path), "--out", str(single), "--algo", algo, "--seed", seed]
            assert main(argv) == 0
            trace = out / "traces" / f"tiny-{algo}-seed{seed}.csv"
            assert trace.read_bytes() == (single / "trace.csv").read_bytes()

    @pytest.mark.parametrize("twice", [["file", "file"], ["file", "--seed", "1", "1"]])
    def test_matrix_refuses_a_shared_trace_path(self, twice, scenario_file, tmp_path, capsys):
        out = tmp_path / "out"
        argv = [str(scenario_file) if a == "file" else a for a in twice]
        assert main(["matrix", *argv, "--out", str(out), "--algo", "exsearch"]) == 2
        last = capsys.readouterr().err.strip().splitlines()[-1]
        assert last.startswith("ERROR ScenarioError: tiny-exsearch-seed")
        assert not out.exists()

    def test_readme_commands_parse(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        prefix = "python3 -m sliceorch.cli "
        commands = [
            line.strip() for line in readme.read_text().splitlines()
            if line.strip().startswith(prefix)
        ]
        assert len(commands) >= 5
        for command in commands:
            _build_parser().parse_args(shlex.split(command[len(prefix):]))

    def test_readme_tables_every_algo_param_with_its_varier(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("\n| `AlgoParams` field |")[1].split("\n\n")[0]
        rows = [line.split(" | ") for line in table.splitlines()[2:]]
        assert [row[0] for row in rows] == [f"| `{f.name}`" for f in fields(AlgoParams)]
        assert all(len(row) == 4 and row[3].strip(" |") for row in rows)

    def test_oracle_writes_the_sweep(self, scenario_file, tmp_path):
        out = tmp_path / "oracle.csv"
        assert main(["oracle", str(scenario_file), "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "a_svrb", "b_svrb", "a_throughput", "b_throughput", "a_fps", "b_fps",
        ]
        assert len(rows) - 1 == 15  # joint grid of 2 slices under capacity 6


def test_integer_and_float_literals_write_the_same_files(tmp_path):
    """`per_vrb_rate: 3` and `3.0`, `frame_rate: 30` and `30.0`: the same trace and oracle bytes."""
    raw = yaml.safe_load(
        (Path(__file__).resolve().parents[1] / "scenarios" / "default.yaml").read_text()
    )
    written = []
    for rate, frames in ((3, 30), (3.0, 30.0)):
        data = copy.deepcopy(raw)
        data["env"]["per_vrb_rate"] = rate
        data["slices"][0]["profile"]["frame_rate"] = frames
        out = tmp_path / type(rate).__name__
        out.mkdir()
        path = out / "scenario.yaml"
        path.write_text(yaml.safe_dump(data))
        argv = ["run", str(path), "--algo", "exsearch", "--slots", "2", "--out", str(out / "run")]
        assert main(argv) == 0
        assert main(["oracle", str(path), "--out", str(out / "oracle.csv")]) == 0
        written.append([(out / name).read_bytes() for name in ("run/trace.csv", "oracle.csv")])
    assert b"12.0" in written[1][0]
    assert written[0] == written[1]


DEFERRED = ("scipy.linalg", "scipy.optimize", "scipy.special")  # loaded on the first GP fit


def fresh_process(code, *args):
    """The last stdout line, read as JSON, of `code` run with `args` in a fresh interpreter.

    sliceorch's source is on its path, and OPENBLAS_NUM_THREADS is unset.
    """
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        env=env, check=True, capture_output=True, text=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


class TestDeferredScipy:
    """Only a GP fit loads scipy.linalg, scipy.optimize and scipy.special."""

    LOADED = (
        "import json, sys\n"
        "from sliceorch import cli\n"
        "if sys.argv[1:]:\n"
        "    assert cli.main(sys.argv[1:]) == 0\n"
        f"print(json.dumps([m for m in {DEFERRED!r} if m in sys.modules]))\n"
    )

    @pytest.mark.parametrize(
        "argv",
        [[], ["validate", "{f}"], ["oracle", "{f}", "--out", "{o}/oracle.csv"],
         ["run", "{f}", "--out", "{o}", "--algo", "exsearch"]],
        ids=["import", "validate", "oracle", "exsearch"],
    )
    def test_commands_without_a_gp_load_none(self, argv, scenario_file, tmp_path):
        argv = [a.format(f=scenario_file, o=tmp_path) for a in argv]
        assert fresh_process(self.LOADED, *argv) == []

    @pytest.mark.parametrize("algorithm", ["adaslicing", "gbo"])
    def test_one_slot_of_a_bayesian_optimizer_loads_all(self, algorithm, scenario_file, tmp_path):
        argv = ["run", scenario_file, "--out", tmp_path, "--algo", algorithm, "--slots", "1"]
        assert fresh_process(self.LOADED, *argv) == list(DEFERRED)

    @pytest.mark.parametrize(
        "call", ["fit(x, y, KernelParams((1.0,)), 1e-3)", "TrainingSet.build(x, y)"]
    )
    def test_the_first_fit_loads_all(self, call):
        code = (
            "import json, sys\n"
            "from sliceorch.gp import KernelParams, TrainingSet, fit\n"
            f"assert not [m for m in {DEFERRED!r} if m in sys.modules]\n"
            "x, y = [[0.0], [1.0]], [1.0, 2.0]\n"
            f"{call}\n"
            f"print(json.dumps([m for m in {DEFERRED!r} if m in sys.modules]))\n"
        )
        assert fresh_process(code) == list(DEFERRED)

    def test_the_cli_pins_scipys_openblas_when_scipy_loads_late(self, scenario_file, tmp_path):
        """blas.set_threads opens scipy's OpenBLAS before scipy.linalg does; both share it."""
        code = (
            "import json, os, sys\n"
            "from sliceorch import blas, cli\n"
            "assert 'scipy.linalg' not in sys.modules\n"
            "assert cli.main(sys.argv[1:]) == 0\n"
            "assert 'scipy.linalg' in sys.modules\n"
            "copies = None\n"
            "if os.path.exists('/proc/self/maps'):\n"
            "    copies = {}\n"  # a loaded copy maps the file's offset 0 once
            "    for line in open('/proc/self/maps'):\n"
            "        cols = line.split()\n"
            "        if len(cols) == 6 and 'openblas' in os.path.basename(cols[5]) and int(cols[2], 16) == 0:\n"
            "            copies[cols[5]] = copies.get(cols[5], 0) + 1\n"
            "print(json.dumps({'threads': blas.threads(), 'copies': copies}))\n"
        )
        out = tmp_path / "out"
        after = fresh_process(
            code, "run", scenario_file, "--out", out, "--algo", "adaslicing", "--slots", "1"
        )
        manifest = json.loads((out / "manifest.json").read_text())["openblas_threads"]
        if not manifest:
            pytest.skip("numpy and scipy bundle no OpenBLAS here")
        assert manifest == {"numpy": 1, "scipy": 1}
        assert after["threads"] == {"numpy": 1, "scipy": 1}
        if after["copies"] is not None:
            assert sorted(after["copies"].values()) == [1, 1]


class TestFailureContract:
    """Bad inputs exit 2 with `ERROR ScenarioError: ...`, from validate and from run."""

    def write(self, tmp_path, data):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(data))
        return str(path)

    def rejects(self, argv, field, capsys, kind="ScenarioError"):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        last = err.strip().splitlines()[-1]
        assert last.startswith(f"ERROR {kind}: {field}")
        return last

    def rejects_file(self, path, field, tmp_path, capsys):
        self.rejects(["validate", path], field, capsys)
        self.rejects(["run", path, "--out", str(tmp_path / "out")], field, capsys)

    @pytest.mark.parametrize(
        "content",
        [b"slots: [1,\n", b"\xff\xfeslots: 1\n", b"? [1, 2]\n: 3\n"],
        ids=["malformed-yaml", "not-utf8", "unhashable-key"],
    )
    def test_unreadable_file_names_it(self, content, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_bytes(content)
        self.rejects_file(str(path), f"{path}: cannot be read as UTF-8 YAML: ", tmp_path, capsys)

    @pytest.mark.parametrize(
        "text,mapping,key,line",
        [
            ("seed: 1\nslots: 2\nseed: 99\n", "line 1, column 1", "seed", 3),
            (
                "name: x\nenv:\n  capacity_h: 6\n  noise_std: 0.0\n  capacity_h: 8\n",
                "line 3, column 3",
                "capacity_h",
                5,
            ),
        ],
        ids=["top-level", "nested"],
    )
    def test_repeated_key_names_it(self, text, mapping, key, line, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        expected = (
            f'{path}: cannot be read as UTF-8 YAML: while constructing a mapping in "{path}",'
            f' {mapping} found repeated key {key!r} in "{path}", line {line},'
        )
        self.rejects_file(str(path), expected, tmp_path, capsys)

    @pytest.mark.parametrize(
        "path,value,message",
        [
            ("slices[0].slice_id", [1, 2], "must be a string, got list"),
            ("slices[0].slice_id", None, "must be a string, got NoneType"),
            ("slices[0].slice_id", True, "must be a string, got bool"),
            ("events[0].slice_id", 1.5, "must be a string, got float"),
            ("algorithm", False, "must be a string, got bool"),
            ("name", {"a": 1}, "must be a string, got dict"),
            ("name", "../escaped", "must be a non-empty single path component, got '../escaped'"),
            ("name", "a/b", "must be a non-empty single path component, got 'a/b'"),
            ("name", "..", "must be a non-empty single path component, got '..'"),
            ("name", "", "must be a non-empty single path component, got ''"),
            ("name", "a\0b", "must be a non-empty single path component, got 'a\\x00b'"),
        ],
    )
    def test_bad_identifier(self, path, value, message, tmp_path, capsys):
        data = full_dict()
        container, key = locate(data, path)
        container[key] = value
        self.rejects_file(self.write(tmp_path, data), f"{path}: {message}", tmp_path, capsys)

    def test_negative_seed(self, scenario_file, tmp_path, capsys):
        argv = ["run", str(scenario_file), "--out", str(tmp_path / "out"), "--seed", "-1"]
        self.rejects(argv, "seed", capsys)
        self.rejects_file(self.write(tmp_path, base_dict(seed=-1)), "seed", tmp_path, capsys)

    def test_nan_rate(self, tmp_path, capsys):
        data = base_dict(env={"capacity_h": 6, "per_vrb_rate": float("nan"), "noise_std": 0.0})
        self.rejects_file(self.write(tmp_path, data), "env", tmp_path, capsys)

    def test_capacity_below_the_slice_minimum(self, tmp_path, capsys):
        data = base_dict(env={"capacity_h": 2, "per_vrb_rate": 3.2, "noise_std": 0.0})
        data["slices"].append(dict(data["slices"][0], slice_id="c"))
        self.rejects_file(self.write(tmp_path, data), "env.capacity_h", tmp_path, capsys)

    def test_integer_too_large_for_a_float(self, tmp_path, capsys):
        data = base_dict(env={"capacity_h": 6, "per_vrb_rate": 10**400, "noise_std": 0.0})
        self.rejects_file(self.write(tmp_path, data), "env.per_vrb_rate", tmp_path, capsys)

    def test_fractional_slots(self, tmp_path, capsys):
        self.rejects_file(self.write(tmp_path, base_dict(slots=2.5)), "slots", tmp_path, capsys)

    def test_quoted_active_flag(self, tmp_path, capsys):
        data = base_dict()
        data["slices"][1]["active"] = "false"  # a string, not YAML's false
        self.rejects_file(self.write(tmp_path, data), "slices[1]: active", tmp_path, capsys)

    def test_fractional_event_slot(self, tmp_path, capsys):
        data = full_dict()
        data["events"][0]["slot"] = 2.5
        self.rejects_file(self.write(tmp_path, data), "events[0]: slot", tmp_path, capsys)

    def test_thresholds_on_a_leave_event(self, tmp_path, capsys):
        data = full_dict()
        data["events"][0].update(q_throughput=99.0, q_fps=1.0)
        field = "events[0]: slice_leave events take no q_throughput or q_fps"
        self.rejects_file(self.write(tmp_path, data), field, tmp_path, capsys)

    @pytest.mark.parametrize(
        "change,field",
        [
            ({"q_throughput": -3.0, "q_fps": 10.0}, "q_throughput"),
            ({"q_throughput": "abc", "q_fps": 10.0}, "q_throughput"),
            ({"q_throughput": 12.0, "q_fps": float("inf")}, "q_fps"),
        ],
    )
    @pytest.mark.parametrize("slot", [2, 40])  # inside the run, and past the file's horizon
    def test_bad_sla_change_threshold(self, change, field, slot, tmp_path, capsys):
        event = {"slot": slot, "kind": "sla_change", "slice_id": "a", **change}
        bad = self.write(tmp_path, base_dict(events=[event]))
        expected = f"events[0]: {field} must be finite and > 0"
        self.rejects(["validate", bad], expected, capsys)
        argv = ["run", bad, "--out", str(tmp_path / "out"), "--slots", "50"]
        self.rejects(argv, expected, capsys)

    @pytest.mark.parametrize(
        "path,key",
        [
            ("slices[0]", "q_throughput"),
            ("slices[1].profile", "frame_size"),
            ("env", "per_vrb_rate"),
            ("cost", "u_s"),
        ],
    )
    def test_quoted_number_names_its_field(self, path, key, tmp_path, capsys):
        data = full_dict()
        dict(mappings(data))[path][key] = "12"
        bad = self.write(tmp_path, data)
        for argv in (["validate", bad], ["run", bad, "--out", str(tmp_path / "out")]):
            last = self.rejects(argv, f"{path}: {key} must be finite and ", capsys)
            assert last.endswith("got '12'")

    @pytest.mark.parametrize(
        "name,value",
        [
            ("buffer_capacity", 0),
            ("subsample", 0),
            ("hyperopt_every", 0),
            ("hedge_eta", 0),
            ("rho", -1.0),
            ("max_iters", 0),
            ("n_init", 0),
            ("barrier_coef", -1.0),
            ("min_alive", 0),
            ("grid_cap", 0),
        ],
    )
    def test_degenerate_algo_param(self, name, value, tmp_path, capsys):
        data = base_dict(algorithm="adaslicing", algo_params={name: value})
        self.rejects_file(self.write(tmp_path, data), f"algo_params: {name}", tmp_path, capsys)

    @pytest.mark.parametrize("settings", [{"grid_cap": 100}], ids=["small-cap"])
    def test_adaslicing_grid_over_the_cap(self, settings, tmp_path, capsys):
        # default's grid is 12 svRBs x 11 weights: 132 rows
        bad = self.write(tmp_path, copy.deepcopy(RAW["default.yaml"]) | {"algo_params": settings})
        for argv in (["validate", bad], ["run", bad, "--out", str(tmp_path / "out"), "--slots", "1"]):
            self.rejects(argv, "candidate grid has ", capsys, kind="GridCapExceededError")

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("grid_cap,slots", [(5, 4), (10, 4), (10, 2), (65, 4), (66, 4)])
    def test_validate_refuses_what_run_refuses_by_grid_cap(
        self, algorithm, grid_cap, slots, tmp_path, capsys
    ):
        # One slice, and two from slot 2: joint grids of 6 rows, then 15; 6 rows
        # for each atlas optimizer; adaslicing's 6 svRBs x 11 weights = 66.
        data = base_dict(
            algorithm=algorithm, slots=slots, algo_params={"grid_cap": grid_cap},
            events=[{"slot": 2, "kind": "slice_join", "slice_id": "b"}],
        )
        data["slices"][1]["active"] = False
        sizes = {"adaslicing": [66], "atlas": [6]}.get(algorithm, [6, 15][: 1 + (slots > 2)])
        path = self.write(tmp_path, data)
        expected = 2 if max(sizes) > grid_cap else 0
        assert main(["run", path, "--out", str(tmp_path / "out")]) == expected
        run_err = capsys.readouterr().err.splitlines()
        assert main(["validate", path]) == expected
        validate_err = capsys.readouterr().err.splitlines()
        if expected:
            assert run_err[-1].startswith("ERROR GridCapExceededError: ")
            assert validate_err[-1] == run_err[-1]

    @pytest.mark.parametrize(
        "path,key,value",
        [("env", "per_vrb_rate", 1e-320), ("slices[0].profile", "frame_size", 1e308)],
    )
    def test_offered_load_that_overflows(self, path, key, value, tmp_path, capsys):
        data = copy.deepcopy(RAW["default.yaml"])
        dict(mappings(data))[path][key] = value
        expected = "slices[0].profile: offered load over env.per_vrb_rate "
        self.rejects_file(self.write(tmp_path, data), expected, tmp_path, capsys)

    @pytest.mark.parametrize("algorithm", ["adaslicing", "gbo", "atlas"])
    @pytest.mark.parametrize(
        "path,key", [("slices[0]", "q_throughput"), ("cost", "u_h"), ("algo_params", "barrier_coef")]
    )
    def test_prices_that_overflow_the_surrogate(self, path, key, algorithm, tmp_path, capsys):
        data = copy.deepcopy(RAW["default.yaml"])
        data.setdefault("algo_params", {})
        dict(mappings(data))[path][key] = 1e308  # valid: the GP's targets or weights overflow
        bad = self.write(tmp_path, data)
        argv = ["run", bad, "--out", str(tmp_path / "out"), "--algo", algorithm, "--slots", "3"]
        self.rejects(argv, "", capsys, kind="GpFitError")

    @pytest.mark.parametrize("algorithm", ["adaslicing", "gbo", "atlas"])
    def test_huge_hedge_eta_runs(self, algorithm, tmp_path):
        # any warning would fail this test
        data = copy.deepcopy(RAW["default.yaml"])
        data.setdefault("algo_params", {})["hedge_eta"] = 1e308
        argv = ["run", self.write(tmp_path, data), "--out", str(tmp_path / "out"), "--algo", algorithm]
        assert main(argv + ["--slots", "4"]) == 0

    @pytest.mark.parametrize("algorithm", ["adaslicing", "gbo"])
    def test_jittered_load_that_overflows(self, algorithm, tmp_path, capsys):
        data = copy.deepcopy(RAW["default.yaml"])
        data["slices"][0]["profile"]["burstiness"] = 1e308  # valid: the draw overflows
        bad = self.write(tmp_path, data)
        argv = ["run", bad, "--out", str(tmp_path / "out"), "--algo", algorithm, "--slots", "2"]
        self.rejects(argv, "offered load of TrafficProfile(", capsys)

    @pytest.mark.parametrize(
        "name,value",
        [
            ("probes_per_slot", 15),
            ("violation_penalty", 7.0),
            # now module constants, set here to their old defaults
            ("primal_tol", 0.5),
            ("dual_init", -5.0),
            ("noise_var", 1e-4),
            ("kappa", 1.96),
            ("sw_step", 0.1),
            ("priority_decay", 0.95),  # the replay priorities it decayed are gone
        ],
    )
    def test_removed_algo_param(self, name, value, tmp_path, capsys):
        data = base_dict(algorithm="gbo", algo_params={name: value})
        bad = self.write(tmp_path, data)
        self.rejects_file(bad, f"algo_params.{name}: unknown field", tmp_path, capsys)

    def test_oracle_of_a_file_with_no_slice_at_slot_0(self, tmp_path, capsys):
        # every slice joins later, so the sweep of the initial slices would be empty
        data = copy.deepcopy(RAW["default.yaml"])
        for spec in data["slices"]:
            spec["active"] = False
        data["events"] = [{"slot": 2, "kind": "slice_join", "slice_id": "slice1"}]
        path = self.write(tmp_path, data)
        out = tmp_path / "oracle.csv"
        self.rejects(["oracle", path, "--out", str(out)], "slices: no slice is active at slot 0", capsys)
        assert not out.exists()
        assert main(["run", path, "--out", str(tmp_path / "run"), "--slots", "3"]) == 0

    @pytest.mark.parametrize(
        "literal", ["1" * 5000, "2024-13-45"], ids=["int-of-5000-digits", "impossible-date"]
    )
    def test_literal_that_cannot_be_built_names_the_file(self, literal, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        text = yaml.safe_dump(base_dict())
        assert "\nseed: 3\n" in text
        path.write_text(text.replace("\nseed: 3\n", f"\nseed: {literal}\n"))
        self.rejects_file(str(path), f"{path}: cannot be read as UTF-8 YAML: ", tmp_path, capsys)

    SECTIONS = ["env", "cost", "slices[1]", "slices[1].profile", "events[0]", "algo_params"]

    @pytest.mark.parametrize("path", ["scenario", *SECTIONS])
    def test_unknown_key(self, path, tmp_path, capsys):
        data = full_dict()
        dict(mappings(data))[path]["noise_sd"] = 0.0
        bad = self.write(tmp_path, data)
        self.rejects_file(bad, f"{path}.noise_sd: unknown field", tmp_path, capsys)

    @pytest.mark.parametrize("path", ["scenario", *SECTIONS])
    def test_section_that_is_not_a_mapping(self, path, tmp_path, capsys):
        data = full_dict()
        if path == "scenario":
            data = 5
        else:
            container, key = locate(data, path)
            container[key] = 5
        bad = self.write(tmp_path, data)
        self.rejects_file(bad, f"{path}: expected a mapping, got int", tmp_path, capsys)

    @pytest.mark.parametrize("path", ["slices", "events"])
    def test_list_that_is_not_a_list(self, path, tmp_path, capsys):
        bad = self.write(tmp_path, full_dict() | {path: 5})
        self.rejects_file(bad, f"{path}: expected a list, got int", tmp_path, capsys)

    def test_fractional_capacity(self, tmp_path, capsys):
        data = base_dict(
            algorithm="adaslicing", env={"capacity_h": 12.5, "per_vrb_rate": 3.2, "noise_std": 0.0}
        )
        self.rejects_file(self.write(tmp_path, data), "env: capacity_h", tmp_path, capsys)


def numeric_fields(raw):
    """(path, key) of every number in a scenario file, and of every algo_params field."""
    found = [
        (path, key)
        for path, mapping in mappings(raw)
        for key, value in mapping.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    ]
    return found + [("algo_params", f.name) for f in fields(AlgoParams)]


# The fields that accept 0; none accepts a negative number.
ZERO_OK = {"seed", "slot", "noise_std", "u_h", "u_s", "burstiness", "barrier_coef"}


def out_of_range(key):
    values = [
        st.sampled_from([math.nan, math.inf, -math.inf, True, False]),
        st.integers(min_value=-10**9, max_value=-1),
        st.floats(max_value=-1e-300, allow_nan=False),
    ]
    if key not in ZERO_OK:
        values.append(st.sampled_from([0, 0.0]))
    return st.one_of(values)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_an_out_of_range_number_exits_2_naming_its_field(data):
    raw = copy.deepcopy(RAW[data.draw(st.sampled_from(sorted(RAW)))])
    path, key = data.draw(st.sampled_from(numeric_fields(raw)))
    value = data.draw(out_of_range(key))
    if path == "algo_params":
        raw["algo_params"] = dict(raw.get("algo_params") or {}, **{key: value})
    else:
        dict(mappings(raw))[path][key] = value
    section = key if path == "scenario" else path
    with tempfile.TemporaryDirectory() as tmp:
        bad = Path(tmp) / "bad.yaml"
        bad.write_text(yaml.safe_dump(raw))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["validate", str(bad)])
    last = (err.getvalue().splitlines() or [""])[-1]
    assert code == 2, f"{path}.{key} = {value!r} was accepted"
    assert last.startswith(f"ERROR ScenarioError: {section}"), last
    assert re.search(rf"\b{key}\b", last), last


SMALL = st.one_of(st.just(0.0), st.floats(0.0, 0.1))  # noise and burstiness


@st.composite
def small_scenarios(draw):
    """A valid scenario file: 1-3 slices, at most 12 vRBs, little noise, at most one event."""
    ids = ["a", "b", "c"][: draw(st.integers(1, 3))]
    slices = [
        {
            "slice_id": sid,
            "q_throughput": draw(st.floats(1.0, 20.0)),
            "q_fps": draw(st.floats(1.0, 40.0)),
            "profile": {
                "frame_rate": draw(st.floats(5.0, 40.0)),
                "frame_size": draw(st.floats(0.1, 1.0)),
                "burstiness": draw(SMALL),
            },
            "active": draw(st.booleans()),
        }
        for sid in ids
    ]

    def event_of(kind):
        event = {"slot": st.integers(0, 3), "kind": st.just(kind), "slice_id": st.sampled_from(ids)}
        if kind == "sla_change":  # joins and leaves take no thresholds
            event.update(q_throughput=st.floats(1.0, 20.0), q_fps=st.floats(1.0, 40.0))
        return st.fixed_dictionaries(event)

    event = st.sampled_from(["slice_join", "slice_leave", "sla_change"]).flatmap(event_of)
    env = {
        "capacity_h": draw(st.integers(len(ids), 12)),
        "per_vrb_rate": draw(st.floats(1.0, 4.0)),
        "noise_std": draw(SMALL),
        "isolation_mode": draw(st.sampled_from(["soft", "hard"])),
    }
    return base_dict(
        seed=draw(st.integers(0, 2**16)), slots=3, env=env, slices=slices,
        events=draw(st.lists(event, max_size=1)), algo_params={"max_iters": 2},
    )


def active_per_slot(scenario):
    """Each slot's active slices, with the events applied as `run` applies them."""
    specs = list(scenario.slices)
    for slot in range(scenario.slots):
        specs = netenv.apply_events(slot, scenario.events, specs)
        yield [s for s in specs if s.active]


def fewest_svrbs(spec, scenario):
    """Fewest svRBs at weight 0 meeting the slice's SLA on the noise-free RAN, or None."""
    env, profile = scenario.env, replace(spec.app_profile, burstiness=0.0)
    demand = netenv.demand_vrbs(profile, env, None)  # burstiness 0 draws nothing
    for svrb in range(scenario.algo.min_alive, env.capacity_h + 1):
        throughput = min(demand, svrb) * env.per_vrb_rate
        fps = min(profile.frame_rate, throughput / profile.frame_size)
        if throughput >= spec.q_throughput and fps >= spec.q_fps:
            return svrb
    return None


def some_slot_is_infeasible(scenario):
    """Whether no joint weight-0 action meets every SLA in some slot with a slice active."""
    for active in active_per_slot(scenario):
        need = [fewest_svrbs(s, scenario) for s in active]
        if None in need or sum(need) > scenario.env.capacity_h:
            return True
    return False


@settings(max_examples=100, deadline=None)
@given(small_scenarios())
def test_every_algorithm_commits_an_allocation_within_bounds(raw):
    scenario = scenario_from_dict(raw)
    capacity, min_alive = scenario.env.capacity_h, scenario.algo.min_alive
    for algorithm in ALGORITHMS:
        cell = replace(scenario, algorithm=algorithm)
        try:
            records = run(cell)
        except NoFeasibleActionError:
            assert algorithm == "exsearch" and some_slot_is_infeasible(cell)
            continue
        assert len(records) == cell.slots
        for record, active in zip(records, active_per_slot(cell)):
            actions = record.actions.values()
            assert set(record.actions) == {s.slice_id for s in active}
            assert sum(a.svrb for a in actions) <= capacity
            assert all(a.svrb >= min_alive and 0.0 <= a.sw <= 1.0 for a in actions)
