"""Scenario i/o, experiment runners, summary metrics, and the CLI."""

import csv
import json
from pathlib import Path

import pytest
import yaml

from sliceorch.agent import PortfolioBo, SliceAgent
from sliceorch.baselines import GridPortfolioBo
from sliceorch.cli import main
from sliceorch.core import CostParams
from sliceorch.errors import ScenarioError
from sliceorch.harness import (
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


class TestScenarioParsing:
    def test_roundtrip(self):
        scn = scenario_from_dict(base_dict())
        assert scn.name == "tiny"
        assert scn.env.capacity_h == 6
        assert [s.slice_id for s in scn.slices] == ["a", "b"]
        assert scenario_from_dict(scenario_to_dict(scn)) == scn

    def test_missing_top_level_field_names_the_path(self):
        data = base_dict()
        del data["slots"]
        with pytest.raises(ScenarioError, match=r"scenario\.slots"):
            scenario_from_dict(data)

    def test_missing_env_field_names_the_path(self):
        with pytest.raises(ScenarioError, match=r"env\.capacity_h"):
            scenario_from_dict(base_dict(env={"noise_std": 0.0}))

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
        data = base_dict(algo_params={"probes_per_slot": 0})
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

    def test_load_scenario_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="not found"):
            load_scenario(tmp_path / "nope.yaml")

    def test_bundled_scenarios_parse(self):
        root = Path(__file__).resolve().parents[1] / "scenarios"
        for path in sorted(root.rglob("*.yaml")):
            scn = load_scenario(path)
            assert scn.slots > 0


class TestAlgoParams:
    def test_rejects_empty_probe_budget(self):
        with pytest.raises(ValueError, match="probes_per_slot"):
            AlgoParams(probes_per_slot=0)

    def test_penalty_defaults_to_ten_capacities_of_svrb(self):
        assert AlgoParams().penalty(CostParams(u_h=2.0), 12) == 240.0
        assert AlgoParams(violation_penalty=7.0).penalty(CostParams(u_h=2.0), 12) == 7.0

    @pytest.mark.parametrize(
        "algorithm, kind, count",
        [("adaslicing", SliceAgent, 2), ("gbo", GridPortfolioBo, 1), ("atlas", GridPortfolioBo, 2)],
    )
    def test_scenario_settings_reach_every_optimizer(self, algorithm, kind, count, monkeypatch):
        built = []
        original = PortfolioBo.__init__

        def recording(self, *args, **kwargs):
            original(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(PortfolioBo, "__init__", recording)
        settings = {
            "buffer_capacity": 7, "subsample": 4, "n_init": 2, "hedge_eta": 0.3, "kappa": 0.7,
        }
        run(scenario_from_dict(base_dict(algorithm=algorithm, slots=2, algo_params=settings)))
        assert len(built) == count
        for bo in built:
            assert type(bo) is kind
            assert bo.buffer.capacity == 7
            assert bo.subsample == 4
            assert bo.n_init == 2
            assert bo.hedge.eta == 0.3
            assert bo.kappa == 0.7


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


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text(yaml.safe_dump(base_dict()))
    return path


class TestCli:
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

    def test_oracle_writes_the_sweep(self, scenario_file, tmp_path):
        out = tmp_path / "oracle.csv"
        assert main(["oracle", str(scenario_file), "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "a_svrb", "b_svrb", "a_throughput", "b_throughput", "a_fps", "b_fps",
        ]
        assert len(rows) - 1 == 15  # joint grid of 2 slices under capacity 6


class TestFailureContract:
    """Bad inputs exit 2 with `ERROR ScenarioError: ...`, from validate and from run."""

    def write(self, tmp_path, data):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(data))
        return str(path)

    def rejects(self, argv, field, capsys):
        assert main(argv) == 2
        last = capsys.readouterr().err.strip().splitlines()[-1]
        assert last.startswith(f"ERROR ScenarioError: {field}")

    def rejects_file(self, path, field, tmp_path, capsys):
        self.rejects(["validate", path], field, capsys)
        self.rejects(["run", path, "--out", str(tmp_path / "out")], field, capsys)

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

    def test_fractional_slots(self, tmp_path, capsys):
        self.rejects_file(self.write(tmp_path, base_dict(slots=2.5)), "slots", tmp_path, capsys)

    @pytest.mark.parametrize(
        "name,value",
        [
            ("buffer_capacity", 0),
            ("subsample", 0),
            ("hyperopt_every", 0),
            ("hedge_eta", 0),
            ("sw_step", 0),
            ("rho", -1.0),
            ("primal_tol", -1.0),
            ("max_iters", 0),
            ("dual_init", float("nan")),
            ("priority_decay", 0.0),
            ("n_init", 0),
            ("noise_var", -1.0),
            ("kappa", -1.0),
            ("barrier_coef", -1.0),
            ("violation_penalty", -1.0),
            ("min_alive", 0),
            ("probes_per_slot", 0),
            ("grid_cap", 0),
        ],
    )
    def test_degenerate_algo_param(self, name, value, tmp_path, capsys):
        data = base_dict(algorithm="adaslicing", algo_params={name: value})
        self.rejects_file(self.write(tmp_path, data), f"algo_params: {name}", tmp_path, capsys)

    def test_fractional_capacity(self, tmp_path, capsys):
        data = base_dict(
            algorithm="adaslicing", env={"capacity_h": 12.5, "per_vrb_rate": 3.2, "noise_std": 0.0}
        )
        self.rejects_file(self.write(tmp_path, data), "env: capacity_h", tmp_path, capsys)
