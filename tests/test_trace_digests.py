"""Golden trace digests: the sha256 of `trace.csv` for every bundled scenario x algorithm,
and of the `oracle` CSV of two of them.

Performance work and refactors must leave every allocation, probe outcome and
cost bit-identical; this gate holds them to it. The horizon is short but
crosses several hyperparameter searches per optimizer, and at 11 slots the
adaslicing and exsearch cells reach the first scripted event (a departure or
an SLA change at slot 10). gbo on the 4- and 5-slice rungs runs 2 slots: each
slot is 15 probes, and a warm probe scores a 4,096-row sample of the joint
grid. The 4-slice grid has 4,845 rows, and its 2-slot trace is the one a
scan of every row writes.

A digest changes only when the program's behaviour does, or when numpy,
scipy or their BLAS produce different floating-point results. A change that
alters behaviour on purpose (a new optimizer path, say) re-records the table
and says so in its change log.
"""

import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

from sliceorch.cli import main
from sliceorch.harness import ALGORITHMS, load_scenario, run, scenario_from_dict, write_trace_csv

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
HORIZON = {"adaslicing": 11, "exsearch": 11, "atlas": 4, "gbo": 4}
JOINT_GRID_HORIZON = 2  # gbo on 4 or more slices

DIGESTS = {
    ("default.yaml", "adaslicing"): "b815e5656d55fba16da344771268352dd7f2aa01d1cb2d626c0ec7575873f390",
    ("default.yaml", "gbo"): "3f3e26aab6581f29370d7f08bb936521a21019d46867edbdc92559bf684579e8",
    ("default.yaml", "atlas"): "9e84b445e449020fac73a8b01b9ad321ae0401c81160a85ba2b8e0e1f6b7a725",
    ("default.yaml", "exsearch"): "a53773d3a0b4d62042b55c2164804a04dfd363cc9dc5949236fb78680bf98b24",
    ("dynamics_leave_rejoin.yaml", "adaslicing"): "cad45a91c3a99163906c7706f33d3736c7b40fa382ca12979b7a02620cc3ba04",
    ("dynamics_leave_rejoin.yaml", "gbo"): "3f3e26aab6581f29370d7f08bb936521a21019d46867edbdc92559bf684579e8",
    ("dynamics_leave_rejoin.yaml", "atlas"): "9e84b445e449020fac73a8b01b9ad321ae0401c81160a85ba2b8e0e1f6b7a725",
    ("dynamics_leave_rejoin.yaml", "exsearch"): "9e920872f4b50d79b81e40ccef0668271d69d217aa90fe2009b017b0c6caf0a5",
    ("noisy.yaml", "adaslicing"): "44569d0b4963e5d652315cefa2d01e87c9b7e0a70009e829dc7b08e54a8d0691",
    ("noisy.yaml", "gbo"): "09ade975380b24fc4f5a81fcc3114817c4e4d88599f8d4dfecda6521ffb0952e",
    ("noisy.yaml", "atlas"): "56259e6f873d27394dcd25840d09998e75038ec8363e15842672f160c52c333f",
    ("noisy.yaml", "exsearch"): "4ea4d58d4d7aa9a11bf4265891a9ba82751fbd376fd6d9710fc042e58cb5b94a",
    ("scale/slices_1.yaml", "adaslicing"): "5fa96c6fa6bcf19e79625cfc1e3d1a1f1074de4511886bcba23f0d4574b31637",
    ("scale/slices_1.yaml", "gbo"): "1f3fb3f7d51aebbf3f7a502e4c39c89038896b19b4f59281b4154f2b38612ce1",
    ("scale/slices_1.yaml", "atlas"): "1f3fb3f7d51aebbf3f7a502e4c39c89038896b19b4f59281b4154f2b38612ce1",
    ("scale/slices_1.yaml", "exsearch"): "a79fa60fc7099c8453814467f939091acdf69670ffde0e4f4876faf0c3323b48",
    ("scale/slices_2.yaml", "adaslicing"): "869170d9007e9299b25f633a1ee0e925ac21b83322ae2658abbe366111b18103",
    ("scale/slices_2.yaml", "gbo"): "dc69327a075a16bc211f4820fb7120019c0eb4d6238647095dd74848a0e874b9",
    ("scale/slices_2.yaml", "atlas"): "dc69327a075a16bc211f4820fb7120019c0eb4d6238647095dd74848a0e874b9",
    ("scale/slices_2.yaml", "exsearch"): "c15f56c2f6b728aa96f4d4a06ac76e32e7dcb3d0d9b9082272b25bed4af1079b",
    ("scale/slices_3.yaml", "adaslicing"): "b815e5656d55fba16da344771268352dd7f2aa01d1cb2d626c0ec7575873f390",
    ("scale/slices_3.yaml", "gbo"): "3f3e26aab6581f29370d7f08bb936521a21019d46867edbdc92559bf684579e8",
    ("scale/slices_3.yaml", "atlas"): "9e84b445e449020fac73a8b01b9ad321ae0401c81160a85ba2b8e0e1f6b7a725",
    ("scale/slices_3.yaml", "exsearch"): "a53773d3a0b4d62042b55c2164804a04dfd363cc9dc5949236fb78680bf98b24",
    ("scale/slices_4.yaml", "adaslicing"): "4262884853a47dd7dc1e33534154df0529bf445ab08ab9c99a9a7077f75fd4b1",
    ("scale/slices_4.yaml", "gbo"): "93d00711b3e536fbfd232fbd3de63d86cb16da318e1a3575754145f82b90b410",
    ("scale/slices_4.yaml", "atlas"): "36c7f1358f208787cd9c762c103663a650fceae936599a0e0aae2de8b37f701e",
    ("scale/slices_4.yaml", "exsearch"): "8b2b6eac941de5b55b7f2742dc067d9dfbfee94f01965151899e69d28a6271b5",
    ("scale/slices_5.yaml", "adaslicing"): "36a671d562e396a103784247842866f1c45277be87fd69507612992916af9c9d",
    ("scale/slices_5.yaml", "gbo"): "ffd5e52f4229b2a7f1f803b19134761be2b528bc575fc585800d4c26150fb7b1",
    ("scale/slices_5.yaml", "atlas"): "8d57018fbcfb3eb9ad47d6e8073f5688fc6100d85eb62b4df25055064f9f3170",
    ("scale/slices_5.yaml", "exsearch"): "e68de80b8dd2a7cfdc024f0a6204dabb7614459fdc6b0a8e3cbe5b721197597f",
    ("sla_change.yaml", "adaslicing"): "1e2c69ff85f7596bc7d03750b8f24db6377403246296f9d0afb680ac4a9b08cd",
    ("sla_change.yaml", "gbo"): "561ed1026967d96d7402e9adf98d346722a417b0d481c78ae60a0a2a0933282e",
    ("sla_change.yaml", "atlas"): "54acb7a253c5875791ba10021fe10db26dbefd4f1cb8107b33ee884627ef1bb0",
    ("sla_change.yaml", "exsearch"): "da01688c77c60dc067b92c7d6cdbd576af6e209ce8a079c1b4f537c7a3059472",
}


def horizon(algorithm: str, n_slices: int) -> int:
    if algorithm == "gbo" and n_slices >= 4:
        return JOINT_GRID_HORIZON
    return HORIZON[algorithm]


def test_every_bundled_cell_has_a_digest():
    bundled = {
        (p.relative_to(SCENARIO_DIR).as_posix(), algo)
        for p in SCENARIO_DIR.rglob("*.yaml")
        for algo in ALGORITHMS
    }
    assert bundled == set(DIGESTS)


@pytest.mark.parametrize("scenario,algorithm", sorted(DIGESTS))
def test_trace_digest(scenario, algorithm, tmp_path):
    base = load_scenario(SCENARIO_DIR / scenario)
    cell = replace(base, algorithm=algorithm, slots=horizon(algorithm, len(base.slices)))
    path = tmp_path / "trace.csv"
    write_trace_csv(run(cell), [s.slice_id for s in base.slices], path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DIGESTS[(scenario, algorithm)]


# The table above stops gbo and atlas by slot 4, before the scripted events
# at slot 10, so it holds the baselines to nothing after an event. These
# cells run them across the SLA change and the departure.
EVENT_HORIZON = 11
EVENT_DIGESTS = {
    ("dynamics_leave_rejoin.yaml", "atlas"): "9e920872f4b50d79b81e40ccef0668271d69d217aa90fe2009b017b0c6caf0a5",
    ("dynamics_leave_rejoin.yaml", "gbo"): "76dc2a6887b90685cd503d61d99068860885bcc573db3eb476db14b46bdb4b51",
    ("sla_change.yaml", "atlas"): "817318566ae3e5c92e4de62588ca4fcc73c88a73157e9874e4f9f9020e2e8e4e",
    ("sla_change.yaml", "gbo"): "d97968570e051c9f86a8d56b054a626c3911be0623c1cbac3441cee421d6cd3b",
}


@pytest.mark.parametrize("scenario,algorithm", sorted(EVENT_DIGESTS))
def test_baseline_digest_across_an_event(scenario, algorithm, tmp_path):
    base = load_scenario(SCENARIO_DIR / scenario)
    cell = replace(base, algorithm=algorithm, slots=EVENT_HORIZON)
    path = tmp_path / "trace.csv"
    write_trace_csv(run(cell), [s.slice_id for s in base.slices], path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == EVENT_DIGESTS[(scenario, algorithm)]


# gbo on the 5-slice rung for 6 slots, with the seed of the first `joint`
# benchmark cell of perfbench seed 2 (cell_seed(2, 0, 0)). 65 of its 90 GP
# fits have a length scale below 0.02, next to the search's 1e-2 bound, where
# kernel entries and posterior weights fall below sqrt(tiny) and are flushed
# to 0. It holds the flushed posterior to the bits over three times as many
# fits as the 2-slot gbo cell on this rung.
BOUND_CELL = ("scale/slices_5.yaml", "gbo", 6, 1214313641)
BOUND_CELL_DIGEST = "2c0b65ecf32ff5546e72968d3c08629f4ae37563ec1dbe6d18c96895bc4cf503"


def test_joint_grid_cell_at_the_length_scale_bound(tmp_path):
    scenario, algorithm, slots, seed = BOUND_CELL
    base = load_scenario(SCENARIO_DIR / scenario)
    cell = replace(base, algorithm=algorithm, slots=slots, seed=seed)
    path = tmp_path / "trace.csv"
    write_trace_csv(run(cell), [s.slice_id for s in base.slices], path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == BOUND_CELL_DIGEST


# Every slice leaves at slot 3 and two rejoin at slot 5, so slots 3 and 4 have
# no active slice. adaslicing must still drop the consensus variables of the
# departed slices on those slots: the rejoining pair restarts from the
# initial consensus state instead of resuming its old one.
EMPTY_POPULATION = {
    "name": "empty_population",
    "seed": 1,
    "slots": 8,
    "algorithm": "adaslicing",
    "env": {"capacity_h": 12, "per_vrb_rate": 3.2, "noise_std": 0.0},
    "slices": [
        {"slice_id": "slice1", "q_throughput": 12.0, "q_fps": 10.0,
         "profile": {"frame_rate": 30.0, "frame_size": 0.5}},
        {"slice_id": "slice2", "q_throughput": 12.0, "q_fps": 10.0,
         "profile": {"frame_rate": 24.0, "frame_size": 0.625}},
        {"slice_id": "slice3", "q_throughput": 12.0, "q_fps": 10.0,
         "profile": {"frame_rate": 32.0, "frame_size": 0.45}},
    ],
    "events": [
        {"slot": 3, "kind": "slice_leave", "slice_id": "slice1"},
        {"slot": 3, "kind": "slice_leave", "slice_id": "slice2"},
        {"slot": 3, "kind": "slice_leave", "slice_id": "slice3"},
        {"slot": 5, "kind": "slice_join", "slice_id": "slice1"},
        {"slot": 5, "kind": "slice_join", "slice_id": "slice2"},
    ],
}
EMPTY_POPULATION_DIGESTS = {
    "adaslicing": "e87dd4b718f5e6a07676d03e70f108146200e6fda37ec3842f3662a471b9e8e1",
    "gbo": "973e06549511ccb19893e0e58a3eb52f2e62b19bab889aee9d13e2048a58fcf7",
    "atlas": "575a8f8e1cecfb3dcea3138bacfa8e85e148b50284d1af411f2f5a52351f1178",
    "exsearch": "575a8f8e1cecfb3dcea3138bacfa8e85e148b50284d1af411f2f5a52351f1178",
}


@pytest.mark.parametrize("algorithm", sorted(EMPTY_POPULATION_DIGESTS))
def test_empty_population_digest(algorithm, tmp_path):
    scenario = scenario_from_dict(dict(EMPTY_POPULATION, algorithm=algorithm))
    records = run(scenario)
    assert [set(r.actions) for r in records[3:6]] == [set(), set(), {"slice1", "slice2"}]
    path = tmp_path / "trace.csv"
    write_trace_csv(records, [s.slice_id for s in scenario.slices], path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == EMPTY_POPULATION_DIGESTS[algorithm]


# The sha256 and row count of `sliceorch oracle`'s CSV: the whole noise-free
# sweep, every svRB, throughput and FPS of every joint action, as written.
ORACLE_DIGESTS = {
    "default.yaml": ("d1a81d84785c987f8ef62219913be986d2eab1fac11a0a91eb41ffe658ac91b3", 220),
    "scale/slices_5.yaml": (
        "3c06ec30f41f940cb95fe54db9c858f4018acadb8c35abca4fed3234d3e30d96", 42504
    ),
}


@pytest.mark.parametrize("scenario", sorted(ORACLE_DIGESTS))
def test_oracle_csv_digest(scenario, tmp_path, capsys):
    path = tmp_path / "oracle.csv"
    assert main(["oracle", str(SCENARIO_DIR / scenario), "--out", str(path)]) == 0
    digest, rows = ORACLE_DIGESTS[scenario]
    assert f"oracle: {rows} rows" in capsys.readouterr().out
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
