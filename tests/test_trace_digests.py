"""Golden trace digests: the sha256 of `trace.csv` for every bundled scenario x algorithm.

Performance work and refactors must leave every allocation, probe outcome and
cost bit-identical; this gate holds them to it. The horizon is short but
crosses several hyperparameter searches per optimizer, and at 11 slots the
adaslicing and exsearch cells reach the first scripted event (a departure or
an SLA change at slot 10). gbo on the 4- and 5-slice rungs runs 2 slots: each
slot is 15 probes over the joint grid.

A digest changes only when the program's behaviour does, or when numpy,
scipy or their BLAS produce different floating-point results. A change that
alters behaviour on purpose (a new optimizer path, say) re-records the table
and says so in its change log.
"""

import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

from sliceorch.harness import ALGORITHMS, load_scenario, run, write_trace_csv

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
HORIZON = {"adaslicing": 11, "exsearch": 11, "atlas": 4, "gbo": 4}
JOINT_GRID_HORIZON = 2  # gbo on 4 or more slices

DIGESTS = {
    ("default.yaml", "adaslicing"): "b815e5656d55fba16da344771268352dd7f2aa01d1cb2d626c0ec7575873f390",
    ("default.yaml", "gbo"): "b3348c5570beb4e73b5b6cf613dfb91aa634206af5f738c18c0db9666fb05f44",
    ("default.yaml", "atlas"): "9e84b445e449020fac73a8b01b9ad321ae0401c81160a85ba2b8e0e1f6b7a725",
    ("default.yaml", "exsearch"): "a53773d3a0b4d62042b55c2164804a04dfd363cc9dc5949236fb78680bf98b24",
    ("dynamics_leave_rejoin.yaml", "adaslicing"): "cad45a91c3a99163906c7706f33d3736c7b40fa382ca12979b7a02620cc3ba04",
    ("dynamics_leave_rejoin.yaml", "gbo"): "b3348c5570beb4e73b5b6cf613dfb91aa634206af5f738c18c0db9666fb05f44",
    ("dynamics_leave_rejoin.yaml", "atlas"): "9e84b445e449020fac73a8b01b9ad321ae0401c81160a85ba2b8e0e1f6b7a725",
    ("dynamics_leave_rejoin.yaml", "exsearch"): "9e920872f4b50d79b81e40ccef0668271d69d217aa90fe2009b017b0c6caf0a5",
    ("noisy.yaml", "adaslicing"): "2223506dce6b57f8f6365060aa88c1b3d85e6b5a3017e8bfb20426865fb4c5fb",
    ("noisy.yaml", "gbo"): "09ade975380b24fc4f5a81fcc3114817c4e4d88599f8d4dfecda6521ffb0952e",
    ("noisy.yaml", "atlas"): "56259e6f873d27394dcd25840d09998e75038ec8363e15842672f160c52c333f",
    ("noisy.yaml", "exsearch"): "4ea4d58d4d7aa9a11bf4265891a9ba82751fbd376fd6d9710fc042e58cb5b94a",
    ("scale/slices_1.yaml", "adaslicing"): "cc72398579de409c1f16de666c43b7783ae976e9022cbd8c5fe481eefb6049f4",
    ("scale/slices_1.yaml", "gbo"): "1f3fb3f7d51aebbf3f7a502e4c39c89038896b19b4f59281b4154f2b38612ce1",
    ("scale/slices_1.yaml", "atlas"): "1f3fb3f7d51aebbf3f7a502e4c39c89038896b19b4f59281b4154f2b38612ce1",
    ("scale/slices_1.yaml", "exsearch"): "a79fa60fc7099c8453814467f939091acdf69670ffde0e4f4876faf0c3323b48",
    ("scale/slices_2.yaml", "adaslicing"): "881d6a33448dbdaf3b35d5b4cd3e9aada877bd55dab35a28b5bd79602f6b64b9",
    ("scale/slices_2.yaml", "gbo"): "dc69327a075a16bc211f4820fb7120019c0eb4d6238647095dd74848a0e874b9",
    ("scale/slices_2.yaml", "atlas"): "dc69327a075a16bc211f4820fb7120019c0eb4d6238647095dd74848a0e874b9",
    ("scale/slices_2.yaml", "exsearch"): "c15f56c2f6b728aa96f4d4a06ac76e32e7dcb3d0d9b9082272b25bed4af1079b",
    ("scale/slices_3.yaml", "adaslicing"): "b815e5656d55fba16da344771268352dd7f2aa01d1cb2d626c0ec7575873f390",
    ("scale/slices_3.yaml", "gbo"): "b3348c5570beb4e73b5b6cf613dfb91aa634206af5f738c18c0db9666fb05f44",
    ("scale/slices_3.yaml", "atlas"): "9e84b445e449020fac73a8b01b9ad321ae0401c81160a85ba2b8e0e1f6b7a725",
    ("scale/slices_3.yaml", "exsearch"): "a53773d3a0b4d62042b55c2164804a04dfd363cc9dc5949236fb78680bf98b24",
    ("scale/slices_4.yaml", "adaslicing"): "8d27dace72c82582909b2f43cef68fa62a77080ab8c69b5891af120b07d09129",
    ("scale/slices_4.yaml", "gbo"): "93d00711b3e536fbfd232fbd3de63d86cb16da318e1a3575754145f82b90b410",
    ("scale/slices_4.yaml", "atlas"): "36c7f1358f208787cd9c762c103663a650fceae936599a0e0aae2de8b37f701e",
    ("scale/slices_4.yaml", "exsearch"): "8b2b6eac941de5b55b7f2742dc067d9dfbfee94f01965151899e69d28a6271b5",
    ("scale/slices_5.yaml", "adaslicing"): "c50e4e49c340f85f1359de7af4bce43e0d07b313e9c933e3bb88591f7d2df8b7",
    ("scale/slices_5.yaml", "gbo"): "e679f4de2c9bb8076fa628dee17d45a3f566c37de3afe3f11b56405465bb5c4e",
    ("scale/slices_5.yaml", "atlas"): "3a713acee2ce3f2c3ab42c6d17e0f97c8d32ee69b765daa62f01c3c935383cbc",
    ("scale/slices_5.yaml", "exsearch"): "e68de80b8dd2a7cfdc024f0a6204dabb7614459fdc6b0a8e3cbe5b721197597f",
    ("sla_change.yaml", "adaslicing"): "1e2c69ff85f7596bc7d03750b8f24db6377403246296f9d0afb680ac4a9b08cd",
    ("sla_change.yaml", "gbo"): "86d2072ef6297d2c350d874b30ed347b28e7f82115b5a96e9c24c22b3af2f512",
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
