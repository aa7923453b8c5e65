"""The benchmark's per-layer wiring still matches the program.

`perfbench/spans.py` wraps named functions and methods of the package from
outside. A refactor that moves a function the spans wrap, or makes a layer run
on a workload that should not touch it, shows up here: each workload's warm-up
cell runs under the tracer, and every layer the workload marks `nonzero` must
record calls while every `zero` layer records none. The benchmark files are
imported, not copied, so the test follows their current lists.
"""

import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from sliceorch import baselines, gp, harness

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


spans = load("spans")
WORKLOADS = load("run").WORKLOADS


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_warmup_cell_touches_exactly_the_declared_layers(workload):
    wl = WORKLOADS[workload]
    path, slots = wl.warmup
    scenario = harness.load_scenario(PERFBENCH.parent / "scenarios" / path)
    originals = (harness.load_scenario, gp.fit, vars(baselines.GridPortfolioBo)["suggest"])
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        harness.run(replace(scenario, algorithm=wl.algorithm, slots=slots))
    finally:
        tracer.restore()
    assert [name for name in wl.nonzero if tracer.stats[name][0] == 0] == []
    assert [name for name in wl.zero if tracer.stats[name][0] != 0] == []
    assert (harness.load_scenario, gp.fit, vars(baselines.GridPortfolioBo)["suggest"]) == originals
