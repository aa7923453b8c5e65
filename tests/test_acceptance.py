"""End-to-end acceptance checks for the orchestration workbench.

Nine numbered checks ranging from closed-form unit identities to full
multi-seed experiment sweeps. Each prints one PASS/FAIL line (visible with
`pytest -s` or in the captured-output section) and enforces an explicit
tolerance; the heavyweight checks also enforce a wall-clock budget.
"""

import math
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np

from sliceorch.acquisition import (
    HedgeState,
    ei,
    hedge_probabilities,
    hedge_update,
    lcb,
    pi,
)
from sliceorch.baselines import exsearch_best, sweep_dataset
from sliceorch.coordinator import project_consensus
from sliceorch.core import Action, AlgoParams, CostParams, slice_cost, total_cost
from sliceorch.gp import KernelParams, fit, kernel_matrix
from sliceorch.harness import (
    Scenario,
    SlotRecord,
    converged_value,
    load_scenario,
    run,
    write_trace_csv,
)
from sliceorch.vsharing import SliceDemand, share_pool

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"

# Experiment runs are shared across checks 6, 7, and 8.
_RUN_CACHE: dict[tuple[str, str, int], tuple[Scenario, list[SlotRecord]]] = {}


def cached_run(name: str, algorithm: str, seed: int) -> tuple[Scenario, list[SlotRecord]]:
    key = (name, algorithm, seed)
    if key not in _RUN_CACHE:
        scenario = replace(
            load_scenario(SCENARIO_DIR / f"{name}.yaml"), algorithm=algorithm, seed=seed
        )
        _RUN_CACHE[key] = (scenario, run(scenario))
    return _RUN_CACHE[key]


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"acceptance {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"acceptance {criterion}: {detail}"


def test_criterion_1_pool_grants_match_the_closed_form():
    started = time.perf_counter()
    expected = {0.1: 1, 0.2: 2, 0.3: 3, 0.4: 3, 0.5: 3}
    observed = {}
    for w0 in expected:
        demands = [
            SliceDemand("a", 4, w0, 30),
            SliceDemand("b", 6, 0.3, 30),
        ]
        grants = {v.slice_id: v for v in share_pool(demands, capacity=16)}
        observed[w0] = grants["a"].from_pool
        assert grants["a"].from_pool == math.floor(6 * w0 / (w0 + 0.3) + 1e-9)
    elapsed = time.perf_counter() - started
    ok = observed == expected and elapsed < 1.0
    _report(1, ok, f"pool grants {observed} in {elapsed:.3f}s")


def test_criterion_2_cost_identity():
    actions = [Action(1, 0.1), Action(2, 0.1), Action(1, 0.1)]
    per_slice = [slice_cost(a, CostParams()) for a in actions]
    total = total_cost(actions, CostParams())
    ok = per_slice == [1.1, 2.1, 1.1] and math.isclose(total, 4.3, abs_tol=1e-12)
    _report(2, ok, f"per-slice {per_slice}, total {total!r}")


def _scan_projection(c: np.ndarray, capacity: float) -> np.ndarray:
    """Brute-force slab projection: scan every admissible total on a 0.01 grid.

    For a fixed total T the nearest point is the hyperplane projection
    c + (T - sum(c)) / n, so scanning T in [0, capacity] covers the slab.
    """
    totals = np.arange(0.0, capacity + 0.005, 0.01)
    shifts = (totals - c.sum()) / c.size
    candidates = c[None, :] + shifts[:, None]
    distances = ((candidates - c) ** 2).sum(axis=1)
    return candidates[int(np.argmin(distances))]


def test_criterion_3_projection_matches_brute_force():
    started = time.perf_counter()
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 4))
        capacity = float(rng.integers(4, 13))
        x = rng.uniform(0.0, 10.0, n)
        y = rng.uniform(-6.0, 3.0, n)
        z = project_consensus(x, y, capacity)
        reference = _scan_projection(x + y, capacity)
        worst = max(worst, float(np.max(np.abs(z - reference))))
    elapsed = time.perf_counter() - started
    ok = worst <= 0.02 and elapsed < 10.0
    _report(3, ok, f"max coordinate error {worst:.5f} over 200 instances in {elapsed:.2f}s")


def _dense_posterior(x, y, params, noise_var, queries):
    y = np.asarray(y, dtype=float)
    mean, scale = y.mean(), y.std()
    if scale < 1e-12:
        scale = 1.0
    y_std = (y - mean) / scale
    gram = kernel_matrix(x, x, params) + noise_var * np.eye(x.shape[0])
    inv = np.linalg.inv(gram)
    k_star = kernel_matrix(queries, x, params)
    mu = mean + scale * (k_star @ inv @ y_std)
    var = params.signal_var - np.einsum("qn,nm,qm->q", k_star, inv, k_star)
    sigma = scale * np.sqrt(np.clip(var, 0.0, None))
    return mu, sigma


def test_criterion_4_gp_matches_dense_solves():
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 11))
        d = int(rng.integers(1, 4))
        x = rng.uniform(-3.0, 3.0, (n, d))
        y = rng.uniform(-5.0, 5.0, n)
        params = KernelParams(
            tuple(rng.uniform(0.5, 3.0, d)),
            float(rng.uniform(0.5, 4.0)),
        )
        noise_var = float(rng.uniform(1e-6, 1e-2))
        queries = rng.uniform(-3.0, 3.0, (7, d))
        model = fit(x, y, params, noise_var)
        mu, sigma = model.predict(queries)
        mu_ref, sigma_ref = _dense_posterior(x, y, params, noise_var, queries)
        worst = max(
            worst,
            float(np.max(np.abs(mu - mu_ref))),
            float(np.max(np.abs(sigma - sigma_ref))),
        )
    # posterior uncertainty can never exceed the prior's
    x = np.linspace(-3.0, 3.0, 6)[:, None]
    y = np.sin(x[:, 0])
    params = KernelParams((1.0,), 2.0)
    model = fit(x, y, params, 1e-4)
    _, sigma = model.predict(np.linspace(-5.0, 5.0, 100)[:, None])
    shrinks = bool(np.all(sigma**2 <= model.prior_var + 1e-12))
    ok = worst <= 1e-8 and shrinks
    _report(4, ok, f"max |posterior - dense| {worst:.2e} over 50 datasets; variance shrinks: {shrinks}")


def test_criterion_5_acquisition_identities():
    one = np.array([1.0])
    zero = np.array([0.0])
    ei_val = float(ei(zero, one, 0.0)[0])
    pi_val = float(pi(zero, one, 1.0)[0])
    lcb_val = float(lcb(np.array([5.0]), np.array([2.0]), 1.96)[0])
    ei_ok = abs(ei_val - 1.0 / math.sqrt(2.0 * math.pi)) < 1e-9
    ei_ok = ei_ok and abs(ei_val - 0.3989422804014327) < 1e-9
    pi_ok = abs(pi_val - 0.8413447460685429) < 1e-9
    lcb_ok = lcb_val == 1.08

    rng = np.random.default_rng(5)
    mu = rng.normal(size=40)
    sigma = rng.uniform(0.1, 3.0, 40)
    linear = all(
        np.array_equal(lcb(mu, sigma, kappa), mu - kappa * sigma)
        for kappa in (0.0, 0.5, 1.96, 3.0)
    )

    state = HedgeState(eta=AlgoParams().hedge_eta)
    sums_ok = True
    for _ in range(50):
        hedge_update(state, rng.normal(size=3))
        sums_ok = sums_ok and abs(hedge_probabilities(state).sum() - 1.0) <= 1e-12
    concentrated = HedgeState(eta=AlgoParams().hedge_eta)
    rounds = 0
    while hedge_probabilities(concentrated)[0] <= 0.99 and rounds < 200:
        hedge_update(concentrated, np.array([1.0, 0.0, 0.0]))
        rounds += 1
    conc_ok = hedge_probabilities(concentrated)[0] > 0.99

    ok = ei_ok and pi_ok and lcb_ok and linear and sums_ok and conc_ok
    _report(
        5,
        ok,
        f"ei {ei_val:.12f}, pi {pi_val:.12f}, lcb {lcb_val!r}, "
        f"hedge concentrated after {rounds} rounds",
    )


def test_criterion_6_converges_to_the_exhaustive_optimum():
    started = time.perf_counter()
    scenario = load_scenario(SCENARIO_DIR / "default.yaml")
    ids = [s.slice_id for s in scenario.slices]
    dataset = sweep_dataset(
        scenario.slices, scenario.env, scenario.algo.min_alive, scenario.algo.grid_cap
    )
    optimum = scenario.cost.u_h * sum(exsearch_best(dataset, scenario.slices, scenario.cost).svrbs)

    seeds = range(10)
    converged = {}
    for algorithm in ("adaslicing", "gbo", "atlas"):
        for seed in seeds:
            _, records = cached_run("default", algorithm, seed)
            converged[(algorithm, seed)] = converged_value([r.total_cost for r in records])

    reaches_optimum = all(
        converged[("adaslicing", s)] <= optimum + 1e-9 for s in seeds
    )

    sla_ok = True
    for seed in seeds:
        _, records = cached_run("default", "adaslicing", seed)
        tail = records[-5:]
        mode, _ = Counter(
            tuple(r.actions[sid].svrb for sid in ids) for r in tail
        ).most_common(1)[0]
        record = next(
            r for r in reversed(tail) if tuple(r.actions[sid].svrb for sid in ids) == mode
        )
        for spec in scenario.slices:
            perf = record.perfs[spec.slice_id]
            sla_ok = sla_ok and record.norm_perf[spec.slice_id] >= 1.0 - 1e-9
            sla_ok = sla_ok and perf.throughput >= spec.q_throughput - 1e-9
            sla_ok = sla_ok and perf.fps >= spec.q_fps - 1e-9

    vs_gbo = sum(
        converged[("adaslicing", s)] <= converged[("gbo", s)] + 1e-9 for s in seeds
    )
    vs_atlas = sum(
        converged[("adaslicing", s)] <= converged[("atlas", s)] + 1e-9 for s in seeds
    )
    elapsed = time.perf_counter() - started

    ok = reaches_optimum and sla_ok and vs_gbo >= 9 and vs_atlas >= 9 and elapsed < 300.0
    detail = (
        f"optimum {optimum}, converged costs "
        f"{sorted(set(round(converged[('adaslicing', s)], 3) for s in seeds))}, "
        f"SLAs met: {sla_ok}, beats gbo {vs_gbo}/10, beats atlas {vs_atlas}/10, "
        f"{elapsed:.0f}s"
    )
    _report(6, ok, detail)


def test_criterion_7_reacts_to_dynamics():
    seeds = range(10)
    drops = rejoins = bumps = 0
    for seed in seeds:
        _, records = cached_run("dynamics_leave_rejoin", "adaslicing", seed)
        costs = [r.total_cost for r in records]
        if costs[10] < costs[9]:
            drops += 1
        # reference point: the last slot before the departure
        if any(costs[t] <= 1.1 * costs[9] for t in range(20, 25)):
            rejoins += 1
    for seed in seeds:
        _, records = cached_run("sla_change", "adaslicing", seed)
        svrbs = [r.actions["slice1"].svrb for r in records]
        if any(svrbs[t] > svrbs[9] for t in (10, 11, 12)):
            bumps += 1
    ok = drops >= 9 and rejoins >= 9 and bumps >= 9
    _report(
        7,
        ok,
        f"departure cost drop {drops}/10, rejoin recovery {rejoins}/10, "
        f"post-tightening svRB bump {bumps}/10",
    )


def test_criterion_8_no_emitted_action_violates_bounds():
    cached_run("default", "adaslicing", 0)  # guarantee at least one run when isolated
    checked = 0
    violations = 0
    for scenario, records in _RUN_CACHE.values():
        capacity = scenario.env.capacity_h
        for record in records:
            checked += len(record.actions)
            total = sum(a.svrb for a in record.actions.values())
            if total > capacity:
                violations += 1
            for action in record.actions.values():
                if not (0 <= action.svrb <= capacity and 0.0 <= action.sw <= 1.0):
                    violations += 1

    rng = np.random.default_rng(777)
    pool_checked = 0
    for _ in range(2000):
        n = int(rng.integers(1, 6))
        svrbs = rng.integers(0, 7, n)
        capacity = int(svrbs.sum() + rng.integers(0, 11))
        demands = [
            SliceDemand(
                f"s{i}",
                int(svrbs[i]),
                float(rng.integers(0, 11)) / 10.0,
                int(rng.integers(0, 16)),
            )
            for i in range(n)
        ]
        grants = share_pool(demands, capacity)
        pool_checked += 1
        if sum(v.final_vrb for v in grants) > capacity or any(v.from_pool < 0 for v in grants):
            violations += 1

    ok = violations == 0 and checked > 0 and pool_checked == 2000
    _report(
        8,
        ok,
        f"{checked} emitted actions and {pool_checked} pool splits checked, "
        f"{violations} violations",
    )


def test_criterion_9_identical_seeds_produce_identical_traces(tmp_path):
    scenario = replace(load_scenario(SCENARIO_DIR / "noisy.yaml"), slots=12)
    ids = [s.slice_id for s in scenario.slices]
    first = run(scenario)
    second = run(scenario)
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    write_trace_csv(first, ids, path_a)
    write_trace_csv(second, ids, path_b)
    ok = first == second and path_a.read_bytes() == path_b.read_bytes()
    _report(9, ok, f"two runs, {len(first)} slots each, traces byte-identical: {ok}")
