"""Baseline optimizers: joint BO, independent BO, and the exhaustive sweep."""

import math
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sliceorch import agent as agent_module
from sliceorch import baselines, harness
from sliceorch.acquisition import KAPPA, portfolio_nominate
from sliceorch.agent import (
    PREDICT_BLOCK_ROWS,
    AgentContext,
    SliceAgent,
    barrier_value,
    row_blocks,
)
from sliceorch.baselines import (
    GridPortfolioBo,
    OracleDataset,
    OracleEntry,
    enumerate_joint_grid,
    exsearch_best,
    joint_grid_size,
    sweep_dataset,
)
from sliceorch.core import Action, AlgoParams, CostParams, PerfVector, SliceSpec
from sliceorch.errors import (
    GridCapExceededError,
    InfeasibleCapacityError,
    NoFeasibleActionError,
)
from sliceorch.gp import kernel_matrix
from sliceorch.netenv import EnvConfig, TrafficProfile
from sliceorch.rng import substream


SPECS = [
    SliceSpec("s1", 12.0, 10.0, TrafficProfile(30.0, 0.5)),
    SliceSpec("s2", 12.0, 10.0, TrafficProfile(24.0, 0.625)),
    SliceSpec("s3", 12.0, 10.0, TrafficProfile(32.0, 0.45)),
]
CONFIG = EnvConfig(capacity_h=12, per_vrb_rate=3.2, noise_std=0.0)
ALGO = AlgoParams()
ALIVE, CAP = ALGO.min_alive, ALGO.grid_cap


def recursive_joint_grid(n_slices, capacity, min_alive):
    """The joint grid as the original recursive generator enumerated it."""

    def rec(remaining, budget):
        if remaining == 0:
            yield ()
            return
        reserve = (remaining - 1) * min_alive
        for v in range(min_alive, budget - reserve + 1):
            for tail in rec(remaining - 1, budget - v):
                yield (v, *tail)

    return list(rec(n_slices, capacity))


class TestJointGrid:
    def test_matches_the_recursive_enumeration(self):
        for n in range(6):
            for capacity in range(25):
                for alive in (1, 2):
                    grid = enumerate_joint_grid(n, capacity, alive, CAP)
                    assert grid.dtype.kind == "i" and grid.shape[1] == n
                    assert list(map(tuple, grid.tolist())) == recursive_joint_grid(n, capacity, alive)

    def test_counts_three_slices_at_capacity_twelve(self):
        assert joint_grid_size(3, 12, ALIVE) == 220

    def test_count_matches_enumeration(self):
        for n, cap, alive in [(1, 5, 1), (2, 7, 1), (3, 9, 2), (4, 8, 1)]:
            grid = enumerate_joint_grid(n, cap, alive, CAP)
            assert len(grid) == joint_grid_size(n, cap, alive)

    def test_infeasible_floor_counts_zero(self):
        assert joint_grid_size(4, 3, ALIVE) == 0

    def test_enumeration_is_lexicographic_and_bounded(self):
        grid = enumerate_joint_grid(2, 3, ALIVE, CAP)
        assert grid.tolist() == [[1, 1], [1, 2], [2, 1]]
        big = enumerate_joint_grid(3, 9, ALIVE, CAP).tolist()
        assert big == sorted(big)
        assert all(sum(row) <= 9 and min(row) >= 1 for row in big)

    def test_oversized_grid_raises(self):
        with pytest.raises(GridCapExceededError):
            enumerate_joint_grid(3, 12, ALIVE, grid_cap=100)


def make_bo(ids=("a",), capacity=8, seed=3, cost=CostParams(), **algo):
    return GridPortfolioBo(
        list(ids), capacity, substream(seed, "bo"), substream(seed, "bo-hedge"), AlgoParams(**algo),
        cost,
    )


GOOD = PerfVector(20.0, 20.0)
BAD = PerfVector(0.5, 0.5)
EASY = {
    "a": SliceSpec("a", 1.0, 1.0, TrafficProfile(30.0, 0.5)),
    "b": SliceSpec("b", 1.0, 1.0, TrafficProfile(30.0, 0.5)),
}


class TestGridPortfolioBo:
    def test_grid_order_scan_finds_what_the_design_walk_skips(self):
        # The 12-step van der Corput walk over 12 rows never reaches the
        # last one, so svRB 12 comes from the grid-order scan.
        walk = {min(int(agent_module._radical_inverse(i + 1, 2) * 12), 11) for i in range(12)}
        assert sorted(set(range(12)) - walk) == [5, 8, 11]
        bo = make_bo(capacity=12, n_init=99)
        for svrb in range(1, 12):
            bo.observe({"a": Action(svrb, 0.0)}, {"a": GOOD}, EASY)
        assert bo.suggest(EASY) == {"a": Action(12, 0.0)}

    def test_next_unexplored_falls_back_to_grid_order_then_to_none(self):
        # From cursor 0, 12 steps of the van der Corput walk over atlas's
        # 12-row grid miss svRBs 6, 9 and 12.
        walker = make_bo(capacity=12)
        walk = [int(walker.candidates[walker._design_index()][0]) for _ in range(12)]
        assert walk == [7, 4, 10, 2, 8, 5, 11, 1, 7, 4, 10, 3]
        bo = make_bo(capacity=12, n_init=99)
        for svrb in range(1, 13):
            if svrb != 6:
                bo.observe({"a": Action(svrb, 0.0)}, {"a": GOOD}, EASY)
        assert bo._next_unexplored().tolist() == [6.0]  # from the grid-order scan
        assert bo._design_cursor == 12  # after a full, fruitless walk
        bo.observe({"a": Action(6, 0.0)}, {"a": GOOD}, EASY)
        assert bo._next_unexplored() is None
        assert bo._design_cursor == 12  # a full archive walks no further

    def test_incumbent_on_an_empty_archive_is_the_cold_suggestion(self):
        bo, twin = make_bo(capacity=12), make_bo(capacity=12)
        assert not bo.archive
        for _ in range(3):
            assert bo.incumbent(EASY) == twin.suggest(EASY)
        assert bo._design_cursor == twin._design_cursor == 3

    def test_cold_start_explores_fresh_rows(self):
        bo = make_bo()
        seen = set()
        for slot in range(4):
            actions = bo.suggest(EASY)
            assert actions["a"].svrb not in seen
            seen.add(actions["a"].svrb)
            bo.observe(actions, {"a": GOOD}, EASY)
        assert bo.gp is not None

    def test_reobservation_replaces_the_archive_entry(self):
        bo = make_bo(capacity=2)
        actions = {"a": Action(1, 0.0)}
        bo.observe(actions, {"a": BAD}, EASY)
        bo.observe(actions, {"a": GOOD}, EASY)
        assert len(bo.archive) == 1
        entry = next(iter(bo.archive.values()))
        assert entry.perfs == {"a": GOOD}

    def test_exhausted_grid_still_suggests(self):
        bo = make_bo(capacity=3, n_init=1)
        for slot, v in enumerate([1, 2, 3]):
            bo.observe({"a": Action(v, 0.0)}, {"a": GOOD}, EASY)
        actions = bo.suggest(EASY)
        assert (float(actions["a"].svrb),) in bo.archive

    def test_incumbent_follows_the_current_target(self):
        cheap = make_bo(capacity=2)
        dear = make_bo(capacity=2, cost=CostParams(u_h=100.0))
        for bo, first in ((cheap, BAD), (dear, PerfVector(1.01, 1.01))):
            bo.observe({"a": Action(1, 0.0)}, {"a": first}, EASY)
            bo.observe({"a": Action(2, 0.0)}, {"a": GOOD}, EASY)
        assert cheap.incumbent(EASY)["a"].svrb == 2
        # with svRBs priced dear, a thin but feasible margin beats a wide one:
        # 100 - 0.5 log 0.01 = 102.3 against 200 - 0.5 log 19 = 198.5
        assert dear.incumbent(EASY)["a"].svrb == 1
        # a stricter SLA re-prices the archive: the cheap row's margin turns
        # into a violation
        bo = make_bo(capacity=2)
        bo.observe({"a": Action(1, 0.0)}, {"a": PerfVector(5.0, 5.0)}, EASY)
        bo.observe({"a": Action(2, 0.0)}, {"a": GOOD}, EASY)
        assert bo.incumbent(EASY)["a"].svrb == 1
        strict = {"a": SliceSpec("a", 10.0, 10.0, TrafficProfile(30.0, 0.5))}
        assert bo.incumbent(strict)["a"].svrb == 2

    def test_suggestions_are_seed_stable(self):
        runs = []
        for _ in range(2):
            bo = make_bo(("a", "b"), 6, seed=5)
            rng = np.random.default_rng(11)
            rows = []
            for slot in range(6):
                actions = bo.suggest(EASY)
                rows.append((actions["a"].svrb, actions["b"].svrb))
                perfs = {sid: PerfVector(*rng.uniform(0.0, 3.0, 2)) for sid in "ab"}
                bo.observe(actions, perfs, EASY)
            runs.append(rows)
        assert runs[0] == runs[1]


@pytest.mark.parametrize("perf", [GOOD, BAD, PerfVector(1.3, 0.9)])
def test_grid_optimizer_and_slice_agent_price_alike(perf):
    """One pricing rule: a sharing-free probe costs the same bits in either optimizer."""
    cost, penalty = CostParams(u_h=1.3, u_s=0.7), 104.0  # 10 * u_h * capacity 8
    spec = SliceSpec("a", 1.1, 1.7, TrafficProfile(30.0, 0.5))
    bo = make_bo(capacity=8, cost=cost)
    agent = SliceAgent("a", 8, substream(3, "agent:a"), substream(3, "hedge:a"), ALGO, cost)
    assert bo.penalty == agent.penalty == penalty
    bo.observe({"a": Action(5, 0.0)}, {"a": perf}, {"a": spec})
    agent.observe(Action(5, 0.0), perf, AgentContext(z=5.0, y=0.0, rho=2.0, s=0.0, spec=spec))
    (bo_obs,), (agent_obs,) = bo.archive.values(), agent.archive.values()
    specs = {"a": spec}
    expected = 1.3 * 5 + barrier_value(perf, spec, ALGO.barrier_coef, penalty)
    assert bo._price(bo_obs, specs) == agent._price(agent_obs, specs) == expected


THREE = {sid: SliceSpec(sid, 2.0, 2.0, TrafficProfile(30.0, 0.5)) for sid in "abc"}


def varied_perfs(actions):
    """Performance that varies smoothly with the allocation, SLA met or not."""
    total = sum(a.svrb for a in actions.values())
    return {
        sid: PerfVector(w * actions[sid].svrb + 1.0 + np.sin(total), 1.0 + w * actions[sid].svrb)
        for sid, w in zip("abc", (1.0, 0.5, 2.0))
    }


def blocked_predict(bo):
    """The mean and deviation a warm suggestion scores, gathered over its row blocks."""
    columns = bo._training_columns()
    parts = [bo._predict_rows(rows, columns) for rows in row_blocks(bo.candidates.shape[0])]
    return np.concatenate([mu for mu, _ in parts]), np.concatenate([sd for _, sd in parts])


class TestCrossKernelCache:
    def test_cached_prediction_equals_plain_predict(self):
        """Bit-identical across hyperparameter searches and rows leaving the training window."""
        bo = make_bo("abc", 12, buffer_capacity=8, subsample=6, hyperopt_every=3)
        searches = 0
        for slot in range(30):
            actions = bo.suggest(THREE)
            params = bo.params
            bo.observe(actions, varied_perfs(actions), THREE)
            if bo.gp is None:
                continue
            searches += bo.params != params
            mu, sigma = blocked_predict(bo)
            mu_ref, sigma_ref = bo.gp.predict(bo.candidates)
            assert np.array_equal(mu, mu_ref)
            assert np.array_equal(sigma, sigma_ref)
            window = {e.key() for e in bo.buffer}
            assert set(bo._columns) <= window
            assert len(bo._columns) <= len(window)
        assert searches > 0
        assert len(bo.archive) > bo.buffer_capacity  # rows left the window


@pytest.mark.parametrize("window, width", [(5, 5), (12, 12), (10**12, 12)])
def test_kernel_column_cache_is_no_wider_than_the_grid(window, width):
    # archive keys are grid rows, so the window never holds more than 12
    bo = make_bo(capacity=12, buffer_capacity=window, n_init=2, subsample=4)
    assert bo._kernel_columns.shape == (12, width)
    rng = np.random.default_rng(1)
    for _ in range(30):
        actions = bo.suggest(EASY)
        bo.observe(actions, {"a": PerfVector(*rng.uniform(0.5, 3.0, 2))}, EASY)
        slots = bo._training_columns()
        assert len(set(bo._columns.values())) == len(bo._columns) <= width
        for row, slot in zip(bo.gp.x_train, slots):
            expected = kernel_matrix(bo.candidates, row[None, :], bo.gp.params)[:, 0]
            np.testing.assert_array_equal(bo._kernel_columns[:, slot], expected)


def test_grid_optimizer_reuses_lattice_columns(monkeypatch):
    """Lattice columns are computed only for rows new to the cache."""
    computed = []
    original = baselines.KernelLattice.column

    def counting(self, row, params):
        computed.append((tuple(row.tolist()), params))
        return original(self, row, params)

    monkeypatch.setattr(baselines.KernelLattice, "column", counting)
    bo = make_bo("abc", 12, buffer_capacity=8, subsample=6, hyperopt_every=3)
    reused = 0
    for slot in range(30):
        actions = bo.suggest(THREE)
        bo.observe(actions, varied_perfs(actions), THREE)
        if bo.gp is None:
            continue
        computed.clear()
        bo._training_columns()
        reused += len(computed) < bo.gp.x_train.shape[0]
        assert len(set(computed)) == len(computed)
        assert all(params == bo.gp.params for _, params in computed)
    assert reused > 0


def test_gbo_runs_bit_identical_with_and_without_helpers(monkeypatch, tmp_path):
    """The helper thread and no helper give gbo the same trace bytes and kernel columns."""
    path = Path(__file__).resolve().parents[1] / "scenarios" / "scale" / "slices_5.yaml"
    scenario = replace(harness.load_scenario(path), algorithm="gbo", slots=2)
    ids = [s.slice_id for s in scenario.slices]
    make_grid_bo, column = harness._grid_bo, baselines.KernelLattice.column
    outcomes, threads = {}, {}
    for cpus in (1, 2):
        monkeypatch.setattr(agent_module.os, "sched_getaffinity", lambda _: set(range(cpus)), raising=False)
        monkeypatch.setattr(agent_module, "_pool", None)
        built, filled_on = [], threads.setdefault(cpus, set())

        def grid_bo(*args):
            built.append(make_grid_bo(*args))
            return built[-1]

        def traced_column(self, row, params):
            filled_on.add(threading.get_ident())
            return column(self, row, params)

        monkeypatch.setattr(harness, "_grid_bo", grid_bo)
        monkeypatch.setattr(baselines.KernelLattice, "column", traced_column)
        records = harness.run(scenario)
        harness.write_trace_csv(records, ids, tmp_path / f"{cpus}.csv")
        (bo,) = built
        columns = bo._kernel_columns[:, bo._training_columns()]
        assert np.array_equal(columns, kernel_matrix(bo.candidates, bo.gp.x_train, bo.gp.params))
        outcomes[cpus] = (tmp_path / f"{cpus}.csv").read_bytes(), columns
    assert threads[1] == {threading.get_ident()}
    assert len(threads[2]) == 2  # the helper filled columns too
    assert outcomes[1][0] == outcomes[2][0]
    assert np.array_equal(outcomes[1][1], outcomes[2][1])


def whole_grid_nominees(bo, specs):
    """What a warm suggestion nominates when every candidate is scored in one call."""
    mu, sigma = bo.gp.predict(bo.candidates)
    best = min(bo._price(o, specs) for o in bo.archive.values())
    return mu, sigma, portfolio_nominate(mu, sigma, best, KAPPA)


class TestBlockedScoring:
    """Scoring the grid block by block nominates what scoring it whole does, bit for bit."""

    def check(self, bo, specs, perfs, slots):
        """Run `slots` probes; every warm one must score and nominate as one whole-grid call."""
        warm = 0
        for slot in range(slots):
            if bo._warm():
                mu_ref, sigma_ref, nominees = whole_grid_nominees(bo, specs)
                mu, sigma = blocked_predict(bo)
                assert np.array_equal(mu, mu_ref)
                assert np.array_equal(sigma, sigma_ref)
                actions = bo.suggest(specs)
                assert np.array_equal(bo._last_nominees, bo.candidates[nominees])
                warm += 1
            else:
                actions = bo.suggest(specs)
            bo.observe(actions, perfs(actions), specs)
        return warm

    @pytest.mark.parametrize("block_rows", [4096, 64, 73])
    def test_matches_whole_grid_scoring(self, monkeypatch, block_rows):
        # 220 rows: under one block, 3 x 64 + 28, and 3 x 73 + 1, whose
        # lone last row joins the block before it
        monkeypatch.setattr(agent_module, "PREDICT_BLOCK_ROWS", block_rows)
        bo = make_bo("abc", 12, buffer_capacity=8, subsample=6, hyperopt_every=3)
        assert self.check(bo, THREE, varied_perfs, 16) > 8

    def test_matches_on_the_five_slice_grid(self):
        # 42,504 rows: ten full blocks and a partial one
        specs = {sid: SliceSpec(sid, 2.0, 2.0, TrafficProfile(30.0, 0.5)) for sid in "abcde"}
        bo = make_bo("abcde", 24, n_init=3, subsample=5)
        assert bo.candidates.shape[0] % agent_module.PREDICT_BLOCK_ROWS != 0
        rng = np.random.default_rng(4)

        def perfs(actions):
            return {sid: PerfVector(*rng.uniform(0.5, 4.0, 2)) for sid in specs}

        assert self.check(bo, specs, perfs, 5) == 2

    def propose(self, mu, sigma):
        """Nominees of _propose over synthetic scores, and of one whole-grid call."""
        bo = make_bo(capacity=2)
        bo.observe({"a": Action(1, 0.0)}, {"a": GOOD}, EASY)
        queries = np.arange(mu.shape[0], dtype=float)[:, None]
        bo._propose(queries, EASY, lambda rows: (mu[rows], sigma[rows]), lambda: None)
        best = bo._price(next(iter(bo.archive.values())), EASY)
        whole = portfolio_nominate(mu, sigma, best, KAPPA)
        return bo._last_nominees[:, 0].astype(int).tolist(), whole.tolist()

    def test_tie_across_a_block_boundary_keeps_the_first_row(self):
        block = agent_module.PREDICT_BLOCK_ROWS
        mu = np.full(2 * block + 5, 50.0)
        sigma = np.ones_like(mu)
        mu[[block - 1, block]] = 10.0  # the best row of every acquisition, twice
        nominees, whole = self.propose(mu, sigma)
        assert nominees == whole == [block - 1] * 3

    def test_first_nan_wins_as_argmax_lets_it(self):
        block = agent_module.PREDICT_BLOCK_ROWS
        mu = np.full(3 * block, 50.0)
        sigma = np.ones_like(mu)
        mu[2 * block + 7] = -100.0  # a later, better row does not displace a NaN
        mu[[block + 3, block + 9, 2 * block]] = np.nan
        nominees, whole = self.propose(mu, sigma)
        assert nominees == whole == [block + 3] * 3

    @pytest.mark.parametrize(
        "block_rows, nan_share",
        [pytest.param(rows, 0.0, id=str(rows)) for rows in (1, 2, 3, 5, 8)]
        + [pytest.param(rows, 0.2, id=f"{rows}-nan") for rows in (1, 2, 3, 5, 8)],
    )
    def test_coarse_scores_with_many_ties(self, monkeypatch, block_rows, nan_share):
        monkeypatch.setattr(agent_module, "PREDICT_BLOCK_ROWS", block_rows)
        rng = np.random.default_rng(block_rows)
        for _ in range(20):
            mu = rng.integers(0, 4, 23).astype(float)
            sigma = rng.integers(0, 3, 23).astype(float)
            if nan_share:  # first-NaN semantics, in the mean and in the deviation
                mu[rng.random(23) < nan_share] = np.nan
                sigma[rng.random(23) < nan_share] = np.nan
            nominees, whole = self.propose(mu, sigma)
            assert nominees == whole


class TestPriceCache:
    """One price per archive entry, renewed when the SLAs change."""

    def check(self, bo, specs):
        fresh = {k: bo._price(o, specs) for k, o in bo.archive.items()}
        assert [(k, o.price) for k, o in bo.archive.items()] == list(fresh.items())

    def test_grid_optimizer_after_an_sla_change(self, monkeypatch):
        bo = make_bo("abc", 12, subsample=6)
        calls = []
        original = bo._price
        monkeypatch.setattr(bo, "_price", lambda o, specs: calls.append(o) or original(o, specs))
        strict = {sid: replace(spec, q_throughput=3.5) for sid, spec in THREE.items()}
        for slot in range(14):
            specs = THREE if slot < 7 else strict
            calls.clear()
            actions = bo.suggest(specs)
            # a suggestion prices nothing unless the SLAs changed since the last call
            assert len(calls) == (len(bo.archive) if slot == 7 else 0)
            calls.clear()
            bo.observe(actions, varied_perfs(actions), specs)
            assert calls == [bo.archive[tuple(float(a.svrb) for a in actions.values())]]
            self.check(bo, specs)
        calls.clear()
        bo.incumbent(THREE)  # back to the first SLAs: each entry is priced once more
        assert len(calls) == len(bo.archive)
        self.check(bo, THREE)

    def test_slice_agent_after_an_sla_change(self):
        agent = SliceAgent(
            "a", 12, substream(3, "agent:a"), substream(3, "hedge:a"), ALGO, CostParams()
        )
        spec = SliceSpec("a", 12.0, 10.0, TrafficProfile(30.0, 0.5))
        strict = replace(spec, q_throughput=14.0)
        rng = np.random.default_rng(2)
        for slot in range(12):
            ctx = AgentContext(z=4.0, y=0.0, rho=2.0, s=0.0, spec=spec if slot < 6 else strict)
            action = agent.suggest(ctx)
            agent.observe(action, PerfVector(*rng.uniform(8.0, 20.0, 2)), ctx)
            agent.recommend(ctx.spec)
            self.check(agent, {"a": ctx.spec})
        assert len(agent.archive) > 6


class TestGboBaseline:
    """gbo's optimizer: one GridPortfolioBo over the joint allocation."""

    def make(self, seed=2):
        return GridPortfolioBo(
            ["a", "b"], 6, substream(seed, "gbo"), substream(seed, "gbo-hedge"), ALGO,
            CostParams(),
        )

    def test_suggestions_live_on_the_joint_grid(self):
        gbo = self.make()
        actions = gbo.suggest(EASY)
        assert set(actions) == {"a", "b"}
        assert sum(a.svrb for a in actions.values()) <= 6
        assert all(a.sw == 0.0 for a in actions.values())

    def test_incumbent_prefers_cheap_feasible_rows(self):
        gbo = self.make()
        gbo.observe({"a": Action(3, 0.0), "b": Action(3, 0.0)}, {"a": GOOD, "b": GOOD}, EASY)
        gbo.observe({"a": Action(1, 0.0), "b": Action(1, 0.0)}, {"a": GOOD, "b": GOOD}, EASY)
        incumbent = gbo.incumbent(EASY)
        assert {sid: a.svrb for sid, a in incumbent.items()} == {"a": 1, "b": 1}

    def test_incumbent_avoids_violations(self):
        gbo = self.make()
        gbo.observe({"a": Action(1, 0.0), "b": Action(1, 0.0)}, {"a": BAD, "b": BAD}, EASY)
        gbo.observe({"a": Action(3, 0.0), "b": Action(3, 0.0)}, {"a": GOOD, "b": GOOD}, EASY)
        incumbent = gbo.incumbent(EASY)
        assert {sid: a.svrb for sid, a in incumbent.items()} == {"a": 3, "b": 3}

    def test_incumbent_without_data_falls_back_to_a_suggestion(self):
        gbo = self.make()
        actions = gbo.incumbent(EASY)
        assert sum(a.svrb for a in actions.values()) <= 6


class TestAtlasAgent:
    """atlas's per-slice optimizer: a GridPortfolioBo over one slice."""

    def make(self, seed=2):
        return GridPortfolioBo(
            ["a"], 8, substream(seed, "atlas:a"), substream(seed, "atlas-hedge:a"), ALGO,
            CostParams(),
        )

    def test_suggestions_stay_in_range(self):
        agent = self.make()
        np.testing.assert_array_equal(agent.candidates, np.arange(1, 9, dtype=float)[:, None])
        actions = agent.suggest(EASY)
        assert set(actions) == {"a"}
        assert 1 <= actions["a"].svrb <= 8

    def test_incumbent_reprices_on_spec(self):
        agent = self.make()
        agent.observe({"a": Action(2, 0.0)}, {"a": GOOD}, EASY)
        agent.observe({"a": Action(5, 0.0)}, {"a": GOOD}, EASY)
        assert agent.incumbent(EASY)["a"].svrb == 2
        strict = {"a": SliceSpec("a", 30.0, 30.0, TrafficProfile(30.0, 0.5))}
        # both observations violate the stricter SLA equally; cost breaks the tie
        assert agent.incumbent(strict)["a"].svrb == 2

    def test_incumbent_without_data_falls_back(self):
        agent = self.make()
        assert 1 <= agent.incumbent(EASY)["a"].svrb <= 8


class TestSweepDataset:
    def test_covers_the_whole_grid(self):
        dataset = sweep_dataset(SPECS, CONFIG, ALIVE, CAP)
        assert len(dataset) == 220
        assert np.array_equal(dataset.svrbs, enumerate_joint_grid(3, 12, ALIVE, CAP))
        assert dataset.svrbs.dtype.kind == "i"
        assert dataset.throughput.shape == dataset.fps.shape == (220, 3)
        for column in (dataset.svrbs, dataset.throughput, dataset.fps):
            with pytest.raises(ValueError):
                column[0, 0] = 0

    def test_known_allocation_performance(self):
        dataset = sweep_dataset(SPECS, CONFIG, ALIVE, CAP)
        row = dataset.svrbs.tolist().index([4, 4, 4])
        assert dataset.throughput[row, 0] == pytest.approx(12.8)
        assert dataset.fps[row, 0] == pytest.approx(25.6)
        assert dataset.fps[row, 1] == pytest.approx(20.48)
        assert dataset.fps[row, 2] == pytest.approx(28.444444444444446)

    def test_noise_and_burstiness_are_stripped(self):
        noisy = EnvConfig(capacity_h=12, per_vrb_rate=3.2, noise_std=0.4)
        bursty = [
            SliceSpec(
                s.slice_id,
                s.q_throughput,
                s.q_fps,
                TrafficProfile(s.app_profile.frame_rate, s.app_profile.frame_size, 0.7),
            )
            for s in SPECS
        ]
        clean = sweep_dataset(SPECS, CONFIG, ALIVE, CAP)
        stripped = sweep_dataset(bursty, noisy, ALIVE, CAP)
        for column in ("svrbs", "throughput", "fps"):
            assert np.array_equal(getattr(stripped, column), getattr(clean, column))

    def test_inactive_slices_are_excluded(self):
        specs = [SPECS[0], SPECS[1], SliceSpec("s3", 12.0, 10.0, SPECS[2].app_profile, active=False)]
        dataset = sweep_dataset(specs, CONFIG, ALIVE, CAP)
        assert len(dataset) == joint_grid_size(2, 12, ALIVE)
        assert dataset.svrbs.shape[1] == dataset.throughput.shape[1] == dataset.fps.shape[1] == 2

    def test_holds_one_row_block_beside_its_columns(self):
        """The sweep's peak stays within its three arrays plus about one block of Python rows.

        Three slices on 40 vRBs give 9,880 rows, three blocks; a sweep that
        listed every grid row at once would hold about 2.4 blocks of them.
        """
        tracemalloc.start()
        try:
            rows = enumerate_joint_grid(3, 40, ALIVE, CAP)[:PREDICT_BLOCK_ROWS].tolist()
            block = tracemalloc.get_traced_memory()[0]
            del rows
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            dataset = sweep_dataset(SPECS, replace(CONFIG, capacity_h=40), ALIVE, CAP)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert len(dataset) == 9_880
        columns = dataset.svrbs.nbytes + dataset.throughput.nbytes + dataset.fps.nbytes
        assert peak - columns <= 1.5 * block


def dataset_of(entries):
    """An OracleDataset holding `entries`, in order."""
    return OracleDataset(
        np.array([e.svrbs for e in entries], dtype=np.int64),
        np.array([[p.throughput for p in e.perfs] for e in entries], dtype=float),
        np.array([[p.fps for p in e.perfs] for e in entries], dtype=float),
    )


def scan_best(dataset, specs, cost_params):
    """The scalar scan that exsearch_best replaced, kept as its reference."""
    active = [s for s in specs if s.active]
    best, best_cost = None, math.inf
    columns = (dataset.svrbs.tolist(), dataset.throughput.tolist(), dataset.fps.tolist())
    for svrbs, throughput, fps in zip(*columns):
        entry = OracleEntry(tuple(svrbs), tuple(map(PerfVector, throughput, fps)))
        feasible = all(
            p.throughput >= s.q_throughput and p.fps >= s.q_fps
            for p, s in zip(entry.perfs, active)
        )
        if not feasible:
            continue
        cost = cost_params.u_h * sum(entry.svrbs)
        if cost < best_cost:
            best, best_cost = entry, cost
    if best is None:
        raise NoFeasibleActionError("nothing qualifies")
    return best


# Few distinct levels, so that rows tie on cost and perfs sit exactly on thresholds.
LEVELS = st.sampled_from([0.0, 4.5, 9.0, 12.0, 12.8])


@st.composite
def oracle_cases(draw):
    k = draw(st.integers(1, 3))
    n = draw(st.integers(1, 12))

    def rows(values):
        return draw(st.lists(st.lists(values, min_size=k, max_size=k), min_size=n, max_size=n))

    dataset = dataset_of([
        OracleEntry(tuple(svrbs), tuple(map(PerfVector, tp, fps)))
        for svrbs, tp, fps in zip(rows(st.integers(1, 4)), rows(LEVELS), rows(LEVELS))
    ])
    specs = [
        SliceSpec(f"s{i}", draw(LEVELS.filter(bool)), draw(LEVELS.filter(bool)), SPECS[0].app_profile)
        for i in range(k)
    ]
    return dataset, specs, CostParams(u_h=draw(st.sampled_from([0.0, 0.5, 1.0, 3.0])))


class TestExSearch:
    def test_finds_the_cheapest_feasible_allocation(self):
        dataset = sweep_dataset(SPECS, CONFIG, ALIVE, CAP)
        best = exsearch_best(dataset, SPECS, CostParams())
        assert best.svrbs == (4, 4, 4)
        assert sum(best.svrbs) == 12

    def test_feasibility_is_per_metric(self):
        # surplus FPS must not excuse a throughput shortfall
        specs = [SliceSpec("a", 12.0, 1.0, TrafficProfile(30.0, 0.5))]
        dataset = dataset_of([
            OracleEntry((1,), (PerfVector(9.0, 18.0),)),
            OracleEntry((4,), (PerfVector(12.8, 25.6),)),
        ])
        assert exsearch_best(dataset, specs, CostParams()).svrbs == (4,)

    def test_a_row_missing_one_metric_of_one_slice_is_infeasible(self):
        specs = [
            SliceSpec("a", 12.0, 10.0, TrafficProfile(30.0, 0.5)),
            SliceSpec("b", 12.0, 10.0, TrafficProfile(30.0, 0.5)),
        ]
        good, thin, slow = PerfVector(12.0, 10.0), PerfVector(11.9, 20.0), PerfVector(20.0, 9.9)
        dataset = dataset_of([
            OracleEntry((1, 1), (good, thin)),
            OracleEntry((1, 2), (slow, good)),
            OracleEntry((2, 2), (good, good)),
        ])
        assert exsearch_best(dataset, specs, CostParams()).svrbs == (2, 2)

    def test_ties_keep_the_lexicographically_first(self):
        specs = [
            SliceSpec("a", 1.0, 1.0, TrafficProfile(30.0, 0.5)),
            SliceSpec("b", 1.0, 1.0, TrafficProfile(30.0, 0.5)),
        ]
        dataset = dataset_of([
            OracleEntry((1, 3), (PerfVector(9.0, 9.0), PerfVector(9.0, 9.0))),
            OracleEntry((2, 2), (PerfVector(9.0, 9.0), PerfVector(9.0, 9.0))),
        ])
        assert exsearch_best(dataset, specs, CostParams()).svrbs == (1, 3)

    def test_one_slice(self):
        specs = [SPECS[0]]
        dataset = sweep_dataset(specs, CONFIG, ALIVE, CAP)
        best = exsearch_best(dataset, specs, CostParams())
        assert best == scan_best(dataset, specs, CostParams())
        assert best.svrbs == (4,)
        assert type(best.svrbs[0]) is int and type(best.perfs[0].fps) is float

    def test_raises_when_nothing_qualifies(self):
        unreachable = [
            SliceSpec(s.slice_id, 1000.0, 1000.0, s.app_profile) for s in SPECS
        ]
        dataset = sweep_dataset(unreachable, CONFIG, ALIVE, CAP)
        with pytest.raises(NoFeasibleActionError):
            exsearch_best(dataset, unreachable, CostParams())

    @given(oracle_cases())
    def test_matches_the_scalar_scan(self, case):
        dataset, specs, cost = case
        try:
            expected = scan_best(dataset, specs, cost)
        except NoFeasibleActionError:
            with pytest.raises(NoFeasibleActionError):
                exsearch_best(dataset, specs, cost)
            return
        assert exsearch_best(dataset, specs, cost) == expected
