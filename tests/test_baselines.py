"""Baseline optimizers: joint BO, independent BO, and the exhaustive sweep."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sliceorch import agent as agent_module
from sliceorch.agent import (
    PREDICT_BLOCK_ROWS,
    AgentContext,
    PortfolioBo,
    SliceAgent,
    barrier_value,
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
    def test_grid_order_scan_finds_what_the_design_walk_skips(self, monkeypatch):
        # The 12-step van der Corput walk over 12 rows never reaches the
        # last one, so svRB 12 comes from the grid-order scan.
        walk = {min(int(agent_module._radical_inverse(i + 1, 2) * 12), 11) for i in range(12)}
        assert sorted(set(range(12)) - walk) == [5, 8, 11]
        monkeypatch.setattr(PortfolioBo, "n_init", 99)
        bo = make_bo(capacity=12)
        for svrb in range(1, 12):
            bo.observe({"a": Action(svrb, 0.0)}, {"a": GOOD}, EASY)
        assert bo.suggest(EASY) == {"a": Action(12, 0.0)}

    def test_next_unexplored_falls_back_to_grid_order_then_to_none(self, monkeypatch):
        # From cursor 0, 12 steps of the van der Corput walk over atlas's
        # 12-row grid miss svRBs 6, 9 and 12.
        walker = make_bo(capacity=12)
        walk = [int(walker.candidates[walker._design_index()][0]) for _ in range(12)]
        assert walk == [7, 4, 10, 2, 8, 5, 11, 1, 7, 4, 10, 3]
        monkeypatch.setattr(PortfolioBo, "n_init", 99)
        bo = make_bo(capacity=12)
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

    def test_exhausted_grid_still_suggests(self, monkeypatch):
        monkeypatch.setattr(PortfolioBo, "n_init", 1)
        bo = make_bo(capacity=3)
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


def scoring_calls(monkeypatch):
    """Each warm proposal's scored row indices, and the mean and deviation scored for them."""
    calls = []
    propose = PortfolioBo._propose

    def recording(self, queries, specs, predict, *args, **kwargs):
        def scored(rows):
            mu, sigma = predict(rows)
            calls.append((np.arange(queries.shape[0])[rows], mu, sigma))
            return mu, sigma

        return propose(self, queries, specs, scored, *args, **kwargs)

    monkeypatch.setattr(PortfolioBo, "_propose", recording)
    return calls


def test_a_warm_suggestion_scores_at_most_one_block_of_rows(monkeypatch):
    """A grid over PREDICT_BLOCK_ROWS rows scores a sorted sample drawn from the
    optimizer's rng; a smaller grid scores every row and draws nothing."""
    calls = scoring_calls(monkeypatch)
    specs = {sid: SliceSpec(sid, 2.0, 2.0, TrafficProfile(30.0, 0.5)) for sid in "abcd"}
    rng = np.random.default_rng(4)
    for ids, capacity in (("abcd", 20), ("abc", 12)):
        bo = make_bo(ids, capacity)
        while not bo._warm():
            actions = bo.suggest(specs)
            bo.observe(actions, {sid: PerfVector(*rng.uniform(0.5, 4.0, 2)) for sid in ids}, specs)
        state = bo.rng.bit_generator.state
        calls.clear()
        bo.suggest(specs)
        ((rows, mu, sigma),) = calls
        mu_ref, sigma_ref = bo.gp.predict(bo.candidates[rows])
        assert np.array_equal(mu, mu_ref) and np.array_equal(sigma, sigma_ref)
        if bo.candidates.shape[0] > PREDICT_BLOCK_ROWS:  # 4,845 rows
            assert rows.shape == (PREDICT_BLOCK_ROWS,)
            assert (np.diff(rows) > 0).all()  # distinct and ascending
            assert bo.rng.bit_generator.state != state
        else:  # 220 rows
            assert np.array_equal(rows, np.arange(bo.candidates.shape[0]))
            assert bo.rng.bit_generator.state == state
        nominees = {tuple(row) for row in bo._last_nominees.tolist()}
        assert nominees <= {tuple(row) for row in bo.candidates[rows].tolist()}


class TestPriceCache:
    """One price per archive entry, renewed when the SLAs change."""

    def check(self, bo, specs):
        fresh = {k: bo._price(o, specs) for k, o in bo.archive.items()}
        assert [(k, o.price) for k, o in bo.archive.items()] == list(fresh.items())

    def test_grid_optimizer_after_an_sla_change(self, monkeypatch):
        monkeypatch.setattr(PortfolioBo, "subsample", 6)
        bo = make_bo("abc", 12)
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
