"""Baseline optimizers: joint BO, independent BO, and the exhaustive sweep."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sliceorch import baselines
from sliceorch.baselines import (
    GridPortfolioBo,
    OracleEntry,
    atlas_scale,
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


class TestJointGrid:
    def test_counts_three_slices_at_capacity_twelve(self):
        assert joint_grid_size(3, 12) == 220

    def test_count_matches_enumeration(self):
        for n, cap, alive in [(1, 5, 1), (2, 7, 1), (3, 9, 2), (4, 8, 1)]:
            grid = enumerate_joint_grid(n, cap, alive)
            assert len(grid) == joint_grid_size(n, cap, alive)

    def test_infeasible_floor_counts_zero(self):
        assert joint_grid_size(4, 3) == 0

    def test_enumeration_is_lexicographic_and_bounded(self):
        grid = enumerate_joint_grid(2, 3)
        assert grid == [(1, 1), (1, 2), (2, 1)]
        big = enumerate_joint_grid(3, 9)
        assert big == sorted(big)
        assert all(sum(row) <= 9 and min(row) >= 1 for row in big)

    def test_oversized_grid_raises(self):
        with pytest.raises(GridCapExceededError):
            enumerate_joint_grid(3, 12, grid_cap=100)


def make_bo(ids=("a",), capacity=8, seed=3, **algo):
    return GridPortfolioBo(
        list(ids), capacity, substream(seed, "bo"), substream(seed, "bo-hedge"), AlgoParams(**algo)
    )


GOOD = PerfVector(20.0, 20.0)
BAD = PerfVector(0.5, 0.5)
EASY = {
    "a": SliceSpec("a", 1.0, 1.0, TrafficProfile(30.0, 0.5)),
    "b": SliceSpec("b", 1.0, 1.0, TrafficProfile(30.0, 0.5)),
}
ARGS = (EASY, CostParams(), 0.5, 120.0)


class TestGridPortfolioBo:
    def test_cold_start_explores_fresh_rows(self):
        bo = make_bo()
        seen = set()
        for slot in range(4):
            actions = bo.suggest(*ARGS)
            assert actions["a"].svrb not in seen
            seen.add(actions["a"].svrb)
            bo.observe(actions, {"a": GOOD}, *ARGS, slot)
        assert bo.gp is not None

    def test_reobservation_replaces_the_archive_entry(self):
        bo = make_bo(capacity=2)
        actions = {"a": Action(1, 0.0)}
        bo.observe(actions, {"a": BAD}, *ARGS, slot=0)
        bo.observe(actions, {"a": GOOD}, *ARGS, slot=4)
        assert len(bo.archive) == 1
        entry = next(iter(bo.archive.values()))
        assert entry.perfs == {"a": GOOD}
        assert entry.slot == 4

    def test_exhausted_grid_still_suggests(self):
        bo = make_bo(capacity=3, n_init=1)
        for slot, v in enumerate([1, 2, 3]):
            bo.observe({"a": Action(v, 0.0)}, {"a": GOOD}, *ARGS, slot)
        actions = bo.suggest(*ARGS)
        assert (float(actions["a"].svrb),) in bo.archive

    def test_incumbent_follows_the_current_target(self):
        bo = make_bo(capacity=2)
        bo.observe({"a": Action(1, 0.0)}, {"a": BAD}, *ARGS, 0)
        bo.observe({"a": Action(2, 0.0)}, {"a": GOOD}, *ARGS, 1)
        assert bo.incumbent(*ARGS)["a"].svrb == 2
        # priced dear enough and without a violation penalty, the cheap row wins
        assert bo.incumbent(EASY, CostParams(u_h=100.0), 0.5, 0.0)["a"].svrb == 1

    def test_suggestions_are_seed_stable(self):
        runs = []
        for _ in range(2):
            bo = make_bo(("a", "b"), 6, seed=5)
            rng = np.random.default_rng(11)
            rows = []
            for slot in range(6):
                actions = bo.suggest(*ARGS)
                rows.append((actions["a"].svrb, actions["b"].svrb))
                perfs = {sid: PerfVector(*rng.uniform(0.0, 3.0, 2)) for sid in "ab"}
                bo.observe(actions, perfs, *ARGS, slot)
            runs.append(rows)
        assert runs[0] == runs[1]


THREE = {sid: SliceSpec(sid, 2.0, 2.0, TrafficProfile(30.0, 0.5)) for sid in "abc"}
THREE_ARGS = (THREE, CostParams(), 0.5, 120.0)


def varied_perfs(actions):
    """Performance that varies smoothly with the allocation, SLA met or not."""
    total = sum(a.svrb for a in actions.values())
    return {
        sid: PerfVector(w * actions[sid].svrb + 1.0 + np.sin(total), 1.0 + w * actions[sid].svrb)
        for sid, w in zip("abc", (1.0, 0.5, 2.0))
    }


class TestCrossKernelCache:
    def test_cached_prediction_equals_plain_predict(self):
        """Bit-identical across hyperparameter searches and buffer evictions."""
        bo = make_bo("abc", 12, buffer_capacity=8, subsample=6, hyperopt_every=3)
        searches = 0
        for slot in range(30):
            actions = bo.suggest(*THREE_ARGS)
            params = bo.params
            bo.observe(actions, varied_perfs(actions), *THREE_ARGS, slot)
            if bo.gp is None:
                continue
            searches += bo.params != params
            mu, sigma = bo._predict_candidates()
            mu_ref, sigma_ref = bo.gp.predict(bo.candidates)
            assert np.array_equal(mu, mu_ref)
            assert np.array_equal(sigma, sigma_ref)
            buffered = {e.key() for e in bo.buffer.items}
            assert set(bo._columns) <= buffered
            assert len(bo._columns) <= len(bo.buffer)
        assert searches > 0
        assert len(bo.archive) > bo.buffer.capacity  # rows were evicted


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
        actions = bo.suggest(*THREE_ARGS)
        bo.observe(actions, varied_perfs(actions), *THREE_ARGS, slot)
        if bo.gp is None:
            continue
        computed.clear()
        bo._predict_candidates()
        reused += len(computed) < bo.gp.x_train.shape[0]
        assert len(set(computed)) == len(computed)
        assert all(params == bo.gp.params for _, params in computed)
    assert reused > 0


class TestGboBaseline:
    """gbo's optimizer: one GridPortfolioBo over the joint allocation."""

    def make(self, seed=2):
        return GridPortfolioBo(
            ["a", "b"], 6, substream(seed, "gbo"), substream(seed, "gbo-hedge"), AlgoParams()
        )

    def test_suggestions_live_on_the_joint_grid(self):
        gbo = self.make()
        actions = gbo.suggest(*ARGS)
        assert set(actions) == {"a", "b"}
        assert sum(a.svrb for a in actions.values()) <= 6
        assert all(a.sw == 0.0 for a in actions.values())

    def test_incumbent_prefers_cheap_feasible_rows(self):
        gbo = self.make()
        gbo.observe({"a": Action(3, 0.0), "b": Action(3, 0.0)}, {"a": GOOD, "b": GOOD}, *ARGS, slot=0)
        gbo.observe({"a": Action(1, 0.0), "b": Action(1, 0.0)}, {"a": GOOD, "b": GOOD}, *ARGS, slot=1)
        incumbent = gbo.incumbent(*ARGS)
        assert {sid: a.svrb for sid, a in incumbent.items()} == {"a": 1, "b": 1}

    def test_incumbent_avoids_violations(self):
        gbo = self.make()
        gbo.observe({"a": Action(1, 0.0), "b": Action(1, 0.0)}, {"a": BAD, "b": BAD}, *ARGS, slot=0)
        gbo.observe({"a": Action(3, 0.0), "b": Action(3, 0.0)}, {"a": GOOD, "b": GOOD}, *ARGS, slot=1)
        incumbent = gbo.incumbent(*ARGS)
        assert {sid: a.svrb for sid, a in incumbent.items()} == {"a": 3, "b": 3}

    def test_incumbent_without_data_falls_back_to_a_suggestion(self):
        gbo = self.make()
        actions = gbo.incumbent(*ARGS)
        assert sum(a.svrb for a in actions.values()) <= 6


class TestAtlasAgent:
    """atlas's per-slice optimizer: a GridPortfolioBo over one slice."""

    def make(self, seed=2):
        return GridPortfolioBo(
            ["a"], 8, substream(seed, "atlas:a"), substream(seed, "atlas-hedge:a"), AlgoParams()
        )

    def test_suggestions_stay_in_range(self):
        agent = self.make()
        np.testing.assert_array_equal(agent.candidates, np.arange(1, 9, dtype=float)[:, None])
        actions = agent.suggest(*ARGS)
        assert set(actions) == {"a"}
        assert 1 <= actions["a"].svrb <= 8

    def test_incumbent_reprices_on_spec(self):
        agent = self.make()
        agent.observe({"a": Action(2, 0.0)}, {"a": GOOD}, *ARGS, slot=0)
        agent.observe({"a": Action(5, 0.0)}, {"a": GOOD}, *ARGS, slot=1)
        assert agent.incumbent(*ARGS)["a"].svrb == 2
        strict = {"a": SliceSpec("a", 30.0, 30.0, TrafficProfile(30.0, 0.5))}
        # both observations violate the stricter SLA equally; cost breaks the tie
        assert agent.incumbent(strict, CostParams(), 0.5, 120.0)["a"].svrb == 2

    def test_incumbent_without_data_falls_back(self):
        agent = self.make()
        assert 1 <= agent.incumbent(*ARGS)["a"].svrb <= 8


class TestAtlasScale:
    def test_symmetric_overshoot(self):
        out = atlas_scale({"a": 8, "b": 8, "c": 8}, ["a", "b", "c"], 12)
        assert out == {"a": 4, "b": 4, "c": 4}

    def test_under_capacity_untouched(self):
        out = atlas_scale({"a": 5, "b": 3, "c": 2}, ["a", "b", "c"], 12)
        assert out == {"a": 5, "b": 3, "c": 2}

    def test_scaling_is_proportional(self):
        assert atlas_scale({"a": 9, "b": 3}, ["a", "b"], 4) == {"a": 3, "b": 1}

    @given(
        st.lists(st.integers(1, 25), min_size=1, max_size=5),
        st.integers(0, 20),
    )
    def test_scale_invariants(self, values, headroom):
        order = [f"s{i}" for i in range(len(values))]
        proposals = dict(zip(order, values))
        capacity = len(values) + headroom
        out = atlas_scale(proposals, order, capacity)
        assert sum(out.values()) <= capacity
        assert all(out[sid] >= 1 for sid in order)


class TestSweepDataset:
    def test_covers_the_whole_grid(self):
        dataset = sweep_dataset(SPECS, CONFIG)
        assert len(dataset) == 220
        assert [e.svrbs for e in dataset] == enumerate_joint_grid(3, 12)

    def test_known_allocation_performance(self):
        dataset = sweep_dataset(SPECS, CONFIG)
        entry = next(e for e in dataset if e.svrbs == (4, 4, 4))
        assert entry.perfs[0].throughput == pytest.approx(12.8)
        assert entry.perfs[0].fps == pytest.approx(25.6)
        assert entry.perfs[1].fps == pytest.approx(20.48)
        assert entry.perfs[2].fps == pytest.approx(28.444444444444446)

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
        assert sweep_dataset(bursty, noisy) == sweep_dataset(SPECS, CONFIG)

    def test_inactive_slices_are_excluded(self):
        specs = [SPECS[0], SPECS[1], SliceSpec("s3", 12.0, 10.0, SPECS[2].app_profile, active=False)]
        dataset = sweep_dataset(specs, CONFIG)
        assert len(dataset) == joint_grid_size(2, 12)
        assert all(len(e.svrbs) == 2 for e in dataset)


class TestExSearch:
    def test_finds_the_cheapest_feasible_allocation(self):
        dataset = sweep_dataset(SPECS, CONFIG)
        best = exsearch_best(dataset, SPECS, CostParams())
        assert best.svrbs == (4, 4, 4)
        assert sum(best.svrbs) == 12

    def test_feasibility_is_per_metric(self):
        # surplus FPS must not excuse a throughput shortfall
        specs = [SliceSpec("a", 12.0, 1.0, TrafficProfile(30.0, 0.5))]
        dataset = [
            OracleEntry((1,), (PerfVector(9.0, 18.0),)),
            OracleEntry((4,), (PerfVector(12.8, 25.6),)),
        ]
        assert exsearch_best(dataset, specs, CostParams()).svrbs == (4,)

    def test_ties_keep_the_lexicographically_first(self):
        specs = [
            SliceSpec("a", 1.0, 1.0, TrafficProfile(30.0, 0.5)),
            SliceSpec("b", 1.0, 1.0, TrafficProfile(30.0, 0.5)),
        ]
        dataset = [
            OracleEntry((1, 3), (PerfVector(9.0, 9.0), PerfVector(9.0, 9.0))),
            OracleEntry((2, 2), (PerfVector(9.0, 9.0), PerfVector(9.0, 9.0))),
        ]
        assert exsearch_best(dataset, specs, CostParams()).svrbs == (1, 3)

    def test_raises_when_nothing_qualifies(self):
        unreachable = [
            SliceSpec(s.slice_id, 1000.0, 1000.0, s.app_profile) for s in SPECS
        ]
        dataset = sweep_dataset(unreachable, CONFIG)
        with pytest.raises(NoFeasibleActionError):
            exsearch_best(dataset, unreachable, CostParams())
