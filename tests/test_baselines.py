"""Baseline optimizers: joint BO, independent BO, and the exhaustive sweep."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sliceorch import baselines
from sliceorch.baselines import (
    AtlasAgent,
    GboBaseline,
    GridPortfolioBo,
    OracleEntry,
    atlas_scale,
    enumerate_joint_grid,
    exsearch_best,
    joint_grid_size,
    sweep_dataset,
)
from sliceorch.core import Action, CostParams, PerfVector, SliceSpec
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


def make_bo(candidates, seed=3, **kwargs):
    return GridPortfolioBo(
        np.asarray(candidates, dtype=float),
        substream(seed, "bo"),
        substream(seed, "bo-hedge"),
        **kwargs,
    )


def payload_target(exp):
    return float(exp.payload)


def row_sum_target(exp):
    return float(exp.inputs.sum())


class TestGridPortfolioBo:
    def test_cold_start_explores_fresh_rows(self):
        bo = make_bo([[float(i)] for i in range(8)])
        seen = set()
        for slot in range(4):
            row = bo.suggest(payload_target)
            key = tuple(row.tolist())
            assert key not in seen
            seen.add(key)
            bo.observe(row, 1.0, payload_target, slot)
        assert bo.gp is not None

    def test_reobservation_replaces_the_archive_entry(self):
        bo = make_bo([[0.0], [1.0]])
        row = np.array([1.0])
        bo.observe(row, 5.0, payload_target, slot=0)
        bo.observe(row, 2.0, payload_target, slot=4)
        assert len(bo.archive) == 1
        entry = next(iter(bo.archive.values()))
        assert entry.payload == 2.0
        assert entry.slot == 4

    def test_exhausted_grid_still_suggests(self):
        bo = make_bo([[0.0], [1.0], [2.0]], n_init=1)
        for slot, v in enumerate([0.0, 1.0, 2.0]):
            bo.observe(np.array([v]), v, payload_target, slot)
        row = bo.suggest(payload_target)
        assert tuple(row.tolist()) in bo.archive

    def test_incumbent_requires_an_observation(self):
        bo = make_bo([[0.0], [1.0]])
        with pytest.raises(ValueError):
            bo.incumbent(payload_target)

    def test_incumbent_follows_the_current_target(self):
        bo = make_bo([[1.0], [2.0]])
        bo.observe(np.array([1.0]), 10.0, payload_target, 0)
        bo.observe(np.array([2.0]), 1.0, payload_target, 1)
        assert bo.incumbent(payload_target)[0] == 2.0
        assert bo.incumbent(row_sum_target)[0] == 1.0

    def test_suggestions_are_seed_stable(self):
        grid = [[float(i), float(i % 3)] for i in range(10)]
        rng = np.random.default_rng(11)
        rows_a, rows_b = [], []
        for rows, seed in [(rows_a, 5), (rows_b, 5)]:
            bo = make_bo(grid, seed=seed)
            for slot in range(6):
                row = bo.suggest(row_sum_target)
                rows.append(tuple(row.tolist()))
                bo.observe(row, float(rng.uniform()), row_sum_target, slot)
        assert rows_a == rows_b


GOOD = PerfVector(20.0, 20.0)
BAD = PerfVector(0.5, 0.5)
EASY = {
    "a": SliceSpec("a", 1.0, 1.0, TrafficProfile(30.0, 0.5)),
    "b": SliceSpec("b", 1.0, 1.0, TrafficProfile(30.0, 0.5)),
}


class TestCrossKernelCache:
    def test_cached_prediction_equals_plain_predict(self, monkeypatch):
        """Bit-identical across hyperparameter searches and buffer evictions."""
        columns_computed = []
        original = baselines.kernel_matrix

        def counting(a, b, params):
            columns_computed.append(b.shape[0])
            return original(a, b, params)

        monkeypatch.setattr(baselines, "kernel_matrix", counting)
        grid = np.asarray(enumerate_joint_grid(3, 12), dtype=float)
        bo = make_bo(grid, buffer_capacity=8, subsample=6, hyperopt_every=3)
        weights = np.array([1.0, -0.5, 2.0])
        searches = reused = 0
        for slot in range(30):
            row = bo.suggest(payload_target)
            params = bo.params
            bo.observe(row, float(row @ weights + np.sin(row.sum())), payload_target, slot)
            if bo.gp is None:
                continue
            searches += bo.params != params
            columns_computed.clear()
            mu, sigma = bo._predict_candidates()
            reused += sum(columns_computed) < bo.gp.x_train.shape[0]
            mu_ref, sigma_ref = bo.gp.predict(bo.candidates)
            assert np.array_equal(mu, mu_ref)
            assert np.array_equal(sigma, sigma_ref)
            buffered = {e.key() for e in bo.buffer.items}
            assert set(bo._columns) <= buffered
            assert len(bo._columns) <= len(bo.buffer)
        assert searches > 0
        assert reused > 0
        assert len(bo.archive) > bo.buffer.capacity  # rows were evicted


class TestGboBaseline:
    def make(self, seed=2):
        return GboBaseline(
            ["a", "b"], 6, substream(seed, "gbo"), substream(seed, "gbo-hedge")
        )

    def test_suggestions_live_on_the_joint_grid(self):
        gbo = self.make()
        actions = gbo.suggest(EASY, CostParams(), 0.5, 120.0)
        assert set(actions) == {"a", "b"}
        assert sum(a.svrb for a in actions.values()) <= 6
        assert all(a.sw == 0.0 for a in actions.values())

    def test_incumbent_prefers_cheap_feasible_rows(self):
        gbo = self.make()
        args = (EASY, CostParams(), 0.5, 120.0)
        gbo.observe({"a": Action(3, 0.0), "b": Action(3, 0.0)}, {"a": GOOD, "b": GOOD}, *args, slot=0)
        gbo.observe({"a": Action(1, 0.0), "b": Action(1, 0.0)}, {"a": GOOD, "b": GOOD}, *args, slot=1)
        incumbent = gbo.incumbent(*args)
        assert {sid: a.svrb for sid, a in incumbent.items()} == {"a": 1, "b": 1}

    def test_incumbent_avoids_violations(self):
        gbo = self.make()
        args = (EASY, CostParams(), 0.5, 120.0)
        gbo.observe({"a": Action(1, 0.0), "b": Action(1, 0.0)}, {"a": BAD, "b": BAD}, *args, slot=0)
        gbo.observe({"a": Action(3, 0.0), "b": Action(3, 0.0)}, {"a": GOOD, "b": GOOD}, *args, slot=1)
        incumbent = gbo.incumbent(*args)
        assert {sid: a.svrb for sid, a in incumbent.items()} == {"a": 3, "b": 3}

    def test_incumbent_without_data_falls_back_to_a_suggestion(self):
        gbo = self.make()
        actions = gbo.incumbent(EASY, CostParams(), 0.5, 120.0)
        assert sum(a.svrb for a in actions.values()) <= 6


class TestAtlasAgent:
    def make(self, seed=2):
        return AtlasAgent("a", 8, substream(seed, "atlas:a"), substream(seed, "atlas-hedge:a"))

    def test_suggestions_stay_in_range(self):
        agent = self.make()
        svrb = agent.suggest(EASY["a"], CostParams(), 0.5, 120.0)
        assert 1 <= svrb <= 8

    def test_incumbent_reprices_on_spec(self):
        agent = self.make()
        args = (EASY["a"], CostParams(), 0.5, 120.0)
        agent.observe(2, GOOD, *args, slot=0)
        agent.observe(5, GOOD, *args, slot=1)
        assert agent.incumbent(*args) == 2
        strict = SliceSpec("a", 30.0, 30.0, TrafficProfile(30.0, 0.5))
        # both observations violate the stricter SLA equally; cost breaks the tie
        assert agent.incumbent(strict, CostParams(), 0.5, 120.0) == 2

    def test_incumbent_without_data_falls_back(self):
        agent = self.make()
        assert 1 <= agent.incumbent(EASY["a"], CostParams(), 0.5, 120.0) <= 8


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
