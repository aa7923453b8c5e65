"""Per-slice agent: objective pieces, design sequence, and recommendations."""

import math

import numpy as np
import pytest

from sliceorch.agent import (
    AgentContext,
    CandidateGrid,
    SliceAgent,
    barrier_value,
    design_point,
    proximal_term,
    scalarize,
    sla_margin,
)
from sliceorch.core import Action, AlgoParams, CostParams, PerfVector, SliceSpec
from sliceorch.gp import Experience, GpInput
from sliceorch.netenv import TrafficProfile
from sliceorch.rng import substream


SPEC = SliceSpec("s1", 12.0, 10.0, TrafficProfile(30.0, 0.5))

GOOD = PerfVector(12.8, 25.6)  # margin 0.8 against SPEC
BAD = PerfVector(9.6, 19.2)  # margin -2.4 against SPEC


def make_ctx(z=4.0, y=0.0, rho=2.0, s=0.0, coef=0.5, penalty=120.0, spec=SPEC):
    return AgentContext(
        z=z, y=y, rho=rho, s=s, spec=spec, cost_params=CostParams(),
        barrier_coef=coef, violation_penalty=penalty,
    )


def make_agent(design_offset=0, **algo):
    grid = CandidateGrid.for_capacity(12)
    return SliceAgent(
        "s1", grid, substream(1, "agent:s1"), substream(1, "hedge:s1"), AlgoParams(**algo),
        design_offset=design_offset,
    )


def entry(svrb, sw, peers_sw, perf, slot=0):
    return Experience(GpInput(float(svrb), float(sw), float(peers_sw)), perf, slot)


class TestObjective:
    def test_margin_is_the_binding_metric_in_throughput_units(self):
        # FPS shortfall of 1 scales by 12/10 and binds below the throughput surplus
        assert sla_margin(PerfVector(13.0, 9.0), SPEC) == pytest.approx(-1.2)
        assert sla_margin(GOOD, SPEC) == pytest.approx(0.8)

    def test_barrier_prices_the_boundary(self):
        assert barrier_value(GOOD, SPEC, 1.0, 120.0) == pytest.approx(
            -math.log(0.8), abs=1e-12
        )
        assert barrier_value(GOOD, SPEC, 0.5, 120.0) == pytest.approx(
            -0.5 * math.log(0.8), abs=1e-12
        )

    def test_violations_pay_penalty_plus_depth(self):
        assert barrier_value(BAD, SPEC, 1.0, 120.0) == pytest.approx(122.4)

    def test_proximal_term_quadratic_in_disagreement(self):
        ctx = make_ctx(z=4.0, y=1.0, rho=2.0)
        assert proximal_term(6.0, ctx) == pytest.approx(0.5 * 2.0 * 9.0)

    def test_scalarize_sums_the_three_parts(self):
        ctx = make_ctx(z=4.0, y=0.0, coef=1.0)
        value = scalarize(Action(4, 0.0), GOOD, ctx)
        assert value == pytest.approx(4.223143551314209, abs=1e-12)

    def test_scalarize_includes_sharing_price(self):
        ctx = make_ctx(z=4.0, y=0.0, coef=1.0)
        with_w = scalarize(Action(4, 0.3), GOOD, ctx)
        without = scalarize(Action(4, 0.0), GOOD, ctx)
        assert with_w == pytest.approx(without + 0.3)


class TestGrid:
    def test_capacity_grid_shape(self):
        grid = CandidateGrid.for_capacity(12)
        assert grid.svrb_values == tuple(range(1, 13))
        assert grid.sw_values == tuple(round(i * 0.1, 10) for i in range(11))
        assert grid.points().shape == (132, 2)

    def test_points_are_svrb_major(self):
        pts = CandidateGrid.for_capacity(3).points()
        assert list(pts[0]) == [1.0, 0.0]
        assert list(pts[1]) == [1.0, 0.1]
        assert list(pts[11]) == [2.0, 0.0]

    def test_design_sequence_is_frozen(self):
        grid = CandidateGrid.for_capacity(12)
        first = [design_point(grid, i) for i in range(6)]
        assert first == [(7, 0.3), (4, 0.7), (10, 0.1), (2, 0.4), (8, 0.8), (5, 0.2)]
        assert design_point(grid, 17) == (4, 0.0)

    def test_design_points_stay_on_the_grid(self):
        grid = CandidateGrid.for_capacity(9)
        for i in range(80):
            svrb, sw = design_point(grid, i)
            assert svrb in grid.svrb_values
            assert sw in grid.sw_values


class TestColdStart:
    def test_first_suggestions_walk_the_design(self):
        agent = make_agent()
        ctx = make_ctx()
        assert agent.suggest(ctx) == Action(7, 0.3)
        assert agent.suggest(ctx) == Action(4, 0.7)

    def test_offset_staggers_agents(self):
        agent = make_agent(design_offset=1)
        assert agent.suggest(make_ctx()) == Action(4, 0.7)

    def test_observe_fills_archive_and_buffer(self):
        agent = make_agent()
        ctx = make_ctx()
        agent.observe(Action(4, 0.0), GOOD, ctx, slot=0)
        assert (4, 0.0, 0.0) in agent.archive
        assert len(agent.buffer) == 1

    def test_reobservation_overwrites_the_archive_entry(self):
        agent = make_agent()
        ctx = make_ctx()
        agent.observe(Action(4, 0.0), GOOD, ctx, slot=0)
        agent.observe(Action(4, 0.0), BAD, ctx, slot=3)
        assert len(agent.archive) == 1
        assert agent.archive[(4, 0.0, 0.0)].slot == 3

    def test_suggestions_stay_on_grid_once_fitted(self):
        agent = make_agent(n_init=2)
        ctx = make_ctx()
        for slot in range(6):
            action = agent.suggest(ctx)
            assert action.svrb in agent.grid.svrb_values
            assert action.sw in agent.grid.sw_values
            perf = GOOD if action.svrb >= 4 else BAD
            agent.observe(action, perf, ctx, slot)
        assert agent.gp is not None


class TestIncumbent:
    def test_incumbent_reprices_under_the_context(self):
        agent = make_agent()
        agent.archive[(4, 0.0, 0.0)] = entry(4, 0.0, 0.0, GOOD)
        ctx = make_ctx(z=0.0, y=0.0, rho=2.0)
        expected = 4.0 - 0.5 * math.log(0.8) + 0.5 * 2.0 * 16.0
        assert agent._incumbent(ctx) == pytest.approx(expected)


class TestRecommend:
    def test_prefers_cheapest_feasible_weight_free_entry(self):
        agent = make_agent()
        agent.archive[(4, 0.0, 0.0)] = entry(4, 0.0, 0.0, GOOD)
        agent.archive[(5, 0.0, 0.0)] = entry(5, 0.0, 0.0, PerfVector(16.0, 30.0))
        assert agent.recommend(make_ctx()) == Action(4, 0.0)

    def test_ignores_consensus_pressure(self):
        # The committed action is a business decision, not a negotiation move
        agent = make_agent()
        agent.archive[(4, 0.0, 0.0)] = entry(4, 0.0, 0.0, GOOD)
        agent.archive[(5, 0.0, 0.0)] = entry(5, 0.0, 0.0, PerfVector(16.0, 30.0))
        assert agent.recommend(make_ctx(z=12.0, y=5.0)) == Action(4, 0.0)

    def test_infeasible_weight_free_entry_is_never_committed(self):
        agent = make_agent()
        agent.archive[(3, 0.0, 0.0)] = entry(3, 0.0, 0.0, BAD)
        agent.archive[(4, 0.0, 0.0)] = entry(4, 0.0, 0.0, GOOD)
        assert agent.recommend(make_ctx()) == Action(4, 0.0)

    def test_cheap_sharing_entry_challenges_with_weight_zeroed(self):
        # svrb 2 was only ever seen share-boosted; committing tests it weight-free
        agent = make_agent()
        agent.archive[(4, 0.0, 0.0)] = entry(4, 0.0, 0.0, GOOD)
        agent.archive[(2, 0.3, 0.2)] = entry(2, 0.3, 0.2, GOOD)
        assert agent.recommend(make_ctx()) == Action(2, 0.0)

    def test_failed_challenge_is_ruled_out(self):
        agent = make_agent()
        agent.archive[(4, 0.0, 0.0)] = entry(4, 0.0, 0.0, GOOD)
        agent.archive[(2, 0.3, 0.2)] = entry(2, 0.3, 0.2, GOOD)
        agent.archive[(2, 0.0, 0.0)] = entry(2, 0.0, 0.0, BAD)
        assert agent.recommend(make_ctx()) == Action(4, 0.0)

    def test_expensive_untested_entries_do_not_challenge(self):
        agent = make_agent()
        agent.archive[(4, 0.0, 0.0)] = entry(4, 0.0, 0.0, GOOD)
        agent.archive[(9, 0.1, 0.0)] = entry(9, 0.1, 0.0, PerfVector(16.0, 30.0))
        assert agent.recommend(make_ctx()) == Action(4, 0.0)

    def test_least_bad_entry_when_nothing_feasible(self):
        agent = make_agent()
        agent.archive[(3, 0.0, 0.0)] = entry(3, 0.0, 0.0, BAD)
        assert agent.recommend(make_ctx()) == Action(3, 0.0)

    def test_weight_is_always_zeroed(self):
        agent = make_agent()
        agent.archive[(5, 0.4, 0.3)] = entry(5, 0.4, 0.3, PerfVector(16.0, 30.0))
        assert agent.recommend(make_ctx()) == Action(5, 0.0)

    def test_repricing_follows_threshold_changes(self):
        # Doubled thresholds turn the old incumbent infeasible; the stored
        # svrb 5 outcome still clears them and takes over
        agent = make_agent()
        agent.archive[(4, 0.0, 0.0)] = entry(4, 0.0, 0.0, GOOD)
        agent.archive[(5, 0.2, 0.4)] = entry(5, 0.2, 0.4, PerfVector(16.0, 30.0))
        doubled = SliceSpec("s1", 14.0, 20.0, TrafficProfile(30.0, 0.5))
        assert agent.recommend(make_ctx(spec=doubled)) == Action(5, 0.0)
