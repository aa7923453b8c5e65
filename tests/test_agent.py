"""Per-slice agent: objective pieces, design sequence, and recommendations."""

import math
import sys
import threading
import time

import numpy as np
import pytest

from sliceorch import agent as agent_module
from sliceorch.agent import (
    AgentContext,
    CandidateGrid,
    Observation,
    SliceAgent,
    barrier_value,
    design_point,
    proximal_term,
    sla_margin,
)
from sliceorch.core import Action, AlgoParams, CostParams, PerfVector, SliceSpec
from sliceorch.errors import GridCapExceededError
from sliceorch.netenv import TrafficProfile
from sliceorch.rng import substream


ALGO = AlgoParams()
SPEC = SliceSpec("s1", 12.0, 10.0, TrafficProfile(30.0, 0.5))

GOOD = PerfVector(12.8, 25.6)  # margin 0.8 against SPEC
BAD = PerfVector(9.6, 19.2)  # margin -2.4 against SPEC


def make_ctx(z=4.0, y=0.0, rho=2.0, s=0.0, spec=SPEC):
    return AgentContext(z=z, y=y, rho=rho, s=s, spec=spec)


def make_agent(design_offset=0, **algo):
    return SliceAgent(
        "s1", 12, substream(1, "agent:s1"), substream(1, "hedge:s1"), AlgoParams(**algo),
        CostParams(), design_offset=design_offset,
    )


def entry(svrb, sw, peers_sw, perf):
    """An observation of SPEC's slice as make_agent's agent records it."""
    cost = CostParams().u_h * svrb + CostParams().u_s * sw
    return Observation(np.array([svrb, sw, peers_sw], dtype=float), cost, {"s1": perf})


def price(agent, obs, ctx):
    return agent._price(obs, {agent.slice_id: ctx.spec})


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

    # The agent's full objective: its priced target (cost + barrier) plus the
    # consensus proximal term.
    def test_scalarize_sums_the_three_parts(self):
        agent, ctx = make_agent(barrier_coef=1.0), make_ctx(z=4.0, y=0.0)
        value = price(agent, entry(4, 0.0, 0.0, GOOD), ctx) + proximal_term(4, ctx)
        assert value == pytest.approx(4.223143551314209, abs=1e-12)

    def test_scalarize_includes_sharing_price(self):
        agent, ctx = make_agent(barrier_coef=1.0), make_ctx(z=4.0, y=0.0)
        with_w = price(agent, entry(4, 0.3, 0.0, GOOD), ctx) + proximal_term(4, ctx)
        without = price(agent, entry(4, 0.0, 0.0, GOOD), ctx) + proximal_term(4, ctx)
        assert with_w == pytest.approx(without + 0.3)


class TestGrid:
    def test_capacity_grid_shape(self):
        grid = CandidateGrid.for_capacity(12, ALGO.min_alive)
        assert grid.svrb_values == tuple(range(1, 13))
        assert grid.sw_values == tuple(round(i * 0.1, 10) for i in range(11))
        assert grid.points().shape == (132, 2)

    def test_default_lattice(self):
        lattice = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
        assert CandidateGrid.for_capacity(12, ALGO.min_alive).sw_values == lattice

    @pytest.mark.parametrize("settings", [{}, {"min_alive": 2}])
    def test_agent_builds_the_grid_of_its_capacity(self, settings):
        grid = CandidateGrid.for_capacity(12, AlgoParams(**settings).min_alive)
        assert make_agent(**settings).grid == grid

    def test_agent_grid_is_capped_before_it_is_built(self):
        assert len(make_agent(grid_cap=132).grid.points()) == 132  # 12 svRBs x 11 weights
        with pytest.raises(GridCapExceededError, match="has 132 actions, over the cap of 131"):
            make_agent(grid_cap=131)

    def test_unshared_pool_offers_weight_zero_alone(self):
        agent = SliceAgent(
            "s1", 12, substream(1, "agent:s1"), substream(1, "hedge:s1"), AlgoParams(grid_cap=12),
            CostParams(), shares_pool=False,
        )
        assert agent.grid == CandidateGrid(tuple(range(1, 13)), (0.0,))
        assert CandidateGrid.for_capacity(12, 1, shares_pool=False) == agent.grid

    def test_points_are_svrb_major(self):
        pts = CandidateGrid.for_capacity(3, ALGO.min_alive).points()
        assert list(pts[0]) == [1.0, 0.0]
        assert list(pts[1]) == [1.0, 0.1]
        assert list(pts[11]) == [2.0, 0.0]

    def test_design_sequence_is_frozen(self):
        grid = CandidateGrid.for_capacity(12, ALGO.min_alive)
        first = [design_point(grid, i) for i in range(6)]
        assert first == [(7, 0.3), (4, 0.7), (10, 0.1), (2, 0.4), (8, 0.8), (5, 0.2)]
        assert design_point(grid, 17) == (4, 0.0)

    def test_design_points_stay_on_the_grid(self):
        grid = CandidateGrid.for_capacity(9, ALGO.min_alive)
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
        agent.observe(Action(4, 0.0), GOOD, ctx)
        assert (4, 0.0, 0.0) in agent.archive
        assert len(agent.buffer) == 1

    def test_reobservation_overwrites_the_archive_entry(self):
        agent = make_agent()
        ctx = make_ctx()
        agent.observe(Action(4, 0.0), GOOD, ctx)
        agent.observe(Action(4, 0.0), BAD, ctx)
        assert len(agent.archive) == 1
        assert agent.archive[(4, 0.0, 0.0)].perfs == {"s1": BAD}

    def test_suggestions_stay_on_grid_once_fitted(self):
        agent = make_agent(n_init=2)
        ctx = make_ctx()
        for slot in range(6):
            action = agent.suggest(ctx)
            assert action.svrb in agent.grid.svrb_values
            assert action.sw in agent.grid.sw_values
            perf = GOOD if action.svrb >= 4 else BAD
            agent.observe(action, perf, ctx)
        assert agent.gp is not None


class TestTrainingWindow:
    """The archive in probe order; its last `buffer_capacity` entries train the surrogate."""

    def probe(self, agent, *svrbs, perf=GOOD):
        for svrb in svrbs:
            agent.observe(Action(svrb, 0.0), perf, make_ctx())

    def test_oldest_input_leaves_the_window_but_stays_archived(self):
        agent = make_agent(buffer_capacity=3)
        self.probe(agent, 1, 2, 3, 4, 5)
        assert [o.x[0] for o in agent.buffer] == [3.0, 4.0, 5.0]
        assert [key[0] for key in agent.archive] == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_reprobe_replaces_its_entry_at_the_window_end(self):
        agent = make_agent(buffer_capacity=4)
        self.probe(agent, 1, 2)
        self.probe(agent, 1, perf=BAD)
        assert [o.x[0] for o in agent.buffer] == [2.0, 1.0]
        assert agent.buffer[-1].perfs == {"s1": BAD}
        assert len(agent.archive) == 2

    def test_reprobe_brings_an_input_back_into_the_window(self):
        agent = make_agent(buffer_capacity=2)
        self.probe(agent, 1, 2, 3, 1)
        assert [o.x[0] for o in agent.buffer] == [3.0, 1.0]
        assert [key[0] for key in agent.archive] == [2.0, 3.0, 1.0]

    def test_prices_follow_the_archive_order(self):
        # _propose adds the offset of the archive's rows to the prices element by element
        agent = make_agent()
        self.probe(agent, 1, 2, 3)
        self.probe(agent, 1, perf=BAD)
        prices = agent._prices({agent.slice_id: SPEC})
        assert list(prices) == list(agent.archive)
        assert prices[(1.0, 0.0, 0.0)] == price(agent, agent.archive[(1.0, 0.0, 0.0)], make_ctx())

    def test_a_window_no_larger_than_the_subsample_trains_whole(self):
        agent = make_agent(buffer_capacity=8, subsample=4)
        self.probe(agent, 1, 2, 3, 4)
        assert np.array_equal(agent.gp.x_train, np.stack([o.x for o in agent.buffer]))

    def test_a_larger_window_trains_on_a_subsample_of_distinct_entries(self):
        agent = make_agent(buffer_capacity=6, subsample=3)
        self.probe(agent, 1, 2, 3, 4, 5, 6, 7)
        window = {o.key() for o in agent.buffer}
        drawn = [tuple(row) for row in agent.gp.x_train.tolist()]
        assert len(drawn) == len(set(drawn)) == 3
        assert set(drawn) <= window


class TestIncumbent:
    def test_incumbent_reprices_under_the_context(self, monkeypatch):
        # The best objective so far, which the acquisitions improve on, is
        # the archive re-priced under the context, proximal term included.
        agent = make_agent()
        agent.archive[(4, 0.0, 0.0)] = entry(4, 0.0, 0.0, GOOD)
        ctx = make_ctx(z=0.0, y=0.0, rho=2.0)
        bests = []

        def nominate(mu, sigma, best, kappa):
            bests.append(best)
            return np.zeros(3, dtype=int)

        monkeypatch.setattr(agent_module, "portfolio_nominate", nominate)
        agent._propose(
            np.array([[4.0, 0.0, 0.0]]),
            {"s1": ctx.spec},
            lambda rows: (np.zeros(1), np.ones(1)),
            lambda: None,
            offset=lambda rows: proximal_term(rows[:, 0], ctx),
        )
        expected = 4.0 - 0.5 * math.log(0.8) + 0.5 * 2.0 * 16.0
        assert bests == [pytest.approx(expected)]


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


def force_cpus(monkeypatch, n):
    """A fresh pool, as if the process's CPU affinity held `n` CPUs."""
    monkeypatch.setattr(agent_module.os, "sched_getaffinity", lambda _: set(range(n)), raising=False)
    monkeypatch.setattr(agent_module, "_pool", None)


class TestParallelMap:
    def test_results_keep_item_order(self, monkeypatch):
        force_cpus(monkeypatch, 2)

        def square(x):
            time.sleep(0.002 * (x % 3))  # later items often finish first
            return x * x

        assert agent_module.parallel_map(square, list(range(17))) == [x * x for x in range(17)]

    def test_caller_takes_every_other_item_beside_one_helper(self, monkeypatch):
        force_cpus(monkeypatch, 8)  # still one helper
        main = threading.get_ident()
        ran_on = agent_module.parallel_map(lambda _: threading.get_ident(), list(range(9)))
        assert [t == main for t in ran_on] == [i % 2 == 0 for i in range(9)]
        assert len(set(ran_on[1::2])) == 1
        agent_module._pool[1].shutdown()

    def test_first_exception_in_item_order_propagates_after_every_item(self, monkeypatch):
        force_cpus(monkeypatch, 2)
        finished = []

        def task(x):
            if x in (4, 3):  # 4 is the caller's, 3 the helper's
                raise ValueError(f"item {x}")
            time.sleep(0.01 if x == 5 else 0.0)
            finished.append(x)
            return x

        with pytest.raises(ValueError, match="item 3"):
            agent_module.parallel_map(task, list(range(8)))
        assert sorted(finished) == [0, 1, 2, 5, 6, 7]

    def test_runs_inline_without_helpers(self, monkeypatch):
        force_cpus(monkeypatch, 1)
        main = threading.get_ident()
        assert agent_module.parallel_map(lambda _: threading.get_ident(), [1, 2, 3]) == [main] * 3
        assert agent_module._pool[1] is None
        with pytest.raises(KeyError):
            agent_module.parallel_map(lambda x: {}[x], [1, 2])

    @pytest.mark.parametrize("cpu_count, helped", [(None, False), (1, False), (4, True)])
    def test_falls_back_to_cpu_count_without_affinity(self, monkeypatch, cpu_count, helped):
        monkeypatch.delattr(agent_module.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(agent_module.os, "cpu_count", lambda: cpu_count)
        monkeypatch.setattr(agent_module, "_pool", None)
        main = threading.get_ident()
        ran_on = agent_module.parallel_map(lambda _: threading.get_ident(), [1, 2])
        assert (ran_on[1] != main) == helped == (agent_module._pool[1] is not None)
        assert ran_on[0] == main

    def test_runs_a_single_item_inline(self, monkeypatch):
        force_cpus(monkeypatch, 2)
        assert agent_module.parallel_map(lambda _: threading.get_ident(), [0]) == [
            threading.get_ident()
        ]
        assert agent_module.parallel_map(lambda x: x, []) == []

    def test_pool_is_rebuilt_after_a_pid_change(self, monkeypatch):
        force_cpus(monkeypatch, 2)
        assert agent_module.parallel_map(lambda x: -x, [1, 2, 3]) == [-1, -2, -3]
        pid, first = agent_module._pool
        assert first is not None
        monkeypatch.setattr(agent_module.os, "getpid", lambda: pid + 1)
        main = threading.get_ident()
        ran_on = agent_module.parallel_map(lambda _: threading.get_ident(), [1, 2, 3])
        assert agent_module._pool[0] == pid + 1
        assert agent_module._pool[1] is not first
        assert ran_on[0] == ran_on[2] == main != ran_on[1]
        first.shutdown()

    def test_concurrent_column_writes_are_all_kept(self, monkeypatch):
        """The caller and the helper writing columns, switching threads often: no write is lost."""
        force_cpus(monkeypatch, 2)
        out = np.zeros((2000, 64), order="F")

        def fill(j):
            out[:, j] = np.arange(2000.0) * j
            return j

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                out[:] = 0.0
                assert agent_module.parallel_map(fill, list(range(64))) == list(range(64))
                assert np.array_equal(out, np.outer(np.arange(2000.0), np.arange(64.0)))
        finally:
            sys.setswitchinterval(interval)

