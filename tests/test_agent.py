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
from sliceorch.netenv import TrafficProfile
from sliceorch.rng import substream


ALGO = AlgoParams()
SPEC = SliceSpec("s1", 12.0, 10.0, TrafficProfile(30.0, 0.5))

GOOD = PerfVector(12.8, 25.6)  # margin 0.8 against SPEC
BAD = PerfVector(9.6, 19.2)  # margin -2.4 against SPEC


def make_ctx(z=4.0, y=0.0, rho=2.0, s=0.0, spec=SPEC):
    return AgentContext(z=z, y=y, rho=rho, s=s, spec=spec)


def make_agent(design_offset=0, **algo):
    params = AlgoParams(**algo)
    grid = CandidateGrid.for_capacity(12, params.min_alive, params.sw_step)
    return SliceAgent(
        "s1", grid, substream(1, "agent:s1"), substream(1, "hedge:s1"), params,
        CostParams(), params.penalty(CostParams(), 12), design_offset=design_offset,
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
        grid = CandidateGrid.for_capacity(12, ALGO.min_alive, ALGO.sw_step)
        assert grid.svrb_values == tuple(range(1, 13))
        assert grid.sw_values == tuple(round(i * 0.1, 10) for i in range(11))
        assert grid.points().shape == (132, 2)

    def test_points_are_svrb_major(self):
        pts = CandidateGrid.for_capacity(3, ALGO.min_alive, ALGO.sw_step).points()
        assert list(pts[0]) == [1.0, 0.0]
        assert list(pts[1]) == [1.0, 0.1]
        assert list(pts[11]) == [2.0, 0.0]

    def test_design_sequence_is_frozen(self):
        grid = CandidateGrid.for_capacity(12, ALGO.min_alive, ALGO.sw_step)
        first = [design_point(grid, i) for i in range(6)]
        assert first == [(7, 0.3), (4, 0.7), (10, 0.1), (2, 0.4), (8, 0.8), (5, 0.2)]
        assert design_point(grid, 17) == (4, 0.0)

    def test_design_points_stay_on_the_grid(self):
        grid = CandidateGrid.for_capacity(9, ALGO.min_alive, ALGO.sw_step)
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
    """A fresh helper pool of `n` - 1 threads, as if `n` CPUs and workers were allowed."""
    monkeypatch.setattr(agent_module, "_cpu_count", lambda: n)
    monkeypatch.setattr(agent_module, "MAX_WORKERS", n)
    monkeypatch.setattr(agent_module, "_pool", None)


class TestParallelMap:
    def test_results_keep_item_order(self, monkeypatch):
        force_cpus(monkeypatch, 3)

        def square(x):
            time.sleep(0.002 * (x % 3))  # later items often finish first
            return x * x

        assert agent_module.parallel_map(square, list(range(17))) == [x * x for x in range(17)]

    def test_caller_takes_every_other_item_beside_one_helper(self, monkeypatch):
        force_cpus(monkeypatch, 2)
        main = threading.get_ident()
        ran_on = agent_module.parallel_map(lambda _: threading.get_ident(), list(range(9)))
        assert [t == main for t in ran_on] == [i % 2 == 0 for i in range(9)]

    def test_first_exception_in_item_order_propagates_after_every_item(self, monkeypatch):
        force_cpus(monkeypatch, 2)
        finished = []

        def task(x):
            if x in (4, 3):  # 4 is the caller's, 3 a helper's
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
        assert agent_module._pool[1:] == (None, 0)
        with pytest.raises(KeyError):
            agent_module.parallel_map(lambda x: {}[x], [1, 2])

    def test_runs_a_single_item_inline(self, monkeypatch):
        force_cpus(monkeypatch, 2)
        assert agent_module.parallel_map(lambda _: threading.get_ident(), [0]) == [
            threading.get_ident()
        ]
        assert agent_module.parallel_map(lambda x: x, []) == []

    def test_pool_stops_at_max_workers(self, monkeypatch):
        monkeypatch.setattr(agent_module, "_cpu_count", lambda: 8)
        monkeypatch.setattr(agent_module, "_pool", None)
        assert agent_module.parallel_map(lambda x: x, [1, 2, 3]) == [1, 2, 3]
        assert agent_module._pool[2] == agent_module.MAX_WORKERS - 1
        agent_module._pool[1].shutdown()

    def test_pool_is_rebuilt_after_a_pid_change(self, monkeypatch):
        force_cpus(monkeypatch, 2)
        assert agent_module.parallel_map(lambda x: -x, [1, 2, 3]) == [-1, -2, -3]
        pid, first, helpers = agent_module._pool
        assert helpers == 1
        monkeypatch.setattr(agent_module.os, "getpid", lambda: pid + 1)
        main = threading.get_ident()
        ran_on = agent_module.parallel_map(lambda _: threading.get_ident(), [1, 2, 3])
        assert agent_module._pool[0] == pid + 1
        assert agent_module._pool[1] is not first
        assert ran_on[0] == ran_on[2] == main != ran_on[1]
        first.shutdown()

    def test_concurrent_column_writes_are_all_kept(self, monkeypatch):
        """More helpers than CPUs, switching threads often: no write is lost."""
        force_cpus(monkeypatch, 5)
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


class TestCpuCount:
    @pytest.mark.parametrize(
        "files, quota",
        [
            ({"cpu.max": "150000 100000\n"}, 1.5),
            ({"cpu.max": "max 100000\n"}, None),
            ({"cpu/cpu.cfs_quota_us": "200000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 2.0),
            ({"cpu/cpu.cfs_quota_us": "-1\n", "cpu/cpu.cfs_period_us": "100000\n"}, None),
            ({}, None),
        ],
    )
    def test_cgroup_quota_from_v2_or_v1_files(self, tmp_path, files, quota):
        for name, text in files.items():
            (tmp_path / name).parent.mkdir(exist_ok=True)
            (tmp_path / name).write_text(text)
        assert agent_module._cgroup_cpu_quota(tmp_path) == quota

    @pytest.mark.parametrize("quota, cpus", [(None, 8), (1.5, 2), (0.5, 1), (16.0, 8)])
    def test_quota_caps_the_affinity(self, monkeypatch, quota, cpus):
        monkeypatch.setattr(agent_module.os, "sched_getaffinity", lambda _: set(range(8)), raising=False)
        monkeypatch.setattr(agent_module, "_cgroup_cpu_quota", lambda: quota)
        assert agent_module._cpu_count() == cpus
