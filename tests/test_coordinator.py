"""Consensus projection, capacity fitting, and the per-slot loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from sliceorch import coordinator
from sliceorch.agent import SliceAgent
from sliceorch.coordinator import (
    CoordinatorState,
    SlotOutcome,
    clamp_capacity,
    dual_update,
    orchestrate_slot,
    project_consensus,
    resize,
    spread_capacity,
)
from sliceorch.core import Action, AlgoParams, CostParams, SliceSpec
from sliceorch.errors import InfeasibleCapacityError
from sliceorch.netenv import EnvConfig, RanEnvironment, TrafficProfile
from sliceorch.rng import substream

ALGO = AlgoParams()


def new_state(**variables):
    """A consensus state at the scenario defaults."""
    return CoordinatorState(ALGO.rho, ALGO.max_iters, **variables)


def oracle_projection(c: np.ndarray, capacity: float) -> np.ndarray:
    """Reference solver for the slab projection, via SLSQP."""
    res = minimize(
        lambda z: float(((z - c) ** 2).sum()),
        x0=np.clip(c, 0.0, None) * 0.5,
        jac=lambda z: 2.0 * (z - c),
        method="SLSQP",
        constraints=[
            {"type": "ineq", "fun": lambda z: capacity - z.sum()},
            {"type": "ineq", "fun": lambda z: z.sum()},
        ],
        options={"ftol": 1e-12, "maxiter": 300},
    )
    assert res.success
    return res.x


class TestProjection:
    def test_over_capacity_shifts_equally(self):
        z = project_consensus(np.array([5.0, 5.0, 5.0]), np.zeros(3), 12.0)
        assert np.allclose(z, [4.0, 4.0, 4.0])

    def test_negative_total_shifts_up(self):
        z = project_consensus(np.array([2.0, 2.0]), np.array([-3.0, -3.0]), 12.0)
        assert np.allclose(z, [0.0, 0.0])

    def test_interior_point_is_untouched(self):
        z = project_consensus(np.array([3.0, 4.0]), np.array([0.5, -0.5]), 12.0)
        assert np.allclose(z, [3.5, 3.5])

    def test_matches_reference_solver(self):
        rng = np.random.default_rng(7)
        for _ in range(12):
            n = int(rng.integers(1, 4))
            x = rng.uniform(0.0, 10.0, n)
            y = rng.uniform(-6.0, 3.0, n)
            capacity = float(rng.integers(4, 13))
            expected = oracle_projection(x + y, capacity)
            assert np.allclose(project_consensus(x, y, capacity), expected, atol=1e-5)

    @given(
        st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=6),
        st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=6),
        st.integers(1, 30),
    )
    def test_projection_invariants(self, xs, ys, capacity):
        n = min(len(xs), len(ys))
        x = np.array(xs[:n])
        y = np.array(ys[:n])
        z = project_consensus(x, y, float(capacity))
        c = x + y
        assert -1e-9 <= z.sum() <= capacity + 1e-9
        # the slab constrains only the total, so the shift is uniform
        assert np.allclose(z - c, (z - c)[0])
        if 0.0 <= c.sum() <= capacity:
            assert np.allclose(z, c)


class TestDual:
    def test_accumulates_disagreement(self):
        y = dual_update(np.array([1.0, -2.0]), np.array([4.0, 4.0]), np.array([3.0, 5.0]))
        assert np.allclose(y, [2.0, -3.0])

    def test_settle_sequence_from_pessimistic_dual(self):
        # A lone slice proposing 4 against y = -5 reaches the fixed point
        # (z = 4, y = 0) in three rounds: the dual decays before z catches up.
        x = np.array([4.0])
        y = np.array([-5.0])
        seen = []
        for _ in range(3):
            z = project_consensus(x, y, 12.0)
            y = dual_update(y, x, z)
            seen.append((float(z[0]), float(y[0])))
        assert seen == [(0.0, -1.0), (3.0, 0.0), (4.0, 0.0)]


class TestClamp:
    def test_symmetric_overshoot(self):
        out = clamp_capacity({"a": 5, "b": 5, "c": 5}, ["a", "b", "c"], 12, ALGO.min_alive)
        assert out == {"a": 4, "b": 4, "c": 4}

    def test_largest_first(self):
        out = clamp_capacity({"a": 6, "b": 4, "c": 4}, ["a", "b", "c"], 12, ALGO.min_alive)
        assert out == {"a": 4, "b": 4, "c": 4}

    def test_ties_break_by_order(self):
        assert clamp_capacity({"a": 3, "b": 3}, ["a", "b"], 5, ALGO.min_alive) == {"a": 2, "b": 3}

    def test_respects_min_alive(self):
        out = clamp_capacity({"a": 1, "b": 5}, ["a", "b"], 4, ALGO.min_alive)
        assert out == {"a": 1, "b": 3}

    def test_impossible_floor_raises(self):
        with pytest.raises(InfeasibleCapacityError):
            clamp_capacity({"a": 2, "b": 2, "c": 2}, ["a", "b", "c"], 5, min_alive=2)

    @given(
        st.lists(st.integers(1, 20), min_size=1, max_size=6),
        st.integers(0, 30),
    )
    def test_clamp_invariants(self, values, headroom):
        order = [f"s{i}" for i in range(len(values))]
        svrbs = dict(zip(order, values))
        capacity = len(values) + headroom
        out = clamp_capacity(svrbs, order, capacity, ALGO.min_alive)
        assert sum(out.values()) <= capacity
        for sid in order:
            assert 1 <= out[sid] <= svrbs[sid]
        if sum(values) <= capacity:
            assert out == svrbs


class TestSpread:
    @pytest.mark.parametrize(
        "svrbs, expected",
        [
            ((5, 4, 4), (5, 4, 3)),
            ((12, 4, 4), (10, 1, 1)),
            ((7, 4, 10), (4, 1, 7)),
            ((12, 12, 12), (4, 4, 4)),
            ((1, 1, 12), (1, 1, 10)),
        ],
    )
    def test_equal_shift_examples(self, svrbs, expected):
        order = ["a", "b", "c"]
        out = spread_capacity(dict(zip(order, svrbs)), order, 12, ALGO.min_alive)
        assert tuple(out[sid] for sid in order) == expected

    def test_under_capacity_is_identity(self):
        order = ["a", "b"]
        assert spread_capacity({"a": 3, "b": 2}, order, 12, ALGO.min_alive) == {"a": 3, "b": 2}

    def test_preserves_contrast_where_clamp_flattens(self):
        order = ["a", "b", "c"]
        svrbs = {"a": 12, "b": 4, "c": 4}
        spread = spread_capacity(svrbs, order, 12, ALGO.min_alive)
        clamp = clamp_capacity(svrbs, order, 12, ALGO.min_alive)
        assert spread["a"] - spread["b"] > clamp["a"] - clamp["b"]

    def test_impossible_floor_raises(self):
        with pytest.raises(InfeasibleCapacityError):
            spread_capacity({"a": 2, "b": 2}, ["a", "b"], 3, min_alive=2)

    @given(
        st.lists(st.integers(1, 20), min_size=1, max_size=6),
        st.integers(0, 30),
    )
    def test_spread_invariants(self, values, headroom):
        order = [f"s{i}" for i in range(len(values))]
        svrbs = dict(zip(order, values))
        capacity = len(values) + headroom
        out = spread_capacity(svrbs, order, capacity, ALGO.min_alive)
        assert sum(out.values()) <= capacity
        for sid in order:
            assert 1 <= out[sid] <= svrbs[sid]


class TestResize:
    def test_first_join_uses_initial_dual(self):
        state = new_state()
        resize(state, joined=["a"], left=[], min_alive=ALGO.min_alive)
        assert state.z == {"a": 1.0}
        assert state.y == {"a": -5.0}

    def test_later_join_inherits_mean_dual(self):
        state = new_state(z={"a": 4.0, "b": 4.0}, y={"a": -1.0, "b": -3.0})
        resize(state, joined=["c"], left=[], min_alive=ALGO.min_alive)
        assert state.z["c"] == 1.0
        assert state.y["c"] == pytest.approx(-2.0)

    def test_join_starts_at_the_minimum_alive_allocation(self):
        state = new_state(z={"a": 4.0}, y={"a": -1.0})
        resize(state, joined=["b"], left=[], min_alive=2)
        assert state.z["b"] == 2.0

    def test_leave_drops_variables(self):
        state = new_state(z={"a": 4.0, "b": 3.0}, y={"a": 0.0, "b": -1.0})
        resize(state, joined=[], left=["b"], min_alive=ALGO.min_alive)
        assert set(state.z) == {"a"}
        assert set(state.y) == {"a"}

    def test_leave_drops_the_committed_weight(self):
        state = new_state(z={"a": 4.0, "b": 3.0}, y={"a": 0.0, "b": -1.0}, w={"a": 0.2, "b": 0.4})
        resize(state, joined=[], left=["b"], min_alive=ALGO.min_alive)
        assert state.w == {"a": 0.2}

    def test_leaving_unknown_slice_is_a_no_op(self):
        state = new_state(z={"a": 4.0}, y={"a": 0.0})
        resize(state, joined=[], left=["ghost"], min_alive=ALGO.min_alive)
        assert set(state.z) == {"a"}


def make_fixture(seed=1, capacity=12):
    specs = [
        SliceSpec("s1", 12.0, 10.0, TrafficProfile(30.0, 0.5)),
        SliceSpec("s2", 12.0, 10.0, TrafficProfile(24.0, 0.625)),
        SliceSpec("s3", 12.0, 10.0, TrafficProfile(32.0, 0.45)),
    ]
    config = EnvConfig(capacity_h=capacity, per_vrb_rate=3.2, noise_std=0.0)
    env = RanEnvironment(config, substream(seed, "env"))
    agents = {
        s.slice_id: SliceAgent(
            s.slice_id,
            capacity,
            substream(seed, f"agent:{s.slice_id}"),
            substream(seed, f"hedge:{s.slice_id}"),
            ALGO,
            CostParams(),
            design_offset=i,
        )
        for i, s in enumerate(specs)
    }
    state = new_state()
    resize(state, joined=[s.slice_id for s in specs], left=[], min_alive=ALGO.min_alive)
    return agents, env, specs, state


def slot_args(min_alive=ALGO.min_alive):
    """orchestrate_slot's arguments after `state`, at the scenario defaults."""
    return (min_alive,)


class TestProbe:
    @pytest.mark.parametrize("commit, rule", [(False, "spread_capacity"), (True, "clamp_capacity")])
    def test_explores_by_spread_and_commits_by_clamp(self, commit, rule, monkeypatch):
        # The rule is looked up by its module-level name and given positional
        # (svrbs, order, capacity, min_alive): perfbench's wrappers rely on both.
        _, env, specs, _ = make_fixture()
        proposals = {"s1": Action(12, 0.3), "s2": Action(4, 0.0), "s3": Action(4, 0.5)}
        original, calls, seen = getattr(coordinator, rule), [], []

        def recording(*args, **kwargs):
            calls.append((args, kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(coordinator, rule, recording)
        actions, perfs = coordinator.probe(
            env, specs, proposals, ALGO.min_alive, commit, lambda *outcome: seen.append(outcome)
        )
        order, svrbs = list(proposals), {sid: a.svrb for sid, a in proposals.items()}
        assert calls == [((svrbs, order, 12, ALGO.min_alive), {})]
        fitted = original(svrbs, order, 12, ALGO.min_alive)
        assert fitted == ({"s1": 4, "s2": 4, "s3": 4} if commit else {"s1": 10, "s2": 1, "s3": 1})
        assert actions == {sid: Action(fitted[sid], proposals[sid].sw) for sid in order}
        assert seen == [(actions, perfs)]


class TestOrchestrateSlot:
    def test_live_slot_emits_a_valid_allocation(self):
        agents, env, specs, state = make_fixture()
        outcome = orchestrate_slot(agents, env, specs, state, *slot_args())
        assert isinstance(outcome, SlotOutcome)
        assert set(outcome.actions) == {"s1", "s2", "s3"}
        assert sum(a.svrb for a in outcome.actions.values()) <= 12
        assert all(0.0 <= a.sw <= 1.0 for a in outcome.actions.values())
        assert 1 <= outcome.iterations <= state.max_iters
        assert outcome.primal_residual >= 0.0

    def test_capacity_holds_across_slots(self):
        agents, env, specs, state = make_fixture()
        for slot in range(3):
            outcome = orchestrate_slot(agents, env, specs, state, *slot_args())
            assert sum(a.svrb for a in outcome.actions.values()) <= 12

    def test_consensus_reanchors_on_the_emission(self):
        agents, env, specs, state = make_fixture()
        outcome = orchestrate_slot(agents, env, specs, state, *slot_args())
        assert set(state.z) == set(outcome.actions)
        total_z = sum(state.z.values())
        assert total_z <= 12.0 + 1e-9

    def test_state_keeps_the_emitted_weights(self):
        agents, env, specs, state = make_fixture()
        outcome = orchestrate_slot(agents, env, specs, state, *slot_args())
        assert state.w == {sid: a.sw for sid, a in outcome.actions.items()}

    def test_committed_weights_seed_the_first_broadcast(self):
        agents, env, specs, state = make_fixture()
        orchestrate_slot(agents, env, specs, state, *slot_args())
        state.w = {"s1": 0.3, "s2": 0.5, "s3": 0.125}
        seen = []
        suggest = agents["s1"].suggest

        def recording(ctx):
            seen.append(ctx.s)
            return suggest(ctx)

        agents["s1"].suggest = recording
        orchestrate_slot(agents, env, specs, state, *slot_args())
        assert seen[0] == 0.625  # s2's and s3's committed weights

    def test_rejects_infeasible_population(self):
        agents, env, specs, state = make_fixture()
        with pytest.raises(InfeasibleCapacityError):
            orchestrate_slot(agents, env, specs, state, *slot_args(min_alive=5))

    def test_inactive_slices_are_skipped(self):
        agents, env, specs, state = make_fixture()
        specs = [
            specs[0],
            specs[1],
            SliceSpec("s3", 12.0, 10.0, TrafficProfile(32.0, 0.45), active=False),
        ]
        resize(state, joined=[], left=["s3"], min_alive=ALGO.min_alive)
        outcome = orchestrate_slot(agents, env, specs, state, *slot_args())
        assert set(outcome.actions) == {"s1", "s2"}
