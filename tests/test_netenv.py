"""Simulated RAN: demand, delivered performance, and scripted dynamics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceorch.core import Action, SliceSpec
from sliceorch.errors import CapacityExceededError, ScenarioError
from sliceorch.netenv import (
    DynamicsEvent,
    EnvConfig,
    RanEnvironment,
    TrafficProfile,
    apply_events,
    demand_vrbs,
    step,
)
from sliceorch.rng import substream


def video_slice(sid="s1", q_tp=12.0, q_fps=10.0, fr=30.0, fs=0.5, active=True):
    return SliceSpec(sid, q_tp, q_fps, TrafficProfile(fr, fs), active)


def quiet_config(capacity=12, rate=3.2):
    return EnvConfig(capacity_h=capacity, per_vrb_rate=rate, noise_std=0.0)


class TestDemand:
    def test_whole_block_ceiling(self):
        rng = np.random.default_rng(0)
        # 30 fps * 0.5 Mb = 15 Mbps over 3.2 Mbps blocks needs 5 blocks
        assert demand_vrbs(TrafficProfile(30.0, 0.5), quiet_config(), rng) == 5

    def test_exact_ratio_does_not_round_up(self):
        rng = np.random.default_rng(0)
        # 30 * 0.7 / 2.1 is exactly 10 but assembles to 10.000000000000002
        cfg = EnvConfig(capacity_h=40, per_vrb_rate=2.1, noise_std=0.0)
        assert demand_vrbs(TrafficProfile(30.0, 0.7), cfg, rng) == 10

    def test_burstiness_zero_consumes_no_randomness(self):
        rng = np.random.default_rng(7)
        before = rng.bit_generator.state["state"]["state"]
        demand_vrbs(TrafficProfile(30.0, 0.5), quiet_config(), rng)
        assert rng.bit_generator.state["state"]["state"] == before

    def test_bursty_demand_is_seed_stable(self):
        profile = TrafficProfile(30.0, 0.5, burstiness=0.4)
        a = [demand_vrbs(profile, quiet_config(), np.random.default_rng(3)) for _ in range(4)]
        b = [demand_vrbs(profile, quiet_config(), np.random.default_rng(3)) for _ in range(4)]
        assert a == b

    def test_jittered_load_that_overflows_is_refused(self):
        profile = TrafficProfile(30.0, 0.5, burstiness=1e308)
        assert np.random.default_rng(3).standard_normal() > 1.0  # the draw demand takes
        with pytest.raises(ScenarioError, match="jitters to inf vRBs"):
            demand_vrbs(profile, quiet_config(), np.random.default_rng(3))


class TestStep:
    def test_hard_isolation_caps_at_own_svrbs(self):
        spec = video_slice()
        cfg = EnvConfig(capacity_h=12, per_vrb_rate=3.2, noise_std=0.0, isolation_mode="hard")
        perfs = step({"s1": Action(3, 0.0)}, [spec], cfg, np.random.default_rng(0))
        assert perfs["s1"].throughput == pytest.approx(3 * 3.2)
        assert perfs["s1"].fps == pytest.approx(min(30.0, 3 * 3.2 / 0.5))

    def test_hard_isolation_caps_at_demand(self):
        spec = video_slice()  # demand is 5 blocks
        cfg = EnvConfig(capacity_h=12, per_vrb_rate=3.2, noise_std=0.0, isolation_mode="hard")
        perfs = step({"s1": Action(9, 0.0)}, [spec], cfg, np.random.default_rng(0))
        assert perfs["s1"].throughput == pytest.approx(5 * 3.2)

    def test_soft_isolation_tops_up_from_pool(self):
        spec = video_slice()  # demand 5 exceeds 2 svrbs; the 10-block pool tops it up to 5
        perfs = step({"s1": Action(2, 0.5)}, [spec], quiet_config(), np.random.default_rng(0))
        assert perfs["s1"].throughput == pytest.approx(5 * 3.2)

    def test_soft_isolation_with_zero_weight_gets_no_pool(self):
        spec = video_slice()
        perfs = step({"s1": Action(2, 0.0)}, [spec], quiet_config(), np.random.default_rng(0))
        assert perfs["s1"].throughput == pytest.approx(2 * 3.2)

    def test_fps_is_capped_by_offered_frames(self):
        spec = video_slice(fr=10.0, fs=0.5)
        cfg = EnvConfig(capacity_h=12, per_vrb_rate=3.2, noise_std=0.0, isolation_mode="hard")
        perfs = step({"s1": Action(4, 0.0)}, [spec], cfg, np.random.default_rng(0))
        assert perfs["s1"].fps == 10.0

    def test_rejects_overcommitted_joint_action(self):
        specs = [video_slice("a"), video_slice("b")]
        actions = {"a": Action(8, 0.0), "b": Action(5, 0.0)}
        with pytest.raises(CapacityExceededError):
            step(actions, specs, quiet_config(), np.random.default_rng(0))

    def test_rejects_actions_not_matching_active_slices(self):
        specs = [video_slice("a"), video_slice("b", active=False)]
        with pytest.raises(ScenarioError):
            step({"a": Action(2, 0.0), "b": Action(2, 0.0)}, specs, quiet_config(), np.random.default_rng(0))

    def test_inactive_slices_are_ignored(self):
        specs = [video_slice("a"), video_slice("b", active=False)]
        perfs = step({"a": Action(4, 0.0)}, specs, quiet_config(), np.random.default_rng(0))
        assert set(perfs) == {"a"}

    def test_noise_free_step_is_deterministic(self):
        specs = [video_slice("a")]
        p1 = step({"a": Action(4, 0.0)}, specs, quiet_config(), np.random.default_rng(1))
        p2 = step({"a": Action(4, 0.0)}, specs, quiet_config(), np.random.default_rng(99))
        assert p1 == p2

    def test_noisy_step_is_seed_stable(self):
        specs = [video_slice("a")]
        cfg = EnvConfig(capacity_h=12, per_vrb_rate=3.2, noise_std=0.05)
        p1 = step({"a": Action(4, 0.2)}, specs, cfg, np.random.default_rng(5))
        p2 = step({"a": Action(4, 0.2)}, specs, cfg, np.random.default_rng(5))
        assert p1 == p2


@settings(max_examples=100)
@given(st.integers(min_value=1, max_value=11), st.integers(min_value=2, max_value=12))
def test_hard_isolation_throughput_is_monotone_in_svrbs(x, y):
    """More guaranteed blocks never deliver less, noise-free and hard-isolated."""
    lo, hi = min(x, y), max(x, y)
    spec = video_slice()
    cfg = EnvConfig(capacity_h=12, per_vrb_rate=3.2, noise_std=0.0, isolation_mode="hard")
    rng = np.random.default_rng(0)
    p_lo = step({"s1": Action(lo, 0.0)}, [spec], cfg, rng)["s1"]
    p_hi = step({"s1": Action(hi, 0.0)}, [spec], cfg, rng)["s1"]
    assert p_hi.throughput >= p_lo.throughput
    assert p_hi.fps >= p_lo.fps


# Joint actions on a 24-block cell: per slice an svRB count, a weight in
# tenths, and a traffic profile, at most 4 slices so the svRBs always fit.
joint_actions = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=10),
        st.sampled_from([10.0, 24.0, 30.0, 32.0]),
        st.sampled_from([0.45, 0.5, 0.625]),
    ),
    min_size=1,
    max_size=4,
)


def joint_slices(raw, burstiness):
    specs = [
        SliceSpec(f"s{i}", 12.0, 10.0, TrafficProfile(fr, fs, burstiness))
        for i, (_, _, fr, fs) in enumerate(raw)
    ]
    actions = {f"s{i}": Action(svrb, w10 / 10.0) for i, (svrb, w10, _, _) in enumerate(raw)}
    return specs, actions


@settings(max_examples=200, deadline=None)
@given(joint_actions, st.integers(min_value=0, max_value=2**32 - 1))
def test_soft_step_at_zero_weights_is_hard_step(raw, seed):
    """Hard isolation is soft isolation with every weight 0, noise and jitter included."""
    specs, actions = joint_slices(raw, burstiness=0.3)
    soft = EnvConfig(capacity_h=24, per_vrb_rate=3.2, noise_std=0.05, isolation_mode="soft")
    hard = EnvConfig(capacity_h=24, per_vrb_rate=3.2, noise_std=0.05, isolation_mode="hard")
    unweighted = {sid: Action(a.svrb, 0.0) for sid, a in actions.items()}
    got_soft = step(unweighted, specs, soft, np.random.default_rng(seed))
    got_hard = step(actions, specs, hard, np.random.default_rng(seed))  # hard ignores weights
    assert got_soft == got_hard


@settings(max_examples=200, deadline=None)
@given(joint_actions, st.sampled_from(["soft", "hard"]))
def test_no_slice_is_delivered_more_than_it_demands(raw, mode):
    """Noise-free, throughput never exceeds the demanded blocks' rate in either mode."""
    specs, actions = joint_slices(raw, burstiness=0.0)
    cfg = EnvConfig(capacity_h=24, per_vrb_rate=3.2, noise_std=0.0, isolation_mode=mode)
    rng = np.random.default_rng(0)
    perfs = step(actions, specs, cfg, rng)
    for s in specs:
        demand = demand_vrbs(s.app_profile, cfg, rng)
        assert perfs[s.slice_id].throughput <= demand * cfg.per_vrb_rate


class TestEvents:
    def test_leave_then_join_toggles_active(self):
        specs = [video_slice("a"), video_slice("b")]
        events = [
            DynamicsEvent(3, "slice_leave", "b"),
            DynamicsEvent(6, "slice_join", "b"),
        ]
        after3 = apply_events(3, events, specs)
        assert [s.active for s in after3] == [True, False]
        after6 = apply_events(6, events, after3)
        assert [s.active for s in after6] == [True, True]

    def test_sla_change_rewrites_thresholds(self):
        specs = [video_slice("a", q_tp=7.0, q_fps=10.0)]
        events = [DynamicsEvent(10, "sla_change", "a", q_throughput=14.0, q_fps=20.0)]
        after = apply_events(10, events, specs)
        assert after[0].q_throughput == 14.0
        assert after[0].q_fps == 20.0

    def test_events_at_other_slots_do_nothing(self):
        specs = [video_slice("a")]
        events = [DynamicsEvent(5, "slice_leave", "a")]
        assert apply_events(4, events, specs)[0].active is True

    def test_unknown_slice_is_rejected(self):
        with pytest.raises(ScenarioError):
            apply_events(1, [DynamicsEvent(1, "slice_leave", "ghost")], [video_slice("a")])

    def test_sla_change_requires_both_thresholds(self):
        with pytest.raises(ValueError):
            DynamicsEvent(1, "sla_change", "a", q_throughput=14.0)

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ValueError):
            DynamicsEvent(1, "slice_restart", "a")


class TestEnvironment:
    def test_wrapper_owns_its_stream(self):
        cfg = EnvConfig(capacity_h=12, per_vrb_rate=3.2, noise_std=0.05)
        env1 = RanEnvironment(cfg, substream(1, "env"))
        env2 = RanEnvironment(cfg, substream(1, "env"))
        specs = [video_slice("a")]
        seq1 = [env1.step({"a": Action(4, 0.0)}, specs)["a"].throughput for _ in range(5)]
        seq2 = [env2.step({"a": Action(4, 0.0)}, specs)["a"].throughput for _ in range(5)]
        assert seq1 == seq2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EnvConfig(capacity_h=0)
        with pytest.raises(ValueError):
            EnvConfig(capacity_h=4, isolation_mode="none")
        with pytest.raises(ValueError):
            EnvConfig(capacity_h=4, noise_std=-0.1)
