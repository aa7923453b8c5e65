"""Value types and cost arithmetic."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sliceorch import core, netenv
from sliceorch.core import (
    Action,
    CostParams,
    PerfVector,
    SliceSpec,
    normalized_performance,
    slice_cost,
    total_cost,
)
from sliceorch.netenv import TrafficProfile


def make_spec(q_tp=12.0, q_fps=10.0):
    return SliceSpec("s1", q_tp, q_fps, TrafficProfile(30.0, 0.5))


class TestValidation:
    def test_action_rejects_negative_svrb(self):
        with pytest.raises(ValueError):
            Action(-1, 0.0)

    def test_action_rejects_weight_outside_unit_interval(self):
        with pytest.raises(ValueError):
            Action(1, 1.5)
        with pytest.raises(ValueError):
            Action(1, -0.1)

    def test_action_accepts_boundaries(self):
        Action(0, 0.0)
        Action(3, 1.0)

    def test_spec_rejects_nonpositive_thresholds(self):
        with pytest.raises(ValueError):
            SliceSpec("s", 0.0, 10.0, TrafficProfile(30.0, 0.5))
        with pytest.raises(ValueError):
            SliceSpec("s", 10.0, -1.0, TrafficProfile(30.0, 0.5))

    def test_spec_requires_a_traffic_profile(self):
        with pytest.raises(TypeError):
            SliceSpec("a", 1.0, 1.0)
        with pytest.raises(ValueError, match="app_profile must be a TrafficProfile"):
            SliceSpec("a", 1.0, 1.0, None)

    def test_traffic_profile_is_one_type_under_both_modules(self):
        assert netenv.TrafficProfile is core.TrafficProfile

    def test_perf_rejects_negative_metrics(self):
        with pytest.raises(ValueError):
            PerfVector(-0.1, 1.0)

    def test_cost_params_reject_negative_prices(self):
        with pytest.raises(ValueError):
            CostParams(u_h=-1.0)


class TestCost:
    def test_unit_price_identity(self):
        # x = (1, 2, 1), w = (0.1, 0.1, 0.1) at unit prices
        params = CostParams(u_h=1.0, u_s=1.0)
        actions = [Action(1, 0.1), Action(2, 0.1), Action(1, 0.1)]
        assert [slice_cost(a, params) for a in actions] == [1.1, 2.1, 1.1]
        assert math.isclose(total_cost(actions, params), 4.3, abs_tol=1e-12)

    def test_prices_scale_linearly(self):
        a = Action(3, 0.5)
        assert slice_cost(a, CostParams(2.0, 4.0)) == 2.0 * 3 + 4.0 * 0.5

    def test_total_of_nothing_is_zero(self):
        assert total_cost([], CostParams()) == 0.0

    @given(
        st.lists(
            st.tuples(st.integers(0, 20), st.integers(0, 10)),
            min_size=1,
            max_size=8,
        )
    )
    def test_total_is_permutation_invariant(self, raw):
        params = CostParams(u_h=1.0, u_s=0.7)
        actions = [Action(x, w / 10.0) for x, w in raw]
        assert total_cost(actions, params) == total_cost(list(reversed(actions)), params)

    @given(st.integers(0, 30), st.integers(0, 10))
    def test_cost_is_nonnegative(self, svrb, w10):
        assert slice_cost(Action(svrb, w10 / 10.0), CostParams(1.3, 0.2)) >= 0.0


class TestNormalizedPerformance:
    def test_exact_thresholds_give_one(self):
        spec = make_spec()
        assert normalized_performance(PerfVector(12.0, 10.0), spec) == 1.0

    def test_mean_of_ratios(self):
        spec = make_spec()
        # 12.8 / 12 and 20.48 / 10 average the two contract ratios
        value = normalized_performance(PerfVector(12.8, 20.48), spec)
        assert math.isclose(value, 0.5 * (12.8 / 12.0 + 20.48 / 10.0))

    def test_overdelivery_is_not_capped(self):
        spec = make_spec()
        assert normalized_performance(PerfVector(24.0, 20.0), spec) == 2.0
