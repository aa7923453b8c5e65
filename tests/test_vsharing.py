"""Idle-pool sharing arithmetic and its conservation invariants."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceorch.errors import CapacityExceededError
from sliceorch.vsharing import (
    SliceDemand,
    build_pool,
    ground,
    is_overflowed,
    share_pool,
)


def alloc_map(allocations):
    return {a.slice_id: a for a in allocations}


class TestGround:
    def test_plain_floor(self):
        assert ground(3.75) == 3
        assert ground(1.5) == 1

    def test_binary_float_assembly_keeps_the_block(self):
        # 6 * 0.3 / 0.6 evaluates to 2.9999999999999996 in binary floats
        assert ground(6 * 0.3 / 0.6) == 3


class TestPool:
    def test_unorchestrated_capacity(self):
        demands = [SliceDemand("a", 4, 0.5, 9), SliceDemand("b", 6, 0.3, 9)]
        assert build_pool(demands, 16) == 6

    def test_spare_of_satisfied_slice_joins_pool(self):
        demands = [SliceDemand("a", 6, 0.0, 2), SliceDemand("b", 4, 0.5, 9)]
        # 16 - 10 unorchestrated plus 4 spare blocks of the satisfied slice
        assert build_pool(demands, 16) == 10

    def test_overflowed_slices_contribute_nothing(self):
        demands = [SliceDemand("a", 4, 0.5, 9)]
        assert build_pool(demands, 4) == 0

    def test_rejects_overcommitted_svrbs(self):
        with pytest.raises(CapacityExceededError):
            build_pool([SliceDemand("a", 9, 0.0, 1), SliceDemand("b", 8, 0.0, 1)], 16)


class TestSharing:
    def test_weight_sweep_on_two_overflowed_slices(self):
        """Pool of 6 split between weights w0 and 0.3, both slices overflowed."""
        expected = {0.1: 1, 0.2: 2, 0.3: 3, 0.4: 3, 0.5: 3}
        for w0, grant in expected.items():
            demands = [SliceDemand("a", 4, w0, 9), SliceDemand("b", 6, 0.3, 9)]
            got = alloc_map(share_pool(demands, 16))
            assert got["a"].from_pool == grant, f"w0={w0}"
            assert got["a"].from_pool == math.floor(6 * w0 / (w0 + 0.3) + 1e-9)
            assert got["a"].final_vrb == 4 + grant

    def test_satisfied_slice_gets_exactly_its_demand(self):
        demands = [SliceDemand("a", 6, 0.9, 2), SliceDemand("b", 4, 0.5, 9)]
        got = alloc_map(share_pool(demands, 16))
        assert got["a"].final_vrb == 2
        assert got["a"].from_pool == 0

    def test_zero_weight_overflowed_slice_keeps_only_its_svrbs(self):
        demands = [SliceDemand("a", 4, 0.0, 9), SliceDemand("b", 6, 0.3, 9)]
        got = alloc_map(share_pool(demands, 16))
        assert got["a"].final_vrb == 4
        assert got["b"].from_pool == 6  # sole sharer wins the entire pool

    def test_all_zero_weights_distribute_nothing(self):
        demands = [SliceDemand("a", 4, 0.0, 9), SliceDemand("b", 6, 0.0, 9)]
        got = alloc_map(share_pool(demands, 16))
        assert got["a"].final_vrb == 4
        assert got["b"].final_vrb == 6

    def test_lone_sharer_absorbs_whole_pool(self):
        demands = [SliceDemand("a", 2, 0.1, 12)]
        got = alloc_map(share_pool(demands, 16))
        assert got["a"].from_pool == 14


slice_inputs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=8),  # orchestrated svrb
        st.integers(min_value=0, max_value=10),  # sharing weight in tenths
        st.integers(min_value=0, max_value=20),  # demanded vrb
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=300)
@given(slice_inputs, st.integers(min_value=0, max_value=48))
def test_sharing_conserves_capacity(raw, headroom):
    demands = [
        SliceDemand(f"s{i}", svrb, w10 / 10.0, dem) for i, (svrb, w10, dem) in enumerate(raw)
    ]
    capacity = sum(d.orchestrated_svrb for d in demands) + headroom
    allocations = share_pool(demands, capacity)

    assert sum(a.final_vrb for a in allocations) <= capacity
    by_id = alloc_map(allocations)
    for d in demands:
        a = by_id[d.slice_id]
        assert a.from_pool >= 0
        if is_overflowed(d):
            assert a.final_vrb == min(d.demanded_vrb, d.orchestrated_svrb + a.from_pool)
        else:
            assert a.final_vrb == d.demanded_vrb
            assert a.from_pool == 0


@settings(max_examples=200)
@given(slice_inputs, st.integers(min_value=0, max_value=48))
def test_grants_never_exceed_the_pool(raw, headroom):
    demands = [
        SliceDemand(f"s{i}", svrb, w10 / 10.0, dem) for i, (svrb, w10, dem) in enumerate(raw)
    ]
    capacity = sum(d.orchestrated_svrb for d in demands) + headroom
    pool = build_pool(demands, capacity)
    granted = sum(a.from_pool for a in share_pool(demands, capacity))
    assert granted <= pool
