"""Soft-isolated sharing of idle virtual resource blocks.

Each slice owns its orchestrated svRBs outright. Capacity nobody is using
(unorchestrated blocks plus the spare blocks of slices whose demand fits
inside their own svRBs) forms a pool, and the pool is granted to the
overflowed slices proportionally to their sharing weights. Sharing never
takes a block away from a slice that wants it, and every grant is floored to
whole blocks. A slice uses its demand, up to its own svRBs plus its grant
(`delivered_vrb`): blocks granted above the demand go unused. With every
weight 0 nothing is granted, which is hard isolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import CapacityExceededError

# Whole-block rounding takes a tiny epsilon, so that exact fractions assembled
# from binary floats neither lose a granted block (6*0.3/0.6, floored here)
# nor gain a phantom demanded one (30*0.7/2.1, ceiled by netenv.demand_vrbs).
GROUND_EPS = 1e-9


def ground(value: float) -> int:
    """Float-safe floor: whole-block grant for a fractional entitlement."""
    return int(math.floor(value + GROUND_EPS))


@dataclass(frozen=True)
class SliceDemand:
    """One slice's sharing inputs for a single slot."""

    slice_id: str
    orchestrated_svrb: int
    sw: float
    demanded_vrb: int

    def __post_init__(self) -> None:
        if self.orchestrated_svrb < 0:
            raise ValueError(f"orchestrated_svrb must be >= 0, got {self.orchestrated_svrb}")
        if not 0.0 <= self.sw <= 1.0:
            raise ValueError(f"sw must lie in [0, 1], got {self.sw}")
        if self.demanded_vrb < 0:
            raise ValueError(f"demanded_vrb must be >= 0, got {self.demanded_vrb}")


@dataclass(frozen=True)
class VrbAllocation:
    """One slice's grant from the pool, and the vRBs it then uses."""

    slice_id: str
    final_vrb: int
    from_pool: int


def delivered_vrb(demanded: int, svrb: int, grant: int) -> int:
    """vRBs a slice uses: its demand, up to its own svRBs plus its pool grant."""
    return min(demanded, svrb + grant)


def is_overflowed(demand: SliceDemand) -> bool:
    """A slice overflows when its demand strictly exceeds its own svRBs."""
    return demand.demanded_vrb > demand.orchestrated_svrb


def build_pool(demands: Sequence[SliceDemand], capacity: int) -> int:
    """Blocks available for sharing this slot.

    Pool = unorchestrated capacity + spare blocks of non-overflowed slices.
    Overflowed slices contribute nothing: they are consuming all they own.
    """
    total_svrb = sum(d.orchestrated_svrb for d in demands)
    if total_svrb > capacity:
        raise CapacityExceededError(
            f"orchestrated svRBs ({total_svrb}) exceed capacity ({capacity})"
        )
    spare = sum(
        max(d.orchestrated_svrb - d.demanded_vrb, 0) for d in demands if not is_overflowed(d)
    )
    return (capacity - total_svrb) + spare


def share_pool(demands: Sequence[SliceDemand], capacity: int) -> list[VrbAllocation]:
    """Grant the idle pool to overflowed slices by sharing weight.

    An overflowed slice with a positive weight is granted
    floor(pool * sw_i / sum-of-overflowed-sw) blocks; every other slice is
    granted none. A grant is not capped by the slice's residual demand, and
    what it does not use stays idle. Flooring remainders stay unallocated.
    """
    pool = build_pool(demands, capacity)
    overflowed_sw = sum(d.sw for d in demands if is_overflowed(d))

    allocations: list[VrbAllocation] = []
    for d in demands:
        grant = ground(pool * d.sw / overflowed_sw) if is_overflowed(d) and d.sw > 0.0 else 0
        final = delivered_vrb(d.demanded_vrb, d.orchestrated_svrb, grant)
        allocations.append(VrbAllocation(d.slice_id, final, grant))

    granted = sum(a.from_pool for a in allocations)
    if granted > pool:  # structural invariant; documents the conservation argument
        raise CapacityExceededError(f"internal: granted {granted} vRBs from a pool of {pool}")
    return allocations
