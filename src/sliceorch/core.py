"""Shared vocabulary: slices, actions, delivered performance, and cost.

All types are immutable values; the operations on them are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from .netenv import TrafficProfile


@dataclass(frozen=True)
class SliceSpec:
    """Identity, SLA floors, and traffic profile of one network slice."""

    slice_id: str
    q_throughput: float  # Mbps the tenant contracted for
    q_fps: float  # frames per second the tenant contracted for
    app_profile: "TrafficProfile | None" = None
    active: bool = True

    def __post_init__(self) -> None:
        if not (math.isfinite(self.q_throughput) and self.q_throughput > 0.0):
            raise ValueError(f"q_throughput must be finite and > 0, got {self.q_throughput}")
        if not (math.isfinite(self.q_fps) and self.q_fps > 0.0):
            raise ValueError(f"q_fps must be finite and > 0, got {self.q_fps}")


@dataclass(frozen=True, slots=True)
class Action:
    """One slice's orchestrated resources: guaranteed svRBs plus sharing weight."""

    svrb: int
    sw: float

    def __post_init__(self) -> None:
        if self.svrb < 0:
            raise ValueError(f"svrb must be >= 0, got {self.svrb}")
        if not 0.0 <= self.sw <= 1.0:
            raise ValueError(f"sw must lie in [0, 1], got {self.sw}")


@dataclass(frozen=True, slots=True)
class PerfVector:
    """Delivered performance of one slice over one orchestration slot."""

    throughput: float  # Mbps
    fps: float

    def __post_init__(self) -> None:
        if self.throughput < 0.0 or self.fps < 0.0:
            raise ValueError(f"performance must be nonnegative, got ({self.throughput}, {self.fps})")


@dataclass(frozen=True)
class CostParams:
    """Unit prices of the two orchestrated resources."""

    u_h: float = 1.0  # price per svRB
    u_s: float = 1.0  # price per unit sharing weight

    def __post_init__(self) -> None:
        if not all(math.isfinite(u) and u >= 0.0 for u in (self.u_h, self.u_s)):
            raise ValueError(f"unit prices must be finite and >= 0, got ({self.u_h}, {self.u_s})")


def slice_cost(action: Action, params: CostParams) -> float:
    """Resource cost of one slice: u_h * svrb + u_s * sw."""
    return params.u_h * action.svrb + params.u_s * action.sw


def total_cost(actions: Iterable[Action], params: CostParams) -> float:
    """Sum of per-slice costs, accumulated with fsum to keep the identity exact."""
    return math.fsum(slice_cost(a, params) for a in actions)


def normalized_performance(perf: PerfVector, spec: SliceSpec) -> float:
    """Mean of delivered-over-contracted ratios across the two metrics.

    1.0 means the SLA is met on average; surplus on one metric can offset
    shortfall on the other. Deliberately uncapped so over-delivery is visible.
    """
    return 0.5 * (perf.throughput / spec.q_throughput + perf.fps / spec.q_fps)
