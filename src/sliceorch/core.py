"""Shared vocabulary: slices, actions, delivered performance, cost, and the
algorithms' tunables.

All types are immutable values; the operations on them are pure functions.
"""

from __future__ import annotations

import math
import numbers
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


@dataclass(frozen=True)
class AlgoParams:
    """Tunables of the orchestration algorithms; defaults suit the bundled scenarios."""

    rho: float = 2.0
    primal_tol: float = 0.5
    max_iters: int = 15
    dual_init: float = -5.0
    buffer_capacity: int = 40
    priority_decay: float = 0.95
    subsample: int = 30
    n_init: int = 3
    noise_var: float = 1e-4
    hyperopt_every: int = 5
    hedge_eta: float = 1.0
    kappa: float = 1.96
    # The log barrier turns into a bonus once the margin exceeds 1. Kept
    # at 0.5 so that bonus stays worth less than one resource block and
    # recommendations do not creep past the cheapest feasible allocation.
    barrier_coef: float = 0.5
    violation_penalty: float | None = None  # None: see `penalty`
    sw_step: float = 0.1
    min_alive: int = 1
    probes_per_slot: int = 15  # baseline BO probe budget, parity with max_iters
    grid_cap: int = 10**6

    def __post_init__(self) -> None:
        for name in (
            "max_iters", "buffer_capacity", "subsample", "n_init", "hyperopt_every",
            "min_alive", "probes_per_slot", "grid_cap",
        ):
            value = getattr(self, name)
            if not _whole(value) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        for name in ("rho", "hedge_eta"):
            value = getattr(self, name)
            if not (_finite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        for name in ("primal_tol", "noise_var", "kappa", "barrier_coef", "violation_penalty"):
            value = getattr(self, name)
            if name == "violation_penalty" and value is None:
                continue
            if not (_finite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        if not _finite(self.dual_init):
            raise ValueError(f"dual_init must be finite, got {self.dual_init!r}")
        for name in ("priority_decay", "sw_step"):
            value = getattr(self, name)
            if not (_finite(value) and 0.0 < value <= 1.0):
                raise ValueError(f"{name} must lie in (0, 1], got {value!r}")

    def penalty(self, cost: CostParams, capacity: int) -> float:
        """The SLA violation penalty; unset, it is 10 * u_h * capacity."""
        if self.violation_penalty is None:
            return 10.0 * cost.u_h * capacity
        return self.violation_penalty


def _whole(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _finite(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


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
