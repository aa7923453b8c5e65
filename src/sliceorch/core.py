"""Shared vocabulary: slices and their traffic, actions, delivered performance,
cost, and the algorithms' tunables.

All types are immutable values; the operations on them are pure functions.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterable


@dataclass(frozen=True)
class TrafficProfile:
    """Offered load of one slice's application."""

    frame_rate: float  # frames per second offered by the app
    frame_size: float  # Mb per frame
    burstiness: float = 0.0  # >= 0, scale of multiplicative demand jitter

    def __post_init__(self) -> None:
        _check(self, ("frame_rate", "frame_size"), *_POSITIVE)
        _check(self, ("burstiness",), *_NONNEGATIVE)


@dataclass(frozen=True)
class SliceSpec:
    """Identity, SLA floors, and traffic profile of one network slice."""

    slice_id: str
    q_throughput: float  # Mbps the tenant contracted for
    q_fps: float  # frames per second the tenant contracted for
    app_profile: TrafficProfile
    active: bool = True

    def __post_init__(self) -> None:
        _check(self, ("q_throughput", "q_fps"), *_POSITIVE)
        if not isinstance(self.app_profile, TrafficProfile):
            raise ValueError(f"app_profile must be a TrafficProfile, got {self.app_profile!r}")
        if not isinstance(self.active, bool):
            raise ValueError(f"active must be true or false, got {self.active!r}")


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
        _check(self, ("u_h", "u_s"), *_NONNEGATIVE)


@dataclass(frozen=True)
class AlgoParams:
    """Tunables of the orchestration algorithms; defaults suit the bundled scenarios."""

    rho: float = 2.0
    max_iters: int = 15  # consensus iterations per slot, and the baselines' probes
    hyperopt_every: int = 5
    hedge_eta: float = 1.0
    # The log barrier turns into a bonus once the margin exceeds 1. Near the
    # SLA boundary it can outweigh a resource block: for slice2 of `default`
    # under a 6 Mb/s SLA, 3 svRBs price at 2.416 and a feasible 2 at 2.969,
    # so recommendations over-provision (ROADMAP item 2).
    barrier_coef: float = 0.5
    min_alive: int = 1
    grid_cap: int = 10**6

    def __post_init__(self) -> None:
        _check(self, ("max_iters", "hyperopt_every", "min_alive", "grid_cap"), *_COUNT)
        _check(self, ("rho", "hedge_eta"), *_POSITIVE)
        _check(self, ("barrier_coef",), *_NONNEGATIVE)


def _whole(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _finite(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def _check(owner, names: Iterable[str], ok: Callable[[object], bool], rule: str) -> None:
    """Raise ValueError naming the first of `names` whose value on `owner` fails `ok`."""
    for name in names:
        value = getattr(owner, name)
        if not ok(value):
            raise ValueError(f"{name} {rule}, got {value!r}")


# (ok, rule) pairs for `_check`
_COUNT = (lambda v: _whole(v) and v >= 1, "must be an integer >= 1")
_POSITIVE = (lambda v: _finite(v) and v > 0.0, "must be finite and > 0")
_NONNEGATIVE = (lambda v: _finite(v) and v >= 0.0, "must be finite and >= 0")


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
