"""Simulated soft-isolated virtual RAN.

The radio model is deliberately small: every virtual resource block carries a
fixed per-block rate, each slice's application offers frames at a fixed rate
and size, and demand is the block count needed to carry that offered load
(optionally jittered by a burstiness factor). A slice uses its demand, up to
its own svRBs plus what the idle-pool sharing of `vsharing` grants it. Hard
isolation grants nothing, and so does soft isolation when every weight is 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .core import _COUNT, _NONNEGATIVE, _POSITIVE, Action, PerfVector, SliceSpec, _check, _whole
from .core import TrafficProfile  # also importable from here, beside the rest of the RAN model
from .errors import CapacityExceededError, ScenarioError
from .vsharing import GROUND_EPS, SliceDemand, delivered_vrb, share_pool


@dataclass(frozen=True)
class EnvConfig:
    """Physical parameters of the simulated RAN."""

    capacity_h: int  # total vRBs the infrastructure owns
    per_vrb_rate: float = 2.1  # Mbps carried by one vRB
    noise_std: float = 0.03  # std of multiplicative throughput noise
    isolation_mode: str = "soft"  # "soft" or "hard"

    def __post_init__(self) -> None:
        _check(self, ("capacity_h",), *_COUNT)
        _check(self, ("per_vrb_rate",), *_POSITIVE)
        _check(self, ("noise_std",), *_NONNEGATIVE)
        if self.isolation_mode not in ("soft", "hard"):
            raise ValueError(f"isolation_mode must be 'soft' or 'hard', got {self.isolation_mode!r}")

    @property
    def shares_pool(self) -> bool:
        """Whether idle blocks go to the slices by weight: soft isolation."""
        return self.isolation_mode == "soft"


@dataclass(frozen=True)
class DynamicsEvent:
    """A scripted change to the slice population or an SLA at a given slot."""

    slot: int
    kind: str  # "slice_join" | "slice_leave" | "sla_change"
    slice_id: str
    q_throughput: float | None = None
    q_fps: float | None = None

    def __post_init__(self) -> None:
        if not _whole(self.slot) or self.slot < 0:
            raise ValueError(f"slot must be an integer >= 0, got {self.slot!r}")
        if self.kind not in ("slice_join", "slice_leave", "sla_change"):
            raise ValueError(f"unknown event kind {self.kind!r}")
        if self.kind == "sla_change":
            if self.q_throughput is None or self.q_fps is None:
                raise ValueError("sla_change events need q_throughput and q_fps")
            _check(self, ("q_throughput", "q_fps"), *_POSITIVE)
        elif self.q_throughput is not None or self.q_fps is not None:
            raise ValueError(f"{self.kind} events take no q_throughput or q_fps")


def demand_vrbs(profile: TrafficProfile, config: EnvConfig, rng: np.random.Generator) -> int:
    """Blocks needed to carry the offered load, jittered when bursty.

    With burstiness 0 no random draw is consumed, so the result is a pure
    function of the profile and config.
    """
    base = profile.frame_rate * profile.frame_size / config.per_vrb_rate
    if profile.burstiness > 0.0:
        base *= max(0.0, 1.0 + profile.burstiness * rng.standard_normal())
        if not math.isfinite(base):
            raise ScenarioError(f"offered load of {profile} jitters to {base} vRBs")
    return max(0, int(math.ceil(base - GROUND_EPS)))


def step(
    actions: Mapping[str, Action],
    specs: Sequence[SliceSpec],
    config: EnvConfig,
    rng: np.random.Generator,
) -> dict[str, PerfVector]:
    """Apply a joint action for one slot and report delivered performance.

    Order of operations: draw each active slice's demand, take its grant from
    the idle pool (in soft isolation with some weight positive; else 0), then
    convert min(demand, svrb + grant) blocks to throughput with multiplicative
    noise. FPS is the offered frame rate capped by what that throughput carries.
    """
    active = [s for s in specs if s.active]
    if set(actions) != {s.slice_id for s in active}:
        raise ScenarioError(
            f"actions keyed {sorted(actions)} do not match active slices "
            f"{sorted(s.slice_id for s in active)}"
        )
    total_svrb = sum(a.svrb for a in actions.values())
    if total_svrb > config.capacity_h:
        raise CapacityExceededError(
            f"joint action orchestrates {total_svrb} svRBs over capacity {config.capacity_h}"
        )

    demands = {s.slice_id: demand_vrbs(s.app_profile, config, rng) for s in active}

    grants: dict[str, int] = {}
    if config.shares_pool and any(a.sw > 0.0 for a in actions.values()):
        inputs = [
            SliceDemand(s.slice_id, actions[s.slice_id].svrb, actions[s.slice_id].sw, demands[s.slice_id])
            for s in active
        ]
        grants = {a.slice_id: a.from_pool for a in share_pool(inputs, config.capacity_h)}

    perfs: dict[str, PerfVector] = {}
    for s in active:
        sid = s.slice_id
        final = delivered_vrb(demands[sid], actions[sid].svrb, grants.get(sid, 0))
        throughput = final * config.per_vrb_rate
        if config.noise_std > 0.0:
            throughput *= 1.0 + config.noise_std * rng.standard_normal()
        throughput = max(0.0, throughput)
        fps = min(s.app_profile.frame_rate, throughput / s.app_profile.frame_size)
        perfs[sid] = PerfVector(throughput, fps)
    return perfs


def apply_events(
    slot: int, events: Sequence[DynamicsEvent], specs: Sequence[SliceSpec]
) -> list[SliceSpec]:
    """Apply the events scheduled for `slot` and return the updated specs."""
    updated = list(specs)
    known = {s.slice_id: i for i, s in enumerate(updated)}
    for ev in events:
        if ev.slot != slot:
            continue
        if ev.slice_id not in known:
            raise ScenarioError(f"event at slot {slot} names unknown slice {ev.slice_id!r}")
        i = known[ev.slice_id]
        if ev.kind == "slice_join":
            updated[i] = replace(updated[i], active=True)
        elif ev.kind == "slice_leave":
            updated[i] = replace(updated[i], active=False)
        else:
            updated[i] = replace(updated[i], q_throughput=ev.q_throughput, q_fps=ev.q_fps)
    return updated


class RanEnvironment:
    """Stateful wrapper owning the traffic/noise RNG substream."""

    def __init__(self, config: EnvConfig, rng: np.random.Generator):
        self.config = config
        self.rng = rng

    def step(self, actions: Mapping[str, Action], specs: Sequence[SliceSpec]) -> dict[str, PerfVector]:
        return step(actions, specs, self.config, self.rng)
