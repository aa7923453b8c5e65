"""Desk-scale workbench for adaptive radio-slice orchestration.

Simulates a soft-isolated virtual RAN in which each network slice owns a
guaranteed number of soft-isolated virtual resource blocks (svRBs) plus a
sharing weight over the idle-capacity pool. Slice resources are orchestrated
online by consensus-coordinated constrained Bayesian agents; three reference
baselines (joint global BO, independent per-slice BO, exhaustive search) and
a reproducible experiment harness round out the workbench.
"""

__version__ = "0.1.0"

from .core import (
    Action,
    CostParams,
    PerfVector,
    SliceSpec,
    TrafficProfile,
    normalized_performance,
    slice_cost,
    total_cost,
)
from .errors import (
    CapacityExceededError,
    GpFitError,
    GridCapExceededError,
    InfeasibleCapacityError,
    NoFeasibleActionError,
    ScenarioError,
    SliceOrchError,
)
from .netenv import DynamicsEvent, EnvConfig, RanEnvironment

__all__ = [
    "Action",
    "CostParams",
    "PerfVector",
    "SliceSpec",
    "normalized_performance",
    "slice_cost",
    "total_cost",
    "CapacityExceededError",
    "GpFitError",
    "GridCapExceededError",
    "InfeasibleCapacityError",
    "NoFeasibleActionError",
    "ScenarioError",
    "SliceOrchError",
    "DynamicsEvent",
    "EnvConfig",
    "RanEnvironment",
    "TrafficProfile",
    "__version__",
]
