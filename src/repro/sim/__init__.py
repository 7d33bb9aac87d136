"""System simulation: configs, cores, event loop, stats, metrics."""

from .config import (
    DEFAULT_EXPRESS_TMRO_NS,
    SCHEME_NAMES,
    TRACKER_NAMES,
    DefenseConfig,
    SystemConfig,
)
from .batch import BatchStats, simulate_batch
from .core import CoreState
from .metrics import (
    geomean,
    geomean_over_workloads,
    normalized_weighted_speedup,
    relative_acts,
)
from .reference import ReferenceSimulator
from .stats import EnergyBreakdown, SimResult, energy_of
from .system import ENGINE_NAMES, SystemSimulator, simulate_workload

__all__ = [
    "ENGINE_NAMES",
    "BatchStats",
    "simulate_batch",
    "DEFAULT_EXPRESS_TMRO_NS",
    "SCHEME_NAMES",
    "TRACKER_NAMES",
    "DefenseConfig",
    "SystemConfig",
    "CoreState",
    "geomean",
    "geomean_over_workloads",
    "normalized_weighted_speedup",
    "relative_acts",
    "EnergyBreakdown",
    "SimResult",
    "energy_of",
    "ReferenceSimulator",
    "SystemSimulator",
    "simulate_workload",
]
