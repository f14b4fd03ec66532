"""Dataflow planner, resource model and cycle-accurate functional simulator
for continuous-flow CNN inference architectures."""

from .netspec import parse_network, serialize_network, validate_network
from .rate import propagate_rates
from .alloc import ArchitecturePlan, plan_network
from .cost import network_cost, sweep_rates

__all__ = [
    "parse_network", "serialize_network", "validate_network",
    "propagate_rates", "ArchitecturePlan", "plan_network",
    "network_cost", "sweep_rates",
]

__version__ = "0.1.0"
