from .engine import SimConfigError, SimResult, SimStats, simulate_network
from .trace import CycleTrace, fcu_trace, kpu_trace
from .units import FcuUnit, KpuUnit, WidthOverflow

__all__ = [
    "SimConfigError", "SimResult", "SimStats", "simulate_network",
    "CycleTrace", "fcu_trace", "kpu_trace",
    "FcuUnit", "KpuUnit", "WidthOverflow",
]
