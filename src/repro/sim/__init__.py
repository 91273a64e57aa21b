"""Discrete-event simulation kernel (time unit: microseconds)."""

from .core import (NORMAL, URGENT, AllOf, AnyOf, Event, Interrupt, Process,
                   ReusableTimeout, SimulationError, Simulator, Timeout)
from .monitor import StatAccumulator, ThroughputMeter, TimeSeries, mbps_from_bytes
from .resources import WAITING, PriorityStore, Resource, Store
from .rng import RngRegistry

__all__ = [
    "Simulator", "Event", "Timeout", "ReusableTimeout", "Process",
    "Interrupt", "AnyOf", "AllOf", "SimulationError", "NORMAL", "URGENT",
    "Store", "PriorityStore", "Resource", "WAITING",
    "StatAccumulator", "ThroughputMeter", "TimeSeries", "mbps_from_bytes",
    "RngRegistry",
]
