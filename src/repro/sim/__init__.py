"""Discrete-event simulation kernel used by every substrate in :mod:`repro`.

The paper evaluates its proposals with an in-house *trace-driven* simulator.
This package provides the equivalent foundation: a deterministic
discrete-event engine (:class:`~repro.sim.engine.Simulator`), event and
process helpers (:mod:`repro.sim.events`), and statistics collection
primitives (:mod:`repro.sim.stats`).

All timestamps in the simulator are expressed in **microseconds** as floats,
matching the units the paper reports kernel and preemption latencies in.
"""

from repro.sim.engine import Simulator, SimulationError
from repro.sim.events import Event, EventHandle
from repro.sim.stats import (
    Counter,
    RunningStats,
    StatRegistry,
    TimeWeightedAverage,
    UtilizationTracker,
)

__all__ = [
    "Simulator",
    "SimulationError",
    "Event",
    "EventHandle",
    "Counter",
    "RunningStats",
    "StatRegistry",
    "TimeWeightedAverage",
    "UtilizationTracker",
]
