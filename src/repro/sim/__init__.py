"""Discrete-event simulation kernel.

The kernel is deliberately small: one binary-heap event queue with
deterministic tie-breaking (:class:`~repro.sim.kernel.Simulator`), cancellable
event handles (:class:`~repro.sim.events.EventHandle`), restartable timers
(:class:`~repro.sim.timers.Timer`), named seeded random streams
(:class:`~repro.sim.rng.RandomStreams`), and an event trace recorder
(:class:`~repro.sim.trace.Trace`).

The paper's simulations are event-driven at packet granularity; everything in
this package exists to support that style: schedule a callback at an absolute
or relative simulated time, cancel it if the protocol state machine moves on,
and keep runs reproducible under a single seed.
"""

from repro.sim.events import EventHandle
from repro.sim.kernel import Simulator
from repro.sim.rng import RandomStreams
from repro.sim.timers import Timer
from repro.sim.trace import Trace, TraceRecord

__all__ = [
    "EventHandle",
    "Simulator",
    "RandomStreams",
    "Timer",
    "Trace",
    "TraceRecord",
]
