"""Discrete-event simulation core.

Everything in this reproduction runs on virtual time: the engine maintains a
heap of pending events stamped with simulated microseconds, and *processes*
(plain Python generators) advance by yielding events they want to wait on.
The design follows the classic process-interaction DES style (SimPy-like),
but is implemented from scratch so the repository has no runtime
dependencies beyond the scientific stack.

Public surface:

- :class:`~repro.sim.engine.Simulator` -- the event loop and clock.
- :class:`~repro.sim.events.Event`, :class:`~repro.sim.events.Timeout` --
  waitable primitives; ``yield event.expire_after(delay)`` is a wait with a
  deadline (:class:`~repro.sim.events.Expired`).  No composite events.
- :class:`~repro.sim.process.Process` -- a generator-backed concurrent
  activity.
- :class:`~repro.sim.resources.Resource` -- the contention primitive (CPU
  cores, DMA engines, link directions).  A queue between two processes is
  a ``deque`` and one :class:`Event` the consumer arms; there is no class
  for it.
- :mod:`repro.sim.rng` -- deterministic, stream-split random numbers.
- :mod:`repro.sim.trace` -- measurement hooks (latency samples, counters).

Time unit convention: **microseconds** (float).  Size convention: **bytes**
(int).  These conventions hold across the whole package.
"""

from repro.sim.engine import Simulator
from repro.sim.events import Event, Expired, Timeout
from repro.sim.process import Process
from repro.sim.resources import Resource
from repro.sim.rng import RngStream
from repro.sim.trace import Counter, LatencyRecorder

__all__ = [
    "Counter",
    "Event",
    "Expired",
    "LatencyRecorder",
    "Process",
    "Resource",
    "RngStream",
    "Simulator",
    "Timeout",
]
