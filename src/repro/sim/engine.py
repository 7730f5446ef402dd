"""The simulation event loop and clock.

The :class:`Simulator` owns a binary heap of ``(time, seq, event)`` entries.
``seq`` is a monotonically increasing tiebreaker so same-time events run in
scheduling (FIFO) order, which keeps every run bit-for-bit deterministic -- a
property the test suite relies on heavily.  The hot constructors in
:mod:`repro.sim.events`, :mod:`repro.sim.process` and
:mod:`repro.sim.resources` push their entries themselves; the invariants
they share with the loop are listed in ``docs/ARCHITECTURE.md`` ("Kernel
invariants").
"""

from __future__ import annotations

from heapq import heappop
from typing import Any, Callable, Optional

from repro.sim.events import PROCESSED, Event, EventName, Timeout
from repro.sim.process import Process, ProcessGenerator

_INF = float("inf")


class UnhandledFailure(RuntimeError):
    """An event failed and no process ever observed the failure."""


class Simulator:
    """Discrete-event simulation engine with a microsecond clock.

    Example
    -------
    >>> sim = Simulator()
    >>> def hello():
    ...     yield sim.timeout(5.0)
    ...     return sim.now
    >>> proc = sim.process(hello())
    >>> sim.run()
    >>> proc.value
    5.0
    """

    #: Class-level hooks invoked as ``hook(sim)`` for every newly created
    #: simulator.  Sanitizers use this to instrument *all* engines built
    #: inside a scope (e.g. a whole experiment run) without threading a
    #: config through every factory; see :mod:`repro.sanitize`.
    created_hooks: list[Callable[["Simulator"], None]] = []

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        #: Hook invoked as ``hook(sim, event)`` just before each event is
        #: processed; used by :mod:`repro.sim.trace`.  Append and remove in
        #: place (also mid-run); the loop holds on to this list object.
        self.pre_event_hooks: list[Callable[["Simulator", Event], None]] = []
        self._events_processed = 0
        for hook in Simulator.created_hooks:
            hook(self)

    # -- clock & introspection ---------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in microseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total events processed so far (engine throughput metric)."""
        return self._events_processed

    def peek(self) -> float:
        """Timestamp of the next scheduled event, or ``inf`` if idle."""
        return self._heap[0][0] if self._heap else _INF

    # -- factories -----------------------------------------------------------

    def event(self, name: EventName = "") -> Event:
        """Create a fresh pending event bound to this simulator."""
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires *delay* microseconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator, label: str = "") -> Process:
        """Start a new process from *generator*; returns its Process event."""
        return Process(self, generator, label=label)

    # -- execution -----------------------------------------------------------

    def _dispatch(self, until: float, stop: Optional[Event]) -> None:
        """The event loop: pop, advance the clock, run the callbacks.

        Returns when the schedule drains, when the next event lies beyond
        *until*, or when *stop* has been processed -- whichever is first.
        Every way of running the simulator comes through here.
        """
        heap = self._heap
        hooks = self.pre_event_hooks
        while heap and heap[0][0] <= until:
            if stop is not None and stop._state is PROCESSED:
                return
            self._now, _, event = heappop(heap)
            self._events_processed += 1
            if hooks:
                for hook in hooks:
                    hook(self, event)
            callbacks = event.callbacks
            event.callbacks = None
            event._state = PROCESSED
            for callback in callbacks:
                callback(event)
            if event._exception is not None and not event.defused:
                raise UnhandledFailure(
                    f"event {event!r} failed with no waiter: {event._exception!r}"
                ) from event._exception

    def step(self) -> None:
        """Process exactly one event, advancing the clock to its timestamp."""
        if not self._heap:
            raise RuntimeError("step() on an empty schedule")
        self._dispatch(_INF, self._heap[0][2])

    def run(self, until: Optional[float] = None) -> None:
        """Run until the schedule drains or the clock would pass *until*.

        When *until* is given the clock is advanced exactly to it on return,
        so back-to-back ``run(until=...)`` calls compose predictably.
        """
        if until is None:
            self._dispatch(_INF, None)
            return
        if until < self._now:
            raise ValueError(f"until={until} is in the past (now={self._now})")
        self._dispatch(until, None)
        self._now = max(self._now, until)

    def run_until_event(self, event: Event, limit: Optional[float] = None) -> Any:
        """Run until *event* has been processed; returns its value.

        Raises ``RuntimeError`` if the schedule drains (or *limit* passes)
        first -- that means a deadlock in the modeled system.
        """
        self._dispatch(_INF if limit is None else limit, event)
        if event._state is not PROCESSED:
            if not self._heap:
                raise RuntimeError(f"deadlock: schedule drained while waiting for {event!r}")
            raise RuntimeError(f"time limit {limit} exceeded waiting for {event!r}")
        return event.value
