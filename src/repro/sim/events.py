"""Waitable event primitives for the simulation engine.

An :class:`Event` moves through three states:

``PENDING``
    Created but not yet triggered.  Processes that yield it are suspended.
``TRIGGERED``
    :meth:`Event.succeed` or :meth:`Event.fail` has been called; the event
    sits in the engine's heap waiting for its timestamp.
``PROCESSED``
    The engine has popped it and run its callbacks; waiters have resumed.

One elision rule: an event whose outcome is known when it is created (an
uncontended ``Resource.request``) is *born* ``PROCESSED`` and never enters
the heap; a process that yields it keeps running.  Anything that fails, or
that somebody may already be waiting on, still goes through the heap.

Events carry either a *value* (on success) or an *exception* (on failure).
A failed event re-raises its exception inside every waiting process, which
is how error propagation works throughout the stack (e.g. an RDMA completion
with error status fails the completion event, which raises inside the UCR
progress loop, which converts it into an endpoint error).
"""

from __future__ import annotations

import enum
from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Optional, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.sim.engine import Simulator


class EventState(enum.Enum):
    """Lifecycle state of an :class:`Event`."""

    PENDING = "pending"
    TRIGGERED = "triggered"
    PROCESSED = "processed"


# The kernel compares states by identity on every event; module globals
# spare it the enum attribute lookup.
PENDING = EventState.PENDING
TRIGGERED = EventState.TRIGGERED
PROCESSED = EventState.PROCESSED

#: An event name: a string, or ``(format, *args)`` rendered with ``%`` the
#: first time somebody reads it.  Per-op call sites pass the tuple so that
#: naming an event nobody looks at costs no string formatting.
EventName = Union[str, tuple]


class Expired(Exception):
    """The deadline of :meth:`Event.expire_after` passed first; ``args[0]``
    is the delay that was allowed."""


class Event:
    """A one-shot occurrence that processes can wait on.

    Parameters
    ----------
    sim:
        Owning simulator.  Events are bound to exactly one engine.
    name:
        Optional debugging label, shown in ``repr`` and by
        :class:`repro.sim.trace.Tracer` (see :data:`EventName`).
    """

    __slots__ = ("sim", "_name", "_state", "_value", "_exception", "callbacks", "defused")

    def __init__(self, sim: "Simulator", name: EventName = "") -> None:
        self.sim = sim
        self._name = name
        self._state = PENDING
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        #: Functions invoked with this event when it is processed; ``None``
        #: from then on (a processed event has no callback list).
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        #: Set when a failure has been observed by at least one waiter, so
        #: the engine does not escalate it as an unhandled error.
        self.defused = False

    # -- state inspection -------------------------------------------------

    @property
    def name(self) -> str:
        """Debugging label (rendered on demand; subclasses derive theirs)."""
        name = self._name
        if name.__class__ is tuple:
            name = self._name = name[0] % name[1:]
        return name

    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed`/:meth:`fail` has been called."""
        return self._state is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run and waiters have been resumed."""
        return self._state is PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event was triggered by :meth:`succeed`."""
        if self._state is PENDING:
            raise RuntimeError(f"{self!r} has not been triggered yet")
        return self._exception is None

    @property
    def value(self) -> Any:
        """The success value (or raises the failure exception)."""
        if self._state is PENDING:
            raise RuntimeError(f"{self!r} has not been triggered yet")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        """The failure exception, or None for a successful event."""
        return self._exception

    # -- triggering --------------------------------------------------------

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully, scheduling callbacks after *delay*."""
        if self._state is not PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self._state = TRIGGERED
        self._value = value
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        heappush(sim._heap, (sim._now + delay, seq, self))
        return self

    def _settle(self, value: Any = None) -> None:
        """Born processed: the outcome was known at creation, nobody can be
        waiting yet, so no heap entry, no hook, no ``events_processed``."""
        self._state = PROCESSED
        self._value = value
        self.callbacks = None

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event as failed; waiters will see *exception* raised."""
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        # One validated push for both outcomes; nothing runs before the
        # exception is set, so no callback ever sees the event succeed.
        self.succeed(None, delay)
        self._exception = exception
        return self

    # -- deadline ----------------------------------------------------------

    def expire_after(self, delay: float) -> "Event":
        """Give the wait on this event a deadline; returns the event.

        If the event is still ``PENDING`` *delay* from now it fails with
        :class:`Expired`, so ``yield ev.expire_after(t)`` either returns the
        event's value or raises ``Expired`` at the yield.  An event that was
        triggered first keeps its own outcome, failure included.  The timer
        is never cancelled: it pops as a no-op when the event won.  Whoever
        triggers the event and may do so after the deadline checks
        :attr:`triggered` first.  Not for a :class:`Process` or a queued
        resource request, which the kernel triggers without checking.
        """
        Timeout(self.sim, delay).callbacks.append(self._expire)
        return self

    def _expire(self, timer: "Timeout") -> None:
        if self._state is PENDING:
            self.fail(Expired(timer.delay))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {self._state.value}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay.

    Created via :meth:`repro.sim.engine.Simulator.timeout`; it is triggered
    immediately at construction so it cannot be succeeded or failed by user
    code.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        self.sim = sim
        self.delay = delay
        self._state = TRIGGERED
        self._value = value
        self._exception = None
        self.callbacks = []
        self.defused = False
        sim._seq = seq = sim._seq + 1
        heappush(sim._heap, (sim._now + delay, seq, self))

    @property
    def name(self) -> str:
        return f"timeout({self.delay})"
