"""The contention primitive: a capacity resource.

``Resource`` models anything with limited parallelism -- CPU cores on a
memcached server node, the DMA engine of an HCA, the transmit side of a
link.  It hands out :class:`Request` events, so processes wait on it with
an ordinary ``yield``.

There is no queue primitive: a FIFO between two parties is a
``collections.deque`` plus one plain :class:`~repro.sim.events.Event` that
the consumer arms when it finds the deque empty and the producer fires
(``sockets.Connection``'s pumps, ``Socket.accept``, ``Epoll.wait``).
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import TYPE_CHECKING, Deque, Optional

from repro.sim.events import PENDING, TRIGGERED, Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator


class Request(Event):
    """A claim on a :class:`Resource`.

    From :meth:`Resource.request` it is the grant: born processed when
    capacity was free, otherwise pending in the FIFO until a release
    grants it.  From :meth:`Resource.hold` it is the whole occupancy:
    *duration* is set, and it fires when the holder's time is up.
    """

    __slots__ = ("resource", "duration")

    def __init__(
        self, sim: "Simulator", resource: "Resource", duration: Optional[float] = None
    ) -> None:
        self.sim = sim
        self.resource = resource
        self.duration = duration
        self._state = PENDING
        self._value = None
        self._exception = None
        self.callbacks = []
        self.defused = False

    @property
    def name(self) -> str:
        if self.duration is None:
            return f"request({self.resource.name})"
        return f"hold({self.resource.name}, {self.duration})"


class Resource:
    """A counting semaphore with a FIFO wait queue.

    Occupying a unit for a known time is one event::

        h = cpu.hold(work_us)
        try:
            yield h
        finally:
            cpu.release(h)

    ``h`` fires ``work_us * stretch`` after it is granted -- on the spot
    with a unit free, otherwise by the release that reaches it in the
    FIFO, with :attr:`stretch` read then; either way the hold is the only
    event.  Whatever raises at the ``yield`` (``GeneratorExit`` when an
    abandoned process is closed), the ``finally`` frees a granted unit at
    once and the hold's heap entry pops later with nobody listening.
    Nothing cancels a queued request: it holds nothing, and
    :meth:`release` refuses it as it refuses another resource's request.

    :meth:`request` is the same grant path without a known length: born
    processed with capacity free, granted through the heap otherwise, and
    the holder yields whatever it waits for before :meth:`release`.
    """

    def __init__(self, sim: "Simulator", capacity: int = 1, name: str = "resource") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        #: Multiplies every hold's duration, read when the hold is granted
        #: (``Node.cpu_scale`` and ``Nic.slowdown`` are views of it).
        self.stretch = 1.0
        self._users: set[Request] = set()
        self._queue: Deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of currently granted requests."""
        return len(self._users)

    @property
    def queued(self) -> int:
        """Number of requests waiting for capacity."""
        return len(self._queue)

    def request(self) -> Request:
        """Claim one unit of capacity; the returned event is already
        processed when a unit was free, and fires when granted otherwise."""
        req = Request(self.sim, self)
        if len(self._users) < self.capacity:
            self._users.add(req)
            req._settle(req)
        else:
            self._queue.append(req)
        return req

    def hold(self, duration: float) -> Request:
        """Claim one unit for *duration*; the returned event fires when
        that time, times :attr:`stretch`, has passed since the grant."""
        if duration < 0:
            raise ValueError(f"negative hold on {self.name!r}: {duration}")
        sim = self.sim
        req = Request(sim, self, duration)
        if len(self._users) < self.capacity:
            self._users.add(req)
            req._state = TRIGGERED
            sim._seq = seq = sim._seq + 1
            heappush(sim._heap, (sim._now + duration * self.stretch, seq, req))
        else:
            self._queue.append(req)
        return req

    def release(self, request: Request) -> None:
        """Return a granted unit; wakes the next waiter (FIFO).  A request
        still queued holds nothing and is refused like a foreign one."""
        if request not in self._users:
            raise ValueError(f"{request!r} does not hold {self.name!r}")
        self._users.remove(request)
        if self._queue:
            nxt = self._queue.popleft()
            self._users.add(nxt)
            if nxt.duration is None:
                nxt.succeed(nxt)
            else:
                nxt.succeed(delay=nxt.duration * self.stretch)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Resource {self.name!r} {self.count}/{self.capacity} (+{self.queued} queued)>"
