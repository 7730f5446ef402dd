"""Contention primitives: capacity resources and FIFO stores.

``Resource`` models anything with limited parallelism -- CPU cores on a
memcached server node, the DMA engine of an HCA, the transmit side of a
link.  ``Store`` models an unbounded (or bounded) FIFO of items -- NIC
receive rings, socket accept queues, worker-thread mailboxes.

Both hand out plain :class:`~repro.sim.events.Event` objects so processes
wait on them with ordinary ``yield``.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Optional

from repro.sim.events import PENDING, PROCESSED, Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator


class Request(Event):
    """A claim on a :class:`Resource`: born processed when capacity was
    free, otherwise pending in the FIFO until a release grants it."""

    __slots__ = ("resource",)

    def __init__(self, sim: "Simulator", resource: "Resource", granted: bool) -> None:
        self.sim = sim
        self.resource = resource
        self._exception = None
        self.defused = False
        if granted:  # Event._settle(self), spelled out
            self._state = PROCESSED
            self._value = self
            self.callbacks = None
        else:
            self._state = PENDING
            self._value = None
            self.callbacks = []

    @property
    def name(self) -> str:
        return f"request({self.resource.name})"


class Resource:
    """A counting semaphore with a FIFO wait queue.

    Usage inside a process::

        req = cpu.request()
        yield req
        yield sim.timeout(work_us)
        cpu.release(req)

    With capacity free the request comes back already processed -- it
    holds its unit, costs no event, and ``yield req`` does not suspend.
    Only a request that had to queue is granted through the heap.
    """

    def __init__(self, sim: "Simulator", capacity: int = 1, name: str = "resource") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
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
        if len(self._users) < self.capacity:
            req = Request(self.sim, self, True)
            self._users.add(req)
        else:
            req = Request(self.sim, self, False)
            self._queue.append(req)
        return req

    def release(self, request: Request) -> None:
        """Return a previously granted unit; wakes the next waiter (FIFO)."""
        if request in self._users:
            self._users.remove(request)
        elif request in self._queue:  # cancel a never-granted request
            self._queue.remove(request)
            return
        else:
            raise ValueError(f"{request!r} does not hold {self.name!r}")
        if self._queue:
            nxt = self._queue.popleft()
            self._users.add(nxt)
            nxt.succeed(nxt)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Resource {self.name!r} {self.count}/{self.capacity} (+{self.queued} queued)>"


class Store:
    """An ordered item buffer with blocking get and optional capacity bound.

    ``put`` always succeeds immediately when the store is unbounded;
    with ``capacity`` set, ``put`` returns an event that fires once space
    is available (modeling back-pressure, e.g. a full socket send buffer).
    An accepted ``put`` and a ``get`` that finds an item return events that
    are already processed; a blocked getter or putter is woken through the
    heap.
    """

    def __init__(
        self,
        sim: "Simulator",
        capacity: Optional[int] = None,
        name: str = "store",
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def getters_waiting(self) -> int:
        """Number of blocked ``get`` calls."""
        return len(self._getters)

    def put(self, item: Any) -> Event:
        """Deposit *item*; returns an event that fires once accepted."""
        done = Event(self.sim, ("put(%s)", self.name))
        if self._getters:
            # Hand the item straight to the oldest waiting getter.
            getter = self._getters.popleft()
            getter.succeed(item)
            done._settle()
        elif self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            done._settle()
        else:
            self._putters.append((done, item))
        return done

    def get(self) -> Event:
        """Take the oldest item; the returned event fires with the item."""
        ev = Event(self.sim, ("get(%s)", self.name))
        if self._items:
            ev._settle(self._items.popleft())
            self._admit_putter()
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking take: ``(True, item)`` or ``(False, None)``."""
        if self._items:
            item = self._items.popleft()
            self._admit_putter()
            return True, item
        return False, None

    def peek_all(self) -> list[Any]:
        """Snapshot of buffered items (for stats/tests); does not consume."""
        return list(self._items)

    def _admit_putter(self) -> None:
        if self._putters and (self.capacity is None or len(self._items) < self.capacity):
            done, item = self._putters.popleft()
            if self._getters:
                self._getters.popleft().succeed(item)
            else:
                self._items.append(item)
            done.succeed()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Store {self.name!r} items={len(self._items)} getters={len(self._getters)}>"
