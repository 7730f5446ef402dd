"""A naive reference executor for the rules of ``repro.sim``.

``docs/ARCHITECTURE.md`` ("Kernel invariants") states what the kernel
does; this module does exactly that and nothing else, written for reading
rather than speed: one sorted list of ``(when, seq, event)``, no fast path,
no slots, no hooks.  ``tests/sim/test_reference.py`` runs generated programs
on :class:`repro.sim.Simulator` and here, and compares what every process
saw, when, and in which order.  A kernel change that moves behaviour shows
up as a change to this file; one that does not must leave it alone.

The surface is the subset the generated programs use: ``Simulator`` with
``now``, ``events_processed``, ``event()``, ``timeout()``, ``process()`` and
``run()``; events with ``succeed``, ``fail``, ``expire_after`` and the
state properties; ``Resource`` with ``request``, ``hold`` and ``release``.
"""

import bisect
from collections import deque

PENDING, TRIGGERED, PROCESSED = "pending", "triggered", "processed"


class Expired(Exception):
    """An ``expire_after`` deadline passed first; ``args[0]`` is the delay."""


class UnhandledFailure(RuntimeError):
    """An event failed and no waiter took the failure."""


class Simulator:
    """The clock and the schedule: entries sorted by ``(when, seq)``."""

    def __init__(self):
        self.now = 0.0
        self.events_processed = 0
        self.schedule = []
        self.seq = 0
        self.latest_deadline = 0.0

    def push(self, event, delay):
        """Schedule *event* at ``now + delay``.  ``seq`` is drawn here, so
        equal times run in the order they were scheduled."""
        self.seq += 1
        bisect.insort(self.schedule, (self.now + delay, self.seq, event))

    def cancel(self, event):
        """Take *event*'s entry off the schedule: it is never processed."""
        self.schedule = [entry for entry in self.schedule if entry[2] is not event]

    def event(self):
        return Event(self)

    def timeout(self, delay, value=None):
        return Timeout(self, delay, value)

    def process(self, generator):
        return Process(self, generator)

    def run(self):
        """Process entries until none is left, then move the clock on to
        the latest deadline ever armed if that is later.  A failure that no
        callback defused is raised after all of its callbacks ran; the
        entries after it stay scheduled, and the next ``run()`` picks up
        there."""
        while self.schedule:
            when, _seq, event = self.schedule.pop(0)
            self.now = when
            self.events_processed += 1
            event.state = PROCESSED
            callbacks, event.callbacks = event.callbacks, None
            for callback in callbacks:  # in attachment order
                callback(event)
            if event.exception is not None and not event.defused:
                raise UnhandledFailure(repr(event.exception)) from event.exception
        self.now = max(self.now, self.latest_deadline)


class Event:
    """Pending until ``succeed`` / ``fail``, triggered until its entry is
    processed, then processed for good."""

    def __init__(self, sim):
        self.sim = sim
        self.state = PENDING
        self.result = None
        self.exception = None
        self.callbacks = []
        self.defused = False

    @property
    def triggered(self):
        return self.state != PENDING

    @property
    def processed(self):
        return self.state == PROCESSED

    @property
    def ok(self):
        return self.exception is None

    @property
    def value(self):
        if self.exception is not None:
            raise self.exception
        return self.result

    def succeed(self, value=None, delay=0.0):
        """Trigger at the call: the entry is pushed now, at ``now + delay``.
        A refused trigger changes nothing."""
        if self.state != PENDING:
            raise RuntimeError("already triggered")
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        self.state = TRIGGERED
        self.result = value
        self.sim.push(self, delay)
        return self

    def fail(self, exception, delay=0.0):
        if self.state != PENDING:
            raise RuntimeError("already triggered")
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        self.state = TRIGGERED
        self.exception = exception
        self.sim.push(self, delay)
        return self

    def expire_after(self, delay):
        """Record the deadline, and unless this event is already processed
        arm its timer at the call.  When the timer pops it fails this event
        with ``Expired(delay)`` if nothing triggered it first; when this
        event is processed first, the timer leaves the schedule."""
        if delay < 0:
            raise ValueError("negative timeout delay")
        sim = self.sim
        sim.latest_deadline = max(sim.latest_deadline, sim.now + delay)
        if self.processed:
            return self

        def expire(_timer):
            if self.state == PENDING:
                self.fail(Expired(delay))

        def cancel(_event):
            if not timer.processed:
                sim.cancel(timer)

        timer = sim.timeout(delay)
        timer.callbacks.append(expire)
        self.callbacks.append(cancel)
        return self


class Timeout(Event):
    """Triggered at construction, one entry at ``now + delay``."""

    def __init__(self, sim, delay, value=None):
        super().__init__(sim)
        if delay < 0:
            raise ValueError("negative timeout delay")
        self.succeed(value, delay)


class Process(Event):
    """A generator driven by the schedule.  Its start is an entry pushed at
    creation; its end is the process event itself, triggered when the
    generator returns (its value) or raises (its exception)."""

    def __init__(self, sim, generator):
        super().__init__(sim)
        self.generator = generator
        start = Event(sim)
        start.callbacks.append(self.resume)
        start.succeed()

    def resume(self, event):
        """Take *event*'s outcome into the generator.  A yielded event that
        is already processed is taken in the same step, without waiting;
        anything else gets this method appended to its callbacks."""
        while True:
            try:
                if event.exception is not None:
                    event.defused = True
                    target = self.generator.throw(event.exception)
                else:
                    target = self.generator.send(event.result)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:
                self.fail(exc)
                return
            if not target.processed:
                target.callbacks.append(self.resume)
                return
            event = target


class Request(Event):
    """A claim on a :class:`Resource`; ``duration`` is set for a hold."""

    def __init__(self, sim, duration=None):
        super().__init__(sim)
        self.duration = duration


class Resource:
    """Capacity units and a FIFO of requests waiting for one."""

    def __init__(self, sim, capacity=1):
        self.sim = sim
        self.capacity = capacity
        self.users = []
        self.queue = deque()

    def request(self):
        """With a unit free the request is born processed: granted, its
        value itself, no entry and not counted.  Otherwise it queues."""
        req = Request(self.sim)
        if len(self.users) < self.capacity:
            self.users.append(req)
            req.state = PROCESSED
            req.result = req
            req.callbacks = None
        else:
            self.queue.append(req)
        return req

    def hold(self, duration):
        """With a unit free the hold is granted and is one entry at ``now +
        duration``.  Otherwise it queues."""
        if duration < 0:
            raise ValueError("negative hold")
        req = Request(self.sim, duration)
        if len(self.users) < self.capacity:
            self.users.append(req)
            req.succeed(None, duration)
        else:
            self.queue.append(req)
        return req

    def release(self, request):
        """Free a granted unit and grant the head of the FIFO through the
        schedule: a request at ``now`` with itself as value, a hold at
        ``now + duration``.  Anything not granted is refused."""
        if request not in self.users:
            raise ValueError("does not hold")
        self.users.remove(request)
        if self.queue:
            nxt = self.queue.popleft()
            self.users.append(nxt)
            if nxt.duration is None:
                nxt.succeed(nxt)
            else:
                nxt.succeed(None, nxt.duration)
