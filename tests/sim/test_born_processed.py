"""The kernel's one elision rule: an event whose outcome is known when it
is created is born ``PROCESSED`` and never enters the heap, and a process
that yields a successfully processed event keeps running.

Everything with a waiter, and everything that fails, still goes through
the heap; those halves are checked here next to the elided ones.
"""

import pytest

from repro.fabric import HOST_WESTMERE, Node
from repro.sim import Resource, Simulator
from repro.sim.resources import Request


def test_uncontended_request_is_born_processed_and_costs_no_event():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    req = res.request()
    assert req.processed and req.ok and req.value is req
    assert res.count == 1
    assert sim.peek() == float("inf")  # nothing scheduled

    granted_at = []

    def waiter():
        queued = res.request()
        try:
            assert not queued.triggered and res.queued == 1
            yield queued
            granted_at.append(sim.now)
        finally:
            res.release(queued)

    def holder():
        yield sim.timeout(5.0)
        res.release(req)

    sim.process(waiter())
    sim.process(holder())
    sim.run()
    assert granted_at == [5.0]
    assert (res.count, res.queued) == (0, 0)
    # Two process starts, the timeout, the queued grant (through the heap,
    # as before) and two process ends -- and nothing for the first grant.
    assert sim.events_processed == 6


def test_full_resource_returns_a_pending_request_that_can_be_cancelled():
    """A full resource returns a pending request.  It can no longer be
    cancelled: ``release`` refuses it and the queue keeps its FIFO order,
    each grant woken through the heap."""
    sim = Simulator()
    res = Resource(sim, capacity=1)
    first = res.request()
    second = res.request()
    third = res.request()
    assert first.processed and not second.triggered and not third.triggered
    with pytest.raises(ValueError, match="does not hold"):
        res.release(second)  # no cancel while queued
    assert res.queued == 2
    res.release(first)
    assert second.triggered and not second.processed  # woken through the heap
    sim.run()
    assert second.processed and not third.triggered
    assert sim.events_processed == 1
    res.release(second)
    sim.run()
    assert third.processed and sim.events_processed == 2


def test_back_to_back_processed_yields_do_not_recurse():
    sim = Simulator()
    node = Node(sim, "n0", HOST_WESTMERE)
    iterations = 50_000
    kinds: dict = {}
    sim.pre_event_hooks.append(
        lambda s, e: kinds.__setitem__(type(e), kinds.get(type(e), 0) + 1)
    )

    done = Resource(sim).request()

    def proc():
        for _ in range(iterations):
            yield from node.cpu_run(0.0)
        # ...and with nothing pending in between at all.
        for _ in range(iterations):
            yield done
        return "finished"

    p = sim.process(proc())
    sim.run()
    assert p.value == "finished"
    assert kinds[Request] == iterations  # each slice is its hold, nothing else
    assert sim.events_processed == iterations + 2  # plus process start and end
    assert node.cpu.count == 0


def test_conditions_over_born_processed_events():
    """A deadline on a born-processed event: no suspension, and the timer
    it armed all the same pops unheard."""
    sim = Simulator()
    req = Resource(sim).request()
    seen = []

    def proc():
        got = yield req.expire_after(5.0)
        seen.append((got is req, sim.now, sim.events_processed))

    sim.process(proc())
    sim.run()
    assert seen == [(True, 0.0, 1)]  # the process start, nothing else
    assert (sim.now, sim.events_processed) == (5.0, 3)


def test_yielding_a_failed_processed_event_raises_at_that_yield():
    sim = Simulator()
    failed = sim.event()
    failed.defused = True  # nobody is waiting when it is processed
    failed.fail(KeyError("gone"))
    sim.run()
    assert failed.processed
    ready = Resource(sim).request()
    trail = []

    def proc():
        yield ready
        trail.append("before")
        try:
            yield failed
        except KeyError as exc:
            trail.append(("raised", exc.args[0], sim.now))
        value = yield ready  # and the process carries on after it
        trail.append(("after", value is ready))

    before = sim.events_processed
    sim.process(proc())
    sim.run()
    assert trail == ["before", ("raised", "gone", 0.0), ("after", True)]
    assert sim.events_processed == before + 2  # process start and end only


def test_run_until_event_on_a_born_processed_event_does_not_step():
    sim = Simulator()
    sim.timeout(1.0)
    granted = Resource(sim).request()
    assert granted.processed
    assert sim.run_until_event(granted) is granted
    assert (sim.now, sim.events_processed) == (0.0, 0)
