"""``Resource.hold(duration)``: a timed occupancy is one event.

The holder's shape is ``h = r.hold(d); try: yield h; finally: r.release(h)``.
With a unit free the hold is granted and scheduled on the spot; queued, the
release that reaches it schedules it, reading ``stretch`` then.  Either way
nothing but the hold itself goes through the heap.
"""

import pytest

from repro.fabric import HOST_WESTMERE, Node
from repro.sim import Interrupt, Resource, Simulator


def _holder(sim, res, duration, log, tag):
    held = res.hold(duration)
    try:
        yield held
        log.append((tag, sim.now))
    finally:
        res.release(held)


def test_hold_with_a_unit_free_is_one_heap_event_and_joins_count():
    sim = Simulator()
    res = Resource(sim, capacity=2, name="dma")
    held = res.hold(4.0)
    assert held.triggered and not held.processed
    assert (res.count, res.queued) == (1, 0)
    assert sim.peek() == 4.0  # scheduled at now + duration, on the spot
    assert held.name == "hold(dma, 4.0)"
    sim.run()
    assert held.processed and held.ok and sim.now == 4.0
    assert sim.events_processed == 1
    assert res.count == 1  # the unit is the holder's until it releases
    res.release(held)
    assert res.count == 0


def test_queued_holds_run_fifo_and_cost_one_event_each():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    log = []
    for tag, duration in enumerate([3.0, 1.0, 2.0]):
        sim.process(_holder(sim, res, duration, log, tag))
    sim.run()
    assert log == [(0, 3.0), (1, 4.0), (2, 6.0)]
    # Three process starts, three holds, three process ends: no grant events.
    assert sim.events_processed == 9
    assert (res.count, res.queued) == (0, 0)


def test_hold_and_request_waiters_share_one_fifo():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    log = []

    def requester(tag, work_us):
        req = res.request()
        try:
            yield req
            log.append((tag, "granted", sim.now))
            yield sim.timeout(work_us)
            log.append((tag, sim.now))
        finally:
            res.release(req)

    sim.process(_holder(sim, res, 2.0, log, "h0"))
    sim.process(requester("r1", 5.0))
    sim.process(_holder(sim, res, 1.0, log, "h2"))
    sim.process(requester("r3", 0.5))
    sim.run()
    assert log == [
        ("h0", 2.0),
        ("r1", "granted", 2.0), ("r1", 7.0),
        ("h2", 8.0),
        ("r3", "granted", 8.0), ("r3", 8.5),
    ]


def test_release_cancels_a_queued_hold():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    first, second, third = res.hold(1.0), res.hold(1.0), res.hold(1.0)
    assert first.triggered and not second.triggered and not third.triggered
    res.release(second)  # cancel while queued
    assert res.queued == 1
    sim.run()
    assert sim.now == 1.0 and not third.triggered  # nobody released first yet
    res.release(first)
    assert third.triggered and sim.peek() == 2.0
    sim.run()
    assert third.processed and not second.triggered
    assert sim.events_processed == 2


def test_interrupt_while_queued_cancels_the_hold():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    log = []

    def victim():
        try:
            yield from _holder(sim, res, 1.0, log, "victim")
        except Interrupt as intr:
            log.append(("interrupted", intr.cause, sim.now, res.queued))

    def attacker():
        yield sim.timeout(2.0)
        assert res.queued == 2
        v.interrupt("give up")

    sim.process(_holder(sim, res, 10.0, log, "first"))
    v = sim.process(victim())
    sim.process(_holder(sim, res, 1.0, log, "last"))
    sim.process(attacker())
    sim.run()
    assert log == [("interrupted", "give up", 2.0, 1), ("first", 10.0), ("last", 11.0)]
    assert (res.count, res.queued) == (0, 0)


def test_interrupt_while_holding_frees_the_unit_at_once():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    log = []

    def victim():
        try:
            yield from _holder(sim, res, 100.0, log, "victim")
        except Interrupt as intr:
            log.append(("interrupted", intr.cause, sim.now, res.count))

    def attacker():
        yield sim.timeout(3.0)
        v.interrupt("stop")

    v = sim.process(victim())
    sim.process(_holder(sim, res, 2.0, log, "next"))
    sim.process(attacker())
    sim.run()
    # The waiter got the unit at t=3, not at t=100; the victim's own heap
    # entry popped at t=100 with nobody listening.
    assert log == [("interrupted", "stop", 3.0, 1), ("next", 5.0)]
    assert sim.now == 100.0
    assert (res.count, res.queued) == (0, 0)


def test_stretch_is_read_when_the_hold_is_granted():
    """A ``SlowServer``-style change of ``cpu_scale`` stretches a hold that
    is still queued; one made while the hold is running does not."""
    sim = Simulator()
    node = Node(sim, "n0", HOST_WESTMERE)
    cores = node.cpu.capacity
    done = {}

    def work(tag, work_us):
        yield from node.cpu_run(work_us)
        done[tag] = sim.now

    for core in range(cores):
        sim.process(work(("running", core), 10.0))
    sim.process(work("queued", 10.0))

    def slow_server():
        yield sim.timeout(4.0)
        assert node.cpu.queued == 1
        node.cpu_scale *= 3.0
        yield sim.timeout(20.0)  # t=24: the queued hold has its core by now
        node.cpu_scale /= 3.0

    sim.process(slow_server())
    sim.run()
    assert all(done[("running", core)] == 10.0 for core in range(cores))
    assert done["queued"] == 10.0 + 10.0 * 3.0  # granted at 10 under the fault
    assert node.cpu_scale == 1.0 and node.cpu.stretch == 1.0


def test_negative_duration_and_double_release_raise():
    sim = Simulator()
    res = Resource(sim, capacity=1, name="cpu")
    with pytest.raises(ValueError, match="negative hold on 'cpu'"):
        res.hold(-0.5)
    assert (res.count, res.queued) == (0, 0) and sim.peek() == float("inf")
    held = res.hold(0.0)
    res.release(held)
    with pytest.raises(ValueError, match="does not hold"):
        res.release(held)
    other = Resource(sim, capacity=1)
    with pytest.raises(ValueError, match="does not hold"):
        other.release(held)
    sim.run()  # the released hold's entry pops harmlessly
    assert held.processed and sim.events_processed == 1
