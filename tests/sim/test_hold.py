"""``Resource.hold(duration)``: a timed occupancy is one event.

The holder's shape is ``h = r.hold(d); try: yield h; finally: r.release(h)``.
With a unit free the hold is granted and scheduled on the spot; queued, the
release that reaches it schedules it, reading ``stretch`` then.  Either way
nothing but the hold itself goes through the heap.
"""

import pytest

from repro.fabric import HOST_WESTMERE, Node
from repro.sim import Resource, Simulator


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


@pytest.mark.parametrize("refused", ["released", "foreign", "queued-hold"])
def test_negative_duration_and_double_release_raise(refused):
    """Only a granted request can be released.  A second release, another
    resource's request and a hold still queued are refused alike, and
    the refusal changes nothing: nothing cancels a queued hold.  (A queued
    plain request: ``test_resources.test_cancel_queued_request_via_release``.)"""
    sim = Simulator()
    res = Resource(sim, capacity=1, name="cpu")
    with pytest.raises(ValueError, match="negative hold on 'cpu'"):
        res.hold(-0.5)
    assert (res.count, res.queued) == (0, 0) and sim.peek() == float("inf")
    held = res.hold(0.0)
    owner = res
    if refused == "released":
        res.release(held)
        request = held
    elif refused == "foreign":
        owner, request = Resource(sim, capacity=1), held
    else:
        request = res.hold(0.0)
    state = (res.count, res.queued)
    with pytest.raises(ValueError, match="does not hold"):
        owner.release(request)
    assert (res.count, res.queued) == state
    if refused != "released":
        res.release(held)  # and a queued hold is granted as usual
    sim.run()  # a released hold's entry pops harmlessly
    assert held.processed and request.processed
    assert sim.events_processed == (2 if refused == "queued-hold" else 1)
