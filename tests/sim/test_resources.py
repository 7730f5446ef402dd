"""Unit tests for the Resource contention primitive."""

import pytest

from repro.sim import Resource, Simulator


# ---------------------------------------------------------------- Resource


def test_resource_grants_up_to_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    r1, r2, r3 = res.request(), res.request(), res.request()
    assert r1.triggered and r2.triggered
    assert not r3.triggered
    assert res.count == 2
    assert res.queued == 1


def test_resource_release_wakes_fifo():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def worker(tag, hold):
        req = res.request()
        try:
            yield req
            order.append((tag, sim.now))
            yield sim.timeout(hold)
        finally:
            res.release(req)

    for tag in range(3):
        sim.process(worker(tag, 10.0))
    sim.run()
    assert order == [(0, 0.0), (1, 10.0), (2, 20.0)]


def test_resource_serializes_work():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def worker(hold):
        req = res.request()
        try:
            yield req
            yield sim.timeout(hold)
        finally:
            res.release(req)

    for _ in range(5):
        sim.process(worker(4.0))
    sim.run()
    assert sim.now == 20.0


def test_resource_parallel_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=4)

    def worker(hold):
        req = res.request()
        try:
            yield req
            yield sim.timeout(hold)
        finally:
            res.release(req)

    for _ in range(4):
        sim.process(worker(7.0))
    sim.run()
    assert sim.now == 7.0


def test_release_unowned_request_raises():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    other = Resource(sim, capacity=1)
    req = other.request()
    with pytest.raises(ValueError):
        res.release(req)


def test_cancel_queued_request_via_release():
    """Nothing cancels a queued request: releasing one is refused, leaves
    it queued, and it is granted when the holder releases."""
    sim = Simulator()
    res = Resource(sim, capacity=1)
    held = res.request()
    queued = res.request()
    assert res.queued == 1
    with pytest.raises(ValueError, match="does not hold"):
        res.release(queued)
    assert (res.count, res.queued) == (1, 1)
    res.release(held)
    assert (res.count, res.queued) == (1, 0)
    sim.run()
    assert queued.processed
    res.release(queued)
    assert res.count == 0


def test_resource_capacity_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)
