"""Failure injection deep in the UCR stack."""

import pytest

from repro.core.errors import EndpointClosed
from repro.core.params import UcrParams
from repro.verbs.cq import CompletionQueue
from repro.verbs.enums import Opcode
from repro.sim import Simulator

from repro.testing import UcrWorld

MSG = 9


def test_failure_mid_rendezvous_releases_resources():
    """Kill the target while a rendezvous is in flight; the origin learns
    of the death through its send completion (RNR), fails the endpoint,
    and reclaims its staging buffer -- and its runtime stays alive."""
    world = UcrWorld()
    client_ep, server_ep = world.establish()
    world.server_rt.register_handler(MSG)
    payload = bytes(64 * 1024)

    def sender():
        try:
            yield from client_ep.send_message(
                MSG, header=None, header_bytes=8, data=payload
            )
        except Exception:
            pass  # post may race the failure; either way nothing leaks

    def assassin():
        # Strike while the origin is still staging the 64 KB payload.
        yield world.sim.timeout(10.0)
        server_ep.fail("injected mid-rendezvous")

    world.sim.process(sender())
    world.sim.process(assassin())
    world.sim.run()
    # The dead peer NAKs; the origin endpoint fails and reclaims staging.
    assert client_ep.failed
    assert client_ep.staged_count == 0

    # The client runtime survives: a new endpoint works.
    ctx2 = world.client_rt.create_context("retry")
    eps = {}
    world_server_ctx = world.server_ctx

    def reconnect():
        ep = yield from ctx2.connect(world.server_rt, 11211)
        eps["new"] = ep

    world.sim.process(reconnect())
    world.sim.run()
    assert "new" in eps and not eps["new"].failed


def test_rendezvous_read_that_cannot_be_posted_returns_its_staging_buffer(monkeypatch):
    """The target stages a handler-less rendezvous in a pool buffer that
    the READ's completion cookie releases.  If the READ cannot be posted
    (the QP left RTS under the header handler's CPU slice) there will be no
    completion, so the buffer must go back on the spot."""
    world = UcrWorld()
    client_ep, server_ep = world.establish()
    world.server_rt.register_handler(MSG)  # no header handler: no destination
    payload = bytes(64 * 1024)
    pool = world.server_rt.rendezvous_pool_for(len(payload))
    free_before = pool.free_count
    real_post = server_ep._post
    refused = []

    def post(wr):
        if wr.opcode is Opcode.RDMA_READ:
            refused.append(pool.free_count)
            raise EndpointClosed("injected: READ refused")
        real_post(wr)

    monkeypatch.setattr(server_ep, "_post", post)

    def sender():
        yield from client_ep.send_message(
            MSG, header=None, header_bytes=8, data=payload
        )

    world.sim.process(sender())
    world.sim.run()
    assert refused == [free_before - 1]  # checked out when the post failed...
    assert pool.free_count == free_before  # ...and returned, not leaked
    assert pool.grow_events == 0


def test_staged_rendezvous_whose_header_cannot_be_posted_returns_its_buffer():
    """The origin's staging buffer is entered in ``_staged`` before the
    header is posted: a post on a QP that left RTS during the staging copy
    fails the endpoint, and ``fail()`` can only release what it can see."""
    world = UcrWorld()
    client_ep, _server_ep = world.establish()
    world.server_rt.register_handler(MSG)
    payload = bytes(64 * 1024)
    pool = world.client_rt.rendezvous_pool_for(len(payload))
    free_before = pool.free_count
    seen = []

    def sender():
        with pytest.raises(EndpointClosed):
            yield from client_ep.send_message(
                MSG, header=None, header_bytes=8, data=payload
            )
        seen.append(pool.free_count)

    def breaker():
        yield world.sim.timeout(10.0)  # the 64 KB staging copy is under way
        seen.append(pool.free_count)
        client_ep.qp.to_error()

    world.sim.process(sender())
    world.sim.process(breaker())
    world.sim.run()
    assert seen == [free_before - 1, free_before]
    assert client_ep.failed and client_ep.staged_count == 0


def test_failed_endpoint_wakes_credit_waiters_with_error():
    params = UcrParams(credits=2, credit_return_threshold=1)
    world = UcrWorld(params=params)
    client_ep, server_ep = world.establish()
    world.server_rt.register_handler(MSG)
    outcome = {}

    def flood():
        try:
            for _ in range(50):
                yield from client_ep.send_message(
                    MSG, header=None, header_bytes=8, data=b"x"
                )
            outcome["done"] = True
        except EndpointClosed:
            outcome["closed_at"] = world.sim.now

    def assassin():
        yield world.sim.timeout(3.0)
        client_ep.fail("injected")

    world.sim.process(flood())
    world.sim.process(assassin())
    world.sim.run()
    assert "closed_at" in outcome  # blocked sender saw the failure, no hang


def test_cq_overflow_sets_flag_and_drops():
    sim = Simulator()
    cq = CompletionQueue(sim, depth=2, name="tiny")
    from repro.verbs.cq import WorkCompletion
    from repro.verbs.enums import Opcode, WcStatus

    for i in range(4):
        cq.push(WorkCompletion(i, Opcode.SEND, WcStatus.SUCCESS))
    assert cq.overflowed
    assert len(cq) == 2  # later entries dropped


def test_recv_buffers_returned_to_pool_on_endpoint_failure():
    world = UcrWorld()
    client_ep, server_ep = world.establish()
    pool = world.server_rt.recv_pool
    free_before = pool.free_count
    server_ep.fail("injected")
    # The flushed recv completions flow through the progress engine and
    # release their bounce buffers.
    world.sim.run()
    assert pool.free_count >= free_before  # nothing leaked to the QP


def test_buffer_pool_double_release_rejected():
    world = UcrWorld()
    buf = world.client_rt.recv_pool.get()
    buf.release()
    with pytest.raises(ValueError):
        buf.release()  # repro-lint: disable=L009 -- deliberate double release; asserts the pool rejects it


def test_rendezvous_pool_size_classes():
    world = UcrWorld()
    rt = world.client_rt
    small = rt.rendezvous_pool_for(10_000)
    big = rt.rendezvous_pool_for(200_000)
    assert small.buffer_bytes < big.buffer_bytes
    assert rt.rendezvous_pool_for(10_000) is small  # cached per class
    with pytest.raises(ValueError):
        rt.rendezvous_pool_for(64 * 1024 * 1024)


def test_counter_registry_lifecycle():
    world = UcrWorld()
    rt = world.client_rt
    c = rt.create_counter("tmp")
    assert rt.counter_by_id(c.counter_id) is c


def test_duplicate_handler_registration_rejected():
    world = UcrWorld()
    world.server_rt.register_handler(MSG)
    with pytest.raises(ValueError):
        # The duplicate is the point of this test.
        world.server_rt.register_handler(MSG)  # repro-lint: disable=L005


def test_unknown_handler_lookup_raises():
    world = UcrWorld()
    with pytest.raises(KeyError):
        world.server_rt.handler_for(12345)
