"""Counters, wait-with-timeout, credits, and fault isolation."""

import pytest

from repro.core import UcrParams, UcrRuntime, UcrTimeout
from repro.core.errors import EndpointClosed

from repro.testing import SERVICE, UcrWorld

MSG_SINK = 2


# -------------------------------------------------------------- counters


def test_counter_monotone_and_waiters(world):
    c = world.client_rt.create_counter("c")
    results = []

    def waiter(threshold):
        v = yield from c.wait_for(threshold)
        results.append((threshold, world.sim.now, v))

    def bumper():
        for _ in range(3):
            yield world.sim.timeout(10.0)
            c.add()

    world.sim.process(waiter(1))
    world.sim.process(waiter(3))
    world.sim.process(bumper())
    world.sim.run()
    assert [r[0] for r in sorted(results)] == [1, 3]
    assert results[0][1] == 10.0
    assert results[1][1] == 30.0


def test_counter_wait_already_reached(world):
    c = world.client_rt.create_counter()
    c.add(5)

    def waiter():
        v = yield from c.wait_for(3)
        return (v, world.sim.now)

    p = world.sim.process(waiter())
    world.sim.run()
    assert p.value == (5, 0.0)


def test_counter_timeout_raises(world):
    c = world.client_rt.create_counter()

    def waiter():
        try:
            yield from c.wait_for(1, timeout_us=42.0)
        except UcrTimeout:
            return world.sim.now

    p = world.sim.process(waiter())
    world.sim.run()
    assert p.value == 42.0


def test_counter_timeout_withdraws_waiter(world):
    c = world.client_rt.create_counter()

    def waiter():
        try:
            yield from c.wait_for(1, timeout_us=10.0)
        except UcrTimeout:
            pass

    world.sim.process(waiter())
    world.sim.run()
    c.add()  # late increment must not explode on a dangling waiter
    assert c.value == 1


def test_increment_in_the_instant_of_the_deadline_loses_quietly(world):
    """The deadline has fired but the waiter has not resumed yet: the
    increment finds the waiter's event already failed and leaves it alone."""
    c = world.client_rt.create_counter()
    sim = world.sim

    def waiter():
        with pytest.raises(UcrTimeout):
            yield from c.wait_for(1, timeout_us=10.0)
        return sim.now

    def bumper():  # scheduled after the deadline timer, at the same time
        yield sim.timeout(10.0)
        c.add()

    p = sim.process(waiter())
    sim.process(bumper())
    sim.run()
    assert (p.value, c.value, c._waiters) == (10.0, 1, [])


def test_counter_rejects_zero_or_negative(world):
    c = world.client_rt.create_counter()
    with pytest.raises(ValueError):
        c.add(0)


def test_wait_increment(world):
    c = world.client_rt.create_counter()
    c.add(7)

    def waiter():
        yield from c.wait_increment(timeout_us=100.0)
        return c.value

    def bumper():
        yield world.sim.timeout(5.0)
        c.add()

    p = world.sim.process(waiter())
    world.sim.process(bumper())
    world.sim.run()
    assert p.value == 8


# ----------------------------------------------------------- flow control


def test_send_credits_deplete_and_recover():
    params = UcrParams(credits=4, credit_return_threshold=2)
    world = UcrWorld(params=params)
    client_ep, server_ep = world.establish()
    world.server_rt.register_handler(MSG_SINK)
    sent = []

    def sender():
        for i in range(20):  # 5x the credit window
            yield from client_ep.send_message(
                MSG_SINK, header=None, header_bytes=8, data=b"x"
            )
            sent.append(i)

    world.sim.process(sender())
    world.sim.run()
    assert len(sent) == 20  # all went through: credits were returned
    assert 0 <= client_ep.send_credits <= params.credits


def test_credit_window_never_overruns_receiver():
    """With correct flow control the RC queue never sees RNR."""
    params = UcrParams(credits=2, credit_return_threshold=1)
    world = UcrWorld(params=params)
    client_ep, server_ep = world.establish()
    world.server_rt.register_handler(MSG_SINK)

    def sender():
        for _ in range(50):
            yield from client_ep.send_message(
                MSG_SINK, header=None, header_bytes=8, data=b"y"
            )

    world.sim.process(sender())
    world.sim.run()  # UnhandledFailure would surface an RNR completion
    assert not client_ep.failed
    assert not server_ep.failed


def test_rendezvous_flow_with_tiny_credits():
    params = UcrParams(credits=2, credit_return_threshold=1)
    world = UcrWorld(params=params)
    client_ep, server_ep = world.establish()
    got = []

    def completion(ep, header, data):
        got.append(len(data))
        yield world.sim.timeout(0)

    world.server_rt.register_handler(MSG_SINK, None, completion)

    def sender():
        for _ in range(6):
            yield from client_ep.send_message(
                MSG_SINK, header=None, header_bytes=8, data=bytes(16 * 1024)
            )

    world.sim.process(sender())
    world.sim.run()
    assert got == [16 * 1024] * 6
    assert client_ep.staged_count == 0


# ------------------------------------------------------------ fault model


def test_endpoint_failure_is_contained(connected_pair_of_two=None):
    """Failing one endpoint leaves the runtime and siblings working."""
    world = UcrWorld(n_nodes=3)
    # Two client nodes (n0, n2) talk to one server (n1).
    server_ctx = world.server_rt.create_context("server")
    eps = {}
    world.server_rt.listen(
        11211,
        select_context=lambda: server_ctx,
        on_endpoint=lambda ep, pdata: eps.setdefault("srv_" + str(pdata), ep),
    )
    ctx0 = world.runtimes[0].create_context("c0")
    ctx2 = world.runtimes[2].create_context("c2")

    def connector(ctx, tag):
        ep = yield from ctx.connect(world.server_rt, 11211, private_data=tag)
        eps[tag] = ep

    world.sim.process(connector(ctx0, "a"))
    world.sim.process(connector(ctx2, "b"))
    world.sim.run()

    world.server_rt.register_handler(MSG_SINK)
    target = world.server_rt.create_counter()

    eps["a"].fail("injected failure")
    assert eps["a"].failed

    def sender():
        yield from eps["b"].send_message(
            MSG_SINK, header=None, header_bytes=8, data=b"alive", target_counter=target
        )

    world.sim.process(sender())
    world.sim.run()
    assert target.value == 1  # sibling endpoint unaffected
    assert not eps["b"].failed


def test_send_on_failed_endpoint_raises():
    world = UcrWorld()
    client_ep, _ = world.establish()
    client_ep.fail("dead peer")

    def sender():
        try:
            yield from client_ep.send_message(2, header=None, header_bytes=8, data=b"z")
        except EndpointClosed:
            return "raised"

    p = world.sim.process(sender())
    world.sim.run()
    assert p.value == "raised"


def test_failure_callback_invoked():
    world = UcrWorld()
    client_ep, _ = world.establish()
    seen = []
    client_ep.on_failure = lambda ep: seen.append(ep.ep_id)
    client_ep.fail("x")
    client_ep.fail("x again")  # idempotent
    assert seen == [client_ep.ep_id]


def test_connect_timeout_raises():
    world = UcrWorld()
    ctx = world.client_rt.create_context("c")
    # Nothing listens on 999 and the CM REJ path takes a round trip; use a
    # sub-round-trip timeout to force the UcrTimeout branch.
    outcome = {}

    def connector():
        try:
            yield from ctx.connect(world.server_rt, 999, timeout_us=1.0)
        except UcrTimeout:
            outcome["timeout"] = True
        except ConnectionRefusedError:
            outcome["refused"] = True

    world.sim.process(connector())
    world.sim.run()
    assert outcome.get("timeout")


@pytest.mark.parametrize(
    "timeout_us, accepted",
    # The client's CM answers the REP at 13.54 us and its RTU lands at 17.31.
    [(1.0, 0), (15.0, 1)],
    ids=["before-rep", "rtu-in-flight"],
)
def test_connect_timeout_against_live_listener_is_torn_down(timeout_us, accepted):
    """The abandoned attempt's late REP is answered with a REJ and both
    QPs go; only a deadline that passes with the RTU already in flight
    leaves the listener its endpoint (the peer QP is gone all the same)."""
    world = UcrWorld()
    server_ctx = world.server_rt.create_context("server")
    ctx = world.client_rt.create_context("c")
    endpoints = []
    world.server_rt.listen(
        SERVICE,
        select_context=lambda: server_ctx,
        on_endpoint=lambda ep, pdata: endpoints.append(ep),
    )
    recv_free = world.server_rt.recv_pool.free_count

    def connector():
        with pytest.raises(UcrTimeout):
            yield from ctx.connect(world.server_rt, SERVICE, timeout_us=timeout_us)

    world.sim.process(connector())
    world.sim.run()  # an UnhandledFailure would surface here
    assert len(endpoints) == accepted
    assert len(world.client_rt.hca._qps) == 0
    assert len(world.server_rt.hca._qps) == accepted
    assert not world.client_rt.cm._pending and not world.server_rt.cm._pending
    if not accepted:
        assert world.server_rt.recv_pool.free_count == recv_free


def test_connect_refused_when_no_listener():
    world = UcrWorld()
    ctx = world.client_rt.create_context("c")
    outcome = {}

    def connector():
        try:
            yield from ctx.connect(world.server_rt, 999)
        except ConnectionRefusedError:
            outcome["refused"] = True

    world.sim.process(connector())
    world.sim.run()
    assert outcome.get("refused")


# ----------------------------------------------------------------- params


def test_params_validation():
    with pytest.raises(ValueError):
        UcrParams(recv_buffer_bytes=100, eager_threshold_bytes=8192)
    with pytest.raises(ValueError):
        UcrParams(credits=8, credit_return_threshold=8)
    with pytest.raises(ValueError):
        UcrParams(credits=1, credit_return_threshold=0)
