"""epoll emulation tests: interest lists, level-trigger, timeouts."""

import pytest

from repro.sockets import EPOLLIN, EPOLLOUT, Epoll


def make_epoll(world):
    return Epoll(world.sim, world.nodes[1])


def test_wait_returns_ready_socket(world):
    client, server = world.connect_pair()
    ep = make_epoll(world)
    ep.register(server, EPOLLIN)
    got = {}

    def server_proc():
        ready = yield from ep.wait()
        got["ready"] = ready
        got["t"] = world.sim.now

    def client_proc():
        yield world.sim.timeout(100.0)
        yield from client.send(b"wake up")

    world.sim.process(server_proc())
    world.sim.process(client_proc())
    world.sim.run()
    socks = [s for s, mask in got["ready"]]
    assert server in socks
    assert got["t"] > 100.0


def test_wait_immediate_when_already_ready(world):
    client, server = world.connect_pair()
    ep = make_epoll(world)
    ep.register(server, EPOLLIN)
    got = {}

    def client_proc():
        yield from client.send(b"early")

    def server_proc():
        yield world.sim.timeout(1000.0)  # data arrives long before
        t0 = world.sim.now
        ready = yield from ep.wait()
        got["ready"] = ready
        got["dt"] = world.sim.now - t0

    world.sim.process(client_proc())
    world.sim.process(server_proc())
    world.sim.run()
    assert got["ready"]
    # Only the epoll syscall cost; no blocking, no wakeup charge.
    assert got["dt"] < 2.0


def test_wait_timeout_returns_empty(world):
    _, server = world.connect_pair()
    ep = make_epoll(world)
    ep.register(server, EPOLLIN)
    got = {}

    def server_proc():
        ready = yield from ep.wait(timeout_us=50.0)
        got["ready"] = ready
        got["t"] = world.sim.now

    world.sim.process(server_proc())
    world.sim.run()
    assert got["ready"] == []
    assert got["t"] >= 50.0


def test_level_triggered_until_drained(world):
    client, server = world.connect_pair()
    ep = make_epoll(world)
    ep.register(server, EPOLLIN)
    results = []

    def client_proc():
        yield from client.send(b"abcdef")

    def server_proc():
        ready = yield from ep.wait()
        results.append(len(ready))
        # Drain only part: still level-ready.
        yield from server.recv(3)
        ready = yield from ep.wait()
        results.append(len(ready))
        yield from server.recv(3)
        # Now drained: wait would block; use a timeout to prove it.
        ready = yield from ep.wait(timeout_us=20.0)
        results.append(len(ready))

    world.sim.process(client_proc())
    world.sim.process(server_proc())
    world.sim.run()
    assert results == [1, 1, 0]


def test_epollout_on_writable_socket(world):
    client, server = world.connect_pair()
    ep = Epoll(world.sim, world.nodes[0])
    ep.register(client, EPOLLOUT)
    got = {}

    def proc():
        ready = yield from ep.wait()
        got["mask"] = ready[0][1]

    world.sim.process(proc())
    world.sim.run()
    assert got["mask"] & EPOLLOUT


def test_listen_socket_ready_on_pending_accept(world):
    listener = world.stacks[1].socket()
    listener.bind(9100)
    listener.listen()
    ep = make_epoll(world)
    ep.register(listener, EPOLLIN)
    got = {}

    def server_proc():
        ready = yield from ep.wait()
        got["ready"] = [s for s, m in ready]

    def client_proc():
        sock = world.stacks[0].socket()
        yield from sock.connect("n1", 9100)

    world.sim.process(server_proc())
    world.sim.process(client_proc())
    world.sim.run()
    assert got["ready"] == [listener]


def test_register_twice_rejected(world):
    _, server = world.connect_pair()
    ep = make_epoll(world)
    ep.register(server)
    with pytest.raises(ValueError):
        ep.register(server)


def test_unregister_stops_notifications(world):
    client, server = world.connect_pair()
    ep = make_epoll(world)
    ep.register(server, EPOLLIN)
    ep.unregister(server)
    assert len(ep) == 0
    got = {}

    def server_proc():
        ready = yield from ep.wait(timeout_us=200.0)
        got["ready"] = ready

    def client_proc():
        yield from client.send(b"ignored")

    world.sim.process(server_proc())
    world.sim.process(client_proc())
    world.sim.run()
    assert got["ready"] == []


def test_empty_mask_rejected(world):
    _, server = world.connect_pair()
    ep = make_epoll(world)
    with pytest.raises(ValueError):
        ep.register(server, 0)
