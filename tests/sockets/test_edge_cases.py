"""Socket edge cases: connect timeouts, closed states, validation."""

import pytest

from repro.sockets import SocketError

from repro.testing import SocketWorld


def test_connect_to_closed_port_times_out():
    world = SocketWorld()
    sock = world.stacks[0].socket()
    outcome = {}

    def proc():
        try:
            yield from sock.connect("n1", 4444, timeout_us=500.0)
        except ConnectionRefusedError:
            outcome["refused_at"] = world.sim.now

    world.sim.process(proc())
    world.sim.run()
    assert outcome["refused_at"] >= 500.0
    assert sock.state.value == "closed"
    assert sock._connect_done.name == f"connect:{sock.port}"  # rendered on this read


def test_connect_timeout_does_not_leak_connection():
    world = SocketWorld()
    sock = world.stacks[0].socket()

    def proc():
        try:
            yield from sock.connect("n1", 4444, timeout_us=100.0)
        except ConnectionRefusedError:
            pass

    world.sim.process(proc())
    world.sim.run()
    assert len(world.stacks[0]._connections) == 0


def test_late_synack_after_timeout_is_ignored():
    """Listener appears *after* the SYN flew: the stale SYNACK must not
    resurrect the timed-out socket."""
    world = SocketWorld()
    sock = world.stacks[0].socket()
    outcome = {}

    def client_proc():
        try:
            yield from sock.connect("n1", 4545, timeout_us=1.0)
        except ConnectionRefusedError:
            outcome["refused"] = True

    # The listener binds immediately, so a SYNACK will arrive ~10 µs in,
    # well after the 1 µs timeout.
    listener = world.stacks[1].socket()
    listener.bind(4545)
    listener.listen()

    def acceptor():
        try:
            server = yield from listener.accept()
        except Exception:
            pass

    world.sim.process(client_proc())
    world.sim.process(acceptor())
    world.sim.run(until=5000.0)
    assert outcome.get("refused")
    assert sock.state.value == "closed"


def test_double_connect_rejected():
    world = SocketWorld()
    client, _ = world.connect_pair()

    def proc():
        try:
            yield from client.connect("n1", 5000)
        except SocketError:
            return "rejected"

    p = world.sim.process(proc())
    world.sim.run()
    assert p.value == "rejected"


def test_accept_on_plain_socket_rejected():
    world = SocketWorld()
    sock = world.stacks[0].socket()

    def proc():
        try:
            yield from sock.accept()
        except SocketError:
            return "rejected"

    p = world.sim.process(proc())
    world.sim.run()
    assert p.value == "rejected"


def test_close_is_idempotent():
    world = SocketWorld()
    client, server = world.connect_pair()
    client.close()
    client.close()  # second close: no-op, no crash
    world.sim.run()


def test_closing_a_listener_frees_its_port():
    world = SocketWorld()
    listener = world.stacks[1].socket()
    listener.bind(6000)
    listener.listen()
    with pytest.raises(OSError, match="already in use"):
        world.stacks[1].socket().bind(6000)
    listener.close()
    successor = world.stacks[1].socket()
    successor.bind(6000)  # the port is free again
    successor.listen()

    def late_client():
        yield from world.stacks[0].socket().connect("n1", 6000)
        return successor.accept_pending and not listener.accept_pending

    p = world.sim.process(late_client())
    world.sim.run()
    assert p.value is True  # the SYN went to the new owner of the port


def test_two_blocked_accepts_each_get_a_connection():
    world = SocketWorld()
    listener = world.stacks[1].socket()
    listener.bind(6000)
    listener.listen()
    accepted = []

    def acceptor(tag):
        child = yield from listener.accept()
        accepted.append((tag, child.conn.remote_port))

    def client():
        sock = world.stacks[0].socket()
        yield from sock.connect("n1", 6000)
        return sock.port

    world.sim.process(acceptor("first"))
    world.sim.process(acceptor("second"))
    world.sim.run()  # both park on the one armed wake
    ports = []
    for _ in range(2):
        p = world.sim.process(client())
        world.sim.run()
        ports.append(p.value)
    assert accepted == [("first", ports[0]), ("second", ports[1])]


def test_nonblocking_accept_would_block():
    from repro.sockets import WouldBlock

    world = SocketWorld()
    listener = world.stacks[1].socket()
    listener.bind(6000)
    listener.listen()
    listener.setblocking(False)

    def proc():
        try:
            yield from listener.accept()
        except WouldBlock:
            return "eagain"

    p = world.sim.process(proc())
    world.sim.run()
    assert p.value == "eagain"


def test_send_after_close_raises():
    world = SocketWorld()
    client, server = world.connect_pair()
    client.close()

    def proc():
        try:
            yield from client.send(b"zombie")
        except Exception as exc:
            return type(exc).__name__

    p = world.sim.process(proc())
    world.sim.run()
    assert p.value in ("NotConnected", "BrokenPipeError")


def test_writable_false_when_sndbuf_full():
    world = SocketWorld()
    client, server = world.connect_pair()
    client.conn.sndbuf = 10
    client.conn.bytes_unsent = 10
    assert client.writable is False
    client.conn.bytes_unsent = 0
    assert client.writable is True
