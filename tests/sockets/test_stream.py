"""Byte-stream semantics across all four stacks."""

import pytest

from repro.sockets import NotConnected, SocketError, WouldBlock


def test_connect_accept_roundtrip(any_world):
    client, server = any_world.connect_pair()
    assert client.state.value == "connected"
    assert server.state.value == "connected"


def test_send_recv_data_integrity(any_world):
    world = any_world
    client, server = world.connect_pair()
    payload = bytes(range(256)) * 8  # 2 KB, crosses MTU on several stacks
    got = {}

    def client_proc():
        yield from client.send(payload)

    def server_proc():
        data = yield from server.recv_exactly(len(payload))
        got["data"] = data

    world.sim.process(client_proc())
    world.sim.process(server_proc())
    world.sim.run()
    assert got["data"] == payload


def test_partial_reads_reassemble(world):
    client, server = world.connect_pair()
    payload = b"0123456789" * 100
    chunks = []

    def client_proc():
        yield from client.send(payload)

    def server_proc():
        received = 0
        while received < len(payload):
            chunk = yield from server.recv(7)  # tiny reads
            chunks.append(chunk)
            received += len(chunk)

    world.sim.process(client_proc())
    world.sim.process(server_proc())
    world.sim.run()
    assert b"".join(chunks) == payload
    assert all(len(c) <= 7 for c in chunks)


def test_two_sends_coalesce_into_stream(world):
    """Byte-stream semantics: message boundaries are NOT preserved."""
    client, server = world.connect_pair()
    got = {}

    def client_proc():
        yield from client.send(b"get ")
        yield from client.send(b"key\r\n")

    def server_proc():
        data = yield from server.recv_exactly(9)
        got["data"] = data

    world.sim.process(client_proc())
    world.sim.process(server_proc())
    world.sim.run()
    assert got["data"] == b"get key\r\n"


def test_bidirectional_traffic(world):
    client, server = world.connect_pair()
    got = {}

    def client_proc():
        yield from client.send(b"ping")
        got["reply"] = yield from client.recv_exactly(4)

    def server_proc():
        req = yield from server.recv_exactly(4)
        assert req == b"ping"
        yield from server.send(b"pong")

    world.sim.process(client_proc())
    world.sim.process(server_proc())
    world.sim.run()
    assert got["reply"] == b"pong"


def test_recv_blocks_until_data(world):
    client, server = world.connect_pair()
    t = {}

    def server_proc():
        yield from server.recv(16)
        t["recv_done"] = world.sim.now

    def client_proc():
        yield world.sim.timeout(500.0)
        yield from client.send(b"late")

    world.sim.process(server_proc())
    world.sim.process(client_proc())
    world.sim.run()
    assert t["recv_done"] > 500.0


def test_nonblocking_recv_raises_wouldblock(world):
    client, server = world.connect_pair()
    server.setblocking(False)
    outcome = {}

    def server_proc():
        try:
            yield from server.recv(16)
        except WouldBlock:
            outcome["raised"] = True

    world.sim.process(server_proc())
    world.sim.run()
    assert outcome.get("raised")


def test_eof_after_close(world):
    client, server = world.connect_pair()
    got = {}

    def client_proc():
        yield from client.send(b"bye")
        client.close()

    def server_proc():
        data = yield from server.recv_exactly(3)
        tail = yield from server.recv(16)
        got["data"], got["tail"] = data, tail

    world.sim.process(client_proc())
    world.sim.process(server_proc())
    world.sim.run()
    assert got["data"] == b"bye"
    assert got["tail"] == b""


def test_recv_exactly_raises_on_early_eof(world):
    client, server = world.connect_pair()
    outcome = {}

    def client_proc():
        yield from client.send(b"xx")
        client.close()

    def server_proc():
        try:
            yield from server.recv_exactly(10)
        except EOFError:
            outcome["eof"] = True

    world.sim.process(client_proc())
    world.sim.process(server_proc())
    world.sim.run()
    assert outcome.get("eof")


def test_send_on_unconnected_raises(world):
    sock = world.stacks[0].socket()

    def proc():
        try:
            yield from sock.send(b"x")
        except NotConnected:
            return "raised"

    p = world.sim.process(proc())
    world.sim.run()
    assert p.value == "raised"


def test_bind_conflict(world):
    a = world.stacks[0].socket()
    b = world.stacks[0].socket()
    a.bind(7000)
    with pytest.raises(OSError):
        b.bind(7000)


def test_listen_requires_bind(world):
    sock = world.stacks[0].socket()
    with pytest.raises(SocketError):
        sock.listen()


def test_multiple_clients_one_listener(world):
    """Three clients on node 0 connect to one listener on node 1."""
    listener = world.stacks[1].socket()
    listener.bind(8000)
    listener.listen()
    servers = []
    replies = []

    def acceptor():
        for _ in range(3):
            server = yield from listener.accept()
            servers.append(server)

    def client_proc(tag):
        sock = world.stacks[0].socket()
        yield from sock.connect("n1", 8000)
        yield from sock.send(b"%d" % tag)
        replies.append(tag)

    world.sim.process(acceptor())
    for tag in range(3):
        world.sim.process(client_proc(tag))
    world.sim.run()
    assert len(servers) == 3
    assert sorted(replies) == [0, 1, 2]


def test_sndbuf_backpressure(world):
    client, server = world.connect_pair()
    client.conn.sndbuf = 1024  # tiny send buffer
    progress = []

    def client_proc():
        for i in range(8):
            yield from client.send(bytes(512))
            progress.append(world.sim.now)

    def server_proc():
        yield from server.recv_exactly(8 * 512)

    world.sim.process(client_proc())
    world.sim.process(server_proc())
    world.sim.run()
    # Later sends must have been delayed by buffer drain, so the spacing
    # between first and last send completion exceeds pure CPU-cost spacing.
    assert progress[-1] - progress[0] > 0


def test_blocking_send_waits_for_send_buffer_room(world):
    """Send-buffer room is the one thing a sender hears about bytes it has
    handed over: a second send() on a full buffer parks until the tx pump
    has wired the first one out."""
    client, server = world.connect_pair()
    client.conn.sndbuf = 1024
    unsent_at_return = []

    def client_proc():
        for _ in range(2):
            yield from client.send(bytes(4096))
            unsent_at_return.append(client.conn.bytes_unsent)

    world.sim.process(client_proc())
    world.sim.run()
    assert unsent_at_return == [4096, 4096]  # 8192 had the second not waited
    assert len(server.conn.rx_buffer) == 8192


def test_stack_peer_lookup_unknown(world):
    with pytest.raises(KeyError):
        world.stacks[0].peer("ghost")
