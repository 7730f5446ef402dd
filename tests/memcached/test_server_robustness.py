"""Server robustness: malformed input, connection churn, concurrency."""

import pytest

from repro.cluster import CLUSTER_A, CLUSTER_B, Cluster
from repro.memcached import protocol_binary as binp
from repro.memcached.command import Command
from repro.sim import RngStream
from repro.sockets import stack


@pytest.fixture()
def cluster():
    c = Cluster(CLUSTER_A, n_client_nodes=2)
    c.start_server()
    return c


def run(cluster, gen):
    p = cluster.sim.process(gen)
    cluster.sim.run()
    assert p.processed
    return p.value


def raw_socket(cluster, node=0, transport="10GigE-TOE"):
    return cluster.stacks[transport][f"client{node}"].socket()


def test_malformed_command_gets_error_and_drop(cluster):
    sock = raw_socket(cluster)

    def scenario():
        yield from sock.connect("server", 11211)
        yield from sock.send(b"explode the cache\r\n")
        reply = yield from sock.recv(64)
        tail = yield from sock.recv(64)  # server closed: EOF
        return reply, tail

    reply, tail = run(cluster, scenario())
    assert reply == b"ERROR\r\n"
    assert tail == b""


def test_bad_data_terminator_drops_connection(cluster):
    sock = raw_socket(cluster)

    def scenario():
        yield from sock.connect("server", 11211)
        yield from sock.send(b"set k 0 0 3\r\nabcXX")  # wrong terminator
        reply = yield from sock.recv(64)
        return reply

    assert run(cluster, scenario()) == b"ERROR\r\n"


MALFORMED = {
    # wire format -> (a set of key "a", a get of it, bytes no parser accepts)
    "text": (b"set a 0 0 1\r\nx\r\n", b"get a\r\n", b"bogus\r\n"),
    "binary": (
        binp.encode_command(Command("set", ["a"], value=b"x"), opaque=1),
        binp.encode_command(Command("get", ["a"]), opaque=2),
        b"\x42" * binp.HEADER_LEN,  # bad magic
    ),
}


@pytest.mark.parametrize("wire", sorted(MALFORMED))
def test_framing_does_not_decide_what_executes(wire):
    """Requests completed before malformed bytes are served and answered,
    then the parse error is reported and the connection dropped -- whether
    the bytes arrive in one read or in two."""
    good_set, good_get, bad = MALFORMED[wire]

    def outcome(sends):
        cluster = Cluster(CLUSTER_A, n_client_nodes=2)
        server = cluster.start_server()
        sock = raw_socket(cluster)

        def scenario():
            yield from sock.connect("server", 11211)
            for payload in sends:
                yield from sock.send(payload)
                yield cluster.sim.timeout(500.0)  # its own read on the server
            got = b""
            while chunk := (yield from sock.recv(4096)):
                got += chunk
            return got  # everything up to the server's close

        replies = run(cluster, scenario())
        item = server.store.get("a")
        return replies, item is not None and item.value()

    one_read = outcome([good_set + good_get + bad])
    two_reads = outcome([good_set + good_get, bad])
    assert one_read == two_reads
    replies, stored = one_read
    assert stored == b"x"
    if wire == "text":
        assert replies == b"STORED\r\nVALUE a 0 1\r\nx\r\nEND\r\nERROR\r\n"
    else:  # binary has no in-band parse-error reply: two answers, then EOF
        stored_frame, hit = binp.BinaryParser().feed(replies)
        assert (stored_frame.opaque, stored_frame.status) == (1, binp.Status.NO_ERROR)
        assert (hit.opaque, hit.value) == (2, b"x")


def test_binary_frame_that_does_not_decode_drops_the_connection_only(cluster):
    """A well-framed SET whose extras are the wrong length used to raise
    out of the worker and take the whole epoll loop with it."""
    sock = raw_socket(cluster)
    bad_set = binp.encode(binp.BinMessage(
        binp.MAGIC_REQUEST, binp.Opcode.SET, key=b"k", extras=b"\0\0", value=b"v"
    ))

    def scenario():
        yield from sock.connect("server", 11211)
        good_set = binp.encode_command(Command("set", ["a"], value=b"x"), opaque=1)
        yield from sock.send(good_set + bad_set)
        reply = yield from sock.recv(256)
        tail = yield from sock.recv(256)
        return reply, tail

    reply, tail = run(cluster, scenario())
    [stored] = binp.BinaryParser().feed(reply)
    assert (stored.opaque, stored.status) == (1, binp.Status.NO_ERROR)
    assert tail == b""
    assert cluster.server.store.get("k") is None
    assert all(worker.process.is_alive for worker in cluster.server.workers)


@pytest.mark.parametrize("line", [b"touch k soon\r\n", b"flush_all soon\r\n"])
def test_non_numeric_time_is_a_parse_error_not_a_dead_worker(cluster, line):
    """``float("soon")`` used to raise ``ValueError`` out of the text parser
    and through the worker, taking its epoll loop with it."""
    sock = raw_socket(cluster)

    def scenario():
        yield from sock.connect("server", 11211)
        yield from sock.send(line)
        reply = yield from sock.recv(64)
        tail = yield from sock.recv(64)
        return reply, tail

    assert run(cluster, scenario()) == (b"ERROR\r\n", b"")
    assert all(worker.process.is_alive for worker in cluster.server.workers)


def test_oversized_value_server_error_not_crash(cluster):
    sock = raw_socket(cluster)
    big = 1024 * 1024  # one full page: exceeds item ceiling with overhead

    def scenario():
        yield from sock.connect("server", 11211)
        yield from sock.send(f"set big 0 0 {big}\r\n".encode() + bytes(big) + b"\r\n")
        reply = yield from sock.recv(128)
        # Server is still alive for the next command.
        yield from sock.send(b"version\r\n")
        version = yield from sock.recv(128)
        return reply, version

    reply, version = run(cluster, scenario())
    assert reply.startswith(b"SERVER_ERROR")
    assert version.startswith(b"VERSION")


def test_quit_closes_cleanly(cluster):
    sock = raw_socket(cluster)

    def scenario():
        yield from sock.connect("server", 11211)
        yield from sock.send(b"quit\r\n")
        data = yield from sock.recv(64)
        return data

    assert run(cluster, scenario()) == b""  # EOF, no reply (per protocol)


def test_binary_quit_answers_once_then_closes(cluster):
    """Binary QUIT (unlike text ``quit``) is acknowledged: one response
    frame echoing the opcode and the opaque, then EOF."""
    sock = raw_socket(cluster)
    quit_frame = binp.encode(
        binp.BinMessage(binp.MAGIC_REQUEST, binp.Opcode.QUIT, opaque=0xBEEF)
    )

    def scenario():
        yield from sock.connect("server", 11211)
        yield from sock.send(quit_frame)
        reply = yield from sock.recv(256)
        tail = yield from sock.recv(256)
        return reply, tail

    reply, tail = run(cluster, scenario())
    [frame] = binp.BinaryParser().feed(reply)
    assert (frame.magic, frame.opcode, frame.status, frame.opaque) == (
        binp.MAGIC_RESPONSE, binp.Opcode.QUIT, binp.Status.NO_ERROR, 0xBEEF
    )
    assert tail == b""
    assert not any(worker._conns for worker in cluster.server.workers)


def test_noreply_suppresses_responses(cluster):
    sock = raw_socket(cluster)

    def scenario():
        yield from sock.connect("server", 11211)
        yield from sock.send(b"set nr 0 0 2 noreply\r\nhi\r\nget nr\r\n")
        # Only the get's reply arrives; a STORED would corrupt the stream.
        data = yield from sock.recv(256)
        while b"END\r\n" not in data:
            data += yield from sock.recv(256)
        return data

    data = run(cluster, scenario())
    assert data.startswith(b"VALUE nr 0 2\r\nhi\r\n")
    assert b"STORED" not in data


def test_pipelined_burst_processed_in_order(cluster):
    sock = raw_socket(cluster)

    def scenario():
        yield from sock.connect("server", 11211)
        burst = b"".join(
            f"set p{i} 0 0 1\r\n{i % 10}\r\n".encode() for i in range(20)
        )
        yield from sock.send(burst)
        got = b""
        while got.count(b"STORED\r\n") < 20:
            got += yield from sock.recv(4096)
        return got

    got = run(cluster, scenario())
    assert got == b"STORED\r\n" * 20


def test_connection_churn_many_shortlived(cluster):
    """Open/close 30 connections; the server must not leak or wedge."""
    def scenario():
        for i in range(30):
            sock = raw_socket(cluster, node=i % 2)
            yield from sock.connect("server", 11211)
            yield from sock.send(b"version\r\n")
            data = yield from sock.recv(128)
            assert data.startswith(b"VERSION")
            sock.close()
        # One more real op to prove liveness.
        sock = raw_socket(cluster)
        yield from sock.connect("server", 11211)
        yield from sock.send(b"set last 0 0 2\r\nok\r\n")
        return (yield from sock.recv(64))

    assert run(cluster, scenario()) == b"STORED\r\n"


def test_concurrent_mixed_protocol_clients(cluster):
    """Text, binary and UCR clients hammer the server simultaneously."""
    text = cluster.client("10GigE-TOE", 0)
    binary = cluster.client("SDP", 1, binary=True)
    ucr = cluster.client("UCR-IB", 0)
    results = []

    def worker(client, tag, n=15):
        for i in range(n):
            yield from client.set(f"{tag}-{i}", f"{tag}{i}".encode())
            got = yield from client.get(f"{tag}-{i}")
            assert got == f"{tag}{i}".encode()
        results.append(tag)

    cluster.sim.process(worker(text, "t"))
    cluster.sim.process(worker(binary, "b"))
    cluster.sim.process(worker(ucr, "u"))
    cluster.sim.run()
    assert sorted(results) == ["b", "t", "u"]
    assert cluster.server.stats_requests >= 90


def test_worker_round_robin_assignment(cluster):
    """Connections spread across workers (paper §V-A)."""
    def scenario():
        socks = []
        for i in range(8):
            sock = raw_socket(cluster, node=i % 2)
            yield from sock.connect("server", 11211)
            yield from sock.send(b"version\r\n")
            yield from sock.recv(128)
            socks.append(sock)
        return True

    assert run(cluster, scenario())
    loads = [w.requests_handled for w in cluster.server.workers]
    assert all(load >= 1 for load in loads)  # every worker served someone


@pytest.mark.parametrize("binary", [False, True], ids=["text", "binary"])
@pytest.mark.parametrize(
    "transport, sndbuf", [("IPoIB", stack.DEFAULT_SNDBUF), ("SDP", 128 * 1024)]
)
def test_full_send_buffer_parks_the_worker_instead_of_killing_it(
    transport, sndbuf, binary, monkeypatch
):
    """Depth-4 pipelined 128 KB GETs queue replies faster than the wire
    drains them (benchmarks/perf/README.md, composition (b)): the worker's
    non-blocking ``send`` hits a full send buffer.  That used to escape
    the epoll loop as ``WouldBlock`` and surface as ``UnhandledFailure``.

    Over IPoIB the default buffer fills dozens of times.  Over SDP it takes
    one of the jitter model's rare slow segments, so the buffer is shrunk to
    one reply to make it happen at every seed."""
    monkeypatch.setattr(stack, "DEFAULT_SNDBUF", sndbuf)
    cluster = Cluster(CLUSTER_B, n_client_nodes=2, seed=1)
    server = cluster.start_server(n_workers=4)
    clients = [
        cluster.client(transport, i, pipeline_depth=4, binary=binary) for i in range(2)
    ]
    keys = [[f"big-{c}-{i}" for i in range(20)] for c in range(2)]  # 40 keys

    def value(key):  # the 128 KB class, stretched by up to 20 %
        size = 128 * 1024 + int(key.rsplit("-", 1)[1]) * 1300
        return (key.encode() * (size // len(key) + 1))[:size]

    waits = []
    wait_sndbuf_space = stack.Connection.wait_sndbuf_space
    monkeypatch.setattr(
        stack.Connection, "wait_sndbuf_space",
        lambda conn: waits.append(conn) or wait_sndbuf_space(conn),
    )

    def prepare():
        for client, mine in zip(clients, keys):
            for key in mine:
                yield from client.set(key, value(key))

    run(cluster, prepare())
    wrong = []

    def get_only(client, mine, rng):
        for _ in range(25):
            window = [mine[rng.zipf_index(len(mine), 0.99)] for _ in range(4)]
            got = yield from client.pipeline(
                [Command(op="get", keys=[key]) for key in window], 4
            )
            wrong.extend(k for k, data in zip(window, got) if data != value(k))
        return True

    loops = [
        cluster.sim.process(get_only(client, mine, RngStream(1, f"c{c}")))
        for c, (client, mine) in enumerate(zip(clients, keys))
    ]
    cluster.sim.run()
    assert [loop.value for loop in loops] == [True, True]
    assert wrong == []
    assert all(worker.process.is_alive for worker in server.workers)
    assert waits, "the scenario no longer fills a send buffer"
