"""Pipelined connections: windowed in-flight commands on every transport.

Covers the client's ``pipeline`` entry point (per-command outcomes in
submission order), the transport ``execute_many`` matching policies
(in-order for text, opaque for binary, request-id for UCR AMs), the
depth knob's latency effect, history recording, span coverage, and the
memslap ``pipeline_depth`` integration.
"""

import pytest

from repro.check.history import recorder
from repro.cluster import CLUSTER_A, Cluster
from repro.memcached.sockets_transport import SocketsTransport
from repro.memcached.command import Command
from repro.memcached.errors import ClientError, ProtocolError, ServerDownError
from repro.testing import SocketWorld
from repro.telemetry import tracing
from repro.workloads.memslap import MemslapRunner
from repro.workloads.patterns import GET_ONLY


def run(cluster, gen):
    p = cluster.sim.process(gen)
    cluster.sim.run()
    assert p.processed
    return p.value


def fresh_cluster(**kwargs):
    cluster = Cluster(CLUSTER_A, n_client_nodes=2, **kwargs)
    cluster.start_server()
    return cluster


def mixed_batches(tag):
    """Three windows exercising every matching-relevant op shape.

    Commands inside one window never share a key: in-window ordering on
    the same key is not part of the pipelining contract (UCR services a
    window with concurrent workers).
    """
    return [
        [
            Command(op="set", keys=[f"{tag}-a"], value=b"alpha"),
            Command(op="set", keys=[f"{tag}-b"], value=b"beta"),
            Command(op="set", keys=[f"{tag}-n"], value=b"5"),
        ],
        [
            Command(op="get", keys=[f"{tag}-a"]),
            Command(op="incr", keys=[f"{tag}-n"], delta=3),
            Command(op="get", keys=[f"{tag}-missing"]),
            Command(op="delete", keys=[f"{tag}-b"]),
        ],
        [
            Command(op="get", keys=[f"{tag}-b"]),
        ],
    ]


EXPECTED = [[True, True, True], [b"alpha", 8, None, True], [None]]

POINTS = [
    ("UCR-IB", False),
    ("10GigE-TOE", False),
    ("10GigE-TOE", True),
    ("SDP", False),
    ("SDP", True),
]


@pytest.mark.parametrize("transport,binary", POINTS)
@pytest.mark.parametrize("depth", [1, 4])
def test_pipeline_outcomes_in_order(transport, binary, depth):
    cluster = fresh_cluster()
    kwargs = {} if transport == "UCR-IB" else {"binary": binary}
    client = cluster.client(transport, **kwargs)
    tag = f"{transport}-{binary}-{depth}"
    windows = []
    execute_many = client.transport.execute_many

    def spy(server, commands, window, trace=None):
        windows.append(window)
        return execute_many(server, commands, window, trace=trace)

    client.transport.execute_many = spy

    def scenario():
        got = []
        for batch in mixed_batches(tag):
            got.append((yield from client.pipeline(batch, depth=depth)))
        return got

    assert run(cluster, scenario()) == EXPECTED
    # Depth 1 is the client's own loop over execute; windows start at 2.
    assert windows == ([depth] * 3 if depth > 1 else [])


@pytest.mark.parametrize("transport,binary", [("UCR-IB", False),
                                              ("10GigE-TOE", True)])
def test_pipeline_depth_reduces_latency(transport, binary):
    """The whole point: depth-D windows overlap D round trips."""
    elapsed = {}
    for depth in (1, 8):
        cluster = fresh_cluster()
        kwargs = {} if transport == "UCR-IB" else {"binary": binary}
        client = cluster.client(transport, **kwargs)
        batch = [Command(op="set", keys=[f"k{i}"], value=b"v") for i in range(32)]

        def scenario(c=client, b=batch, d=depth, cl=cluster):
            yield from c.pipeline(b[:1], depth=1)  # connect outside the window
            start = cl.sim.now
            yield from c.pipeline(b, depth=d)
            return cl.sim.now - start

        elapsed[depth] = run(cluster, scenario())
    assert elapsed[8] < elapsed[1] / 2, elapsed


def test_pipeline_error_is_an_entry_not_a_raise():
    cluster = fresh_cluster()
    client = cluster.client("10GigE-TOE")
    batch = [
        Command(op="set", keys=["pe-k"], value=b"not-a-number"),
        Command(op="incr", keys=["pe-k"], delta=1),
        Command(op="get", keys=["pe-k"]),
    ]
    outcomes = run(cluster, client.pipeline(batch, depth=3))
    assert outcomes[0] is True
    assert isinstance(outcomes[1], ClientError)
    assert outcomes[2] == b"not-a-number"


@pytest.mark.parametrize("answer, felled_by", [
    (b"STORED\r\nSTORED\r\n", ProtocolError),  # STORED answers no get: desync
    (b"STORED\r\n", ServerDownError),  # one answer, then the server hangs up
])
def test_sockets_window_cut_short_fails_every_unfinished_slot(answer, felled_by):
    """A finished slot keeps its reply; every slot still pending gets the
    one exception that ended the window."""
    world = SocketWorld()
    listener = world.stacks[1].socket()
    listener.bind(11211)
    listener.listen()

    def scripted_server():
        sock = yield from listener.accept()
        yield from sock.recv(4096)
        yield from sock.send(answer)
        sock.close()

    transport = SocketsTransport(world.sim, world.nodes[0], world.stacks[0])
    batch = [
        Command(op="set", keys=["a"], value=b"x"),
        Command(op="get", keys=["b"]),
        Command(op="delete", keys=["c"]),
    ]
    world.sim.process(scripted_server())
    window = world.sim.process(transport.execute_many("n1", batch, window=3))
    world.sim.run()
    stored, second, third = window.value
    assert stored.status == "stored"
    assert isinstance(second, felled_by) and third is second


def test_ucr_window_against_a_server_that_refuses_the_first_connect():
    cluster = fresh_cluster()
    cluster.ucr_ports["server"].crash()
    transport = cluster.client("UCR-IB").transport
    batch = [Command(op="get", keys=[f"k{i}"]) for i in range(3)]
    outcomes = run(cluster, transport.execute_many("server", batch, window=3))
    assert len(outcomes) == 3 and outcomes[0] is outcomes[2]
    assert isinstance(outcomes[0], ServerDownError)


def test_ucr_one_command_window_against_a_dead_server():
    cluster = fresh_cluster()
    cluster.ucr_ports["server"].crash()
    transport = cluster.client("UCR-IB").transport
    outcomes = run(cluster, transport.execute_many(
        "server", [Command(op="get", keys=["k"])], window=4
    ))
    assert len(outcomes) == 1 and isinstance(outcomes[0], ServerDownError)


def test_depth_1_pipeline_against_a_dead_server_returns_the_error_as_an_entry():
    """At depth 1 the pipeline is the blocking loop over ``execute``: the
    error that fells a command is its entry, not a raise."""
    cluster = fresh_cluster()
    cluster.ucr_ports["server"].crash()
    client = cluster.client("UCR-IB")
    outcomes = run(cluster, client.pipeline([Command(op="get", keys=["k"])], depth=1))
    assert len(outcomes) == 1 and isinstance(outcomes[0], ServerDownError)


def test_ucr_window_whose_server_crashes_mid_window_fails_every_command():
    """Four commands are in flight when the server dies: each slot gets
    its own exception, and the window's process finishes."""
    cluster = fresh_cluster()
    client = cluster.client("UCR-IB", timeout_us=500.0)
    transport = client.transport
    sim = cluster.sim
    batch = [Command(op="set", keys=[f"k{i}"], value=b"v") for i in range(4)]

    checked_out = []
    checkout = transport._checkout_counter

    def recording_checkout():
        counter = checkout()
        checked_out.append((counter, counter.value))
        return counter

    transport._checkout_counter = recording_checkout

    def scenario():
        yield from client.get("warm")  # the endpoint exists before the window
        del checked_out[:]
        window = sim.process(transport.execute_many("server", batch, window=4))
        yield sim.timeout(2.0)
        # Every request is on its way, each waiting on its own counter,
        # and none is answered.
        assert len({counter.counter_id for counter, _ in checked_out}) == 4
        assert all(counter.value == value for counter, value in checked_out)
        assert transport._pending == {} and not window.triggered
        cluster.ucr_ports["server"].crash()
        return (yield window)

    outcomes = run(cluster, scenario())
    assert len(outcomes) == 4
    assert all(isinstance(o, ServerDownError) for o in outcomes)


def test_pipeline_spreads_over_servers_in_submission_order():
    cluster = fresh_cluster(n_servers=3)
    client = cluster.client("UCR-IB")
    sets = [Command(op="set", keys=[f"ms-{i}"], value=str(i).encode())
            for i in range(12)]
    gets = [Command(op="get", keys=[f"ms-{i}"]) for i in range(12)]
    assert run(cluster, client.pipeline(sets, depth=4)) == [True] * 12
    values = run(cluster, client.pipeline(gets, depth=4))
    assert values == [str(i).encode() for i in range(12)]


def test_pipeline_records_each_command():
    cluster = fresh_cluster()
    client = cluster.client("10GigE-TOE")
    batch = [
        Command(op="set", keys=["pr-k"], value=b"7"),
        Command(op="incr", keys=["pr-k"], delta=2),
        Command(op="set", keys=["pr-x"], value=b"nope"),
        Command(op="incr", keys=["pr-x"], delta=1),
    ]
    with recorder.recording():
        run(cluster, client.pipeline(batch, depth=4))
        records = list(recorder.records)
    assert [(r.op, r.key) for r in records] == [
        ("set", "pr-k"), ("incr", "pr-k"), ("set", "pr-x"), ("incr", "pr-x")
    ]
    assert records[0].args == (b"7",)
    assert records[1].args == (2,)
    assert [r.status for r in records] == ["complete", "complete", "complete", "fail"]
    assert records[1].outcome == 9
    assert records[3].outcome == ("error", "client")


def test_get_multi_records_one_get_per_key():
    cluster = fresh_cluster()
    client = cluster.client("UCR-IB")

    def scenario():
        yield from client.set("gm-a", b"1")
        yield from client.set("gm-b", b"2")
        with recorder.recording():
            yield from client.get_multi(["gm-a", "gm-b", "gm-miss"])
            return list(recorder.records)

    records = run(cluster, scenario())
    assert [(r.op, r.key, r.status) for r in records] == [
        ("get", "gm-a", "complete"),
        ("get", "gm-b", "complete"),
        ("get", "gm-miss", "complete"),
    ]
    assert [r.outcome for r in records] == [b"1", b"2", None]


def test_client_ops_emit_spans():
    """Every client op carries a span, uniformly named ``client.<op>``."""
    cluster = fresh_cluster()
    client = cluster.client("10GigE-TOE")

    def scenario():
        yield from client.set("sp-k", b"v")
        yield from client.append("sp-k", b"+tail")
        yield from client.prepend("sp-k", b"head+")
        token = yield from client.gets("sp-k")
        yield from client.cas("sp-k", b"replaced", token[1])
        yield from client.get_multi(["sp-k", "sp-miss"])
        yield from client.delete("sp-k")
        yield from client.pipeline(
            [Command(op="set", keys=["sp-p"], value=b"v"),
             Command(op="get", keys=["sp-p"])],
            depth=2,
        )

    with tracing() as t:
        run(cluster, scenario())
        names = {s.name for s in t.finished_spans()}
    assert {
        "client.set", "client.append", "client.prepend", "client.gets",
        "client.cas", "client.get_multi", "client.delete",
        "client.pipeline", "sockets.pipeline", "sockets.roundtrip",
    } <= names
    pipeline_spans = [s for s in t.finished_spans() if s.name == "client.pipeline"]
    assert pipeline_spans[0].attrs == {"nops": 2, "depth": 2}


@pytest.mark.parametrize("depth", [1, 4])
def test_memslap_pipelined_is_deterministic(depth):
    def one_run():
        cluster = fresh_cluster()
        runner = MemslapRunner(
            cluster, "UCR-IB", value_size=64, pattern=GET_ONLY,
            n_clients=1, n_ops_per_client=40, warmup_ops=2,
            pipeline_depth=depth,
        )
        return runner.run()

    a, b = one_run(), one_run()
    assert a.pipeline_depth == depth
    assert a.ops_completed == a.total_ops
    assert (a.elapsed_us, a.ops_completed) == (b.elapsed_us, b.ops_completed)


def test_memslap_depth_raises_throughput():
    results = {}
    for depth in (1, 8):
        cluster = fresh_cluster()
        runner = MemslapRunner(
            cluster, "UCR-IB", value_size=64, pattern=GET_ONLY,
            n_clients=1, n_ops_per_client=64, warmup_ops=2,
            pipeline_depth=depth,
        )
        results[depth] = runner.run()
    assert results[8].tps > 1.5 * results[1].tps
