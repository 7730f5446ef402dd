"""What the client asks of a transport, and what it refuses to send."""

import pytest

from repro.cluster import CLUSTER_A, Cluster
from repro.memcached.command import Command
from repro.memcached.errors import ClientError

#: config -> cluster.client() arguments
CONFIGS = {
    "UCR-IB": ("UCR-IB", {}),
    "UCR-1S": ("UCR-1S", {}),
    "IPoIB/text": ("IPoIB", {"binary": False}),
    "IPoIB/bin": ("IPoIB", {"binary": True}),
}

ENTRIES = {
    "call": lambda client, cmd: client.call(cmd),
    "pipeline": lambda client, cmd: client.pipeline(
        [Command("get", keys=["other"]), cmd]
    ),
}


def live_link(transport):
    """The transport's endpoint (UCR) or socket (sockets) to the server,
    checked to be up."""
    if hasattr(transport, "_endpoints"):
        ep = transport._endpoints["server"]
        assert not ep.failed
        return ep
    conn = transport._conns["server"]
    assert conn.connected
    return conn.sock


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("config", CONFIGS)
def test_noreply_is_refused_before_anything_is_sent(config, entry):
    """A noreply command gets no reply, so a client that waits for one
    would hang (sockets) or time out and fail a healthy endpoint (UCR).
    It raises at once instead, and the link keeps serving."""
    cluster = Cluster(CLUSTER_A, n_client_nodes=1)
    cluster.start_server()
    name, kwargs = CONFIGS[config]
    client = cluster.client(name, **kwargs)
    noreply_set = Command("set", keys=["k"], value=b"new", noreply=True)

    def scenario():
        yield from client.set("k", b"old")
        link = live_link(client.transport)
        start = cluster.sim.now
        with pytest.raises(ClientError, match="noreply"):
            yield from ENTRIES[entry](client, noreply_set)
        refused_after = cluster.sim.now - start
        got = yield from client.get("k")
        return refused_after, link, got

    p = cluster.sim.process(scenario())
    cluster.sim.run()
    assert p.processed
    refused_after, link, got = p.value
    assert refused_after == 0
    assert got == b"old"  # nothing was sent
    assert live_link(client.transport) is link  # no reconnect


@pytest.mark.parametrize("transport", ["UCR-IB", "UCR-1S"])
def test_constructing_a_transport_creates_no_counter(transport):
    """Response counters come out of the per-request pool."""
    cluster = Cluster(CLUSTER_A, n_client_nodes=1)
    cluster.start_server()
    runtime = cluster.runtimes["client0"]
    before = dict(runtime._counters)
    cluster.client(transport)
    assert runtime._counters == before
