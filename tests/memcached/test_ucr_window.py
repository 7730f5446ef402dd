"""UCR pipelines deeper than the credit window.

A UCR server replies from inside its progress engine (completion handler
-> ``send_message``).  When a reply found the send window shut, the
engine used to park there waiting for a credit -- and the credit return
that would have reopened the window sat unprocessed in that same
engine's receive queue: a 72-deep pipeline of 16 KB sets stored 65 and
the rest timed out with ``ServerDownError``.  A send that finds no credit
now queues on its endpoint and the grant posts it.
"""

import pytest

from repro.cluster import CLUSTER_A, Cluster
from repro.core.params import UCR_DEFAULT
from repro.memcached.command import Command

VALUE = 16 * 1024


def _cluster():
    cluster = Cluster(CLUSTER_A, n_client_nodes=1)
    cluster.start_server()
    return cluster, cluster.client("UCR-IB")


def _run(cluster, gen):
    p = cluster.sim.process(gen)
    cluster.sim.run()
    assert p.processed
    return p.value


def _value(i: int) -> bytes:
    return bytes([i % 251]) * VALUE


def _sets(n: int) -> list:
    return [Command(op="set", keys=[f"w{i}"], value=_value(i)) for i in range(n)]


def _endpoints(cluster, client):
    return [*client.transport._endpoints.values(), *cluster.ucr_ports["server"].endpoints]


def test_a_72_deep_pipeline_of_16k_sets_stores_every_value():
    cluster, client = _cluster()
    outcomes = _run(cluster, client.pipeline(_sets(72), depth=72))
    assert outcomes == [True] * 72
    store = cluster.server.store
    assert all(store.by_key[f"w{i}"].value() == _value(i) for i in range(72))
    assert not any(ep.failed for ep in _endpoints(cluster, client))


@pytest.mark.parametrize("op", ["set", "get"])
def test_four_windows_deep_at_16k_complete_in_both_directions(op):
    """Sets send 16 KB to the server, gets bring 16 KB back: both ride
    rendezvous, and at depth ``4 * credits`` both sides' windows shut."""
    depth = 4 * UCR_DEFAULT.credits
    cluster, client = _cluster()
    if op == "get":
        assert _run(cluster, client.pipeline(_sets(depth), depth=1)) == [True] * depth
        batch = [Command(op="get", keys=[f"w{i}"]) for i in range(depth)]
        expected = [_value(i) for i in range(depth)]
    else:
        batch, expected = _sets(depth), [True] * depth
    assert _run(cluster, client.pipeline(batch, depth=depth)) == expected
    eps = _endpoints(cluster, client)
    assert len(eps) == 2 and not any(ep.failed for ep in eps)
    assert all(not ep._backlog and ep.staged_count == 0 for ep in eps)
