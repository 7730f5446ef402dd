"""Cluster builder tests."""

import gc
import weakref

import pytest

from repro.cluster import CLUSTER_A, CLUSTER_B, Cluster


def test_cluster_a_has_all_transports():
    assert CLUSTER_A.transports == [
        "UCR-IB", "SDP", "IPoIB", "10GigE-TOE", "1GigE-TCP",
    ]


def test_cluster_b_has_no_10gige():
    assert "10GigE-TOE" not in CLUSTER_B.transports
    assert CLUSTER_B.transports == ["UCR-IB", "SDP", "IPoIB"]


def test_nodes_and_stacks_created():
    cluster = Cluster(CLUSTER_A, n_client_nodes=3)
    assert len(cluster.client_nodes) == 3
    assert set(cluster.stacks) == {"SDP", "IPoIB", "10GigE-TOE", "1GigE-TCP"}
    for per_node in cluster.stacks.values():
        assert len(per_node) == 4  # server + 3 clients
    assert len(cluster.runtimes) == 4


def test_client_before_server_rejected():
    cluster = Cluster(CLUSTER_A, n_client_nodes=1)
    with pytest.raises(RuntimeError):
        cluster.client("UCR-IB")


def test_double_server_start_rejected():
    cluster = Cluster(CLUSTER_A, n_client_nodes=1)
    cluster.start_server()
    with pytest.raises(RuntimeError):
        cluster.start_server()


def test_bad_client_node_rejected():
    cluster = Cluster(CLUSTER_A, n_client_nodes=1)
    cluster.start_server()
    with pytest.raises(KeyError):
        cluster.client("UCR-IB", client_node=5)


def test_zero_client_nodes_rejected():
    with pytest.raises(ValueError):
        Cluster(CLUSTER_A, n_client_nodes=0)


def test_sdp_on_b_carries_jitter():
    cluster = Cluster(CLUSTER_B, n_client_nodes=1)
    sdp_stack = cluster.stacks["SDP"]["server"]
    assert sdp_stack.params.jitter_sigma > 0
    cluster_a = Cluster(CLUSTER_A, n_client_nodes=1)
    assert cluster_a.stacks["SDP"]["server"].params.jitter_sigma == 0


def test_server_slabs_are_rdma_registered():
    cluster = Cluster(CLUSTER_A, n_client_nodes=1)
    server = cluster.start_server()
    server.store.set("k", b"v")
    item = server.store.get("k")
    mr, offset = item.chunk.rdma_location()  # raises if not registered
    assert mr.read(offset, 1) == b"v"


def test_same_seed_same_results():
    def one_latency(seed):
        cluster = Cluster(CLUSTER_B, n_client_nodes=1, seed=seed)
        cluster.start_server()
        client = cluster.client("SDP")  # jittered: exercises the RNG

        def scenario():
            yield from client.set("k", bytes(64))
            t0 = cluster.sim.now
            yield from client.get("k")
            return cluster.sim.now - t0

        p = cluster.sim.process(scenario())
        cluster.sim.run()
        return p.value

    assert one_latency(7) == one_latency(7)
    assert one_latency(7) != one_latency(8)


def test_dropped_ucr_cluster_is_collectable():
    """Nothing module-level keeps a cluster alive: the fabric-wide QP
    directory is weak towards the adapters, so the simulator (and all it
    reaches) dies with the last reference -- no reset hook involved."""
    cluster = Cluster(CLUSTER_A, n_client_nodes=1)
    cluster.start_server()
    client = cluster.client("UCR-IB")

    def one_op():
        yield from client.set("k", b"v")
        return (yield from client.get("k"))

    op = cluster.sim.process(one_op())
    cluster.sim.run()
    assert op.value == b"v"

    sim_ref = weakref.ref(cluster.sim)
    del cluster, client, op
    gc.collect()
    assert sim_ref() is None
