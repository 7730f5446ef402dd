"""MemslapRunner integration: latency and TPS accounting."""

import pytest

from repro.chaos import ChaosController, FaultSchedule, NodeCrash
from repro.cluster import CLUSTER_A, Cluster
from repro.workloads import (
    GET_ONLY,
    INTERLEAVED_50_50,
    NON_INTERLEAVED_10_90,
    SET_ONLY,
    KeyChooser,
    MemslapRunner,
)


@pytest.fixture(scope="module")
def cluster():
    c = Cluster(CLUSTER_A, n_client_nodes=4)
    c.start_server()
    return c


def test_single_client_latency_run(cluster):
    result = MemslapRunner(
        cluster, "UCR-IB", value_size=64, pattern=GET_ONLY,
        n_clients=1, n_ops_per_client=20,
    ).run()
    assert len(result.latency) == 20
    assert len(result.get_latency) == 20
    assert len(result.set_latency) == 0
    assert result.latency.median() > 0
    assert result.tps > 0


def test_mixed_pattern_records_both_ops(cluster):
    result = MemslapRunner(
        cluster, "UCR-IB", value_size=64, pattern=NON_INTERLEAVED_10_90,
        n_clients=1, n_ops_per_client=20,
    ).run()
    assert len(result.set_latency) == 2
    assert len(result.get_latency) == 18


def test_interleaved_pattern_split(cluster):
    result = MemslapRunner(
        cluster, "UCR-IB", value_size=64, pattern=INTERLEAVED_50_50,
        n_clients=1, n_ops_per_client=10,
    ).run()
    assert len(result.set_latency) == 5
    assert len(result.get_latency) == 5


def test_multi_client_tps_aggregates(cluster):
    single = MemslapRunner(
        cluster, "UCR-IB", value_size=4, pattern=GET_ONLY,
        n_clients=1, n_ops_per_client=50,
    ).run()
    multi = MemslapRunner(
        cluster, "UCR-IB", value_size=4, pattern=GET_ONLY,
        n_clients=4, n_ops_per_client=50,
    ).run()
    assert multi.total_ops == 200
    assert multi.tps > single.tps * 2  # more clients, more aggregate TPS


def test_too_many_clients_rejected(cluster):
    with pytest.raises(ValueError):
        MemslapRunner(cluster, "UCR-IB", 64, n_clients=99)


def test_set_only_runs(cluster):
    result = MemslapRunner(
        cluster, "SDP", value_size=128, pattern=SET_ONLY,
        n_clients=1, n_ops_per_client=8,
    ).run()
    assert len(result.set_latency) == 8


def test_uniform_keys_prepopulated(cluster):
    keys = KeyChooser(mode="uniform", key_space=20, prefix="uni")
    result = MemslapRunner(
        cluster, "UCR-IB", value_size=32, pattern=GET_ONLY,
        n_clients=1, n_ops_per_client=30, keys=keys,
    ).run()  # would assert on a miss if prepopulation failed
    assert len(result.latency) == 30


def test_sockets_slower_than_ucr(cluster):
    ucr = MemslapRunner(cluster, "UCR-IB", 64, GET_ONLY, 1, 15).run()
    toe = MemslapRunner(cluster, "10GigE-TOE", 64, GET_ONLY, 1, 15).run()
    assert toe.latency.median() > ucr.latency.median() * 3


@pytest.mark.parametrize("depth", [1, 4])
def test_lost_ops_are_counted_not_timed_at_every_depth(depth):
    """A permanent crash mid-run: with *tolerate_failures* every op the
    dead server swallows is one ``ops_failed``, and only completed ops
    are timed -- the one accounting block serves both window sizes."""
    cluster = Cluster(CLUSTER_A, n_client_nodes=1)
    cluster.start_server()
    ChaosController(cluster, FaultSchedule((NodeCrash(at_us=1000.0, server="server"),))).arm()
    result = MemslapRunner(
        cluster, "UCR-IB", value_size=64, pattern=INTERLEAVED_50_50,
        n_ops_per_client=200, pipeline_depth=depth, tolerate_failures=True,
        client_factory=lambda i: cluster.client("UCR-IB", i, timeout_us=2000.0),
    ).run()
    assert 0 < result.ops_failed < result.total_ops
    assert result.ops_failed + len(result.latency) == result.total_ops
    assert len(result.set_latency) + len(result.get_latency) == len(result.latency)
